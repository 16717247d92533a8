//! Parent/change pairs over the repository benchmark (see `DESIGN.md`
//! §18).
//!
//! ```text
//! bench_history pairs <parent-rev> [--workload <w>]... [--smoke]
//! ```
//!
//! Checks `<parent-rev>` out in a git worktree under `target/pairs/`,
//! builds `benchmark/` there and in the working tree (the change), then
//! runs the two binaries in alternating pairs, seeds 1 to 10 (the parent
//! first on odd seeds), and one traced pair on seed 1. Workloads, run
//! length, metrics and bounds come from `BENCHMARK.json`; `--workload`
//! defaults to all of them. `--smoke` runs the benchmark's smoke size,
//! one pass per run and 2 pairs, so every verdict reads `unresolved`.
//!
//! Prints, per workload, each end-to-end metric's pairs, wins, medians,
//! parent IQR, Mann–Whitney p and verdict, both sides' failed checks, an
//! exact diff of the traced pair's deterministic metrics and the `_pct`
//! shares that moved. Every result line goes to
//! `BENCH_HISTORY/<change>-vs-<parent>.jsonl` (under `LTS_BENCH_DIR` when
//! set, else the repository root), which is never overwritten.
//!
//! Exit code: 0, or 1 on a `regression` verdict or a larger share of
//! failed checks on the change's side, or 2 when a step could not run.

use lts_bench::history::pairs::{
    ledger_line, summarize, Contract, Run, RunResult, Side, PAIRS, SMOKE_PAIRS,
};
use std::fs::OpenOptions;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

const USAGE: &str = "usage: bench_history pairs <parent-rev> [--workload <w>]... [--smoke]";

/// Parsed command line.
#[derive(Debug, PartialEq)]
struct Args {
    parent: String,
    workloads: Vec<String>,
    smoke: bool,
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut args = args.into_iter();
    if args.next().as_deref() != Some("pairs") {
        return Err("the only subcommand is `pairs`".into());
    }
    let (mut parent, mut workloads, mut smoke) = (None, Vec::new(), false);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--workload" => workloads.push(args.next().ok_or("--workload needs a value")?),
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            _ if parent.is_none() => parent = Some(arg),
            _ => return Err(format!("unexpected argument {arg}")),
        }
    }
    Ok(Args { parent: parent.ok_or("the parent revision is required")?, workloads, smoke })
}

fn main() -> ExitCode {
    let result = parse_args(std::env::args().skip(1))
        .map_err(|e| format!("{e}\n{USAGE}"))
        .and_then(|args| pairs(&args));
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("bench_history: {e}");
            ExitCode::from(2)
        }
    }
}

/// Runs `git` in `dir`, returning its trimmed standard output.
fn git(dir: &Path, args: &[&str]) -> Result<String, String> {
    let out = Command::new("git")
        .current_dir(dir)
        .args(args)
        .output()
        .map_err(|e| format!("git {}: {e}", args.join(" ")))?;
    if !out.status.success() {
        let stderr = String::from_utf8_lossy(&out.stderr);
        return Err(format!("git {}: {}", args.join(" "), stderr.trim()));
    }
    Ok(String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// The parent's checkout, removed when dropped, on error too.
struct Worktree {
    repo: PathBuf,
    path: PathBuf,
}

impl Worktree {
    fn add(repo: &Path, rev: &str) -> Result<Self, String> {
        let path = repo.join("target").join("pairs").join(rev);
        // A checkout left by an interrupted run would block `worktree add`.
        if path.exists() {
            std::fs::remove_dir_all(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        }
        git(repo, &["worktree", "prune"])?;
        let display = path.to_string_lossy();
        git(repo, &["worktree", "add", "--detach", display.as_ref(), rev])?;
        Ok(Self { repo: repo.to_path_buf(), path })
    }
}

impl Drop for Worktree {
    fn drop(&mut self) {
        let path = self.path.to_string_lossy();
        if let Err(e) = git(&self.repo, &["worktree", "remove", "--force", path.as_ref()]) {
            eprintln!("bench_history: leaving {path}: {e}");
        }
    }
}

/// Builds `benchmark/` in the checkout at `root`, returning the binary.
fn build(root: &Path) -> Result<PathBuf, String> {
    let target = root.join("benchmark").join("target");
    let status = Command::new("cargo")
        .current_dir(root)
        .args(["build", "--release", "--offline", "--quiet"])
        .args(["--manifest-path", "benchmark/Cargo.toml", "--target-dir"])
        .arg(&target)
        .status()
        .map_err(|e| format!("cargo build in {}: {e}", root.display()))?;
    if !status.success() {
        return Err(format!("cargo build in {} failed: {status}", root.display()));
    }
    Ok(target.join("release").join("benchmark"))
}

/// One side of the pairs: where it is checked out and its built binary.
struct Checkout<'a> {
    rev: &'a str,
    dirty: bool,
    root: &'a Path,
    binary: PathBuf,
}

fn pairs(args: &Args) -> Result<bool, String> {
    let repo = PathBuf::from(git(Path::new("."), &["rev-parse", "--show-toplevel"])?);
    let contract_path = repo.join("BENCHMARK.json");
    let contract = std::fs::read_to_string(&contract_path)
        .map_err(|e| e.to_string())
        .and_then(|json| Contract::parse(&json))
        .map_err(|e| format!("{}: {e}", contract_path.display()))?;
    let declared: Vec<&str> = contract.workloads.iter().map(|w| w.name.as_str()).collect();
    let workloads: Vec<&str> = if args.workloads.is_empty() {
        declared.clone()
    } else {
        args.workloads.iter().map(String::as_str).collect()
    };
    if let Some(w) = workloads.iter().find(|w| !declared.contains(w)) {
        return Err(format!("unknown workload {w}; BENCHMARK.json declares {declared:?}"));
    }

    let parent = git(&repo, &["rev-parse", "--short", &format!("{}^{{commit}}", args.parent)])?;
    let change = git(&repo, &["rev-parse", "--short", "HEAD"])?;
    let dirty = !git(&repo, &["status", "--porcelain"])?.is_empty();
    let ledger_dir = std::env::var_os("LTS_BENCH_DIR")
        .map_or_else(|| repo.clone(), PathBuf::from)
        .join("BENCH_HISTORY");
    std::fs::create_dir_all(&ledger_dir).map_err(|e| format!("{}: {e}", ledger_dir.display()))?;
    let tag = if dirty { format!("{change}-dirty") } else { change.clone() };
    let ledger_path = ledger_dir.join(format!("{tag}-vs-{parent}.jsonl"));
    let mut ledger =
        OpenOptions::new().write(true).create_new(true).open(&ledger_path).map_err(|e| {
            format!("{}: {e} (a ledger is never overwritten)", ledger_path.display())
        })?;

    let worktree = Worktree::add(&repo, &parent)?;
    let sides = [
        Checkout {
            rev: &parent,
            dirty: false,
            root: &worktree.path,
            binary: build(&worktree.path)?,
        },
        Checkout { rev: &change, dirty, root: &repo, binary: build(&repo)? },
    ];
    let (n, seconds) = if args.smoke { (SMOKE_PAIRS, 0.0) } else { (PAIRS, contract.run_seconds) };
    println!("parent {parent} vs change {tag}: {n} pairs of {seconds} s per workload");

    let mut ok = true;
    for workload in workloads {
        let mut measure = |side: Side, seed: u64, trace: bool| -> Result<Run, String> {
            let checkout = match side {
                Side::Parent => &sides[0],
                Side::Change => &sides[1],
            };
            let mut cmd = Command::new(&checkout.binary);
            cmd.current_dir(checkout.root)
                .args(["--workload", workload, "--seed", &seed.to_string()])
                .args(["--seconds", &seconds.to_string(), "--trace", if trace { "1" } else { "0" }])
                // Traced runs would write their trace files there.
                .env_remove("LTS_BENCH_DIR")
                .stderr(Stdio::inherit());
            if args.smoke {
                cmd.arg("--smoke");
            }
            let out = cmd.output().map_err(|e| format!("{}: {e}", checkout.binary.display()))?;
            let stdout = String::from_utf8_lossy(&out.stdout);
            let line = stdout.lines().rev().find(|l| !l.trim().is_empty()).unwrap_or_default();
            if !out.status.success() {
                return Err(format!("{side} {workload} seed {seed}: {}", out.status));
            }
            let result = RunResult::parse(line)?;
            let entry =
                ledger_line(side, checkout.rev, checkout.dirty, workload, seed, trace, line);
            writeln!(ledger, "{entry}").map_err(|e| format!("{}: {e}", ledger_path.display()))?;
            Ok(Run { side, seed, trace, result })
        };
        let mut runs = Vec::with_capacity(2 * n + 2);
        for seed in 1..=n as u64 {
            eprintln!("{workload}: pair {seed}/{n}");
            let order = if seed % 2 == 1 {
                [Side::Parent, Side::Change]
            } else {
                [Side::Change, Side::Parent]
            };
            for side in order {
                runs.push(measure(side, seed, false)?);
            }
        }
        eprintln!("{workload}: traced pair");
        for side in [Side::Parent, Side::Change] {
            runs.push(measure(side, 1, true)?);
        }
        let summary = summarize(&contract, workload, &runs);
        println!("\n{summary}");
        ok &= !summary.fails();
    }
    ledger.sync_all().map_err(|e| format!("{}: {e}", ledger_path.display()))?;
    println!("ledger: {}", ledger_path.display());
    println!("{}", if ok { "pairs: pass" } else { "pairs: FAIL" });
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_command_line() {
        assert_eq!(
            args("pairs HEAD~1 --workload noc_sweep --workload serve_fault --smoke"),
            Ok(Args {
                parent: "HEAD~1".into(),
                workloads: vec!["noc_sweep".into(), "serve_fault".into()],
                smoke: true
            })
        );
        assert_eq!(
            args("pairs abc1234"),
            Ok(Args { parent: "abc1234".into(), workloads: vec![], smoke: false })
        );
        assert!(args("run table3_structure_level").is_err());
        assert!(args("pairs").is_err());
        assert!(args("pairs a b").is_err());
        assert!(args("pairs a --workload").is_err());
        assert!(args("pairs a --seeds 3").is_err());
    }
}
