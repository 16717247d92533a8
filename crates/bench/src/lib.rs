//! Shared helpers for the benchmark/regeneration binaries.
//!
//! Every binary regenerates one table or figure of the paper; see
//! `DESIGN.md` for the experiment index and `EXPERIMENTS.md` for recorded
//! paper-vs-measured values. The effort level is chosen with the
//! `LTS_EFFORT` environment variable (`quick` or `paper`, default
//! `paper`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod history;

use lts_core::experiment::EffortPreset;

/// Reads the effort preset from `LTS_EFFORT` (default: `paper`).
///
/// Every experiment binary calls this first, so it doubles as the hook
/// that honors `LTS_OBS=1` (see [`lts_obs::enable_from_env`]): set it
/// and any binary records probe spans and cycle timelines for the run.
///
/// # Panics
///
/// Panics on an unrecognized value, listing the accepted ones.
pub fn effort_from_env() -> EffortPreset {
    lts_obs::enable_from_env();
    match std::env::var("LTS_EFFORT").as_deref() {
        Ok("quick") => EffortPreset::quick(),
        Ok("paper") | Err(_) => EffortPreset::paper(),
        Ok(other) => panic!("LTS_EFFORT must be `quick` or `paper`, got `{other}`"),
    }
}

/// Prints the standard experiment banner.
pub fn banner(what: &str, preset: &EffortPreset) {
    println!("=== Learn-to-Scale reproduction: {what} ===");
    println!(
        "(effort: {} train / {} test samples, {} epochs, seed {})\n",
        preset.train_samples, preset.test_samples, preset.epochs, preset.seed
    );
}

pub mod timing {
    //! Minimal wall-clock benchmark harness.
    //!
    //! The bench binaries time closures with explicit warmup/measure
    //! iteration counts, print a human-readable table, and write a
    //! `BENCH_<name>.json` report so runs are comparable across machines.
    //! Reports always record the host's available parallelism and the
    //! engine's worker count, because kernel timings are meaningless
    //! without them.
    //!
    //! `LTS_BENCH_ITERS` caps measured iterations (see [`iters_from_env`])
    //! so a CI smoke run finishes in seconds. Comparing commits is the job
    //! of `bench_history pairs` over the repository benchmark, not of
    //! these reports.

    use serde::Serialize;
    use std::time::Instant;

    /// Provenance of the host a report was produced on, so two
    /// `BENCH_*.json` files can be compared knowing whether the
    /// toolchain or the tree changed between them.
    #[derive(Debug, Clone, PartialEq, Eq, Serialize)]
    pub struct HostFingerprint {
        /// `rustc -V` output (or `unknown` when unavailable).
        pub rustc: String,
        /// `git rev-parse --short HEAD` (or `unknown` outside a repo).
        pub git_rev: String,
        /// Compile-time target OS.
        pub os: String,
        /// Whether the working tree had uncommitted changes — without
        /// this, `git_rev` can silently describe code that was never
        /// measured. `None` when git is unavailable.
        pub git_dirty: Option<bool>,
    }

    impl HostFingerprint {
        /// Probes the host. Never fails: anything unqueryable is
        /// recorded as `unknown`.
        pub fn probe() -> Self {
            let run = |cmd: &str, args: &[&str]| -> String {
                std::process::Command::new(cmd)
                    .args(args)
                    .output()
                    .ok()
                    .filter(|o| o.status.success())
                    .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
                    .filter(|s| !s.is_empty())
                    .unwrap_or_else(|| "unknown".into())
            };
            let git_dirty = std::process::Command::new("git")
                .args(["status", "--porcelain"])
                .output()
                .ok()
                .filter(|o| o.status.success())
                .map(|o| !String::from_utf8_lossy(&o.stdout).trim().is_empty());
            Self {
                rustc: run("rustc", &["-V"]),
                git_rev: run("git", &["rev-parse", "--short", "HEAD"]),
                os: std::env::consts::OS.to_string(),
                git_dirty,
            }
        }
    }

    /// Measured-iteration count: `LTS_BENCH_ITERS` when set (parsed,
    /// minimum 1), else `default`. Lets CI smoke-run the heavy benches.
    ///
    /// # Panics
    ///
    /// Panics when the variable is set to something unparsable.
    pub fn iters_from_env(default: usize) -> usize {
        match std::env::var("LTS_BENCH_ITERS") {
            Ok(v) => v
                .parse::<usize>()
                .unwrap_or_else(|_| panic!("LTS_BENCH_ITERS must be an integer, got `{v}`"))
                .max(1),
            Err(_) => default,
        }
    }

    /// Timing of one benchmarked workload.
    #[derive(Debug, Clone, Serialize)]
    pub struct BenchRecord {
        /// Workload label.
        pub name: String,
        /// Execution-engine worker count the workload ran with.
        pub threads: usize,
        /// Measured iterations (after warmup).
        pub iters: usize,
        /// Mean wall-clock per iteration, milliseconds.
        pub mean_ms: f64,
        /// Fastest iteration, milliseconds.
        pub min_ms: f64,
        /// Slowest iteration, milliseconds.
        pub max_ms: f64,
        /// Median wall-clock per iteration, milliseconds.
        pub median_ms: f64,
        /// Median absolute deviation across iterations, milliseconds — a
        /// robust dispersion estimate one outlier iteration cannot
        /// inflate.
        pub mad_ms: f64,
    }

    /// Times `f` for `iters` iterations after `warmup` untimed ones.
    pub fn time(name: &str, warmup: usize, iters: usize, mut f: impl FnMut()) -> BenchRecord {
        for _ in 0..warmup {
            f();
        }
        let iters = iters.max(1);
        let mut samples = Vec::with_capacity(iters);
        for _ in 0..iters {
            let start = Instant::now();
            f();
            samples.push(start.elapsed().as_secs_f64() * 1e3);
        }
        let sum: f64 = samples.iter().sum();
        BenchRecord {
            name: name.to_string(),
            threads: lts_tensor::par::current().threads(),
            iters,
            mean_ms: sum / iters as f64,
            min_ms: samples.iter().copied().fold(f64::INFINITY, f64::min),
            max_ms: samples.iter().copied().fold(0.0, f64::max),
            median_ms: crate::history::stats::median(&samples),
            mad_ms: crate::history::stats::mad(&samples),
        }
    }

    /// A full benchmark report: host facts plus one record per workload.
    #[derive(Debug, Clone, Serialize)]
    pub struct BenchReport {
        /// Benchmark binary name.
        pub bench: String,
        /// Effort preset label (`quick`/`paper`).
        pub effort: String,
        /// The host's available hardware parallelism.
        pub host_cpus: usize,
        /// Free-form caveats (e.g. "host has fewer cores than the sweep").
        pub notes: Vec<String>,
        /// One entry per timed workload.
        pub records: Vec<BenchRecord>,
        /// Host provenance.
        pub fingerprint: HostFingerprint,
        /// Probe-path statistics captured by `lts-obs` during the run;
        /// empty unless [`BenchReport::attach_probes`] was called.
        pub probes: Vec<lts_obs::ProbeRow>,
    }

    impl BenchReport {
        /// Empty report for the named benchmark.
        pub fn new(bench: &str, effort: &str) -> Self {
            Self {
                bench: bench.to_string(),
                effort: effort.to_string(),
                host_cpus: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
                notes: Vec::new(),
                records: Vec::new(),
                fingerprint: HostFingerprint::probe(),
                probes: Vec::new(),
            }
        }

        /// Snapshots the live `lts-obs` probe statistics into the report,
        /// so readers see per-probe medians, not just end-to-end means.
        pub fn attach_probes(&mut self) {
            self.probes = lts_obs::snapshot().probes;
        }

        /// Adds a record and echoes it to stdout.
        pub fn push(&mut self, record: BenchRecord) {
            println!(
                "{:<44} {:>2} thr  {:>10.3} ms/iter  (min {:.3}, max {:.3}, {} iters)",
                record.name,
                record.threads,
                record.mean_ms,
                record.min_ms,
                record.max_ms,
                record.iters
            );
            self.records.push(record);
        }

        /// Records a caveat that readers of the JSON need.
        pub fn note(&mut self, note: impl Into<String>) {
            let note = note.into();
            println!("note: {note}");
            self.notes.push(note);
        }

        /// Writes `BENCH_<bench>.json` into `LTS_BENCH_DIR` (default: the
        /// current directory) and reports the path.
        pub fn write(&self) -> std::io::Result<std::path::PathBuf> {
            let dir = std::env::var("LTS_BENCH_DIR").unwrap_or_else(|_| ".".into());
            let path = std::path::Path::new(&dir).join(format!("BENCH_{}.json", self.bench));
            let json = serde_json::to_string_pretty(self)
                .map_err(|e| std::io::Error::other(e.to_string()))?;
            std::fs::write(&path, json + "\n")?;
            println!("\nwrote {}", path.display());
            Ok(path)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_effort_is_paper() {
        // Unless the variable is set in the environment running the tests.
        if std::env::var("LTS_EFFORT").is_err() {
            assert_eq!(effort_from_env(), EffortPreset::paper());
        }
    }

    #[test]
    fn iters_from_env_defaults_when_unset() {
        if std::env::var("LTS_BENCH_ITERS").is_err() {
            assert_eq!(timing::iters_from_env(17), 17);
        }
    }

    #[test]
    fn time_fills_dispersion_fields() {
        let record = timing::time("dispersion", 0, 5, || std::hint::black_box(()));
        assert!(
            record.min_ms <= record.median_ms && record.median_ms <= record.max_ms,
            "{record:?}"
        );
        assert!(record.mad_ms >= 0.0);
    }

    #[test]
    fn timing_harness_measures_and_serializes() {
        let mut report = timing::BenchReport::new("selftest", "quick");
        let mut n = 0u64;
        let record = timing::time("spin", 1, 3, || {
            for i in 0..10_000u64 {
                n = n.wrapping_add(i);
            }
        });
        assert_eq!(record.iters, 3);
        assert!(record.min_ms <= record.mean_ms && record.mean_ms <= record.max_ms);
        report.push(record);
        report.note("self-test");
        let json = serde_json::to_string(&report).unwrap();
        assert!(json.contains("\"bench\":\"selftest\""), "{json}");
        assert!(json.contains("\"spin\""), "{json}");
    }
}
