//! The repository benchmark: one seeded workload per process, measured
//! end to end or traced layer by layer, printed as one JSON line.
//!
//! # Running
//!
//! From the repository root:
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     --workload noc_sweep --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` builds the inputs from the seed (several times, timing
//! each), then runs passes over the workload's fixed item list until
//! `--seconds` have elapsed, and reports the end-to-end metrics.
//! `--trace 1` runs two untraced passes and then one pass with `lts-obs`
//! recording, and reports the per-layer metrics; with `LTS_BENCH_DIR`
//! set it also writes `TRACE_<workload>.json` (metrics, probe rows and
//! counters) and `TRACE_<workload>.trace.json` (Chrome trace events)
//! there. `--smoke` shrinks every workload to a few seconds. The last
//! line of standard output is
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`,
//! each metric with its value and unit; failed checks are described on
//! standard error. The exit code is 0 whenever that line is printed, 2
//! for bad arguments or a refused environment.
//!
//! # Workloads
//!
//! * `train_convnet` — the Table III pipeline users run: train three
//!   ConvNet variants, evaluate them through the i16 deployment path, plan
//!   them for 16 cores and simulate one inference each. Host time is
//!   almost all f32 training in `lts-nn`/`lts-tensor`, so it exercises
//!   the GEMM kernels and barely touches the NoC stepper.
//! * `noc_sweep` — plan and simulate fixed design points with no
//!   training: the three-strategy ConvNet from 4 to 64 cores and on a
//!   2×16 multi-chip package, AlexNet dense at 4 and 16 cores, hop-local
//!   at 16, and dense on a 4×4 package. The NoC stepper does most of the
//!   work, over congested dense bursts and sparse neighbour-only traces,
//!   so a stepper gain that costs one regime shows. The grid ignores the
//!   seed.
//! * `infer_sparse` — the deployment forward path: a ConvNet with the
//!   hop-local zero blocks of a 16-core SS_Mask layout classifies 1024
//!   synthetic images in batches of 16, i16 and f32 batches interleaved.
//!   i16 GEMM, im2col and quantization; no backward pass and one small
//!   NoC simulation.
//! * `serve_fault` — open-loop serving in simulated time: a fixed-rate
//!   Poisson ladder, a bursty stream under the SLO controller, a core
//!   death and a chiplet death. Admission, batching, shedding, the
//!   controller, recovery and replanning; host time is mostly the
//!   entry-burst NoC simulations behind batch contention.
//!
//! Every pass starts on an empty simulation cache (`simcache::reset`),
//! because a user's fresh process does, and every pass must reproduce
//! the first pass's outputs exactly.
//!
//! # Metrics
//!
//! Host time: `setup_s` (median set-up), `wall_s` (one pass, summed
//! from per-item medians so a burst of host interference moves a few
//! samples rather than the statistic), `peak_rss_mb`, and the traced
//! shares of pass time by crate (`*_pct`), achieved GEMM rates and
//! stepper speed. Simulated, hence exact for a seed and unchanged by any
//! host-only optimisation: `sim_latency_kcycles` (mean single-pass
//! latency of the evaluated design points, or mean request latency for
//! `serve_fault`), and the `sim.*`, `accel.*`, `noc.*` cycle, byte and
//! energy counts, `partition.traffic_bytes` and every `serve.*` metric.
//!
//! # One thread
//!
//! The process pins `LTS_THREADS=1` and refuses any other value. Results
//! are bit-identical at every thread count, and single-thread host time
//! is the number that compares across hosts and commits; extra workers
//! would only measure how busy the host's other cores are.
//!
//! # Validity
//!
//! The system model is not validated against hardware, so no simulated
//! number here carries an error figure. The only reference is the
//! paper's: a traced `train_convnet` run prints its Table III speedups
//! beside the paper's 4.9× and 4.6×.

mod harness;
mod infer;
mod metrics;
mod noc_sweep;
mod serve;
mod sim;
mod trace;
mod train;

use harness::{Error, RunResult};
use lts_tensor::par::{self, ExecConfig, THREADS_ENV};
use std::process::ExitCode;

/// Workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = ["train_convnet", "noc_sweep", "infer_sparse", "serve_fault"];

const USAGE: &str =
    "usage: benchmark --workload <train_convnet|noc_sweep|infer_sparse|serve_fault> \
                     --seed <u64> --seconds <s> --trace <0|1> [--smoke]";

/// Parsed command line.
#[derive(Debug, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut smoke) =
        (None, None, None, None, false);
    let mut args = args.into_iter();
    while let Some(flag) = args.next() {
        if flag == "--smoke" {
            smoke = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--workload" => return Err(format!("unknown workload {value}")),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| bad(&e))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(format!("--seconds {value}: not a duration"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        smoke,
    })
}

/// Pins the single-thread engine and refuses environments that would
/// change what is measured.
fn pin_environment(trace: bool) -> Result<(), String> {
    match std::env::var(THREADS_ENV) {
        Err(_) => std::env::set_var(THREADS_ENV, "1"),
        Ok(v) if v.trim() == "1" => {}
        Ok(v) => return Err(format!("{THREADS_ENV}={v}: the benchmark runs on one thread")),
    }
    if std::env::var("LTS_SIM_CACHE").is_ok_and(|v| v == "0") {
        return Err(
            "LTS_SIM_CACHE=0: the workloads are defined with the simulation cache on".into()
        );
    }
    if !trace && std::env::var("LTS_OBS").is_ok_and(|v| v != "0") {
        return Err("LTS_OBS is set: untraced runs measure with probes off; use --trace 1".into());
    }
    par::install(ExecConfig::serial());
    if par::current().threads() != 1 {
        return Err("the execution engine did not pin to one thread".into());
    }
    Ok(())
}

fn run(args: &Args) -> Result<RunResult, Error> {
    let Args { workload, seed, seconds, trace, smoke } = args;
    let run = match workload.as_str() {
        "train_convnet" => harness::run::<train::TrainConvnet>,
        "noc_sweep" => harness::run::<noc_sweep::NocSweep>,
        "infer_sparse" => harness::run::<infer::InferSparse>,
        "serve_fault" => harness::run::<serve::ServeFault>,
        other => return Err(format!("unknown workload {other}").into()),
    };
    run(workload, *seed, *seconds, *trace, *smoke)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = pin_environment(args.trace) {
        eprintln!("refusing to start: {e}");
        return ExitCode::from(2);
    }
    match run(&args) {
        Ok(result) => {
            let decls = if args.trace { metrics::per_layer() } else { metrics::end_to_end() };
            println!("{}", metrics::result_line(&decls, &result.metrics, result.checks));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{}: {e}", args.workload);
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_command_line() {
        let a = args("--workload serve_fault --seed 7 --seconds 10 --trace 1").expect("valid");
        assert_eq!(
            a,
            Args {
                workload: "serve_fault".into(),
                seed: 7,
                seconds: 10.0,
                trace: true,
                smoke: false
            }
        );
        assert!(
            args("--smoke --workload noc_sweep --seed 1 --seconds 0 --trace 0")
                .expect("valid")
                .smoke
        );
        assert!(args("--workload nope --seed 1 --seconds 1 --trace 0").is_err());
        assert!(args("--workload noc_sweep --seed -1 --seconds 1 --trace 0").is_err());
        assert!(args("--workload noc_sweep --seed 1 --seconds 1 --trace 2").is_err());
        assert!(args("--workload noc_sweep --seed 1 --trace 0").is_err());
        assert!(args("--workload noc_sweep --seed 1 --seconds 1 --trace").is_err());
    }

    /// Every workload, untraced and traced, at the smoke size: all
    /// declared metrics are emitted, finite, and every check passes. One
    /// test, because the probe registry and simulation cache are
    /// process-global.
    #[test]
    fn smoke_runs_emit_every_declared_metric() {
        // As `pin_environment` does: pipeline configs read the variable.
        std::env::set_var(THREADS_ENV, "1");
        par::install(ExecConfig::serial());
        for workload in WORKLOADS {
            for trace in [false, true] {
                let a =
                    Args { workload: workload.into(), seed: 3, seconds: 0.0, trace, smoke: true };
                let result = run(&a).unwrap_or_else(|e| panic!("{workload}: {e}"));
                let decls = if trace { metrics::per_layer() } else { metrics::end_to_end() };
                for d in &decls {
                    let v = result.metrics.get(&d.name);
                    assert!(
                        v.is_some_and(f64::is_finite),
                        "{workload} trace={trace}: {} = {v:?}",
                        d.name
                    );
                }
                let line = metrics::result_line(&decls, &result.metrics, result.checks);
                assert!(
                    line.starts_with("{\"correct\": true,"),
                    "{workload} trace={trace}: {line}"
                );
            }
        }
    }
}
