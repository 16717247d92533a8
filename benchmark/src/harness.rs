//! The run loop shared by every workload: timed set-up, closed-loop
//! passes over a fixed item list, and the traced pass.

use crate::metrics::{self, Checks, Metrics};
use crate::trace;
use lts_core::simcache;
use lts_core::SystemReport;
use lts_noc::NocConfig;
use lts_partition::Plan;
use std::time::{Duration, Instant};

/// Errors of the public APIs a workload drives.
pub type Error = Box<dyn std::error::Error>;

/// One benchmark workload: inputs built once from the seed, then a fixed
/// list of items run in order, pass after pass.
pub trait Workload: Sized {
    /// What one item produces. Every pass must produce equal outputs.
    type Out: PartialEq;

    /// Builds the inputs from `seed` (timed as set-up). `smoke` selects a
    /// reduced size that runs in seconds.
    fn setup(seed: u64, smoke: bool) -> Result<Self, Error>;

    /// Number of items in one pass.
    fn items(&self) -> usize;

    /// Runs item `i` of a pass.
    fn run_item(&mut self, i: usize) -> Result<Self::Out, Error>;

    /// Checks one complete pass's outputs.
    fn check(&self, outs: &[Self::Out], checks: &mut Checks);

    /// Simulated inference latency the pass reports, in kilocycles.
    fn sim_latency_kcycles(&self, outs: &[Self::Out]) -> f64;

    /// Workload-specific per-layer metrics of one pass.
    fn per_layer(&self, outs: &[Self::Out], m: &mut Metrics);

    /// The evaluated plans of one pass, for the cross-model checks.
    fn plans<'a>(&'a self, outs: &'a [Self::Out]) -> Vec<(NocConfig, &'a Plan, &'a SystemReport)>;
}

/// Set-up repetitions: at least `MIN_SETUPS`, then more until
/// `SETUP_BUDGET` has been spent or `MAX_SETUPS` reached; `setup_s` is
/// their median.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 50;
const SETUP_BUDGET: Duration = Duration::from_secs(1);

/// What one run measured.
pub struct RunResult {
    /// Metrics of the run (end-to-end or per-layer).
    pub metrics: Metrics,
    /// The correctness-check ledger.
    pub checks: Checks,
}

/// Runs workload `W`: untraced passes for `seconds`, or two untraced
/// passes and one traced pass.
pub fn run<W: Workload>(
    name: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
) -> Result<RunResult, Error> {
    let mut setups = Vec::new();
    let started = Instant::now();
    let mut workload = loop {
        let t = Instant::now();
        let w = W::setup(seed, smoke)?;
        setups.push(t.elapsed().as_secs_f64());
        let enough = setups.len() >= MIN_SETUPS && started.elapsed() >= SETUP_BUDGET;
        if enough || setups.len() >= MAX_SETUPS {
            break w;
        }
    };
    let mut checks = Checks::default();
    if traced {
        let metrics = traced_run(&mut workload, name, seed, &mut checks)?;
        return Ok(RunResult { metrics, checks });
    }

    let mut times: Vec<Vec<f64>> = vec![Vec::new(); workload.items()];
    let mut reference: Option<Vec<W::Out>> = None;
    let mut sim_latency = 0.0;
    let measured = Instant::now();
    loop {
        let outs = pass(&mut workload, &mut times, &mut checks);
        if let Some(outs) = outs {
            match &reference {
                None => {
                    workload.check(&outs, &mut checks);
                    sim_latency = workload.sim_latency_kcycles(&outs);
                    reference = Some(outs);
                }
                Some(first) => {
                    checks.check(*first == outs, || "a pass differs from the first".into());
                }
            }
        }
        if measured.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    let mut m = Metrics::default();
    m.set("setup_s", metrics::median(&setups));
    // The pass time rebuilt from per-item medians: a burst of host
    // interference inflates a few samples, not the statistic.
    m.set("wall_s", times.iter().map(|t| metrics::median(t)).sum::<f64>());
    m.set("peak_rss_mb", metrics::peak_rss_mb()?);
    m.set("sim_latency_kcycles", sim_latency);
    Ok(RunResult { metrics: m, checks })
}

/// One pass on a cold simulation cache, appending each item's seconds to
/// `times`. Returns the outputs when every item succeeded.
fn pass<W: Workload>(
    workload: &mut W,
    times: &mut [Vec<f64>],
    checks: &mut Checks,
) -> Option<Vec<W::Out>> {
    // A user's fresh process starts with an empty cache.
    simcache::reset();
    let mut outs = Vec::with_capacity(times.len());
    for (i, samples) in times.iter_mut().enumerate() {
        let t = Instant::now();
        let out = workload.run_item(i);
        samples.push(t.elapsed().as_secs_f64());
        checks.check(out.is_ok(), || {
            format!("item {i}: {}", out.as_ref().err().map_or(String::new(), |e| e.to_string()))
        });
        outs.push(out.ok()?);
    }
    Some(outs)
}

/// Untraced passes, then the same pass with `lts-obs` recording.
fn traced_run<W: Workload>(
    workload: &mut W,
    name: &str,
    seed: u64,
    checks: &mut Checks,
) -> Result<Metrics, Error> {
    // The first pass warms caches and the allocator, so that the traced
    // pass is compared with a warm untraced one.
    let mut times = vec![Vec::new(); workload.items()];
    pass(workload, &mut times, checks).ok_or("the first untraced pass failed")?;
    let mut times = vec![Vec::new(); workload.items()];
    let untraced = pass(workload, &mut times, checks).ok_or("the untraced pass failed")?;
    let untraced_s: f64 = times.iter().flatten().sum();

    let mut traced_times = vec![Vec::new(); workload.items()];
    lts_obs::reset();
    lts_obs::set_enabled(true);
    let t = Instant::now();
    let outs = {
        let _pass = lts_obs::span("bench.pass");
        pass(workload, &mut traced_times, checks)
    };
    let traced_s = t.elapsed().as_secs_f64();
    lts_obs::set_enabled(false);
    let cache = simcache::stats();
    let snap = lts_obs::snapshot();
    let outs = outs.ok_or("the traced pass failed")?;

    checks.check(outs == untraced, || "the traced pass differs from the untraced one".into());
    workload.check(&outs, checks);
    let mut m = Metrics::zeroed(&metrics::per_layer());
    let self_ms = trace::host_breakdown(&snap, traced_s * 1e3, &mut m, checks);
    trace::counters(&snap, &self_ms, &mut m);
    let lookups = cache.hits + cache.misses;
    if lookups > 0 {
        m.set("core.simcache.hit_rate", cache.hits as f64 / lookups as f64);
    }
    m.set("core.simcache.misses", cache.misses as f64);
    workload.per_layer(&outs, &mut m);
    trace::cross_check(&workload.plans(&outs), &mut m, checks);
    m.set("obs.trace_overhead_pct", (traced_s / untraced_s - 1.0) * 100.0);
    m.set("bench.traced_wall_ms", traced_s * 1e3);
    if let Some(dir) = std::env::var_os("LTS_BENCH_DIR") {
        let written = trace::write_files(std::path::Path::new(&dir), name, seed, &m, &snap);
        checks.check(written.is_ok(), || format!("writing trace files: {written:?}"));
    }
    Ok(m)
}
