//! Observability-layer evidence: the disabled-probe overhead contract
//! and a fully instrumented table3-quick pass.
//!
//! Two claims are measured and asserted, then recorded in
//! `BENCH_obs.json`:
//!
//! 1. **Disabled probes are free.** With the global switch off, a span
//!    costs a few nanoseconds — under 1% of even the smallest hot-path
//!    workload it guards (the 256×256 GEMM). The bench times a million
//!    disabled spans, times the instrumented GEMM, and fails if the
//!    ratio breaches 1%.
//! 2. **The cycle timelines are exact.** An instrumented
//!    [`SystemModel::evaluate`] produces a `core.evaluate#N` track whose
//!    per-layer comm/compute intervals sum to the report's
//!    `total_cycles` *exactly* — same integers, not approximately.
//!
//! The instrumented table3-quick pass then exports the per-layer
//! wall+cycle breakdown three ways into `LTS_BENCH_DIR`:
//! `OBS_table3_quick.json` (snapshot), `OBS_table3_quick.folded`
//! (flamegraph folded stacks), `OBS_table3_quick.trace.json` (Chrome
//! `chrome://tracing` / Perfetto). Probe-path statistics are attached to
//! the report.
//!
//! Run with `cargo bench --bench obs`. `LTS_BENCH_ITERS` caps measured
//! iterations (the CI smoke uses 2).

use lts_bench::timing::{iters_from_env, time, BenchReport};
use lts_core::experiment::{table3_rows, EffortPreset};
use lts_core::simcache;
use lts_core::system::SystemModel;
use lts_nn::descriptor::lenet_spec;
use lts_partition::Plan;
use lts_tensor::matmul;
use lts_tensor::par::{self, ExecConfig};
use lts_tensor::{init, Shape};

/// The disabled-overhead contract: spans off must cost <1% of the
/// matmul they instrument.
const OVERHEAD_LIMIT_PCT: f64 = 1.0;

fn main() {
    let mut report = BenchReport::new("obs", "quick");
    let host = report.host_cpus;
    println!("=== observability layer: overhead + instrumented e2e ({host} CPUs) ===\n");

    // -- 1. Disabled-probe overhead ------------------------------------
    lts_obs::set_enabled(false);
    lts_obs::reset();
    par::install(ExecConfig::new(1));

    const SPAN_CALLS: usize = 1_000_000;
    let spans = time("span_disabled_x1e6", 1, iters_from_env(10).min(10), || {
        for _ in 0..SPAN_CALLS {
            let _s = lts_obs::span("obs.disabled_probe");
        }
    });
    let span_ns = spans.mean_ms * 1e6 / SPAN_CALLS as f64;
    report.push(spans);

    let mut rng = init::rng(1);
    let a = init::uniform(Shape::d2(256, 256), 1.0, &mut rng);
    let b = init::uniform(Shape::d2(256, 256), 1.0, &mut rng);
    let (av, bv) = (a.as_slice(), b.as_slice());
    let mut c = vec![0.0f32; 256 * 256];
    let gemm = time("matmul_256x256_t1_probes_off", 3, iters_from_env(20), || {
        matmul::matmul_into(av, bv, &mut c, 256, 256, 256);
    });
    // One disabled span guards each instrumented matmul call.
    let overhead_pct = 100.0 * span_ns / (gemm.mean_ms * 1e6);
    report.push(gemm);
    report.note(format!(
        "disabled span: {span_ns:.1} ns/call -> {overhead_pct:.4}% of one 256x256 GEMM \
         (contract: <{OVERHEAD_LIMIT_PCT}%)"
    ));
    assert!(
        overhead_pct < OVERHEAD_LIMIT_PCT,
        "disabled-probe overhead {overhead_pct:.3}% breaches the {OVERHEAD_LIMIT_PCT}% contract"
    );
    assert!(lts_obs::snapshot().probes.is_empty(), "disabled probes must record nothing");

    // -- 2. Exact cycle accounting -------------------------------------
    lts_obs::set_enabled(true);
    lts_obs::reset();
    let model = SystemModel::paper(16).expect("model");
    let plan = Plan::dense(&lenet_spec(), 16, 2).expect("plan");
    let sys = model.evaluate(&plan).expect("evaluate");
    let snap = lts_obs::snapshot();
    let track = snap
        .cycles
        .iter()
        .find(|t| t.track.starts_with("core.evaluate#"))
        .expect("evaluate must emit a cycle track");
    assert_eq!(
        track.total_cycles, sys.total_cycles,
        "cycle track must sum to SystemReport::total_cycles exactly"
    );
    let span_sum: u64 = track.spans.iter().map(|s| s.cycles).sum();
    assert_eq!(span_sum, sys.total_cycles, "no interval may be dropped at this scale");
    assert!(
        track.spans.iter().any(|s| s.phase == "comm")
            && track.spans.iter().any(|s| s.phase == "compute"),
        "per-layer comm and compute phases must both appear"
    );
    report.note(format!(
        "evaluate(LeNet,16c): core.evaluate track total = SystemReport.total_cycles = {} \
         (exact, {} per-layer intervals)",
        sys.total_cycles,
        track.spans.len()
    ));

    // -- 3. Instrumented table3-quick, exported three ways -------------
    lts_obs::reset();
    par::install(ExecConfig::new(host));
    simcache::reset();
    report.push(time("table3_quick_e2e_probes_on", 0, 1, || {
        table3_rows(&EffortPreset::quick()).expect("table3 quick");
    }));

    let snap = lts_obs::snapshot();
    let per_layer: Vec<_> = snap.probes.iter().filter(|p| p.path.contains("nn.forward;")).collect();
    assert!(
        !per_layer.is_empty(),
        "instrumented table3-quick must yield per-layer probe rows under nn.forward"
    );
    assert!(
        snap.cycles.iter().any(|t| t.track.starts_with("core.evaluate#")),
        "table3-quick must emit per-variant cycle timelines"
    );
    assert!(
        snap.cycles.iter().any(|t| t.track == "noc.stepper" && t.total_cycles > 0),
        "the NoC stepper must report its cycle split"
    );
    report.note(format!(
        "table3_quick probes: {} paths ({} per-layer under nn.forward), {} cycle tracks, \
         {} counters",
        snap.probes.len(),
        per_layer.len(),
        snap.cycles.len(),
        snap.counters.len()
    ));

    let dir = std::env::var("LTS_BENCH_DIR").unwrap_or_else(|_| ".".into());
    let dir = std::path::Path::new(&dir);
    for (name, contents) in [
        ("OBS_table3_quick.json", snap.to_json()),
        ("OBS_table3_quick.folded", snap.folded()),
        ("OBS_table3_quick.trace.json", snap.chrome_trace()),
    ] {
        let path = dir.join(name);
        std::fs::write(&path, contents).expect("write obs export");
        println!("wrote {}", path.display());
    }

    summarize_probes(&snap.probes);
    report.attach_probes();
    lts_obs::set_enabled(false);
    report.write().expect("write benchmark report");
}

/// Prints the top probe paths by total wall time.
fn summarize_probes(probes: &[lts_obs::ProbeRow]) {
    let mut by_sum: Vec<_> = probes.iter().collect();
    by_sum.sort_by(|a, b| b.sum_ms.total_cmp(&a.sum_ms));
    println!("\ntop probe paths by total wall time:");
    for p in by_sum.iter().take(8) {
        println!(
            "  {:<56} {:>7} calls  {:>10.3} ms total  p50 {:>8.3} ms  p95 {:>8.3} ms",
            p.path, p.count, p.sum_ms, p.p50_ms, p.p95_ms
        );
    }
}
