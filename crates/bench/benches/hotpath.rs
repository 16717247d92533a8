//! Before/after wall-clock evidence for the hot-path overhaul.
//!
//! Times the retained pre-overhaul implementations (the `reference` GEMM
//! kernels and the full-scan NoC stepper) against the optimized ones on
//! identical inputs in a single process, so `BENCH_hotpath.json` records a
//! true same-host before/after. The `*_before` / `*_after` record pairs
//! share a workload; the report notes summarize the speedups. Also runs a
//! table3-quick end-to-end pass (training + simulation + sim cache) and
//! reports the sim cache's hit/miss counters.
//!
//! Run with `cargo bench --bench hotpath`. `LTS_BENCH_ITERS` caps measured
//! iterations (the CI smoke uses 2).

use lts_bench::timing::{iters_from_env, time, BenchReport};
use lts_core::experiment::{table3_rows, EffortPreset};
use lts_core::simcache;
use lts_noc::traffic::{all_to_all, Message, TrafficTrace};
use lts_noc::{NocConfig, Simulator};
use lts_tensor::matmul::{self, reference};
use lts_tensor::par::{self, ExecConfig};
use lts_tensor::{init, Shape};

/// The sparse timed trace: a few messages spread far apart in time, so
/// almost every cycle is idle (the active-set + fast-forward showcase).
fn sparse_trace(nodes: usize) -> TrafficTrace {
    let mut t = TrafficTrace::new();
    for i in 0..400usize {
        let src = i % nodes;
        let mut dst = (i * 7 + 3) % nodes;
        if dst == src {
            dst = (dst + 1) % nodes;
        }
        t.push(Message::new(src, dst, 64 + (i as u64 % 40) * 13, (i as u64) * 3_000));
    }
    t
}

fn main() {
    let mut report = BenchReport::new("hotpath", "n/a");
    let host = report.host_cpus;
    println!("=== hot-path before/after benchmarks ({host} CPUs available) ===\n");
    par::install(ExecConfig::new(1));

    // GEMM: pre-overhaul panel kernels vs register-blocked microkernels,
    // single-threaded on identical 256x256 operands (bit-identical C).
    let mut rng = init::rng(1);
    let a = init::uniform(Shape::d2(256, 256), 1.0, &mut rng);
    let b = init::uniform(Shape::d2(256, 256), 1.0, &mut rng);
    let (av, bv) = (a.as_slice(), b.as_slice());
    let mut c = vec![0.0f32; 256 * 256];
    let iters = iters_from_env(20);
    report.push(time("matmul_256x256_t1_before", 3, iters, || {
        reference::matmul_into_ref(av, bv, &mut c, 256, 256, 256);
    }));
    report.push(time("matmul_256x256_t1_after", 3, iters, || {
        matmul::matmul_into(av, bv, &mut c, 256, 256, 256);
    }));
    report.push(time("matmul_at_b_256_t1_before", 3, iters, || {
        reference::matmul_at_b_into_ref(av, bv, &mut c, 256, 256, 256);
    }));
    report.push(time("matmul_at_b_256_t1_after", 3, iters, || {
        matmul::matmul_at_b_into(av, bv, &mut c, 256, 256, 256);
    }));
    report.push(time("matmul_a_bt_256_t1_before", 3, iters, || {
        reference::matmul_a_bt_into_ref(av, bv, &mut c, 256, 256, 256);
    }));
    report.push(time("matmul_a_bt_256_t1_after", 3, iters, || {
        matmul::matmul_a_bt_into(av, bv, &mut c, 256, 256, 256);
    }));
    // The training shapes the square pairs cannot show: ConvNet conv3's
    // weight gradient (A*Bt, k = 16) and its forward (A*B, n = 16 output
    // positions, the narrow-tile path).
    let (m3, k3, n3) = (256, 1152, 16);
    let g = init::uniform(Shape::d2(m3, n3), 1.0, &mut rng);
    let cols = init::uniform(Shape::d2(k3, n3), 1.0, &mut rng);
    let w = init::uniform(Shape::d2(m3, k3), 1.0, &mut rng);
    let (gv, colsv, wv) = (g.as_slice(), cols.as_slice(), w.as_slice());
    let mut dw = vec![0.0f32; m3 * k3];
    let mut y = vec![0.0f32; m3 * n3];
    report.push(time("matmul_a_bt_256x16x1152_t1_before", 3, iters, || {
        reference::matmul_a_bt_into_ref(gv, colsv, &mut dw, m3, n3, k3);
    }));
    report.push(time("matmul_a_bt_256x16x1152_t1_after", 3, iters, || {
        matmul::matmul_a_bt_into(gv, colsv, &mut dw, m3, n3, k3);
    }));
    report.push(time("matmul_256x1152x16_t1_before", 3, iters, || {
        reference::matmul_into_ref(wv, colsv, &mut y, m3, k3, n3);
    }));
    report.push(time("matmul_256x1152x16_t1_after", 3, iters, || {
        matmul::matmul_into(wv, colsv, &mut y, m3, k3, n3);
    }));
    for name in [
        "matmul_256x256_t1",
        "matmul_at_b_256_t1",
        "matmul_a_bt_256_t1",
        "matmul_a_bt_256x16x1152_t1",
        "matmul_256x1152x16_t1",
    ] {
        note_speedup(&mut report, name);
    }

    // Disabled-probe overhead: the optimized kernels above already run
    // with an `lts-obs` span inside (off by default); price one million
    // disabled spans against the GEMM they guard. Contract: <1%.
    const SPAN_CALLS: usize = 1_000_000;
    let spans = time("obs_span_disabled_x1e6", 1, iters.min(10), || {
        for _ in 0..SPAN_CALLS {
            let _s = lts_obs::span("hotpath.disabled_probe");
        }
    });
    let span_ns = spans.mean_ms * 1e6 / SPAN_CALLS as f64;
    let gemm_ns = report
        .records
        .iter()
        .find(|r| r.name == "matmul_256x256_t1_after")
        .map(|r| r.mean_ms * 1e6)
        .unwrap_or(f64::NAN);
    let overhead_pct = 100.0 * span_ns / gemm_ns;
    report.push(spans);
    report.note(format!(
        "disabled obs span: {span_ns:.1} ns/call = {overhead_pct:.4}% of one 256x256 GEMM \
         (contract: <1%)"
    ));
    assert!(overhead_pct < 1.0, "disabled-probe overhead {overhead_pct:.3}% breaches 1%");
    report.note(
        "GEMM context: the pinned-SSE2 safe-Rust build caps f32 MACs at 4/cycle and the \
         pre-overhaul A*B / At*B kernels already ran near 3 MACs/cycle on wide outputs, so \
         their square-shape headroom is ~1.3x; all three products now share one register \
         tile (32/16/8 wide, B^T packed for A*Bt; DESIGN.md sec. 12), so A*Bt no longer runs \
         scalar dots and n = 16 outputs stay in registers instead of a scalar column tail",
    );

    // NoC: full-scan reference stepper vs active-set + fast-forward on an
    // identical sparse timed trace (bit-identical SimReports). The sparse
    // pair mostly measures fast-forward; the congested all-to-all burst
    // pair keeps every router busy, so it measures switch allocation: the
    // per-output oracle scan against the one-pass allocator.
    let sim_iters = iters_from_env(10);
    let burst = all_to_all(16, 2048);
    report.push(time("noc_sim_burst_16c_before", 2, sim_iters, || {
        let mut sim = Simulator::new(NocConfig::paper_16core()).expect("sim");
        sim.run_reference(&burst.messages).expect("reference noc run");
    }));
    report.push(time("noc_sim_burst_16c_after", 2, sim_iters, || {
        let mut sim = Simulator::new(NocConfig::paper_16core()).expect("sim");
        sim.run(&burst.messages).expect("noc run");
    }));
    note_speedup(&mut report, "noc_sim_burst_16c");
    let trace = sparse_trace(16);
    report.push(time("noc_sim_sparse_16c_before", 2, sim_iters, || {
        let mut sim = Simulator::new(NocConfig::paper_16core()).expect("sim");
        sim.run_reference(&trace.messages).expect("reference noc run");
    }));
    report.push(time("noc_sim_sparse_16c_after", 2, sim_iters, || {
        let mut sim = Simulator::new(NocConfig::paper_16core()).expect("sim");
        sim.run(&trace.messages).expect("noc run");
    }));
    note_speedup(&mut report, "noc_sim_sparse_16c");
    {
        let mut sim = Simulator::new(NocConfig::paper_16core()).expect("sim");
        let rep = sim.run(&trace.messages).expect("noc run");
        report.note(format!(
            "noc_sim_sparse_16c: {} cycles stepped, {} fast-forwarded ({:.1}% idle skipped)",
            rep.cycles_simulated,
            rep.cycles_fast_forwarded,
            100.0 * rep.cycles_fast_forwarded as f64
                / (rep.cycles_simulated + rep.cycles_fast_forwarded).max(1) as f64,
        ));
    }

    // End-to-end: one table3-quick pass through training + simulation with
    // the sim cache live. Single iteration — the workload is minutes-scale.
    par::install(ExecConfig::new(host));
    simcache::reset();
    report.push(time("table3_quick_e2e_after", 0, 1, || {
        table3_rows(&EffortPreset::quick()).expect("table3 quick");
    }));
    let stats = simcache::stats();
    report.note(format!(
        "sim cache over table3_quick_e2e_after: {} hits / {} misses",
        stats.hits, stats.misses
    ));
    report.note(
        "table3_quick_e2e before: 17.26 s wall (commit 6a6d06a, same host, LTS_EFFORT=quick)"
            .to_string(),
    );

    report.write().expect("write benchmark report");
}

/// Appends a `name: before/after speedup` note from the two records.
fn note_speedup(report: &mut BenchReport, name: &str) {
    let mean = |suffix: &str| {
        report
            .records
            .iter()
            .find(|r| r.name == format!("{name}_{suffix}"))
            .map(|r| r.mean_ms)
            .unwrap_or(f64::NAN)
    };
    let (before, after) = (mean("before"), mean("after"));
    report.note(format!("{name}: {before:.3} ms -> {after:.3} ms ({:.2}x)", before / after));
}
