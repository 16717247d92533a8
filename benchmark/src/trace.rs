//! Per-layer metrics of the traced pass: host self time by crate from the
//! probe call paths, the library's counters, and the cross-model checks
//! of every evaluated plan against a direct simulation and the analytic
//! model.

use crate::metrics::{Checks, Metrics, FORWARD_LAYERS};
use lts_core::SystemReport;
use lts_noc::analytic::analyze;
use lts_noc::{NocConfig, Simulator};
use lts_obs::Snapshot;
use lts_partition::Plan;
use std::collections::BTreeMap;
use std::path::Path;

/// Crates that open spans, by name prefix. Spans with another prefix, or
/// none (the per-layer spans under `nn.forward`), belong to the nearest
/// enclosing span that has one; the benchmark's own spans are `bench`.
const CRATES: [&str; 6] = ["tensor", "nn", "partition", "noc", "core", "bench"];

/// Finer host-time buckets inside a crate: metric and the span names it
/// covers.
const OPERATIONS: [(&str, &[&str]); 10] = [
    ("tensor.gemm_f32_pct", &["tensor.matmul", "tensor.matmul_at_b", "tensor.matmul_a_bt"]),
    ("tensor.gemm_i16_pct", &["tensor.matmul_i16", "tensor.matmul_a_bt_i16"]),
    ("tensor.im2col_pct", &["tensor.im2col", "tensor.im2col_i16", "tensor.col2im"]),
    ("nn.forward_pct", &["nn.forward"]),
    ("nn.forward_i16_pct", &["nn.forward_i16"]),
    ("nn.backward_pct", &["nn.backward"]),
    ("nn.quantize_calibrate_pct", &["nn.quantize_calibrate"]),
    ("core.evaluate_pct", &["core.evaluate_layers", "core.plan_for"]),
    ("core.serve_pct", &["core.serve"]),
    (
        "core.recovery_pct",
        &[
            "core.recovery",
            "core.recovery_chiplets",
            "core.recovery.replan",
            "core.recovery.resync",
        ],
    ),
];

fn crate_of(segment: &str) -> Option<&'static str> {
    let (prefix, _) = segment.split_once('.')?;
    CRATES.iter().copied().find(|c| *c == prefix)
}

/// The span a path's self time is charged to: its deepest segment that
/// names a crate, or `None` for time outside every crate span.
fn owner(path: &str) -> Option<&str> {
    path.rsplit(';').find(|s| crate_of(s).is_some())
}

/// Self time per call path, in ms: a path's total minus the totals of its
/// direct children.
fn self_times(snap: &Snapshot) -> BTreeMap<&str, f64> {
    let mut selfs: BTreeMap<&str, f64> =
        snap.probes.iter().map(|p| (p.path.as_str(), p.sum_ms)).collect();
    for p in &snap.probes {
        if let Some((parent, _)) = p.path.rsplit_once(';') {
            if let Some(s) = selfs.get_mut(parent) {
                *s -= p.sum_ms;
            }
        }
    }
    selfs
}

/// Host self time by crate and operation as shares of the traced pass
/// (`wall_ms`), plus the inclusive forward time of each layer. Checks
/// that no span's children outlast it and that the self times account
/// for the whole pass within 1%. Returns the self milliseconds behind
/// each share metric.
pub fn host_breakdown(
    snap: &Snapshot,
    wall_ms: f64,
    m: &mut Metrics,
    checks: &mut Checks,
) -> BTreeMap<String, f64> {
    let mut ms_by_metric: BTreeMap<String, f64> = BTreeMap::new();
    let mut charge = |metric: String, ms: f64| *ms_by_metric.entry(metric).or_insert(0.0) += ms;
    let mut accounted = 0.0;
    for (path, ms) in self_times(snap) {
        checks.check(ms >= -1e-6, || format!("span {path} has negative self time {ms} ms"));
        accounted += ms;
        let span = owner(path);
        match span.and_then(crate_of) {
            Some("bench") | None => charge("bench.other_pct".into(), ms),
            Some(krate) => charge(format!("{krate}.self_pct"), ms),
        }
        if let Some((metric, _)) =
            OPERATIONS.iter().find(|(_, spans)| span.is_some_and(|s| spans.contains(&s)))
        {
            charge(metric.to_string(), ms);
        }
    }
    // Time outside the root span (the span guard itself) is the benchmark's.
    charge("bench.other_pct".into(), wall_ms - accounted);
    checks.check((wall_ms - accounted).abs() <= 0.01 * wall_ms, || {
        format!("span self times sum to {accounted} ms of a {wall_ms} ms pass")
    });
    for p in &snap.probes {
        let mut tail = p.path.rsplit(';');
        let (Some(layer), Some(parent)) = (tail.next(), tail.next()) else { continue };
        if FORWARD_LAYERS.contains(&layer) && (parent == "nn.forward" || parent == "nn.forward_i16")
        {
            charge(format!("{parent}.{layer}_pct"), p.sum_ms);
        }
    }
    for (metric, ms) in &ms_by_metric {
        m.set(metric.clone(), ms / wall_ms * 100.0);
    }
    ms_by_metric
}

/// The library's work counters, and the host rates they give over the
/// self milliseconds of [`host_breakdown`].
pub fn counters(snap: &Snapshot, self_ms: &BTreeMap<String, f64>, m: &mut Metrics) {
    let count = |name: &str| snap.counter(name).unwrap_or(0) as f64;
    for name in [
        "tensor.macs_f32",
        "tensor.macs_i16",
        "accel.compute_cycles",
        "accel.memory_cycles",
        "accel.dram_bytes",
        "noc.runs",
        "noc.cycles_simulated",
        "noc.cycles_fast_forwarded",
        "noc.inter_chip_traversals",
    ] {
        m.set(name, count(name));
    }
    let per_ms = |work: &str, metric: &str| match self_ms.get(metric) {
        Some(&ms) if ms > 0.0 => count(work) / ms,
        _ => 0.0,
    };
    m.set("tensor.gemm_f32_gmacs", per_ms("tensor.macs_f32", "tensor.gemm_f32_pct") / 1e6);
    m.set("tensor.gemm_i16_gmacs", per_ms("tensor.macs_i16", "tensor.gemm_i16_pct") / 1e6);
    m.set("noc.stepped_cycles_per_ms", per_ms("noc.cycles_simulated", "noc.self_pct"));
}

/// Re-simulates every communicating layer of every evaluated plan
/// directly (no cache) and checks it against the analytic model and the
/// system report: delivered flits and link traversals equal the analytic
/// flits and flit-hops, the makespan is at least the analytic bound and
/// equals the report's communication cycles, and every planned byte is
/// delivered.
pub fn cross_check(
    plans: &[(NocConfig, &Plan, &SystemReport)],
    m: &mut Metrics,
    checks: &mut Checks,
) {
    let (mut makespan, mut bound) = (0u64, 0u64);
    for (config, plan, report) in plans {
        let mut sim = match Simulator::new(*config) {
            Ok(sim) => sim,
            Err(e) => {
                checks.check(false, || format!("building the simulator: {e}"));
                continue;
            }
        };
        for (lp, layer) in plan.layers.iter().zip(&report.layers) {
            let name = &lp.spec.name;
            if lp.traffic.is_empty() {
                checks.check(layer.comm_cycles == 0, || format!("{name}: comm without traffic"));
                continue;
            }
            let analytic = analyze(config, &lp.traffic);
            let sim = match sim.run(&lp.traffic.messages) {
                Ok(r) => r,
                Err(e) => {
                    checks.check(false, || format!("{name}: direct simulation failed: {e}"));
                    continue;
                }
            };
            checks.check(sim.flits_delivered == analytic.total_flits, || {
                format!(
                    "{name}: {} flits delivered, {} analytic",
                    sim.flits_delivered, analytic.total_flits
                )
            });
            checks.check(sim.events.link_traversals == analytic.flit_hops, || {
                format!(
                    "{name}: {} link traversals, {} flit-hops",
                    sim.events.link_traversals, analytic.flit_hops
                )
            });
            checks.check(sim.makespan >= analytic.makespan_lower_bound, || {
                format!(
                    "{name}: makespan {} under bound {}",
                    sim.makespan, analytic.makespan_lower_bound
                )
            });
            checks.check(sim.makespan == layer.comm_cycles, || {
                format!("{name}: makespan {} but report comm {}", sim.makespan, layer.comm_cycles)
            });
            checks.check(sim.bytes_delivered == lp.traffic.total_bytes(), || {
                format!(
                    "{name}: {} bytes delivered of {}",
                    sim.bytes_delivered,
                    lp.traffic.total_bytes()
                )
            });
            makespan += sim.makespan;
            bound += analytic.makespan_lower_bound;
        }
        checks.check(plan.layers.len() == report.layers.len(), || {
            "plan and report layers differ".into()
        });
    }
    if bound > 0 {
        m.set("noc.makespan_over_bound", makespan as f64 / bound as f64);
    }
}

/// Writes `TRACE_<workload>.json` (per-layer metrics, probe rows and
/// counters) and `TRACE_<workload>.trace.json` (Chrome trace events) into
/// `dir`.
pub fn write_files(
    dir: &Path,
    workload: &str,
    seed: u64,
    m: &Metrics,
    snap: &Snapshot,
) -> std::io::Result<()> {
    #[derive(serde::Serialize)]
    struct TraceFile {
        workload: String,
        seed: u64,
        metrics: BTreeMap<String, f64>,
        probes: Vec<lts_obs::ProbeRow>,
        counters: Vec<lts_obs::CounterRow>,
    }
    let file = TraceFile {
        workload: workload.to_string(),
        seed,
        metrics: m.names().map(|n| (n.to_string(), m.get(n).unwrap_or(0.0))).collect(),
        probes: snap.probes.clone(),
        counters: snap.counters.clone(),
    };
    let json = serde_json::to_string_pretty(&file)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
    std::fs::create_dir_all(dir)?;
    std::fs::write(dir.join(format!("TRACE_{workload}.json")), json)?;
    std::fs::write(dir.join(format!("TRACE_{workload}.trace.json")), snap.chrome_trace())
}
