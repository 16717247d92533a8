//! Metric declarations, the correctness-check ledger and the result line.
//!
//! The declarations here are the single source of metric names and units
//! inside the binary; a unit test holds them equal to `BENCHMARK.json`.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One declared metric.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Decl {
    /// Metric name, `[A-Za-z0-9_.-]+`.
    pub name: String,
    /// Unit as printed in the result line.
    pub unit: &'static str,
}

fn decl(name: impl Into<String>, unit: &'static str) -> Decl {
    Decl { name: name.into(), unit }
}

/// Metrics every untraced run reports, on every workload.
pub fn end_to_end() -> Vec<Decl> {
    vec![
        decl("setup_s", "s"),
        decl("wall_s", "s"),
        decl("peak_rss_mb", "MB"),
        decl("sim_latency_kcycles", "kcycles"),
    ]
}

/// Layers whose forward time the traced run splits out, in network order
/// (the CIFAR ConvNet's weighted layers; the Table III variants have no
/// `ip2`).
pub const FORWARD_LAYERS: [&str; 5] = ["conv1", "conv2", "conv3", "ip1", "ip2"];

/// The serving ladder's fixed Poisson arrival rates, requests per
/// megacycle.
pub const LADDER_RPMC: [u32; 8] = [10, 15, 20, 25, 30, 40, 55, 80];

/// The three strategies of the 16-core ConvNet design points.
pub const STRATEGIES: [&str; 3] = ["traditional", "structure", "sparsified"];

/// Metrics every traced run reports, on every workload. A layer the
/// workload does not exercise reads 0.
pub fn per_layer() -> Vec<Decl> {
    let mut d = Vec::new();
    // Host self time per crate and per hot operation, as a share of the
    // traced pass (the crate shares and `bench.other_pct` sum to 100).
    for name in [
        "tensor.self_pct",
        "tensor.gemm_f32_pct",
        "tensor.gemm_i16_pct",
        "tensor.im2col_pct",
        "nn.self_pct",
        "nn.forward_pct",
        "nn.forward_i16_pct",
        "nn.backward_pct",
        "nn.quantize_calibrate_pct",
        "partition.self_pct",
        "noc.self_pct",
        "core.self_pct",
        "core.evaluate_pct",
        "core.serve_pct",
        "core.recovery_pct",
        "bench.other_pct",
    ] {
        d.push(decl(name, "%"));
    }
    // Inclusive forward time per layer, as a share of the traced pass.
    for pass in ["nn.forward", "nn.forward_i16"] {
        for layer in FORWARD_LAYERS {
            d.push(decl(format!("{pass}.{layer}_pct"), "%"));
        }
    }
    d.extend([
        decl("tensor.macs_f32", "count"),
        decl("tensor.macs_i16", "count"),
        decl("tensor.gemm_f32_gmacs", "GMAC/s"),
        decl("tensor.gemm_i16_gmacs", "GMAC/s"),
        decl("accel.compute_cycles", "cycles"),
        decl("accel.memory_cycles", "cycles"),
        decl("accel.dram_bytes", "B"),
        decl("partition.traffic_bytes", "B"),
        decl("noc.runs", "count"),
        decl("noc.cycles_simulated", "cycles"),
        decl("noc.cycles_fast_forwarded", "cycles"),
        decl("noc.stepped_cycles_per_ms", "cycles/ms"),
        decl("noc.comm_cycles", "cycles"),
        decl("noc.blocked_flit_cycles", "cycles"),
        decl("noc.makespan_over_bound", "ratio"),
        decl("noc.energy_uj", "uJ"),
        decl("noc.inter_chip_traversals", "count"),
        decl("core.simcache.hit_rate", "fraction"),
        decl("core.simcache.misses", "count"),
    ]);
    for rate in LADDER_RPMC {
        d.push(decl(format!("serve.rate_{rate}.p99_kcycles"), "kcycles"));
        d.push(decl(format!("serve.rate_{rate}.ok_share"), "fraction"));
    }
    d.extend([
        decl("serve.p50_kcycles", "kcycles"),
        decl("serve.p99_kcycles", "kcycles"),
        decl("serve.goodput_rpmc", "req/Mcycle"),
        decl("serve.slo_rate_rpmc", "req/Mcycle"),
        decl("serve.batch_size_mean", "requests"),
        decl("serve.noc_saturation", "flits"),
        decl("serve.controller_switches", "count"),
        decl("serve.detection_kcycles", "kcycles"),
        decl("serve.recovery_overhead_kcycles", "kcycles"),
        decl("sim.cycles", "cycles"),
        decl("sim.compute_cycles", "cycles"),
        decl("sim.energy_uj", "uJ"),
    ]);
    for strategy in STRATEGIES {
        for layer in FORWARD_LAYERS {
            for part in ["compute", "comm"] {
                d.push(decl(format!("sim.convnet16.{strategy}.{layer}.{part}_cycles"), "cycles"));
            }
        }
    }
    d.extend([
        decl("sim.table3.parallel2_speedup", "x"),
        decl("sim.table3.parallel3_speedup", "x"),
        decl("nn.top1_acc", "fraction"),
        decl("nn.i16_agreement", "fraction"),
        decl("obs.trace_overhead_pct", "%"),
        decl("bench.traced_wall_ms", "ms"),
    ]);
    d
}

/// Named metric values of one run.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<String, f64>);

impl Metrics {
    /// Every metric of `decls` at 0.
    pub fn zeroed(decls: &[Decl]) -> Self {
        Metrics(decls.iter().map(|d| (d.name.clone(), 0.0)).collect())
    }

    /// Sets one metric.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.0.insert(name.into(), value);
    }

    /// Adds to one metric (starting from 0).
    pub fn add(&mut self, name: impl Into<String>, value: f64) {
        *self.0.entry(name.into()).or_insert(0.0) += value;
    }

    /// One metric, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// The names set, sorted.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.0.keys().map(String::as_str)
    }
}

/// Counts correctness checks; a failed check is reported, never a panic.
#[derive(Debug, Default)]
pub struct Checks {
    /// Checks made.
    pub attempted: u64,
    /// Checks that failed.
    pub failed: u64,
}

impl Checks {
    /// Records one check; `what` describes a failure on stderr.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {}", what());
        }
    }
}

/// The last line of standard output: the check ledger and every metric
/// of `decls`, in declaration order. A declared metric that is missing or
/// not finite fails a check and prints as 0, since JSON has no NaN.
pub fn result_line(decls: &[Decl], metrics: &Metrics, mut checks: Checks) -> String {
    let mut body = String::new();
    let mut values = Vec::with_capacity(decls.len());
    for d in decls {
        let value = metrics.get(&d.name);
        let finite = value.filter(|v| v.is_finite());
        checks.check(finite.is_some(), || format!("metric {} is {value:?}", d.name));
        values.push((d, finite.unwrap_or(0.0)));
    }
    for name in metrics.names() {
        checks.check(decls.iter().any(|d| d.name == name), || format!("undeclared metric {name}"));
    }
    for (i, (d, v)) in values.into_iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        // `{}` prints the shortest text that reads back as the same f64.
        let _ = write!(body, "{sep}\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}", d.name, d.unit);
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
        checks.failed == 0,
        checks.attempted,
        checks.failed
    )
}

/// Peak resident set size of this process (`VmHWM`), in megabytes.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM line in /proc/self/status")?;
    let kb: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .map_err(|e| format!("parsing `{line}`: {e}"))?;
    // The kernel's "kB" are KiB.
    Ok(kb * 1024.0 / 1e6)
}

/// Median of a sample (mean of the middle pair when even; 0 when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Deserialize;

    #[derive(Deserialize)]
    struct Declared {
        name: String,
        unit: String,
    }

    #[derive(Deserialize)]
    struct Workload {
        name: String,
    }

    #[derive(Deserialize)]
    struct BenchmarkJson {
        workloads: Vec<Workload>,
        end_to_end: Vec<Declared>,
        per_layer: Vec<Declared>,
    }

    fn benchmark_json() -> BenchmarkJson {
        let text = include_str!("../../BENCHMARK.json");
        serde_json::from_str(text).expect("BENCHMARK.json parses")
    }

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn same(declared: &[Declared], ours: &[Decl]) {
        let theirs: Vec<(&str, &str)> =
            declared.iter().map(|d| (d.name.as_str(), d.unit.as_str())).collect();
        let mine: Vec<(&str, &str)> = ours.iter().map(|d| (d.name.as_str(), d.unit)).collect();
        assert_eq!(theirs, mine);
    }

    #[test]
    fn declarations_match_benchmark_json_one_to_one() {
        let json = benchmark_json();
        same(&json.end_to_end, &end_to_end());
        same(&json.per_layer, &per_layer());
        let names: Vec<&str> = json.workloads.iter().map(|w| w.name.as_str()).collect();
        assert_eq!(names, crate::WORKLOADS);
    }

    #[test]
    fn names_are_valid_and_unique() {
        let mut all: Vec<String> =
            end_to_end().into_iter().chain(per_layer()).map(|d| d.name).collect();
        all.extend(crate::WORKLOADS.iter().map(|w| w.to_string()));
        for name in &all {
            assert!(valid_name(name), "{name}");
        }
        let n = all.len();
        all.sort();
        all.dedup();
        assert_eq!(all.len(), n, "duplicate metric or workload name");
        assert!(per_layer().len() <= 128);
    }

    #[test]
    fn result_line_flags_missing_and_undeclared_metrics() {
        let decls = vec![decl("a", "s"), decl("b", "ms")];
        let mut m = Metrics::default();
        m.set("a", 1.5);
        m.set("c", 2.0);
        let line = result_line(&decls, &m, Checks::default());
        assert_eq!(
            line,
            "{\"correct\": false, \"attempted\": 4, \"failed\": 2, \"metrics\": \
             {\"a\": {\"value\": 1.5, \"unit\": \"s\"}, \"b\": {\"value\": 0, \"unit\": \"ms\"}}}"
        );
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
