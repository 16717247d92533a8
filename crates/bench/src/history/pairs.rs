//! Parent/change pairs over the repository benchmark: the contract read
//! from `BENCHMARK.json`, the result lines the benchmark prints, and the
//! pure summary that turns a workload's runs into verdicts (see
//! `DESIGN.md` §18). The `bench_history` binary builds both sides and
//! runs them; everything it decides is decided here.

use super::stats::{iqr, mann_whitney_u, median};
use serde::Deserialize;
use std::collections::BTreeMap;
use std::fmt;

/// Untraced pairs per workload: the least a gain or a no-regression
/// claim may rest on.
pub const PAIRS: usize = 10;

/// Untraced pairs per workload under `--smoke`: too few for any verdict
/// but `unresolved`, enough to exercise both sides and the ledger.
pub const SMOKE_PAIRS: usize = 2;

/// Units of metrics that depend on the host's speed. Every per-layer
/// metric in another unit is simulated or counted, so it must repeat
/// exactly.
pub const HOST_UNITS: [&str; 4] = ["%", "ms", "GMAC/s", "cycles/ms"];

/// The parts of `BENCHMARK.json` a pair run needs.
#[derive(Debug, Clone, Deserialize)]
pub struct Contract {
    /// Seconds of untraced passes per run.
    pub run_seconds: f64,
    /// The workloads, in declaration order.
    pub workloads: Vec<Workload>,
    /// Metrics of an untraced run, each with its bound.
    pub end_to_end: Vec<Declared>,
    /// Metrics of a traced run.
    pub per_layer: Vec<Declared>,
}

/// One declared workload.
#[derive(Debug, Clone, Deserialize)]
pub struct Workload {
    /// Name passed to the benchmark's `--workload`.
    pub name: String,
}

/// One declared metric.
#[derive(Debug, Clone, Deserialize)]
pub struct Declared {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// `lower` or `higher`.
    pub better: String,
    /// Largest fractional worsening of the median that is not a
    /// regression; declared for end-to-end metrics only.
    pub bound: Option<f64>,
}

impl Declared {
    /// Whether a lower value is better.
    pub fn lower_is_better(&self) -> bool {
        self.better == "lower"
    }

    /// Whether the metric must repeat exactly for a seed: its unit is
    /// not one of [`HOST_UNITS`].
    pub fn deterministic(&self) -> bool {
        !HOST_UNITS.contains(&self.unit.as_str())
    }
}

impl Contract {
    /// Parses and checks `BENCHMARK.json`.
    ///
    /// # Errors
    ///
    /// Malformed JSON, a `better` other than `lower`/`higher`, an
    /// end-to-end metric without a non-negative bound, or a run length
    /// that is not a non-negative number of seconds.
    pub fn parse(json: &str) -> Result<Self, String> {
        let c: Contract = serde_json::from_str(json).map_err(|e| e.to_string())?;
        if !(c.run_seconds.is_finite() && c.run_seconds >= 0.0) {
            return Err(format!("run_seconds {} is not a duration", c.run_seconds));
        }
        for d in c.end_to_end.iter().chain(&c.per_layer) {
            if d.better != "lower" && d.better != "higher" {
                return Err(format!("{}: better is `{}`, not lower or higher", d.name, d.better));
            }
        }
        for d in &c.end_to_end {
            if !d.bound.is_some_and(|b| b.is_finite() && b >= 0.0) {
                return Err(format!("{}: end-to-end metric without a bound", d.name));
            }
        }
        Ok(c)
    }
}

/// The last line a benchmark run prints.
#[derive(Debug, Clone, Deserialize)]
pub struct RunResult {
    /// Correctness checks made.
    pub attempted: u64,
    /// Checks that failed.
    pub failed: u64,
    /// Every declared metric of the run.
    pub metrics: BTreeMap<String, Reading>,
}

/// One metric of a result line.
#[derive(Debug, Clone, Copy, Deserialize)]
pub struct Reading {
    /// The value, in the declared unit.
    pub value: f64,
}

impl RunResult {
    /// Parses a result line.
    ///
    /// # Errors
    ///
    /// The line is not a result line.
    pub fn parse(line: &str) -> Result<Self, String> {
        serde_json::from_str(line).map_err(|e| format!("{e} in result line `{line}`"))
    }

    fn value(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).map(|r| r.value)
    }
}

/// Which commit a run measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// The parent revision, built in a worktree.
    Parent,
    /// The working tree.
    Change,
}

impl fmt::Display for Side {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Side::Parent => "parent",
            Side::Change => "change",
        })
    }
}

/// One benchmark run of one workload.
#[derive(Debug, Clone)]
pub struct Run {
    /// The side that ran.
    pub side: Side,
    /// The benchmark's `--seed`.
    pub seed: u64,
    /// Whether the run was traced.
    pub trace: bool,
    /// Its result line.
    pub result: RunResult,
}

/// The ledger line of one run: its raw result line, tagged with where
/// and how it ran.
pub fn ledger_line(
    side: Side,
    rev: &str,
    dirty: bool,
    workload: &str,
    seed: u64,
    trace: bool,
    result_line: &str,
) -> String {
    let quote = |s: &str| serde_json::to_string(&s.to_string()).expect("strings serialize");
    format!(
        "{{\"side\": \"{side}\", \"rev\": {}, \"dirty\": {dirty}, \"workload\": {}, \
         \"seed\": {seed}, \"trace\": {}, \"result\": {result_line}}}",
        quote(rev),
        quote(workload),
        u8::from(trace)
    )
}

/// The judgement of one end-to-end metric over a workload's pairs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// At least 9 of 10 pairs won and a median gap wider than the
    /// parent's interquartile range.
    Gain,
    /// The change's median is worse than the parent's by more than the
    /// bound.
    Regression,
    /// Fewer than [`PAIRS`] pairs, or a parent interquartile range wider
    /// than the bound.
    Unresolved,
    /// None of the above.
    NoChange,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Verdict::Gain => "gain",
            Verdict::Regression => "regression",
            Verdict::Unresolved => "unresolved",
            Verdict::NoChange => "no change",
        })
    }
}

/// One end-to-end metric over a workload's pairs.
#[derive(Debug, Clone)]
pub struct MetricSummary {
    /// The declaration.
    pub decl: Declared,
    /// `(seed, parent, change)` per pair, by seed.
    pub pairs: Vec<(u64, f64, f64)>,
    /// Pairs the change read better in.
    pub wins: usize,
    /// Pairs the parent read better in.
    pub losses: usize,
    /// Median of the parent's runs.
    pub parent_median: f64,
    /// Median of the change's runs.
    pub change_median: f64,
    /// Interquartile range of the parent's runs.
    pub parent_iqr: f64,
    /// Two-sided Mann–Whitney p of change against parent.
    pub p_value: f64,
    /// The judgement.
    pub verdict: Verdict,
}

impl MetricSummary {
    fn new(decl: &Declared, pairs: Vec<(u64, f64, f64)>) -> Self {
        let lower = decl.lower_is_better();
        let bound = decl.bound.unwrap_or(0.0);
        let parent: Vec<f64> = pairs.iter().map(|p| p.1).collect();
        let change: Vec<f64> = pairs.iter().map(|p| p.2).collect();
        let better = |a: f64, b: f64| if lower { a < b } else { a > b };
        let wins = pairs.iter().filter(|p| better(p.2, p.1)).count();
        let losses = pairs.iter().filter(|p| better(p.1, p.2)).count();
        let (parent_median, change_median) = (median(&parent), median(&change));
        let parent_iqr = iqr(&parent);
        // How much worse the change's median reads, in the metric's unit.
        let worse =
            if lower { change_median - parent_median } else { parent_median - change_median };
        let n = pairs.len();
        let verdict = if n < PAIRS {
            Verdict::Unresolved
        } else if relative(worse, parent_median) > bound {
            Verdict::Regression
        } else if wins * 10 >= 9 * n && -worse > parent_iqr {
            Verdict::Gain
        } else if relative(parent_iqr, parent_median) > bound {
            Verdict::Unresolved
        } else {
            Verdict::NoChange
        };
        Self {
            decl: decl.clone(),
            wins,
            losses,
            parent_median,
            change_median,
            parent_iqr,
            p_value: mann_whitney_u(&change, &parent).p_value,
            verdict,
            pairs,
        }
    }
}

/// `delta` as a fraction of `base`; an infinite fraction when `base` is 0
/// and `delta` is not.
fn relative(delta: f64, base: f64) -> f64 {
    if base == 0.0 {
        if delta == 0.0 {
            0.0
        } else {
            f64::INFINITY.copysign(delta)
        }
    } else {
        delta / base.abs()
    }
}

/// A per-layer metric of the traced pair, as each side read it.
#[derive(Debug, Clone, PartialEq)]
pub struct Moved {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// The parent's value, if it reported the metric.
    pub parent: Option<f64>,
    /// The change's value, if it reported the metric.
    pub change: Option<f64>,
}

/// The traced pair compared metric by metric.
#[derive(Debug, Clone)]
pub struct TracedDiff {
    /// The pair's seed.
    pub seed: u64,
    /// Deterministic metrics compared.
    pub compared: usize,
    /// Deterministic metrics whose values differ.
    pub differ: Vec<Moved>,
    /// `_pct` shares whose values differ at one decimal.
    pub pct_moved: Vec<Moved>,
}

/// Everything a workload's runs show.
#[derive(Debug, Clone)]
pub struct WorkloadSummary {
    /// Workload name.
    pub workload: String,
    /// One row per end-to-end metric, in declaration order.
    pub metrics: Vec<MetricSummary>,
    /// `(failed, attempted)` checks of the parent's runs.
    pub parent_checks: (u64, u64),
    /// `(failed, attempted)` checks of the change's runs.
    pub change_checks: (u64, u64),
    /// The traced pair, when both sides ran one.
    pub traced: Option<TracedDiff>,
}

impl WorkloadSummary {
    /// Whether the pair run fails: a `regression` verdict, or a larger
    /// share of failed checks on the change's side.
    pub fn fails(&self) -> bool {
        let ((pf, pa), (cf, ca)) = (self.parent_checks, self.change_checks);
        self.metrics.iter().any(|m| m.verdict == Verdict::Regression) || cf * pa > pf * ca
    }
}

/// Summarises one workload's runs, untraced and traced, of both sides.
/// Untraced runs pair by seed; a seed one side lacks is left out.
pub fn summarize(contract: &Contract, workload: &str, runs: &[Run]) -> WorkloadSummary {
    let checks = |side: Side| {
        runs.iter()
            .filter(|r| r.side == side)
            .fold((0, 0), |(f, a), r| (f + r.result.failed, a + r.result.attempted))
    };
    let find = |side: Side, seed: u64, trace: bool| {
        runs.iter().find(|r| r.side == side && r.seed == seed && r.trace == trace)
    };
    let mut seeds: Vec<u64> = runs.iter().filter(|r| !r.trace).map(|r| r.seed).collect();
    seeds.sort_unstable();
    seeds.dedup();
    let metrics = contract
        .end_to_end
        .iter()
        .map(|decl| {
            let pairs = seeds
                .iter()
                .filter_map(|&seed| {
                    let parent = find(Side::Parent, seed, false)?.result.value(&decl.name)?;
                    let change = find(Side::Change, seed, false)?.result.value(&decl.name)?;
                    Some((seed, parent, change))
                })
                .collect();
            MetricSummary::new(decl, pairs)
        })
        .collect();
    let traced = runs.iter().find(|r| r.trace).and_then(|r| {
        let parent = &find(Side::Parent, r.seed, true)?.result;
        let change = &find(Side::Change, r.seed, true)?.result;
        let mut diff = TracedDiff { seed: r.seed, compared: 0, differ: vec![], pct_moved: vec![] };
        for decl in &contract.per_layer {
            let moved = Moved {
                name: decl.name.clone(),
                unit: decl.unit.clone(),
                parent: parent.value(&decl.name),
                change: change.value(&decl.name),
            };
            if decl.deterministic() {
                diff.compared += 1;
                if moved.parent != moved.change {
                    diff.differ.push(moved);
                }
            } else if decl.name.ends_with("_pct") {
                let tenths = |v: Option<f64>| v.map(|v| (v * 10.0).round());
                if tenths(moved.parent) != tenths(moved.change) {
                    diff.pct_moved.push(moved);
                }
            }
        }
        Some(diff)
    });
    WorkloadSummary {
        workload: workload.to_string(),
        metrics,
        parent_checks: checks(Side::Parent),
        change_checks: checks(Side::Change),
        traced,
    }
}

fn show(v: Option<f64>) -> String {
    v.map_or_else(|| "-".into(), |v| v.to_string())
}

/// `v` to six significant digits (the ledger keeps every digit).
fn sig(v: f64) -> String {
    let magnitude = if v == 0.0 || !v.is_finite() { 0 } else { v.abs().log10().floor() as i32 };
    let decimals = (5 - magnitude).max(0) as usize;
    format!("{v:.decimals$}")
}

impl fmt::Display for WorkloadSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "== {} ==", self.workload)?;
        for m in &self.metrics {
            let d = &m.decl;
            writeln!(
                f,
                "{} ({}, {} is better, bound {:.0}%)",
                d.name,
                d.unit,
                d.better,
                100.0 * d.bound.unwrap_or(0.0)
            )?;
            writeln!(f, "  {:>4}  {:>14}  {:>14}", "seed", "parent", "change")?;
            for (seed, p, c) in &m.pairs {
                writeln!(f, "  {seed:>4}  {:>14}  {:>14}", sig(*p), sig(*c))?;
            }
            let n = m.pairs.len();
            writeln!(
                f,
                "  wins {}/{n}, losses {}, ties {} | median parent {} change {} ({:+.2}%) | \
                 parent IQR {} ({:.2}%) | Mann-Whitney p {:.3} | {}",
                m.wins,
                m.losses,
                n - m.wins - m.losses,
                sig(m.parent_median),
                sig(m.change_median),
                100.0 * relative(m.change_median - m.parent_median, m.parent_median),
                sig(m.parent_iqr),
                100.0 * relative(m.parent_iqr, m.parent_median),
                m.p_value,
                m.verdict
            )?;
        }
        let ((pf, pa), (cf, ca)) = (self.parent_checks, self.change_checks);
        writeln!(f, "failed checks: parent {pf}/{pa}, change {cf}/{ca}")?;
        match &self.traced {
            None => writeln!(f, "exact diff: no traced pair ran")?,
            Some(t) => {
                writeln!(
                    f,
                    "exact diff (seed {}, traced): {} of {} deterministic metrics differ",
                    t.seed,
                    t.differ.len(),
                    t.compared
                )?;
                for m in &t.differ {
                    let (p, c) = (show(m.parent), show(m.change));
                    writeln!(f, "  {} ({}): parent {p} change {c}", m.name, m.unit)?;
                }
                writeln!(
                    f,
                    "_pct rows that moved (seed {}, traced): {}",
                    t.seed,
                    t.pct_moved.len()
                )?;
                for m in &t.pct_moved {
                    let tenths =
                        |v: Option<f64>| v.map_or_else(|| "-".into(), |v| format!("{v:.1}"));
                    writeln!(f, "  {}: {} -> {}", m.name, tenths(m.parent), tenths(m.change))?;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn contract() -> Contract {
        Contract::parse(include_str!("../../../../BENCHMARK.json")).expect("BENCHMARK.json")
    }

    /// A result line with the given `(name, value)` metrics.
    fn result(failed: u64, metrics: &[(&str, f64)]) -> RunResult {
        let body: Vec<String> = metrics
            .iter()
            .map(|(n, v)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"x\"}}"))
            .collect();
        let line = format!(
            "{{\"correct\": {}, \"attempted\": 100, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            failed == 0,
            body.join(", ")
        );
        RunResult::parse(&line).expect("fixture parses")
    }

    /// Untraced pairs with `wall_s` from `parent` and `change`, every
    /// other end-to-end metric equal on both sides.
    fn pairs(parent: &[f64], change: &[f64]) -> Vec<Run> {
        let run = |side, seed, wall| Run {
            side,
            seed,
            trace: false,
            result: result(
                0,
                &[
                    ("setup_s", 1.0),
                    ("wall_s", wall),
                    ("peak_rss_mb", 50.0),
                    ("sim_latency_kcycles", 123.5),
                ],
            ),
        };
        let mut runs = Vec::new();
        for (i, (&p, &c)) in parent.iter().zip(change).enumerate() {
            runs.push(run(Side::Parent, i as u64 + 1, p));
            runs.push(run(Side::Change, i as u64 + 1, c));
        }
        runs
    }

    fn verdict(parent: &[f64], change: &[f64]) -> Verdict {
        let s = summarize(&contract(), "w", &pairs(parent, change));
        s.metrics.iter().find(|m| m.decl.name == "wall_s").expect("wall_s row").verdict
    }

    /// Ten parent runs around 10 s: IQR 0.1 s, 1 % of the median.
    const PARENT: [f64; 10] = [10.0, 10.1, 9.9, 10.05, 9.95, 10.02, 9.98, 10.08, 9.92, 10.0];

    #[test]
    fn a_30_percent_slowdown_is_a_regression() {
        let slower: Vec<f64> = PARENT.iter().map(|x| x * 1.3).collect();
        assert_eq!(verdict(&PARENT, &slower), Verdict::Regression);
        let s = summarize(&contract(), "w", &pairs(&PARENT, &slower));
        assert!(s.fails());
    }

    #[test]
    fn two_percent_jitter_is_no_change() {
        let jitter: Vec<f64> = PARENT
            .iter()
            .enumerate()
            .map(|(i, x)| x * if i % 2 == 0 { 1.02 } else { 0.98 })
            .collect();
        let s = summarize(&contract(), "w", &pairs(&PARENT, &jitter));
        assert!(s.metrics.iter().all(|m| m.verdict == Verdict::NoChange), "{s:?}");
        assert!(!s.fails());
    }

    #[test]
    fn nine_wins_and_a_gap_beyond_the_iqr_is_a_gain_and_eight_is_not() {
        // 5 % faster on nine pairs, 5 % slower on the tenth: the median
        // gap (~0.5 s) is far wider than the parent IQR (~0.1 s).
        let mut nine: Vec<f64> = PARENT.iter().map(|x| x * 0.95).collect();
        nine[0] = PARENT[0] * 1.05;
        assert_eq!(verdict(&PARENT, &nine), Verdict::Gain);
        let mut eight = nine.clone();
        eight[1] = PARENT[1] * 1.05;
        assert_eq!(verdict(&PARENT, &eight), Verdict::NoChange);
    }

    #[test]
    fn fewer_than_ten_pairs_is_unresolved() {
        let slower: Vec<f64> = PARENT.iter().map(|x| x * 1.3).collect();
        assert_eq!(verdict(&PARENT[..9], &slower[..9]), Verdict::Unresolved);
        let s = summarize(&contract(), "w", &pairs(&PARENT[..2], &PARENT[..2]));
        assert!(s.metrics.iter().all(|m| m.verdict == Verdict::Unresolved), "{s:?}");
    }

    #[test]
    fn a_parent_spread_wider_than_the_bound_is_unresolved() {
        let noisy = [5.0, 15.0, 6.0, 14.0, 7.0, 13.0, 8.0, 12.0, 9.0, 11.0];
        assert_eq!(verdict(&noisy, &noisy), Verdict::Unresolved);
    }

    #[test]
    fn the_exact_diff_lists_deterministic_metrics_only() {
        let traced = |side, cycles, pct| Run {
            side,
            seed: 1,
            trace: true,
            result: result(0, &[("sim.cycles", cycles), ("tensor.self_pct", pct)]),
        };
        let mut runs = pairs(&PARENT, &PARENT);
        runs.push(traced(Side::Parent, 1000.0, 40.0));
        runs.push(traced(Side::Change, 1001.0, 45.0));
        let s = summarize(&contract(), "w", &runs);
        let t = s.traced.as_ref().expect("traced pair");
        assert_eq!(t.compared, contract().per_layer.iter().filter(|d| d.deterministic()).count());
        let differ: Vec<&str> = t.differ.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(differ, ["sim.cycles"]);
        let pct: Vec<&str> = t.pct_moved.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(pct, ["tensor.self_pct"]);
        let text = s.to_string();
        assert!(text.contains("1 of"), "{text}");
        assert!(text.contains("sim.cycles (cycles): parent 1000 change 1001"), "{text}");
    }

    #[test]
    fn more_failed_checks_on_the_change_fail_the_run() {
        let mut runs = pairs(&PARENT, &PARENT);
        assert!(!summarize(&contract(), "w", &runs).fails());
        runs[1].result.failed = 1;
        assert_eq!(runs[1].side, Side::Change);
        let s = summarize(&contract(), "w", &runs);
        assert_eq!((s.parent_checks, s.change_checks), ((0, 1000), (1, 1000)));
        assert!(s.fails());
        assert!(s.metrics.iter().all(|m| m.verdict != Verdict::Regression));
    }

    #[test]
    fn values_print_to_six_significant_digits() {
        assert_eq!(sig(0.0005548675000000001), "0.000554868");
        assert_eq!(sig(20.151714285714288), "20.1517");
        assert_eq!(sig(1234567.0), "1234567");
        assert_eq!(sig(0.0), "0.00000");
    }

    #[test]
    fn units_classify_determinism() {
        let c = contract();
        let find = |n: &str| c.per_layer.iter().find(|d| d.name == n).expect(n).deterministic();
        assert!(find("sim.cycles") && find("serve.p99_kcycles") && find("tensor.macs_f32"));
        assert!(!find("tensor.self_pct") && !find("bench.traced_wall_ms"));
        assert!(!find("tensor.gemm_f32_gmacs") && !find("noc.stepped_cycles_per_ms"));
    }

    #[test]
    fn the_contract_is_checked() {
        let c = contract();
        assert_eq!(c.workloads.len(), 4);
        assert!(c.end_to_end.iter().all(|d| d.bound.is_some()));
        let bad = r#"{"run_seconds": 1, "workloads": [],
            "end_to_end": [{"name": "a", "unit": "s", "better": "lower"}], "per_layer": []}"#;
        assert!(Contract::parse(bad).unwrap_err().contains("without a bound"));
        let bad = bad.replace("\"lower\"", "\"less\"");
        assert!(Contract::parse(&bad).unwrap_err().contains("not lower or higher"));
    }

    #[test]
    fn ledger_lines_tag_the_raw_result() {
        let raw = "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {}}";
        let line = ledger_line(Side::Change, "abc1234", true, "noc_sweep", 7, true, raw);
        assert_eq!(
            line,
            "{\"side\": \"change\", \"rev\": \"abc1234\", \"dirty\": true, \"workload\": \
             \"noc_sweep\", \"seed\": 7, \"trace\": 1, \"result\": {\"correct\": true, \
             \"attempted\": 3, \"failed\": 0, \"metrics\": {}}}"
        );
    }

    /// A contract with one end-to-end metric and no per-layer metrics.
    fn one_metric(name: &str, better: &str, bound: f64) -> Contract {
        Contract::parse(&format!(
            r#"{{"run_seconds": 1, "workloads": [{{"name": "w"}}], "per_layer": [],
                "end_to_end": [{{"name": "{name}", "unit": "x", "better": "{better}",
                "bound": {bound}}}]}}"#
        ))
        .expect("fixture contract")
    }

    /// Untraced pairs of a single metric `name`, seeds from 1.
    fn single(name: &str, parent: &[f64], change: &[f64]) -> Vec<Run> {
        let run = |side, seed, v| Run { side, seed, trace: false, result: result(0, &[(name, v)]) };
        let mut runs = Vec::new();
        for (i, (&p, &c)) in parent.iter().zip(change).enumerate() {
            runs.push(run(Side::Parent, i as u64 + 1, p));
            runs.push(run(Side::Change, i as u64 + 1, c));
        }
        runs
    }

    /// A traced pair on seed 1 whose sides report the given metrics.
    fn traced_pair(parent: &[(&str, f64)], change: &[(&str, f64)]) -> Vec<Run> {
        let traced = |side, metrics| Run { side, seed: 1, trace: true, result: result(0, metrics) };
        let mut runs = pairs(&PARENT, &PARENT);
        runs.push(traced(Side::Parent, parent));
        runs.push(traced(Side::Change, change));
        runs
    }

    #[test]
    fn result_lines_reject_other_output() {
        assert!(RunResult::parse("").is_err());
        assert!(RunResult::parse("wrote trace to results/trace.json").is_err());
        let no_failed = "{\"correct\": true, \"attempted\": 3, \"metrics\": {}}";
        assert!(RunResult::parse(no_failed).unwrap_err().contains(no_failed));
        let r = result(2, &[("wall_s", 1.5)]);
        assert_eq!((r.attempted, r.failed, r.value("wall_s")), (100, 2, Some(1.5)));
        assert_eq!(r.value("setup_s"), None);
    }

    #[test]
    fn the_contract_rejects_a_bad_run_length_and_malformed_json() {
        let negative = r#"{"run_seconds": -1, "workloads": [], "end_to_end": [], "per_layer": []}"#;
        assert!(Contract::parse(negative).unwrap_err().contains("not a duration"));
        assert!(Contract::parse("{\"run_seconds\": 1}").is_err());
        assert!(Contract::parse("not json").is_err());
        let per_layer_bad = r#"{"run_seconds": 0, "workloads": [], "end_to_end": [],
            "per_layer": [{"name": "p", "unit": "s", "better": "either"}]}"#;
        assert!(Contract::parse(per_layer_bad).unwrap_err().contains("p: better"));
    }

    #[test]
    fn higher_is_better_metrics_invert_wins_and_regressions() {
        let c = one_metric("rate", "higher", 0.1);
        let judge = |change: &[f64]| {
            let s = summarize(&c, "w", &single("rate", &PARENT, change));
            (s.metrics[0].wins, s.metrics[0].losses, s.metrics[0].verdict)
        };
        let lower: Vec<f64> = PARENT.iter().map(|x| x * 0.7).collect();
        assert_eq!(judge(&lower), (0, 10, Verdict::Regression));
        let higher: Vec<f64> = PARENT.iter().map(|x| x * 1.05).collect();
        assert_eq!(judge(&higher), (10, 0, Verdict::Gain));
    }

    #[test]
    fn ties_count_for_neither_side() {
        let s = summarize(&contract(), "w", &pairs(&PARENT, &PARENT));
        for m in &s.metrics {
            assert_eq!((m.wins, m.losses, m.pairs.len()), (0, 0, 10), "{}", m.decl.name);
            assert_eq!(m.verdict, Verdict::NoChange, "{}", m.decl.name);
        }
        assert!(s.to_string().contains("wins 0/10, losses 0, ties 10"), "{s}");
    }

    #[test]
    fn pairs_match_by_seed_and_skip_seeds_one_side_lacks() {
        let mut runs = pairs(&PARENT, &PARENT);
        // Drop the change's run of seed 4 and shuffle the rest.
        runs.retain(|r| !(r.side == Side::Change && r.seed == 4));
        runs.reverse();
        let s = summarize(&contract(), "w", &runs);
        let wall = &s.metrics[1];
        assert_eq!(wall.decl.name, "wall_s");
        let seeds: Vec<u64> = wall.pairs.iter().map(|p| p.0).collect();
        assert_eq!(seeds, [1, 2, 3, 5, 6, 7, 8, 9, 10]);
        assert!(wall.pairs.iter().all(|&(seed, p, c)| p == PARENT[seed as usize - 1] && p == c));
        assert_eq!(wall.verdict, Verdict::Unresolved);
    }

    #[test]
    fn a_metric_one_side_lacks_is_left_out_of_that_metric_only() {
        let mut runs = pairs(&PARENT, &PARENT);
        runs[4].result.metrics.remove("wall_s");
        let s = summarize(&contract(), "w", &runs);
        for m in &s.metrics {
            let expected = if m.decl.name == "wall_s" { 9 } else { 10 };
            assert_eq!(m.pairs.len(), expected, "{}", m.decl.name);
        }
    }

    #[test]
    fn a_regression_outranks_a_parent_spread_wider_than_the_bound() {
        let noisy = [5.0, 15.0, 6.0, 14.0, 7.0, 13.0, 8.0, 12.0, 9.0, 11.0];
        let doubled: Vec<f64> = noisy.iter().map(|x| x * 2.0).collect();
        assert_eq!(verdict(&noisy, &doubled), Verdict::Regression);
    }

    #[test]
    fn the_share_of_failed_checks_decides_not_the_count() {
        let mut runs = pairs(&PARENT, &PARENT);
        // Parent: 1 of 1000 failed. Change: 2 of 2000, the same share.
        runs[0].result.failed = 1;
        runs[1].result.failed = 2;
        runs[1].result.attempted = 1100;
        let s = summarize(&contract(), "w", &runs);
        assert_eq!((s.parent_checks, s.change_checks), ((1, 1000), (2, 2000)));
        assert!(!s.fails());
        runs[1].result.failed = 3;
        assert!(summarize(&contract(), "w", &runs).fails());
    }

    #[test]
    fn relative_handles_a_zero_base() {
        assert_eq!(relative(0.0, 0.0), 0.0);
        assert_eq!(relative(1.0, 0.0), f64::INFINITY);
        assert_eq!(relative(-1.0, 0.0), f64::NEG_INFINITY);
        assert_eq!(relative(1.0, 4.0), 0.25);
        assert_eq!(relative(1.0, -4.0), 0.25);
    }

    #[test]
    fn any_worsening_of_a_zero_parent_median_is_a_regression() {
        let c = one_metric("errors", "lower", 0.1);
        let zeros = [0.0; 10];
        let judge = |change: &[f64]| summarize(&c, "w", &single("errors", &zeros, change));
        let mut one = zeros;
        one[3] = 1.0;
        assert_eq!(judge(&one).metrics[0].verdict, Verdict::NoChange);
        assert_eq!(judge(&[1.0; 10]).metrics[0].verdict, Verdict::Regression);
        assert_eq!(judge(&zeros).metrics[0].verdict, Verdict::NoChange);
    }

    #[test]
    fn pct_shares_that_round_to_the_same_tenth_have_not_moved() {
        let runs = traced_pair(
            &[("tensor.self_pct", 40.01), ("nn.self_pct", 20.0)],
            &[("tensor.self_pct", 40.04), ("nn.self_pct", 20.1)],
        );
        let s = summarize(&contract(), "w", &runs);
        let t = s.traced.as_ref().expect("traced pair");
        let moved: Vec<&str> = t.pct_moved.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(moved, ["nn.self_pct"]);
        assert!(t.differ.is_empty());
        assert!(s.to_string().contains("  nn.self_pct: 20.0 -> 20.1"), "{s}");
    }

    #[test]
    fn a_deterministic_metric_one_side_lacks_differs() {
        let runs = traced_pair(&[("sim.cycles", 1000.0)], &[]);
        let s = summarize(&contract(), "w", &runs);
        let t = s.traced.as_ref().expect("traced pair");
        assert_eq!(
            t.differ,
            [Moved {
                name: "sim.cycles".into(),
                unit: "cycles".into(),
                parent: Some(1000.0),
                change: None
            }]
        );
        assert!(s.to_string().contains("sim.cycles (cycles): parent 1000 change -"), "{s}");
    }

    #[test]
    fn host_speed_metrics_are_neither_diffed_nor_listed() {
        let runs = traced_pair(
            &[("bench.traced_wall_ms", 100.0), ("tensor.gemm_f32_gmacs", 3.0)],
            &[("bench.traced_wall_ms", 140.0), ("tensor.gemm_f32_gmacs", 2.0)],
        );
        let t = summarize(&contract(), "w", &runs).traced.expect("traced pair");
        assert!(t.differ.is_empty() && t.pct_moved.is_empty(), "{t:?}");
    }

    #[test]
    fn without_a_traced_pair_the_summary_says_so() {
        let mut runs = traced_pair(&[("sim.cycles", 1.0)], &[("sim.cycles", 1.0)]);
        runs.pop();
        let s = summarize(&contract(), "w", &runs);
        assert!(s.traced.is_none());
        assert!(s.to_string().contains("exact diff: no traced pair ran"), "{s}");
        // Traced runs never enter the untraced pairs.
        assert!(s.metrics.iter().all(|m| m.pairs.len() == PAIRS));
    }

    #[test]
    fn the_summary_prints_every_pair_and_the_verdict() {
        let slower: Vec<f64> = PARENT.iter().map(|x| x * 1.3).collect();
        let text = summarize(&contract(), "serve_fault", &pairs(&PARENT, &slower)).to_string();
        assert!(text.starts_with("== serve_fault ==\n"), "{text}");
        assert!(text.contains("wall_s (s, lower is better, bound 25%)"), "{text}");
        assert!(text.contains("\n     9         9.92000         12.8960\n"), "{text}");
        assert!(text.contains("wins 0/10, losses 10, ties 0"), "{text}");
        assert!(text.contains("(+30.00%)"), "{text}");
        assert!(text.contains("| regression\n"), "{text}");
        assert!(text.contains("failed checks: parent 0/1000, change 0/1000"), "{text}");
    }

    #[test]
    fn verdicts_and_sides_print_their_pipeline_names() {
        let names: Vec<String> =
            [Verdict::Gain, Verdict::Regression, Verdict::Unresolved, Verdict::NoChange]
                .iter()
                .map(ToString::to_string)
                .collect();
        assert_eq!(names, ["gain", "regression", "unresolved", "no change"]);
        assert_eq!(
            (Side::Parent.to_string(), Side::Change.to_string()),
            ("parent".into(), "change".into())
        );
    }

    #[test]
    fn ledger_lines_are_json_even_with_quotes_in_their_tags() {
        let raw = "{\"correct\": true, \"attempted\": 3, \"failed\": 1, \"metrics\": {}}";
        let line = ledger_line(Side::Parent, "a\"b", false, "w\\x", 2, false, raw);
        #[derive(Deserialize)]
        struct Tagged {
            side: String,
            rev: String,
            dirty: bool,
            workload: String,
            seed: u64,
            trace: u64,
            result: RunResult,
        }
        let t: Tagged = serde_json::from_str(&line).expect(&line);
        assert_eq!((t.side.as_str(), t.rev.as_str(), t.dirty), ("parent", "a\"b", false));
        assert_eq!((t.workload.as_str(), t.seed, t.trace), ("w\\x", 2, 0));
        assert_eq!((t.result.attempted, t.result.failed), (3, 1));
    }
}
