//! `serve_fault`: open-loop serving in simulated time. Each item runs one
//! serving cell: a fixed-rate Poisson ladder pinned to the traditional
//! strategy, a bursty stream under the SLO controller, a core death and a
//! chiplet death. Rates are absolute, so a change to the modelled service
//! time moves the metrics rather than the ladder.

use crate::harness::{Error, Workload};
use crate::metrics::{Checks, Metrics, LADDER_RPMC};
use lts_core::{
    chiplet_stream_fault, run_serving, ArrivalConfig, ArrivalProcess, ControllerConfig,
    ServingConfig, ServingReport, StreamFault, SystemReport,
};
use lts_noc::NocConfig;
use lts_partition::Plan;

/// The ladder cell whose latency percentiles are reported, and the
/// overloaded one whose goodput is.
const LATENCY_RPMC: u32 = 20;
const GOODPUT_RPMC: u32 = 55;

/// Share of offered requests a rate must serve within budget to count
/// as meeting the SLO.
const SLO_SHARE: f64 = 0.99;

/// One step of splitmix64: a bijective mix, so distinct inputs give
/// unrelated outputs.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The arrival seed of cell `cell` in a run seeded `seed`. The library
/// seeds its stream state with `seed·φ + 1` and steps it by φ, so
/// consecutive raw seeds give the same stream shifted by one arrival;
/// hashing keeps the cells' streams independent.
pub fn cell_seed(seed: u64, cell: usize) -> u64 {
    splitmix64(seed ^ cell as u64)
}

/// One serving cell and the requests its stream offers.
struct Cell {
    label: String,
    config: ServingConfig,
    offered: usize,
    faulted: bool,
}

pub struct ServeFault {
    /// The ladder cells first, one per rate, then the other cells.
    cells: Vec<Cell>,
    ladder: &'static [u32],
}

impl ServeFault {
    fn ladder_report<'a>(&self, outs: &'a [ServingReport], rate: u32) -> Option<&'a ServingReport> {
        self.ladder.iter().position(|&r| r == rate).and_then(|i| outs.get(i))
    }
}

/// Share of offered requests served within budget.
fn ok_share(r: &ServingReport) -> f64 {
    if r.offered == 0 {
        0.0
    } else {
        r.served() as f64 / r.offered as f64
    }
}

impl Workload for ServeFault {
    type Out = ServingReport;

    fn setup(seed: u64, smoke: bool) -> Result<Self, Error> {
        let horizon: u64 = if smoke { 5_000_000 } else { 50_000_000 };
        let fault_at = horizon / 5;
        let ladder: &'static [u32] = if smoke { &[LATENCY_RPMC] } else { &LADDER_RPMC };
        let base = |cell: usize, process: ArrivalProcess| ServingConfig {
            arrivals: ArrivalConfig {
                process,
                horizon_cycles: horizon,
                seed: cell_seed(seed, cell),
            },
            max_batch: 4,
            ..ServingConfig::default()
        };
        let poisson = |rate: f64| ArrivalProcess::Poisson { rate_rpmc: rate };
        let mut configs = Vec::new();
        for &rate in ladder {
            configs
                .push((format!("poisson@{rate}"), base(configs.len(), poisson(f64::from(rate)))));
        }
        let burst = ArrivalProcess::Burst {
            base_rpmc: 20.0,
            burst_rpmc: 80.0,
            mean_dwell_cycles: 2_000_000,
        };
        // Bursts overload the traditional strategy, so the controller
        // walks the ladder and back.
        configs.push((
            "burst20-80/controller".into(),
            ServingConfig {
                controller: Some(ControllerConfig::default()),
                ..base(configs.len(), burst)
            },
        ));
        configs.push((
            "poisson@30/core5-death".into(),
            ServingConfig {
                faults: vec![StreamFault { at_cycle: fault_at, dead_cores: vec![5] }],
                ..base(configs.len(), poisson(30.0))
            },
        ));
        let mut mcm = ServingConfig { chiplets: 2, ..base(configs.len(), poisson(30.0)) };
        mcm.faults = vec![chiplet_stream_fault(&mcm, 1, fault_at)?];
        configs.push(("mcm2x16@30/chiplet1-death".into(), mcm));

        let mut cells = Vec::with_capacity(configs.len());
        for (label, config) in configs {
            let offered = config.arrivals.times()?.len();
            let faulted = !config.faults.is_empty();
            cells.push(Cell { label, config, offered, faulted });
        }
        Ok(ServeFault { cells, ladder })
    }

    fn items(&self) -> usize {
        self.cells.len()
    }

    fn run_item(&mut self, i: usize) -> Result<ServingReport, Error> {
        let _span = lts_obs::span("bench.serve");
        Ok(run_serving(&self.cells[i].config)?)
    }

    fn check(&self, outs: &[ServingReport], checks: &mut Checks) {
        for (cell, r) in self.cells.iter().zip(outs) {
            let label = &cell.label;
            checks.check(r.offered == cell.offered, || {
                format!("{label}: offered {} of {}", r.offered, cell.offered)
            });
            checks.check(r.outcomes.total() == cell.offered as u64, || {
                format!("{label}: outcomes {:?} do not sum to {} offered", r.outcomes, cell.offered)
            });
            checks.check(r.halted_at.is_none(), || format!("{label}: halted at {:?}", r.halted_at));
            let recoveries = usize::from(cell.faulted);
            checks.check(r.recoveries.len() == recoveries, || {
                format!("{label}: {} recoveries", r.recoveries.len())
            });
        }
    }

    fn sim_latency_kcycles(&self, outs: &[ServingReport]) -> f64 {
        // Mean latency over every request served, in every cell.
        let (sum, n) = outs.iter().fold((0.0, 0usize), |(s, n), r| {
            (s + r.latency.mean * r.latency.completed as f64, n + r.latency.completed)
        });
        if n == 0 {
            0.0
        } else {
            sum / n as f64 / 1e3
        }
    }

    fn per_layer(&self, outs: &[ServingReport], m: &mut Metrics) {
        let mut slo_rate = 0;
        for (&rate, r) in self.ladder.iter().zip(outs) {
            m.set(format!("serve.rate_{rate}.p99_kcycles"), r.latency.p99 as f64 / 1e3);
            m.set(format!("serve.rate_{rate}.ok_share"), ok_share(r));
            // Shed and late requests count as misses; the backlog must
            // drain within one budget of the horizon.
            let drained = r.makespan_cycles.saturating_sub(r.horizon_cycles) <= r.latency_budget;
            if ok_share(r) >= SLO_SHARE && drained {
                slo_rate = slo_rate.max(rate);
            }
        }
        m.set("serve.slo_rate_rpmc", f64::from(slo_rate));
        if let Some(r) = self.ladder_report(outs, LATENCY_RPMC) {
            m.set("serve.p50_kcycles", r.latency.p50 as f64 / 1e3);
            m.set("serve.p99_kcycles", r.latency.p99 as f64 / 1e3);
        }
        if let Some(r) = self.ladder_report(outs, GOODPUT_RPMC) {
            m.set("serve.goodput_rpmc", r.sustained_rpmc);
        }
        let batches: Vec<_> = outs.iter().flat_map(|r| &r.batches).collect();
        if !batches.is_empty() {
            let requests: usize = batches.iter().map(|b| b.size).sum();
            m.set("serve.batch_size_mean", requests as f64 / batches.len() as f64);
        }
        // Blocked flit-cycles per cycle of the worst burst: the mean count
        // of blocked flits, which can exceed one.
        m.set("serve.noc_saturation", outs.iter().map(|r| r.noc_saturation).fold(0.0, f64::max));
        m.set(
            "serve.controller_switches",
            outs.iter().map(|r| r.controller_events.len() as f64).sum(),
        );
        let recoveries = outs.iter().flat_map(|r| &r.recoveries);
        let (detection, overhead) = recoveries
            .fold((0, 0), |(d, o), rec| (d + rec.detection_cycles, o + rec.overhead_cycles));
        m.set("serve.detection_kcycles", detection as f64 / 1e3);
        m.set("serve.recovery_overhead_kcycles", overhead as f64 / 1e3);
    }

    fn plans<'a>(
        &'a self,
        _outs: &'a [ServingReport],
    ) -> Vec<(NocConfig, &'a Plan, &'a SystemReport)> {
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Inter-arrival gaps of a 20 rpmc Poisson stream.
    fn gaps(seed: u64) -> Vec<u64> {
        let arrivals = ArrivalConfig {
            process: ArrivalProcess::Poisson { rate_rpmc: 20.0 },
            horizon_cycles: 20_000_000,
            seed,
        };
        let times = arrivals.times().expect("valid stream");
        std::iter::once(0).chain(times.iter().copied()).zip(&times).map(|(a, b)| b - a).collect()
    }

    /// The largest share of positions at which `b` repeats `a`'s gaps,
    /// over alignments shifting either stream by up to 16 arrivals.
    fn shared_share(a: &[u64], b: &[u64]) -> f64 {
        let aligned = |x: &[u64], y: &[u64]| {
            let n = x.len().min(y.len());
            x.iter().zip(y).filter(|(p, q)| p == q).count() as f64 / n as f64
        };
        (0..=16).map(|k| aligned(&a[k..], b).max(aligned(a, &b[k..]))).fold(0.0, f64::max)
    }

    #[test]
    fn raw_consecutive_seeds_give_one_stream_shifted_by_an_arrival() {
        // The hazard the hashing removes.
        let (one, two) = (gaps(1), gaps(2));
        assert_eq!(&one[1..one.len().min(two.len() + 1)], &two[..one.len() - 1]);
    }

    #[test]
    fn derived_cell_streams_share_under_five_percent_of_arrivals() {
        for seed in [0, 1, 2, 41] {
            let streams: Vec<Vec<u64>> = (0..11).map(|cell| gaps(cell_seed(seed, cell))).collect();
            for (i, a) in streams.iter().enumerate() {
                for b in &streams[i + 1..] {
                    assert!(shared_share(a, b) < 0.05, "seed {seed}: {}", shared_share(a, b));
                }
            }
            let next_run = gaps(cell_seed(seed + 1, 0));
            assert!(shared_share(&streams[0], &next_run) < 0.05);
        }
    }
}
