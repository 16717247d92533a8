//! Runs the **online-serving sweep** (fail-operational serving
//! extension): seeded open-loop request streams against the serving
//! simulator across load regimes, strategies, and fault schedules, and
//! asserts the three-regime contract:
//!
//! 1. a sub-saturation stream with no faults is served completely —
//!    zero sheds, zero deadline misses, p99 within the latency budget;
//! 2. a 2× overload stream sheds at admission, but every request it
//!    *does* serve still lands within the budget;
//! 3. a mid-stream core death degrades gracefully — detection plus
//!    replanning shows up as a bounded throughput dip, never a halt.
//!
//! The binary exits nonzero if any cell violates its contract. Timings
//! are recorded per cell and written to `BENCH_serving.json` (into
//! `LTS_BENCH_DIR`). `LTS_EFFORT=quick` trims the sweep to the three
//! contract cells plus a burst and a controller cell. Run:
//! `cargo run --release -p lts-bench --bin serving_sweep`
//!
//! Results are bit-reproducible at any `LTS_THREADS`: arrivals are
//! stateless hash draws and the serving event loop is single-threaded.

use lts_bench::timing::{self, BenchReport};
use lts_core::serve::service_capacity_rpmc;
use lts_core::simcache::{self, SimUsage};
use lts_core::{
    run_serving, ArrivalConfig, ArrivalProcess, ControllerConfig, ServingConfig, ServingReport,
    ServingStrategy, StreamFault,
};

/// Which regime contract a cell must satisfy.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Contract {
    /// Zero sheds, zero misses, p99 within budget.
    SubSaturation,
    /// Sheds at admission, but every served request within budget.
    Overload,
    /// Bursty arrivals: everything accounted for, stream keeps serving.
    Burst,
    /// Mid-stream core death: one recovery, bounded QPS dip, no halt.
    FaultRide,
    /// SLO controller engaged: at least one strategy switch, no halt.
    Controller,
}

struct Cell {
    label: String,
    config: ServingConfig,
    contract: Contract,
}

/// A cell driven by a Poisson stream at `load` × the strategy's
/// saturated service capacity.
fn poisson_cell(
    label: &str,
    load: f64,
    strategy: ServingStrategy,
    horizon: u64,
    contract: Contract,
) -> Cell {
    let mut config = ServingConfig { strategy, max_batch: 4, ..ServingConfig::default() };
    let capacity = service_capacity_rpmc(&config).expect("service capacity");
    config.arrivals = ArrivalConfig {
        process: ArrivalProcess::Poisson { rate_rpmc: capacity * load },
        horizon_cycles: horizon,
        seed: 2019,
    };
    Cell { label: label.to_string(), config, contract }
}

fn cells(effort: &str, horizon: u64) -> Vec<Cell> {
    let mut cells = vec![
        poisson_cell(
            "poisson-0.4x/traditional",
            0.4,
            ServingStrategy::Traditional,
            horizon,
            Contract::SubSaturation,
        ),
        poisson_cell(
            "poisson-2.0x/traditional",
            2.0,
            ServingStrategy::Traditional,
            horizon,
            Contract::Overload,
        ),
        {
            let mut c = poisson_cell(
                "burst-0.3x-2.0x/ss-mask",
                0.3,
                ServingStrategy::SsMask,
                horizon,
                Contract::Burst,
            );
            let base = match c.config.arrivals.process {
                ArrivalProcess::Poisson { rate_rpmc } => rate_rpmc,
                ArrivalProcess::Burst { base_rpmc, .. } => base_rpmc,
            };
            c.config.arrivals.process = ArrivalProcess::Burst {
                base_rpmc: base,
                burst_rpmc: base * (2.0 / 0.3),
                mean_dwell_cycles: 200_000,
            };
            c
        },
        {
            let mut c = poisson_cell(
                "poisson-0.6x/traditional/core-death@1.2M",
                0.6,
                ServingStrategy::Traditional,
                horizon,
                Contract::FaultRide,
            );
            c.config.faults = vec![StreamFault { at_cycle: 1_200_000, dead_cores: vec![5] }];
            c
        },
        {
            let mut c = poisson_cell(
                "poisson-3.0x/controller",
                3.0,
                ServingStrategy::Traditional,
                horizon,
                Contract::Controller,
            );
            c.config.controller = Some(ControllerConfig {
                high_queue: 4,
                patience: 1,
                ..ControllerConfig::default()
            });
            c
        },
    ];
    if effort == "paper" {
        cells.push(poisson_cell(
            "poisson-0.4x/ss",
            0.4,
            ServingStrategy::Ss,
            horizon,
            Contract::SubSaturation,
        ));
        cells.push(poisson_cell(
            "poisson-1.5x/structure",
            1.5,
            ServingStrategy::Structure,
            horizon,
            Contract::Overload,
        ));
        cells.push({
            let mut c =
                ServingConfig { cores: 16, chiplets: 2, max_batch: 4, ..ServingConfig::default() };
            let capacity = service_capacity_rpmc(&c).expect("mcm capacity");
            c.arrivals = ArrivalConfig {
                process: ArrivalProcess::Poisson { rate_rpmc: capacity * 0.4 },
                horizon_cycles: horizon,
                seed: 2019,
            };
            Cell {
                label: "poisson-0.4x/mcm-2x16".into(),
                config: c,
                contract: Contract::SubSaturation,
            }
        });
    }
    cells
}

/// Contract violations for one cell (empty = the cell passed).
fn check(contract: Contract, r: &ServingReport) -> Vec<String> {
    let mut v = Vec::new();
    if r.outcomes.total() as usize != r.offered {
        v.push(format!("{} outcomes for {} offered requests", r.outcomes.total(), r.offered));
    }
    if r.halted_at.is_some() {
        v.push(format!("stream halted at {:?}", r.halted_at));
    }
    if r.served() == 0 {
        v.push("no request was served".into());
    }
    match contract {
        Contract::SubSaturation => {
            if r.outcomes.shed > 0 {
                v.push(format!("{} sheds below saturation", r.outcomes.shed));
            }
            if r.outcomes.deadline_miss > 0 {
                v.push(format!("{} deadline misses below saturation", r.outcomes.deadline_miss));
            }
            if r.latency.p99 > r.latency_budget {
                v.push(format!("p99 {} over budget {}", r.latency.p99, r.latency_budget));
            }
        }
        Contract::Overload => {
            if r.outcomes.shed == 0 {
                v.push("2x overload shed nothing — admission control is not engaging".into());
            }
            if r.latency.p99 > r.latency_budget {
                v.push(format!("served p99 {} over budget {}", r.latency.p99, r.latency_budget));
            }
        }
        Contract::Burst => {} // the common checks above are the contract
        Contract::FaultRide => {
            if r.recoveries.len() != 1 {
                v.push(format!("{} recoveries for one scheduled fault", r.recoveries.len()));
            }
            if r.phases.len() < 2 {
                v.push(format!("{} phases — the fault never split the timeline", r.phases.len()));
            }
            if let (Some(pre), Some(post)) = (r.phases.first(), r.phases.last()) {
                if post.served == 0 {
                    v.push("post-fault phase served nothing".into());
                }
                if post.sustained_rpmc <= 0.0 || post.sustained_rpmc < pre.sustained_rpmc * 0.2 {
                    v.push(format!(
                        "post-fault throughput {:.3} rpmc collapsed vs pre-fault {:.3}",
                        post.sustained_rpmc, pre.sustained_rpmc
                    ));
                }
            }
        }
        Contract::Controller => {
            if r.controller_events.is_empty() {
                v.push("3x overload triggered no strategy switch".into());
            }
        }
    }
    v
}

fn main() {
    lts_obs::enable_from_env();
    let effort = std::env::var("LTS_EFFORT").unwrap_or_else(|_| "paper".into());
    let horizon = match effort.as_str() {
        "quick" => 4_000_000u64,
        "paper" => 6_000_000,
        other => panic!("LTS_EFFORT must be `quick` or `paper`, got `{other}`"),
    };
    let iters = timing::iters_from_env(2);
    println!("=== Learn-to-Scale reproduction: online serving sweep (fail-operational) ===");
    println!("(effort: {effort}, {horizon}-cycle horizon, seed 2019, {iters} timed iters/cell)\n");

    simcache::reset();
    let mut report = BenchReport::new("serving", &effort);
    let mut sim = SimUsage::default();
    let mut violations: Vec<String> = Vec::new();
    let cells = cells(&effort, horizon);
    let mut rows: Vec<(String, ServingReport)> = Vec::new();
    for cell in &cells {
        let mut last: Option<ServingReport> = None;
        let record = timing::time(&cell.label, 1, iters, || {
            last = Some(run_serving(&cell.config).expect("serving run"));
        });
        report.push(record);
        let r = last.expect("timed at least once");
        for problem in check(cell.contract, &r) {
            violations.push(format!("{}: {problem}", cell.label));
        }
        sim.merge(&r.sim);
        rows.push((cell.label.clone(), r));
    }

    println!(
        "\n{:<38} {:>6} {:>6} {:>5} {:>5} {:>9} {:>9} {:>9} {:>7} {:>4} {:>4}",
        "cell", "offer", "serve", "shed", "miss", "p50", "p95", "p99", "rpmc", "sw", "rec"
    );
    for (label, r) in &rows {
        println!(
            "{:<38} {:>6} {:>6} {:>5} {:>5} {:>9} {:>9} {:>9} {:>7.3} {:>4} {:>4}",
            label,
            r.offered,
            r.served(),
            r.outcomes.shed,
            r.outcomes.deadline_miss,
            r.latency.p50,
            r.latency.p95,
            r.latency.p99,
            r.sustained_rpmc,
            r.controller_events.len(),
            r.recoveries.len(),
        );
        report.notes.push(format!(
            "{label}: offered {} outcomes[{}] p99 {} budget {} sustained {:.3} rpmc",
            r.offered,
            r.outcomes.render(),
            r.latency.p99,
            r.latency_budget,
            r.sustained_rpmc
        ));
    }

    let cache = simcache::stats();
    println!(
        "\nsim usage: {} transitions simulated, {} answered from cache ({} hits / {} misses); \
         {} cycles stepped, {} fast-forwarded",
        sim.sims,
        sim.cache_hits,
        cache.hits,
        cache.misses,
        sim.cycles_simulated,
        sim.cycles_fast_forwarded
    );
    println!();
    println!("Each cell replays one seeded open-loop stream through the serving simulator:");
    println!("bounded-queue admission, batch coalescing under the latency budget, deadline");
    println!("shedding, and — where scheduled — mid-stream core deaths ridden out by the");
    println!("online recovery path. `rpmc` is sustained requests per million cycles; `sw`");
    println!("counts SLO-controller strategy switches, `rec` mid-stream recoveries.");

    report.attach_probes();
    report.write().expect("write serving bench report");

    if !violations.is_empty() {
        for v in &violations {
            eprintln!("VIOLATION {v}");
        }
        eprintln!(
            "serving sweep: {} cell(s) violated the fail-operational contract",
            violations.len()
        );
        std::process::exit(1);
    }
    println!("\nall {} cells satisfied their regime contracts", rows.len());
}
