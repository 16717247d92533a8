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
//!    replanning shows up as a bounded throughput dip, never a halt; on a
//!    4-chiplet package a whole-chiplet death rides through the same way,
//!    and the traditional profile restages onto one pipeline stage per
//!    surviving chiplet.
//!
//! The binary exits nonzero if any cell violates its contract.
//! `LTS_EFFORT=quick` trims the sweep to the three contract cells plus a
//! burst, a chiplet-death and a controller cell. Run:
//! `cargo run --release -p lts-bench --bin serving_sweep`
//!
//! Results are bit-reproducible at any `LTS_THREADS`: arrivals are
//! stateless hash draws and the serving event loop is single-threaded.

use lts_bench::effort_from_env;
use lts_core::experiment::EffortPreset;
use lts_core::serve::service_capacity_rpmc;
use lts_core::simcache::{self, SimUsage};
use lts_core::{
    chiplet_stream_fault, run_serving, ArrivalConfig, ArrivalProcess, ControllerConfig,
    ServingConfig, ServingReport, ServingStrategy, StreamFault,
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
    /// Mid-stream core or chiplet death: one recovery, bounded QPS dip,
    /// no halt, and after a chiplet death one traditional stage per
    /// surviving chiplet.
    FaultRide,
    /// SLO controller engaged: at least one strategy switch, no halt.
    Controller,
}

struct Cell {
    label: String,
    config: ServingConfig,
    contract: Contract,
}

/// `strategy` batching up to four requests on the paper's 16-core chip.
fn chip(strategy: ServingStrategy) -> ServingConfig {
    ServingConfig { strategy, max_batch: 4, ..ServingConfig::default() }
}

/// A cell driven by a Poisson stream at `load` × the saturated service
/// capacity of `config`.
fn poisson_cell(
    label: &str,
    load: f64,
    mut config: ServingConfig,
    horizon: u64,
    contract: Contract,
) -> Cell {
    let capacity = service_capacity_rpmc(&config).expect("service capacity");
    config.arrivals = ArrivalConfig {
        process: ArrivalProcess::Poisson { rate_rpmc: capacity * load },
        horizon_cycles: horizon,
        seed: 2019,
    };
    Cell { label: label.to_string(), config, contract }
}

fn cells(quick: bool, horizon: u64) -> Vec<Cell> {
    let mut cells = vec![
        poisson_cell(
            "poisson-0.4x/traditional",
            0.4,
            chip(ServingStrategy::Traditional),
            horizon,
            Contract::SubSaturation,
        ),
        poisson_cell(
            "poisson-2.0x/traditional",
            2.0,
            chip(ServingStrategy::Traditional),
            horizon,
            Contract::Overload,
        ),
        {
            let mut c = poisson_cell(
                "burst-0.3x-2.0x/ss-mask",
                0.3,
                chip(ServingStrategy::SsMask),
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
                chip(ServingStrategy::Traditional),
                horizon,
                Contract::FaultRide,
            );
            c.config.faults = vec![StreamFault { at_cycle: 1_200_000, dead_cores: vec![5] }];
            c
        },
        {
            let mut c = poisson_cell(
                "poisson-0.6x/mcm-4x4/chiplet-2@1.2M",
                0.6,
                ServingConfig { cores: 4, chiplets: 4, ..chip(ServingStrategy::Traditional) },
                horizon,
                Contract::FaultRide,
            );
            c.config.faults =
                vec![chiplet_stream_fault(&c.config, 2, 1_200_000).expect("chiplet stream fault")];
            c
        },
        {
            let mut c = poisson_cell(
                "poisson-3.0x/controller",
                3.0,
                chip(ServingStrategy::Traditional),
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
    if !quick {
        cells.push(poisson_cell(
            "poisson-0.4x/ss",
            0.4,
            chip(ServingStrategy::Ss),
            horizon,
            Contract::SubSaturation,
        ));
        cells.push(poisson_cell(
            "poisson-1.5x/structure",
            1.5,
            chip(ServingStrategy::Structure),
            horizon,
            Contract::Overload,
        ));
        cells.push(poisson_cell(
            "poisson-0.4x/mcm-2x16",
            0.4,
            ServingConfig { chiplets: 2, ..chip(ServingStrategy::Traditional) },
            horizon,
            Contract::SubSaturation,
        ));
    }
    cells
}

/// Contract violations for one cell (empty = the cell passed).
fn check(cell: &Cell, r: &ServingReport) -> Vec<String> {
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
    match cell.contract {
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
            let c = &cell.config;
            if c.chiplets > 1 {
                let dead: usize = c.faults.iter().map(|f| f.dead_cores.len()).sum();
                let survivors = c.chiplets - dead / c.cores;
                match r.strategies.iter().find(|s| s.strategy == ServingStrategy::Traditional) {
                    Some(s) if s.stages != survivors => v.push(format!(
                        "traditional profile reports {} stages on {survivors} survivor chiplets",
                        s.stages
                    )),
                    None => v.push("traditional profile missing from the degraded ladder".into()),
                    _ => {}
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
    let quick = effort_from_env() == EffortPreset::quick();
    let (effort, horizon) = if quick { ("quick", 4_000_000u64) } else { ("paper", 6_000_000) };
    println!("=== Learn-to-Scale reproduction: online serving sweep (fail-operational) ===");
    println!("(effort: {effort}, {horizon}-cycle horizon, seed 2019)");

    simcache::reset();
    let mut sim = SimUsage::default();
    let mut violations: Vec<String> = Vec::new();
    let cells = cells(quick, horizon);
    let mut rows: Vec<(String, ServingReport)> = Vec::new();
    for cell in &cells {
        let r = run_serving(&cell.config).expect("serving run");
        for problem in check(cell, &r) {
            violations.push(format!("{}: {problem}", cell.label));
        }
        sim.merge(&r.sim);
        rows.push((cell.label.clone(), r));
    }

    println!(
        "\n{:<38} {:>6} {:>6} {:>5} {:>5} {:>9} {:>9} {:>9} {:>9} {:>7} {:>4} {:>4}  outcomes",
        "cell",
        "offer",
        "serve",
        "shed",
        "miss",
        "p50",
        "p95",
        "p99",
        "budget",
        "rpmc",
        "sw",
        "rec"
    );
    for (label, r) in &rows {
        println!(
            "{:<38} {:>6} {:>6} {:>5} {:>5} {:>9} {:>9} {:>9} {:>9} {:>7.3} {:>4} {:>4}  {}",
            label,
            r.offered,
            r.served(),
            r.outcomes.shed,
            r.outcomes.deadline_miss,
            r.latency.p50,
            r.latency.p95,
            r.latency.p99,
            r.latency_budget,
            r.sustained_rpmc,
            r.controller_events.len(),
            r.recoveries.len(),
            r.outcomes.render(),
        );
    }

    let cache = simcache::stats();
    println!(
        "\nsim usage: {} transitions simulated, {} answered from cache ({} hits / {} misses); \
         {} cycles stepped, {} fast-forwarded, {} replicated",
        sim.sims,
        sim.cache_hits,
        cache.hits,
        cache.misses,
        sim.cycles_simulated,
        sim.cycles_fast_forwarded,
        sim.cycles_replicated
    );
    println!();
    println!("Each cell replays one seeded open-loop stream through the serving simulator:");
    println!("bounded-queue admission, batch coalescing under the latency budget, deadline");
    println!("shedding, and — where scheduled — mid-stream core deaths ridden out by the");
    println!("online recovery path. `rpmc` is sustained requests per million cycles; `sw`");
    println!("counts SLO-controller strategy switches, `rec` mid-stream recoveries.");
    println!("`budget` is the cell's latency budget in cycles, `outcomes` its per-request");
    println!("outcome histogram.");

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
