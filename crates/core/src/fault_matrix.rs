//! The fault matrix: one cell type, one runner and one row for every
//! inference-fault experiment of the fail-operational extension.
//!
//! A [`Cell`] is one rung of the [`workloads`] ladder on one package
//! shape (`chiplets` × `cores` per chiplet; one chiplet is the mesh)
//! under one [`Fault`]: domains dead before the run plus flit drops
//! ([`Fault::Static`], the oracle static replan), mid-flight deaths
//! through [`run_with_recovery`] ([`Fault::Schedule`]), or an interposer
//! seam severed under the healthy stage plan ([`Fault::Seam`]). The
//! failure domain follows from the shape: cores on a chip, chiplets on a
//! package. [`run`] evaluates cells into [`Row`]s, each with a
//! [`RecoveryReport`] (static and seam cells fill one with no events), so
//! every ratio comes from that report's methods; a fault set that
//! defeats the protocol is a typed outcome ([`Outcome::from_failure`]).
//!
//! Three named slices ([`Slice`]), each at quick and paper effort, make
//! up the matrix, and each slice's contract is a predicate over its rows
//! ([`Slice::violations`]):
//!
//! * **degradation** — drop rate × static dead set on the 16-core mesh;
//!   a zero-fault row reads exactly 1.0 against the fault-free run;
//! * **chaos** — randomized mid-flight core deaths on the mesh; on
//!   packages, chiplet deaths alternating with seam severings; every row
//!   ends with a bounded output loss or a typed outcome its fault class
//!   allows;
//! * **chiplet-loss** — one whole chiplet dies before the middle layer;
//!   detection fires once, the pipeline restages onto the survivor
//!   chiplets, and no output is silently lost.
//!
//! Rows are deterministic in their cells and independent of the
//! execution engine's worker count: the NoC simulator is single-threaded
//! and schedules are stateless hash draws.

use crate::degradation::{workloads, Workload};
use crate::outcome::Outcome;
use crate::recovery::{run_with_recovery, static_replan, InferenceFault, RecoveryReport};
use crate::system::{SystemModel, SystemReport};
use crate::{CoreError, Result};
use lts_noc::{FaultModel, MonitorConfig, NocConfig, Topo};
use lts_partition::FailureDomain;
use lts_tensor::par;

/// Cores of the paper's chip: the degradation and chaos slices run on it
/// (per chiplet, on packages).
const CHIP: usize = 16;

/// What goes wrong in one cell. Domain ids are cores on a chip and
/// chiplets on a package.
#[derive(Debug, Clone, PartialEq)]
pub enum Fault {
    /// Domains dead before the run starts, and a transient flit-drop
    /// probability on the surviving links, drawn from `seed`.
    Static {
        /// Dead domain ids.
        dead: Vec<usize>,
        /// Per-link flit-drop probability.
        drop_rate: f64,
        /// Fault-schedule seed of the drops.
        seed: u64,
    },
    /// Mid-flight deaths, sorted by layer, recovered online.
    Schedule(Vec<InferenceFault>),
    /// The interposer seam between two grid-adjacent chiplets severed.
    Seam(usize, usize),
}

/// One cell of the fault matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    /// Index into the [`workloads`] ladder.
    pub rung: usize,
    /// Chiplets of the package (`1` = the single-chip mesh).
    pub chiplets: usize,
    /// Cores per chiplet.
    pub cores: usize,
    /// The perturbation.
    pub fault: Fault,
}

impl Cell {
    /// `static`, `cores` (mid-flight core deaths), `chiplet` (mid-flight
    /// chiplet deaths) or `seam`.
    pub fn class(&self) -> &'static str {
        match self.fault {
            Fault::Static { .. } => "static",
            Fault::Schedule(_) if self.chiplets > 1 => "chiplet",
            Fault::Schedule(_) => "cores",
            Fault::Seam(..) => "seam",
        }
    }

    /// The fault in one short phrase: `dead [5] drop 1e-3`, `L4-[5, 10]
    /// L7-[3]` (layer boundary and domains per death) or `seam 0~1`.
    pub fn describe(&self) -> String {
        match &self.fault {
            Fault::Static { dead, drop_rate, .. } if *drop_rate == 0.0 => format!("dead {dead:?}"),
            Fault::Static { dead, drop_rate, .. } => format!("dead {dead:?} drop {drop_rate:.0e}"),
            Fault::Schedule(faults) => {
                let events: Vec<String> =
                    faults.iter().map(|f| format!("L{}-{:?}", f.layer, f.dead)).collect();
                events.join(" ")
            }
            Fault::Seam(a, b) => format!("seam {a}~{b}"),
        }
    }
}

/// One evaluated cell.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// The cell.
    pub cell: Cell,
    /// Strategy label of the rung.
    pub strategy: &'static str,
    /// Network name of the rung.
    pub network: &'static str,
    /// [`Outcome::Served`] for static and seam cells that ran,
    /// [`Outcome::Recovered`] for schedules that did, otherwise the typed
    /// failure.
    pub outcome: Outcome,
    /// The run next to its fault-free baseline; `None` when the cell
    /// failed.
    pub recovery: Option<RecoveryReport>,
}

impl Row {
    /// `<chiplets>x<cores>/<strategy>/<fault>`.
    pub fn label(&self) -> String {
        let c = &self.cell;
        format!("{}x{}/{}/{}", c.chiplets, c.cores, self.strategy, c.describe())
    }

    /// Worst output loss of the run (`0.0` when the cell failed).
    pub fn lost_fraction(&self) -> f64 {
        self.recovery.as_ref().map_or(0.0, RecoveryReport::lost_fraction)
    }
}

/// One step of the splitmix64 stream the chaos schedules are drawn from
/// (shared with the serving simulator's arrival processes).
pub(crate) fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Evaluates `cells` into rows, in order.
///
/// Each run of consecutive cells on one package shape shares that
/// shape's ladder, and each rung builds its model and fault-free run
/// once. The rungs fan out on the execution engine and the shapes run
/// one after another. Rows do not depend on the worker count, only their
/// simulated-vs-cached split does: rungs share transitions (the dense
/// first layers), and whichever runs first simulates them.
///
/// # Errors
///
/// [`CoreError::BadConfig`] for a rung off the ladder or a seam that is
/// not one; plan and simulation errors other than the typed
/// fail-operational outcomes.
pub fn run(cells: &[Cell]) -> Result<Vec<Row>> {
    let mut rows = Vec::with_capacity(cells.len());
    for shape in cells.chunk_by(|a, b| (a.chiplets, a.cores) == (b.chiplets, b.cores)) {
        let ladder = workloads(shape[0].cores)?;
        if let Some(c) = shape.iter().find(|c| c.rung >= ladder.len()) {
            return Err(CoreError::BadConfig(format!("rung {} is off the ladder", c.rung)));
        }
        let mut per_rung = par::par_map(&ladder, |rung, w| {
            let cells: Vec<&Cell> = shape.iter().filter(|c| c.rung == rung).collect();
            if cells.is_empty() {
                return Ok(Vec::new());
            }
            run_rung(w, &cells)
        })
        .into_iter()
        .map(|rows| rows.map(Vec::into_iter))
        .collect::<Result<Vec<_>>>()?;
        rows.extend(shape.iter().filter_map(|c| per_rung[c.rung].next()));
    }
    Ok(rows)
}

/// Runs the cells of one rung, all on one package shape.
fn run_rung(w: &Workload, cells: &[&Cell]) -> Result<Vec<Row>> {
    let (chiplets, cores) = (cells[0].chiplets, cells[0].cores);
    let model = if chiplets == 1 {
        SystemModel::paper(cores)?
    } else {
        SystemModel::paper_mcm(chiplets, cores)?
    };
    let domain = match model.noc_config().topo() {
        Topo::Mcm(topo) => FailureDomain::Chiplets(topo),
        Topo::Mesh(_) => FailureDomain::Cores(model.cores()),
    };
    let healthy = domain.replan(&w.spec, None, 0, &[], &w.weights, 2)?;
    let fault_free = model.evaluate(&healthy.tail)?;
    // A run without mid-flight events, next to the fault-free baseline.
    let served = |report: SystemReport, dead_cores: Vec<usize>, lost_output_fraction: f64| {
        let recovery = RecoveryReport {
            report,
            fault_free: fault_free.clone(),
            oracle: None,
            events: Vec::new(),
            dead_cores,
            lost_output_fraction,
            lost_boundary_fraction: 0.0,
        };
        (Outcome::Served, recovery)
    };
    let mut rows = Vec::with_capacity(cells.len());
    for &cell in cells {
        let run = match &cell.fault {
            Fault::Static { dead, drop_rate, seed } => {
                let (replan, report) =
                    static_replan(&model, &domain, &w.spec, &w.weights, dead, |f| {
                        f.with_seed(*seed).drop_rate(*drop_rate)
                    })?;
                report
                    .map(|r| served(r, domain.members(&replan.dead), replan.lost_output_fraction()))
            }
            Fault::Schedule(faults) => {
                let monitor = MonitorConfig::default();
                run_with_recovery(&model, &domain, &w.spec, &w.weights, faults, &monitor)
                    .map(|r| (Outcome::Recovered, r))
            }
            Fault::Seam(a, b) => {
                let FailureDomain::Chiplets(topo) = &domain else {
                    return Err(CoreError::BadConfig("a seam fault needs a package".into()));
                };
                domain.validate(&[*a, *b])?;
                if topo.seam_links(*a, *b).is_empty() {
                    return Err(CoreError::BadConfig(format!(
                        "chiplets {a} and {b} share no seam"
                    )));
                }
                let severed = FaultModel::none().kill_seam(topo, *a, *b);
                model
                    .clone()
                    .with_fault_model(severed)
                    .evaluate(&healthy.tail)
                    .map(|r| served(r, Vec::new(), 0.0))
            }
        };
        let (outcome, recovery) = match run {
            Ok((outcome, r)) => (outcome, Some(r)),
            Err(e) => (Outcome::from_failure(e)?, None),
        };
        rows.push(Row {
            cell: cell.clone(),
            strategy: w.strategy,
            network: w.network,
            outcome,
            recovery,
        });
    }
    Ok(rows)
}

/// A named slice of the fault matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Slice {
    /// Drop rate × static dead set on the 16-core mesh.
    Degradation,
    /// Randomized mid-flight faults on the mesh and on packages.
    Chaos,
    /// One whole chiplet dies mid-network, per package shape and victim.
    ChipletLoss,
}

impl Slice {
    /// Every slice, in matrix order.
    pub const ALL: [Slice; 3] = [Slice::Degradation, Slice::Chaos, Slice::ChipletLoss];

    /// Stable lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            Slice::Degradation => "degradation",
            Slice::Chaos => "chaos",
            Slice::ChipletLoss => "chiplet-loss",
        }
    }

    /// The slice's cells at quick or paper effort, grouped by package
    /// shape, then rung. `seed` seeds the flit drops and the chaos
    /// schedules.
    ///
    /// # Errors
    ///
    /// Propagates ladder and package construction failures.
    pub fn cells(self, quick: bool, seed: u64) -> Result<Vec<Cell>> {
        let mut cells = Vec::new();
        match self {
            Slice::Degradation => {
                let (rates, dead_sets): (&[f64], &[&[usize]]) = if quick {
                    (&[0.0, 1e-3], &[&[], &[5]])
                } else {
                    (&[0.0, 1e-4, 1e-3], &[&[], &[5], &[5, 6, 10]])
                };
                for rung in 0..rung_layers(CHIP)?.len() {
                    for &drop_rate in rates {
                        for dead in dead_sets {
                            let fault = Fault::Static { dead: dead.to_vec(), drop_rate, seed };
                            cells.push(Cell { rung, chiplets: 1, cores: CHIP, fault });
                        }
                    }
                }
            }
            Slice::Chaos => {
                let (trials, max_faults, packages): (usize, usize, &[usize]) =
                    if quick { (2, 1, &[1, 2]) } else { (8, 2, &[1, 2, 4]) };
                let layers = rung_layers(CHIP)?;
                for &chiplets in packages {
                    for (rung, &n) in layers.iter().enumerate() {
                        for trial in 0..trials {
                            let fault = chaos_fault(seed, chiplets, rung, trial, n, max_faults)?;
                            cells.push(Cell { rung, chiplets, cores: CHIP, fault });
                        }
                    }
                }
            }
            Slice::ChipletLoss => {
                let grid: &[(usize, usize, &[usize])] =
                    if quick { &[(2, 8, &[1])] } else { &[(2, 8, &[1]), (4, 4, &[1, 2, 3])] };
                for &(chiplets, cores, victims) in grid {
                    for (rung, n) in rung_layers(cores)?.into_iter().enumerate() {
                        for &victim in victims {
                            // Strike mid-network: some stages complete,
                            // some must restage.
                            let death = InferenceFault { layer: n / 2, dead: vec![victim] };
                            let fault = Fault::Schedule(vec![death]);
                            cells.push(Cell { rung, chiplets, cores, fault });
                        }
                    }
                }
            }
        }
        Ok(cells)
    }

    /// Contract violations over the slice's rows, each prefixed by the
    /// row's label (empty = the slice passed).
    pub fn violations(self, rows: &[Row]) -> Vec<String> {
        let mut out = Vec::new();
        for row in rows {
            let problems = match self {
                Slice::Degradation => degradation_violations(row),
                Slice::Chaos => chaos_violations(row),
                Slice::ChipletLoss => chiplet_loss_violations(row),
            };
            out.extend(problems.into_iter().map(|p| format!("{}: {p}", row.label())));
        }
        out
    }
}

/// Layer count of every rung of the `cores`-core ladder.
fn rung_layers(cores: usize) -> Result<Vec<usize>> {
    Ok(workloads(cores)?.iter().map(|w| w.spec.layers.len()).collect())
}

/// The chaos fault of one trial on `chiplets` paper chips. On the mesh:
/// a randomized schedule of mid-flight core deaths, one or two cores
/// each. On a package: even trials kill one whole chiplet mid-flight,
/// odd trials sever one interposer seam.
fn chaos_fault(
    seed: u64,
    chiplets: usize,
    rung: usize,
    trial: usize,
    layers: usize,
    max_faults: usize,
) -> Result<Fault> {
    let package = if chiplets == 1 { 0 } else { (chiplets as u64) << 48 };
    let mut state = seed
        .wrapping_mul(0x2545_f491_4f6c_dd1d)
        .wrapping_add(package)
        .wrapping_add((rung as u64) << 32)
        .wrapping_add(trial as u64 + 1);
    if chiplets == 1 {
        return Ok(Fault::Schedule(draw_schedule(&mut state, layers, CHIP, max_faults, 2)));
    }
    let span = layers.saturating_sub(1).max(1);
    let layer = 1 + (splitmix(&mut state) as usize) % span;
    if trial.is_multiple_of(2) {
        let victim = (splitmix(&mut state) as usize) % chiplets;
        return Ok(Fault::Schedule(vec![InferenceFault { layer, dead: vec![victim] }]));
    }
    let Topo::Mcm(topo) = NocConfig::paper_mcm(chiplets, CHIP)?.topo() else {
        return Err(CoreError::BadConfig("paper_mcm produced a single-chip mesh topology".into()));
    };
    // Consecutive serpentine chiplets are grid-adjacent, so the pair
    // always shares a physical interposer seam.
    let order = topo.serpentine_chiplets();
    let i = (splitmix(&mut state) as usize) % (order.len() - 1);
    Ok(Fault::Seam(order[i], order[i + 1]))
}

/// Draws a mid-flight schedule of core deaths on a `cores`-core chip:
/// at most `max_faults` events at sorted distinct layer boundaries, each
/// killing at most `max_dead` distinct cores, and never enough deaths to
/// leave fewer than two survivors.
fn draw_schedule(
    state: &mut u64,
    layers: usize,
    cores: usize,
    max_faults: usize,
    max_dead: usize,
) -> Vec<InferenceFault> {
    let events = 1 + (splitmix(state) as usize) % max_faults;
    // Boundaries 1..=layers-1: strictly mid-flight (some work done, some
    // remaining). Distinct, then sorted.
    let mut boundaries: Vec<usize> = Vec::new();
    let span = layers.saturating_sub(1).max(1);
    while boundaries.len() < events.min(span) {
        let b = 1 + (splitmix(state) as usize) % span;
        if !boundaries.contains(&b) {
            boundaries.push(b);
        }
    }
    boundaries.sort_unstable();
    // Kill budget: always leave at least two survivors.
    let mut budget = cores.saturating_sub(2);
    let mut all_dead: Vec<usize> = Vec::new();
    let mut faults = Vec::new();
    for layer in boundaries {
        if budget == 0 {
            break;
        }
        let kills = (1 + (splitmix(state) as usize) % max_dead).min(budget);
        let mut dead = Vec::with_capacity(kills);
        while dead.len() < kills {
            let c = (splitmix(state) as usize) % cores;
            if !dead.contains(&c) && !all_dead.contains(&c) {
                dead.push(c);
            }
        }
        dead.sort_unstable();
        budget -= dead.len();
        all_dead.extend_from_slice(&dead);
        faults.push(InferenceFault { layer, dead });
    }
    faults
}

/// A zero-fault static row must read exactly 1.0 against the fault-free
/// run: the fault machinery costs nothing when no fault is configured.
fn degradation_violations(row: &Row) -> Vec<String> {
    let Fault::Static { dead, drop_rate, .. } = &row.cell.fault else {
        return vec!["a degradation cell must be static".into()];
    };
    if !dead.is_empty() || *drop_rate != 0.0 {
        return Vec::new();
    }
    match &row.recovery {
        Some(r) if r.overhead_vs_fault_free() == 1.0 && r.energy_vs_fault_free() == 1.0 => {
            Vec::new()
        }
        Some(r) => vec![format!(
            "zero-fault run reads {}x latency and {}x energy of the fault-free run",
            r.overhead_vs_fault_free(),
            r.energy_vs_fault_free()
        )],
        None => vec![format!("zero-fault run ended {}", row.outcome)],
    }
}

/// Bounded output loss, and an outcome the fault class allows: a seam
/// severing rides through (`served`), a death recovers, and either may
/// fail typed.
fn chaos_violations(row: &Row) -> Vec<String> {
    let mut v = Vec::new();
    let lost = row.lost_fraction();
    if !(0.0..=1.0).contains(&lost) {
        v.push(format!("lost fraction {lost} out of [0, 1]"));
    }
    let success = if row.cell.class() == "seam" { Outcome::Served } else { Outcome::Recovered };
    if ![success, Outcome::Unreachable, Outcome::CycleLimit].contains(&row.outcome) {
        v.push(format!("outcome {} for a {} fault", row.outcome, row.cell.class()));
    }
    v
}

/// The chiplet-loss contract: one detected recovery event whose dead set
/// is the whole chiplet, restaged onto the survivors at an overhead of
/// at least 1×, with no pinned output lost (package replans regenerate
/// layouts) and a bounded boundary loss.
fn chiplet_loss_violations(row: &Row) -> Vec<String> {
    let Some(r) = &row.recovery else {
        return vec![format!("chiplet recovery ended {}", row.outcome)];
    };
    let [e] = &r.events[..] else {
        return vec![format!("{} recovery events for one chiplet death", r.events.len())];
    };
    let (chiplets, cores) = (row.cell.chiplets, row.cell.cores);
    let overhead = r.overhead_vs_fault_free();
    let checks = [
        (
            e.dead_cores.len() == cores,
            format!("{} dead cores, not one chiplet", e.dead_cores.len()),
        ),
        (e.survivors == (chiplets - 1) * cores, format!("{} survivor cores", e.survivors)),
        (e.detection_cycles > 0, "chiplet death went undetected".into()),
        (overhead.is_finite() && overhead >= 1.0, format!("recovery overhead {overhead:.3}x")),
        (r.lost_output_fraction == 0.0, format!("lost output {}", r.lost_output_fraction)),
        (
            (0.0..=1.0).contains(&r.lost_boundary_fraction),
            format!("lost boundary fraction {} out of bounds", r.lost_boundary_fraction),
        ),
    ];
    checks.into_iter().filter(|(ok, _)| !ok).map(|(_, problem)| problem).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lts_partition::Plan;

    fn rows(slice: Slice) -> Vec<Row> {
        run(&slice.cells(true, 7).unwrap()).unwrap()
    }

    /// The row of `strategy`'s static cell at drop rate `rate` with no
    /// dead core.
    fn healthy<'a>(rows: &'a [Row], strategy: &str, rate: f64) -> &'a Row {
        rows.iter()
            .find(|r| {
                r.strategy == strategy
                    && r.cell.fault == Fault::Static { dead: Vec::new(), drop_rate: rate, seed: 7 }
            })
            .unwrap()
    }

    #[test]
    fn degradation_slice_covers_every_rung_and_cell() {
        let rows = rows(Slice::Degradation);
        assert_eq!(rows.len(), 3 * 4);
        for strategy in ["traditional", "structure", "sparsified"] {
            assert_eq!(rows.iter().filter(|r| r.strategy == strategy).count(), 4);
        }
        assert!(rows.iter().all(|r| r.outcome == Outcome::Served && r.cell.class() == "static"));
        assert!(Slice::Degradation.violations(&rows).is_empty());
    }

    #[test]
    fn zero_fault_static_rows_match_the_fault_free_run_exactly() {
        let rows = rows(Slice::Degradation);
        for w in workloads(16).unwrap() {
            let fault_free = SystemModel::paper(16)
                .unwrap()
                .evaluate(&Plan::build(&w.spec, 16, &w.weights, 2).unwrap())
                .unwrap();
            let r = healthy(&rows, w.strategy, 0.0).recovery.as_ref().unwrap();
            assert_eq!(r.report.total_cycles, fault_free.total_cycles, "strategy {}", w.strategy);
            assert_eq!(r.report.traffic_bytes, fault_free.traffic_bytes);
            assert_eq!(r.overhead_vs_fault_free(), 1.0);
            assert_eq!(r.energy_vs_fault_free(), 1.0);
            assert!(!r.report.faults.any());
        }
    }

    #[test]
    fn transient_faults_fire_and_cost_latency() {
        let rows = rows(Slice::Degradation);
        let r = healthy(&rows, "traditional", 1e-3).recovery.as_ref().unwrap();
        assert!(r.report.faults.packets_retransmitted > 0, "1e-3 must fire on the ConvNet trace");
        assert!(r.overhead_vs_fault_free() > 1.0);
    }

    #[test]
    fn only_grouped_plans_lose_accuracy_to_core_death() {
        for r in rows(Slice::Degradation) {
            let rec = r.recovery.as_ref().unwrap();
            if rec.dead_cores.is_empty() {
                assert_eq!(r.lost_fraction(), 0.0);
                continue;
            }
            match r.strategy {
                "structure" => {
                    assert!(r.lost_fraction() > 0.0, "dead core must take its groups' outputs")
                }
                _ => assert_eq!(r.lost_fraction(), 0.0, "re-sharding preserves accuracy"),
            }
            assert_eq!(rec.dead_cores, [5]);
        }
    }

    #[test]
    fn sparsified_workload_moves_less_traffic_than_traditional() {
        let rows = rows(Slice::Degradation);
        let traffic =
            |s: &str| healthy(&rows, s, 0.0).recovery.as_ref().unwrap().report.traffic_bytes;
        assert!(traffic("sparsified") < traffic("traditional"));
        assert!(traffic("structure") < traffic("traditional"));
    }

    #[test]
    fn static_cells_with_invalid_shapes_or_dead_sets_are_rejected() {
        let cell = |rung, cores, dead: Vec<usize>| Cell {
            rung,
            chiplets: 1,
            cores,
            fault: Fault::Static { dead, drop_rate: 0.0, seed: 7 },
        };
        assert!(run(&[cell(0, 0, Vec::new())]).is_err(), "no cores");
        assert!(run(&[cell(3, 16, Vec::new())]).is_err(), "rung off the ladder");
        assert!(run(&[cell(0, 16, vec![99])]).is_err(), "out-of-range dead core must propagate");
    }

    #[test]
    fn chaos_slice_covers_every_rung_with_bounded_loss() {
        let rows = rows(Slice::Chaos);
        assert_eq!(rows.len(), 2 * 3 * 2, "two packages × three rungs × two trials");
        for r in rows.iter().filter(|r| r.cell.chiplets == 1) {
            let Fault::Schedule(faults) = &r.cell.fault else { panic!("mesh chaos schedules") };
            assert!(!faults.is_empty(), "every trial injects at least one fault");
            assert!((0.0..=1.0).contains(&r.lost_fraction()));
            if let Some(rec) = &r.recovery {
                assert_eq!(r.outcome, Outcome::Recovered);
                assert!(rec.report.total_cycles > 0);
                assert!(rec.overhead_vs_fault_free() >= 1.0, "recovery cannot beat fault-free");
                assert!(rec.detection_cycles() > 0, "deaths must be detected, not assumed");
                assert!(!rec.dead_cores.is_empty());
            } else {
                assert!(matches!(r.outcome, Outcome::Unreachable | Outcome::CycleLimit));
            }
        }
        assert!(Slice::Chaos.violations(&rows).is_empty());
    }

    #[test]
    fn rows_are_deterministic_across_runs_and_cache_temperature() {
        let cells = Slice::Chaos.cells(true, 7).unwrap();
        let a = run(&cells).unwrap();
        crate::simcache::reset();
        let b = run(&cells).unwrap();
        assert_eq!(a, b, "rows compare everything but cache usage");
    }

    #[test]
    fn slice_histograms_account_for_every_cell() {
        let rows = rows(Slice::Chaos);
        let h: crate::OutcomeHistogram = rows.iter().map(|r| r.outcome).collect();
        assert_eq!(h.total() as usize, rows.len());
        assert_eq!(h.shed + h.deadline_miss, 0);
        let seams = rows.iter().filter(|r| r.cell.class() == "seam");
        assert_eq!(h.served as usize, seams.filter(|r| r.outcome == Outcome::Served).count());
        assert_eq!(
            h.recovered as usize,
            rows.iter().filter(|r| r.outcome == Outcome::Recovered).count()
        );
    }

    #[test]
    fn schedules_are_valid_and_leave_survivors() {
        for s in 0..3u64 {
            for t in 0..16u64 {
                let mut state = 7u64.wrapping_add(s << 32).wrapping_add(t + 1);
                let faults = draw_schedule(&mut state, 11, 16, 4, 5);
                assert!(!faults.is_empty());
                for pair in faults.windows(2) {
                    assert!(pair[0].layer < pair[1].layer, "boundaries sorted and distinct");
                }
                let mut dead = Vec::new();
                for f in &faults {
                    assert!(f.layer >= 1 && f.layer <= 10, "strictly mid-flight");
                    for &d in &f.dead {
                        assert!(d < 16);
                        assert!(!dead.contains(&d), "no double kills");
                        dead.push(d);
                    }
                }
                assert!(dead.len() <= 14, "at least two survivors");
            }
        }
    }

    #[test]
    fn invalid_seams_and_packages_are_rejected() {
        let cell = |chiplets, fault| Cell { rung: 0, chiplets, cores: 4, fault };
        assert!(run(&[cell(1, Fault::Seam(0, 1))]).is_err(), "a mesh has no seams");
        assert!(run(&[cell(4, Fault::Seam(0, 3))]).is_err(), "diagonal chiplets share no seam");
        assert!(run(&[cell(4, Fault::Seam(0, 9))]).is_err(), "chiplet out of range");
        assert!(run(&[cell(0, Fault::Schedule(Vec::new()))]).is_err(), "no chiplets");
        let everything = InferenceFault { layer: 1, dead: vec![0, 1, 2, 3] };
        assert!(run(&[cell(4, Fault::Schedule(vec![everything]))]).is_err(), "no survivor");
    }

    #[test]
    fn package_chaos_cells_sample_chiplet_and_seam_classes() {
        let rows = rows(Slice::Chaos);
        let package: Vec<&Row> = rows.iter().filter(|r| r.cell.chiplets == 2).collect();
        assert_eq!(package.len(), 3 * 2);
        for (trial, r) in package.iter().enumerate() {
            match &r.cell.fault {
                Fault::Schedule(faults) => {
                    assert_eq!(trial % 2, 0, "even trials kill a chiplet");
                    assert_eq!(faults.len(), 1);
                    assert_eq!(faults[0].dead.len(), 1, "one chiplet dies");
                    if let Some(rec) = &r.recovery {
                        assert_eq!(rec.dead_cores.len(), 16, "a chiplet death is all its cores");
                        assert!(rec.detection_cycles() > 0, "chiplet deaths must be detected");
                        assert!(rec.overhead_vs_fault_free() >= 1.0);
                    }
                }
                Fault::Seam(a, b) => {
                    assert_eq!(trial % 2, 1, "odd trials sever a seam");
                    assert_ne!(a, b, "a seam joins two chiplets");
                    if let Some(rec) = &r.recovery {
                        assert_eq!(r.outcome, Outcome::Served);
                        assert!(rec.dead_cores.is_empty(), "seam severing kills no cores");
                    }
                }
                Fault::Static { .. } => panic!("chaos cells are never static"),
            }
        }
    }

    #[test]
    fn rows_keep_the_slice_order_of_package_shapes() {
        let rows = rows(Slice::Chaos);
        assert!(rows[..6].iter().all(|r| r.cell.chiplets == 1 && r.cell.class() == "cores"));
        assert!(rows[6..].iter().all(|r| r.cell.chiplets == 2 && r.cell.class() != "cores"));
        let rungs: Vec<usize> = rows.iter().map(|r| r.cell.rung).collect();
        assert_eq!(rungs, [0, 0, 1, 1, 2, 2, 0, 0, 1, 1, 2, 2]);
    }

    #[test]
    fn chiplet_loss_slice_meets_its_contract_and_contracts_flag_broken_rows() {
        let rows = rows(Slice::ChipletLoss);
        assert_eq!(rows.len(), 3);
        assert!(Slice::ChipletLoss.violations(&rows).is_empty());
        let mut broken = rows[0].clone();
        broken.recovery.as_mut().unwrap().lost_output_fraction = 0.5;
        assert_eq!(Slice::ChipletLoss.violations(&[broken.clone()]).len(), 1);
        broken.recovery = None;
        broken.outcome = Outcome::Unreachable;
        assert_eq!(Slice::ChipletLoss.violations(&[broken.clone()]).len(), 1);
        assert!(Slice::Chaos.violations(&[broken]).is_empty(), "chaos allows typed failures");
        let first = &Slice::Degradation.cells(true, 7).unwrap()[..1];
        let mut slow = run(first).unwrap().swap_remove(0);
        slow.recovery.as_mut().unwrap().report.total_cycles += 1;
        assert_eq!(Slice::Degradation.violations(&[slow]).len(), 1);
    }
}
