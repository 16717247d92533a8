//! Fault-matrix properties across slices and seeds.
//!
//! * A static cell at drop rate 0 is the oracle static replan: its run
//!   equals, apart from simulation-cache usage, the oracle of a
//!   mid-flight cell that ends with the same dead set, on a chip and on
//!   a package.
//! * The quick chaos slice meets its contract at any seed: every row
//!   ends with a bounded output loss or a typed outcome its fault class
//!   allows.

use lts_core::fault_matrix::{run, Cell, Fault, Slice};
use lts_core::recovery::InferenceFault;
use proptest::prelude::*;

/// The static cell and the mid-flight cell that kill `dead` (before the
/// middle layer) on every rung of a `chiplets` × `cores` system.
fn static_and_scheduled(chiplets: usize, cores: usize, dead: &[usize]) -> Vec<Cell> {
    let mut cells = Vec::new();
    for rung in 0..3 {
        let static_dead = Fault::Static { dead: dead.to_vec(), drop_rate: 0.0, seed: 2019 };
        cells.push(Cell { rung, chiplets, cores, fault: static_dead });
        let death = InferenceFault { layer: 6, dead: dead.to_vec() };
        cells.push(Cell { rung, chiplets, cores, fault: Fault::Schedule(vec![death]) });
    }
    cells
}

#[test]
fn a_static_cell_is_the_oracle_of_a_mid_flight_cell_with_its_dead_set() {
    let mut cases = Vec::new();
    for dead in [&[5][..], &[5, 6, 10], &[0, 15]] {
        cases.push(static_and_scheduled(1, 16, dead));
    }
    cases.push(static_and_scheduled(2, 8, &[1]));
    let mut compared = 0;
    for cells in cases {
        let rows = run(&cells).expect("fault matrix");
        for pair in rows.chunks(2) {
            let (fixed, online) = (&pair[0], &pair[1]);
            let fixed = fixed.recovery.as_ref().expect("static cell runs");
            let online = online.recovery.as_ref().expect("mid-flight cell recovers");
            let oracle = online.oracle.as_ref().expect("the oracle runs");
            assert_eq!(fixed.dead_cores, online.dead_cores);
            // `SimUsage` equality is vacuous: the reports compare everything
            // but cache usage.
            assert_eq!(&fixed.report, oracle);
            compared += 1;
        }
    }
    assert_eq!(compared, 12);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    #[test]
    fn the_quick_chaos_slice_meets_its_contract_at_any_seed(seed in 0u64..u64::MAX) {
        let rows = run(&Slice::Chaos.cells(true, seed).expect("cells")).expect("fault matrix");
        prop_assert_eq!(rows.len(), 12);
        let violations = Slice::Chaos.violations(&rows);
        prop_assert!(violations.is_empty(), "seed {}: {:?}", seed, violations);
    }
}
