//! Golden fault-matrix fingerprints: one clear-text line per cell of the
//! degradation, chaos and chiplet-loss grids, at quick and at paper
//! effort, exactly as the sweep binaries configure them.
//!
//! The cross-run determinism tests compare two runs inside one process;
//! these pin every measured number across commits, so a refactor of the
//! fault harnesses that moves any cycle, byte, energy or ratio trips
//! them. Floats print with `{:?}`, so the pins are exact. Only the
//! adapters below (`rows`, `degradation`, `chaos` and `chiplet_loss`)
//! name the harness API; the pinned lines never change.
//!
//! Cross-sweep simulation-cache usage is excluded: it depends on what
//! other tests in the process have already simulated.
//!
//! To re-capture (only legitimate after an *intentional* semantic
//! change): `LTS_GOLDEN_CAPTURE=1 cargo test -p lts-core --test
//! fault_matrix_golden -- --nocapture` and paste the printed lines.

use lts_core::fault_matrix::{self, Fault, Row, Slice};

fn rows(slice: Slice, quick: bool) -> Vec<Row> {
    fault_matrix::run(&slice.cells(quick, 2019).expect("cells")).expect("fault matrix")
}

/// The degradation grid: strategy × drop rate × static dead set.
fn degradation(quick: bool) -> Vec<String> {
    rows(Slice::Degradation, quick)
        .iter()
        .map(|r| {
            let Fault::Static { drop_rate, .. } = r.cell.fault else { panic!("static cell") };
            let rec = r.recovery.as_ref().expect("degradation cells run");
            format!(
                "{}/{} rate={:?} dead={:?} survivors={} {} total={} comm={} traffic={} \
                 noc_pj={:?} retx={} rejected={} latency={:?} energy={:?} lost={:?}",
                r.strategy,
                r.network,
                drop_rate,
                rec.dead_cores,
                r.cell.cores - rec.dead_cores.len(),
                r.outcome,
                rec.report.total_cycles,
                rec.report.comm_cycles,
                rec.report.traffic_bytes,
                rec.report.noc_energy_pj,
                rec.report.faults.packets_retransmitted,
                rec.report.faults.packets_rejected,
                rec.overhead_vs_fault_free(),
                rec.energy_vs_fault_free(),
                rec.lost_output_fraction
            )
        })
        .collect()
}

/// The chaos grid: randomized mid-flight core deaths on the chip,
/// chiplet deaths and seam severings on packages.
fn chaos(quick: bool) -> Vec<String> {
    rows(Slice::Chaos, quick)
        .iter()
        .map(|r| {
            let schedule = match &r.cell.fault {
                Fault::Schedule(f) if r.cell.chiplets > 1 => {
                    format!("L{}-chiplets{:?}", f[0].layer, f[0].dead)
                }
                _ => r.cell.describe(),
            };
            let rec = r.recovery.as_ref();
            format!(
                "{}x{} {}/{} {} {} {} dead={:?} total={} overhead={:?} oracle={:?} detect={} \
                 resync={} lost={:?}",
                r.cell.chiplets,
                r.cell.cores,
                r.strategy,
                r.network,
                r.cell.class(),
                schedule,
                r.outcome,
                rec.map_or(Vec::new(), |x| x.dead_cores.clone()),
                rec.map_or(0, |x| x.report.total_cycles),
                rec.map_or(0.0, |x| x.overhead_vs_fault_free()),
                rec.and_then(|x| x.overhead_vs_oracle()),
                rec.map_or(0, |x| x.detection_cycles()),
                rec.map_or(0, |x| x.redistribution_bytes()),
                r.lost_fraction()
            )
        })
        .collect()
}

/// The chiplet-loss grid: one whole chiplet dies before the middle
/// layer, per package shape × strategy × victim.
fn chiplet_loss(quick: bool) -> Vec<String> {
    rows(Slice::ChipletLoss, quick)
        .iter()
        .map(|row| {
            let Fault::Schedule(f) = &row.cell.fault else { panic!("scheduled cell") };
            let r = row.recovery.as_ref().expect("chiplet recovery");
            format!(
                "{}x{}/{}/kill-c{} free={} total={} overhead={:?} oracle={:?} detect={} \
                 resync={} lost_output={:?} lost_boundary={:?}",
                row.cell.chiplets,
                row.cell.cores,
                row.strategy,
                f[0].dead[0],
                r.fault_free.total_cycles,
                r.report.total_cycles,
                r.overhead_vs_fault_free(),
                r.overhead_vs_oracle(),
                r.detection_cycles(),
                r.redistribution_bytes(),
                r.lost_output_fraction,
                r.lost_boundary_fraction
            )
        })
        .collect()
}

fn check(label: &str, got: &[String], pinned: &str) {
    if std::env::var("LTS_GOLDEN_CAPTURE").is_ok() {
        println!("GOLDEN {label}:\n{}", got.join("\n"));
        return;
    }
    let pinned: Vec<&str> = pinned.lines().collect();
    for (i, (got, pinned)) in got.iter().zip(&pinned).enumerate() {
        assert_eq!(got, pinned, "{label} cell {i} drifted");
    }
    assert_eq!(got.len(), pinned.len(), "{label} cell count drifted");
}

#[test]
fn degradation_cells_match_their_fingerprints() {
    check("degradation quick", &degradation(true), DEGRADATION_QUICK);
    check("degradation paper", &degradation(false), DEGRADATION_PAPER);
}

#[test]
fn chaos_cells_match_their_fingerprints() {
    check("chaos quick", &chaos(true), CHAOS_QUICK);
    check("chaos paper", &chaos(false), CHAOS_PAPER);
}

#[test]
fn chiplet_loss_cells_match_their_fingerprints() {
    check("chiplet-loss quick", &chiplet_loss(true), CHIPLET_LOSS_QUICK);
    check("chiplet-loss paper", &chiplet_loss(false), CHIPLET_LOSS_PAPER);
}

const DEGRADATION_QUICK: &str = "\
traditional/ConvNet rate=0.0 dead=[] survivors=16 served total=25002 comm=3338 traffic=339120 noc_pj=189403.49999999997 retx=0 rejected=0 latency=1.0 energy=1.0 lost=0.0
traditional/ConvNet rate=0.0 dead=[5] survivors=15 served total=26205 comm=4316 traffic=316584 noc_pj=204715.90000000002 retx=0 rejected=0 latency=1.0481161507079433 energy=1.0016901672448755 lost=0.0
traditional/ConvNet rate=0.001 dead=[] survivors=16 served total=31545 comm=9881 traffic=339120 noc_pj=301484.3 retx=20 rejected=20 latency=1.261699064074874 energy=1.0145510819055936 lost=0.0
traditional/ConvNet rate=0.001 dead=[5] survivors=15 served total=30216 comm=8327 traffic=316584 noc_pj=275366.4 retx=18 rejected=18 latency=1.2085433165346773 energy=1.0108624894639455 lost=0.0
structure/ConvNet-G rate=0.0 dead=[] survivors=16 served total=7311 comm=367 traffic=31920 noc_pj=21579.1 retx=0 rejected=0 latency=1.0 energy=1.0 lost=0.0
structure/ConvNet-G rate=0.0 dead=[5] survivors=15 served total=7726 comm=557 traffic=31656 noc_pj=25574.200000000004 retx=0 rejected=0 latency=1.0567637806045684 energy=1.0008533877755148 lost=0.0625
structure/ConvNet-G rate=0.001 dead=[] survivors=16 served total=8675 comm=1731 traffic=31920 noc_pj=43497.8 retx=2 rejected=2 latency=1.1865681849268226 energy=1.0109943636399406 lost=0.0
structure/ConvNet-G rate=0.001 dead=[5] survivors=15 served total=9078 comm=1909 traffic=31656 noc_pj=47439.4 retx=3 rejected=3 latency=1.2416906032006565 energy=1.0118209159528258 lost=0.0625
sparsified/ConvNet rate=0.0 dead=[] survivors=16 served total=22178 comm=514 traffic=67832 noc_pj=21937.7 retx=0 rejected=0 latency=1.0 energy=1.0 lost=0.0
sparsified/ConvNet rate=0.0 dead=[5] survivors=15 served total=22831 comm=942 traffic=69760 noc_pj=34826.5 retx=0 rejected=0 latency=1.0294435927495718 energy=1.0014060897713173 lost=0.0
sparsified/ConvNet rate=0.001 dead=[] survivors=16 served total=22178 comm=514 traffic=67832 noc_pj=21937.7 retx=0 rejected=0 latency=1.0 energy=1.0 lost=0.0
sparsified/ConvNet rate=0.001 dead=[5] survivors=15 served total=24290 comm=2401 traffic=69760 noc_pj=58271.5 retx=2 rejected=2 latency=1.0952295067183695 energy=1.0045175244321143 lost=0.0";
const DEGRADATION_PAPER: &str = "\
traditional/ConvNet rate=0.0 dead=[] survivors=16 served total=25002 comm=3338 traffic=339120 noc_pj=189403.49999999997 retx=0 rejected=0 latency=1.0 energy=1.0 lost=0.0
traditional/ConvNet rate=0.0 dead=[5] survivors=15 served total=26205 comm=4316 traffic=316584 noc_pj=204715.90000000002 retx=0 rejected=0 latency=1.0481161507079433 energy=1.0016901672448755 lost=0.0
traditional/ConvNet rate=0.0 dead=[5, 6, 10] survivors=13 served total=26618 comm=4729 traffic=271516 noc_pj=207234.90000000002 retx=0 rejected=0 latency=1.064634829213663 energy=1.001421618091556 lost=0.0
traditional/ConvNet rate=0.0001 dead=[] survivors=16 served total=25442 comm=3778 traffic=339120 noc_pj=197431.39999999997 retx=2 rejected=2 latency=1.017598592112631 energy=1.0010422358729587 lost=0.0
traditional/ConvNet rate=0.0001 dead=[5] survivors=15 served total=26205 comm=4316 traffic=316584 noc_pj=204715.90000000002 retx=0 rejected=0 latency=1.0481161507079433 energy=1.0016901672448755 lost=0.0
traditional/ConvNet rate=0.0001 dead=[5, 6, 10] survivors=13 served total=26698 comm=4809 traffic=271516 noc_pj=210209.60000000003 retx=2 rejected=2 latency=1.0678345732341412 energy=1.0018078136160755 lost=0.0
traditional/ConvNet rate=0.001 dead=[] survivors=16 served total=31545 comm=9881 traffic=339120 noc_pj=301484.3 retx=20 rejected=20 latency=1.261699064074874 energy=1.0145510819055936 lost=0.0
traditional/ConvNet rate=0.001 dead=[5] survivors=15 served total=30216 comm=8327 traffic=316584 noc_pj=275366.4 retx=18 rejected=18 latency=1.2085433165346773 energy=1.0108624894639455 lost=0.0
traditional/ConvNet rate=0.001 dead=[5, 6, 10] survivors=13 served total=29824 comm=7935 traffic=271516 noc_pj=265976.00000000006 retx=14 rejected=14 latency=1.1928645708343333 energy=1.0090477820493853 lost=0.0
structure/ConvNet-G rate=0.0 dead=[] survivors=16 served total=7311 comm=367 traffic=31920 noc_pj=21579.1 retx=0 rejected=0 latency=1.0 energy=1.0 lost=0.0
structure/ConvNet-G rate=0.0 dead=[5] survivors=15 served total=7726 comm=557 traffic=31656 noc_pj=25574.200000000004 retx=0 rejected=0 latency=1.0567637806045684 energy=1.0008533877755148 lost=0.0625
structure/ConvNet-G rate=0.0 dead=[5, 6, 10] survivors=13 served total=7934 comm=765 traffic=32412 noc_pj=31979.699999999997 retx=0 rejected=0 latency=1.0852140610039667 energy=1.0017652818755363 lost=0.1875
structure/ConvNet-G rate=0.0001 dead=[] survivors=16 served total=7311 comm=367 traffic=31920 noc_pj=21579.1 retx=0 rejected=0 latency=1.0 energy=1.0 lost=0.0
structure/ConvNet-G rate=0.0001 dead=[5] survivors=15 served total=7726 comm=557 traffic=31656 noc_pj=25574.200000000004 retx=0 rejected=0 latency=1.0567637806045684 energy=1.0008533877755148 lost=0.0625
structure/ConvNet-G rate=0.0001 dead=[5, 6, 10] survivors=13 served total=7934 comm=765 traffic=32412 noc_pj=31979.699999999997 retx=0 rejected=0 latency=1.0852140610039667 energy=1.0017652818755363 lost=0.1875
structure/ConvNet-G rate=0.001 dead=[] survivors=16 served total=8675 comm=1731 traffic=31920 noc_pj=43497.8 retx=2 rejected=2 latency=1.1865681849268226 energy=1.0109943636399406 lost=0.0
structure/ConvNet-G rate=0.001 dead=[5] survivors=15 served total=9078 comm=1909 traffic=31656 noc_pj=47439.4 retx=3 rejected=3 latency=1.2416906032006565 energy=1.0118209159528258 lost=0.0625
structure/ConvNet-G rate=0.001 dead=[5, 6, 10] survivors=13 served total=10745 comm=3576 traffic=32412 noc_pj=77354.90000000001 retx=2 rejected=2 latency=1.4697031869785255 energy=1.0245253656868494 lost=0.1875
sparsified/ConvNet rate=0.0 dead=[] survivors=16 served total=22178 comm=514 traffic=67832 noc_pj=21937.7 retx=0 rejected=0 latency=1.0 energy=1.0 lost=0.0
sparsified/ConvNet rate=0.0 dead=[5] survivors=15 served total=22831 comm=942 traffic=69760 noc_pj=34826.5 retx=0 rejected=0 latency=1.0294435927495718 energy=1.0014060897713173 lost=0.0
sparsified/ConvNet rate=0.0 dead=[5, 6, 10] survivors=13 served total=23172 comm=1283 traffic=78870 noc_pj=51287.59999999999 retx=0 rejected=0 latency=1.0448191901884751 energy=1.0029818572424087 lost=0.0
sparsified/ConvNet rate=0.0001 dead=[] survivors=16 served total=22178 comm=514 traffic=67832 noc_pj=21937.7 retx=0 rejected=0 latency=1.0 energy=1.0 lost=0.0
sparsified/ConvNet rate=0.0001 dead=[5] survivors=15 served total=24290 comm=2401 traffic=69760 noc_pj=58221.0 retx=1 rejected=1 latency=1.0952295067183695 energy=1.0045108224721924 lost=0.0
sparsified/ConvNet rate=0.0001 dead=[5, 6, 10] survivors=13 served total=23172 comm=1283 traffic=78870 noc_pj=51287.59999999999 retx=0 rejected=0 latency=1.0448191901884751 energy=1.0029818572424087 lost=0.0
sparsified/ConvNet rate=0.001 dead=[] survivors=16 served total=22178 comm=514 traffic=67832 noc_pj=21937.7 retx=0 rejected=0 latency=1.0 energy=1.0 lost=0.0
sparsified/ConvNet rate=0.001 dead=[5] survivors=15 served total=24290 comm=2401 traffic=69760 noc_pj=58271.5 retx=2 rejected=2 latency=1.0952295067183695 energy=1.0045175244321143 lost=0.0
sparsified/ConvNet rate=0.001 dead=[5, 6, 10] survivors=13 served total=29137 comm=7248 traffic=78870 noc_pj=149365.1 retx=4 rejected=4 latency=1.3137794210478853 energy=1.015997926039352 lost=0.0";
const CHAOS_QUICK: &str = "\
1x16 traditional/ConvNet cores L1-[3, 13] recovered dead=[3, 13] total=26579 overhead=1.0630749540036797 oracle=Some(1.0428862905124383) detect=533 resync=40960 lost=0.125
1x16 traditional/ConvNet cores L2-[9] recovered dead=[9] total=26632 overhead=1.0651947844172467 oracle=Some(1.0299327094129476) detect=753 resync=7680 lost=0.0625
1x16 structure/ConvNet-G cores L10-[7, 10] recovered dead=[7, 10] total=8343 overhead=1.1411571604431678 oracle=Some(1.041963282128138) detect=569 resync=602 lost=0.125
1x16 structure/ConvNet-G cores L4-[7] recovered dead=[7] total=8398 overhead=1.148680071125701 oracle=Some(1.081101956745623) detect=725 resync=5632 lost=0.0625
1x16 sparsified/ConvNet cores L11-[11, 15] recovered dead=[11, 15] total=22957 overhead=1.0351248985481107 oracle=Some(1.0067093492369759) detect=672 resync=92 lost=0.125
1x16 sparsified/ConvNet cores L6-[5] recovered dead=[5] total=23223 overhead=1.0471187663450265 oracle=Some(1.0171696377732031) detect=770 resync=896 lost=0.0625
2x16 traditional/ConvNet chiplet L5-chiplets[0] recovered dead=[0, 1, 2, 3, 8, 9, 10, 11, 16, 17, 18, 19, 24, 25, 26, 27] total=25568 overhead=1.0085200378668349 oracle=Some(1.0226381889448843) detect=566 resync=0 lost=1.0
2x16 traditional/ConvNet seam seam 0~1 unreachable dead=[] total=0 overhead=0.0 oracle=None detect=0 resync=0 lost=0.0
2x16 structure/ConvNet-G chiplet L6-chiplets[1] recovered dead=[4, 5, 6, 7, 12, 13, 14, 15, 20, 21, 22, 23, 28, 29, 30, 31] total=8215 overhead=1.090679766330324 oracle=Some(1.1236492955819997) detect=683 resync=0 lost=1.0
2x16 structure/ConvNet-G seam seam 0~1 unreachable dead=[] total=0 overhead=0.0 oracle=None detect=0 resync=0 lost=0.0
2x16 sparsified/ConvNet chiplet L7-chiplets[1] recovered dead=[4, 5, 6, 7, 12, 13, 14, 15, 20, 21, 22, 23, 28, 29, 30, 31] total=23032 overhead=1.0291791411591225 oracle=Some(1.0385066281900983) detect=653 resync=0 lost=1.0
2x16 sparsified/ConvNet seam seam 0~1 unreachable dead=[] total=0 overhead=0.0 oracle=None detect=0 resync=0 lost=0.0";
const CHAOS_PAPER: &str = "\
1x16 traditional/ConvNet cores L1-[3, 13] recovered dead=[3, 13] total=26579 overhead=1.0630749540036797 oracle=Some(1.0428862905124383) detect=533 resync=40960 lost=0.125
1x16 traditional/ConvNet cores L2-[5, 10] L5-[6, 12] recovered dead=[5, 6, 10, 12] total=28370 overhead=1.134709223262139 oracle=Some(1.0674241854165099) detect=1481 resync=9216 lost=0.125
1x16 traditional/ConvNet cores L9-[8] recovered dead=[8] total=25708 overhead=1.0282377409807215 oracle=Some(0.9883130862678764) detect=534 resync=704 lost=0.0625
1x16 traditional/ConvNet cores L2-[8] recovered dead=[8] total=26729 overhead=1.0690744740420766 oracle=Some(1.0275642011379362) detect=749 resync=6656 lost=0.0625
1x16 traditional/ConvNet cores L11-[8, 14] recovered dead=[8, 14] total=25809 overhead=1.0322774178065754 oracle=Some(0.9841372735938989) detect=737 resync=84 lost=0.125
1x16 traditional/ConvNet cores L2-[5, 12] L7-[7, 15] recovered dead=[5, 7, 12, 15] total=27661 overhead=1.1063514918806496 oracle=Some(1.0378972646429778) detect=1327 resync=12416 lost=0.140625
1x16 traditional/ConvNet cores L5-[15] recovered dead=[15] total=25768 overhead=1.0306375489960804 oracle=Some(1.0152476261770615) detect=566 resync=13824 lost=0.0625
1x16 traditional/ConvNet cores L7-[4, 11] recovered dead=[4, 11] total=25914 overhead=1.0364770818334532 oracle=Some(0.9686028257456829) detect=598 resync=2560 lost=0.125
1x16 structure/ConvNet-G cores L7-[7] L10-[2] unreachable dead=[] total=0 overhead=0.0 oracle=None detect=0 resync=0 lost=0.0
1x16 structure/ConvNet-G cores L4-[1, 9] L7-[5, 11] recovered dead=[1, 5, 9, 11] total=9402 overhead=1.2860073861304884 oracle=Some(1.1573116691285081) detect=1379 resync=6528 lost=0.140625
1x16 structure/ConvNet-G cores L9-[12] recovered dead=[12] total=7961 overhead=1.0889071262481194 oracle=Some(1.0405175794013855) detect=565 resync=1216 lost=0.0625
1x16 structure/ConvNet-G cores L6-[4, 7] L10-[8, 15] recovered dead=[4, 7, 8, 15] total=8812 overhead=1.2053070715360417 oracle=Some(1.135420693209638) detect=1226 resync=1584 lost=0.140625
1x16 structure/ConvNet-G cores L2-[5, 14] recovered dead=[5, 14] total=8574 overhead=1.172753385309807 oracle=Some(1.1003593429158112) detect=761 resync=11776 lost=0.125
1x16 structure/ConvNet-G cores L2-[15] recovered dead=[15] total=8424 overhead=1.1522363561756257 oracle=Some(1.1029065200314219) detect=765 resync=13824 lost=0.0625
1x16 structure/ConvNet-G cores L4-[7, 8] L8-[6, 15] recovered dead=[6, 7, 8, 15] total=9406 overhead=1.2865545069073998 oracle=Some(1.1728179551122195) detect=1352 resync=8320 lost=0.140625
1x16 structure/ConvNet-G cores L10-[1, 12] L11-[9, 13] recovered dead=[1, 9, 12, 13] total=8703 overhead=1.190398030365203 oracle=Some(1.08165548098434) detect=1104 resync=478 lost=0.125
1x16 sparsified/ConvNet cores L11-[11, 15] recovered dead=[11, 15] total=22957 overhead=1.0351248985481107 oracle=Some(1.0067093492369759) detect=672 resync=92 lost=0.125
1x16 sparsified/ConvNet cores L6-[5] recovered dead=[5] total=23223 overhead=1.0471187663450265 oracle=Some(1.0171696377732031) detect=770 resync=896 lost=0.0625
1x16 sparsified/ConvNet cores L3-[0, 15] L10-[8] recovered dead=[0, 8, 15] total=24142 overhead=1.088556226891514 oracle=Some(1.054281846368837) detect=1265 resync=11730 lost=0.125
1x16 sparsified/ConvNet cores L6-[5, 9] L8-[7, 13] recovered dead=[5, 7, 9, 13] total=24156 overhead=1.0891874830913517 oracle=Some(1.0153846153846153) detect=1322 resync=3840 lost=0.140625
1x16 sparsified/ConvNet cores L8-[14] L10-[3] recovered dead=[3, 14] total=23452 overhead=1.0574443141852286 oracle=Some(1.0308118324469253) detect=1173 resync=5888 lost=0.0625
1x16 sparsified/ConvNet cores L4-[5, 13] L6-[3, 4] recovered dead=[3, 4, 5, 13] total=23831 overhead=1.0745333213094057 oracle=Some(1.0244604935087267) detect=1325 resync=10752 lost=0.125
1x16 sparsified/ConvNet cores L5-[8] L8-[0, 14] recovered dead=[0, 8, 14] total=23712 overhead=1.0691676436107855 oracle=Some(1.0352324819908316) detect=1124 resync=10624 lost=0.140625
1x16 sparsified/ConvNet cores L8-[3] recovered dead=[3] total=22831 overhead=1.0294435927495718 oracle=Some(1.0090157776108188) detect=551 resync=384 lost=0.0625
2x16 traditional/ConvNet chiplet L5-chiplets[0] recovered dead=[0, 1, 2, 3, 8, 9, 10, 11, 16, 17, 18, 19, 24, 25, 26, 27] total=25568 overhead=1.0085200378668349 oracle=Some(1.0226381889448843) detect=566 resync=0 lost=1.0
2x16 traditional/ConvNet seam seam 0~1 unreachable dead=[] total=0 overhead=0.0 oracle=None detect=0 resync=0 lost=0.0
2x16 traditional/ConvNet chiplet L4-chiplets[1] recovered dead=[4, 5, 6, 7, 12, 13, 14, 15, 20, 21, 22, 23, 28, 29, 30, 31] total=25619 overhead=1.0105317134742822 oracle=Some(1.0246780257579393) detect=617 resync=0 lost=0.0
2x16 traditional/ConvNet seam seam 0~1 unreachable dead=[] total=0 overhead=0.0 oracle=None detect=0 resync=0 lost=0.0
2x16 traditional/ConvNet chiplet L9-chiplets[1] recovered dead=[4, 5, 6, 7, 12, 13, 14, 15, 20, 21, 22, 23, 28, 29, 30, 31] total=26083 overhead=1.0288340170400758 oracle=Some(1.043236541076714) detect=731 resync=0 lost=1.0
2x16 traditional/ConvNet seam seam 0~1 unreachable dead=[] total=0 overhead=0.0 oracle=None detect=0 resync=0 lost=0.0
2x16 traditional/ConvNet chiplet L7-chiplets[0] recovered dead=[0, 1, 2, 3, 8, 9, 10, 11, 16, 17, 18, 19, 24, 25, 26, 27] total=26116 overhead=1.0301356894919533 oracle=Some(1.044556435485161) detect=764 resync=0 lost=0.0
2x16 traditional/ConvNet seam seam 0~1 unreachable dead=[] total=0 overhead=0.0 oracle=None detect=0 resync=0 lost=0.0
2x16 structure/ConvNet-G chiplet L6-chiplets[1] recovered dead=[4, 5, 6, 7, 12, 13, 14, 15, 20, 21, 22, 23, 28, 29, 30, 31] total=8215 overhead=1.090679766330324 oracle=Some(1.1236492955819997) detect=683 resync=0 lost=1.0
2x16 structure/ConvNet-G seam seam 0~1 unreachable dead=[] total=0 overhead=0.0 oracle=None detect=0 resync=0 lost=0.0
2x16 structure/ConvNet-G chiplet L4-chiplets[1] recovered dead=[4, 5, 6, 7, 12, 13, 14, 15, 20, 21, 22, 23, 28, 29, 30, 31] total=8319 overhead=1.1044875199150292 oracle=Some(1.1378744357816988) detect=787 resync=0 lost=1.0
2x16 structure/ConvNet-G seam seam 0~1 unreachable dead=[] total=0 overhead=0.0 oracle=None detect=0 resync=0 lost=0.0
2x16 structure/ConvNet-G chiplet L11-chiplets[1] recovered dead=[4, 5, 6, 7, 12, 13, 14, 15, 20, 21, 22, 23, 28, 29, 30, 31] total=8098 overhead=1.0751460435475306 oracle=Some(1.1076460128573382) detect=566 resync=0 lost=1.0
2x16 structure/ConvNet-G seam seam 0~1 unreachable dead=[] total=0 overhead=0.0 oracle=None detect=0 resync=0 lost=0.0
2x16 structure/ConvNet-G chiplet L3-chiplets[0] recovered dead=[0, 1, 2, 3, 8, 9, 10, 11, 16, 17, 18, 19, 24, 25, 26, 27] total=8044 overhead=1.0679766330323952 oracle=Some(1.100259882369033) detect=733 resync=0 lost=1.0
2x16 structure/ConvNet-G seam seam 0~1 unreachable dead=[] total=0 overhead=0.0 oracle=None detect=0 resync=0 lost=0.0
2x16 sparsified/ConvNet chiplet L7-chiplets[1] recovered dead=[4, 5, 6, 7, 12, 13, 14, 15, 20, 21, 22, 23, 28, 29, 30, 31] total=23032 overhead=1.0291791411591225 oracle=Some(1.0385066281900983) detect=653 resync=0 lost=1.0
2x16 sparsified/ConvNet seam seam 0~1 unreachable dead=[] total=0 overhead=0.0 oracle=None detect=0 resync=0 lost=0.0
2x16 sparsified/ConvNet chiplet L5-chiplets[1] recovered dead=[4, 5, 6, 7, 12, 13, 14, 15, 20, 21, 22, 23, 28, 29, 30, 31] total=22799 overhead=1.0187675946199561 oracle=Some(1.028000721435657) detect=621 resync=0 lost=0.0
2x16 sparsified/ConvNet seam seam 0~1 unreachable dead=[] total=0 overhead=0.0 oracle=None detect=0 resync=0 lost=0.0
2x16 sparsified/ConvNet chiplet L1-chiplets[0] recovered dead=[0, 1, 2, 3, 8, 9, 10, 11, 16, 17, 18, 19, 24, 25, 26, 27] total=22719 overhead=1.0151928146923455 oracle=Some(1.0243935431508702) detect=541 resync=0 lost=1.0
2x16 sparsified/ConvNet seam seam 0~1 unreachable dead=[] total=0 overhead=0.0 oracle=None detect=0 resync=0 lost=0.0
2x16 sparsified/ConvNet chiplet L3-chiplets[0] recovered dead=[0, 1, 2, 3, 8, 9, 10, 11, 16, 17, 18, 19, 24, 25, 26, 27] total=22911 overhead=1.0237722865186112 oracle=Some(1.0330507710343584) detect=733 resync=0 lost=1.0
2x16 sparsified/ConvNet seam seam 0~1 unreachable dead=[] total=0 overhead=0.0 oracle=None detect=0 resync=0 lost=0.0
4x16 traditional/ConvNet chiplet L1-chiplets[2] recovered dead=[32, 33, 34, 35, 40, 41, 42, 43, 48, 49, 50, 51, 56, 57, 58, 59] total=27686 overhead=1.0134709715206092 oracle=Some(1.020644400206444) detect=560 resync=0 lost=0.0
4x16 traditional/ConvNet seam seam 0~1 served dead=[] total=36393 overhead=1.3321985504063254 oracle=None detect=0 resync=0 lost=0.0
4x16 traditional/ConvNet chiplet L4-chiplets[0] recovered dead=[0, 1, 2, 3, 8, 9, 10, 11, 16, 17, 18, 19, 24, 25, 26, 27] total=28082 overhead=1.0279669082656124 oracle=Some(1.0430486944248412) detect=764 resync=0 lost=0.0
4x16 traditional/ConvNet seam seam 3~2 served dead=[] total=28709 overhead=1.0509188081118677 oracle=None detect=0 resync=0 lost=0.0
4x16 traditional/ConvNet chiplet L4-chiplets[1] recovered dead=[4, 5, 6, 7, 12, 13, 14, 15, 20, 21, 22, 23, 28, 29, 30, 31] total=30570 overhead=1.119042389633209 oracle=Some(0.8429382893067887) detect=783 resync=0 lost=1.0
4x16 traditional/ConvNet seam seam 1~3 served dead=[] total=29875 overhead=1.0936012885277107 oracle=None detect=0 resync=0 lost=0.0
4x16 traditional/ConvNet chiplet L8-chiplets[3] recovered dead=[36, 37, 38, 39, 44, 45, 46, 47, 52, 53, 54, 55, 60, 61, 62, 63] total=28289 overhead=1.035544329745955 oracle=Some(1.0390817263544536) detect=804 resync=0 lost=1.0
4x16 traditional/ConvNet seam seam 3~2 served dead=[] total=28709 overhead=1.0509188081118677 oracle=None detect=0 resync=0 lost=0.0
4x16 structure/ConvNet-G chiplet L7-chiplets[3] recovered dead=[36, 37, 38, 39, 44, 45, 46, 47, 52, 53, 54, 55, 60, 61, 62, 63] total=8593 overhead=1.1023733162283516 oracle=Some(1.1226809511366607) detect=631 resync=0 lost=1.0
4x16 structure/ConvNet-G seam seam 3~2 served dead=[] total=9186 overhead=1.1784477228992944 oracle=None detect=0 resync=0 lost=0.0
4x16 structure/ConvNet-G chiplet L4-chiplets[0] recovered dead=[0, 1, 2, 3, 8, 9, 10, 11, 16, 17, 18, 19, 24, 25, 26, 27] total=8563 overhead=1.0985246953175112 oracle=Some(1.1262659476522425) detect=768 resync=0 lost=0.0
4x16 structure/ConvNet-G seam seam 3~2 served dead=[] total=9186 overhead=1.1784477228992944 oracle=None detect=0 resync=0 lost=0.0
4x16 structure/ConvNet-G chiplet L5-chiplets[2] recovered dead=[32, 33, 34, 35, 40, 41, 42, 43, 48, 49, 50, 51, 56, 57, 58, 59] total=8834 overhead=1.1332905708787684 oracle=Some(1.1619097724582401) detect=755 resync=16384 lost=0.0
4x16 structure/ConvNet-G seam seam 3~2 served dead=[] total=9186 overhead=1.1784477228992944 oracle=None detect=0 resync=0 lost=0.0
4x16 structure/ConvNet-G chiplet L4-chiplets[3] recovered dead=[36, 37, 38, 39, 44, 45, 46, 47, 52, 53, 54, 55, 60, 61, 62, 63] total=8984 overhead=1.1525336754329698 oracle=Some(1.1737653514502222) detect=806 resync=16384 lost=0.0
4x16 structure/ConvNet-G seam seam 3~2 served dead=[] total=9186 overhead=1.1784477228992944 oracle=None detect=0 resync=0 lost=0.0
4x16 sparsified/ConvNet chiplet L2-chiplets[0] recovered dead=[0, 1, 2, 3, 8, 9, 10, 11, 16, 17, 18, 19, 24, 25, 26, 27] total=23811 overhead=1.0317618511136146 oracle=Some(1.0331944806040094) detect=765 resync=0 lost=1.0
4x16 sparsified/ConvNet seam seam 3~2 served dead=[] total=23414 overhead=1.0145593205650403 oracle=None detect=0 resync=0 lost=0.0
4x16 sparsified/ConvNet chiplet L5-chiplets[2] recovered dead=[32, 33, 34, 35, 40, 41, 42, 43, 48, 49, 50, 51, 56, 57, 58, 59] total=24094 overhead=1.0440246121847647 oracle=Some(1.048659470752089) detect=792 resync=16384 lost=0.0
4x16 sparsified/ConvNet seam seam 3~2 served dead=[] total=23414 overhead=1.0145593205650403 oracle=None detect=0 resync=0 lost=0.0
4x16 sparsified/ConvNet chiplet L8-chiplets[1] recovered dead=[4, 5, 6, 7, 12, 13, 14, 15, 20, 21, 22, 23, 28, 29, 30, 31] total=24489 overhead=1.061140480110928 oracle=Some(0.9589239564570444) detect=808 resync=8192 lost=0.0
4x16 sparsified/ConvNet seam seam 1~3 served dead=[] total=23741 overhead=1.0287286593292313 oracle=None detect=0 resync=0 lost=0.0
4x16 sparsified/ConvNet chiplet L3-chiplets[2] recovered dead=[32, 33, 34, 35, 40, 41, 42, 43, 48, 49, 50, 51, 56, 57, 58, 59] total=23236 overhead=1.0068463471704654 oracle=Some(1.011316155988858) detect=752 resync=0 lost=0.0
4x16 sparsified/ConvNet seam seam 3~2 served dead=[] total=23414 overhead=1.0145593205650403 oracle=None detect=0 resync=0 lost=0.0";
const CHIPLET_LOSS_QUICK: &str = "\
2x8/traditional/kill-c1 free=25676 total=25939 overhead=1.0102430285091135 oracle=Some(1.0298157852945846) detect=751 resync=0 lost_output=0.0 lost_boundary=0.0
2x8/structure/kill-c1 free=9111 total=9666 overhead=1.060915377016793 oracle=Some(1.1133379405666897) detect=555 resync=0 lost_output=0.0 lost_boundary=1.0
2x8/sparsified/kill-c1 free=23317 total=23632 overhead=1.0135094566196337 oracle=Some(1.0251605066805483) detect=580 resync=0 lost_output=0.0 lost_boundary=0.0";
const CHIPLET_LOSS_PAPER: &str = "\
2x8/traditional/kill-c1 free=25676 total=25939 overhead=1.0102430285091135 oracle=Some(1.0298157852945846) detect=751 resync=0 lost_output=0.0 lost_boundary=0.0
2x8/structure/kill-c1 free=9111 total=9666 overhead=1.060915377016793 oracle=Some(1.1133379405666897) detect=555 resync=0 lost_output=0.0 lost_boundary=1.0
2x8/sparsified/kill-c1 free=23317 total=23632 overhead=1.0135094566196337 oracle=Some(1.0251605066805483) detect=580 resync=0 lost_output=0.0 lost_boundary=0.0
4x4/traditional/kill-c1 free=26468 total=27089 overhead=1.0234622940909779 oracle=Some(0.9889383761682243) detect=678 resync=0 lost_output=0.0 lost_boundary=1.0
4x4/traditional/kill-c2 free=26468 total=27067 overhead=1.0226311017077225 oracle=Some(1.0260035631704636) detect=678 resync=4096 lost_output=0.0 lost_boundary=0.0
4x4/traditional/kill-c3 free=26468 total=27094 overhead=1.0236512014508086 oracle=Some(1.0280792289595508) detect=689 resync=4096 lost_output=0.0 lost_boundary=0.0
4x4/structure/kill-c1 free=11921 total=12599 overhead=1.056874423286637 oracle=Some(1.034145941065419) detect=609 resync=0 lost_output=0.0 lost_boundary=1.0
4x4/structure/kill-c2 free=11921 total=12577 overhead=1.0550289405251236 oracle=Some(1.0627851952002705) detect=609 resync=4096 lost_output=0.0 lost_boundary=0.0
4x4/structure/kill-c3 free=11921 total=12604 overhead=1.057293851186981 oracle=Some(1.063359487049692) detect=620 resync=4096 lost_output=0.0 lost_boundary=0.0
4x4/sparsified/kill-c1 free=25189 total=25831 overhead=1.0254873158918576 oracle=Some(0.9916311566662828) detect=668 resync=0 lost_output=0.0 lost_boundary=1.0
4x4/sparsified/kill-c2 free=25189 total=25803 overhead=1.0243757195601255 oracle=Some(1.026903331078123) detect=668 resync=4096 lost_output=0.0 lost_boundary=0.0
4x4/sparsified/kill-c3 free=25189 total=25833 overhead=1.0255667156298385 oracle=Some(1.0290391969407267) detect=679 resync=4096 lost_output=0.0 lost_boundary=0.0";
