//! Golden paper-table fingerprints: one clear-text line per row of every
//! result the paper-table runners produce at quick effort — the §III-B
//! communication share with its per-layer rows, Table I, Tables III–VI,
//! Fig. 6(b)'s norm matrix and surviving distance, and the combined and
//! throughput/latency extensions.
//!
//! These pin every measured number across commits, so a refactor of the
//! experiment runners that moves any accuracy, cycle, byte or ratio trips
//! them. Floats print with `{:?}`, so the pins are exact. Only the
//! adapters below name the runner API; the pinned lines never change.
//!
//! The analytic results (§III-B, Table I, the tradeoff) take well under a
//! second and run in every `cargo test`. The trained ones take from one
//! second (Fig. 6(b)) to minutes (Table IV) in a release build, so they
//! are `#[ignore]`d and run with `cargo test --release -p lts-core --test
//! paper_tables_golden -- --include-ignored`.
//!
//! To re-capture (only legitimate after an *intentional* semantic
//! change): `LTS_GOLDEN_CAPTURE=1 cargo test --release -p lts-core --test
//! paper_tables_golden -- --include-ignored --nocapture` and paste the
//! printed lines.

use lts_core::experiment::{self, EffortPreset, SparsifiedRow, StructureRow};
use lts_nn::descriptor::{alexnet_spec, lenet_spec};

fn quick() -> EffortPreset {
    EffortPreset::quick()
}

/// §III-B: the AlexNet totals and share, then one line per layer.
fn motivation() -> Vec<String> {
    let r = experiment::motivation_comm_share().expect("motivation");
    let mut lines = vec![format!(
        "AlexNet cores=16 total={} compute={} comm={} traffic={} compute_pj={:?} noc_pj={:?} \
         share={:?}",
        r.total_cycles,
        r.compute_cycles,
        r.comm_cycles,
        r.traffic_bytes,
        r.compute_energy_pj,
        r.noc_energy_pj,
        r.comm_share()
    )];
    lines.extend(r.layers.iter().map(|l| {
        format!(
            "{} compute={} comm={} traffic={} compute_pj={:?} noc_pj={:?} blocked={}",
            l.name,
            l.compute_cycles,
            l.comm_cycles,
            l.traffic_bytes,
            l.compute_energy_pj,
            l.noc_energy_pj,
            l.blocked_flit_cycles
        )
    }));
    lines
}

/// Table I: one line per network, every transition's bytes.
fn table1() -> Vec<String> {
    experiment::table1_rows(16)
        .expect("table 1")
        .iter()
        .map(|r| {
            let layers: Vec<String> =
                r.layers.iter().map(|(name, bytes)| format!("{name}={bytes}")).collect();
            format!("{} {} total={}", r.network, layers.join(" "), r.total())
        })
        .collect()
}

fn structure(r: &StructureRow) -> String {
    format!(
        "{} kernels={:?} groups={} accuracy={:?} speedup={:?} comm_speedup={:?} comm_energy={:?} \
         total_energy={:?}",
        r.name,
        r.kernels,
        r.groups,
        r.accuracy,
        r.speedup,
        r.comm_speedup,
        r.comm_energy_reduction,
        r.total_energy_reduction
    )
}

fn sparsified(r: &SparsifiedRow) -> String {
    format!(
        "{} cores={} {} accuracy={:?} traffic={:?} speedup={:?} energy={:?} within={}",
        r.network,
        r.cores,
        r.scheme,
        r.accuracy,
        r.traffic_rate,
        r.speedup,
        r.energy_reduction,
        r.within_tolerance
    )
}

fn table3() -> Vec<String> {
    experiment::table3_rows(&quick()).expect("table 3").iter().map(structure).collect()
}

fn table4() -> Vec<String> {
    experiment::table4_rows(&quick()).expect("table 4").iter().map(sparsified).collect()
}

/// Table V: Parallel#3 against Parallel#1 on each core count.
fn table5() -> Vec<String> {
    experiment::table5_rows(&quick())
        .expect("table 5")
        .iter()
        .map(|r| {
            format!(
                "cores={} accuracy={:?} speedup={:?} comm_energy={:?} comm_speedup={:?}",
                r.cores, r.accuracy, r.speedup, r.comm_energy_reduction, r.comm_speedup
            )
        })
        .collect()
}

fn table6() -> Vec<String> {
    experiment::table6_rows(&quick()).expect("table 6").iter().map(sparsified).collect()
}

/// Fig. 6(b): the summary, then one line of block norms per producer core.
fn fig6() -> Vec<String> {
    let m = experiment::fig6_matrix(&quick()).expect("fig 6");
    let mesh = lts_noc::Mesh2d::new(4, 4);
    let mut lines = vec![format!(
        "{}/{} cores={} zero_fraction={:?} surviving_distance={:?} mesh_mean={:?}",
        m.network,
        m.layer,
        m.cores,
        m.zero_fraction(),
        m.mean_surviving_distance(&mesh),
        mesh.mean_distance()
    )];
    lines.extend(m.norms.chunks(m.cores).enumerate().map(|(p, row)| format!("p{p} {row:?}")));
    lines
}

fn combined() -> Vec<String> {
    experiment::combined_strategy_rows(&quick())
        .expect("combined")
        .iter()
        .map(|r| {
            format!(
                "{} accuracy={:?} traffic={:?} speedup={:?} energy={:?}",
                r.scheme, r.accuracy, r.traffic_rate, r.speedup, r.energy_reduction
            )
        })
        .collect()
}

/// The throughput/latency extension on 16 cores, LeNet then AlexNet.
fn tradeoff() -> Vec<String> {
    [lenet_spec(), alexnet_spec()]
        .iter()
        .flat_map(|spec| {
            let rows = experiment::parallelism_tradeoff(spec, 16).expect("tradeoff");
            rows.into_iter().map(move |r| {
                format!(
                    "{} {} latency={} throughput={:?} imbalance={:?}",
                    spec.name, r.mode, r.latency_cycles, r.throughput_per_mcycle, r.imbalance
                )
            })
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
        assert_eq!(got, pinned, "{label} row {i} drifted");
    }
    assert_eq!(got.len(), pinned.len(), "{label} row count drifted");
}

#[test]
fn motivation_rows_match_their_fingerprints() {
    check("motivation", &motivation(), MOTIVATION);
}

#[test]
fn table1_rows_match_their_fingerprints() {
    check("table1", &table1(), TABLE1);
}

#[test]
fn tradeoff_rows_match_their_fingerprints() {
    check("tradeoff", &tradeoff(), TRADEOFF);
}

#[test]
#[ignore = "trains three ConvNets; run in release with --include-ignored"]
fn table3_rows_match_their_fingerprints() {
    check("table3", &table3(), TABLE3);
}

#[test]
#[ignore = "trains four networks over λ grids; run in release with --include-ignored"]
fn table4_rows_match_their_fingerprints() {
    check("table4", &table4(), TABLE4);
}

#[test]
#[ignore = "trains ConvNets on four core counts; run in release with --include-ignored"]
fn table5_rows_match_their_fingerprints() {
    check("table5", &table5(), TABLE5);
}

#[test]
#[ignore = "trains LeNet over λ grids on two core counts; run in release with --include-ignored"]
fn table6_rows_match_their_fingerprints() {
    check("table6", &table6(), TABLE6);
}

#[test]
#[ignore = "trains an MLP; run in release with --include-ignored"]
fn fig6_rows_match_their_fingerprints() {
    check("fig6", &fig6(), FIG6);
}

#[test]
#[ignore = "trains three ConvNets; run in release with --include-ignored"]
fn combined_rows_match_their_fingerprints() {
    check("combined", &combined(), COMBINED);
}

const MOTIVATION: &str = "\
AlexNet cores=16 total=455147 compute=358324 comm=96823 traffic=7813440 compute_pj=895938124.8000002 noc_pj=4619125.7 share=0.21272907434301447
conv1 compute=69575 comm=0 traffic=0 compute_pj=153277062.40000004 noc_pj=0.0 blocked=0
relu1 compute=1135 comm=0 traffic=0 compute_pj=58080.0 noc_pj=0.0 blocked=0
pool1 compute=2461 comm=0 traffic=0 compute_pj=183632.64000000007 noc_pj=0.0 blocked=0
conv2 compute=109350 comm=27469 traffic=2099520 compute_pj=303349882.88000005 noc_pj=1264298.3 blocked=917484
relu2 compute=729 comm=0 traffic=0 compute_pj=37324.799999999996 noc_pj=0.0 blocked=0
pool2 compute=1521 comm=0 traffic=0 compute_pj=114657.28000000001 noc_pj=0.0 blocked=0
conv3 compute=48672 comm=16067 traffic=1297920 compute_pj=107178127.35999997 noc_pj=768931.9 blocked=530083
relu3 compute=254 comm=0 traffic=0 compute_pj=12979.200000000003 noc_pj=0.0 blocked=0
conv4 compute=73008 comm=24156 traffic=1946880 compute_pj=166004879.35999998 noc_pj=1150855.2 blocked=811957
relu4 compute=254 comm=0 traffic=0 compute_pj=12979.200000000003 noc_pj=0.0 blocked=0
conv5 compute=36504 comm=24156 traffic=1946880 compute_pj=121074524.16000003 noc_pj=1150855.2 blocked=811957
relu5 compute=169 comm=0 traffic=0 compute_pj=8652.800000000001 noc_pj=0.0 blocked=0
pool5 compute=324 comm=0 traffic=0 compute_pj=24985.599999999995 noc_pj=0.0 blocked=0
flatten compute=0 comm=0 traffic=0 compute_pj=0.0 noc_pj=0.0 blocked=0
ip1 compute=9216 comm=2785 traffic=276480 compute_pj=28713287.680000003 noc_pj=152382.9 blocked=118212
relu6 compute=16 comm=0 traffic=0 compute_pj=819.2000000000002 noc_pj=0.0 blocked=0
ip2 compute=4096 comm=1095 traffic=122880 compute_pj=12761825.28 noc_pj=65901.1 blocked=64350
relu7 compute=16 comm=0 traffic=0 compute_pj=819.2000000000002 noc_pj=0.0 blocked=0
ip3 compute=1024 comm=1095 traffic=122880 compute_pj=3123605.759999999 noc_pj=65901.1 blocked=64350
";

const TABLE1: &str = "\
MLP ip2=15360 ip3=5700 total=21060
LeNet conv2=86400 ip1=24000 ip2=9372 total=119772
ConvNet conv2=245760 conv3=61440 ip1=30720 ip2=1200 total=339120
AlexNet conv2=2099520 conv3=1297920 conv4=1946880 conv5=1946880 ip1=276480 ip2=122880 ip3=122880 total=7813440
VGG19 conv1_2=96337920 conv2_1=24084480 conv2_2=48168960 conv3_1=12042240 conv3_2=24084480 conv3_3=24084480 conv3_4=24084480 conv4_1=6021120 conv4_2=12042240 conv4_3=12042240 conv4_4=12042240 conv5_1=3010560 conv5_2=3010560 conv5_3=3010560 conv5_4=3010560 ip1=752640 ip2=122880 ip3=122880 total=308075520
";

const TRADEOFF: &str = "\
LeNet data (1 net/core) latency=13080 throughput=1223.2415902140672 imbalance=None
LeNet layer pipeline (4 stages) latency=13080 throughput=119.16110581506196 imbalance=Some(2.5663608562691134)
LeNet model (16-way split) latency=4654 throughput=214.86892995272885 imbalance=None
AlexNet data (1 net/core) latency=4550422 throughput=3.5161574025442035 imbalance=None
AlexNet layer pipeline (8 stages) latency=4550422 throughput=0.5600358422939068 imbalance=Some(3.139225328991465)
AlexNet model (16-way split) latency=455147 throughput=2.1970923679602414 imbalance=None
";

const TABLE3: &str = "\
Parallel#1 kernels=[64, 128, 256] groups=1 accuracy=0.8125 speedup=1.0 comm_speedup=1.0 comm_energy=0.0 total_energy=0.0
Parallel#2 kernels=[64, 128, 256] groups=16 accuracy=0.5833333 speedup=3.3560235063663075 comm_speedup=9.054455445544555 comm_energy=0.9028935999655927 total_energy=0.8254411034777166
Parallel#3 kernels=[64, 160, 320] groups=16 accuracy=0.39583334 speedup=2.992576419213974 comm_speedup=6.1375838926174495 comm_energy=0.8548167032854407 total_energy=0.801736293137171
";

const TABLE4: &str = "\
MLP cores=16 Baseline accuracy=0.8854167 traffic=1.0 speedup=1.0 energy=0.0 within=true
MLP cores=16 SS accuracy=0.8958333 traffic=0.888034188034188 speedup=1.0599520383693046 energy=0.134028003907522 within=true
MLP cores=16 SS_Mask accuracy=0.875 traffic=0.2710351377018044 speedup=1.6014492753623188 energy=0.7892832591627772 within=true
LeNet cores=16 Baseline accuracy=0.5208333 traffic=1.0 speedup=1.0 energy=0.0 within=true
LeNet cores=16 SS accuracy=0.71875 traffic=0.9683899408876866 speedup=1.0043159257660768 energy=0.019561614578638253 within=true
LeNet cores=16 SS_Mask accuracy=0.7708333 traffic=0.8806231840496944 speedup=1.0093255259162872 energy=0.1325391266962992 within=true
ConvNet cores=16 Baseline accuracy=0.47916666 traffic=1.0 speedup=1.0 energy=0.0 within=true
ConvNet cores=16 SS accuracy=0.4375 traffic=0.9984253361641897 speedup=1.0008005443701717 energy=0.010663477707645197 within=false
ConvNet cores=16 SS_Mask accuracy=0.26041666 traffic=0.9100908233073838 speedup=1.014197055125137 energy=0.14270010849852288 within=false
CaffeNet cores=16 Baseline accuracy=0.33333334 traffic=1.0 speedup=1.0 energy=0.0 within=true
CaffeNet cores=16 SS accuracy=0.39583334 traffic=0.9994679210363973 speedup=1.0005695010294826 energy=0.0017710251244520414 within=true
CaffeNet cores=16 SS_Mask accuracy=0.375 traffic=0.999329117828501 speedup=1.000438020148927 energy=0.002820538762767444 within=true
";

const TABLE5: &str = "\
cores=4 accuracy=0.7083333 speedup=2.064363695616751 comm_energy=0.821369394409108 comm_speedup=5.589861751152074
cores=8 accuracy=0.6041667 speedup=2.408955223880597 comm_energy=0.825038568584908 comm_speedup=6.0071942446043165
cores=16 accuracy=0.39583334 speedup=2.992576419213974 comm_energy=0.8548167032854407 comm_speedup=6.1375838926174495
cores=32 accuracy=0.5625 speedup=3.5995995995995997 comm_energy=0.8864847207161091 comm_speedup=6.745562130177515
";

const TABLE6: &str = "\
LeNet cores=8 Baseline accuracy=0.5208333 traffic=1.0 speedup=1.0 energy=0.0 within=true
LeNet cores=8 SS accuracy=0.8125 traffic=0.9934381408065619 speedup=1.0 energy=0.0 within=true
LeNet cores=8 SS_Mask accuracy=0.8125 traffic=0.968215994531784 speedup=1.0061095352389264 energy=0.03674578527062988 within=true
LeNet cores=32 Baseline accuracy=0.5208333 traffic=1.0 speedup=1.0 energy=0.0 within=true
LeNet cores=32 SS accuracy=0.8125 traffic=0.9872687521022536 speedup=1.0012846393833732 energy=0.008653649565020682 within=true
LeNet cores=32 SS_Mask accuracy=0.7083333 traffic=0.6240077362933064 speedup=1.1860869565217391 energy=0.4753463756537748 within=true
";

const FIG6: &str = "\
MLP/ip2 cores=16 zero_fraction=0.625 surviving_distance=1.4 mesh_mean=2.6666666666666665
p0 [1.7435806, 1.1132677, 0.32379377, 0.0, 1.0617512, 0.35287753, 0.0, 0.0, 0.49367452, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]
p1 [0.8746629, 1.6970602, 0.8581665, 0.31603992, 0.0, 0.97750115, 0.30094123, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]
p2 [0.2842495, 0.9156705, 1.5676216, 0.9393111, 0.0, 0.0, 0.89528656, 0.28538927, 0.0, 0.0, 0.22828138, 0.0, 0.0, 0.0, 0.0, 0.0]
p3 [0.0, 0.3140251, 0.9905755, 1.6304588, 0.0, 0.0, 0.0, 0.85123235, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]
p4 [0.94223315, 0.0, 0.0, 0.0, 1.6449549, 0.85107076, 0.25631344, 0.0, 0.9280936, 0.28757268, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]
p5 [0.0, 0.9126297, 0.2724459, 0.0, 0.9053434, 1.6002756, 0.8927953, 0.35324427, 0.2593838, 0.9273053, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]
p6 [0.0, 0.313425, 0.91570985, 0.2686367, 0.27543, 0.964872, 1.6396266, 0.902285, 0.0, 0.30936477, 0.85471475, 0.0, 0.0, 0.0, 0.0, 0.0]
p7 [0.0, 0.0, 0.26727366, 0.8900988, 0.0, 0.27965662, 0.84566987, 1.6568831, 0.0, 0.0, 0.0, 0.8035522, 0.0, 0.0, 0.0, 0.0]
p8 [0.29385713, 0.0, 0.0, 0.0, 0.94390136, 0.26804513, 0.0, 0.0, 1.7249382, 0.97446626, 0.0, 0.0, 0.93191576, 0.0, 0.0, 0.0]
p9 [0.0, 0.0, 0.0, 0.0, 0.29698706, 0.86239713, 0.30572465, 0.0, 0.8707177, 1.6055785, 0.9459601, 0.0, 0.0, 0.879609, 0.0, 0.0]
p10 [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.95032054, 0.33473426, 0.27301106, 0.8877596, 1.5634563, 0.8654108, 0.0, 0.0, 0.8149241, 0.0]
p11 [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.95225257, 0.0, 0.0, 0.7902808, 1.5514964, 0.0, 0.0, 0.0, 0.7914137]
p12 [0.0, 0.0, 0.0, 0.0, 0.29760155, 0.0, 0.0, 0.0, 0.92948097, 0.0, 0.0, 0.0, 1.6173203, 0.8881144, 0.23964202, 0.0]
p13 [0.0, 0.0, 0.0, 0.0, 0.0, 0.2906715, 0.0, 0.0, 0.27825272, 0.8114308, 0.0, 0.0, 0.88127005, 1.5354899, 0.7937598, 0.0]
p14 [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.25344762, 0.9162087, 0.0, 0.0, 0.8137261, 1.6731433, 0.9290226]
p15 [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.29494208, 0.87340176, 0.0, 0.0, 0.76404226, 1.4775144]
";

const COMBINED: &str = "\
Traditional accuracy=0.8125 traffic=1.0 speedup=1.0 energy=0.0
Grouped(n=16) accuracy=0.5833333 traffic=0.09433962264150944 speedup=3.3560235063663075 energy=0.9028935999655927
Grouped(n=16)+SS_Mask accuracy=0.34375 traffic=0.01125196540880503 speedup=3.647152740819585 energy=0.9889649530422561
";
