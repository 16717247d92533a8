//! Wall-clock micro-benchmarks of the hot kernels: GEMM, im2col, grouped
//! convolution forward/backward, the flit-level NoC simulator, and the
//! group-norm scan that the lasso/pruning path performs every step.
//!
//! Run with `cargo bench --bench micro_kernels`. The GEMM workload is
//! swept over execution-engine worker counts to record the parallel
//! kernel's scaling on this host; results land in
//! `BENCH_micro_kernels.json`.

use lts_bench::timing::{iters_from_env, time, BenchReport};
use lts_nn::conv::Conv2d;
use lts_nn::grouping::GroupLayout;
use lts_nn::layer::Layer;
use lts_noc::traffic::all_to_all;
use lts_noc::{NocConfig, Simulator};
use lts_tensor::im2col::{im2col, ConvGeometry};
use lts_tensor::matmul::matmul;
use lts_tensor::par::{self, ExecConfig};
use lts_tensor::{init, Shape, Tensor};

fn main() {
    let mut report = BenchReport::new("micro_kernels", "n/a");
    let host = report.host_cpus;
    println!("=== micro-kernel wall-clock benchmarks ({host} CPUs available) ===\n");

    // GEMM thread sweep: the parallel blocked kernel at 1..N workers on
    // identical inputs (bit-identical outputs; only wall-clock changes).
    let mut rng = init::rng(1);
    let a = init::uniform(Shape::d2(256, 256), 1.0, &mut rng);
    let b = init::uniform(Shape::d2(256, 256), 1.0, &mut rng);
    let mut sweep = vec![1usize];
    for t in [2, 4, host] {
        if t > 1 && !sweep.contains(&t) {
            sweep.push(t);
        }
    }
    sweep.sort_unstable();
    for &threads in &sweep {
        par::install(ExecConfig::new(threads));
        report.push(time(&format!("matmul_256x256_t{threads}"), 3, iters_from_env(20), || {
            matmul(&a, &b).expect("benchmark matmul");
        }));
    }
    if host < 4 {
        report.note(format!(
            "host exposes only {host} CPU(s); thread-sweep speedups are not expected to \
             materialize here"
        ));
    }
    par::install(ExecConfig::new(host));

    let mut rng = init::rng(2);
    let img = init::uniform(Shape::d3(20, 12, 12), 1.0, &mut rng);
    let geom = ConvGeometry { in_c: 20, in_h: 12, in_w: 12, kh: 5, kw: 5, stride: 1, pad: 0 };
    report.push(time("im2col_lenet_conv2", 3, iters_from_env(50), || {
        im2col(&img, &geom).expect("benchmark im2col");
    }));

    let mut rng = init::rng(3);
    let mut conv = Conv2d::new("c", (20, 12, 12), 50, 5, 1, 0, 1, &mut rng).expect("conv");
    let x = init::uniform(Shape::d4(8, 20, 12, 12), 1.0, &mut rng);
    report.push(time("conv2d_forward_lenet_conv2_b8", 3, iters_from_env(20), || {
        conv.forward(&x).expect("benchmark forward");
    }));

    let mut rng = init::rng(4);
    let mut conv = Conv2d::new("c", (20, 12, 12), 50, 5, 1, 0, 1, &mut rng).expect("conv");
    let x = init::uniform(Shape::d4(4, 20, 12, 12), 1.0, &mut rng);
    let y = conv.forward(&x).expect("forward");
    let grad = Tensor::ones(y.shape().clone());
    report.push(time("conv2d_backward_lenet_conv2_b4", 3, iters_from_env(20), || {
        conv.forward(&x).expect("forward");
        conv.backward(&grad).expect("backward");
    }));

    let trace = all_to_all(16, 1024);
    report.push(time("noc_sim_all_to_all_16c_1kb", 2, iters_from_env(10), || {
        let mut sim = Simulator::new(NocConfig::paper_16core()).expect("sim");
        sim.run(&trace.messages).expect("benchmark noc run");
    }));

    let layout = GroupLayout::new(512, 304, 1, 16);
    let mut rng = init::rng(5);
    let w = init::uniform(Shape::d1(512 * 304), 0.1, &mut rng);
    report.push(time("group_norm_matrix_mlp_ip2", 3, iters_from_env(50), || {
        layout.norm_matrix(w.as_slice());
    }));

    report.write().expect("write benchmark report");
}
