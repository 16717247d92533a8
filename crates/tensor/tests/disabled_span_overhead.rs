//! The disabled-span overhead contract: with recording off, one
//! `lts-obs` span costs under 1% of the 256×256 f32 GEMM it guards. A
//! test binary of its own, because the enable flag is process-global and
//! a test that turned it on would time the recording path instead.

use lts_tensor::matmul::matmul_into;
use lts_tensor::par::{self, ExecConfig};
use lts_tensor::{init, Shape};
use std::hint::black_box;
use std::time::Instant;

/// Spans off must cost less than this share of one GEMM, in percent.
const OVERHEAD_LIMIT_PCT: f64 = 1.0;

/// Fastest of `reps` timings of `f`, in nanoseconds: the repetition least
/// disturbed by whatever else the host runs.
fn fastest_ns(reps: usize, mut f: impl FnMut()) -> f64 {
    (0..reps)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_nanos() as f64
        })
        .fold(f64::INFINITY, f64::min)
}

#[test]
fn a_disabled_span_costs_under_one_percent_of_a_256_gemm() {
    lts_obs::set_enabled(false);
    par::install(ExecConfig::new(1));

    const SPAN_CALLS: usize = 1_000_000;
    let span_ns = fastest_ns(3, || {
        for _ in 0..SPAN_CALLS {
            drop(black_box(lts_obs::span("obs.disabled_probe")));
        }
    }) / SPAN_CALLS as f64;

    let mut rng = init::rng(1);
    let a = init::uniform(Shape::d2(256, 256), 1.0, &mut rng);
    let b = init::uniform(Shape::d2(256, 256), 1.0, &mut rng);
    let mut c = vec![0.0f32; 256 * 256];
    let gemm_ns = fastest_ns(3, || {
        matmul_into(black_box(a.as_slice()), b.as_slice(), black_box(&mut c), 256, 256, 256);
    });

    // One disabled span guards each instrumented GEMM call.
    let overhead_pct = 100.0 * span_ns / gemm_ns;
    assert!(
        overhead_pct < OVERHEAD_LIMIT_PCT,
        "disabled span {span_ns:.1} ns is {overhead_pct:.4}% of a {gemm_ns:.0} ns 256x256 \
         GEMM (limit {OVERHEAD_LIMIT_PCT}%)"
    );
    assert!(lts_obs::snapshot().probes.is_empty(), "disabled spans must record nothing");
}
