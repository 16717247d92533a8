//! The `tensor.macs_i16_skipped` and `tensor.macs_f32_skipped` counters
//! of the A·B kernels. A test binary of its own, because the counter
//! registry is process-global and other tests would add to it
//! concurrently; the two cases share one test so they never overlap.

use lts_tensor::matmul::matmul_into;
use lts_tensor::qmatmul::matmul_i16_into;

/// `(macs, skipped)` counted by one i16 product of `a` with a ones B.
fn counted_i16(a: &[i16], m: usize, k: usize, n: usize) -> (u64, u64) {
    let b = vec![1i16; k * n];
    let mut c = vec![0i32; m * n];
    counted(|| matmul_i16_into(a, &b, &mut c, m, k, n), "i16")
}

/// `(macs, skipped)` counted by one f32 product of `a` with a ones B.
fn counted_f32(a: &[i16], m: usize, k: usize, n: usize) -> (u64, u64) {
    let a: Vec<f32> = a.iter().map(|&x| f32::from(x)).collect();
    let b = vec![1.0f32; k * n];
    let mut c = vec![0.0f32; m * n];
    counted(|| matmul_into(&a, &b, &mut c, m, k, n), "f32")
}

fn counted(product: impl FnOnce(), precision: &str) -> (u64, u64) {
    lts_obs::reset();
    lts_obs::set_enabled(true);
    product();
    lts_obs::set_enabled(false);
    let snap = lts_obs::snapshot();
    let count = |name: String| snap.counter(&name).unwrap_or(0);
    (count(format!("tensor.macs_{precision}")), count(format!("tensor.macs_{precision}_skipped")))
}

#[test]
fn skipped_macs_count_the_elided_zero_blocks() {
    // Four weight rows of five 50-tap producer blocks (k = 250), as a
    // hop-local mask leaves them: row 0 keeps blocks {0, 1}, row 1 keeps
    // {2}, row 2 keeps {0, 4}, row 3 keeps none.
    let (m, block, n) = (4, 50, 37);
    let k = 5 * block;
    let kept: [&[usize]; 4] = [&[0, 1], &[2], &[0, 4], &[]];
    let mut a = vec![0i16; m * k];
    for (i, blocks) in kept.iter().enumerate() {
        for &blk in *blocks {
            a[i * k + blk * block..i * k + (blk + 1) * block].fill(3);
        }
    }
    // Elided taps per row: 3, 4, 3 and 5 blocks of 50, for each of the
    // n columns, in either precision.
    let elided = ((3 + 4 + 3 + 5) * block * n) as u64;
    let macs = (m * k * n) as u64;
    assert_eq!(counted_i16(&a, m, k, n), (macs, elided));
    assert_eq!(counted_f32(&a, m, k, n), (macs, elided));

    // A product narrower than one 32-wide tile reads A only once, so it
    // skips the scan that would read A again and walks whole rows.
    let narrow = (m * k * 16) as u64;
    assert_eq!(counted_i16(&a, m, k, 16), (narrow, 0));
    assert_eq!(counted_f32(&a, m, k, 16), (narrow, 0));

    // A dense A skips nothing, and zero runs shorter than the gap
    // threshold are walked through rather than skipped, whether a row
    // holds a few of them or many.
    for period in [9, 3] {
        let dense: Vec<i16> = (0..m * k).map(|p| i16::from(p % k % period != 0)).collect();
        assert_eq!(counted_i16(&dense, m, k, n), (macs, 0));
        assert_eq!(counted_f32(&dense, m, k, n), (macs, 0));
    }
}
