//! The `tensor.macs_i16_skipped` counter of the i16 A·Bᵀ kernel. A test
//! binary of its own, because the counter registry is process-global
//! and other tests would add to it concurrently.

use lts_tensor::qmatmul::matmul_a_bt_i16_into;

fn counted(a: &[i16], m: usize, k: usize, n: usize) -> (u64, u64) {
    let b = vec![1i16; n * k];
    let mut c = vec![0i32; m * n];
    lts_obs::reset();
    lts_obs::set_enabled(true);
    matmul_a_bt_i16_into(a, &b, &mut c, m, k, n);
    lts_obs::set_enabled(false);
    let snap = lts_obs::snapshot();
    let count = |name| snap.counter(name).unwrap_or(0);
    (count("tensor.macs_i16"), count("tensor.macs_i16_skipped"))
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
    // n columns.
    let elided = (3 + 4 + 3 + 5) * block * n;
    assert_eq!(counted(&a, m, k, n), ((m * k * n) as u64, elided as u64));

    // A dense A skips nothing, and zero runs shorter than the merge
    // threshold are multiplied through rather than skipped, whether a
    // row holds a few of them or many.
    for period in [9, 3] {
        let dense: Vec<i16> = (0..m * k).map(|p| i16::from(p % k % period != 0)).collect();
        assert_eq!(counted(&dense, m, k, n), ((m * k * n) as u64, 0));
    }
}
