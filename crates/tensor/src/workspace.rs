//! Reusable scratch buffers for kernel intermediates.
//!
//! Layer forward/backward passes need large temporaries (im2col matrices,
//! per-group GEMM outputs) whose sizes repeat every call. A [`Workspace`]
//! keeps those allocations alive between calls: [`Workspace::take`] hands
//! out a zeroed buffer, [`Workspace::give`] returns it to the pool, and the
//! next `take` of a similar size reuses the allocation instead of hitting
//! the allocator.
//!
//! The layers draw from one pool per thread through the free functions
//! [`take`] and [`give`], so they borrow their weights immutably and own no
//! scratch. A serial run (`LTS_THREADS=1`) keeps every parallel region on
//! the calling thread, so its pool lives across calls.
//!
//! A workspace holds *scratch*, never state: its contents carry no meaning
//! across calls, so cloning one yields an empty pool, and it is
//! deliberately not `Sync`.

use std::cell::RefCell;

thread_local! {
    /// The calling thread's pool, shared by every layer that runs on it.
    static THREAD_POOL: RefCell<Workspace> = RefCell::new(Workspace::new());
}

/// Hands out a zeroed buffer of exactly `len` elements from the calling
/// thread's pool (see [`Workspace::take`]).
pub fn take(len: usize) -> Vec<f32> {
    THREAD_POOL.with(|pool| pool.borrow_mut().take(len))
}

/// Returns a buffer to the calling thread's pool (see [`Workspace::give`]).
pub fn give(buf: Vec<f32>) {
    THREAD_POOL.with(|pool| pool.borrow_mut().give(buf));
}

/// A pool of reusable `f32` scratch buffers.
#[derive(Debug, Default)]
pub struct Workspace {
    pool: Vec<Vec<f32>>,
}

impl Workspace {
    /// An empty workspace; buffers are pooled as they are given back.
    pub fn new() -> Self {
        Workspace::default()
    }

    /// Hands out a zeroed buffer of exactly `len` elements, reusing the
    /// pooled allocation with the largest capacity when one exists.
    pub fn take(&mut self, len: usize) -> Vec<f32> {
        match self.pool.pop() {
            Some(mut buf) => {
                buf.clear();
                buf.resize(len, 0.0);
                buf
            }
            None => vec![0.0; len],
        }
    }

    /// Returns a buffer to the pool for reuse by a later [`take`].
    ///
    /// The pool is kept sorted by capacity so `take` always pops the
    /// largest buffer, which converges to zero reallocations once the
    /// biggest temporary of a pass has been seen.
    ///
    /// [`take`]: Workspace::take
    pub fn give(&mut self, buf: Vec<f32>) {
        if buf.capacity() == 0 {
            return;
        }
        let at = self.pool.partition_point(|b| b.capacity() <= buf.capacity());
        self.pool.insert(at, buf);
    }

    /// Number of buffers currently pooled.
    pub fn pooled(&self) -> usize {
        self.pool.len()
    }

    /// Total capacity (in elements) held by pooled buffers.
    pub fn pooled_capacity(&self) -> usize {
        self.pool.iter().map(Vec::capacity).sum()
    }
}

impl Clone for Workspace {
    /// Clones to an *empty* workspace: scratch contents are meaningless, and
    /// two pools must not share allocations.
    fn clone(&self) -> Self {
        Workspace::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_hands_out_zeroed_buffers() {
        let mut ws = Workspace::new();
        let mut buf = ws.take(8);
        assert_eq!(buf, vec![0.0; 8]);
        buf.iter_mut().for_each(|x| *x = 7.0);
        ws.give(buf);
        // The recycled buffer must come back zeroed.
        assert_eq!(ws.take(8), vec![0.0; 8]);
    }

    #[test]
    fn allocations_are_reused() {
        let mut ws = Workspace::new();
        let buf = ws.take(1024);
        let ptr = buf.as_ptr();
        ws.give(buf);
        let again = ws.take(512);
        assert_eq!(again.as_ptr(), ptr, "pooled allocation should be reused");
        assert_eq!(again.len(), 512);
    }

    #[test]
    fn take_prefers_the_largest_pooled_buffer() {
        let mut ws = Workspace::new();
        let small = ws.take(4);
        let large = ws.take(4096);
        let large_ptr = large.as_ptr();
        ws.give(small);
        ws.give(large);
        assert_eq!(ws.pooled(), 2);
        let buf = ws.take(2048);
        assert_eq!(buf.as_ptr(), large_ptr, "largest buffer should be taken first");
    }

    #[test]
    fn the_thread_pool_reuses_given_buffers() {
        let buf = take(256);
        let ptr = buf.as_ptr();
        give(buf);
        let again = take(128);
        assert_eq!(again.as_ptr(), ptr);
    }

    #[test]
    fn clone_is_empty() {
        let mut ws = Workspace::new();
        ws.give(vec![0.0; 64]);
        assert_eq!(ws.clone().pooled(), 0);
    }
}
