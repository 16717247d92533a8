//! Deterministic parallel execution engine.
//!
//! Every parallel construct in this workspace runs through this module. The
//! design goal is *bit-reproducibility*: results are identical for any
//! worker count, because work is always decomposed the same way — into
//! contiguous index stripes or per-item slots — and floating-point
//! accumulation order inside each unit of work never depends on how units
//! are assigned to threads. Threads only decide *when* a unit runs, never
//! *what* it computes.
//!
//! The worker count comes from an [`ExecConfig`]: explicitly via
//! [`install`], or lazily from the `LTS_THREADS` environment variable
//! (falling back to the machine's available parallelism). Nested parallel
//! regions run serially — a worker that calls back into the engine executes
//! its region inline, so parallel trainers can call parallel kernels
//! without oversubscribing the machine.

use std::cell::Cell;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Environment variable that overrides the default worker count.
pub const THREADS_ENV: &str = "LTS_THREADS";

/// Worker-count configuration for the execution engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecConfig {
    threads: usize,
}

impl ExecConfig {
    /// Config with an explicit worker count (clamped to at least 1).
    pub fn new(threads: usize) -> Self {
        ExecConfig { threads: threads.max(1) }
    }

    /// Single-threaded config: every parallel construct runs inline.
    pub fn serial() -> Self {
        ExecConfig { threads: 1 }
    }

    /// Config from the environment: `LTS_THREADS` if set to a positive
    /// integer, otherwise the machine's available parallelism.
    pub fn from_env() -> Self {
        let threads = std::env::var(THREADS_ENV)
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1));
        ExecConfig { threads }
    }

    /// The configured worker count (always at least 1).
    pub fn threads(&self) -> usize {
        self.threads
    }
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig::from_env()
    }
}

/// Process-wide worker count; 0 means "not yet resolved from the env".
static GLOBAL_THREADS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Set while this thread is executing inside a parallel region; nested
    /// engine calls then run inline instead of spawning.
    static IN_PARALLEL: Cell<bool> = const { Cell::new(false) };
}

/// Installs `config` as the process-wide execution configuration.
pub fn install(config: ExecConfig) {
    GLOBAL_THREADS.store(config.threads, Ordering::Relaxed);
}

/// The currently installed configuration (resolved from the environment on
/// first use if [`install`] was never called).
pub fn current() -> ExecConfig {
    let n = GLOBAL_THREADS.load(Ordering::Relaxed);
    if n != 0 {
        return ExecConfig { threads: n };
    }
    let resolved = ExecConfig::from_env();
    // A concurrent install() may race this store; either value is a valid
    // configuration and determinism never depends on the worker count.
    GLOBAL_THREADS.store(resolved.threads, Ordering::Relaxed);
    resolved
}

/// Workers to use for `units` independent units of work: the configured
/// count, capped by the unit count, and 1 inside a nested parallel region.
fn effective_workers(units: usize) -> usize {
    if IN_PARALLEL.with(|f| f.get()) {
        return 1;
    }
    current().threads().min(units).max(1)
}

/// Splits `0..total` into `parts` contiguous ranges whose lengths differ by
/// at most one, in index order. The decomposition depends only on `total`
/// and `parts` — callers that need thread-count-independent work units pass
/// an explicit `parts`.
pub fn stripe_ranges(total: usize, parts: usize) -> Vec<Range<usize>> {
    let parts = parts.max(1).min(total.max(1));
    let base = total / parts;
    let extra = total % parts;
    let mut out = Vec::with_capacity(parts);
    let mut start = 0;
    for p in 0..parts {
        let len = base + usize::from(p < extra);
        out.push(start..start + len);
        start += len;
    }
    out
}

/// Runs `f` once per stripe of the rows of `out`, in parallel.
///
/// `out` is treated as a row-major matrix with rows of `row_len` elements
/// of any `Send` type (f32 outputs, the i16 kernel's i32 accumulators).
/// The rows are split into one contiguous stripe per worker and
/// `f(first_row, stripe)` is invoked with the index of the stripe's first
/// row and the mutable stripe data. `f` must compute each row from the row
/// index alone, so the stripe decomposition cannot affect results.
///
/// # Panics
///
/// Panics if `row_len` is zero or does not divide `out.len()`, or if `f`
/// panics on any worker.
pub fn par_row_stripes<T, F>(out: &mut [T], row_len: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    assert!(row_len > 0, "row_len must be positive");
    assert_eq!(out.len() % row_len, 0, "slice length must be a multiple of row_len");
    let rows = out.len() / row_len;
    let workers = effective_workers(rows);
    if workers <= 1 {
        f(0, out);
        return;
    }
    let ranges = stripe_ranges(rows, workers);
    std::thread::scope(|scope| {
        let mut rest = out;
        let mut first = None;
        for range in ranges {
            let (stripe, tail) = rest.split_at_mut((range.end - range.start) * row_len);
            rest = tail;
            if first.is_none() {
                // The first stripe runs on the calling thread after the
                // others are spawned.
                first = Some((range.start, stripe));
            } else {
                let f = &f;
                scope.spawn(move || enter_parallel(|| f(range.start, stripe)));
            }
        }
        if let Some((start, stripe)) = first {
            enter_parallel(|| f(start, stripe));
        }
    });
}

/// Maps `f` over `items` in parallel, preserving order.
///
/// Workers claim items through a shared counter, so load balances
/// dynamically, but slot `i` of the result always holds `f(i, &items[i])` —
/// output is independent of scheduling.
///
/// # Panics
///
/// Panics if `f` panics on any worker.
pub fn par_map<T, O, F>(items: &[T], f: F) -> Vec<O>
where
    T: Sync,
    O: Send,
    F: Fn(usize, &T) -> O + Sync,
{
    let workers = effective_workers(items.len());
    if workers <= 1 {
        return items.iter().enumerate().map(|(i, item)| f(i, item)).collect();
    }
    let slots: Vec<Mutex<Option<O>>> = items.iter().map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let run = || {
        enter_parallel(|| loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(item) = items.get(i) else { break };
            *slots[i].lock().expect("result slot poisoned") = Some(f(i, item));
        })
    };
    std::thread::scope(|scope| {
        // `run` captures only shared references, so the closure is `Copy`
        // and each spawn gets its own handle.
        for _ in 1..workers {
            scope.spawn(run);
        }
        run();
    });
    slots
        .into_iter()
        .map(|slot| slot.into_inner().expect("result slot poisoned").expect("every slot filled"))
        .collect()
}

/// Marks this thread as inside a parallel region for the duration of `f`.
fn enter_parallel<R>(f: impl FnOnce() -> R) -> R {
    struct Reset(bool);
    impl Drop for Reset {
        fn drop(&mut self) {
            let prev = self.0;
            IN_PARALLEL.with(|flag| flag.set(prev));
        }
    }
    let _reset = IN_PARALLEL.with(|flag| {
        let prev = flag.get();
        flag.set(true);
        Reset(prev)
    });
    f()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stripe_ranges_partition_exactly() {
        for total in [0usize, 1, 7, 64, 100] {
            for parts in [1usize, 2, 3, 8, 200] {
                let ranges = stripe_ranges(total, parts);
                let mut next = 0;
                for r in &ranges {
                    assert_eq!(r.start, next);
                    next = r.end;
                }
                assert_eq!(next, total);
                let lens: Vec<usize> = ranges.iter().map(|r| r.end - r.start).collect();
                let (min, max) = (lens.iter().min().unwrap(), lens.iter().max().unwrap());
                assert!(max - min <= 1, "{total}/{parts}: uneven stripes {lens:?}");
            }
        }
    }

    #[test]
    fn par_row_stripes_touches_every_row_once() {
        let rows = 37;
        let row_len = 5;
        let mut data = vec![0.0f32; rows * row_len];
        par_row_stripes(&mut data, row_len, |first_row, stripe| {
            for (r, row) in stripe.chunks_mut(row_len).enumerate() {
                for x in row.iter_mut() {
                    *x += (first_row + r) as f32;
                }
            }
        });
        for (r, row) in data.chunks(row_len).enumerate() {
            assert!(row.iter().all(|&x| x == r as f32), "row {r}: {row:?}");
        }
    }

    #[test]
    fn par_map_preserves_order() {
        let items: Vec<usize> = (0..101).collect();
        let out = par_map(&items, |i, &x| {
            assert_eq!(i, x);
            x * 2
        });
        assert_eq!(out, (0..101).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn nested_regions_run_inline() {
        let items: Vec<usize> = (0..8).collect();
        let out = par_map(&items, |_, &x| {
            // Inside a worker the engine must degrade to inline execution.
            let inner = par_map(&[x], |_, &y| y + 1);
            inner[0]
        });
        assert_eq!(out, (1..9).collect::<Vec<_>>());
    }

    #[test]
    fn config_resolution_clamps_to_one() {
        assert_eq!(ExecConfig::new(0).threads(), 1);
        assert_eq!(ExecConfig::serial().threads(), 1);
        assert!(ExecConfig::from_env().threads() >= 1);
    }
}
