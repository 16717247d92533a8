//! Unified probe/metrics layer for the Learn-to-Scale reproduction.
//!
//! Every workload crate reports into this one: scoped wall-clock spans
//! aggregated by call path ([`span`]), monotonically-named counters and
//! gauges ([`counter_add`], [`gauge_set`]), and a parallel **cycle-domain**
//! recorder ([`cycle_track`], [`cycle_record`]) for the simulated-time
//! breakdowns the NoC stepper and the accelerator cost model produce.
//! [`snapshot`] collapses all of it into a [`Snapshot`] that exports as
//! structured JSON, folded-stack flamegraph text, or Chrome trace-event
//! JSON (see `DESIGN.md` §13 for naming conventions and formats).
//!
//! Everything is gated on one process-global atomic flag, off by default:
//! a disabled [`span`] is a single relaxed atomic load, and
//! `lts-tensor`'s `disabled_span_overhead` test holds it under 1% of the
//! 256×256 GEMM it guards. Enable with [`set_enabled`].
//!
//! # Two time domains
//!
//! *Wall domain* — [`span`] measures real elapsed time on the thread that
//! opened the span. Spans nest per thread: each OS thread keeps its own
//! call-path stack, so a span opened on a worker thread roots a fresh
//! path there (paths record how many threads contributed). *Cycle
//! domain* — simulated time. A cycle track is an append-only timeline of
//! `(phase, label, cycles)` entries whose running sum is the track's
//! clock; nothing is measured, callers record the cycle counts their
//! models computed, so track totals reconcile exactly with report totals.
//!
//! # Example
//!
//! ```
//! lts_obs::reset();
//! lts_obs::set_enabled(true);
//! {
//!     let _outer = lts_obs::span("evaluate");
//!     let _inner = lts_obs::span("conv1");
//! }
//! lts_obs::counter_add("noc.cycles_simulated", 1234);
//! let track = lts_obs::cycle_track("system.evaluate");
//! lts_obs::cycle_record(track, "comm", "conv1", 700);
//! lts_obs::cycle_record(track, "compute", "conv1", 534);
//! lts_obs::set_enabled(false);
//!
//! let snap = lts_obs::snapshot();
//! assert_eq!(snap.probes[0].path, "evaluate");
//! assert_eq!(snap.probes[1].path, "evaluate;conv1");
//! assert_eq!(snap.cycles[0].total_cycles, 1234);
//! assert!(snap.folded().contains("evaluate;conv1 "));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]
#![deny(clippy::print_stdout, clippy::print_stderr)]

pub mod cycles;
pub mod metrics;
pub mod probe;
pub mod snapshot;

pub use cycles::{cycle_record, cycle_track, cycle_track_named, CycleTrackId};
pub use metrics::{counter_add, gauge_set};
pub use probe::{span, Span};
pub use snapshot::{
    snapshot, CounterRow, CycleSpanRow, CycleTrackRow, EventRow, GaugeRow, ProbeRow, Snapshot,
};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// The process-global recording flag. Off by default so instrumented hot
/// paths cost one relaxed load.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Whether probes, counters, and cycle tracks are recording.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns recording on or off process-wide. Spans already open keep the
/// state they were opened with.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// The wall-domain origin every span timestamp is relative to: fixed at
/// first use so timestamps stay monotonic across [`reset`] calls.
fn epoch_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    u64::try_from(EPOCH.get_or_init(Instant::now).elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Clears every recorded probe, counter, gauge, cycle track, and trace
/// event (live threads keep their identities; open spans will still
/// record when they close). Does not change the enabled flag.
pub fn reset() {
    probe::reset();
    metrics::reset();
    cycles::reset();
}

#[cfg(test)]
pub(crate) mod test_lock {
    //! All tests that touch the process-global registries (enable flag,
    //! probe sinks, counters, cycle tracks) serialize on this lock —
    //! `cargo test` runs tests on concurrent threads in one process.
    use std::sync::{Mutex, MutexGuard, PoisonError};

    static LOCK: Mutex<()> = Mutex::new(());

    pub fn guard() -> MutexGuard<'static, ()> {
        let g = LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        crate::reset();
        crate::set_enabled(false);
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_is_the_default_and_spans_record_nothing() {
        let _g = test_lock::guard();
        {
            let _s = span("never");
        }
        counter_add("never", 1);
        let snap = snapshot();
        assert!(snap.probes.is_empty(), "{snap:?}");
        assert!(snap.counters.is_empty(), "{snap:?}");
    }

    #[test]
    fn nested_spans_aggregate_by_call_path() {
        let _g = test_lock::guard();
        set_enabled(true);
        for _ in 0..3 {
            let _outer = span("outer");
            for _ in 0..2 {
                let _inner = span("inner");
            }
        }
        set_enabled(false);
        let snap = snapshot();
        let paths: Vec<(&str, u64)> =
            snap.probes.iter().map(|p| (p.path.as_str(), p.count)).collect();
        assert_eq!(paths, vec![("outer", 3), ("outer;inner", 6)]);
        let outer = &snap.probes[0];
        assert!(outer.sum_ms >= 0.0 && outer.mean_ms <= outer.max_ms, "{outer:?}");
        assert_eq!(snap.events.len(), 9, "one trace event per closed span");
    }

    #[test]
    fn paths_merge_across_threads_with_thread_counts() {
        let _g = test_lock::guard();
        set_enabled(true);
        let workers: Vec<_> = (0..3)
            .map(|_| {
                std::thread::spawn(|| {
                    for _ in 0..2 {
                        let _a = span("work");
                        let _b = span("step");
                    }
                })
            })
            .collect();
        for w in workers {
            w.join().expect("worker");
        }
        // Worker threads have exited, so their sinks were retired into
        // the global aggregate; the snapshot must see all of them merged.
        set_enabled(false);
        let snap = snapshot();
        let work = snap.probes.iter().find(|p| p.path == "work").expect("work row");
        assert_eq!((work.count, work.threads), (6, 3), "{work:?}");
        let step = snap.probes.iter().find(|p| p.path == "work;step").expect("step row");
        assert_eq!((step.count, step.threads), (6, 3), "{step:?}");
        // Each thread rooted its own path: `work` is a root, not nested
        // under anything from the spawning thread.
        assert_eq!(snap.probes.len(), 2, "{snap:?}");
    }

    #[test]
    fn reset_clears_all_domains() {
        let _g = test_lock::guard();
        set_enabled(true);
        {
            let _s = span("gone");
        }
        counter_add("gone", 7);
        gauge_set("gone", 7.0);
        let t = cycle_track("gone");
        cycle_record(t, "p", "l", 9);
        reset();
        set_enabled(false);
        let snap = snapshot();
        assert!(snap.probes.is_empty() && snap.counters.is_empty(), "{snap:?}");
        assert!(snap.gauges.is_empty() && snap.cycles.is_empty(), "{snap:?}");
        assert!(snap.events.is_empty(), "{snap:?}");
    }

    #[test]
    fn semicolons_in_span_names_cannot_forge_path_segments() {
        let _g = test_lock::guard();
        set_enabled(true);
        {
            let _s = span("a;b");
        }
        set_enabled(false);
        let snap = snapshot();
        assert_eq!(snap.probes.len(), 1);
        assert_eq!(snap.probes[0].path, "a:b");
    }
}
