//! One typed request/cell outcome vocabulary shared by the fault matrix
//! ([`crate::fault_matrix`]) and the online serving simulator
//! ([`crate::serve`]).
//!
//! Both harnesses previously grew their own ad-hoc outcome strings; this
//! module replaces them with a single closed enum so aggregate
//! histograms from a fault-matrix slice and a serving run can be
//! compared, merged, and asserted against the same vocabulary, and
//! [`Outcome::from_failure`] is the one place typed NoC failures become
//! outcomes.

use crate::{CoreError, Result};
use lts_noc::NocError;
use serde::{Deserialize, Serialize};

/// How one request (serving) or one cell (fault matrix) ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Outcome {
    /// Completed within the latency budget on the healthy system.
    Served,
    /// Completed, but only by riding the online recovery path after a
    /// mid-flight fault (a fault-matrix cell whose mid-flight schedule
    /// ends `Ok` is `Recovered`).
    Recovered,
    /// Dropped by admission control or deadline-based load shedding
    /// before any compute was spent on it.
    Shed,
    /// Completed, but after its latency deadline had already passed.
    DeadlineMiss,
    /// The fault set disconnected the mesh: a typed
    /// [`lts_noc::NocError::Unreachable`] ended the run.
    Unreachable,
    /// The simulation watchdog tripped
    /// ([`lts_noc::NocError::CycleLimitExceeded`]).
    CycleLimit,
}

impl Outcome {
    /// Every variant, in display order.
    pub const ALL: [Outcome; 6] = [
        Outcome::Served,
        Outcome::Recovered,
        Outcome::Shed,
        Outcome::DeadlineMiss,
        Outcome::Unreachable,
        Outcome::CycleLimit,
    ];

    /// Stable lowercase label (matches the legacy outcome strings where
    /// one existed: `unreachable`, `cycle-limit`).
    pub fn as_str(self) -> &'static str {
        match self {
            Outcome::Served => "served",
            Outcome::Recovered => "recovered",
            Outcome::Shed => "shed",
            Outcome::DeadlineMiss => "deadline-miss",
            Outcome::Unreachable => "unreachable",
            Outcome::CycleLimit => "cycle-limit",
        }
    }

    /// Whether the request/trial produced a usable result (served or
    /// recovered, on time).
    pub fn is_success(self) -> bool {
        matches!(self, Outcome::Served | Outcome::Recovered)
    }

    /// The fail-operational outcome of a run that failed with `error`:
    /// [`Outcome::Unreachable`] when the fault set disconnected the
    /// survivors, [`Outcome::CycleLimit`] when the watchdog tripped.
    ///
    /// # Errors
    ///
    /// Any other error comes back unchanged: it is a harness failure, not
    /// an outcome.
    pub fn from_failure(error: CoreError) -> Result<Outcome> {
        match error {
            CoreError::Noc(NocError::Unreachable { .. }) => Ok(Outcome::Unreachable),
            CoreError::Noc(NocError::CycleLimitExceeded { .. }) => Ok(Outcome::CycleLimit),
            other => Err(other),
        }
    }
}

impl std::fmt::Display for Outcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Aggregate counts over a set of outcomes — the shared shape of a
/// fault-matrix slice's cell histogram and a serving run's request
/// histogram.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct OutcomeHistogram {
    /// Requests/trials that completed within budget, fault-free.
    pub served: u64,
    /// Completions that rode the recovery path.
    pub recovered: u64,
    /// Requests dropped by admission/deadline shedding.
    pub shed: u64,
    /// Completions past their deadline.
    pub deadline_miss: u64,
    /// Typed mesh-disconnection failures.
    pub unreachable: u64,
    /// Watchdog trips.
    pub cycle_limit: u64,
}

impl OutcomeHistogram {
    /// Increments the bucket for `outcome`.
    pub fn record(&mut self, outcome: Outcome) {
        *self.bucket_mut(outcome) += 1;
    }

    /// The count in `outcome`'s bucket.
    pub fn count(&self, outcome: Outcome) -> u64 {
        match outcome {
            Outcome::Served => self.served,
            Outcome::Recovered => self.recovered,
            Outcome::Shed => self.shed,
            Outcome::DeadlineMiss => self.deadline_miss,
            Outcome::Unreachable => self.unreachable,
            Outcome::CycleLimit => self.cycle_limit,
        }
    }

    /// Sum over every bucket.
    pub fn total(&self) -> u64 {
        Outcome::ALL.iter().map(|&o| self.count(o)).sum()
    }

    /// Successful completions (served + recovered).
    pub fn successes(&self) -> u64 {
        self.served + self.recovered
    }

    /// Folds another histogram's counts into this one.
    pub fn merge(&mut self, other: &OutcomeHistogram) {
        for o in Outcome::ALL {
            *self.bucket_mut(o) += other.count(o);
        }
    }

    /// One-line `label=count` rendering (nonzero buckets only, every
    /// bucket when all are zero).
    pub fn render(&self) -> String {
        let parts: Vec<String> = Outcome::ALL
            .iter()
            .filter(|&&o| self.count(o) > 0)
            .map(|&o| format!("{}={}", o.as_str(), self.count(o)))
            .collect();
        if parts.is_empty() {
            "empty".into()
        } else {
            parts.join(" ")
        }
    }

    fn bucket_mut(&mut self, outcome: Outcome) -> &mut u64 {
        match outcome {
            Outcome::Served => &mut self.served,
            Outcome::Recovered => &mut self.recovered,
            Outcome::Shed => &mut self.shed,
            Outcome::DeadlineMiss => &mut self.deadline_miss,
            Outcome::Unreachable => &mut self.unreachable,
            Outcome::CycleLimit => &mut self.cycle_limit,
        }
    }
}

impl FromIterator<Outcome> for OutcomeHistogram {
    fn from_iter<I: IntoIterator<Item = Outcome>>(outcomes: I) -> Self {
        let mut h = OutcomeHistogram::default();
        for o in outcomes {
            h.record(o);
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_stable_and_distinct() {
        let mut seen = std::collections::HashSet::new();
        for o in Outcome::ALL {
            assert!(seen.insert(o.as_str()), "duplicate label {}", o);
        }
        // Legacy outcome strings survive the migration.
        assert_eq!(Outcome::Unreachable.as_str(), "unreachable");
        assert_eq!(Outcome::CycleLimit.as_str(), "cycle-limit");
        assert!(Outcome::Served.is_success());
        assert!(Outcome::Recovered.is_success());
        assert!(!Outcome::Shed.is_success());
        assert!(!Outcome::DeadlineMiss.is_success());
    }

    #[test]
    fn typed_noc_failures_become_outcomes_and_other_errors_pass_through() {
        let unreachable = CoreError::Noc(NocError::Unreachable { src: 0, dst: 3 });
        assert_eq!(Outcome::from_failure(unreachable).unwrap(), Outcome::Unreachable);
        let watchdog = CoreError::Noc(NocError::CycleLimitExceeded { limit: 9, undelivered: 1 });
        assert_eq!(Outcome::from_failure(watchdog).unwrap(), Outcome::CycleLimit);
        let bad = CoreError::BadConfig("no".into());
        assert!(matches!(Outcome::from_failure(bad), Err(CoreError::BadConfig(_))));
        let h: OutcomeHistogram = [Outcome::Served, Outcome::Unreachable].into_iter().collect();
        assert_eq!(h.render(), "served=1 unreachable=1");
    }

    #[test]
    fn histogram_records_counts_and_merges() {
        let mut h = OutcomeHistogram::default();
        assert_eq!(h.total(), 0);
        assert_eq!(h.render(), "empty");
        h.record(Outcome::Served);
        h.record(Outcome::Served);
        h.record(Outcome::Shed);
        assert_eq!(h.count(Outcome::Served), 2);
        assert_eq!(h.total(), 3);
        assert_eq!(h.successes(), 2);
        let mut other = OutcomeHistogram::default();
        other.record(Outcome::Recovered);
        other.record(Outcome::DeadlineMiss);
        h.merge(&other);
        assert_eq!(h.total(), 5);
        assert_eq!(h.successes(), 3);
        assert_eq!(h.render(), "served=2 recovered=1 shed=1 deadline-miss=1");
    }

    #[test]
    fn serde_round_trips() {
        let mut h = OutcomeHistogram::default();
        h.record(Outcome::CycleLimit);
        let json = serde_json::to_string(&(Outcome::Shed, h)).unwrap();
        let (o, back): (Outcome, OutcomeHistogram) = serde_json::from_str(&json).unwrap();
        assert_eq!(o, Outcome::Shed);
        assert_eq!(back, h);
    }

    #[test]
    fn every_variant_has_its_own_bucket() {
        let h: OutcomeHistogram = Outcome::ALL
            .iter()
            .enumerate()
            .flat_map(|(i, &o)| std::iter::repeat_n(o, i + 1))
            .collect();
        for (i, &o) in Outcome::ALL.iter().enumerate() {
            assert_eq!(h.count(o), i as u64 + 1, "{o}");
        }
        assert_eq!(h.total(), 21);
        assert_eq!(h.successes(), 1 + 2);
        assert_eq!(
            h.render(),
            "served=1 recovered=2 shed=3 deadline-miss=4 unreachable=5 cycle-limit=6"
        );
    }

    #[test]
    fn merging_an_empty_histogram_changes_nothing() {
        let h: OutcomeHistogram = [Outcome::Shed, Outcome::CycleLimit].into_iter().collect();
        let mut merged = h;
        merged.merge(&OutcomeHistogram::default());
        assert_eq!(merged, h);
        let mut from_empty = OutcomeHistogram::default();
        from_empty.merge(&h);
        assert_eq!(from_empty, h);
    }

    #[test]
    fn display_matches_as_str_and_failures_are_not_successes() {
        for o in Outcome::ALL {
            assert_eq!(o.to_string(), o.as_str());
        }
        assert!(!Outcome::Unreachable.is_success());
        assert!(!Outcome::CycleLimit.is_success());
    }
}
