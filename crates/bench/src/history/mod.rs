//! Performance history: parent/change pairs over the repository
//! benchmark, and the rank statistics that judge them (see `DESIGN.md`
//! §18).
//!
//! * **[`pairs`]** — the contract read from `BENCHMARK.json`, the result
//!   lines and ledger lines of benchmark runs, and the pure summary that
//!   turns a workload's pairs into verdicts;
//! * **[`stats`]** — median, MAD and the Mann–Whitney U rank test.
//!
//! Driven by `bench_history pairs`.

pub mod pairs;
pub mod stats;
