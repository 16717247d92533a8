//! Cross-sweep NoC simulation memoization.
//!
//! A NoC run is a pure function of the triple *(configuration, fault
//! model, message trace)*: [`Simulator::run`] resets every piece of
//! mutable state — router queues, NIC protocol state, the fault RNG —
//! before stepping, so two runs with an identical triple produce
//! bit-identical [`SimReport`]s (the `equivalence` and golden tests in
//! `lts-noc` pin this). The experiment sweeps exploit that heavily:
//! strategies share dense early layers, effort presets re-evaluate the
//! same plans, and ablations re-simulate unchanged transitions. This
//! module collapses each repeated triple to one simulation.
//!
//! The cache key is the FNV-1a 64-bit hash (the same content hash the
//! snapshot format uses, [`lts_nn::saved::fnv1a64`]) over a binary
//! encoding of the lookup, built by [`encode_key`]:
//!
//! 1. the `serde_json` encoding of the small `(config, fault)` header,
//!    prefixed by its length;
//! 2. the message count, then `src, dst, bytes, inject_cycle` of each
//!    message, every field a fixed-width little-endian `u64`;
//! 3. a tag byte — 0 for an unkeyed lookup, 1 for a keyed one — and,
//!    for a keyed lookup, the context string's bytes, which run to the
//!    end.
//!
//! Every part before the context has a width fixed by the bytes before
//! it, so two different lookups never share an encoding: messages cannot
//! trade fields, traces of different lengths cannot line up, and a keyed
//! lookup with an empty context differs from an unkeyed one by its tag.
//! The full encoding is stored next to each cached report and compared
//! byte-for-byte on lookup, so a hash collision degrades to a miss
//! instead of returning a wrong report. Key building and lookup run in a
//! `core.simcache` span, so their cost shows as its own row in a trace.
//!
//! The cache is process-global and thread-safe. Set `LTS_SIM_CACHE=0` to
//! disable it (every call then simulates); [`reset`] clears entries and
//! counters, [`stats`] exposes hit/miss totals for benches and sweeps.
//!
//! Callers whose runs are *not* pure functions of the triple — the
//! serving simulator's entry bursts depend on the arrival seed and
//! batch composition — use [`run_cached_keyed`] to fold an opaque
//! context string into the key.

use lts_noc::traffic::Message;
use lts_noc::{FaultModel, NocConfig, NocError, SimReport, Simulator};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::Mutex;

/// Snapshot of the cache's lifetime counters (see [`stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SimCacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that fell through to a real simulation.
    pub misses: u64,
    /// Reports currently stored.
    pub entries: usize,
}

/// Per-evaluation accounting of how much NoC simulation was consumed
/// versus answered from this cache. Carried on
/// [`SystemReport`](crate::SystemReport) and merged across recovery
/// segments, so sweeps and recovery summaries can tell cached from
/// simulated work apart without reaching for the process-global
/// [`stats`] counters.
///
/// `cycles_simulated` / `cycles_fast_forwarded` count only runs that
/// actually stepped the simulator — a cache hit contributes to
/// `cache_hits` and nothing else.
///
/// Equality is intentionally vacuous: cache temperature is an artifact
/// of run order, not a property of the modeled system, so two otherwise
/// identical reports (one warmed, one cold) still compare equal — the
/// recovery determinism tests rely on whole-report `==`.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct SimUsage {
    /// Transitions that fell through to a real simulation.
    pub sims: u64,
    /// Transitions answered from the cross-sweep cache.
    pub cache_hits: u64,
    /// Cycles the active-set stepper evaluated, over the simulated runs.
    pub cycles_simulated: u64,
    /// Idle cycles skipped by fast-forward, over the simulated runs.
    pub cycles_fast_forwarded: u64,
}

impl SimUsage {
    /// Total lookups (simulated + cached).
    pub fn lookups(&self) -> u64 {
        self.sims.saturating_add(self.cache_hits)
    }

    /// Folds another evaluation's usage into this one.
    pub fn merge(&mut self, other: &SimUsage) {
        self.sims = self.sims.saturating_add(other.sims);
        self.cache_hits = self.cache_hits.saturating_add(other.cache_hits);
        self.cycles_simulated = self.cycles_simulated.saturating_add(other.cycles_simulated);
        self.cycles_fast_forwarded =
            self.cycles_fast_forwarded.saturating_add(other.cycles_fast_forwarded);
    }
}

impl PartialEq for SimUsage {
    fn eq(&self, _: &Self) -> bool {
        true // see type docs: cache temperature is not semantic identity
    }
}

/// Entry cap: sweeps re-simulate a bounded set of transitions, so this is
/// generous; beyond it new triples still simulate, they just stop being
/// recorded (counted as misses).
const MAX_ENTRIES: usize = 8192;

/// One memoized simulation: the canonical key encoding (kept for
/// collision verification) and the report it produced.
struct Entry {
    encoding: Vec<u8>,
    report: SimReport,
}

/// Hash-indexed store plus lifetime counters.
#[derive(Default)]
struct Cache {
    map: HashMap<u64, Vec<Entry>>,
    entries: usize,
    hits: u64,
    misses: u64,
}

impl Cache {
    /// Records a hit or a miss and returns the hit's report.
    fn lookup(&mut self, hash: u64, encoding: &[u8]) -> Option<SimReport> {
        let hit = self
            .map
            .get(&hash)
            .and_then(|bucket| bucket.iter().find(|e| e.encoding == encoding))
            .map(|e| e.report.clone());
        match hit {
            Some(_) => self.hits += 1,
            None => self.misses += 1,
        }
        hit
    }

    /// Stores a freshly simulated report unless the cache is full or a
    /// concurrent caller already stored the same triple.
    fn insert(&mut self, hash: u64, encoding: Vec<u8>, report: &SimReport) {
        if self.entries >= MAX_ENTRIES {
            return;
        }
        let bucket = self.map.entry(hash).or_default();
        if bucket.iter().all(|e| e.encoding != encoding) {
            bucket.push(Entry { encoding, report: report.clone() });
            self.entries += 1;
        }
    }

    fn stats(&self) -> SimCacheStats {
        SimCacheStats { hits: self.hits, misses: self.misses, entries: self.entries }
    }
}

/// A thread-safe memoization store. The process-global instance behind
/// [`run_cached`]/[`stats`]/[`reset`] is the normal entry point; tests
/// construct private instances for deterministic counters.
#[derive(Default)]
struct SharedCache(Mutex<Option<Cache>>);

impl SharedCache {
    // The `Option` exists only because `HashMap::new` is not const:
    // `locked` materializes the cache on first touch.
    fn locked<R>(&self, f: impl FnOnce(&mut Cache) -> R) -> R {
        let mut guard = self.0.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        f(guard.get_or_insert_with(Cache::default))
    }

    fn run_cached(
        &self,
        sim: &mut Simulator,
        config: &NocConfig,
        fault: &FaultModel,
        messages: &[Message],
        context: Option<&str>,
        usage: &mut SimUsage,
    ) -> Result<SimReport, NocError> {
        let simulate = |sim: &mut Simulator, usage: &mut SimUsage| {
            let report = sim.run(messages)?;
            usage.sims = usage.sims.saturating_add(1);
            usage.cycles_simulated = usage.cycles_simulated.saturating_add(report.cycles_simulated);
            usage.cycles_fast_forwarded =
                usage.cycles_fast_forwarded.saturating_add(report.cycles_fast_forwarded);
            Ok(report)
        };
        if !enabled() {
            return simulate(sim, usage);
        }
        let (hash, encoding) = {
            let _probe = lts_obs::span("core.simcache");
            let Some(encoding) = encode_key(config, fault, messages, context) else {
                return simulate(sim, usage);
            };
            let hash = lts_nn::saved::fnv1a64(&encoding);
            if let Some(report) = self.locked(|c| c.lookup(hash, &encoding)) {
                usage.cache_hits = usage.cache_hits.saturating_add(1);
                return Ok(report);
            }
            (hash, encoding)
        };
        // Simulate outside the lock: concurrent sweeps may duplicate a
        // miss, but they never serialize on each other's simulations.
        let report = simulate(sim, usage)?;
        let _probe = lts_obs::span("core.simcache");
        self.locked(|c| c.insert(hash, encoding, &report));
        Ok(report)
    }
}

/// The cache-key encoding of one lookup (layout in the module docs), or
/// `None` if the `(config, fault)` header fails to serialize.
fn encode_key(
    config: &NocConfig,
    fault: &FaultModel,
    messages: &[Message],
    context: Option<&str>,
) -> Option<Vec<u8>> {
    let header = serde_json::to_string(&(config, fault)).ok()?;
    let context = context.map(str::as_bytes);
    let len = 8 + header.len() + 8 + 32 * messages.len() + 1 + context.map_or(0, <[u8]>::len);
    let mut key = Vec::with_capacity(len);
    key.extend_from_slice(&(header.len() as u64).to_le_bytes());
    key.extend_from_slice(header.as_bytes());
    key.extend_from_slice(&(messages.len() as u64).to_le_bytes());
    for m in messages {
        for v in [m.src as u64, m.dst as u64, m.bytes, m.inject_cycle] {
            key.extend_from_slice(&v.to_le_bytes());
        }
    }
    match context {
        None => key.push(0),
        Some(ctx) => {
            key.push(1);
            key.extend_from_slice(ctx);
        }
    }
    debug_assert_eq!(key.len(), len);
    Some(key)
}

static CACHE: SharedCache = SharedCache(Mutex::new(None));

/// Whether memoization is active (`LTS_SIM_CACHE=0` disables it).
pub fn enabled() -> bool {
    std::env::var("LTS_SIM_CACHE").map_or(true, |v| v != "0")
}

/// Clears every cached report and zeroes the hit/miss counters.
pub fn reset() {
    CACHE.locked(|c| *c = Cache::default());
}

/// Lifetime hit/miss counters and current entry count.
pub fn stats() -> SimCacheStats {
    CACHE.locked(|c| c.stats())
}

/// Runs `messages` through `sim`, memoized on the `(config, fault,
/// messages)` triple, and accounts the lookup into `usage`.
///
/// On a hit the stored report is cloned back without stepping the
/// simulator. On a miss (or when the cache is disabled, or the
/// `(config, fault)` header fails to serialize) the simulation runs
/// normally; successful reports are inserted, errors are never cached.
///
/// # Errors
///
/// Exactly those of [`Simulator::run`].
pub fn run_cached(
    sim: &mut Simulator,
    config: &NocConfig,
    fault: &FaultModel,
    messages: &[Message],
    usage: &mut SimUsage,
) -> Result<SimReport, NocError> {
    CACHE.run_cached(sim, config, fault, messages, None, usage)
}

/// Like [`run_cached`], but the key additionally covers an opaque
/// `context` string. The serving path uses this to fold the arrival
/// seed and batch composition into the key: two sweeps at different
/// rates or seeds replay physically identical entry bursts, and without
/// the context they would alias even though the surrounding serving
/// state differs. Keyed and unkeyed entries never alias each other (their
/// encodings carry different tag bytes), even with an empty context.
///
/// # Errors
///
/// Exactly those of [`Simulator::run`].
pub fn run_cached_keyed(
    sim: &mut Simulator,
    config: &NocConfig,
    fault: &FaultModel,
    messages: &[Message],
    context: &str,
    usage: &mut SimUsage,
) -> Result<SimReport, NocError> {
    CACHE.run_cached(sim, config, fault, messages, Some(context), usage)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lts_noc::NocConfig;

    // Tests use private `SharedCache` instances, not the process-global
    // one: the global's counters move under concurrently running system
    // tests, so exact-count assertions against it would be flaky.

    fn trace() -> Vec<Message> {
        vec![Message::new(0, 5, 256, 0), Message::new(3, 12, 1024, 40)]
    }

    #[test]
    fn hit_returns_bit_identical_report_without_resimulating() {
        let cache = SharedCache::default();
        let config = NocConfig::paper_16core();
        let fault = FaultModel::none();
        let mut sim = Simulator::with_faults(config, fault.clone()).unwrap();
        let mut usage = SimUsage::default();
        let first =
            cache.run_cached(&mut sim, &config, &fault, &trace(), None, &mut usage).unwrap();
        let again =
            cache.run_cached(&mut sim, &config, &fault, &trace(), None, &mut usage).unwrap();
        assert_eq!(first, again);
        assert_eq!(first, sim.run(&trace()).unwrap(), "cache must match a direct run");
        let s = cache.locked(|c| c.stats());
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
        assert_eq!((usage.sims, usage.cache_hits, usage.lookups()), (1, 1, 2));
        assert_eq!(
            usage.cycles_simulated, first.cycles_simulated,
            "the hit must not re-account the stored run's stepped cycles"
        );
        assert_eq!(usage.cycles_fast_forwarded, first.cycles_fast_forwarded);
    }

    #[test]
    fn sim_usage_merges_and_compares_vacuously() {
        let mut a =
            SimUsage { sims: 1, cache_hits: 2, cycles_simulated: 10, cycles_fast_forwarded: 20 };
        let b = SimUsage {
            sims: u64::MAX,
            cache_hits: 1,
            cycles_simulated: 5,
            cycles_fast_forwarded: 7,
        };
        a.merge(&b);
        assert_eq!(a.sims, u64::MAX, "merge saturates");
        assert_eq!((a.cache_hits, a.cycles_simulated, a.cycles_fast_forwarded), (3, 15, 27));
        // Cache temperature never breaks report equality.
        assert_eq!(a, SimUsage::default());
    }

    #[test]
    fn distinct_triples_do_not_alias() {
        let cache = SharedCache::default();
        let config = NocConfig::paper_16core();
        let clean = FaultModel::none();
        let drops = FaultModel::none().with_seed(7).drop_rate(0.05);
        let mut sim_clean = Simulator::with_faults(config, clean.clone()).unwrap();
        let mut sim_drops = Simulator::with_faults(config, drops.clone()).unwrap();
        let mut usage = SimUsage::default();
        let a =
            cache.run_cached(&mut sim_clean, &config, &clean, &trace(), None, &mut usage).unwrap();
        let b =
            cache.run_cached(&mut sim_drops, &config, &drops, &trace(), None, &mut usage).unwrap();
        assert!(!a.faults.any());
        assert!(b.faults.any(), "a 5% drop rate over this trace must fire");
        assert_ne!(a, b);
        let s = cache.locked(|c| c.stats());
        assert_eq!((s.hits, s.misses, s.entries), (0, 2, 2));
    }

    #[test]
    fn topologies_with_identical_geometry_do_not_alias() {
        // An 8×4 single-chip mesh and a 2×(4×4)-chiplet package have the
        // same node grid but different link pricing: the key must keep
        // their triples apart.
        let cache = SharedCache::default();
        let mesh = NocConfig::paper_cores(32).unwrap();
        let mcm = NocConfig::paper_mcm(2, 16).unwrap();
        assert_eq!(mesh.nodes(), mcm.nodes());
        let fault = FaultModel::none();
        let mut sim_mesh = Simulator::with_faults(mesh, fault.clone()).unwrap();
        let mut sim_mcm = Simulator::with_faults(mcm, fault.clone()).unwrap();
        let mut usage = SimUsage::default();
        let cross = vec![Message::new(0, 31, 2048, 0)];
        let a = cache.run_cached(&mut sim_mesh, &mesh, &fault, &cross, None, &mut usage).unwrap();
        let b = cache.run_cached(&mut sim_mcm, &mcm, &fault, &cross, None, &mut usage).unwrap();
        assert_eq!(a.inter_chip_traversals, 0);
        assert!(b.inter_chip_traversals > 0, "0→31 must cross the seam");
        assert_ne!(a, b, "seam pricing must show up in the report");
        let s = cache.locked(|c| c.stats());
        assert_eq!((s.hits, s.misses, s.entries), (0, 2, 2));
    }

    #[test]
    fn serving_contexts_with_identical_triples_do_not_alias() {
        // The serving path replays physically identical entry bursts
        // under different arrival seeds/rates: the context must keep
        // those lookups apart, and keyed entries must never alias the
        // unkeyed triple either.
        let cache = SharedCache::default();
        let config = NocConfig::paper_16core();
        let fault = FaultModel::none();
        let mut sim = Simulator::with_faults(config, fault.clone()).unwrap();
        let mut usage = SimUsage::default();
        let ctx_a = "serve:seed=1:proc=poisson@4:batch=2:ii=100";
        let ctx_b = "serve:seed=2:proc=poisson@4:batch=2:ii=100";
        let a =
            cache.run_cached(&mut sim, &config, &fault, &trace(), Some(ctx_a), &mut usage).unwrap();
        let b =
            cache.run_cached(&mut sim, &config, &fault, &trace(), Some(ctx_b), &mut usage).unwrap();
        let unkeyed =
            cache.run_cached(&mut sim, &config, &fault, &trace(), None, &mut usage).unwrap();
        assert_eq!(a, b, "same physical trace, same report");
        assert_eq!(a, unkeyed);
        let s = cache.locked(|c| c.stats());
        assert_eq!((s.hits, s.misses, s.entries), (0, 3, 3), "three distinct keys, no aliasing");
        // Replaying a known context is a hit.
        let again =
            cache.run_cached(&mut sim, &config, &fault, &trace(), Some(ctx_a), &mut usage).unwrap();
        assert_eq!(again, a);
        let s = cache.locked(|c| c.stats());
        assert_eq!((s.hits, s.misses, s.entries), (1, 3, 3));
        assert_eq!((usage.sims, usage.cache_hits), (3, 1));
    }

    /// Runs each `(trace, context)` lookup through one fresh cache and
    /// returns the final counters.
    fn lookup_all(lookups: &[(&[Message], Option<&str>)]) -> SimCacheStats {
        let cache = SharedCache::default();
        let config = NocConfig::paper_16core();
        let fault = FaultModel::none();
        let mut sim = Simulator::with_faults(config, fault.clone()).unwrap();
        let mut usage = SimUsage::default();
        for &(t, ctx) in lookups {
            cache.run_cached(&mut sim, &config, &fault, t, ctx, &mut usage).unwrap();
        }
        cache.locked(|c| c.stats())
    }

    fn key(messages: &[Message], context: Option<&str>) -> Vec<u8> {
        encode_key(&NocConfig::paper_16core(), &FaultModel::none(), messages, context).unwrap()
    }

    #[test]
    fn messages_with_swapped_fields_do_not_alias() {
        let m = Message::new(2, 9, 300, 40);
        let swapped = [
            [m],
            [Message::new(m.dst, m.src, m.bytes, m.inject_cycle)],
            [Message::new(m.src, m.dst, m.inject_cycle, m.bytes)],
        ];
        let keys = swapped.map(|t| key(&t, None));
        assert!(keys[0] != keys[1] && keys[0] != keys[2] && keys[1] != keys[2]);
        let s = lookup_all(&swapped.each_ref().map(|t| (&t[..], None)));
        assert_eq!((s.hits, s.misses, s.entries), (0, 3, 3));
    }

    #[test]
    fn traces_of_different_lengths_do_not_alias() {
        // b.src = 1 makes b's first byte equal the keyed tag, so after the
        // message count, [a, b] unkeyed and [a] keyed by the rest of b's
        // bytes (plus the unkeyed tag) encode byte for byte the same: only
        // the count keeps them apart.
        let (a, b) = (Message::new(0, 5, 256, 0), Message::new(1, 12, 1024, 40));
        let long = key(&[a, b], None);
        let rest = &long[long.len() - 32..];
        let context = std::str::from_utf8(rest).unwrap();
        let short = key(&[a], Some(context));
        assert_eq!(long.len(), short.len());
        let count = long.len() - 32 * 2 - 1 - 8;
        assert_eq!(long[count + 8..], short[count + 8..]);
        assert_ne!(long[count..count + 8], short[count..count + 8]);
        let s = lookup_all(&[(&[a, b], None), (&[a], Some(context))]);
        assert_eq!((s.hits, s.misses, s.entries), (0, 2, 2));
    }

    #[test]
    fn keyed_lookup_with_empty_context_does_not_alias_unkeyed() {
        assert_ne!(key(&trace(), None), key(&trace(), Some("")));
        let s = lookup_all(&[(&trace(), None), (&trace(), Some(""))]);
        assert_eq!((s.hits, s.misses, s.entries), (0, 2, 2));
    }

    #[test]
    fn global_cache_agrees_with_direct_run() {
        // The global cache is shared with concurrently running tests, so
        // only the monotonic effect of one extra lookup is asserted.
        let config = NocConfig::paper_16core();
        let fault = FaultModel::none();
        let mut sim = Simulator::with_faults(config, fault.clone()).unwrap();
        let before = stats();
        let direct = sim.run(&trace()).unwrap();
        let mut usage = SimUsage::default();
        let via_cache = run_cached(&mut sim, &config, &fault, &trace(), &mut usage).unwrap();
        assert_eq!(direct, via_cache);
        let after = stats();
        assert!(after.hits + after.misses > before.hits + before.misses);
    }
}
