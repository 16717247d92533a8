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
//!    message, every field a fixed-width little-endian `u64`.
//!
//! Every part has a width fixed by the bytes before it, so two different
//! lookups never share an encoding: messages cannot trade fields and
//! traces of different lengths cannot line up. The full encoding is stored next to each cached report and compared
//! byte-for-byte on lookup, so a hash collision degrades to a miss
//! instead of returning a wrong report. Key building and lookup run in a
//! `core.simcache` span, so their cost shows as its own row in a trace.
//!
//! The cache is process-global and thread-safe. Set `LTS_SIM_CACHE=0` to
//! disable it (every call then simulates); [`reset`] clears entries and
//! counters, [`stats`] exposes hit/miss totals for benches and sweeps.
//!
//! Every caller's run is a pure triple, the serving simulator's
//! staggered entry bursts included: the request stream decides when a
//! burst runs, never what it simulates. So there is no keyed lookup —
//! two streams that replay the same burst share its entry.
//!
//! One periodic run ([`run_periodic_cached`], over
//! [`Simulator::run_periodic`]) fills several such entries at once: each
//! prefix of its copies is stored under the key of its own expanded trace,
//! exactly the triple [`run_cached`] would look up for it. It counts as one
//! lookup, keyed on the longest prefix, and as one simulation. The
//! prefixes keep only their headers and share the longest prefix's
//! encoding for their message bytes.

use lts_noc::traffic::Message;
use lts_noc::{FaultModel, NocConfig, NocError, SimReport, Simulator};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::ops::Range;
use std::sync::{Arc, Mutex};

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
/// `cycles_simulated` / `cycles_fast_forwarded` count only cycles the
/// stepper actually evaluated or skipped — a cache hit contributes to
/// `cache_hits` and nothing else, and a periodic run's copies built from
/// its fixed point count as `cycles_replicated`.
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
    /// Cycles the active-set stepper evaluated (stepped), over the
    /// simulated runs.
    pub cycles_simulated: u64,
    /// Idle cycles skipped by fast-forward, over the simulated runs.
    pub cycles_fast_forwarded: u64,
    /// Cycles periodic runs extended from a fixed point instead of
    /// stepping ([`lts_noc::PeriodicReport::cycles_replicated`]).
    pub cycles_replicated: u64,
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
        self.cycles_replicated = self.cycles_replicated.saturating_add(other.cycles_replicated);
    }

    /// Accounts one run that stepped `simulated` cycles, fast-forwarded
    /// `fast_forwarded` and replicated `replicated`.
    fn add_run(&mut self, simulated: u64, fast_forwarded: u64, replicated: u64) {
        self.merge(&SimUsage {
            sims: 1,
            cache_hits: 0,
            cycles_simulated: simulated,
            cycles_fast_forwarded: fast_forwarded,
            cycles_replicated: replicated,
        });
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
/// collision verification) and the report it produced. The encoding is
/// `head` followed by `shared[body]`: the prefixes of one periodic run
/// keep only their headers and share the longest prefix's encoding for
/// their message bytes.
struct Entry {
    head: Vec<u8>,
    shared: Arc<Vec<u8>>,
    body: Range<usize>,
    report: SimReport,
}

impl Entry {
    fn matches(&self, encoding: &[u8]) -> bool {
        let body = &self.shared[self.body.clone()];
        encoding.len() == self.head.len() + body.len()
            && encoding.starts_with(&self.head)
            && encoding.ends_with(body)
    }
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
        let hit = self.peek(hash, encoding);
        match hit {
            Some(_) => self.hits += 1,
            None => self.misses += 1,
        }
        hit
    }

    /// The stored report of a lookup, without counting it.
    fn peek(&self, hash: u64, encoding: &[u8]) -> Option<SimReport> {
        let bucket = self.map.get(&hash)?;
        bucket.iter().find(|e| e.matches(encoding)).map(|e| e.report.clone())
    }

    /// Stores a freshly simulated report unless the cache is full or a
    /// concurrent caller already stored the same triple.
    /// `encoding` must end in `shared[body]`.
    fn insert(
        &mut self,
        hash: u64,
        encoding: &[u8],
        shared: &Arc<Vec<u8>>,
        body: Range<usize>,
        report: &SimReport,
    ) {
        if self.entries >= MAX_ENTRIES {
            return;
        }
        let bucket = self.map.entry(hash).or_default();
        if bucket.iter().all(|e| !e.matches(encoding)) {
            let head = encoding[..encoding.len() - body.len()].to_vec();
            let shared = Arc::clone(shared);
            let entry = Entry { head, shared, body, report: report.clone() };
            debug_assert!(entry.matches(encoding), "the shared bytes do not end the encoding");
            bucket.push(entry);
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
        usage: &mut SimUsage,
    ) -> Result<SimReport, NocError> {
        let simulate = |sim: &mut Simulator, usage: &mut SimUsage| {
            let report = sim.run(messages)?;
            usage.add_run(report.cycles_simulated, report.cycles_fast_forwarded, 0);
            Ok(report)
        };
        if !enabled() {
            return simulate(sim, usage);
        }
        let (hash, encoding) = {
            let _probe = lts_obs::span("core.simcache");
            let Some(encoding) = encode_key(config, fault, messages) else {
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
        let shared = Arc::new(encoding);
        self.locked(|c| c.insert(hash, &shared, &shared, 0..shared.len(), &report));
        Ok(report)
    }

    fn run_periodic_cached(
        &self,
        sim: &mut Simulator,
        burst: &[Message],
        period: u64,
        copies: usize,
        usage: &mut SimUsage,
    ) -> Result<Vec<Option<SimReport>>, NocError> {
        let simulate = |sim: &mut Simulator, usage: &mut SimUsage| {
            let run = sim.run_periodic(burst, period, copies)?;
            usage.add_run(run.cycles_simulated, run.cycles_fast_forwarded, run.cycles_replicated);
            Ok(run.prefixes)
        };
        if !enabled() || copies == 0 {
            return simulate(sim, usage);
        }
        let Some(trace) = lts_noc::traffic::periodic(burst, period, copies) else {
            return simulate(sim, usage);
        };
        // Prefix `b`'s key, built only when it is used: each is as long as
        // its trace.
        let key = |sim: &Simulator, b: usize| {
            let _probe = lts_obs::span("core.simcache");
            let encoding = encode_key(sim.config(), sim.fault_model(), &trace[..b * burst.len()])?;
            Some((lts_nn::saved::fnv1a64(&encoding), encoding))
        };
        let Some((hash, encoding)) = key(sim, copies) else { return simulate(sim, usage) };
        // One lookup, on the longest prefix: a periodic run always stores
        // it, beside every shorter prefix it vouched for.
        if let Some(longest) = self.locked(|c| c.lookup(hash, &encoding)) {
            usage.cache_hits = usage.cache_hits.saturating_add(1);
            let mut prefixes: Vec<Option<SimReport>> = (1..copies)
                .map(|b| {
                    key(sim, b)
                        .and_then(|(hash, encoding)| self.locked(|c| c.peek(hash, &encoding)))
                })
                .collect();
            prefixes.push(Some(longest));
            return Ok(prefixes);
        }
        let prefixes = simulate(sim, usage)?;
        // Every prefix's message bytes begin the longest prefix's.
        let messages = encoding.len() - KEY_BYTES * trace.len();
        let shared = Arc::new(encoding);
        for (b, prefix) in (1..).zip(&prefixes) {
            if let (Some(report), Some((hash, encoding))) = (prefix, key(sim, b)) {
                let body = messages..messages + KEY_BYTES * b * burst.len();
                self.locked(|c| c.insert(hash, &encoding, &shared, body, report));
            }
        }
        Ok(prefixes)
    }
}

/// Bytes of one message in a key encoding: four `u64` fields.
const KEY_BYTES: usize = 32;

/// The cache-key encoding of one lookup (layout in the module docs), or
/// `None` if the `(config, fault)` header fails to serialize.
fn encode_key(config: &NocConfig, fault: &FaultModel, messages: &[Message]) -> Option<Vec<u8>> {
    let header = serde_json::to_string(&(config, fault)).ok()?;
    let len = 8 + header.len() + 8 + KEY_BYTES * messages.len();
    let mut key = Vec::with_capacity(len);
    key.extend_from_slice(&(header.len() as u64).to_le_bytes());
    key.extend_from_slice(header.as_bytes());
    key.extend_from_slice(&(messages.len() as u64).to_le_bytes());
    for m in messages {
        for v in [m.src as u64, m.dst as u64, m.bytes, m.inject_cycle] {
            key.extend_from_slice(&v.to_le_bytes());
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

/// Runs `copies` copies of `burst`, `period` cycles apart, through one
/// [`Simulator::run_periodic`] on `sim` and returns the report of every
/// prefix of them (`None` where the periodic run declined one), accounting
/// one lookup into `usage`.
///
/// Each prefix is stored under the key of its expanded trace — the triple
/// [`run_cached`] would look up for it — so the cache stays a map of pure
/// triples. The lookup hits when the longest prefix is stored, and then
/// returns every prefix the cache holds.
///
/// # Errors
///
/// Exactly those of [`Simulator::run_periodic`].
pub fn run_periodic_cached(
    sim: &mut Simulator,
    burst: &[Message],
    period: u64,
    copies: usize,
    usage: &mut SimUsage,
) -> Result<Vec<Option<SimReport>>, NocError> {
    CACHE.run_periodic_cached(sim, burst, period, copies, usage)
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
    CACHE.run_cached(sim, config, fault, messages, usage)
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
        let first = cache.run_cached(&mut sim, &config, &fault, &trace(), &mut usage).unwrap();
        let again = cache.run_cached(&mut sim, &config, &fault, &trace(), &mut usage).unwrap();
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
        let mut a = SimUsage {
            sims: 1,
            cache_hits: 2,
            cycles_simulated: 10,
            cycles_fast_forwarded: 20,
            cycles_replicated: 30,
        };
        let b = SimUsage {
            sims: u64::MAX,
            cache_hits: 1,
            cycles_simulated: 5,
            cycles_fast_forwarded: 7,
            cycles_replicated: 9,
        };
        a.merge(&b);
        assert_eq!(a.sims, u64::MAX, "merge saturates");
        assert_eq!((a.cache_hits, a.cycles_simulated, a.cycles_fast_forwarded), (3, 15, 27));
        assert_eq!(a.cycles_replicated, 39);
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
        let a = cache.run_cached(&mut sim_clean, &config, &clean, &trace(), &mut usage).unwrap();
        let b = cache.run_cached(&mut sim_drops, &config, &drops, &trace(), &mut usage).unwrap();
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
        let a = cache.run_cached(&mut sim_mesh, &mesh, &fault, &cross, &mut usage).unwrap();
        let b = cache.run_cached(&mut sim_mcm, &mcm, &fault, &cross, &mut usage).unwrap();
        assert_eq!(a.inter_chip_traversals, 0);
        assert!(b.inter_chip_traversals > 0, "0→31 must cross the seam");
        assert_ne!(a, b, "seam pricing must show up in the report");
        let s = cache.locked(|c| c.stats());
        assert_eq!((s.hits, s.misses, s.entries), (0, 2, 2));
    }

    #[test]
    fn identical_bursts_from_two_seeds_share_one_entry() {
        // Two serving streams (different seeds, same profile and batch
        // size) replay the same staggered entry burst: it is one triple,
        // so the second stream's lookup is a hit on the first's report.
        let cache = SharedCache::default();
        let config = NocConfig::paper_16core();
        let fault = FaultModel::none();
        let mut sim = Simulator::with_faults(config, fault.clone()).unwrap();
        let mut usage = SimUsage::default();
        let burst: Vec<Message> = (0..3u64)
            .flat_map(|j| {
                trace()
                    .into_iter()
                    .map(move |m| Message { inject_cycle: m.inject_cycle + j * 100, ..m })
            })
            .collect();
        let seed_1 = cache.run_cached(&mut sim, &config, &fault, &burst, &mut usage).unwrap();
        let seed_2 = cache.run_cached(&mut sim, &config, &fault, &burst, &mut usage).unwrap();
        assert_eq!(seed_1, seed_2, "same physical trace, same report");
        assert_eq!(seed_1, sim.run(&burst).unwrap());
        let s = cache.locked(|c| c.stats());
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
        assert_eq!((usage.sims, usage.cache_hits), (1, 1));
    }

    #[test]
    fn one_periodic_run_stores_every_prefix_under_its_expanded_key() {
        let cache = SharedCache::default();
        let config = NocConfig::paper_16core();
        let fault = FaultModel::none();
        let mut sim = Simulator::with_faults(config, fault.clone()).unwrap();
        let mut usage = SimUsage::default();
        let (period, copies) = (2_000, 4);
        let prefixes =
            cache.run_periodic_cached(&mut sim, &trace(), period, copies, &mut usage).unwrap();
        assert_eq!((usage.sims, usage.cache_hits), (1, 0));
        assert!(usage.cycles_replicated > 0, "drained copies repeat");
        let expanded = lts_noc::traffic::periodic(&trace(), period, copies).unwrap();
        for (b, prefix) in (1..=copies).zip(&prefixes) {
            // Each prefix answers the plain lookup of its own trace.
            let copies = &expanded[..b * trace().len()];
            let alone = cache.run_cached(&mut sim, &config, &fault, copies, &mut usage).unwrap();
            assert_eq!(prefix.as_ref(), Some(&alone));
            assert_eq!(alone, sim.run(copies).unwrap());
        }
        let again =
            cache.run_periodic_cached(&mut sim, &trace(), period, copies, &mut usage).unwrap();
        assert_eq!(again, prefixes);
        let s = cache.locked(|c| c.stats());
        assert_eq!((s.hits, s.misses, s.entries), (copies as u64 + 1, 1, copies));
        assert_eq!((usage.sims, usage.cache_hits), (1, copies as u64 + 1));
    }

    /// Runs each trace through one fresh cache and returns the final
    /// counters.
    fn lookup_all(lookups: &[&[Message]]) -> SimCacheStats {
        let cache = SharedCache::default();
        let config = NocConfig::paper_16core();
        let fault = FaultModel::none();
        let mut sim = Simulator::with_faults(config, fault.clone()).unwrap();
        let mut usage = SimUsage::default();
        for &t in lookups {
            cache.run_cached(&mut sim, &config, &fault, t, &mut usage).unwrap();
        }
        cache.locked(|c| c.stats())
    }

    fn key(messages: &[Message]) -> Vec<u8> {
        encode_key(&NocConfig::paper_16core(), &FaultModel::none(), messages).unwrap()
    }

    #[test]
    fn messages_with_swapped_fields_do_not_alias() {
        let m = Message::new(2, 9, 300, 40);
        let swapped = [
            [m],
            [Message::new(m.dst, m.src, m.bytes, m.inject_cycle)],
            [Message::new(m.src, m.dst, m.inject_cycle, m.bytes)],
        ];
        let keys = swapped.map(|t| key(&t));
        assert!(keys[0] != keys[1] && keys[0] != keys[2] && keys[1] != keys[2]);
        let s = lookup_all(&swapped.each_ref().map(|t| &t[..]));
        assert_eq!((s.hits, s.misses, s.entries), (0, 3, 3));
    }

    #[test]
    fn traces_of_different_lengths_do_not_alias() {
        // A trace and its one-message prefix share every message byte of
        // the prefix; the message count right after the header keeps the
        // two keys apart, and the longer key is exactly one message longer.
        let (a, b) = (Message::new(0, 5, 256, 0), Message::new(1, 12, 1024, 40));
        let (long, short) = (key(&[a, b]), key(&[a]));
        assert_eq!(long.len(), short.len() + 32);
        let count = short.len() - 32 - 8;
        assert_eq!(long[..count], short[..count], "same header");
        assert_ne!(long[count..count + 8], short[count..count + 8], "different counts");
        assert_eq!(long[count + 8..count + 40], short[count + 8..], "same first message");
        let s = lookup_all(&[&[a, b], &[a]]);
        assert_eq!((s.hits, s.misses, s.entries), (0, 2, 2));
    }

    #[test]
    fn key_is_the_length_prefixed_header_then_fixed_width_messages() {
        let header =
            serde_json::to_string(&(NocConfig::paper_16core(), FaultModel::none())).unwrap();
        let m = Message::new(3, 12, 1024, 40);
        let k = key(&[m]);
        assert_eq!(k.len(), 8 + header.len() + 8 + 32);
        assert_eq!(k[..8], (header.len() as u64).to_le_bytes());
        assert_eq!(&k[8..8 + header.len()], header.as_bytes());
        let fields: Vec<u64> = k[8 + header.len()..]
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
            .collect();
        assert_eq!(fields, [1, 3, 12, 1024, 40]);
        // The empty trace is the header and a zero count, nothing more.
        assert_eq!(key(&[]).len(), 8 + header.len() + 8);
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
