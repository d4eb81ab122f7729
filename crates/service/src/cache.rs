//! The frozen-index cache: memoizes built CECI structures across requests.
//!
//! Keyed by `(graph epoch, canonical query hash)` and *stamped* with the
//! graph's mutation sub-epoch. The canonical hash
//! ([`ceci_query::canonical_hash`]) is isomorphism-invariant, so any
//! presentation of the same query pattern hits the same entry — sound for
//! count-returning `MATCH`, because isomorphic queries have identical
//! embedding counts in the same data graph. Hits additionally verify the
//! full canonical *form* (not just the 64-bit hash), so a hash collision
//! is counted (`cache_collisions`) and treated as a miss rather than ever
//! serving the wrong index.
//!
//! Entries are immutable `Arc`s (plan + frozen CECI), charged
//! [`Ceci::size_bytes`] plus their candidate sets and evicted LRU-first
//! when the configured byte budget is exceeded. Replacing a graph (`LOAD`
//! over an existing name) eagerly sweeps every entry built against the
//! displaced epoch.
//!
//! ## Quarantine
//!
//! When an index *build* panics, the cache key it would have filled is
//! quarantined: later probes answer [`FlightProbe::Quarantined`] instead of
//! rebuilding, so a query that deterministically crashes the builder cannot
//! melt the server by crashing a worker per request. Quarantine is scoped
//! to the `(epoch, hash)` key — re-`LOAD`ing the graph bumps the epoch and
//! naturally clears it (and `evict_epoch` sweeps the old epoch's marks).
//!
//! ## Staleness and repair
//!
//! Streaming mutations (`ADDEDGE`/`DELEDGE`/`BATCH`) do not bump the epoch;
//! they bump the entry's *sub-epoch*. A probe whose sub-epoch differs from
//! the cached entry's answers [`FlightProbe::Stale`], removes the outdated
//! slot, and hands the old entry back so the caller can *repair* it under
//! its retained plan instead of rebuilding from scratch (`crate::index`
//! has the one repair it runs).

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use ceci_core::Ceci;
use ceci_query::candidates::CandidateSet;
use ceci_query::{CanonicalQuery, QueryPlan};

/// One cached, frozen index: everything needed to answer a `MATCH` without
/// re-planning or re-filtering.
#[derive(Debug)]
pub struct CachedIndex {
    /// Full canonical form, verified on every hit (collision guard).
    pub canonical: CanonicalQuery,
    /// The matching plan the index was built for.
    pub plan: Arc<QueryPlan>,
    /// The frozen candidate index.
    pub ceci: Arc<Ceci>,
    /// Bytes charged against the cache budget: [`Ceci::size_bytes`] plus
    /// the plan's candidate sets, the one copy of them the entry holds.
    pub bytes: usize,
    /// Mutation sub-epoch of the snapshot the index was built against,
    /// which the plan's candidate sets describe.
    pub sub_epoch: u64,
}

impl CachedIndex {
    /// An entry for `ceci` (built under `plan` against the snapshot at
    /// `sub_epoch`), charged its size.
    pub fn new(
        canonical: CanonicalQuery,
        plan: Arc<QueryPlan>,
        ceci: Arc<Ceci>,
        sub_epoch: u64,
    ) -> CachedIndex {
        let sets: usize = plan
            .candidate_sets()
            .iter()
            .map(CandidateSet::size_bytes)
            .sum();
        CachedIndex {
            canonical,
            bytes: ceci.size_bytes() + sets,
            plan,
            ceci,
            sub_epoch,
        }
    }
}

#[derive(Debug)]
struct Slot {
    entry: Arc<CachedIndex>,
    /// Logical LRU stamp (monotone per-cache counter, not wall time).
    last_used: u64,
}

#[derive(Debug, Default)]
struct CacheMap {
    slots: HashMap<(u64, u64), Slot>,
    bytes: usize,
    /// Keys whose build panicked; probes answer [`FlightProbe::Quarantined`].
    quarantined: HashSet<(u64, u64)>,
    /// Keys with a build currently in flight (single-flight gates).
    flights: HashMap<(u64, u64), Arc<Flight>>,
}

/// A single-flight gate: one leader builds, every concurrent misser on the
/// same `(epoch, hash)` blocks on the gate instead of duplicating the build.
#[derive(Debug)]
pub struct Flight {
    state: Mutex<Option<FlightWait>>,
    cv: Condvar,
}

impl Flight {
    fn new() -> Self {
        Flight {
            state: Mutex::new(None),
            cv: Condvar::new(),
        }
    }

    fn publish(&self, outcome: FlightWait) {
        let mut st = self.state.lock().expect("flight lock poisoned");
        if st.is_none() {
            *st = Some(outcome);
        }
        self.cv.notify_all();
    }

    /// Blocks until the leader publishes an outcome.
    pub fn wait(&self) -> FlightWait {
        let mut st = self.state.lock().expect("flight lock poisoned");
        loop {
            if let Some(outcome) = st.clone() {
                return outcome;
            }
            st = self.cv.wait(st).expect("flight lock poisoned");
        }
    }
}

/// What a single-flight waiter observes when the leader finishes.
#[derive(Clone, Debug)]
pub enum FlightWait {
    /// The leader's build completed; the entry is ready (and cached when
    /// the budget allowed). The waiter must still verify the canonical
    /// *form* against its own query — a 64-bit hash collision between two
    /// concurrent queries would otherwise serve the wrong index.
    Ready(Arc<CachedIndex>),
    /// The leader's build panicked; the key is quarantined. Waiters answer
    /// `ERR E_QUARANTINED` without attempting their own build.
    Failed,
}

/// Outcome of [`IndexCache::begin_at`], the cache's one probe: it
/// additionally arbitrates concurrent misses into one leader and N−1 waiters.
pub enum FlightProbe<'a> {
    /// Verified hit.
    Hit(Arc<CachedIndex>),
    /// Key quarantined by an earlier panicked build.
    Quarantined,
    /// Hash collision with a cached entry of a different canonical form;
    /// the caller builds solo and must not insert.
    Collision,
    /// This caller is the build leader: build, then
    /// [`FlightGuard::complete`]. Dropping the guard instead fails the flight
    /// — a panicked build (quarantine the key first, so waiters and later
    /// probes agree on the verdict) and any other unwind alike.
    Lead(FlightGuard<'a>),
    /// This caller is the build leader *and* an outdated entry for the same
    /// canonical form was found (and removed): repair it forward under its
    /// plan instead of rebuilding, then `complete` as usual.
    Stale(Arc<CachedIndex>, FlightGuard<'a>),
    /// Another caller is already building this key; `wait()` blocks until
    /// its outcome.
    Wait(Arc<Flight>),
}

/// Leader-side handle of a single-flight build. Exactly one exists per
/// in-flight key; completing or dropping it releases the gate.
pub struct FlightGuard<'a> {
    cache: &'a IndexCache,
    /// `(epoch, canonical hash)`.
    key: (u64, u64),
    flight: Arc<Flight>,
    published: bool,
}

impl FlightGuard<'_> {
    /// Publishes a completed build: caches it (budget permitting), wakes
    /// every waiter with the entry, and releases the gate. Returns the
    /// shared entry for the leader's own use.
    pub fn complete(mut self, entry: CachedIndex) -> Arc<CachedIndex> {
        let entry = Arc::new(entry);
        self.cache.insert(self.key.0, Arc::clone(&entry));
        self.release(FlightWait::Ready(Arc::clone(&entry)));
        entry
    }

    fn release(&mut self, outcome: FlightWait) {
        self.published = true;
        {
            let mut map = self.cache.map.lock().expect("cache lock poisoned");
            map.flights.remove(&self.key);
        }
        self.flight.publish(outcome);
    }
}

impl Drop for FlightGuard<'_> {
    fn drop(&mut self) {
        if !self.published {
            // Leader gave up without publishing: fail the waiters rather
            // than leaving them blocked forever.
            self.release(FlightWait::Failed);
        }
    }
}

/// A byte-budgeted, LRU-evicting map from `(epoch, canonical hash)` to
/// frozen indexes. All operations take one short mutex; the expensive work
/// (CECI build) happens outside the lock and is inserted after the fact.
#[derive(Debug)]
pub struct IndexCache {
    map: Mutex<CacheMap>,
    budget_bytes: usize,
    clock: AtomicU64,
    /// Evictions performed over the cache's lifetime.
    evictions: AtomicU64,
}

impl IndexCache {
    /// Creates a cache bounded by `budget_bytes` (0 disables caching).
    pub fn new(budget_bytes: usize) -> Self {
        IndexCache {
            map: Mutex::new(CacheMap::default()),
            budget_bytes,
            clock: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed)
    }

    /// Quarantines `(epoch, hash)` after a panicked build. Idempotent;
    /// returns `true` the first time the key is marked. Any stale entry
    /// under the key is dropped (it predates the panic and may be suspect).
    pub fn quarantine(&self, epoch: u64, canonical: &CanonicalQuery) -> bool {
        let key = (epoch, canonical.hash());
        let mut map = self.map.lock().expect("cache lock poisoned");
        if let Some(slot) = map.slots.remove(&key) {
            map.bytes -= slot.entry.bytes;
        }
        map.quarantined.insert(key)
    }

    /// Number of quarantined keys.
    pub fn quarantined_len(&self) -> usize {
        self.map
            .lock()
            .expect("cache lock poisoned")
            .quarantined
            .len()
    }

    /// Probes for `(epoch, canonical)` at the graph's current mutation
    /// `sub_epoch` with single-flight arbitration: a verified hit returns
    /// the entry, a quarantined key or collision is reported, and a miss is
    /// split into exactly one [`FlightProbe::Lead`] (the caller that must
    /// build) with every concurrent misser on the same key receiving
    /// [`FlightProbe::Wait`]. An entry of the right form but a different
    /// sub-epoch is removed and handed to the leader as
    /// [`FlightProbe::Stale`] for repair; concurrent missers wait on the
    /// repair exactly as they would on a build.
    pub fn begin_at(
        &self,
        epoch: u64,
        sub_epoch: u64,
        canonical: &CanonicalQuery,
    ) -> FlightProbe<'_> {
        let stamp = self.tick();
        let key = (epoch, canonical.hash());
        let mut map = self.map.lock().expect("cache lock poisoned");
        if map.quarantined.contains(&key) {
            return FlightProbe::Quarantined;
        }
        let mut stale = None;
        match map.slots.get_mut(&key) {
            Some(slot) if slot.entry.canonical == *canonical => {
                if slot.entry.sub_epoch == sub_epoch {
                    slot.last_used = stamp;
                    return FlightProbe::Hit(Arc::clone(&slot.entry));
                }
                let slot = map.slots.remove(&key).expect("slot vanished");
                map.bytes -= slot.entry.bytes;
                stale = Some(slot.entry);
            }
            Some(_) => return FlightProbe::Collision,
            None => {}
        }
        if let Some(flight) = map.flights.get(&key) {
            return FlightProbe::Wait(Arc::clone(flight));
        }
        let flight = Arc::new(Flight::new());
        map.flights.insert(key, Arc::clone(&flight));
        let guard = FlightGuard {
            cache: self,
            key,
            flight,
            published: false,
        };
        match stale {
            Some(entry) => FlightProbe::Stale(entry, guard),
            None => FlightProbe::Lead(guard),
        }
    }

    /// Inserts an entry built outside the lock, then evicts LRU-first until
    /// the byte budget holds. Entries larger than the whole budget are not
    /// cached at all. Returns the number of entries evicted.
    pub fn insert(&self, epoch: u64, entry: impl Into<Arc<CachedIndex>>) -> u64 {
        let entry = entry.into();
        // A zero budget disables caching entirely — including zero-byte
        // entries, which would otherwise slip past the size check and leave
        // phantom slots a "disabled" cache is documented not to hold.
        if self.budget_bytes == 0 || entry.bytes > self.budget_bytes {
            return 0; // would evict everything and still not fit
        }
        let stamp = self.tick();
        let key = (epoch, entry.canonical.hash());
        let bytes = entry.bytes;
        let mut map = self.map.lock().expect("cache lock poisoned");
        if map.quarantined.contains(&key) {
            // A concurrent build panicked and poisoned this key after we
            // started building; do not resurrect it.
            return 0;
        }
        if let Some(old) = map.slots.insert(
            key,
            Slot {
                entry,
                last_used: stamp,
            },
        ) {
            map.bytes -= old.entry.bytes;
        }
        map.bytes += bytes;
        let mut evicted = 0;
        while map.bytes > self.budget_bytes {
            // LRU victim — never the entry we just inserted unless it is the
            // only one left (guarded by the budget check above).
            let victim = map
                .slots
                .iter()
                .filter(|(k, _)| **k != key)
                .min_by_key(|(_, s)| s.last_used)
                .map(|(k, _)| *k);
            match victim {
                Some(k) => {
                    let slot = map.slots.remove(&k).expect("victim vanished");
                    map.bytes -= slot.entry.bytes;
                    evicted += 1;
                }
                None => break,
            }
        }
        self.evictions.fetch_add(evicted, Ordering::Relaxed);
        evicted
    }

    /// Drops every entry built against `epoch` (graph replaced). Returns the
    /// number of entries removed (not counted as evictions).
    pub fn evict_epoch(&self, epoch: u64) -> usize {
        let mut map = self.map.lock().expect("cache lock poisoned");
        let keys: Vec<(u64, u64)> = map
            .slots
            .keys()
            .filter(|(e, _)| *e == epoch)
            .copied()
            .collect();
        for k in &keys {
            let slot = map.slots.remove(k).expect("key vanished");
            map.bytes -= slot.entry.bytes;
        }
        // The epoch is gone; its quarantine marks are meaningless now.
        map.quarantined.retain(|(e, _)| *e != epoch);
        keys.len()
    }

    /// The live entries, in no particular order (a snapshot: byte-accounting
    /// tests sum it against [`IndexCache::bytes`]).
    pub fn entries(&self) -> Vec<Arc<CachedIndex>> {
        let map = self.map.lock().expect("cache lock poisoned");
        map.slots.values().map(|s| Arc::clone(&s.entry)).collect()
    }

    /// Current number of cached entries.
    pub fn len(&self) -> usize {
        self.map.lock().expect("cache lock poisoned").slots.len()
    }

    /// True when the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes currently charged against the budget.
    pub fn bytes(&self) -> usize {
        self.map.lock().expect("cache lock poisoned").bytes
    }

    /// Lifetime eviction count (budget pressure only).
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ceci_graph::{GraphBuilder, LabelId};
    use ceci_query::QueryGraph;

    /// Builds a real (tiny) plan+index pair so entries are representative,
    /// with a synthetic byte size to exercise the budget deterministically.
    fn entry(label: u32, bytes: usize) -> CachedIndex {
        let mut b = GraphBuilder::new();
        let x = b.add_vertex(LabelId(label));
        let y = b.add_vertex(LabelId(label));
        b.add_edge(x, y);
        let graph = b.build();
        let mut qb = GraphBuilder::new();
        let qx = qb.add_vertex(LabelId(label));
        let qy = qb.add_vertex(LabelId(label));
        qb.add_edge(qx, qy);
        let qg = qb.build();
        let query = QueryGraph::from_graph(&qg).unwrap();
        let canonical = CanonicalQuery::of(&query);
        let plan = QueryPlan::new(query, &graph);
        let ceci = Ceci::build(&graph, &plan);
        CachedIndex {
            bytes,
            ..CachedIndex::new(canonical, Arc::new(plan), Arc::new(ceci), 0)
        }
    }

    /// Like [`entry`] but stamped with a mutation sub-epoch.
    fn entry_at(label: u32, bytes: usize, sub_epoch: u64) -> CachedIndex {
        CachedIndex {
            sub_epoch,
            ..entry(label, bytes)
        }
    }

    /// What the one probe answers at `(epoch, sub_epoch)`, by name. A `lead`
    /// or `stale` answer's guard is dropped on the spot, which releases its
    /// gate: the next probe of the key leads again.
    fn probe_at(
        cache: &IndexCache,
        epoch: u64,
        sub_epoch: u64,
        canonical: &CanonicalQuery,
    ) -> &'static str {
        match cache.begin_at(epoch, sub_epoch, canonical) {
            FlightProbe::Hit(_) => "hit",
            FlightProbe::Quarantined => "quarantined",
            FlightProbe::Collision => "collision",
            FlightProbe::Lead(_) => "lead",
            FlightProbe::Stale(..) => "stale",
            FlightProbe::Wait(_) => "wait",
        }
    }

    /// [`probe_at`] sub-epoch 0 (the state right after `LOAD`).
    fn probe(cache: &IndexCache, epoch: u64, canonical: &CanonicalQuery) -> &'static str {
        probe_at(cache, epoch, 0, canonical)
    }

    #[test]
    fn miss_then_hit() {
        let cache = IndexCache::new(1 << 20);
        let e = entry(0, 100);
        let canonical = e.canonical.clone();
        assert_eq!(probe(&cache, 1, &canonical), "lead");
        cache.insert(1, e);
        match cache.begin_at(1, 0, &canonical) {
            FlightProbe::Hit(got) => assert_eq!(got.canonical, canonical),
            _ => panic!("an inserted entry must hit"),
        }
        assert_eq!(cache.bytes(), 100);
    }

    #[test]
    fn epochs_partition_the_keyspace() {
        let cache = IndexCache::new(1 << 20);
        let e = entry(0, 100);
        let canonical = e.canonical.clone();
        cache.insert(1, e);
        assert_eq!(probe(&cache, 2, &canonical), "lead");
    }

    #[test]
    fn lru_eviction_under_budget() {
        let cache = IndexCache::new(250);
        let a = entry(0, 100);
        let b = entry(1, 100);
        let c = entry(2, 100);
        let (ka, kb, kc) = (
            a.canonical.clone(),
            b.canonical.clone(),
            c.canonical.clone(),
        );
        cache.insert(1, a);
        cache.insert(1, b);
        // Touch `a`: a hit refreshes its LRU stamp, so `b` is the victim.
        assert_eq!(probe(&cache, 1, &ka), "hit");
        cache.insert(1, c);
        assert_eq!(cache.evictions(), 1);
        assert_eq!(probe(&cache, 1, &kb), "lead", "LRU entry evicted");
        assert_eq!(probe(&cache, 1, &ka), "hit");
        assert_eq!(probe(&cache, 1, &kc), "hit");
        assert!(cache.bytes() <= 250);
    }

    #[test]
    fn oversized_entry_not_cached() {
        let cache = IndexCache::new(50);
        let e = entry(0, 100);
        let canonical = e.canonical.clone();
        cache.insert(1, e);
        assert_eq!(probe(&cache, 1, &canonical), "lead");
        assert_eq!(cache.bytes(), 0);
    }

    #[test]
    fn evict_epoch_sweeps_only_that_epoch() {
        let cache = IndexCache::new(1 << 20);
        let a = entry(0, 100);
        let b = entry(1, 100);
        let (ka, kb) = (a.canonical.clone(), b.canonical.clone());
        cache.insert(1, a);
        cache.insert(2, b);
        assert_eq!(cache.evict_epoch(1), 1);
        assert_eq!(probe(&cache, 1, &ka), "lead");
        assert_eq!(probe(&cache, 2, &kb), "hit");
        assert_eq!(cache.bytes(), 100);
    }

    #[test]
    fn concurrent_misses_converge_on_one_entry() {
        // Many threads race probe → build → insert on the same key, each
        // giving its gate up before it inserts (what a collision's solo
        // build amounts to). Whoever inserts last wins the slot (entries for
        // the same canonical query are interchangeable); the byte ledger
        // must charge exactly one entry and every later probe must hit.
        let cache = Arc::new(IndexCache::new(1 << 20));
        let proto = entry(0, 128);
        let canonical = proto.canonical.clone();
        drop(proto);
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let cache = Arc::clone(&cache);
                let canonical = canonical.clone();
                std::thread::spawn(move || {
                    let probe = probe(&cache, 7, &canonical);
                    assert_ne!(probe, "quarantined");
                    if probe != "hit" {
                        // Simulate the out-of-lock build, then insert.
                        cache.insert(7, entry(0, 128));
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(
            cache.len(),
            1,
            "duplicate inserts must replace, not pile up"
        );
        assert_eq!(cache.bytes(), 128, "byte ledger must count the entry once");
        assert_eq!(probe(&cache, 7, &canonical), "hit");
    }

    #[test]
    fn quarantine_drops_blocks_and_clears_with_epoch() {
        let cache = IndexCache::new(1 << 20);
        let e = entry(0, 100);
        let canonical = e.canonical.clone();
        cache.insert(1, e);
        assert_eq!(probe(&cache, 1, &canonical), "hit");

        // Quarantine evicts the suspect entry and is idempotent.
        assert!(cache.quarantine(1, &canonical));
        assert!(!cache.quarantine(1, &canonical));
        assert_eq!(cache.bytes(), 0);
        assert_eq!(cache.quarantined_len(), 1);
        assert_eq!(probe(&cache, 1, &canonical), "quarantined");

        // A build that was already in flight when the key was poisoned
        // must not resurrect it: quarantine wins over a slot.
        assert_eq!(cache.insert(1, entry(0, 100)), 0);
        assert_eq!(cache.len(), 0);
        assert_eq!(probe(&cache, 1, &canonical), "quarantined");

        // Other epochs are unaffected; re-LOAD (epoch bump) clears marks.
        assert_eq!(probe(&cache, 2, &canonical), "lead");
        cache.evict_epoch(1);
        assert_eq!(cache.quarantined_len(), 0);
        assert_eq!(probe(&cache, 1, &canonical), "lead");
    }

    #[test]
    fn multi_victim_eviction_follows_lru_order() {
        // One big insert forces several evictions at once; victims must go
        // strictly least-recently-used first, and the newcomer survives.
        let cache = IndexCache::new(400);
        let (a, b, c) = (entry(0, 100), entry(1, 100), entry(2, 100));
        let (ka, kb, kc) = (
            a.canonical.clone(),
            b.canonical.clone(),
            c.canonical.clone(),
        );
        cache.insert(1, a);
        cache.insert(1, b);
        cache.insert(1, c);
        // Recency now a < b < c; touching `a` makes it the most recent.
        assert_eq!(probe(&cache, 1, &ka), "hit");
        // 300 + 250 = 550: must evict the two LRU entries (b, then c) to
        // get back under 400; evicting only one would leave 450.
        let big = entry(3, 250);
        let kbig = big.canonical.clone();
        assert_eq!(cache.insert(1, big), 2);
        assert_eq!(probe(&cache, 1, &kb), "lead", "oldest victim first");
        assert_eq!(probe(&cache, 1, &kc), "lead", "next-oldest second");
        assert_eq!(probe(&cache, 1, &ka), "hit", "recently-touched survives");
        assert_eq!(probe(&cache, 1, &kbig), "hit", "newcomer never self-evicts");
        assert_eq!(cache.bytes(), 350);
        assert_eq!(cache.evictions(), 2);
    }

    #[test]
    fn zero_budget_disables_caching_even_for_zero_byte_entries() {
        let cache = IndexCache::new(0);
        let e = entry(0, 0);
        let canonical = e.canonical.clone();
        assert_eq!(cache.insert(1, e), 0);
        assert_eq!(cache.len(), 0, "disabled cache must hold no slots");
        assert_eq!(cache.bytes(), 0);
        assert_eq!(probe(&cache, 1, &canonical), "lead");
    }

    #[test]
    fn quarantine_then_reload_restores_byte_baseline() {
        // The full lifecycle the server drives: cached entry → build panic
        // quarantines the key (bytes drop to zero, nothing leaks) →
        // re-LOAD bumps the epoch and sweeps the marks → rebuild under the
        // new epoch hits again with bytes back at the original baseline.
        let cache = IndexCache::new(1 << 20);
        let e = entry(0, 4096);
        let canonical = e.canonical.clone();
        let baseline = e.bytes;
        cache.insert(1, e);
        assert_eq!(cache.bytes(), baseline);

        // Build panic under epoch 1.
        assert!(cache.quarantine(1, &canonical));
        assert_eq!(cache.bytes(), 0, "quarantine must release the bytes");
        assert_eq!(probe(&cache, 1, &canonical), "quarantined");
        // Insert racing the quarantine must not re-charge the ledger.
        assert_eq!(cache.insert(1, entry(0, 4096)), 0);
        assert_eq!(cache.bytes(), 0, "blocked insert must not charge bytes");

        // Re-LOAD: old epoch swept, new epoch rebuilds cleanly.
        cache.evict_epoch(1);
        assert_eq!(cache.quarantined_len(), 0);
        assert_eq!(probe(&cache, 2, &canonical), "lead");
        cache.insert(2, entry(0, 4096));
        assert_eq!(probe(&cache, 2, &canonical), "hit");
        assert_eq!(
            cache.bytes(),
            baseline,
            "bytes must return exactly to the pre-quarantine baseline"
        );
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn singleflight_one_leader_rest_wait() {
        let cache = Arc::new(IndexCache::new(1 << 20));
        let proto = entry(0, 128);
        let canonical = proto.canonical.clone();
        drop(proto);
        let leaders = Arc::new(AtomicU64::new(0));
        let waits = Arc::new(AtomicU64::new(0));
        let barrier = Arc::new(std::sync::Barrier::new(8));
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let cache = Arc::clone(&cache);
                let canonical = canonical.clone();
                let leaders = Arc::clone(&leaders);
                let waits = Arc::clone(&waits);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    match cache.begin_at(7, 0, &canonical) {
                        FlightProbe::Lead(guard) => {
                            leaders.fetch_add(1, Ordering::SeqCst);
                            // Linger so the others pile onto the gate.
                            std::thread::sleep(std::time::Duration::from_millis(100));
                            guard.complete(entry(0, 128));
                        }
                        FlightProbe::Wait(flight) => {
                            waits.fetch_add(1, Ordering::SeqCst);
                            match flight.wait() {
                                FlightWait::Ready(e) => assert_eq!(e.canonical, canonical),
                                FlightWait::Failed => panic!("leader failed"),
                            }
                        }
                        FlightProbe::Hit(_) => {} // raced past the flight
                        _ => panic!("unexpected probe: quarantined, collision or stale"),
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(leaders.load(Ordering::SeqCst), 1, "exactly one build");
        assert!(waits.load(Ordering::SeqCst) >= 1, "someone waited");
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.bytes(), 128);
        assert_eq!(probe(&cache, 7, &canonical), "hit");
    }

    #[test]
    fn singleflight_failed_leader_fails_waiters() {
        let cache = Arc::new(IndexCache::new(1 << 20));
        let proto = entry(0, 64);
        let canonical = proto.canonical.clone();
        drop(proto);
        let guard = match cache.begin_at(3, 0, &canonical) {
            FlightProbe::Lead(g) => g,
            _ => panic!("first probe must lead"),
        };
        let waiter = {
            let cache = Arc::clone(&cache);
            let canonical = canonical.clone();
            std::thread::spawn(move || match cache.begin_at(3, 0, &canonical) {
                FlightProbe::Wait(flight) => flight.wait(),
                _ => panic!("second probe must wait"),
            })
        };
        // Give the waiter time to block, then fail like the server does on
        // a panicked build: quarantine first, then release the gate.
        std::thread::sleep(std::time::Duration::from_millis(50));
        cache.quarantine(3, &canonical);
        drop(guard);
        assert!(matches!(waiter.join().unwrap(), FlightWait::Failed));
        assert_eq!(probe(&cache, 3, &canonical), "quarantined");
    }

    #[test]
    fn singleflight_dropped_guard_releases_gate() {
        let cache = IndexCache::new(1 << 20);
        let proto = entry(0, 64);
        let canonical = proto.canonical.clone();
        drop(proto);
        {
            let _guard = match cache.begin_at(5, 0, &canonical) {
                FlightProbe::Lead(g) => g,
                _ => panic!("must lead"),
            };
            // While the guard lives every other probe of the key waits.
            assert_eq!(probe(&cache, 5, &canonical), "wait");
            // Unwind without complete()/fail().
        }
        // The gate is gone: the next probe leads again instead of waiting.
        assert_eq!(probe(&cache, 5, &canonical), "lead");
    }

    #[test]
    fn singleflight_completion_answers_even_when_not_cached() {
        // Zero budget: the entry cannot be cached, but waiters still get it.
        let cache = Arc::new(IndexCache::new(0));
        let proto = entry(0, 64);
        let canonical = proto.canonical.clone();
        drop(proto);
        let guard = match cache.begin_at(9, 0, &canonical) {
            FlightProbe::Lead(g) => g,
            _ => panic!("must lead"),
        };
        let waiter = {
            let cache = Arc::clone(&cache);
            let canonical = canonical.clone();
            std::thread::spawn(move || match cache.begin_at(9, 0, &canonical) {
                FlightProbe::Wait(flight) => flight.wait(),
                _ => panic!("must wait"),
            })
        };
        std::thread::sleep(std::time::Duration::from_millis(50));
        let got = guard.complete(entry(0, 64));
        assert_eq!(got.canonical, canonical);
        match waiter.join().unwrap() {
            FlightWait::Ready(e) => assert_eq!(e.canonical, canonical),
            FlightWait::Failed => panic!("leader completed"),
        }
        assert_eq!(cache.len(), 0, "zero budget still caches nothing");
    }

    #[test]
    fn collision_detected_by_form_verification() {
        let cache = IndexCache::new(1 << 20);
        let e = entry(0, 100);
        let stored_hash = e.canonical.hash();
        cache.insert(1, e);
        // Forge a canonical form with the same hash but a different
        // signature: a real collision would look exactly like this. It is
        // never served the stored entry, and it never displaces it.
        let forged = CanonicalQuery::forged_for_tests(vec![1, 2, 3], stored_hash);
        assert_eq!(probe(&cache, 1, &forged), "collision");
        assert_eq!(probe_at(&cache, 1, 4, &forged), "collision");
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn mutation_sub_epoch_invalidates_without_epoch_bump() {
        // Regression for streaming mutations: an index cached before an
        // ADDEDGE/DELEDGE must never be served verbatim afterwards, even
        // though the graph's load epoch is unchanged.
        let cache = IndexCache::new(1 << 20);
        let e = entry_at(0, 100, 0);
        let canonical = e.canonical.clone();
        cache.insert(1, e);
        assert_eq!(probe_at(&cache, 1, 0, &canonical), "hit");

        // Mutation bumps the graph to sub-epoch 1: the cached entry is
        // stale, gets removed, and is handed back for repair.
        let old = match cache.begin_at(1, 1, &canonical) {
            FlightProbe::Stale(old, _guard) => old,
            _ => panic!("stale probe must return the outdated entry"),
        };
        assert_eq!(old.sub_epoch, 0);
        assert_eq!(cache.len(), 0, "stale slot must be removed");
        assert_eq!(cache.bytes(), 0, "stale bytes must be released");

        // The repaired entry, re-inserted at the new sub-epoch, hits.
        cache.insert(1, entry_at(0, 100, 1));
        assert_eq!(probe_at(&cache, 1, 1, &canonical), "hit");
        // ...and a probe at yet another sub-epoch goes stale again.
        assert_eq!(probe_at(&cache, 1, 2, &canonical), "stale");
    }

    #[test]
    fn singleflight_stale_entry_elects_repair_leader() {
        let cache = Arc::new(IndexCache::new(1 << 20));
        let e = entry_at(0, 100, 3);
        let canonical = e.canonical.clone();
        cache.insert(1, e);
        // Probe at sub-epoch 5: the caller leads with the old entry in hand.
        let (old, guard) = match cache.begin_at(1, 5, &canonical) {
            FlightProbe::Stale(old, guard) => (old, guard),
            _ => panic!("stale entry must elect a repair leader"),
        };
        assert_eq!(old.sub_epoch, 3);
        // A concurrent misser waits on the repair flight, not the old entry.
        let waiter = {
            let cache = Arc::clone(&cache);
            let canonical = canonical.clone();
            std::thread::spawn(move || match cache.begin_at(1, 5, &canonical) {
                FlightProbe::Wait(flight) => flight.wait(),
                _ => panic!("second probe must wait on the repair"),
            })
        };
        std::thread::sleep(std::time::Duration::from_millis(50));
        let repaired = guard.complete(entry_at(0, 100, 5));
        assert_eq!(repaired.sub_epoch, 5);
        match waiter.join().unwrap() {
            FlightWait::Ready(e) => assert_eq!(e.sub_epoch, 5),
            FlightWait::Failed => panic!("repair completed"),
        }
        assert_eq!(probe_at(&cache, 1, 5, &canonical), "hit");
    }
}
