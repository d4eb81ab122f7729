//! Index acquisition: how a request comes by the frozen index it runs over.
//!
//! [`index_for`] is the one way in. It asks the cache's one probe
//! ([`IndexCache::begin_at`](crate::cache::IndexCache::begin_at)) and ends
//! on one [`Acquired`] rung: a verified **hit**; a **miss**, whose plan and
//! CECI are built outside any lock, exactly once per `(epoch, canonical)`
//! key however many requests miss it together (one leads, the rest wait on
//! its flight gate, `cache_singleflight_waits` counts them); or, for an
//! entry a mutation left behind, a **repair** forward under its retained
//! plan ([`repair_entry`]). [`replan_if_due`] is the buy side of the
//! rent/buy rule, run on a current entry.
//!
//! Every build runs under `catch_unwind`: a panicking one (a bad interaction
//! between a specific query and graph — or an injected `CHAOS BUILDPANIC`)
//! answers `ERR E_BUILD_PANIC` and *quarantines* the cache key, so retries
//! of the same poisonous request fail fast with `E_QUARANTINED` instead of
//! burning a worker per attempt; a panicked leader fails its waiters the
//! same way. Re-`LOAD`ing the graph clears the mark. A panicking repair
//! falls back to a miss (`index_repair_fallbacks`).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ceci_core::{replan_price, Ceci, PlanChoice, Reuse};
use ceci_graph::Graph;
use ceci_query::{CanonicalQuery, QueryGraph, QueryPlan};

use crate::cache::{CachedIndex, FlightGuard, FlightProbe, FlightWait};
use crate::metrics::ServerMetrics;
use crate::protocol::ErrorCode;
use crate::registry::GraphEntry;
use crate::server::ServerState;

/// How a request came by its index: the `cache=` token of its reply and
/// its `STATS` counter.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Acquired {
    Hit,
    Miss,
    /// A stale entry rebuilt on the snapshot under its retained plan
    /// ([`repair_entry`]).
    Repaired,
}

impl Acquired {
    pub(crate) fn tag(self) -> &'static str {
        match self {
            Acquired::Hit => "HIT",
            Acquired::Miss => "MISS",
            Acquired::Repaired => "REPAIRED",
        }
    }

    /// Counts this acquisition, one counter each. A miss counts when its
    /// build starts, so one that panics is a miss all the same.
    fn count(self, metrics: &ServerMetrics) {
        ServerMetrics::inc(match self {
            Acquired::Hit => &metrics.cache_hits,
            Acquired::Miss => &metrics.cache_misses,
            Acquired::Repaired => &metrics.index_repairs,
        });
    }
}

/// What [`index_for`] answers: the entry, how the request came by it, and
/// the build (or repair) time it paid.
pub(crate) type Indexed = (Arc<CachedIndex>, Acquired, Duration);

/// What [`run_build`] produces: the plan, the frozen index and the
/// planner's decision record.
type Built = (Arc<QueryPlan>, Arc<Ceci>, PlanChoice);

/// Runs the (panic-prone) plan + CECI build under `catch_unwind`, honoring
/// the one-shot chaos levers (`BUILDDELAY` sleeps first, then `BUILDPANIC`
/// fires, so the two compose). `Err(())` means the build panicked; the
/// caller quarantines the key (a miss) or keeps the incumbent (a re-plan).
///
/// The index is built once, under the plan `planner` returns. Nothing is
/// estimated here: the requests that read a cost estimate (`ESTIMATE`,
/// `EXPLAIN`, the rest of a drain its deadline stopped) walk the served
/// index themselves.
fn run_build(
    state: &ServerState,
    graph: &Graph,
    planner: impl FnOnce() -> (QueryPlan, PlanChoice),
) -> Result<Built, ()> {
    let delay_ms = state.build_delay_ms.swap(0, Ordering::SeqCst);
    let armed = state.build_panic_armed.swap(false, Ordering::SeqCst);
    catch_unwind(AssertUnwindSafe(move || {
        if delay_ms > 0 {
            std::thread::sleep(Duration::from_millis(delay_ms));
        }
        if armed {
            panic!("injected CHAOS BUILDPANIC during index build");
        }
        let (plan, choice) = planner();
        let ceci = Ceci::build(graph, &plan);
        (Arc::new(plan), Arc::new(ceci), choice)
    }))
    .map_err(|_| ())
}

/// The buy side of the rent/buy rule, run by a request that found a current
/// (`HIT` / `REPAIRED`) entry. The one request whose [`Reuse::claim`]
/// succeeds — the entry's spent work has reached its re-plan price and
/// nobody scored before — scores the challengers against the incumbent's
/// observed work and, only if one wins, rebuilds the index under it
/// against the request's own snapshot — with candidate sets of that
/// snapshot ([`QueryPlan::on_graph`], a clone when the scoring already
/// moved the winner there): the incumbent's plan may have been retained
/// across repairs, and a build never trusts sets of another graph. Either
/// way the entry is
/// swapped in place for one carrying the scored decision record and the
/// same ledger, so this happens at most once per lineage of entries. The
/// request keeps its cache tag: this is neither a miss, a repair nor an
/// eviction, and it counts only as `plan_score_latency` and (on a win)
/// `adaptive_replans`.
///
/// Returns the entry to execute against and what the re-plan took; `None`
/// when nothing was due (or scoring panicked, which keeps the incumbent).
pub(crate) fn replan_if_due(
    state: &ServerState,
    graph_epoch: u64,
    graph: &Graph,
    index: &Arc<CachedIndex>,
) -> Option<(Arc<CachedIndex>, Duration)> {
    let observed = index.reuse.claim()?;
    let t0 = Instant::now();
    let (winner, scored) = catch_unwind(AssertUnwindSafe(|| {
        index
            .choice
            .score_challengers(graph, &index.plan, &observed)
    }))
    .ok()?;
    state.metrics.plan_score_latency.record(scored.score_time);
    let ((plan, ceci, choice), sets_sub_epoch) = match winner {
        Some(plan) => {
            let built = run_build(state, graph, move || (plan.on_graph(graph), scored)).ok()?;
            ServerMetrics::inc(&state.metrics.adaptive_replans);
            (built, index.sub_epoch)
        }
        // The incumbent stays: same index and plan (whatever snapshot its
        // sets date from), now with the scores on record.
        None => (
            (Arc::clone(&index.plan), Arc::clone(&index.ceci), scored),
            index.sets_sub_epoch,
        ),
    };
    let canonical = index.canonical.clone();
    let reuse = Arc::clone(&index.reuse);
    let mut entry = CachedIndex::new(canonical, plan, ceci, index.sub_epoch, choice, reuse);
    entry.sets_sub_epoch = sets_sub_epoch;
    let entry = Arc::new(entry);
    state.cache.insert(graph_epoch, Arc::clone(&entry));
    Some((entry, t0.elapsed()))
}

/// Repairs a stale cached entry forward under its retained plan: the
/// frozen index is built on the request's snapshot, under the same plan,
/// with candidate sets of that snapshot. Those are the old index's patched
/// at the gap's endpoints ([`QueryPlan::on_graph_patched`], `sets=patch`);
/// only a gap the dirty log no longer covers pays a scan
/// ([`QueryPlan::on_graph`], `sets=scan`, `index_repair_set_scans`). `None`
/// means the caller must fall back to a miss: the entry is from the
/// *future* relative to this snapshot, or the repair panicked.
///
/// Small gaps get no cheaper rung: a mutable copy of Algorithm 1's tables
/// to merge them into beats this build only on single-edge gaps, and costs
/// more to buy than ten such repairs save (DESIGN, "Repair instead of
/// rebuild").
fn repair_entry(
    state: &ServerState,
    entry: &GraphEntry,
    graph: &Graph,
    sub_epoch: u64,
    old: &CachedIndex,
) -> Option<(CachedIndex, Duration)> {
    if old.sub_epoch > sub_epoch {
        return None;
    }
    let plan = Arc::clone(&old.plan);
    let t0 = Instant::now();
    let endpoints = entry.dirty_endpoints_since(old.sub_epoch);
    // Repair runs the same (panic-prone) index code paths a build does;
    // contain it the same way and fall back to a rebuild on unwind.
    let ceci = catch_unwind(AssertUnwindSafe(|| {
        let built_on = match &endpoints {
            Some(dirty) => plan.on_graph_patched(graph, old.ceci.candidate_sets(), dirty),
            None => plan.on_graph(graph),
        };
        Ceci::build(graph, &built_on)
    }))
    .ok()?;
    let repair = t0.elapsed();
    state.metrics.index_repair_latency.record(repair);
    Acquired::Repaired.count(&state.metrics);
    if endpoints.is_none() {
        ServerMetrics::inc(&state.metrics.index_repair_set_scans);
    }
    if state.tracer.enabled() {
        let dur = repair.as_nanos() as u64;
        let end = state.tracer.now_ns();
        let (sets, dirty) = match &endpoints {
            Some(dirty) => ("sets=patch", dirty.len() as u64),
            None => ("sets=scan", 0),
        };
        let args = vec![
            (sets, 1),
            ("dirty_vertices", dirty),
            ("from_sub_epoch", old.sub_epoch),
            ("to_sub_epoch", sub_epoch),
        ];
        state.tracer.span(
            "service.repair",
            "service",
            0,
            0,
            end.saturating_sub(dur),
            dur.max(1),
            args,
        );
    }
    // The plan is unchanged by a repair, so the planner's decision record
    // (the plans weighed; it holds no estimate of the old index) and the
    // rent/buy ledger (work spent, re-plan done or not) carry over, as does
    // the snapshot its candidate sets describe; execution feedback does
    // NOT — it was measured against the pre-mutation candidate sets, and
    // the repaired entry re-profiles on its next exact run.
    let mut repaired = CachedIndex::new(
        old.canonical.clone(),
        plan,
        Arc::new(ceci),
        sub_epoch,
        old.choice.clone(),
        Arc::clone(&old.reuse),
    );
    repaired.sets_sub_epoch = old.sets_sub_epoch;
    Some((repaired, repair))
}

/// The `ERR E_QUARANTINED` reply (`when` says whose build panicked).
fn quarantined(state: &ServerState, when: &str) -> Vec<String> {
    ServerMetrics::inc(&state.metrics.quarantine_hits);
    state.fail(
        ErrorCode::Quarantined,
        format!(
            "index build for this (graph, query) {when}; re-LOAD the graph to clear the quarantine"
        ),
    )
}

/// The build of a miss: the default plan (the paper's root, the
/// connectivity-first order, [`QueryPlan::new`]) with the
/// one-candidate decision record a later re-plan extends, one CECI build,
/// phase latencies recorded (filter = Algorithm 1, refine = Algorithm 2).
/// The leader of the key's flight publishes through `guard` (cached, its
/// waiters woken); a request without one — its hash collides with another
/// canonical form's entry or flight — shares the result with nobody.
fn build_miss(
    state: &ServerState,
    graph: &Graph,
    (graph_epoch, sub_epoch): (u64, u64),
    query: QueryGraph,
    canonical: CanonicalQuery,
    guard: Option<FlightGuard<'_>>,
) -> Result<Indexed, Vec<String>> {
    Acquired::Miss.count(&state.metrics);
    let t0 = Instant::now();
    let planner = || {
        let plan = QueryPlan::new(query, graph);
        let choice = PlanChoice::unscored(&plan);
        (plan, choice)
    };
    let Ok((plan, ceci, choice)) = run_build(state, graph, planner) else {
        // Quarantine *before* the guard drops and releases the gate, so
        // waiters and later probes agree on the verdict.
        state.cache.quarantine(graph_epoch, &canonical);
        ServerMetrics::inc(&state.metrics.cache_quarantined);
        return Err(state.fail(
            ErrorCode::BuildPanic,
            "index build panicked; the cache key is quarantined",
        ));
    };
    let build = t0.elapsed();
    state.metrics.build_latency.record(build);
    let stats = ceci.stats();
    state.metrics.build_filter_latency.record(stats.filter_time);
    state.metrics.build_refine_latency.record(stats.refine_time);
    // The ledger a re-plan is bought against.
    let reuse = Arc::new(Reuse::new(replan_price(&plan, &ceci)));
    let entry = CachedIndex::new(canonical, plan, ceci, sub_epoch, choice, reuse);
    let shared = match guard {
        Some(guard) => guard.complete(entry),
        None => Arc::new(entry),
    };
    Ok((shared, Acquired::Miss, build))
}

/// Probes the cache and answers with the entry to run over, how the request
/// came by it and the build (or repair) time it paid — or the `ERR` reply
/// when the key is quarantined or the build panics. See the module doc.
pub(crate) fn index_for(
    state: &ServerState,
    entry: &GraphEntry,
    graph: &Graph,
    sub_epoch: u64,
    query: QueryGraph,
) -> Result<Indexed, Vec<String>> {
    let at = (entry.epoch, sub_epoch);
    let canonical = CanonicalQuery::of(&query);
    let hit = |found: Arc<CachedIndex>| {
        Acquired::Hit.count(&state.metrics);
        Ok((found, Acquired::Hit, Duration::ZERO))
    };
    match state.cache.begin_at(entry.epoch, sub_epoch, &canonical) {
        FlightProbe::Hit(found) => hit(found),
        FlightProbe::Quarantined => Err(quarantined(state, "previously panicked")),
        FlightProbe::Collision => {
            // Verified mismatch: never serve it, and keep the *old* entry
            // (overwriting would thrash between the two queries); counted
            // both ways so the operator can see collisions are happening.
            ServerMetrics::inc(&state.metrics.cache_collisions);
            build_miss(state, graph, at, query, canonical, None)
        }
        FlightProbe::Lead(guard) => build_miss(state, graph, at, query, canonical, Some(guard)),
        FlightProbe::Stale(old, guard) => {
            if let Some((repaired, repair)) = repair_entry(state, entry, graph, sub_epoch, &old) {
                return Ok((guard.complete(repaired), Acquired::Repaired, repair));
            }
            // Unrepairable: pay the full rebuild, counted as a miss.
            ServerMetrics::inc(&state.metrics.index_repair_fallbacks);
            build_miss(state, graph, at, query, canonical, Some(guard))
        }
        FlightProbe::Wait(flight) => {
            ServerMetrics::inc(&state.metrics.singleflight_waits);
            match flight.wait() {
                FlightWait::Ready(flown)
                    if flown.canonical == canonical && flown.sub_epoch == sub_epoch =>
                {
                    hit(flown)
                }
                FlightWait::Ready(flown) => {
                    // A different canonical form under this 64-bit hash
                    // (collision), or the leader ran against a different
                    // snapshot: either way, not our index.
                    if flown.canonical != canonical {
                        ServerMetrics::inc(&state.metrics.cache_collisions);
                    }
                    build_miss(state, graph, at, query, canonical, None)
                }
                FlightWait::Failed => Err(quarantined(state, "panicked in a concurrent request")),
            }
        }
    }
}
