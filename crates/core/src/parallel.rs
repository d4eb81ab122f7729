//! Parallel embedding enumeration — "k embeddings at a time" (§4.2, §4.3).
//!
//! Embedding clusters are natural work units; three distribution policies
//! match the paper's comparison:
//!
//! * **ST** (static): clusters split into `k` contiguous groups up front —
//!   no re-adjustment, suffers from power-law cluster skew.
//! * **CGD** (coarse-grained dynamic): a classical pull-based shared pool of
//!   whole clusters.
//! * **FGD** (fine-grained dynamic): ExtremeClusters are pre-split with
//!   Algorithm 3 under threshold `β × cardinality_exp`, the resulting units
//!   sorted largest-first, then pulled dynamically.

use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ceci_graph::{Graph, VertexId};
use ceci_query::QueryPlan;

use crate::enumerate::{EnumOptions, Enumerator};
use crate::extreme::{decompose_with, WorkUnit};
use crate::index::Ceci;
use crate::metrics::{Counters, ThreadTimer};
use crate::sink::{
    CancelToken, CollectSink, CountSink, EmbeddingSink, SharedBudget, SharedLimitSink,
};

/// Runs `f(worker_index)` on `threads` scoped worker threads and returns
/// the results in worker order: the worker pool of
/// [`enumerate_parallel`]. The degenerate single-thread case
/// runs inline on the caller (no spawn).
pub(crate) fn scoped_workers<R, F>(threads: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    if threads <= 1 {
        return vec![f(0)];
    }
    let f = &f;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads).map(|w| scope.spawn(move || f(w))).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect()
    })
}

/// Work distribution policy.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Strategy {
    /// Static: equal number of clusters per worker, assigned once.
    Static,
    /// Coarse-grained dynamic: pull-based, cluster granularity.
    CoarseDynamic,
    /// Fine-grained dynamic: ExtremeCluster decomposition with factor β,
    /// then pull-based.
    FineDynamic {
        /// Threshold factor β (the paper uses 0.2 in §6.3).
        beta: f64,
    },
}

impl Strategy {
    /// The paper's abbreviation (ST / CGD / FGD).
    pub fn abbrev(&self) -> &'static str {
        match self {
            Strategy::Static => "ST",
            Strategy::CoarseDynamic => "CGD",
            Strategy::FineDynamic { .. } => "FGD",
        }
    }
}

/// Options for a parallel run.
#[derive(Clone, Debug)]
pub struct ParallelOptions {
    /// Number of worker threads.
    pub workers: usize,
    /// Work distribution policy.
    pub strategy: Strategy,
    /// What every worker's [`Enumerator`] runs with (and the ExtremeCluster
    /// decomposition sizes its units under). `prune_redundant` takes effect
    /// only for count-only runs (`collect = false`, no limit): collecting or
    /// limited sinks are not bulk-capable, so they walk every depth.
    pub enumeration: EnumOptions,
    /// Stop after this many embeddings globally (first-k semantics).
    pub limit: Option<u64>,
    /// A cooperative [`CancelToken`] (explicit cancellation or a wall-clock
    /// deadline). The enumerator polls it between work units, every 64
    /// recursive calls, every 256 drained candidates and inside the
    /// edge-verification gather; a unit it stopped is left out of the
    /// result's [`Cut`], which is then the exact count of the pivots that
    /// drained and the pivots that did not.
    pub cancel: Option<Arc<CancelToken>>,
    /// Collect the embeddings (otherwise only count).
    pub collect: bool,
    /// Attach a per-depth [`crate::DepthProfile`] to every worker and merge
    /// them into [`ParallelResult::profile`]. Profiles are preallocated from
    /// the matching order before the workers start, so enabling this adds no
    /// allocations to the steady-state recursion and never perturbs the
    /// exact [`Counters`].
    pub profile: bool,
}

impl Default for ParallelOptions {
    fn default() -> Self {
        ParallelOptions {
            workers: 1,
            strategy: Strategy::FineDynamic { beta: 0.2 },
            enumeration: EnumOptions::default(),
            limit: None,
            cancel: None,
            collect: false,
            profile: false,
        }
    }
}

/// Result of a parallel run.
#[derive(Debug)]
pub struct ParallelResult {
    /// Embeddings found (globally, before any limit truncation).
    pub total_embeddings: u64,
    /// Merged counters across workers.
    pub counters: Counters,
    /// Per-worker CPU time (thread clock, preemption-immune) — the Fig 12
    /// per-worker finish profile and the basis of `modeled_makespan`. Read
    /// once around each worker's unit loop, which never blocks between
    /// units: the same quantity as a timer per unit, for two clock reads per
    /// worker instead of two per cluster.
    pub worker_busy: Vec<Duration>,
    /// Number of work units distributed.
    pub num_units: usize,
    /// Wall time spent decomposing/distributing work.
    pub distribute_time: Duration,
    /// Wall time of the enumeration phase.
    pub enumerate_time: Duration,
    /// Collected embeddings, canonically sorted (when requested).
    pub embeddings: Option<Vec<Vec<VertexId>>>,
    /// `Some` when a [`CancelToken`] (explicit cancel or deadline) stopped
    /// a work unit, or kept one from starting, and no limit had stopped the
    /// run: which pivots drained and what they found. `None` for a run that
    /// drained, or reached its limit.
    pub cut: Option<Cut>,
    /// Merged per-depth profile across workers (when
    /// [`ParallelOptions::profile`] was set).
    pub profile: Option<crate::DepthProfile>,
}

/// How a [`CancelToken`] split a run's pivots. Each pivot's embedding
/// cluster is an independent stratum (§4), so the drained pivots' count is
/// exact and the rest can be estimated on their own.
#[derive(Clone, Debug)]
pub struct Cut {
    /// Embeddings under the pivots whose every unit drained: exact. A pivot
    /// with no units counts as drained.
    pub exact: u64,
    /// The other pivots, in [`Ceci::pivots`] order.
    pub undrained: Vec<VertexId>,
}

impl ParallelResult {
    /// Modeled makespan on a machine with one core per worker:
    /// decomposition/distribution overhead plus the busiest worker's CPU
    /// time. On hosts with fewer physical cores than workers this is the
    /// honest scalability figure — threads timeshare, so wall time cannot
    /// show the speedup, but per-worker busy time can.
    pub fn modeled_makespan(&self) -> Duration {
        self.distribute_time
            + self
                .worker_busy
                .iter()
                .max()
                .copied()
                .unwrap_or(Duration::ZERO)
    }
}

/// Runs parallel enumeration over a built CECI.
///
/// At one worker this is an inline loop over the units with one reused
/// [`Enumerator`] — what [`crate::enumerate_sequential`] does, plus the
/// stop poll between units.
///
/// # Examples
///
/// ```
/// use ceci_core::{enumerate_parallel, Ceci, ParallelOptions, Strategy};
/// use ceci_graph::{vid, Graph};
/// use ceci_query::{PaperQuery, QueryPlan};
///
/// let graph = Graph::unlabeled(4, &[
///     (vid(0), vid(1)), (vid(1), vid(2)), (vid(2), vid(0)),
///     (vid(1), vid(3)), (vid(2), vid(3)),
/// ]);
/// let plan = QueryPlan::new(PaperQuery::Qg1.build(), &graph);
/// let ceci = Ceci::build(&graph, &plan);
/// let result = enumerate_parallel(&graph, &plan, &ceci, &ParallelOptions {
///     workers: 2,
///     strategy: Strategy::FineDynamic { beta: 0.2 },
///     collect: true,
///     ..Default::default()
/// });
/// assert_eq!(result.total_embeddings, 2);
/// assert_eq!(result.embeddings.unwrap().len(), 2);
/// ```
pub fn enumerate_parallel(
    graph: &Graph,
    plan: &QueryPlan,
    ceci: &Ceci,
    options: &ParallelOptions,
) -> ParallelResult {
    assert!(options.workers >= 1, "need at least one worker");
    let t0 = Instant::now();
    let units = match options.strategy {
        Strategy::FineDynamic { beta } => Units::Decomposed(decompose_with(
            graph,
            plan,
            ceci,
            options.workers,
            beta,
            options.enumeration,
        )),
        _ => Units::Clusters(ceci.pivots()),
    };
    let distribute_time = t0.elapsed();
    let num_units = units.len();

    // Only a limit is shared between workers: without one each worker's sink
    // is its own and no emission touches an atomic.
    let budget = options.limit.map(|limit| SharedBudget::new(Some(limit)));
    let next = AtomicUsize::new(0);

    let workers = options.workers;
    let t1 = Instant::now();
    type WorkerOut = (
        Counters,
        Duration,
        Vec<Vec<VertexId>>,
        Option<Box<crate::DepthProfile>>,
        Vec<(usize, u64)>,
    );
    let results: Vec<WorkerOut> = scoped_workers(workers, |w| {
        let mut enumerator = Enumerator::new(graph, plan, ceci, options.enumeration);
        enumerator.set_cancel(options.cancel.clone());
        if options.profile {
            enumerator.enable_profile();
        }
        let mut worker = UnitLoop {
            units: &units,
            // Static pre-assignment: worker w owns units w, w+k, ... —
            // "equal number of embedding clusters to each worker" with no
            // pulling. The dynamic strategies pull from `next`.
            pull: (options.strategy != Strategy::Static).then_some(&next),
            worker: w,
            workers,
            budget: budget.as_ref(),
            cancel: options.cancel.as_ref(),
            enumerator,
            counters: Counters::default(),
            busy: Duration::ZERO,
            drained: Vec::new(),
        };
        let mut collected = Vec::new();
        if options.collect {
            let mut sink = CollectSink::unbounded();
            worker.run_wrapped(&mut sink);
            collected = sink.into_embeddings();
        } else {
            worker.run_wrapped(&mut CountSink::unbounded());
        }
        (
            worker.counters,
            worker.busy,
            collected,
            worker.enumerator.take_profile(),
            worker.drained,
        )
    });
    let enumerate_time = t1.elapsed();

    let mut counters = Counters::default();
    let mut worker_busy = Vec::with_capacity(workers);
    let mut all: Vec<Vec<VertexId>> = Vec::new();
    let mut profile: Option<crate::DepthProfile> = None;
    let mut drained = Vec::new();
    for (c, busy, collected, worker_profile, worker_drained) in results {
        counters.merge(&c);
        drained.extend(worker_drained);
        worker_busy.push(busy);
        all.extend(collected);
        if let Some(p) = worker_profile {
            match profile.as_mut() {
                Some(merged) => merged.merge(&p),
                None => profile = Some(*p),
            }
        }
    }
    let embeddings = if options.collect {
        all.sort();
        if let Some(limit) = options.limit {
            all.truncate(limit as usize);
        }
        Some(all)
    } else {
        None
    };
    ParallelResult {
        total_embeddings: counters.embeddings,
        counters,
        worker_busy,
        num_units,
        distribute_time,
        enumerate_time,
        embeddings,
        cut: (options.cancel.as_ref())
            .filter(|_| !budget.as_ref().is_some_and(|b| b.stopped()))
            .and_then(|_| cut(&units, ceci, &drained)),
        profile,
    }
}

/// The [`Cut`] of a run under a token, from the units that drained and
/// what each found; `None` when every unit drained. A pivot is undrained
/// when any unit under it (FGD: any unit whose prefix starts at it) is.
fn cut(units: &Units, ceci: &Ceci, drained: &[(usize, u64)]) -> Option<Cut> {
    let mut done = vec![false; units.len()];
    drained.iter().for_each(|&(i, _)| done[i] = true);
    let pivot = |i: usize| units.prefix(i)[0];
    let open: HashSet<VertexId> = (0..units.len()).filter(|&i| !done[i]).map(pivot).collect();
    let exact = drained.iter().filter(|&&(i, _)| !open.contains(&pivot(i)));
    let undrained = ceci
        .pivots()
        .iter()
        .map(|&(p, _)| p)
        .filter(|p| open.contains(p));
    (!open.is_empty()).then(|| Cut {
        exact: exact.map(|&(_, n)| n).sum(),
        undrained: undrained.collect(),
    })
}

/// The work units of one run. ST and CGD hand out whole clusters, which the
/// index already lists: they borrow its pivots instead of boxing a
/// one-vertex prefix per pivot. FGD owns its decomposition.
enum Units<'a> {
    Clusters(&'a [(VertexId, u64)]),
    Decomposed(Vec<WorkUnit>),
}

impl Units<'_> {
    fn len(&self) -> usize {
        match self {
            Units::Clusters(pivots) => pivots.len(),
            Units::Decomposed(units) => units.len(),
        }
    }

    fn prefix(&self, i: usize) -> &[VertexId] {
        match self {
            Units::Clusters(pivots) => std::slice::from_ref(&pivots[i].0),
            Units::Decomposed(units) => &units[i].prefix,
        }
    }
}

/// One worker's share of a run: which units it takes and what it
/// accumulates while draining them.
struct UnitLoop<'a, 'e> {
    units: &'a Units<'a>,
    /// The shared cursor the dynamic strategies pull from; `None` assigns
    /// statically by worker index.
    pull: Option<&'a AtomicUsize>,
    worker: usize,
    workers: usize,
    budget: Option<&'a Arc<SharedBudget>>,
    cancel: Option<&'a Arc<CancelToken>>,
    enumerator: Enumerator<'e>,
    counters: Counters,
    busy: Duration,
    /// Under a token only: each unit that drained, with the embeddings it
    /// found.
    drained: Vec<(usize, u64)>,
}

impl UnitLoop<'_, '_> {
    /// Drains this worker's units into `inner`, under the global limit when
    /// the run has one.
    fn run_wrapped<S: EmbeddingSink>(&mut self, inner: &mut S) {
        match self.budget.cloned() {
            None => self.run(inner),
            Some(budget) => self.run(&mut SharedLimitSink::new(inner, budget)),
        }
    }

    /// Under a token, also logs each unit that drained: the `bool`
    /// `enumerate_prefix` returns, and the embeddings it found.
    fn run<S: EmbeddingSink>(&mut self, sink: &mut S) {
        // Neither way of taking units blocks between them, so one timer pair
        // around the loop reads the CPU time a pair per unit would add up to.
        let busy = ThreadTimer::start();
        let mut own = (self.worker..).step_by(self.workers);
        loop {
            let i = match self.pull {
                Some(next) => next.fetch_add(1, Ordering::Relaxed),
                None => own.next().expect("an open range never ends"),
            };
            if i >= self.units.len()
                || self.budget.is_some_and(|b| b.stopped())
                || self.cancel.is_some_and(|t| t.is_cancelled())
            {
                break;
            }
            let before = self.counters.embeddings;
            let drained =
                self.enumerator
                    .enumerate_prefix(self.units.prefix(i), sink, &mut self.counters);
            if drained && self.cancel.is_some() {
                self.drained.push((i, self.counters.embeddings - before));
            }
        }
        self.busy = busy.elapsed();
    }
}

/// Convenience: parallel count with a given strategy.
pub fn count_parallel(
    graph: &Graph,
    plan: &QueryPlan,
    ceci: &Ceci,
    workers: usize,
    strategy: Strategy,
) -> u64 {
    enumerate_parallel(
        graph,
        plan,
        ceci,
        &ParallelOptions {
            workers,
            strategy,
            ..Default::default()
        },
    )
    .total_embeddings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enumerate::collect_embeddings;
    use crate::fixtures::paper;
    use ceci_graph::vid;
    use ceci_query::PaperQuery;

    fn skewed_graph() -> Graph {
        // Hub fan: vertex 0 connected to 1..=24, consecutive ring among
        // 1..=24 → many triangles through the hub (an ExtremeCluster for the
        // hub pivot).
        let mut edges = Vec::new();
        for i in 1..=24u32 {
            edges.push((vid(0), vid(i)));
        }
        for i in 1..24u32 {
            edges.push((vid(i), vid(i + 1)));
        }
        Graph::unlabeled(25, &edges)
    }

    fn expected(graph: &Graph, plan: &QueryPlan, ceci: &Ceci) -> Vec<Vec<VertexId>> {
        collect_embeddings(graph, plan, ceci)
    }

    #[test]
    fn all_strategies_agree_with_sequential() {
        let graph = skewed_graph();
        let plan = QueryPlan::new(PaperQuery::Qg1.build(), &graph);
        let ceci = Ceci::build(&graph, &plan);
        let reference = expected(&graph, &plan, &ceci);
        assert!(!reference.is_empty());
        for strategy in [
            Strategy::Static,
            Strategy::CoarseDynamic,
            Strategy::FineDynamic { beta: 0.2 },
        ] {
            for workers in [1, 2, 4] {
                let result = enumerate_parallel(
                    &graph,
                    &plan,
                    &ceci,
                    &ParallelOptions {
                        workers,
                        strategy,
                        collect: true,
                        ..Default::default()
                    },
                );
                assert_eq!(
                    result.embeddings.as_ref().unwrap(),
                    &reference,
                    "{} × {workers} workers",
                    strategy.abbrev()
                );
                assert_eq!(result.total_embeddings, reference.len() as u64);
                assert_eq!(result.worker_busy.len(), workers);
            }
        }
    }

    #[test]
    fn figure1_parallel() {
        let (graph, plan) = paper::figure1();
        let ceci = Ceci::build(&graph, &plan);
        let result = enumerate_parallel(
            &graph,
            &plan,
            &ceci,
            &ParallelOptions {
                workers: 3,
                strategy: Strategy::FineDynamic { beta: 0.5 },
                collect: true,
                ..Default::default()
            },
        );
        assert_eq!(
            result.embeddings.unwrap(),
            crate::sink::canonicalize(paper::expected_embeddings())
        );
    }

    #[test]
    fn limit_stops_globally() {
        let graph = skewed_graph();
        let plan = QueryPlan::new(PaperQuery::Qg1.build(), &graph);
        let ceci = Ceci::build(&graph, &plan);
        let total = expected(&graph, &plan, &ceci).len() as u64;
        assert!(total > 5);
        let result = enumerate_parallel(
            &graph,
            &plan,
            &ceci,
            &ParallelOptions {
                workers: 4,
                strategy: Strategy::CoarseDynamic,
                limit: Some(5),
                collect: true,
                ..Default::default()
            },
        );
        let got = result.embeddings.unwrap();
        assert_eq!(got.len(), 5);
        // Each reported embedding is genuine.
        for emb in &got {
            assert!(crate::enumerate::is_valid_embedding(&graph, &plan, emb));
        }
    }

    #[test]
    fn fgd_creates_more_units_than_cgd() {
        let graph = skewed_graph();
        let plan = QueryPlan::new(PaperQuery::Qg1.build(), &graph);
        let ceci = Ceci::build(&graph, &plan);
        let cgd = enumerate_parallel(
            &graph,
            &plan,
            &ceci,
            &ParallelOptions {
                workers: 4,
                strategy: Strategy::CoarseDynamic,
                ..Default::default()
            },
        );
        let fgd = enumerate_parallel(
            &graph,
            &plan,
            &ceci,
            &ParallelOptions {
                workers: 4,
                strategy: Strategy::FineDynamic { beta: 0.1 },
                ..Default::default()
            },
        );
        assert!(fgd.num_units > cgd.num_units);
    }

    #[test]
    fn cancel_stops_all_strategies() {
        // A pre-cancelled token must stop ST, CGD, and FGD workers before
        // (or immediately after) their first work unit: the partial count is
        // strictly below the full count and the result is flagged.
        let graph = skewed_graph();
        let plan = QueryPlan::new(PaperQuery::Qg1.build(), &graph);
        let ceci = Ceci::build(&graph, &plan);
        let total = expected(&graph, &plan, &ceci).len() as u64;
        assert!(total > 4);
        for strategy in [
            Strategy::Static,
            Strategy::CoarseDynamic,
            Strategy::FineDynamic { beta: 0.2 },
        ] {
            for workers in [1, 2, 4] {
                let token = CancelToken::new();
                token.cancel();
                let result = enumerate_parallel(
                    &graph,
                    &plan,
                    &ceci,
                    &ParallelOptions {
                        workers,
                        strategy,
                        cancel: Some(token),
                        ..Default::default()
                    },
                );
                let cut = result.cut.expect("a pre-cancelled run is cut");
                assert_eq!(cut.exact, 0, "{} × {workers}", strategy.abbrev());
                assert_eq!(cut.undrained.len(), ceci.pivots().len());
                assert!(
                    result.total_embeddings < total,
                    "{} × {workers}: cancelled run found {} of {total}",
                    strategy.abbrev(),
                    result.total_embeddings
                );
            }
        }
    }

    #[test]
    fn expired_deadline_returns_partial_counts() {
        let graph = skewed_graph();
        let plan = QueryPlan::new(PaperQuery::Qg1.build(), &graph);
        let ceci = Ceci::build(&graph, &plan);
        let token = CancelToken::after(Duration::ZERO);
        let result = enumerate_parallel(
            &graph,
            &plan,
            &ceci,
            &ParallelOptions {
                workers: 2,
                strategy: Strategy::CoarseDynamic,
                collect: true,
                cancel: Some(token),
                ..Default::default()
            },
        );
        assert!(result.cut.is_some());
        // Whatever was collected before the stop is genuine.
        for emb in result.embeddings.as_deref().unwrap_or(&[]) {
            assert!(crate::enumerate::is_valid_embedding(&graph, &plan, emb));
        }
    }

    #[test]
    fn uncancelled_token_changes_nothing() {
        let (graph, plan) = paper::figure1();
        let ceci = Ceci::build(&graph, &plan);
        let options = ParallelOptions {
            workers: 2,
            collect: true,
            cancel: Some(CancelToken::new()),
            ..Default::default()
        };
        let result = enumerate_parallel(&graph, &plan, &ceci, &options);
        assert!(result.cut.is_none());
        assert_eq!(
            result.embeddings.unwrap(),
            crate::sink::canonicalize(paper::expected_embeddings())
        );
        // A live token leaves every counter as no token does, whatever the
        // strategy and width, counting or collecting.
        let graph = skewed_graph();
        let plan = QueryPlan::new(PaperQuery::Qg1.build(), &graph);
        let ceci = Ceci::build(&graph, &plan);
        for (strategy, workers) in [
            (Strategy::Static, 1),
            (Strategy::CoarseDynamic, 2),
            (Strategy::FineDynamic { beta: 0.2 }, 4),
        ] {
            for collect in [false, true] {
                let options = ParallelOptions {
                    workers,
                    strategy,
                    collect,
                    ..Default::default()
                };
                let free = enumerate_parallel(&graph, &plan, &ceci, &options);
                let live = ParallelOptions {
                    cancel: Some(CancelToken::after(Duration::from_secs(3600))),
                    ..options
                };
                let timed = enumerate_parallel(&graph, &plan, &ceci, &live);
                assert!(timed.cut.is_none());
                assert_eq!(
                    timed.counters,
                    free.counters,
                    "{} × {workers}",
                    strategy.abbrev()
                );
                assert_eq!(timed.embeddings, free.embeddings);
            }
        }
    }

    /// A token splits the pivots in two, however it lands: the undrained
    /// ones, and the rest, whose exact part is the sum of their own
    /// cluster counts. Pre-cancelled, never cancelled, or cancelled from a
    /// second thread while the workers run, at every strategy and width.
    #[test]
    fn a_token_splits_the_pivots_into_drained_and_undrained() {
        use ceci_graph::generators::barabasi_albert;
        let graph = barabasi_albert(400, 6, 17);
        let plan = QueryPlan::new(PaperQuery::Qg3.build(), &graph);
        let ceci = Ceci::build(&graph, &plan);
        let pivots: Vec<VertexId> = ceci.pivots().iter().map(|&(p, _)| p).collect();
        let mut enumerator = Enumerator::new(&graph, &plan, &ceci, EnumOptions::default());
        let per_pivot: Vec<u64> = (pivots.iter())
            .map(|&p| {
                let mut sink = CountSink::unbounded();
                enumerator.enumerate_prefix(&[p], &mut sink, &mut Counters::default());
                sink.count()
            })
            .collect();
        let total: u64 = per_pivot.iter().sum();
        assert!(pivots.len() > 50 && total > 0);
        let mut cuts = 0;
        for strategy in [
            Strategy::Static,
            Strategy::CoarseDynamic,
            Strategy::FineDynamic { beta: 0.2 },
        ] {
            for workers in [1, 2, 4] {
                for when in ["before", "never", "mid-run"] {
                    let token = CancelToken::new();
                    if when == "before" {
                        token.cancel();
                    }
                    let options = ParallelOptions {
                        workers,
                        strategy,
                        cancel: Some(Arc::clone(&token)),
                        ..Default::default()
                    };
                    let result = std::thread::scope(|scope| {
                        if when == "mid-run" {
                            let token = Arc::clone(&token);
                            scope.spawn(move || {
                                std::thread::sleep(Duration::from_micros(300));
                                token.cancel();
                            });
                        }
                        enumerate_parallel(&graph, &plan, &ceci, &options)
                    });
                    let at = format!("{} × {workers}, cancelled {when}", strategy.abbrev());
                    let Some(cut) = result.cut else {
                        assert_ne!(when, "before", "{at}");
                        assert_eq!(result.total_embeddings, total, "{at}");
                        continue;
                    };
                    cuts += 1;
                    assert_ne!(when, "never", "{at}");
                    // Undrained: a subset of the pivots, in their order, so
                    // the drained rest is its complement, disjoint from it.
                    let mut rest = cut.undrained.iter().peekable();
                    let mut exact = 0;
                    for (p, n) in pivots.iter().zip(&per_pivot) {
                        if rest.next_if_eq(&p).is_none() {
                            exact += n;
                        }
                    }
                    assert_eq!(rest.next(), None, "{at}: undrained outside the pivots");
                    assert!(!cut.undrained.is_empty(), "{at}");
                    assert_eq!(cut.exact, exact, "{at}");
                }
            }
        }
        assert!(cuts >= 9, "every pre-cancelled run is cut");
    }

    #[test]
    fn count_parallel_convenience() {
        let (graph, plan) = paper::figure1();
        let ceci = Ceci::build(&graph, &plan);
        assert_eq!(count_parallel(&graph, &plan, &ceci, 2, Strategy::Static), 2);
    }
}
