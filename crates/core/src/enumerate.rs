//! Embedding enumeration over CECI (§4).
//!
//! Each embedding cluster is searched by backtracking along the matching
//! order. For query node `u` with tree parent `u_p`, the candidate list is
//! `TE_Candidates[u][f(u_p)]`; every backward non-tree edge `(u_n, u)`
//! intersects in `NTE_Candidates[u][f(u_n)]`. The symmetry-breaking order
//! `f(u_i) < f(u_j)` is a *bound on those lists*, not a filter on their
//! intersection: one [`Enumerator::gather`] slices every list to the window
//! the already-mapped partners leave open before the kernel sees it, so the
//! surviving *matching nodes* only need the injectivity check before the
//! search recurses.
//!
//! The edge-verification mode (§4.1's comparison point) skips the NTE
//! intersection and instead verifies each candidate's non-tree edges against
//! the data graph — the strategy of TurboIso/CFLMatch-style engines. It
//! walks every TE candidate anyway, so it keeps filtering symmetry per
//! candidate.

use ceci_graph::{Graph, VertexId};
use ceci_query::QueryPlan;
use ceci_trace::DepthProfile;

use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

use crate::bitmap::VertexBitmap;
use crate::index::Ceci;
use crate::intersect::intersect_many_into;
use crate::metrics::Counters;
use crate::sink::{CancelToken, EmbeddingSink};
use crate::twins::TwinTail;

/// How many recursive calls pass between cooperative cancellation checks.
/// A power of two so the check compiles to a mask test; small enough that a
/// timed-out request unwinds in microseconds, large enough that the deadline
/// clock stays off the hot path (one `Instant::now()` per 64 calls).
const CANCEL_CHECK_MASK: u64 = 0x3F;

/// How many *candidates* pass between cooperative cancellation checks inside
/// a candidate drain. The per-call check above is useless against one
/// pathological high-degree pivot whose TE list holds millions of vertices:
/// the recursion enters once and then spends the whole deadline inside a
/// single drain loop. Checking every 256 drained candidates bounds the
/// overshoot to microseconds while keeping the clock off the common path
/// (the tick only advances when a token is attached).
const DRAIN_CHECK_MASK: u64 = 0xFF;

/// How non-tree edges are checked during enumeration.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum VerifyMode {
    /// Set intersection between TE and NTE candidate lists (the paper's
    /// contribution, Lemma 2).
    #[default]
    Intersection,
    /// Adjacency-list edge verification against the data graph (the
    /// baseline CECI is compared to in §4.1).
    EdgeVerification,
}

/// Options for an enumeration run.
#[derive(Clone, Copy, Debug, Default)]
pub struct EnumOptions {
    /// Non-tree edge strategy.
    pub verify: VerifyMode,
    /// CEMR-style redundant-extension elimination: when no tree edge and no
    /// backward NTE joins the last matching-order vertex to the penultimate
    /// one, the leaf set is gathered once per penultimate expansion and
    /// every sibling is answered with a bulk count instead of a recursive
    /// re-gather. If nothing at all ties the two, a sibling's count is the
    /// set minus its own membership ([`LeafMode::Reuse`]); if exactly one
    /// symmetry constraint does, the set is gathered with that constraint
    /// left out and a sibling's count is the part of the set above (or
    /// below) it ([`LeafMode::ReuseOrdered`]). A plan that ends in a twin
    /// tail the index confirmed is answered in closed form instead
    /// ([`LeafMode::Twins`]). Embedding counts are bit-identical; work
    /// counters legitimately shrink. Only takes effect for counting sinks
    /// (bulk-capable) under [`VerifyMode::Intersection`]. Off by default.
    pub prune_redundant: bool,
}

/// How the last matching-order depths of a plan are answered for a
/// bulk-capable sink (an unbounded count). A sink that needs each embedding
/// (`LIMIT`, collection) gets [`LeafMode::Emit`] whatever the plan allows.
/// Every mode answers alike whether or not the enumerator holds a
/// [`CancelToken`]: a unit the token stops is discarded whole, so a closed
/// form needs no poll of its own.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LeafMode {
    /// One `mapping` write and one `emit` per embedding.
    Emit,
    /// The last depth's gathered set is counted, not walked.
    Tally,
    /// The leaf set is gathered once per penultimate expansion; nothing ties
    /// it to the sibling chosen there but injectivity.
    Reuse,
    /// As [`LeafMode::Reuse`], with one symmetry constraint between the last
    /// two vertices: the leaf's image must compare this way to the sibling's.
    ReuseOrdered(Ordering),
    /// The plan ends in a [`TwinTail`] whose tables the index confirmed
    /// equal: once the search reaches the tail, the first unmapped twin's
    /// gathered set answers every completion in closed form (a binomial for
    /// chained twins, a falling factorial otherwise) — one gather per
    /// expansion, no walk.
    Twins(TwinTail),
}

impl LeafMode {
    /// The mode `plan` gets under `options` over `ceci`, the index built
    /// for it (whose build confirmed any twin tail).
    pub fn of(plan: &QueryPlan, ceci: &Ceci, options: EnumOptions) -> LeafMode {
        if options.verify != VerifyMode::Intersection {
            return LeafMode::Emit;
        }
        if !options.prune_redundant {
            return LeafMode::Tally;
        }
        if let Some(tail) = ceci.twin_tail() {
            return LeafMode::Twins(tail);
        }
        let &[.., pen, last] = plan.matching_order() else {
            return LeafMode::Tally;
        };
        // (A two-vertex order ends on the root's child: nothing to share.)
        if plan.tree().parent(last) == Some(pen) || plan.backward_nte(last).contains(&pen) {
            return LeafMode::Tally;
        }
        let above = plan.lower_bounds(last).contains(&pen);
        let below = plan.upper_bounds(last).contains(&pen);
        match (above, below) {
            (false, false) => LeafMode::Reuse,
            (true, false) => LeafMode::ReuseOrdered(Ordering::Greater),
            (false, true) => LeafMode::ReuseOrdered(Ordering::Less),
            (true, true) => LeafMode::Tally, // contradictory: nothing to share
        }
    }

    /// Embeddings completing the partial embedding that maps the penultimate
    /// vertex to `sibling`, given the sorted leaf set `accepted` gathered
    /// without it. The strict order of [`LeafMode::ReuseOrdered`] excludes
    /// the sibling itself, which is all injectivity asks.
    fn completions(self, accepted: &[VertexId], sibling: VertexId) -> u64 {
        let n = match self {
            LeafMode::ReuseOrdered(Ordering::Greater) => {
                accepted.len() - accepted.partition_point(|&w| w <= sibling)
            }
            LeafMode::ReuseOrdered(_) => accepted.partition_point(|&w| w < sibling),
            _ => accepted.len() - usize::from(accepted.binary_search(&sibling).is_ok()),
        };
        n as u64
    }
}

/// `EXPLAIN`'s name for the mode: `TALLY`, `REUSE_ORDERED`, `TWINS(2)`, ….
impl fmt::Display for LeafMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LeafMode::Emit => f.write_str("EMIT"),
            LeafMode::Tally => f.write_str("TALLY"),
            LeafMode::Reuse => f.write_str("REUSE"),
            LeafMode::ReuseOrdered(_) => f.write_str("REUSE_ORDERED"),
            LeafMode::Twins(tail) => write!(f, "TWINS({})", tail.twins),
        }
    }
}

/// The part of sorted `list` strictly between `lo` and `hi`.
#[inline]
fn clip(list: &[VertexId], lo: Option<VertexId>, hi: Option<VertexId>) -> &[VertexId] {
    let list = hi.map_or(list, |hi| &list[..list.partition_point(|&x| x < hi)]);
    lo.map_or(list, |lo| &list[list.partition_point(|&x| x <= lo)..])
}

/// Reusable per-worker scratch state for cluster enumeration.
///
/// All scratch is allocated once in [`Enumerator::new`] and reused for every
/// cluster / work unit the enumerator processes: the steady-state recursion
/// performs no heap allocation.
pub struct Enumerator<'a> {
    graph: &'a Graph,
    plan: &'a QueryPlan,
    ceci: &'a Ceci,
    options: EnumOptions,
    /// `mapping[u] = Some(v)` for assigned query vertices.
    mapping: Vec<Option<VertexId>>,
    /// Data vertices currently used by the partial embedding — a dense
    /// bitmap over the data-graph universe, O(1) per check with no hashing.
    used: VertexBitmap,
    /// Per-depth candidate buffers (avoids re-allocating during recursion).
    buffers: Vec<Vec<VertexId>>,
    /// Reusable NTE-list gather buffer (cleared, never dropped).
    nte_lists: Vec<&'a [VertexId]>,
    scratch: Vec<VertexId>,
    emission: Vec<VertexId>,
    /// Cooperative cancellation token, polled every [`CANCEL_CHECK_MASK`]+1
    /// recursive calls (per-request deadlines in the serving layer).
    cancel: Option<Arc<CancelToken>>,
    /// Candidates drained since the last in-drain cancellation poll; only
    /// advances while a token is attached (see [`DRAIN_CHECK_MASK`]).
    drain_tick: u64,
    /// Optional per-depth profile. Preallocated from the matching-order
    /// length in [`Enumerator::enable_profile`], so attribution inside the
    /// recursion is pure integer arithmetic plus one stride-sampled clock
    /// read — zero allocations in the steady state, and it never touches
    /// [`Counters`], so all exact counters stay bit-identical with
    /// profiling on or off.
    profile: Option<Box<DepthProfile>>,
    /// How the plan's last depths are answered for a bulk-capable sink,
    /// precomputed per plan and index (see [`LeafMode::of`]).
    leaf: LeafMode,
}

impl<'a> Enumerator<'a> {
    /// Creates an enumerator for `(graph, plan, ceci)`.
    pub fn new(
        graph: &'a Graph,
        plan: &'a QueryPlan,
        ceci: &'a Ceci,
        options: EnumOptions,
    ) -> Self {
        let n = plan.query().num_vertices();
        let max_nte = plan
            .query()
            .vertices()
            .map(|u| ceci.nte(u).len())
            .max()
            .unwrap_or(0);
        Enumerator {
            graph,
            plan,
            ceci,
            options,
            mapping: vec![None; n],
            used: VertexBitmap::new(graph.num_vertices()),
            buffers: (0..n).map(|_| Vec::new()).collect(),
            nte_lists: Vec::with_capacity(max_nte),
            scratch: Vec::new(),
            emission: vec![VertexId(0); n],
            cancel: None,
            drain_tick: 0,
            profile: None,
            leaf: LeafMode::of(plan, ceci, options),
        }
    }

    /// Attaches a cooperative [`CancelToken`]: the recursion polls it
    /// periodically and unwinds (as if the sink had requested a stop) once it
    /// trips. Pass `None` to detach.
    pub fn set_cancel(&mut self, token: Option<Arc<CancelToken>>) {
        self.cancel = token;
    }

    /// Attaches a fresh per-depth profile preallocated from the matching
    /// order (one [`ceci_trace::DepthStat`] slot per query node). The
    /// recursion then attributes exact candidate fan-out / intersection-op /
    /// backtrack counts and stride-sampled wall time to each depth without
    /// allocating.
    pub fn enable_profile(&mut self) {
        let mut p = Box::new(DepthProfile::new(self.plan.matching_order().len()));
        p.arm_clock();
        self.profile = Some(p);
    }

    /// Detaches and returns the accumulated profile, if any.
    pub fn take_profile(&mut self) -> Option<Box<DepthProfile>> {
        self.profile.take()
    }

    /// The attached profile, if any.
    pub fn profile(&self) -> Option<&DepthProfile> {
        self.profile.as_deref()
    }

    /// In-drain cooperative cancellation poll: advances the drain tick and
    /// checks the token every [`DRAIN_CHECK_MASK`]+1 candidates. Costs one
    /// predictable branch when no token is attached.
    #[inline]
    fn drain_cancelled(&mut self) -> bool {
        if let Some(token) = &self.cancel {
            self.drain_tick = self.drain_tick.wrapping_add(1);
            if self.drain_tick & DRAIN_CHECK_MASK == 0 {
                return token.is_cancelled();
            }
        }
        false
    }

    /// Enumerates all embeddings in the cluster of `pivot`. Returns `false`
    /// if the sink requested a stop.
    pub fn enumerate_cluster<S: EmbeddingSink>(
        &mut self,
        pivot: VertexId,
        sink: &mut S,
        counters: &mut Counters,
    ) -> bool {
        self.enumerate_prefix(&[pivot], sink, counters)
    }

    /// Enumerates all embeddings extending a work-unit `prefix`: images of
    /// `matching_order[0..prefix.len()]` in order. Returns `false` if the
    /// sink requested a stop.
    ///
    /// The prefix is trusted to be internally consistent (work units are
    /// produced by [`crate::extreme::decompose`], which applies the same
    /// checks enumeration would).
    pub fn enumerate_prefix<S: EmbeddingSink>(
        &mut self,
        prefix: &[VertexId],
        sink: &mut S,
        counters: &mut Counters,
    ) -> bool {
        let order = self.plan.matching_order();
        assert!(!prefix.is_empty() && prefix.len() <= order.len());
        debug_assert!(
            prefix
                .iter()
                .enumerate()
                .all(|(i, v)| !prefix[..i].contains(v)),
            "work-unit prefix must map distinct data vertices"
        );
        self.map_prefix(prefix, true);
        let keep_going = if prefix.len() == order.len() {
            counters.embeddings += 1;
            self.emit(sink)
        } else {
            self.search(prefix.len(), sink, counters)
        };
        self.map_prefix(prefix, false);
        keep_going
    }

    /// Maps (or unmaps) `matching_order[..prefix.len()]` to `prefix`.
    fn map_prefix(&mut self, prefix: &[VertexId], mapped: bool) {
        for (u, &v) in self.plan.matching_order().iter().zip(prefix) {
            self.mapping[u.index()] = mapped.then_some(v);
            if mapped {
                self.used.insert(v);
            } else {
                self.used.remove(v);
            }
        }
    }

    /// Recursive backtracking search at `depth` in the matching order.
    fn search<S: EmbeddingSink>(
        &mut self,
        depth: usize,
        sink: &mut S,
        counters: &mut Counters,
    ) -> bool {
        counters.recursive_calls += 1;
        // Cooperative cancellation: poll the shared token periodically so a
        // deadline-exceeded request unwinds in bounded time without paying a
        // clock read on every call.
        if counters.recursive_calls & CANCEL_CHECK_MASK == 0 {
            if let Some(token) = &self.cancel {
                if token.is_cancelled() {
                    return false;
                }
            }
        }
        if let Some(p) = self.profile.as_deref_mut() {
            p.on_call(depth);
        }
        let mut buffer = std::mem::take(&mut self.buffers[depth]);
        let gathered = self.gather(depth, &mut buffer, counters);
        let keep_going = gathered && self.drain(depth, &buffer, sink, counters);
        self.buffers[depth] = buffer;
        keep_going
    }

    /// Gathers the matching nodes of `order[depth]` under the current
    /// partial embedding into `out`: window → intersect. The symmetry
    /// window `(lo, hi)` — the largest image among the mapped partners that
    /// must stay below `u`, the smallest among those that must stay above —
    /// slices the TE list and every NTE list before the kernel sees them,
    /// so `out` satisfies every tree edge, non-tree edge and symmetry
    /// constraint whose other end is mapped; injectivity against the prefix
    /// is left to the caller (each has its own way to count it).
    /// Edge-verification mode walks the whole TE list and rejects per
    /// candidate — edges, injectivity, symmetry, in the order its counters
    /// have always recorded. Returns `false` only when that walk was
    /// cancelled.
    fn gather(&mut self, depth: usize, out: &mut Vec<VertexId>, counters: &mut Counters) -> bool {
        out.clear();
        // Detach the reference fields from `self` so candidate lists borrowed
        // from the index don't pin the whole enumerator.
        let (graph, plan, ceci) = (self.graph, self.plan, self.ceci);
        let u = plan.matching_order()[depth];
        let parent = plan.tree().parent(u).expect("non-root nodes have parents");
        let parent_image = self.mapping[parent.index()].expect("parent is assigned");
        // No list: no candidates under this parent image.
        let te_list = ceci.te(u).and_then(|t| t.get(parent_image)).unwrap_or(&[]);
        let ops_before = counters.intersection_ops;
        let mut completed = true;
        match self.options.verify {
            VerifyMode::Intersection => {
                // A partner still unmapped (the penultimate vertex during a
                // shared leaf gather) bounds nothing yet.
                let image = |w: &VertexId| self.mapping[w.index()];
                let lo = plan.lower_bounds(u).iter().filter_map(image).max();
                let hi = plan.upper_bounds(u).iter().filter_map(image).min();
                // Collect the NTE lists keyed by the current images into the
                // reusable gather buffer (no allocation in steady state). A
                // missing key is two array reads to find, so look them all up
                // before bisecting any list; one empty list empties the
                // intersection.
                let mut lists = std::mem::take(&mut self.nte_lists);
                lists.clear();
                let keyed = ceci.nte(u).iter().all(|(un, table)| {
                    let key = self.mapping[un.index()].expect("NTE parent assigned earlier");
                    table.get(key).map(|list| lists.push(list)).is_some()
                });
                let te_list = if keyed { clip(te_list, lo, hi) } else { &[] };
                let live = !te_list.is_empty()
                    && lists.iter_mut().all(|list| {
                        *list = clip(list, lo, hi);
                        !list.is_empty()
                    });
                if live {
                    intersect_many_into(
                        te_list,
                        &lists,
                        out,
                        &mut self.scratch,
                        &mut counters.intersection_ops,
                    );
                }
                self.nte_lists = lists;
            }
            VerifyMode::EdgeVerification => {
                'cand: for &v in te_list {
                    // A single huge TE list can hold the recursion here for
                    // the rest of the deadline; poll inside the gather too.
                    if self.drain_cancelled() {
                        completed = false;
                        break;
                    }
                    for un in plan.backward_nte(u) {
                        let image = self.mapping[un.index()].expect("NTE parent assigned");
                        counters.edge_verifications += 1;
                        if !graph.has_edge(v, image) {
                            continue 'cand;
                        }
                    }
                    if self.used.contains(v) {
                        counters.injectivity_rejections += 1;
                    } else if !plan.satisfies_symmetry(u, v, &self.mapping) {
                        counters.symmetry_rejections += 1;
                    } else {
                        out.push(v);
                    }
                }
            }
        }
        if let Some(p) = self.profile.as_deref_mut() {
            let ops = counters.intersection_ops - ops_before;
            p.on_expand(depth, out.len() as u64, ops);
        }
        completed
    }

    /// Extends the partial embedding by each gathered candidate of
    /// `order[depth]` in turn and recurses (or emits, at the last depth).
    /// The only check left to make per candidate is injectivity — so at the
    /// last depth a sink that takes counts gets one, without the walk.
    fn drain<S: EmbeddingSink>(
        &mut self,
        depth: usize,
        gathered: &[VertexId],
        sink: &mut S,
        counters: &mut Counters,
    ) -> bool {
        let plan = self.plan;
        let order = plan.matching_order();
        let u = order[depth];
        let last = depth + 1 == order.len();
        // Closed form: the gather proved every edge and every symmetry
        // constraint, so what completes the embedding is a choice of images
        // for the `left` vertices still unmapped out of the gathered set
        // minus the prefix images inside it. At the last depth that is the
        // set's size (a tally); inside a twin tail every unmapped twin draws
        // from this one set.
        let left = order.len() - depth;
        let closed = match self.leaf {
            LeafMode::Emit => false,
            LeafMode::Twins(tail) => left <= tail.twins,
            _ => last,
        };
        if closed && sink.supports_bulk() {
            let image = |w: &VertexId| self.mapping[w.index()].expect("prefix is assigned");
            let prefix = order[..depth].iter().map(image);
            let taken = prefix.filter(|v| gathered.binary_search(v).is_ok()).count() as u64;
            let free = gathered.len() as u64 - taken;
            let count = match self.leaf {
                LeafMode::Twins(tail) => tail.completions(free, left),
                _ => Some(free),
            };
            // An overflowing count (three or more twins) walks this depth
            // instead; the next one tries again with one twin fewer.
            if let Some(n) = count {
                counters.injectivity_rejections += taken;
                counters.embeddings += n;
                // Credited to the last depth, where a walk would emit them.
                if let Some(p) = self.profile.as_deref_mut() {
                    p.on_drain(order.len() - 1, n, n);
                }
                return n == 0 || sink.emit_bulk(n);
            }
        }
        // Leaf-level redundant-extension elimination: every sibling drained
        // below would recurse into the last depth and gather the *same*
        // candidate set, up to the one symmetry constraint that may tie the
        // two (established per plan in `LeafMode::of`). Gather it once
        // against the shared prefix; `LeafMode::completions` reads each
        // sibling's count off it.
        let leaf: Option<Vec<VertexId>> = (depth + 2 == order.len()
            && !gathered.is_empty()
            && matches!(self.leaf, LeafMode::Reuse | LeafMode::ReuseOrdered(_))
            && sink.supports_bulk())
        .then(|| self.gather_leaf(counters));

        let mut keep_going = true;
        // Batched profile attribution: the drain loop below is the hottest
        // code in the engine, so per-candidate profile hooks would deref the
        // boxed profile millions of times. Accumulate in stack locals and
        // flush once after the loop (on every exit path).
        let mut emitted_here = 0u64;
        let mut backtracks_here = 0u64;
        let mut leaf_emitted = 0u64;
        for &v in gathered {
            // In-drain cancellation poll: the intersection above may have
            // produced millions of candidates for one pathological pivot,
            // and the per-call poll would not fire again until the *next*
            // recursive call.
            if self.drain_cancelled() {
                keep_going = false;
                break;
            }
            if self.used.contains(v) {
                counters.injectivity_rejections += 1;
                continue;
            }
            self.mapping[u.index()] = Some(v);
            self.used.insert(v);
            keep_going = if last {
                counters.embeddings += 1;
                emitted_here += 1;
                self.emit(sink)
            } else if let Some(accepted) = &leaf {
                let sub = self.leaf.completions(accepted, v);
                counters.embeddings += sub;
                leaf_emitted += sub;
                sink.emit_bulk(sub)
            } else {
                self.search(depth + 1, sink, counters)
            };
            self.mapping[u.index()] = None;
            self.used.remove(v);
            backtracks_here += 1;
            if !keep_going {
                break;
            }
        }
        // The first sibling answered pays for the leaf gather; every later
        // one reuses it.
        let leaf_reused = leaf
            .as_ref()
            .map_or(0, |_| backtracks_here.saturating_sub(1));
        counters.reused_subtrees += leaf_reused;
        if let Some(p) = self.profile.as_deref_mut() {
            p.on_drain(depth, emitted_here, backtracks_here);
            if leaf.is_some() {
                p.on_drain(depth + 1, leaf_emitted, 0);
                p.on_reuse(depth + 1, leaf_reused);
            }
        }
        if let Some(accepted) = leaf {
            // Return the leaf buffer to its slot for reuse.
            self.buffers[depth + 1] = accepted;
        }
        keep_going
    }

    /// Gathers the last depth's candidate set once for leaf-level redundant-
    /// extension elimination, filtered for injectivity against the shared
    /// prefix. The penultimate sibling is not mapped yet, so a symmetry
    /// constraint tying it to the leaf stays out of the window; the sibling's
    /// own exclusion is [`LeafMode::completions`]'s. The set stays sorted
    /// (intersection outputs are, and `retain` preserves order).
    fn gather_leaf(&mut self, counters: &mut Counters) -> Vec<VertexId> {
        let depth = self.plan.matching_order().len() - 1;
        let mut buffer = std::mem::take(&mut self.buffers[depth]);
        self.gather(depth, &mut buffer, counters);
        let raw = buffer.len();
        buffer.retain(|&w| !self.used.contains(w));
        counters.injectivity_rejections += (raw - buffer.len()) as u64;
        buffer
    }

    fn emit<S: EmbeddingSink>(&mut self, sink: &mut S) -> bool {
        for u in 0..self.mapping.len() {
            self.emission[u] = self.mapping[u].expect("embedding is complete");
        }
        sink.emit(&self.emission)
    }

    /// Computes the matching nodes of the *next* query node after a valid
    /// prefix — the expansion step shared with ExtremeCluster decomposition
    /// (Algorithm 3 line 13). Returns candidates that also pass injectivity
    /// and symmetry for this prefix.
    pub fn matching_nodes_after_prefix(
        &mut self,
        prefix: &[VertexId],
        counters: &mut Counters,
    ) -> Vec<VertexId> {
        assert!(!prefix.is_empty() && prefix.len() < self.plan.matching_order().len());
        self.map_prefix(prefix, true);
        let mut out = Vec::new();
        self.gather(prefix.len(), &mut out, counters);
        out.retain(|&v| !self.used.contains(v));
        self.map_prefix(prefix, false);
        out
    }
}

/// Enumerates all clusters sequentially (pivot order). Returns the counters;
/// stops early if the sink requests it.
pub fn enumerate_sequential<S: EmbeddingSink>(
    graph: &Graph,
    plan: &QueryPlan,
    ceci: &Ceci,
    options: EnumOptions,
    sink: &mut S,
) -> Counters {
    let mut counters = Counters::default();
    let mut e = Enumerator::new(graph, plan, ceci, options);
    for &(pivot, _card) in ceci.pivots() {
        if !e.enumerate_cluster(pivot, sink, &mut counters) {
            break;
        }
    }
    counters
}

/// Convenience: count all embeddings sequentially.
pub fn count_embeddings(graph: &Graph, plan: &QueryPlan, ceci: &Ceci) -> u64 {
    let mut sink = crate::sink::CountSink::unbounded();
    enumerate_sequential(graph, plan, ceci, EnumOptions::default(), &mut sink);
    sink.count()
}

/// Convenience: collect all embeddings sequentially, canonically sorted.
pub fn collect_embeddings(graph: &Graph, plan: &QueryPlan, ceci: &Ceci) -> Vec<Vec<VertexId>> {
    let mut sink = crate::sink::CollectSink::unbounded();
    enumerate_sequential(graph, plan, ceci, EnumOptions::default(), &mut sink);
    crate::sink::canonicalize(sink.into_embeddings())
}

/// Checks a reported embedding against the query (used by tests and the
/// correctness harness): label containment, edge preservation, injectivity,
/// and symmetry constraints.
pub fn is_valid_embedding(graph: &Graph, plan: &QueryPlan, embedding: &[VertexId]) -> bool {
    let query = plan.query();
    if embedding.len() != query.num_vertices() {
        return false;
    }
    let mut seen = std::collections::HashSet::new();
    for u in query.vertices() {
        let v = embedding[u.index()];
        if !seen.insert(v) {
            return false;
        }
        if !query.labels(u).is_subset_of(graph.labels(v)) {
            return false;
        }
    }
    for &(a, b) in query.edges() {
        if !graph.has_edge(embedding[a.index()], embedding[b.index()]) {
            return false;
        }
    }
    plan.symmetry_constraints()
        .iter()
        .all(|c| embedding[c.smaller.index()] < embedding[c.larger.index()])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::paper;
    use crate::index::BuildOptions;
    use crate::sink::{canonicalize, CollectSink, CountSink};

    fn setup() -> (Graph, QueryPlan, Ceci) {
        let (graph, plan) = paper::figure1();
        let ceci = Ceci::build(&graph, &plan);
        (graph, plan, ceci)
    }

    #[test]
    fn figure1_embeddings_found() {
        let (graph, plan, ceci) = setup();
        let found = collect_embeddings(&graph, &plan, &ceci);
        assert_eq!(found, canonicalize(paper::expected_embeddings()));
    }

    #[test]
    fn all_reported_embeddings_valid() {
        let (graph, plan, ceci) = setup();
        for emb in collect_embeddings(&graph, &plan, &ceci) {
            assert!(is_valid_embedding(&graph, &plan, &emb));
        }
    }

    #[test]
    fn edge_verification_mode_agrees() {
        let (graph, plan) = paper::figure1();
        // Build without NTE tables — enumeration must fall back to edge
        // verification and still find both embeddings.
        let ceci = Ceci::build_with(
            &graph,
            &plan,
            BuildOptions {
                build_nte: false,
                refine: true,
            },
        );
        let mut sink = CollectSink::unbounded();
        let counters = enumerate_sequential(
            &graph,
            &plan,
            &ceci,
            EnumOptions {
                verify: VerifyMode::EdgeVerification,
                ..Default::default()
            },
            &mut sink,
        );
        assert_eq!(
            canonicalize(sink.into_embeddings()),
            canonicalize(paper::expected_embeddings())
        );
        assert!(counters.edge_verifications > 0);
        assert_eq!(counters.intersection_ops, 0);
    }

    #[test]
    fn intersection_mode_does_no_edge_verification() {
        let (graph, plan, ceci) = setup();
        let mut sink = CountSink::unbounded();
        let counters =
            enumerate_sequential(&graph, &plan, &ceci, EnumOptions::default(), &mut sink);
        assert_eq!(counters.edge_verifications, 0);
        assert!(counters.intersection_ops > 0);
        assert_eq!(counters.embeddings, 2);
        assert_eq!(sink.count(), 2);
    }

    #[test]
    fn first_k_stops_early() {
        let (graph, plan, ceci) = setup();
        let mut sink = CountSink::with_limit(1);
        enumerate_sequential(&graph, &plan, &ceci, EnumOptions::default(), &mut sink);
        assert_eq!(sink.count(), 1);
    }

    #[test]
    fn prefix_enumeration_matches_cluster() {
        let (graph, plan, ceci) = setup();
        let mut counters = Counters::default();
        let mut e = Enumerator::new(&graph, &plan, &ceci, EnumOptions::default());
        // Prefix (v1, v3) should yield exactly the first embedding.
        let mut sink = CollectSink::unbounded();
        e.enumerate_prefix(&[paper::v(1), paper::v(3)], &mut sink, &mut counters);
        assert_eq!(
            sink.into_embeddings(),
            vec![vec![
                paper::v(1),
                paper::v(3),
                paper::v(4),
                paper::v(11),
                paper::v(12)
            ]]
        );
    }

    #[test]
    fn full_length_prefix_emits_directly() {
        let (graph, plan, ceci) = setup();
        let mut counters = Counters::default();
        let mut e = Enumerator::new(&graph, &plan, &ceci, EnumOptions::default());
        let mut sink = CountSink::unbounded();
        let emb = &paper::expected_embeddings()[0];
        // Matching order is u1..u5, so the prefix in order equals the
        // embedding by query id here.
        assert!(e.enumerate_prefix(emb, &mut sink, &mut counters));
        assert_eq!(sink.count(), 1);
    }

    #[test]
    fn matching_nodes_after_prefix_matches_paper() {
        let (graph, plan, ceci) = setup();
        let mut counters = Counters::default();
        let mut e = Enumerator::new(&graph, &plan, &ceci, EnumOptions::default());
        // After (v1): matching nodes for u2 are {v3, v5}.
        assert_eq!(
            e.matching_nodes_after_prefix(&[paper::v(1)], &mut counters),
            vec![paper::v(3), paper::v(5)]
        );
        // After (v1, v3): u3 must be {v4} (TE {v4,v6} ∩ NTE[v3] {v4}).
        assert_eq!(
            e.matching_nodes_after_prefix(&[paper::v(1), paper::v(3)], &mut counters),
            vec![paper::v(4)]
        );
    }

    #[test]
    fn validity_checker_rejects_bad_embeddings() {
        let (graph, plan, _) = setup();
        // Wrong length.
        assert!(!is_valid_embedding(&graph, &plan, &[paper::v(1)]));
        // Duplicate vertex.
        let dup = vec![paper::v(1); 5];
        assert!(!is_valid_embedding(&graph, &plan, &dup));
        // Label mismatch: map u1 (A) to a B vertex.
        let bad = vec![
            paper::v(3),
            paper::v(1),
            paper::v(4),
            paper::v(11),
            paper::v(12),
        ];
        assert!(!is_valid_embedding(&graph, &plan, &bad));
    }

    #[test]
    fn cancel_token_unwinds_mid_recursion() {
        use crate::sink::CancelToken;
        use ceci_graph::vid;
        use ceci_query::PaperQuery;

        // Hub fan with a consecutive ring: enough triangles that the search
        // makes well over CANCEL_CHECK_MASK recursive calls.
        let mut edges = Vec::new();
        for i in 1..=100u32 {
            edges.push((vid(0), vid(i)));
        }
        for i in 1..100u32 {
            edges.push((vid(i), vid(i + 1)));
        }
        let graph = Graph::unlabeled(101, &edges);
        let plan = QueryPlan::new(PaperQuery::Qg1.build(), &graph);
        let ceci = Ceci::build(&graph, &plan);
        let total = count_embeddings(&graph, &plan, &ceci);

        let token = CancelToken::new();
        token.cancel();
        let mut e = Enumerator::new(&graph, &plan, &ceci, EnumOptions::default());
        e.set_cancel(Some(token));
        let mut counters = Counters::default();
        let mut sink = CountSink::unbounded();
        let mut stopped = false;
        for &(pivot, _) in ceci.pivots() {
            if !e.enumerate_cluster(pivot, &mut sink, &mut counters) {
                stopped = true;
                break;
            }
        }
        assert!(stopped, "periodic check must trip inside the recursion");
        assert!(sink.count() < total);
    }

    #[test]
    fn drain_cancel_bounds_pathological_pivot() {
        use crate::sink::CancelToken;
        use ceci_graph::vid;
        use ceci_query::QueryGraph;
        use std::time::{Duration, Instant};

        // One hub with 20k leaves and a single-edge query: the hub cluster
        // is ONE recursive call whose candidate buffer holds every leaf, so
        // the per-call cancellation check never fires again — only the
        // in-drain stride check can stop it. The sink collects, so the last
        // depth is walked (a count would be tallied in one step).
        const N: u32 = 20_000;
        let edges: Vec<_> = (1..=N).map(|i| (vid(0), vid(i))).collect();
        let graph = Graph::unlabeled((N + 1) as usize, &edges);
        let query = QueryGraph::unlabeled(2, &[(0, 1)]).unwrap();
        let plan = QueryPlan::new(query, &graph);
        let ceci = Ceci::build(&graph, &plan);
        let hub = ceci
            .pivots()
            .iter()
            .map(|&(p, _)| p)
            .find(|&p| p == vid(0))
            .expect("hub is a pivot");

        // Pre-expired deadline: the drain must stop within one stride.
        let token = CancelToken::after(Duration::ZERO);
        let mut e = Enumerator::new(&graph, &plan, &ceci, EnumOptions::default());
        e.set_cancel(Some(token));
        let mut counters = Counters::default();
        let mut sink = CollectSink::unbounded();
        let t0 = Instant::now();
        let keep_going = e.enumerate_cluster(hub, &mut sink, &mut counters);
        let overshoot = t0.elapsed();
        assert!(!keep_going, "expired deadline must stop the drain");
        assert!(
            sink.len() as u64 <= DRAIN_CHECK_MASK + 2,
            "drain must stop within one stride, emitted {}",
            sink.len()
        );
        assert!(
            overshoot < Duration::from_millis(10),
            "deadline overshoot {overshoot:?} ≥ 10ms"
        );
    }

    #[test]
    fn drain_cancel_stops_edge_verification_gather() {
        use crate::sink::CancelToken;
        use ceci_graph::vid;
        use ceci_query::PaperQuery;

        // Hub fan + ring without NTE tables: the gather loop verifies edges
        // for every TE candidate and must poll the token while doing so.
        let mut edges = Vec::new();
        for i in 1..=2000u32 {
            edges.push((vid(0), vid(i)));
        }
        for i in 1..2000u32 {
            edges.push((vid(i), vid(i + 1)));
        }
        let graph = Graph::unlabeled(2001, &edges);
        let plan = QueryPlan::new(PaperQuery::Qg1.build(), &graph);
        let ceci = Ceci::build_with(
            &graph,
            &plan,
            BuildOptions {
                build_nte: false,
                refine: true,
            },
        );
        let token = CancelToken::new();
        token.cancel();
        let mut e = Enumerator::new(
            &graph,
            &plan,
            &ceci,
            EnumOptions {
                verify: VerifyMode::EdgeVerification,
                ..Default::default()
            },
        );
        e.set_cancel(Some(token));
        let mut counters = Counters::default();
        let mut sink = CountSink::unbounded();
        let mut stopped = false;
        for &(pivot, _) in ceci.pivots() {
            if !e.enumerate_cluster(pivot, &mut sink, &mut counters) {
                stopped = true;
                break;
            }
        }
        assert!(stopped, "gather loop must observe the cancelled token");
    }

    #[test]
    fn profile_attribution_is_exact_and_free() {
        let (graph, plan, ceci) = setup();

        // Baseline without a profile.
        let mut base_sink = CountSink::unbounded();
        let base =
            enumerate_sequential(&graph, &plan, &ceci, EnumOptions::default(), &mut base_sink);

        // Profiled run: counters must be bit-identical, and the per-depth
        // exact counters must sum to the global ones.
        let mut e = Enumerator::new(&graph, &plan, &ceci, EnumOptions::default());
        e.enable_profile();
        let mut counters = Counters::default();
        let mut sink = CountSink::unbounded();
        for &(pivot, _) in ceci.pivots() {
            assert!(e.enumerate_cluster(pivot, &mut sink, &mut counters));
        }
        assert_eq!(counters, base);
        assert_eq!(sink.count(), base_sink.count());

        let profile = e.take_profile().expect("profile attached");
        assert_eq!(profile.len(), plan.matching_order().len());
        assert_eq!(profile.total_intersections(), counters.intersection_ops);
        assert_eq!(profile.total_emitted(), counters.embeddings);
        // Depth 0 is seeded by the pivot prefix, not a recursive call.
        assert_eq!(profile.total_calls(), counters.recursive_calls);
        assert_eq!(profile.depths()[0].calls, 0);
    }

    fn count_with_options(
        graph: &Graph,
        plan: &QueryPlan,
        ceci: &Ceci,
        options: EnumOptions,
    ) -> (u64, Counters) {
        let mut sink = CountSink::unbounded();
        let counters = enumerate_sequential(graph, plan, ceci, options, &mut sink);
        (sink.count(), counters)
    }

    /// Labeled 2-leaf star (distinct leaf labels, so no symmetry constraint
    /// ties the last two matching-order vertices) over a data graph where
    /// each center fans out to several leaves of each label — the canonical
    /// eligible shape for leaf-level redundant-extension elimination.
    fn eligible_star() -> (Graph, QueryPlan, Ceci) {
        use ceci_graph::{lid, LabelSet};
        // Vertex 0,1: label A centers; 2..=4: label B; 5..=7: label C.
        let labels: Vec<LabelSet> = [0u32, 0, 1, 1, 1, 2, 2, 2]
            .iter()
            .map(|&l| LabelSet::single(lid(l)))
            .collect();
        let mut edges = Vec::new();
        for c in 0..2u32 {
            for leaf in 2..8u32 {
                edges.push((ceci_graph::vid(c), ceci_graph::vid(leaf)));
            }
        }
        let graph = Graph::new(labels, &edges, false);
        let query =
            ceci_query::QueryGraph::with_labels(&[lid(0), lid(1), lid(2)], &[(0, 1), (0, 2)])
                .unwrap();
        let plan = QueryPlan::new(query, &graph);
        let ceci = Ceci::build(&graph, &plan);
        (graph, plan, ceci)
    }

    #[test]
    fn redundant_pruning_counts_bit_identical_on_eligible_star() {
        let (graph, plan, ceci) = eligible_star();
        let (base_count, base) = count_with_options(&graph, &plan, &ceci, EnumOptions::default());
        let (pruned_count, pruned) = count_with_options(
            &graph,
            &plan,
            &ceci,
            EnumOptions {
                prune_redundant: true,
                ..Default::default()
            },
        );
        // 2 centers × 3 B-leaves × 3 C-leaves.
        assert_eq!(base_count, 18);
        assert_eq!(pruned_count, base_count);
        assert_eq!(pruned.embeddings, base.embeddings);
        assert!(
            pruned.reused_subtrees > 0,
            "eligible plan with fan-out must reuse sibling subtrees"
        );
        assert_eq!(base.reused_subtrees, 0);
        // The whole point: strictly less recursion.
        assert!(pruned.recursive_calls < base.recursive_calls);
    }

    #[test]
    fn leaf_mode_is_plan_dependent() {
        let pruning = EnumOptions {
            prune_redundant: true,
            ..Default::default()
        };
        let (graph, plan, ceci) = eligible_star();
        assert_eq!(LeafMode::of(&plan, &ceci, pruning), LeafMode::Reuse);
        // Default off: the last depth is still tallied, never shared.
        assert_eq!(
            LeafMode::of(&plan, &ceci, EnumOptions::default()),
            LeafMode::Tally
        );
        // Edge verification rejects per candidate all the way down.
        let verify = EnumOptions {
            verify: VerifyMode::EdgeVerification,
            ..pruning
        };
        assert_eq!(LeafMode::of(&plan, &ceci, verify), LeafMode::Emit);
        let mode = |plan: &QueryPlan| LeafMode::of(plan, &Ceci::build(&graph, plan), pruning);
        // An unlabeled 2-leaf star from its hub ends in twins, chained by
        // the one symmetry constraint between them: one gather answers both.
        let twins = ceci_query::QueryGraph::unlabeled(3, &[(0, 1), (0, 2)]).unwrap();
        let twins = QueryPlan::new(twins, &graph);
        assert_eq!(twins.matching_order()[0], VertexId(0));
        let tail = TwinTail {
            twins: 2,
            chained: true,
        };
        assert_eq!(mode(&twins), LeafMode::Twins(tail));
        // A 4-path from an inner vertex ends on its two automorphic leaves
        // under different parents: the one symmetry constraint between the
        // last two order vertices orders the shared leaf set instead of
        // forbidding it.
        let sym_plan = QueryPlan::with_options(
            ceci_query::catalog::path(4),
            &graph,
            &ceci_query::PlanOptions {
                root_override: Some(VertexId(2)),
                ..Default::default()
            },
        );
        let [.., pen, last] = *sym_plan.matching_order() else {
            unreachable!()
        };
        let tie = sym_plan
            .symmetry_constraints()
            .iter()
            .find(|c| [c.smaller, c.larger] == [pen, last] || [c.larger, c.smaller] == [pen, last])
            .expect("the two leaves are automorphic");
        let expected = if tie.smaller == pen {
            Ordering::Greater
        } else {
            Ordering::Less
        };
        assert_eq!(mode(&sym_plan), LeafMode::ReuseOrdered(expected));
        // Triangle query: the leaf has a backward NTE to the penultimate
        // vertex (or is its tree child) — nothing to share.
        let tri_query = ceci_query::QueryGraph::unlabeled(3, &[(0, 1), (0, 2), (1, 2)]).unwrap();
        let tri_plan = QueryPlan::new(tri_query, &graph);
        assert_eq!(mode(&tri_plan), LeafMode::Tally);
    }

    #[test]
    fn redundant_pruning_differential_on_random_graphs() {
        use ceci_graph::extract_query;
        use ceci_graph::generators::{erdos_renyi, inject_random_labels};
        for seed in 0..6u64 {
            let graph = inject_random_labels(&erdos_renyi(120, 420, seed), 3, seed ^ 0x9E37);
            for size in [3usize, 4, 5] {
                let Some(extracted) = extract_query(&graph, size, seed.wrapping_mul(31) + 7, 5)
                else {
                    continue;
                };
                let Ok(query) = ceci_query::QueryGraph::from_graph(&extracted.pattern) else {
                    continue;
                };
                let plan = QueryPlan::new(query, &graph);
                let ceci = Ceci::build(&graph, &plan);
                let (base_count, base) =
                    count_with_options(&graph, &plan, &ceci, EnumOptions::default());
                let (pruned_count, pruned) = count_with_options(
                    &graph,
                    &plan,
                    &ceci,
                    EnumOptions {
                        prune_redundant: true,
                        ..Default::default()
                    },
                );
                assert_eq!(
                    pruned_count, base_count,
                    "seed={seed} size={size}: pruned count diverged"
                );
                assert_eq!(pruned.embeddings, base.embeddings);
            }
        }
    }

    #[test]
    fn redundant_pruning_ignored_by_collect_and_limit_sinks() {
        let (graph, plan, ceci) = eligible_star();
        let opts = EnumOptions {
            prune_redundant: true,
            ..Default::default()
        };
        // Collect sinks are not bulk-capable: full recursion, identical set.
        let mut sink = CollectSink::unbounded();
        enumerate_sequential(&graph, &plan, &ceci, opts, &mut sink);
        let collected = canonicalize(sink.into_embeddings());
        assert_eq!(collected.len(), 18);
        assert_eq!(collected, collect_embeddings(&graph, &plan, &ceci));
        // Limited count sinks are not bulk-capable either: first-k exactness.
        let mut limited = CountSink::with_limit(5);
        let counters = enumerate_sequential(&graph, &plan, &ceci, opts, &mut limited);
        assert_eq!(limited.count(), 5);
        assert_eq!(counters.reused_subtrees, 0);
    }

    #[test]
    fn redundant_pruning_profile_attribution_stays_consistent() {
        let (graph, plan, ceci) = eligible_star();
        let mut e = Enumerator::new(
            &graph,
            &plan,
            &ceci,
            EnumOptions {
                prune_redundant: true,
                ..Default::default()
            },
        );
        e.enable_profile();
        let mut counters = Counters::default();
        let mut sink = CountSink::unbounded();
        for &(pivot, _) in ceci.pivots() {
            assert!(e.enumerate_cluster(pivot, &mut sink, &mut counters));
        }
        assert_eq!(sink.count(), 18);
        let profile = e.take_profile().expect("profile attached");
        // Bulk-answered leaves are still attributed to the leaf depth.
        assert_eq!(profile.total_emitted(), counters.embeddings);
        assert_eq!(profile.total_reused(), counters.reused_subtrees);
        assert_eq!(profile.total_calls(), counters.recursive_calls);
        assert_eq!(profile.total_intersections(), counters.intersection_ops);
    }

    #[test]
    fn a_deadline_keeps_the_twin_closed_form() {
        use crate::parallel::{enumerate_parallel, ParallelOptions, Strategy};
        use ceci_graph::vid;
        use std::time::Duration;

        // A 3-leaf star from its hub over a 7-leaf fan: a chained twin tail,
        // C(7, 3) embeddings in the hub's cluster.
        let edges: Vec<_> = (1..=7).map(|leaf| (vid(0), vid(leaf))).collect();
        let graph = Graph::unlabeled(8, &edges);
        let options = ceci_query::PlanOptions {
            root_override: Some(vid(0)),
            ..Default::default()
        };
        let plan = QueryPlan::with_options(ceci_query::catalog::star(3), &graph, &options);
        let ceci = Ceci::build(&graph, &plan);
        let pruning = EnumOptions {
            prune_redundant: true,
            ..Default::default()
        };
        let tail = TwinTail {
            twins: 3,
            chained: true,
        };
        assert_eq!(LeafMode::of(&plan, &ceci, pruning), LeafMode::Twins(tail));
        let run = |prune_redundant, cancel| {
            let options = ParallelOptions {
                workers: 1,
                strategy: Strategy::Static,
                enumeration: EnumOptions {
                    prune_redundant,
                    ..EnumOptions::default()
                },
                cancel,
                ..ParallelOptions::default()
            };
            enumerate_parallel(&graph, &plan, &ceci, &options)
        };
        let free = run(true, None);
        // Under a token the enumerator holds it; the twin tail still
        // answers with one bulk count per expansion, so every counter is
        // the untimed run's.
        let timed = run(true, Some(CancelToken::after(Duration::from_secs(3600))));
        assert!(timed.cut.is_none());
        assert_eq!(timed.total_embeddings, 35);
        assert_eq!(timed.counters, free.counters);
        // ... and that is the closed form, not a walk: one call for the
        // hub's cluster against one per first and second leaf.
        let walked = run(false, Some(CancelToken::after(Duration::from_secs(3600))));
        assert_eq!(walked.total_embeddings, 35);
        assert_eq!(timed.counters.recursive_calls, 1);
        assert_eq!(walked.counters.recursive_calls, 1 + 7 + 21);
    }

    #[test]
    fn a_deadline_keeps_the_tally_closed_form() {
        use std::time::Duration;

        /// A count that records which way each embedding reached it.
        #[derive(Default)]
        struct Calls {
            emits: u64,
            bulks: u64,
            count: u64,
        }
        impl EmbeddingSink for Calls {
            fn emit(&mut self, _: &[VertexId]) -> bool {
                self.emits += 1;
                self.count += 1;
                true
            }
            fn supports_bulk(&self) -> bool {
                true
            }
            fn emit_bulk(&mut self, count: u64) -> bool {
                self.bulks += 1;
                self.count += count;
                true
            }
        }

        // 2 centers × 3 B-leaves reach the last depth, and each of those
        // gathers finds the center's 3 C-leaves: 6 gathers, 18 embeddings.
        let (graph, plan, ceci) = eligible_star();
        let options = EnumOptions::default();
        assert_eq!(LeafMode::of(&plan, &ceci, options), LeafMode::Tally);
        let run = |cancel| {
            let mut e = Enumerator::new(&graph, &plan, &ceci, options);
            e.set_cancel(cancel);
            let mut counters = Counters::default();
            let mut sink = Calls::default();
            for &(pivot, _) in ceci.pivots() {
                assert!(e.enumerate_cluster(pivot, &mut sink, &mut counters));
            }
            (sink, counters)
        };
        let (free, free_counters) = run(None);
        assert_eq!((free.emits, free.bulks, free.count), (0, 6, 18));
        // Under a token the last depth is still one tally per gather, not a
        // walk, and every counter is the untimed run's.
        let (timed, timed_counters) = run(Some(CancelToken::after(Duration::from_secs(3600))));
        assert_eq!((timed.emits, timed.bulks, timed.count), (0, 6, 18));
        assert_eq!(timed_counters, free_counters);
    }

    #[test]
    fn recursive_calls_counted() {
        let (graph, plan, ceci) = setup();
        let mut sink = CountSink::unbounded();
        let counters =
            enumerate_sequential(&graph, &plan, &ceci, EnumOptions::default(), &mut sink);
        // Depths 1..4 for the single cluster; at least one call per depth.
        assert!(counters.recursive_calls >= 4);
    }
}
