//! The graph registry: named, reference-counted data graphs that take
//! streamed edge mutations.
//!
//! `LOAD` replaces a name atomically — in-flight `MATCH` requests keep
//! their `Arc<Graph>` snapshot and finish against the old graph while new
//! requests see the replacement. Every load stamps the entry with a
//! globally unique, monotonically increasing *epoch*; the index cache keys
//! on it, so stale indexes built against a replaced graph can never be
//! served (and are swept eagerly on replacement).
//!
//! ## Streaming mutations
//!
//! `ADDEDGE` / `DELEDGE` / `BATCH` mutate a loaded graph *between* epochs:
//! each applied batch bumps the entry's **sub-epoch** and publishes a fresh
//! immutable snapshot: the previous snapshot patched by this batch's net
//! edges ([`Graph::with_batch`]), sharing its labels. Readers always
//! see a consistent `(snapshot, sub_epoch)` pair; mutations never touch a
//! snapshot a reader already holds.
//!
//! `base` is the snapshot whose label-pair admission index was last built
//! exactly, and `pending` counts the net mutations between it and the
//! current snapshot. Once `pending` reaches the configured threshold the
//! entry *compacts*: the fresh snapshot gets an exact label-pair rebuild
//! (one walk of its adjacency folded into per-class maxima) and becomes the
//! new `base`. Between compactions the index is
//! *maintained* — the maxima at the endpoints of added edges are raised,
//! deletions keep a sound overestimate — so the filter never rejects a
//! satisfiable query.
//!
//! ## Vertex numbering
//!
//! Every vertex id on the wire is a file id; every id inside an entry is a
//! rank. `LOAD` inserts the file's graph renumbered by ascending label
//! class and degree ([`ceci_graph::rank_by_label_and_degree`]) and the entry
//! keeps that [`Ranking`] for its life: batches and compactions never
//! renumber, and every snapshot inherits the ranked graph's class bounds
//! ([`Graph::class_bounds`]), so its candidate scans count neighbour labels
//! from spans. Wire edges enter through [`GraphEntry::entry_edges`].
//! [`GraphRegistry::insert`] keeps the graph's own numbering (the identity
//! ranking).
//!
//! Each applied batch is appended to a bounded **dirty log** of touched
//! endpoints. A stale cached index's repair re-tests only those endpoints
//! across `(old sub-epoch, current]` to carry its candidate sets forward;
//! when the log has been truncated past the needed range,
//! [`GraphEntry::dirty_endpoints_since`] answers `None` and the repair scans
//! for the sets instead.

use std::collections::VecDeque;
use std::convert::Infallible;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, RwLock};

use ceci_graph::{Graph, Ranking, VertexId};
use ceci_query::QueryPlan;
use std::collections::HashMap;

use crate::event_loop::SharedWriter;

/// Global epoch source: unique across all registries in the process, which
/// keeps cache keys unambiguous even under registry replacement in tests.
static NEXT_EPOCH: AtomicU64 = AtomicU64::new(1);

/// One applied mutation batch in the dirty log.
#[derive(Clone, Debug)]
struct DirtyRecord {
    /// The sub-epoch this batch produced (first applied batch = 1).
    sub_epoch: u64,
    /// Distinct endpoints of every applied edge mutation in the batch.
    endpoints: Vec<VertexId>,
}

/// Mutable streaming state of one loaded graph, guarded by the entry lock.
#[derive(Debug)]
struct StreamState {
    /// Last compacted snapshot (exact label-pair index).
    base: Arc<Graph>,
    /// Net edge mutations between `base` and `current`.
    pending: usize,
    /// Current immutable snapshot, shared with readers.
    current: Arc<Graph>,
    /// Applied-batch counter; 0 right after `LOAD`.
    sub_epoch: u64,
    /// Bounded log of applied batches, oldest first.
    dirty_log: VecDeque<DirtyRecord>,
}

/// Outcome of one applied (or empty) mutation batch.
#[derive(Clone, Debug)]
pub struct BatchOutcome {
    /// Sub-epoch after the batch (unchanged when nothing applied).
    pub sub_epoch: u64,
    /// Net edges added, as sorted `(lo, hi)` keys (mutations already
    /// present were dropped).
    pub added: Vec<(VertexId, VertexId)>,
    /// Net edges deleted, as sorted `(lo, hi)` keys (mutations of absent
    /// edges were dropped).
    pub deleted: Vec<(VertexId, VertexId)>,
    /// Distinct touched endpoints of the applied mutations.
    pub endpoints: Vec<VertexId>,
    /// Whether this batch triggered a compaction.
    pub compacted: bool,
    /// Net mutations still pending compaction after the batch.
    pub pending: usize,
    /// Snapshot *before* the batch (for delta enumeration).
    pub old_graph: Arc<Graph>,
    /// Snapshot *after* the batch (`== old_graph` when nothing applied).
    pub new_graph: Arc<Graph>,
}

impl BatchOutcome {
    /// Total mutations the batch actually applied.
    pub fn applied(&self) -> usize {
        self.added.len() + self.deleted.len()
    }
}

/// The distinct endpoints of `edges`, sorted.
fn distinct_endpoints<'a>(edges: impl Iterator<Item = &'a (VertexId, VertexId)>) -> Vec<VertexId> {
    let mut ends: Vec<VertexId> = edges.flat_map(|&(a, b)| [a, b]).collect();
    ends.sort_unstable();
    ends.dedup();
    ends
}

/// The first of `edges` with an endpoint `>= n`, as the mutation error.
fn check_range<'a>(
    mut edges: impl Iterator<Item = &'a (VertexId, VertexId)>,
    n: usize,
) -> Result<(), String> {
    match edges.find(|&&(a, b)| a.index() >= n || b.index() >= n) {
        Some(&(a, b)) => Err(format!(
            "edge ({}, {}) out of range for a graph of {n} vertices",
            a.index(),
            b.index()
        )),
        None => Ok(()),
    }
}

/// One loaded graph plus its identity metadata and streaming state.
#[derive(Debug)]
pub struct GraphEntry {
    /// Unique load stamp; bumped on every (re)load of the name.
    pub epoch: u64,
    /// File id ↔ entry id, fixed for the entry's life.
    ids: Ranking,
    stream: RwLock<StreamState>,
}

impl GraphEntry {
    /// How the entry numbers its vertices: entry id = `ids().rank(file id)`.
    pub fn ids(&self) -> &Ranking {
        &self.ids
    }

    /// `edges` given in file ids, as every wire id is, in entry ids. They
    /// are range-checked here, where wire ids enter and before
    /// [`Ranking::rank`] would index out of range: an out-of-range edge is
    /// refused with the file ids it was sent with, and nothing is applied.
    /// This is the one range check a `BATCH` passes.
    pub fn entry_edges(
        &self,
        edges: &[(VertexId, VertexId)],
    ) -> Result<Vec<(VertexId, VertexId)>, String> {
        let n = self.graph().num_vertices();
        check_range(edges.iter(), n)?;
        let rank = |v| self.ids.rank(v);
        Ok(edges.iter().map(|&(a, b)| (rank(a), rank(b))).collect())
    }

    /// The current immutable snapshot.
    pub fn graph(&self) -> Arc<Graph> {
        Arc::clone(&self.stream.read().expect("stream lock poisoned").current)
    }

    /// The current mutation sub-epoch (0 right after `LOAD`).
    pub fn sub_epoch(&self) -> u64 {
        self.stream.read().expect("stream lock poisoned").sub_epoch
    }

    /// A consistent `(snapshot, sub_epoch)` pair under one lock
    /// acquisition — the pair every request must key its caches on.
    pub fn snapshot(&self) -> (Arc<Graph>, u64) {
        let st = self.stream.read().expect("stream lock poisoned");
        (Arc::clone(&st.current), st.sub_epoch)
    }

    /// Net mutations pending compaction.
    pub fn pending(&self) -> usize {
        self.stream.read().expect("stream lock poisoned").pending
    }

    /// Distinct endpoints touched by every batch in
    /// `(from_sub_epoch, current]`, or `None` when the dirty log no longer
    /// covers that range (a repair then scans for its candidate sets). An
    /// up-to-date caller gets `Some(empty)`.
    pub fn dirty_endpoints_since(&self, from_sub_epoch: u64) -> Option<Vec<VertexId>> {
        let st = self.stream.read().expect("stream lock poisoned");
        if from_sub_epoch >= st.sub_epoch {
            return Some(Vec::new());
        }
        // The log must contain every batch with sub_epoch > from_sub_epoch;
        // its records are contiguous, so checking the oldest suffices.
        match st.dirty_log.front() {
            Some(first) if first.sub_epoch <= from_sub_epoch + 1 => {
                let mut endpoints: Vec<VertexId> = st
                    .dirty_log
                    .iter()
                    .filter(|r| r.sub_epoch > from_sub_epoch)
                    .flat_map(|r| r.endpoints.iter().copied())
                    .collect();
                endpoints.sort_unstable();
                endpoints.dedup();
                Some(endpoints)
            }
            _ => None,
        }
    }

    /// Applies one mutation batch atomically, all `adds` before all `dels`,
    /// each against the view the earlier ones left (mutations the view
    /// already agrees with are dropped; [`Graph::with_batch`] nets them).
    /// An applied batch publishes the current snapshot patched by its net
    /// edges, bumps the sub-epoch, maintains the label-pair admission
    /// index, logs the dirty endpoints (log bounded by `dirty_log_cap`), and
    /// compacts once `compact_threshold` net mutations are pending against
    /// `base`.
    ///
    /// Precondition: every endpoint is in range, as
    /// [`GraphEntry::entry_edges`] returns them (debug builds assert it;
    /// [`Graph::with_batch`] panics on one that is not). It cannot fail
    /// otherwise: the error type is [`Infallible`].
    pub fn apply_batch(
        &self,
        adds: &[(VertexId, VertexId)],
        dels: &[(VertexId, VertexId)],
        compact_threshold: usize,
        dirty_log_cap: usize,
    ) -> Result<BatchOutcome, Infallible> {
        let mut st = self.stream.write().expect("stream lock poisoned");
        debug_assert_eq!(
            check_range(adds.iter().chain(dels), st.current.num_vertices()),
            Ok(()),
            "a batch's edges are range-checked by `entry_edges`"
        );
        let old_graph = Arc::clone(&st.current);
        let Some((added, deleted, mut fresh)) = old_graph.with_batch(adds, dels) else {
            return Ok(BatchOutcome {
                sub_epoch: st.sub_epoch,
                added: Vec::new(),
                deleted: Vec::new(),
                endpoints: Vec::new(),
                compacted: false,
                pending: st.pending,
                new_graph: Arc::clone(&old_graph),
                old_graph,
            });
        };
        // An applied mutation that puts the edge back the way `base` has it
        // cancels a pending one; any other is itself pending.
        let st = &mut *st;
        let applied = (added.iter().map(|e| (e, true))).chain(deleted.iter().map(|e| (e, false)));
        for (&(a, b), add) in applied {
            if st.base.has_edge(a, b) == add {
                st.pending -= 1;
            } else {
                st.pending += 1;
            }
        }
        let endpoints = distinct_endpoints(added.iter().chain(&deleted));
        let compacted = st.pending >= compact_threshold.max(1);
        if compacted {
            // Exact rebuild at compaction: the fresh snapshot has no
            // label-pair index yet, so this walks its adjacency once.
            fresh.build_label_pair_index();
        } else if let Some(lpi) = old_graph.label_pair_index() {
            // Maintained between compactions: raise the label pairs of the
            // added edges on the new adjacency. Deletions keep stale maxima
            // — a sound overestimate for the admission filter.
            let mut lpi = lpi.clone();
            lpi.absorb_edges(&fresh, &added);
            fresh.set_label_pair_index(lpi);
        }
        let fresh = Arc::new(fresh);
        st.current = Arc::clone(&fresh);
        if compacted {
            st.base = Arc::clone(&fresh);
            st.pending = 0;
        }
        st.sub_epoch += 1;
        let sub_epoch = st.sub_epoch;
        st.dirty_log.push_back(DirtyRecord {
            sub_epoch,
            endpoints: endpoints.clone(),
        });
        while st.dirty_log.len() > dirty_log_cap.max(1) {
            st.dirty_log.pop_front();
        }
        Ok(BatchOutcome {
            sub_epoch,
            added,
            deleted,
            endpoints,
            compacted,
            pending: st.pending,
            old_graph,
            new_graph: fresh,
        })
    }
}

/// A concurrent name → graph map with replace-on-load semantics.
#[derive(Debug, Default)]
pub struct GraphRegistry {
    graphs: RwLock<HashMap<String, Arc<GraphEntry>>>,
}

impl GraphRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts (or replaces) `name` under the graph's own numbering,
    /// returning the new entry and, when a graph was replaced, the epoch of
    /// the entry that was displaced (so the caller can evict its cached
    /// indexes). Builds the graph's label-pair index if it has none: the
    /// admission filter passes everything beyond its label-occurrence test
    /// on a graph without one, whichever way the graph got here. A graph
    /// under its file's numbering has no class bounds, so the candidate scan
    /// of every miss on it seeds from the label index and walks adjacency.
    pub fn insert(&self, name: &str, graph: Graph) -> (Arc<GraphEntry>, Option<u64>) {
        self.insert_ranked(name, graph, Ranking::identity())
    }

    /// [`GraphRegistry::insert`] of a graph numbered by `ids` (`LOAD` and
    /// `--preload` pass [`ceci_graph::rank_by_label_and_degree`]'s output).
    pub fn insert_ranked(
        &self,
        name: &str,
        mut graph: Graph,
        ids: Ranking,
    ) -> (Arc<GraphEntry>, Option<u64>) {
        graph.build_label_pair_index();
        let graph = Arc::new(graph);
        let entry = Arc::new(GraphEntry {
            epoch: NEXT_EPOCH.fetch_add(1, Ordering::Relaxed),
            ids,
            stream: RwLock::new(StreamState {
                base: Arc::clone(&graph),
                pending: 0,
                current: graph,
                sub_epoch: 0,
                dirty_log: VecDeque::new(),
            }),
        });
        let old = self
            .graphs
            .write()
            .expect("registry lock poisoned")
            .insert(name.to_string(), Arc::clone(&entry));
        (entry, old.map(|e| e.epoch))
    }

    /// Looks up a graph by name.
    pub fn get(&self, name: &str) -> Option<Arc<GraphEntry>> {
        self.graphs
            .read()
            .expect("registry lock poisoned")
            .get(name)
            .cloned()
    }

    /// Number of loaded graphs.
    pub fn len(&self) -> usize {
        self.graphs.read().expect("registry lock poisoned").len()
    }

    /// True when no graph is loaded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// One registered continuous query: its plan, the running embedding total
/// and the connection to notify per batch. It holds no index of any kind:
/// `ceci_core::batch_delta` computes new − retired matches from the two
/// snapshots around a batch and the batch's edges alone.
pub(crate) struct ContinuousQuery {
    /// Registry name of the graph the query watches.
    pub(crate) graph: String,
    /// Load epoch the registration is pinned to; a re-`LOAD` drops it.
    pub(crate) epoch: u64,
    /// Mutation sub-epoch `total` currently reflects.
    pub(crate) sub_epoch: u64,
    /// The (graph-stable) matching plan deltas are enumerated under.
    pub(crate) plan: Arc<QueryPlan>,
    /// Running embedding total; updated by the delta identity per batch.
    pub(crate) total: u64,
    /// Where `EVENT DELTA` lines go.
    pub(crate) sink: SharedWriter,
}

/// Continuous-query registrations by handle name. The mutation notifier
/// holds the lock across apply-batch + notify so events reach every
/// registration in strict sub-epoch order; lock acquisition recovers from
/// poisoning (a panicking notifier must not take the registry down with
/// it — the map itself stays consistent).
#[derive(Default)]
pub struct ContinuousRegistry {
    inner: Mutex<HashMap<String, ContinuousQuery>>,
}

impl ContinuousRegistry {
    /// Locks the registration map, recovering from poisoning.
    pub(crate) fn lock(&self) -> MutexGuard<'_, HashMap<String, ContinuousQuery>> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Number of live registrations.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// True when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `true` when `writer` is the event sink of a live registration (such
    /// a connection legitimately idles between pushed events and is exempt
    /// from the idle read timeout).
    pub(crate) fn has_sink(&self, writer: &SharedWriter) -> bool {
        self.lock().values().any(|cq| Arc::ptr_eq(&cq.sink, writer))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ceci_graph::extract::extract_query;
    use ceci_graph::{rank_by_label_and_degree, vid, GraphBuilder, LabelId, LabelSet};
    use ceci_query::candidates::{compute_candidates, patch_candidates, CandidateSet};
    use ceci_query::{admission_check, QueryGraph};
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    fn tiny(label: u32) -> Graph {
        let mut b = GraphBuilder::new();
        let a = b.add_vertex(LabelId(label));
        let c = b.add_vertex(LabelId(label));
        b.add_edge(a, c);
        b.build()
    }

    /// A path 0–1–2–3 with one label.
    fn path4() -> Graph {
        let mut b = GraphBuilder::new();
        let v: Vec<_> = (0..4).map(|_| b.add_vertex(LabelId(0))).collect();
        b.add_edge(v[0], v[1]);
        b.add_edge(v[1], v[2]);
        b.add_edge(v[2], v[3]);
        b.build()
    }

    #[test]
    fn insert_and_get() {
        let r = GraphRegistry::new();
        assert!(r.is_empty());
        let (e, old) = r.insert("g", tiny(0));
        assert!(old.is_none());
        assert_eq!(r.len(), 1);
        let got = r.get("g").unwrap();
        assert_eq!(got.epoch, e.epoch);
        assert_eq!(got.sub_epoch(), 0);
        assert!(r.get("missing").is_none());
    }

    #[test]
    fn reload_bumps_epoch_and_reports_displaced() {
        let r = GraphRegistry::new();
        let (e1, _) = r.insert("g", tiny(0));
        let (e2, old) = r.insert("g", tiny(1));
        assert!(e2.epoch > e1.epoch, "epochs must be monotone");
        assert_eq!(old, Some(e1.epoch));
        assert_eq!(r.len(), 1);
        assert_eq!(r.get("g").unwrap().epoch, e2.epoch);
    }

    #[test]
    fn inflight_arc_survives_replacement() {
        let r = GraphRegistry::new();
        r.insert("g", tiny(0));
        let held = r.get("g").unwrap();
        r.insert("g", tiny(1));
        // The old snapshot is still alive and readable.
        assert_eq!(held.graph().num_vertices(), 2);
    }

    #[test]
    fn batch_bumps_sub_epoch_and_publishes_snapshot() {
        let r = GraphRegistry::new();
        let (e, _) = r.insert("g", path4());
        let before = e.graph();
        let out = e
            .apply_batch(&[(vid(0), vid(3))], &[], 1_000_000, 8)
            .unwrap();
        assert_eq!(out.sub_epoch, 1);
        assert_eq!(out.added.len(), 1);
        assert!(out.deleted.is_empty());
        assert!(!out.compacted);
        assert_eq!(e.sub_epoch(), 1);
        // Old snapshot untouched; new snapshot has the edge.
        assert!(!before.has_edge(vid(0), vid(3)));
        assert!(e.graph().has_edge(vid(0), vid(3)));
        assert_eq!(e.graph().num_edges(), 4);
    }

    #[test]
    fn noop_batch_does_not_bump() {
        let r = GraphRegistry::new();
        let (e, _) = r.insert("g", path4());
        // Adding an existing edge and deleting a missing one: both no-ops.
        let out = e
            .apply_batch(&[(vid(0), vid(1))], &[(vid(0), vid(3))], 1_000_000, 8)
            .unwrap();
        assert_eq!(out.applied(), 0);
        assert_eq!(out.sub_epoch, 0);
        assert_eq!(e.sub_epoch(), 0);
    }

    #[test]
    fn out_of_range_rejected_without_effect() {
        let r = GraphRegistry::new();
        let (e, _) = r.insert("g", path4());
        let before = e.graph();
        assert_eq!(
            e.entry_edges(&[(vid(0), vid(1)), (vid(0), vid(99))]),
            Err("edge (0, 99) out of range for a graph of 4 vertices".to_string())
        );
        assert_eq!(e.sub_epoch(), 0);
        assert_eq!(e.pending(), 0);
        assert!(Arc::ptr_eq(&e.graph(), &before), "no snapshot published");
        assert!(e.dirty_endpoints_since(0).unwrap().is_empty());
    }

    #[test]
    fn compaction_clears_overlay_and_rebuilds_exact() {
        let r = GraphRegistry::new();
        // Ranks 0 and 1 are the path's two ends (file 0 and 3).
        let (ranked, ids) = rank_by_label_and_degree(&path4());
        let bounds = ranked
            .class_bounds()
            .expect("recorded at rank time")
            .to_vec();
        let (e, _) = r.insert_ranked("g", ranked, ids);
        let out = e.apply_batch(&[(vid(0), vid(1))], &[], 1, 8).unwrap();
        assert!(out.compacted);
        assert_eq!(out.pending, 0);
        assert_eq!(e.pending(), 0);
        // The compacted snapshot inherits its base's class bounds, not its
        // degree order, and carries the exact label-pair maxima.
        let g = e.graph();
        assert_eq!(g.class_bounds(), Some(&bounds[..]));
        assert!(!g.degree_ascends_in_classes());
        assert_eq!(pair_maxima(&g), walked_pair_maxima(&g));
        // Further batches build on the new base and keep the bounds too.
        let out2 = e
            .apply_batch(&[], &[(vid(0), vid(1))], 1_000_000, 8)
            .unwrap();
        assert_eq!(out2.deleted.len(), 1);
        assert!(!out2.compacted);
        assert!(!e.graph().has_edge(vid(0), vid(1)));
        assert_eq!(e.graph().class_bounds(), Some(&bounds[..]));
    }

    #[test]
    fn dirty_log_tracks_and_truncates() {
        let r = GraphRegistry::new();
        let (e, _) = r.insert("g", path4());
        e.apply_batch(&[(vid(0), vid(2))], &[], 1_000_000, 2)
            .unwrap();
        e.apply_batch(&[(vid(0), vid(3))], &[], 1_000_000, 2)
            .unwrap();
        // Fully covered: endpoints of batches 1..=2.
        let d = e.dirty_endpoints_since(0).unwrap();
        assert_eq!(d, vec![vid(0), vid(2), vid(3)]);
        assert_eq!(e.dirty_endpoints_since(2).unwrap(), Vec::<VertexId>::new());
        // A third batch pushes batch 1 out of the capped log.
        e.apply_batch(&[(vid(1), vid(3))], &[], 1_000_000, 2)
            .unwrap();
        assert!(e.dirty_endpoints_since(0).is_none(), "log truncated");
        assert_eq!(
            e.dirty_endpoints_since(1).unwrap(),
            vec![vid(0), vid(1), vid(3)]
        );
    }

    /// Every ordered label pair's maximum under `graph`'s label-pair index.
    fn pair_maxima(graph: &Graph) -> Vec<u32> {
        let lpi = graph.label_pair_index().expect("label-pair index");
        let labels = || (0..graph.num_labels()).map(LabelId);
        labels()
            .flat_map(|l| labels().map(move |m| lpi.max_count(l, m)))
            .collect()
    }

    /// [`pair_maxima`]'s oracle, independent of the per-class fold the index
    /// is built by: every vertex's neighbor labels walked and sorted into
    /// runs, each run's length raising the maxima of the vertex's labels.
    fn walked_pair_maxima(graph: &Graph) -> Vec<u32> {
        let k = graph.num_labels() as usize;
        let mut max = vec![0u32; k * k];
        let mut scratch: Vec<LabelId> = Vec::new();
        for v in graph.vertices() {
            scratch.clear();
            for &nb in graph.neighbors(v) {
                scratch.extend(graph.labels(nb).iter());
            }
            scratch.sort_unstable();
            for run in scratch.chunk_by(|a, b| a == b) {
                for l in graph.labels(v).iter() {
                    let e = &mut max[l.index() * k + run[0].index()];
                    *e = (*e).max(run.len() as u32);
                }
            }
        }
        max
    }

    type RawBatch = (Vec<(u32, u32)>, Vec<(u32, u32)>);
    /// `(labels, base edges, batches, compact threshold)`.
    type RawStream = (Vec<u32>, Vec<(u32, u32)>, Vec<RawBatch>, usize);

    /// A labeled graph and a batch sequence over a vertex range small enough that duplicates, no-ops, add-and-delete of one
    /// edge, re-adds of deleted base edges and deletes of pending adds all
    /// occur; every third batch deletes only.
    fn arb_stream() -> impl Strategy<Value = RawStream> {
        (4u32..12).prop_flat_map(|n| {
            let pairs = |max| proptest::collection::vec((0..n, 0..n), 0..max);
            (
                proptest::collection::vec(0u32..3, n as usize),
                pairs(3 * n as usize),
                proptest::collection::vec((pairs(12), pairs(12)), 1..8),
                1usize..12,
            )
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The registry against an edge-set model, on a graph under its
        /// file's numbering and on its label-major copy: what applied,
        /// which endpoints were logged, `pending` (the distance between the
        /// model and its copy at the last compaction) and `compacted`;
        /// every snapshot keeps the first one's class bounds; the
        /// maintained label-pair index never under the exact one, equal to
        /// a walk of the snapshot right after a compaction, untouched by a
        /// batch of deletions; a query cut out of a snapshot never rejected
        /// on it.
        #[test]
        fn batches_track_an_edge_set_model_and_keep_label_pairs_sound(
            (labels, base_edges, batches, threshold) in arb_stream()
        ) {
            let key = |(a, b): (VertexId, VertexId)| (a.min(b), a.max(b));
            let vids = |raw: &[(u32, u32)]| -> Vec<(VertexId, VertexId)> {
                raw.iter().map(|&(a, b)| (vid(a), vid(b))).collect()
            };
            let labels: Vec<LabelSet> = labels.iter().map(|&l| LabelSet::single(LabelId(l))).collect();
            let file = Graph::new(labels, &vids(&base_edges), false);
            let ranked = rank_by_label_and_degree(&file).0;
            for first in [file, ranked] {
                let labels: Vec<LabelSet> = first.vertices().map(|v| first.labels(v).clone()).collect();
                let bounds = first.class_bounds().map(<[VertexId]>::to_vec);
                let mut model: BTreeSet<(VertexId, VertexId)> = first
                    .vertices()
                    .flat_map(|a| first.neighbors(a).iter().map(move |&b| key((a, b))))
                    .collect();
                let mut base_model = model.clone();
                let (entry, _) = GraphRegistry::new().insert("g", first);
                for (round, (adds, dels)) in batches.iter().enumerate() {
                    let adds = if round % 3 == 2 { Vec::new() } else { vids(adds) };
                    let dels = vids(dels);
                    let before = entry.graph();
                    let stale_plan = extract_query(&before, 3, round as u64, 20)
                        .map(|q| QueryPlan::new(QueryGraph::from_graph(&q.pattern).unwrap(), &before));
                    let out = entry.apply_batch(&adds, &dels, threshold, 64).unwrap();

                    // The model's applied edges, normalised and sorted.
                    let mut added: Vec<_> = (adds.iter().copied())
                        .filter(|&e| e.0 != e.1 && model.insert(key(e)))
                        .map(key)
                        .collect();
                    let mut deleted: Vec<_> = (dels.iter().copied())
                        .filter(|&e| model.remove(&key(e)))
                        .map(key)
                        .collect();
                    added.sort_unstable();
                    deleted.sort_unstable();
                    prop_assert_eq!(&out.added, &added);
                    prop_assert_eq!(&out.deleted, &deleted);
                    let touched: BTreeSet<VertexId> = (added.iter().chain(&deleted))
                        .flat_map(|&(a, b)| [a, b])
                        .collect();
                    prop_assert_eq!(&out.endpoints, &touched.into_iter().collect::<Vec<_>>());
                    let pending = model.symmetric_difference(&base_model).count();
                    let compacted = out.applied() > 0 && pending >= threshold;
                    prop_assert_eq!(out.compacted, compacted);
                    if compacted {
                        base_model = model.clone();
                    }
                    prop_assert_eq!(out.pending, if compacted { 0 } else { pending });
                    prop_assert_eq!(entry.pending(), out.pending);

                    let snapshot = entry.graph();
                    let edges: Vec<_> = model.iter().copied().collect();
                    let mut exact = Graph::new(labels.clone(), &edges, false);
                    for v in snapshot.vertices() {
                        prop_assert_eq!(snapshot.neighbors(v), exact.neighbors(v));
                    }
                    exact.build_label_pair_index();
                    let (maintained, exact_maxima) = (pair_maxima(&snapshot), pair_maxima(&exact));
                    prop_assert_eq!(&exact_maxima, &walked_pair_maxima(&exact));
                    prop_assert!(maintained.iter().zip(&exact_maxima).all(|(m, e)| m >= e));
                    prop_assert_eq!(snapshot.class_bounds(), bounds.as_deref());
                    if compacted {
                        prop_assert_eq!(&maintained, &walked_pair_maxima(&snapshot));
                    } else if added.is_empty() {
                        prop_assert_eq!(&maintained, &pair_maxima(&before));
                    }
                    if let Some(plan) = stale_plan.filter(|_| out.applied() > 0) {
                        prop_assert!(plan.describes(&before) && !plan.describes(&snapshot));
                    }
                    if let Some(q) = extract_query(&snapshot, 3, round as u64, 20) {
                        let query = QueryGraph::from_graph(&q.pattern).unwrap();
                        prop_assert!(!admission_check(&query, &snapshot).rejected());
                    }
                }
            }
        }

        /// Candidate sets patched at the dirty log's endpoints equal a scan
        /// of the snapshot, sorted list and bitset, bit for bit: chained
        /// batch by batch (as successive repairs patch each other's), and
        /// from every earlier snapshot across any gap, compactions included.
        /// Some vertices carry two labels, and so do some query vertices.
        /// It runs on the graph under its file's numbering and on its
        /// label-major copy, whose snapshots count from spans but whose
        /// degrees have moved, so their scans may not cut DF as a suffix.
        #[test]
        fn patched_candidate_sets_equal_a_scan_of_every_later_snapshot(
            (labels, base_edges, batches, threshold) in arb_stream(),
            second in proptest::collection::vec(0u32..5, 12),
        ) {
            let vids = |raw: &[(u32, u32)]| -> Vec<(VertexId, VertexId)> {
                raw.iter().map(|&(a, b)| (vid(a), vid(b))).collect()
            };
            let two = |a: u32, b: u32| LabelSet::from_labels([LabelId(a), LabelId(b)]);
            let labels: Vec<LabelSet> = (labels.iter().zip(&second))
                .map(|(&l, &m)| if m < 3 && m != l { two(l, m) } else { LabelSet::single(LabelId(l)) })
                .collect();
            let file = Graph::new(labels, &vids(&base_edges), false);
            // A two-label hub needing two neighbors of label 1 (DF and NLC
            // both bite), and whatever can be cut out of the first snapshot.
            let mut queries = vec![QueryGraph::new(
                vec![two(0, 1), LabelSet::single(LabelId(1)), LabelSet::single(LabelId(1))],
                &[(vid(0), vid(1)), (vid(0), vid(2))],
            ).unwrap()];
            queries.extend((3..5).filter_map(|size| {
                let q = extract_query(&file, size, size as u64, 20)?;
                QueryGraph::from_graph(&q.pattern).ok()
            }));
            let scan = |graph: &Graph| -> Vec<Vec<CandidateSet>> {
                queries.iter().map(|q| compute_candidates(q, graph)).collect()
            };
            let ranked = rank_by_label_and_degree(&file).0;
            for first in [file, ranked] {
                let mut seen = vec![(0, scan(&first))];
                let (entry, _) = GraphRegistry::new().insert("g", first);
                for (adds, dels) in &batches {
                    let out = entry.apply_batch(&vids(adds), &vids(dels), threshold, 64).unwrap();
                    let snapshot = entry.graph();
                    let scanned = scan(&snapshot);
                    let (_, last) = seen.last().unwrap();
                    for (i, q) in queries.iter().enumerate() {
                        let chained = patch_candidates(q, &snapshot, &last[i], &out.endpoints);
                        prop_assert_eq!(&chained, &scanned[i]);
                        for (from, sets) in &seen {
                            let dirty = entry.dirty_endpoints_since(*from).unwrap();
                            prop_assert_eq!(&patch_candidates(q, &snapshot, &sets[i], &dirty), &scanned[i]);
                        }
                    }
                    seen.push((out.sub_epoch, scanned));
                }
            }
        }
    }

    #[test]
    fn maintained_label_pairs_stay_sound_on_add() {
        let r = GraphRegistry::new();
        let mut g = path4();
        g.build_label_pair_index();
        let (e, _) = r.insert("g", g);
        // New edge raises vertex 1's same-label neighbor count to 3.
        e.apply_batch(&[(vid(1), vid(3))], &[], 1_000_000, 8)
            .unwrap();
        let snap = e.graph();
        let lpi = snap.label_pair_index().unwrap();
        assert!(lpi.max_count(ceci_graph::lid(0), ceci_graph::lid(0)) >= 3);
    }
}
