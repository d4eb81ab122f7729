//! One oracle: a seeded, socket-free replay of the serving core.
//!
//! [`run`] drives one chaos-enabled [`ServerState`] from one thread, the way
//! the event loop would, minus the sockets and the pool. Simulated clients
//! send request lines through [`parse_request`] and [`route`]. An inline
//! verb answers on the spot; a [`Routed::Data`] job waits until the seed
//! picks it to run, so a `LOAD`, a `BATCH` or an armed `CHAOS BUILDPANIC`
//! can land between a request's routing and its execution. Each client owns
//! a [`QueuedSink`], which catches the `EVENT DELTA` lines pushed to the
//! queries it registered.
//!
//! Every reply is checked against one model, [`Model`]:
//! * per loaded name, the edge set in file ids (the served snapshot must
//!   hold it, in ranked ids), counted fresh by [`oracle`];
//! * which `(graph, canonical query)` keys are cached at which sub-epoch and
//!   which are quarantined, so the `cache=` token or `ERR` code of every
//!   `MATCH` and `EXPLAIN` is predicted, not read back;
//! * what a deadline answers: `MATCH … DEADLINE 0` trips its token before
//!   the first unit, so no pivot drains and the reply is the interval
//!   `exact=0` plus the served estimator's fixed-seed walks over every
//!   pivot (or an exact zero, on an index without pivots);
//!   `MATCH … DEADLINE 60000` drains and is exact;
//! * every registration's running total, and the `EVENT DELTA` each applied
//!   batch owes it;
//! * the `STATS` counters ([`counters`]) each reply moves, and no other.
//!
//! A failing seed panics with `sim seed <n>: ...` and the transcript's
//! tail. `SIM_SEEDS=<n>,.. cargo test -p ceci-service --lib sim --
//! --nocapture` replays just those seeds and prints their transcripts,
//! which are byte-identical from run to run once timings are [`mask`]ed.

use std::collections::{BTreeMap, BTreeSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ceci_baselines::reference;
use ceci_core::{count_embeddings, estimate_embeddings, Ceci, EstimateOptions};
use ceci_graph::extract::extract_query;
use ceci_graph::generators::{barabasi_albert, erdos_renyi, inject_random_multilabels};
use ceci_graph::{io, lid, vid, Graph, LabelSet};
use ceci_query::{splitmix64, CanonicalQuery, QueryGraph, QueryPlan};

use crate::cache::{CachedIndex, FlightProbe};
use crate::event_loop::{LoopShared, QueuedSink, SharedWriter};
use crate::metrics::ServerMetrics;
use crate::protocol::{parse_request, Request};
use crate::server::{route, DataJob, Routed, ServeConfig, ServerState};

/// Seeds that once failed, replayed besides the sweep. None has failed on
/// the code as it stands.
const REGRESSION_SEEDS: [u64; 0] = [];
const CLIENTS: usize = 3;
/// Steps per seed: each issues a request or runs a queued job.
const STEPS: usize = 100;
const GRAPHS: [&str; 2] = ["a", "b"];
const HANDLES: [&str; 3] = ["r0", "r1", "r2"];
/// Small enough that some stale entries are repaired from a set scan.
const DIRTY_LOG_CAP: u64 = 3;
/// Small enough that batches compact.
const COMPACT_THRESHOLD: usize = 6;
/// A deadline no drain here reaches: the reply is exact.
const DEADLINE: &str = " DEADLINE 60000";
/// A deadline that has passed before the first unit: nothing drains.
const CUT: &str = " DEADLINE 0";

/// One request, as the model reads it: graph names, template indexes,
/// registration handles, edges in file ids.
#[derive(Clone, Debug)]
enum Op {
    Load(&'static str, usize),
    Match(&'static str, usize, String),
    Explain(&'static str, usize, bool),
    Batch(&'static str, Vec<(u32, u32)>, Vec<(u32, u32)>),
    Register(&'static str, &'static str, usize),
    Unregister(&'static str),
    /// `CHAOS BUILDPANIC`, `STATS` or `QUIT`.
    Verb(&'static str),
}

/// A seeded SplitMix64 stream.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: usize) -> usize {
        self.0 = splitmix64(self.0);
        (self.0 % n as u64) as usize
    }

    fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.below(items.len())]
    }

    fn pair(&mut self, n: usize) -> (u32, u32) {
        (self.below(n) as u32, self.below(n) as u32)
    }
}

type Moves = BTreeMap<&'static str, u64>;

macro_rules! counters {
    ($metrics:expr; $($name:ident),*) => {
        BTreeMap::from([$((stringify!($name), $metrics.$name.load(Ordering::Relaxed))),*])
    };
}

/// Every counter a step may move, by its `STATS` name.
fn counters(m: &ServerMetrics) -> Moves {
    counters!(m; cache_collisions, cache_hits, cache_misses, cache_quarantined, compactions,
        continuous_events, deadline_exceeded, edges_added, edges_deleted, embeddings_returned,
        errors, event_push_failures, filter_rejected, index_repair_fallbacks,
        index_repair_set_scans, index_repairs, load_requests, match_requests, mutation_batches,
        quarantine_hits)
}

/// What a seed serves, written under one scratch directory: per graph name
/// two files a `LOAD` may read, and the templates requests draw from.
struct Fixture {
    dir: PathBuf,
    files: [[Graph; 2]; 2],
    /// Each pattern with its canonical hash, the cache's key: isomorphic
    /// templates share it.
    templates: Vec<(QueryGraph, u64)>,
}

impl Fixture {
    fn new(seed: u64, rng: &mut Rng) -> Fixture {
        let dir = std::env::temp_dir().join(format!("ceci-sim-{}-{seed}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("scratch dir");
        // Sparse labeled graphs, where edits move vertices across the
        // degree and neighbour-label filters; `b`'s second file is an
        // unlabeled (all label 0) power-law graph.
        let mut file = |labeled: bool| {
            let (n, s) = (24 + rng.below(16), rng.below(1 << 30) as u64);
            match labeled {
                true => inject_random_multilabels(&erdos_renyi(n, n * 3 / 2, s), 3, 1, 2, s + 1),
                false => barabasi_albert(n, 2, s),
            }
        };
        let files = [[file(true), file(true)], [file(true), file(false)]];
        // Template 0 has a label no graph has: provably zero. A triangle
        // and a diamond bring the non-tree edges and automorphisms that
        // extraction from sparse graphs rarely yields. Two one-label
        // templates end their orders in twins, which a served count
        // answers in closed form: the diamond, rooted at either degree-3
        // vertex, in 2 and 3 (keyed by a non-tree edge too); the double
        // star, from 0, in 4 and 5, whose gathered set holds 0's image.
        // The one-label 5-path 0-2-1-3-4 is rooted at its middle vertex 1
        // and ends its order on the far ends 0 and 4, under different
        // parents: its one symmetry constraint, 0 < 4, orders the shared
        // leaf set, so a served count takes only the leaves above 0's image
        // (`leaf=REUSE_ORDERED`).
        let mut patterns = vec![
            pattern(&[7, 7], &[(0, 1)]),
            pattern(&[0, 0, 0], &[(0, 1), (1, 2), (2, 0)]),
            pattern(&[0, 0, 1, 1], &[(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]),
            pattern(&[0, 0, 0, 0], &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)]),
            pattern(&[0; 6], &[(0, 1), (0, 2), (0, 3), (1, 4), (1, 5)]),
            pattern(&[0; 5], &[(0, 2), (2, 1), (1, 3), (3, 4)]),
        ];
        for (pair, size) in files.iter().zip([3, 4]).chain(files.iter().zip([4, 3])) {
            patterns.extend(extract_query(&pair[0], size, seed, 50).map(|e| e.pattern));
        }
        // The last template again, its vertices numbered backwards.
        let last = patterns.last().expect("a template");
        let top = last.num_vertices() as u32 - 1;
        let labels = (0..=top).rev().map(|v| last.labels(vid(v)).clone());
        let edges: Vec<_> = (edge_set(last).into_iter())
            .map(|(a, b)| (vid(top - a), vid(top - b)))
            .collect();
        patterns.push(Graph::new(labels.collect(), &edges, false));
        let templates = (patterns.iter().enumerate()).map(|(i, pattern)| {
            write(&dir, &format!("q{i}.graph"), pattern);
            let query = QueryGraph::from_graph(pattern).expect("a template");
            let key = CanonicalQuery::of(&query).hash();
            (query, key)
        });
        let templates: Vec<_> = templates.collect();
        // Every `cache=` prediction keys on these hashes: the renumbered
        // copy must share its original's.
        let keys: Vec<u64> = templates.iter().rev().take(2).map(|t| t.1).collect();
        assert_eq!(keys[0], keys[1], "a renumbering moved the canonical hash");
        for (g, pair) in GRAPHS.iter().zip(&files) {
            for (k, graph) in pair.iter().enumerate() {
                write(&dir, &format!("{g}{k}.graph"), graph);
            }
        }
        Fixture {
            dir,
            files,
            templates,
        }
    }

    /// The request line of `op`; a one-edge batch goes as `ADDEDGE` or
    /// `DELEDGE`.
    fn line(&self, op: &Op) -> String {
        let path = |name: String| self.dir.join(name).display().to_string();
        let q = |t: &usize| path(format!("q{t}.graph"));
        match op {
            Op::Load(g, k) => format!("LOAD {g} {}", path(format!("{g}{k}.graph"))),
            Op::Match(g, t, suffix) => format!("MATCH {g} {}{suffix}", q(t)),
            Op::Explain(g, t, true) => format!("EXPLAIN {g} {} ANALYZE", q(t)),
            Op::Explain(g, t, false) => format!("EXPLAIN {g} {}", q(t)),
            Op::Batch(g, adds, dels) => match (&adds[..], &dels[..]) {
                ([(a, b)], []) => format!("ADDEDGE {g} {a} {b}"),
                ([], [(a, b)]) => format!("DELEDGE {g} {a} {b}"),
                _ => {
                    let adds = adds.iter().map(|(a, b)| format!("+{a}:{b}"));
                    let dels = dels.iter().map(|(a, b)| format!("-{a}:{b}"));
                    format!(
                        "BATCH {g} {}",
                        adds.chain(dels).collect::<Vec<_>>().join(" ")
                    )
                }
            },
            Op::Register(h, g, t) => format!("REGISTER {h} {g} {}", q(t)),
            Op::Unregister(h) => format!("UNREGISTER {h}"),
            Op::Verb(verb) => verb.to_string(),
        }
    }
}

impl Drop for Fixture {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.dir).ok();
    }
}

/// A pattern with one label a vertex.
fn pattern(labels: &[u32], edges: &[(u32, u32)]) -> Graph {
    let labels = labels.iter().map(|&l| LabelSet::single(lid(l))).collect();
    let edges: Vec<_> = edges.iter().map(|&(a, b)| (vid(a), vid(b))).collect();
    Graph::new(labels, &edges, false)
}

/// The undirected edges of `graph`, each once as `(lo, hi)`.
fn edge_set(graph: &Graph) -> BTreeSet<(u32, u32)> {
    (graph.vertices())
        .flat_map(|a| graph.neighbors(a).iter().map(move |&b| (a.0, b.0)))
        .filter(|&(a, b)| a < b)
        .collect()
}

fn write(dir: &std::path::Path, name: &str, graph: &Graph) {
    let mut f = std::fs::File::create(dir.join(name)).expect("scratch file");
    io::write_labeled(graph, &mut f).expect("write graph");
}

/// The embeddings of `query` in `graph`, counted by the paper's plan and
/// index, and by the reference matcher, which must agree.
fn oracle(graph: &Graph, query: &QueryGraph) -> u64 {
    let plan = QueryPlan::new(query.clone(), graph);
    let count = count_embeddings(graph, &plan, &Ceci::build(graph, &plan));
    let brute = reference::count_all(graph, query, plan.symmetry_constraints());
    assert_eq!(count, brute, "CECI and the reference matcher disagree");
    count
}

/// The snapshot `g` serves and the index the cache holds for `query` on
/// it, which the model says is there.
fn served(state: &ServerState, g: &str, query: &QueryGraph) -> (Arc<Graph>, Arc<CachedIndex>) {
    let entry = state.registry.get(g).expect("a loaded graph");
    let (graph, now) = entry.snapshot();
    match state
        .cache
        .begin_at(entry.epoch, now, &CanonicalQuery::of(query))
    {
        FlightProbe::Hit(index) => (graph, index),
        _ => panic!("the model predicts {g}'s entry is cached"),
    }
}

/// One loaded name: its edge set in file ids, and the edge set of the last
/// compaction (the reply's `pending=` is their symmetric difference).
struct Loaded {
    load: u64,
    labels: Vec<LabelSet>,
    edges: BTreeSet<(u32, u32)>,
    base: BTreeSet<(u32, u32)>,
    sub_epoch: u64,
}

struct Registration {
    client: usize,
    graph: &'static str,
    template: usize,
    total: u64,
}

/// What the server must hold after every step.
#[derive(Default)]
struct Model {
    loads: u64,
    graphs: BTreeMap<&'static str, Loaded>,
    /// `(graph, canonical hash)` → sub-epoch of its cached index.
    cached: BTreeMap<(&'static str, u64), u64>,
    quarantined: BTreeSet<(&'static str, u64)>,
    regs: BTreeMap<&'static str, Registration>,
    armed: bool,
    /// Oracle counts by `(load, sub-epoch, canonical hash)`.
    counts: BTreeMap<(u64, u64, u64), u64>,
}

impl Model {
    fn count(&mut self, fx: &Fixture, g: &str, t: usize) -> u64 {
        let l = &self.graphs[g];
        let (query, key) = &fx.templates[t];
        *(self.counts.entry((l.load, l.sub_epoch, *key))).or_insert_with(|| {
            let edges: Vec<_> = l.edges.iter().map(|&(a, b)| (vid(a), vid(b))).collect();
            oracle(&Graph::new(l.labels.clone(), &edges, false), query)
        })
    }

    /// The cache's one probe for `(g, canonical)`, and the counters it
    /// moves: the reply's `cache=` tag, or the `ERR` its reply starts with.
    fn acquire(
        &mut self,
        g: &'static str,
        canonical: u64,
        moved: &mut Moves,
    ) -> Result<&'static str, &'static str> {
        let (key, now) = ((g, canonical), self.graphs[g].sub_epoch);
        if self.quarantined.contains(&key) {
            moved.extend([("quarantine_hits", 1), ("errors", 1)]);
            return Err("ERR E_QUARANTINED ");
        }
        let (tag, counter) = match self.cached.get(&key) {
            Some(&at) if at == now => ("HIT", "cache_hits"),
            Some(&at) => {
                let scan = now - at > DIRTY_LOG_CAP;
                moved.insert("index_repair_set_scans", scan as u64);
                ("REPAIRED", "index_repairs")
            }
            None if self.armed => {
                self.armed = false;
                self.quarantined.insert(key);
                moved.extend([("cache_misses", 1), ("cache_quarantined", 1), ("errors", 1)]);
                return Err("ERR E_BUILD_PANIC ");
            }
            None => ("MISS", "cache_misses"),
        };
        moved.insert(counter, 1);
        self.cached.insert(key, now);
        Ok(tag)
    }
}

/// The value of `key=` on `line`.
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let key = &format!("{key}=");
    line.split_whitespace().find_map(|t| t.strip_prefix(key))
}

fn field_u64(line: &str, key: &str) -> u64 {
    let value = field(line, key).unwrap_or_else(|| panic!("no {key}= on {line:?}"));
    value.parse().expect("a numeric field")
}

/// `line` with every timing value (`*_us`, `*_ns`, the `EXPLAIN ANALYZE`
/// samples, as `key=value` or as a `STAT key value` row) and the
/// process-wide load `epoch=` masked to `#`.
fn mask(line: &str) -> String {
    let timing = |key: &str| {
        key.ends_with("_us")
            || key.ends_with("_ns")
            || ["epoch", "samples", "time_pct"].contains(&key)
    };
    let mut tokens: Vec<String> = line.split(' ').map(str::to_string).collect();
    for i in 0..tokens.len() {
        let stat_row = i >= 2 && tokens[i - 2] == "STAT" && timing(&tokens[i - 1]);
        match tokens[i].split_once('=') {
            Some((key, _)) if timing(key) => tokens[i] = format!("{key}=#"),
            _ if stat_row => tokens[i] = "#".to_string(),
            _ => {}
        }
    }
    tokens.join(" ")
}

/// `EVENT DELTA` lines a batch owes: per client, per handle, the net change
/// (`new - retired`) of the registration's total.
type Owed = BTreeMap<usize, BTreeMap<&'static str, i64>>;

struct Sim {
    fx: Fixture,
    state: Arc<ServerState>,
    sinks: Vec<SharedWriter>,
    model: Model,
    /// Per graph name, the first add of its last drawn batch.
    last_add: BTreeMap<&'static str, (u32, u32)>,
    transcript: Vec<String>,
}

impl Sim {
    /// Client `c`'s request for `op`, written to the transcript.
    fn send(&mut self, c: usize, op: &Op) -> Request {
        let line = self.fx.line(op);
        let dir = self.fx.dir.display().to_string();
        let sent = format!("c{c} > {}", line.replace(&dir, "$DIR"));
        self.transcript.push(sent);
        parse_request(&line).ok().flatten().expect("a request")
    }

    fn draw(&mut self, rng: &mut Rng) -> Op {
        let (g, t) = (rng.pick(&GRAPHS), rng.below(self.fx.templates.len()));
        match rng.below(21) {
            0 => Op::Load(g, rng.below(2)),
            1 => Op::Verb("CHAOS BUILDPANIC"),
            2 | 3 => Op::Explain(g, t, rng.below(2) == 0),
            4 | 5 => Op::Register(rng.pick(&HANDLES), g, t),
            6 => Op::Unregister(rng.pick(&HANDLES)),
            7..=10 => {
                let l = &self.model.graphs[g];
                let n = l.labels.len();
                // Deletes name present edges reversed.
                let present: Vec<_> = l.edges.iter().map(|&(p, q)| (q, p)).collect();
                let present = present[rng.below(present.len())];
                let (a, b) = rng.pair(n);
                let out = (rng.below(8) == 0).then(|| (rng.below(n) as u32, (n + 1) as u32));
                match rng.below(4) {
                    0 => return Op::Batch(g, vec![out.unwrap_or((a, b))], vec![]),
                    1 => return Op::Batch(g, vec![], vec![out.unwrap_or(present)]),
                    _ => {}
                }
                // Duplicates and a reversed pair; a delete of this batch's
                // own add, maybe, and of the last batch's.
                let mut adds: Vec<_> = (0..=rng.below(3)).map(|_| rng.pair(n)).collect();
                adds.extend([(a, b), (b, a)]);
                let mut dels = vec![present];
                dels.extend((rng.below(2) == 0).then_some((a, b)));
                dels.extend(self.last_add.insert(g, (a, b)));
                dels.extend(out);
                Op::Batch(g, adds, dels)
            }
            19 => Op::Verb("STATS"),
            20 => Op::Verb("QUIT"),
            _ => {
                let forms = ["", "", " RAW", " WORKERS 2", DEADLINE, CUT];
                let suffix = match rng.below(forms.len() + 1) {
                    i if i < forms.len() => forms[i].to_string(),
                    _ => format!(" LIMIT {}", 1 + rng.below(4)),
                };
                // Now and then an unknown graph or a missing query file.
                match rng.below(24) {
                    0 => Op::Match("zz", t, suffix),
                    1 => Op::Match(g, self.fx.templates.len(), suffix),
                    _ => Op::Match(g, t, suffix),
                }
            }
        }
    }

    /// Checks the reply client `c` got for `op` against the model, moving
    /// the model along, and answers the counters it must have moved and
    /// the events it owes. `took` is the step's wall time.
    fn expect(&mut self, c: usize, op: &Op, lines: &[String], took: Duration) -> (Moves, Owed) {
        let (model, fx) = (&mut self.model, &self.fx);
        let last = lines.last().expect("a reply").as_str();
        let (mut moved, mut owed) = (Moves::new(), Owed::new());
        match op {
            Op::Load(g, k) => {
                let file = &fx.files[GRAPHS.iter().position(|n| n == g).unwrap()][*k];
                let (n, m) = (file.num_vertices(), file.num_edges());
                let head = format!("OK LOADED name={g} vertices={n} edges={m} epoch=");
                assert!(last.starts_with(&head) && field(last, "rank_us").is_some());
                let edges = edge_set(file);
                model.loads += 1;
                let loaded = Loaded {
                    load: model.loads,
                    labels: file.vertices().map(|v| file.labels(v).clone()).collect(),
                    base: edges.clone(),
                    edges,
                    sub_epoch: 0,
                };
                model.graphs.insert(g, loaded);
                model.cached.retain(|k, _| k.0 != *g);
                model.quarantined.retain(|k| k.0 != *g);
                model.regs.retain(|_, r| r.graph != *g);
                moved.insert("load_requests", 1);
            }
            Op::Verb("CHAOS BUILDPANIC") => {
                assert_eq!(last, "OK CHAOS armed=BUILDPANIC");
                model.armed = true;
            }
            Op::Verb("QUIT") => assert_eq!(last, "OK BYE"),
            Op::Verb(_) => {
                assert_eq!(last, "OK STATS");
                let stat = |key: &str| {
                    let prefix = format!("STAT {key} ");
                    let row = lines.iter().find_map(|l| l.strip_prefix(&prefix));
                    let row = row.unwrap_or_else(|| panic!("no STAT {key}"));
                    row.parse::<u64>().expect("a count")
                };
                let counted = counters(&self.state.metrics);
                for (key, value) in &counted {
                    assert_eq!(stat(key), *value, "STAT {key}");
                }
                // Every miss but a panicked one builds; every repair times.
                let built = counted["cache_misses"] - counted["cache_quarantined"];
                let bytes = self.state.cache.bytes();
                for (key, want) in [
                    ("graphs_loaded", model.graphs.len()),
                    ("cache_entries", model.cached.len()),
                    ("cache_quarantined_keys", model.quarantined.len()),
                    ("continuous_registrations", model.regs.len()),
                    ("build_latency_count", built as usize),
                    ("index_repair_count", counted["index_repairs"] as usize),
                    ("cache_bytes", bytes),
                ] {
                    assert_eq!(stat(key), want as u64, "STAT {key}");
                }
            }
            Op::Match(g, t, _) | Op::Explain(g, t, _) => {
                let (g, t) = (*g, *t);
                if matches!(op, Op::Match(..)) {
                    moved.insert("match_requests", 1);
                }
                if !model.graphs.contains_key(g) || t == fx.templates.len() {
                    let unknown = format!("ERR E_UNKNOWN_GRAPH unknown graph {g:?}");
                    let missing = format!("q{t}.graph");
                    let query = last.starts_with("ERR E_QUERY query load failed: ");
                    assert!(last == unknown || (query && last.contains(&missing)));
                    moved.insert("errors", 1);
                    return (moved, owed);
                }
                let suffix = match op {
                    Op::Match(_, _, suffix) => Some(suffix.as_str()),
                    _ => None,
                };
                let raw = suffix == Some(" RAW");
                let want = model.count(fx, g, t);
                let rejected = "| path: rejected filter=REJECTED cache=NONE";
                let says_rejected = last.contains("filter=REJECTED") || lines[0] == rejected;
                if !raw && (t == 0 || (want == 0 && says_rejected)) {
                    assert!(says_rejected && want == 0, "zero, and rejected");
                    moved.insert("filter_rejected", 1);
                    let head = "OK MATCH count=0 status=OK filter=REJECTED cache=NONE ";
                    assert!(lines == [rejected, "OK EXPLAIN"] || last.starts_with(head));
                    return (moved, owed);
                }
                assert!(!says_rejected, "a satisfiable query was rejected");
                match (model.acquire(g, fx.templates[t].1, &mut moved), suffix) {
                    (Err(code), _) => assert!(last.starts_with(code)),
                    (Ok(tag), None) => {
                        assert_eq!(last, "OK EXPLAIN");
                        let (report, _) = lines.split_at(lines.len() - 1);
                        assert!(report.iter().all(|l| l.starts_with("| ")));
                        let path = format!("| path: drain cache={tag}");
                        assert!(lines.contains(&path), "no {path:?}");
                        if let Some(totals) = lines.iter().find(|l| l.starts_with("| totals")) {
                            assert_eq!(field_u64(totals, "embeddings"), want);
                        }
                    }
                    // Nothing drained: every pivot is estimated, by the
                    // walks the served estimator takes over the entry the
                    // request left cached; an index without pivots has
                    // nothing to estimate, and is exact.
                    (Ok(tag), Some(CUT)) => {
                        let (graph, index) = served(&self.state, g, &fx.templates[t].0);
                        let (plan, ceci) = (&index.plan, &index.ceci);
                        let head = if ceci.pivots().is_empty() {
                            assert_eq!(want, 0, "embeddings without pivots");
                            format!("OK MATCH count=0 status=OK cache={tag} ")
                        } else {
                            let est = estimate_embeddings(&graph, plan, ceci, &Default::default());
                            assert_eq!(est.walks, EstimateOptions::default().walks);
                            assert!(want > 0 || est.mean == 0.0, "walks completed no embedding");
                            let (lo, hi) = est.ci95();
                            moved.insert("deadline_exceeded", 1);
                            format!(
                                "OK MATCH count={} status=OK mode=APPROX exact=0 mean={:.1} \
                                 std_error={:.1} ci95_lo={lo:.1} ci95_hi={hi:.1} walks={} \
                                 cache={tag} ",
                                est.mean.round() as u64,
                                est.mean,
                                est.std_error,
                                est.walks,
                            )
                        };
                        assert!(last.starts_with(&head), "want {head:?} in {last:?}");
                    }
                    (Ok(tag), Some(suffix)) => {
                        let limit = (suffix.strip_prefix(" LIMIT "))
                            .map_or(u64::MAX, |k| k.parse().expect("a limit"));
                        let count = want.min(limit);
                        let head = format!("OK MATCH count={count} status=OK cache={tag} ");
                        assert!(last.starts_with(&head), "want {head:?}");
                        moved.insert("embeddings_returned", count);
                        let built = field(last, "build_us") != Some("0");
                        assert!(tag != "HIT" || !built, "a hit builds nothing");
                    }
                }
            }
            Op::Register(h, g, t) => {
                let (total, sub) = (model.count(fx, g, *t), model.graphs[g].sub_epoch);
                let want =
                    format!("OK REGISTERED name={h} graph={g} total={total} sub_epoch={sub}");
                assert_eq!(last, want);
                let (graph, template) = (*g, *t);
                let reg = Registration {
                    client: c,
                    graph,
                    template,
                    total,
                };
                model.regs.insert(h, reg);
            }
            Op::Unregister(h) => {
                if model.regs.remove(h).is_some() {
                    assert_eq!(last, format!("OK UNREGISTERED name={h}"));
                } else {
                    assert!(last.starts_with("ERR E_REGISTER unknown registration"));
                    moved.insert("errors", 1);
                }
            }
            Op::Batch(g, adds, dels) => {
                let n = model.graphs[g].labels.len() as u32;
                // The whole batch is refused, naming the file ids sent.
                if let Some((a, b)) = (adds.iter().chain(dels)).find(|e| e.0 >= n || e.1 >= n) {
                    let text = format!("edge ({a}, {b}) out of range for a graph of {n} vertices");
                    assert_eq!(last, format!("ERR E_MUTATION {text}"));
                    moved.insert("errors", 1);
                    return (moved, owed);
                }
                // Every add before every delete, each against the edges the
                // earlier ones left.
                let l = model.graphs.get_mut(g).unwrap();
                let key = |&(a, b): &(u32, u32)| (a.min(b), a.max(b));
                let added = adds.iter().filter(|e| e.0 != e.1 && l.edges.insert(key(e)));
                let added = added.count() as u64;
                let deleted = dels.iter().filter(|e| l.edges.remove(&key(e))).count() as u64;
                let applied = added + deleted > 0;
                let mut pending = l.edges.symmetric_difference(&l.base).count();
                let compacted = applied && pending >= COMPACT_THRESHOLD;
                if compacted {
                    (l.base, pending) = (l.edges.clone(), 0);
                }
                l.sub_epoch += applied as u64;
                let head = format!(
                    "OK MUTATED graph={g} added={added} deleted={deleted} sub_epoch={} \
                     pending={pending} compacted={} ",
                    l.sub_epoch, compacted as u8
                );
                assert!(last.starts_with(&head), "want {head:?}");
                let spent = field_u64(last, "apply_us") + field_u64(last, "delta_us");
                assert!(spent <= took.as_micros() as u64, "{spent} of {took:?}");
                assert_mutate_span_is_tiled(&self.state);
                if !applied {
                    return (moved, owed);
                }
                let watching: Vec<_> = (model.regs.iter())
                    .filter(|(_, r)| r.graph == *g)
                    .map(|(&h, r)| (h, r.template))
                    .collect();
                for (h, t) in watching {
                    let total = model.count(fx, g, t);
                    let reg = model.regs.get_mut(h).unwrap();
                    let net = total as i64 - reg.total as i64;
                    owed.entry(reg.client).or_default().insert(h, net);
                    reg.total = total;
                }
                moved.extend([
                    ("mutation_batches", 1),
                    ("edges_added", added),
                    ("edges_deleted", deleted),
                    ("compactions", compacted as u64),
                    (
                        "continuous_events",
                        owed.values().map(|e| e.len() as u64).sum(),
                    ),
                ]);
            }
        }
        (moved, owed)
    }

    /// [`Sim::expect`], then the counters, the pushed events and the state
    /// as the model has them; the reply and events go to the transcript.
    fn check(&mut self, c: usize, op: &Op, before: Moves, lines: Vec<String>, took: Duration) {
        let (moved, mut owed) = self.expect(c, op, &lines, took);
        for (key, now) in counters(&self.state.metrics) {
            let expected = moved.get(key).copied().unwrap_or(0);
            assert_eq!(now - before[key], expected, "counter {key}");
        }
        let mut events = Vec::new();
        for (client, sink) in self.sinks.iter().enumerate() {
            let mut got = sink.take_lines();
            got.sort();
            let owed = owed.remove(&client).unwrap_or_default();
            assert_eq!(got.len(), owed.len(), "client {client} got {got:?}");
            for line in got {
                let h = field(&line, "query").expect("query=");
                let (reg, net) = (&self.model.regs[h], owed[h]);
                let sub = self.model.graphs[reg.graph].sub_epoch;
                assert_eq!(field(&line, "graph"), Some(reg.graph), "{line}");
                assert_eq!(field_u64(&line, "batch"), sub, "{line}");
                assert_eq!(field_u64(&line, "total"), reg.total, "{line}");
                let (new, retired) = (field_u64(&line, "new"), field_u64(&line, "retired"));
                assert_eq!(new as i64 - retired as i64, net, "{line}");
                events.push(format!("c{client} ! {line}"));
            }
        }
        // Only a miss's build takes an armed BUILDPANIC (a repair takes it
        // only by falling back to one), and the model disarms on exactly
        // that miss (`Model::acquire`): no other reply may.
        let armed = self.state.build_panic_armed.load(Ordering::SeqCst);
        assert_eq!(armed, self.model.armed, "BUILDPANIC taken off a miss");
        let cache = &self.state.cache;
        assert_eq!(cache.len(), self.model.cached.len());
        assert_eq!(cache.quarantined_len(), self.model.quarantined.len());
        assert_eq!(cache.bytes(), cache.entries().iter().map(|e| e.bytes).sum());
        assert_eq!(self.state.continuous_len(), self.model.regs.len());
        // Each served snapshot holds the model's edges, renumbered.
        for (g, l) in &self.model.graphs {
            let entry = self.state.registry.get(g).expect("a loaded graph");
            let rank = |v: u32| entry.ids().rank(vid(v)).0;
            let ranked = l.edges.iter().map(|&(a, b)| (rank(a), rank(b)));
            let ranked: BTreeSet<_> = ranked.map(|(a, b)| (a.min(b), a.max(b))).collect();
            assert_eq!(edge_set(&entry.snapshot().0), ranked, "graph {g}");
        }
        let dir = self.fx.dir.display().to_string();
        let reply = |l: &String| format!("c{c} < {}", l.replace(&dir, "$DIR"));
        let masked = lines.iter().map(reply).chain(events).map(|l| mask(&l));
        self.transcript.extend(masked);
    }
}

/// The last `service.mutate` span is tiled, end to end, by its stages.
fn assert_mutate_span_is_tiled(state: &ServerState) {
    let spans = state.tracer.snapshot();
    let write = spans.iter().rfind(|s| s.name == "service.mutate");
    let write = write.expect("a span");
    let stages: Vec<_> = spans.iter().filter(|s| s.parent == write.id).collect();
    let names: Vec<&str> = stages.iter().map(|s| s.name).collect();
    assert_eq!(names, ["service.apply", "service.delta", "service.notify"]);
    let end = stages.iter().fold(write.ts_ns, |cursor, stage| {
        assert_eq!(stage.ts_ns, cursor, "{} leaves a gap", stage.name);
        cursor + stage.dur_ns
    });
    assert_eq!(end, write.ts_ns + write.dur_ns);
}

/// Replays `seed` and answers its transcript; panics, naming the seed, on
/// the first reply or state the model disagrees with.
fn run(seed: u64) -> Vec<String> {
    let mut rng = Rng(seed);
    let state = Arc::new(ServerState::new(ServeConfig {
        chaos: true,
        trace: true,
        compact_threshold: COMPACT_THRESHOLD,
        dirty_log_cap: DIRTY_LOG_CAP as usize,
        ..ServeConfig::default()
    }));
    let shared = LoopShared::new().expect("eventfd");
    let mut sim = Sim {
        fx: Fixture::new(seed, &mut rng),
        state: Arc::clone(&state),
        sinks: (0..CLIENTS as u64)
            .map(|c| QueuedSink::new(c, 1 << 20, Arc::clone(&shared)))
            .collect(),
        model: Model::default(),
        last_add: BTreeMap::new(),
        transcript: Vec::new(),
    };
    let mut pending: Vec<Option<(Op, DataJob)>> = (0..CLIENTS).map(|_| None).collect();
    let mut loads = GRAPHS.map(|g| Op::Load(g, 0)).into_iter();
    for step in 0.. {
        let idle: Vec<usize> = (0..CLIENTS).filter(|&c| pending[c].is_none()).collect();
        let busy: Vec<usize> = (0..CLIENTS).filter(|&c| pending[c].is_some()).collect();
        let issue = step < STEPS && !idle.is_empty() && (busy.is_empty() || rng.below(2) == 0);
        // Both names are loaded first; then a seeded mix of a new request
        // from an idle client and the data-plane job of a busy one.
        let (c, op) = match loads.next() {
            Some(op) => (0, op),
            None if issue => (rng.pick(&idle), sim.draw(&mut rng)),
            None if busy.is_empty() => break,
            None => {
                let c = rng.pick(&busy);
                (c, pending[c].as_ref().expect("a job").0.clone())
            }
        };
        let (before, t0) = (counters(&state.metrics), Instant::now());
        let stepped = catch_unwind(AssertUnwindSafe(|| {
            let lines = match pending[c].take() {
                Some((_, job)) => job(&state, Duration::ZERO),
                None => match route(sim.send(c, &op), &state, &sim.sinks[c]) {
                    Routed::Inline(lines) => lines,
                    Routed::Data(job) => {
                        pending[c] = Some((op.clone(), job));
                        return;
                    }
                },
            };
            sim.check(c, &op, before, lines, t0.elapsed());
        }));
        if let Err(payload) = stepped {
            let what = (payload.downcast_ref::<String>().cloned())
                .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()));
            let tail = &sim.transcript[sim.transcript.len().saturating_sub(12)..];
            let (what, tail) = (what.unwrap_or_default(), tail.join("\n"));
            panic!("sim seed {seed}: {what}\nafter:\n{tail}");
        }
    }
    sim.transcript
}

mod tests {
    use super::*;

    /// Past the canonical form's permutation cap, two non-isomorphic
    /// templates get two cache entries. In the 5-prism, the Petersen graph
    /// has no embedding and the prism one: both unlabeled, 3-regular and on
    /// 10 vertices, so neither has an exact canonical form.
    #[test]
    fn over_cap_templates_do_not_share_a_cache_entry() {
        // A 5-cycle with spokes to an inner one whose vertex i is adjacent
        // to i + step: the prism at step 1, Petersen at step 2.
        let ring = |step: u32| {
            let edges: Vec<_> = (0..5)
                .flat_map(|i| [(i, (i + 1) % 5), (i, i + 5), (i + 5, (i + step) % 5 + 5)])
                .collect();
            pattern(&[0; 10], &edges)
        };
        let (prism, petersen) = (ring(1), ring(2));
        let dir = std::env::temp_dir().join(format!("ceci-sim-cap-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("scratch dir");
        let path = |name: &str| dir.join(name).display().to_string();
        write(&dir, "prism.graph", &prism);
        write(&dir, "petersen.graph", &petersen);
        let state = Arc::new(ServerState::new(ServeConfig::default()));
        let sink = QueuedSink::new(0, 1 << 20, LoopShared::new().expect("eventfd"));
        let ask = |line: String| {
            let request = parse_request(&line).ok().flatten().expect("a request");
            let mut lines = match route(request, &state, &sink) {
                Routed::Inline(lines) => lines,
                Routed::Data(job) => job(&state, Duration::ZERO),
            };
            lines.pop().expect("a reply")
        };
        assert!(ask(format!("LOAD d {}", path("prism.graph"))).starts_with("OK LOADED"));
        for (name, query, want) in [("petersen", &petersen, 0), ("prism", &prism, 1)] {
            let query = QueryGraph::from_graph(query).expect("a template");
            assert_eq!(oracle(&prism, &query), want, "{name}");
            let reply = ask(format!("MATCH d {}", path(&format!("{name}.graph"))));
            let head = format!("OK MATCH count={want} status=OK cache=MISS ");
            assert!(reply.starts_with(&head), "{name}: {reply}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// One hundred seeds and the regression seeds, every 25th replayed
    /// twice to the same transcript; `SIM_SEEDS=3,17` replays just those
    /// and prints their transcripts.
    #[test]
    fn sim_seeds_agree_with_the_model_and_replay_byte_identically() {
        if let Ok(seeds) = std::env::var("SIM_SEEDS") {
            for seed in seeds.split(',').map(|s| s.trim().parse().expect("a seed")) {
                println!("sim seed {seed}\n{}", run(seed).join("\n"));
            }
            return;
        }
        let mut intervals = 0;
        for seed in (1..=100).chain(REGRESSION_SEEDS) {
            let transcript = run(seed);
            if seed % 25 == 0 {
                assert_eq!(run(seed), transcript, "seed {seed} replays differently");
            }
            intervals += transcript
                .iter()
                .filter(|l| l.contains(" exact=0 "))
                .count();
        }
        assert!(
            intervals > 0,
            "no seed answered a DEADLINE 0 with an interval"
        );
    }
}
