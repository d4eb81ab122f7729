//! `ledger-layers` — the traced run: replays one workload's templates and
//! batches single-threaded through the layers' public functions, with one
//! span per call recorded in memory and written out as a Chrome trace at
//! exit. This is the only file of the benchmark that calls `ceci-*` crates.
//!
//! ```text
//! ledger-layers <run-dir> <trace-file>
//! ```
//!
//! `<run-dir>` holds the input files of a served run plus `layers.txt`
//! (written by `ledger`). Output rows on stdout:
//!
//! ```text
//! M <metric> <value>                        one per DIRECT_LAYER metric
//! T <template> <hit|miss|repaired|rejected> <us>   direct-call time of one such request
//! ```
//!
//! It is also the second oracle: every template's count on the sequential
//! BFS plan (`count_embeddings`), and — within a time budget — the
//! `ceci-baselines` reference matcher's, must equal the count the served
//! run was checked against.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

use ceci_baselines::reference;
use ceci_core::{
    batch_delta, count_embeddings, enumerate_from_frontier, enumerate_sequential,
    plan_with_options, AdaptiveOptions, BuildOptions, Ceci, CountSink, Counters, EnumOptions,
    PrefixSpec,
};
use ceci_graph::{io, vid, Graph, LabelId, VertexId};
use ceci_ledger::json::{chrome_trace, Span};
use ceci_ledger::metrics::DIRECT_LAYER;
use ceci_ledger::stats::geomean;
use ceci_query::{
    admission_check, CanonicalQuery, OrderStrategy, PlanOptions, QueryGraph, QueryPlan,
};
use ceci_service::{parse_request, GraphRegistry, ServeConfig};
use ceci_stream::StreamIndex;

/// Calls per template of the enumeration steps, whose mean is reported.
const ENUMERATE_REPEATS: u32 = 3;
/// Parses per request line inside one `service.protocol.parse` span.
const PARSES_PER_SPAN: u32 = 200;
/// Wall time the reference matcher may use in total; templates past it are
/// checked against `count_embeddings` only.
const REFERENCE_BUDGET: Duration = Duration::from_secs(3);

/// In-memory span recorder. Durations are always summed per name (that is
/// what the metrics are made of); the span list is kept only when
/// `keep_spans` is on, which is what the overhead measurement toggles.
struct Recorder {
    epoch: Instant,
    keep_spans: bool,
    spans: Vec<Span>,
    /// Index of the open request span, the parent of every call span.
    open: Option<usize>,
    totals: BTreeMap<&'static str, (Duration, u64)>,
    request: u64,
}

impl Recorder {
    fn new(keep_spans: bool) -> Recorder {
        Recorder {
            epoch: Instant::now(),
            keep_spans,
            spans: Vec::new(),
            open: None,
            totals: BTreeMap::new(),
            request: 0,
        }
    }

    /// Opens the parent span of one request (a template's replay, a batch):
    /// every call until the next `begin_request` is its child.
    fn begin_request(&mut self, request: u64) {
        self.end_request();
        self.request = request;
        if self.keep_spans {
            self.open = Some(self.spans.len());
            self.spans.push(Span {
                name: "ledger.request",
                start_ns: self.epoch.elapsed().as_nanos() as u64,
                end_ns: 0,
                parent: None,
                request,
            });
        }
    }

    fn end_request(&mut self) {
        if let Some(slot) = self.open.take() {
            self.spans[slot].end_ns = self.epoch.elapsed().as_nanos() as u64;
        }
    }

    /// Runs `f` inside a span named `name`, a child of the open request.
    fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, Duration) {
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        let started = Instant::now();
        let out = f();
        let took = started.elapsed();
        if self.keep_spans {
            self.spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns + took.as_nanos() as u64,
                parent: self.open,
                request: self.request,
            });
        }
        let total = self.totals.entry(name).or_default();
        total.0 += took;
        total.1 += 1;
        (out, took)
    }

    /// Mean microseconds per call of a span name (0 when never called).
    fn mean_us(&self, name: &str) -> f64 {
        self.totals
            .get(name)
            .map_or(0.0, |(sum, calls)| sum.as_secs_f64() * 1e6 / *calls as f64)
    }
}

struct TemplateSpec {
    file: String,
    expected: u64,
    impossible: bool,
    limit1: bool,
}

struct Manifest {
    graph: String,
    templates: Vec<TemplateSpec>,
    /// `BATCH g +u:v -u:v …` lines.
    batch_lines: Vec<String>,
}

fn read_manifest(dir: &Path) -> Result<Manifest, String> {
    let text =
        std::fs::read_to_string(dir.join("layers.txt")).map_err(|e| format!("layers.txt: {e}"))?;
    let mut m = Manifest {
        graph: String::new(),
        templates: Vec::new(),
        batch_lines: Vec::new(),
    };
    for line in text.lines() {
        let tok: Vec<&str> = line.split(' ').collect();
        match tok.as_slice() {
            ["graph", file] => m.graph = file.to_string(),
            ["template", file, expected, impossible, limit1] => m.templates.push(TemplateSpec {
                file: file.to_string(),
                expected: expected.parse().map_err(|_| format!("bad row {line:?}"))?,
                impossible: *impossible == "1",
                limit1: *limit1 == "1",
            }),
            ["BATCH", ..] => m.batch_lines.push(line.to_string()),
            _ => return Err(format!("layers.txt: bad row {line:?}")),
        }
    }
    Ok(m)
}

/// The query renumbered in BFS order, so the reference matcher — which
/// assigns query vertices in id order — always extends along an edge.
fn bfs_renumbered(query: &QueryGraph) -> QueryGraph {
    let n = query.num_vertices();
    let mut order: Vec<VertexId> = vec![vid(0)];
    let mut new_id = vec![u32::MAX; n];
    new_id[0] = 0;
    let mut head = 0;
    while head < order.len() {
        let u = order[head];
        head += 1;
        for &w in query.neighbors(u) {
            if new_id[w.index()] == u32::MAX {
                new_id[w.index()] = order.len() as u32;
                order.push(w);
            }
        }
    }
    let labels: Vec<LabelId> = order.iter().map(|&u| query.labels(u).primary()).collect();
    let edges: Vec<(u32, u32)> = query
        .edges()
        .iter()
        .map(|&(a, b)| (new_id[a.index()], new_id[b.index()]))
        .collect();
    QueryGraph::with_labels(&labels, &edges).expect("a renumbered query stays valid")
}

/// What one replay measured beyond the recorder's per-name totals.
#[derive(Default)]
struct Replay {
    counters: Counters,
    index_bytes: u64,
    te_entries: u64,
    nte_entries: u64,
    filter: Duration,
    refine: Duration,
    score: Duration,
    built: u64,
    replanned: u64,
    /// Per template: adaptive plan+build+enumerate over BFS plan+build+enumerate.
    vs_bfs: Vec<f64>,
    keys_recomputed: u64,
    /// Direct-call microseconds of one request per (template, path).
    direct: Vec<(usize, &'static str, f64)>,
    reference_checked: usize,
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn replay(
    dir: &Path,
    manifest: &Manifest,
    cfg: &ServeConfig,
    rec: &mut Recorder,
) -> Result<Replay, String> {
    let mut out = Replay::default();
    let path = |file: &str| dir.join(file);

    rec.begin_request(0);
    let (graph, _) = rec.span("graph.io.load", || io::load_labeled(path(&manifest.graph)));
    let mut graph: Graph = graph.map_err(|e| format!("load graph: {e}"))?;
    rec.span("graph.label_pair_index", || graph.build_label_pair_index());

    // service.protocol: every distinct request line of the workload.
    let mut lines: Vec<String> = vec!["PING".to_string()];
    for t in &manifest.templates {
        let limit = if t.limit1 { " LIMIT 1" } else { "" };
        lines.push(format!("MATCH g {}{limit}", path(&t.file).display()));
    }
    lines.extend(manifest.batch_lines.iter().cloned());
    for line in &lines {
        rec.span("service.protocol.parse", || {
            for _ in 0..PARSES_PER_SPAN {
                std::hint::black_box(parse_request(std::hint::black_box(line)))
                    .expect("the workload's own request lines parse");
            }
        });
    }

    let enum_options = EnumOptions {
        prune_redundant: cfg.prune_redundant,
        ..EnumOptions::default()
    };
    let mut reference_spent = Duration::ZERO;
    let mut plans: Vec<Option<QueryPlan>> = Vec::new();
    let mut frontier_specs: Vec<PrefixSpec> = Vec::new();
    for (i, t) in manifest.templates.iter().enumerate() {
        rec.begin_request(i as u64 + 1);
        let (query, t_load) = rec.span("query.load", || {
            io::load_labeled(path(&t.file))
                .map_err(|e| e.to_string())
                .and_then(|g| QueryGraph::from_graph(&g).map_err(|e| e.to_string()))
        });
        let query = query.map_err(|e| format!("{}: {e}", t.file))?;
        let (verdict, t_admission) =
            rec.span("query.admission", || admission_check(&query, &graph));
        if verdict.rejected() {
            if t.expected != 0 {
                return Err(format!(
                    "{}: admission rejects a template that counts {}",
                    t.file, t.expected
                ));
            }
            out.direct.push((i, "rejected", us(t_load + t_admission)));
            plans.push(None);
            continue;
        }
        if t.impossible {
            return Err(format!(
                "{}: an impossible template passed admission",
                t.file
            ));
        }
        let (_, t_canonical) = rec.span("query.canonical", || CanonicalQuery::of(&query));

        // The fixed BFS plan: the oracle, and the base of vs_bfs_ratio.
        let (bfs_plan, t_bfs_plan) = rec.span("query.plan_bfs", || {
            QueryPlan::with_options(query.clone(), &graph, &PlanOptions::default())
        });
        let (bfs_index, t_bfs_build) = rec.span("core.build_bfs", || {
            Ceci::build_with(&graph, &bfs_plan, BuildOptions::default())
        });
        let (bfs_count, t_bfs_enum) = rec.span("core.enumerate_bfs", || {
            count_embeddings(&graph, &bfs_plan, &bfs_index)
        });
        if bfs_count != t.expected {
            return Err(format!(
                "{}: count_embeddings on the BFS plan gives {bfs_count}, the served run was checked against {}",
                t.file, t.expected
            ));
        }
        if graph.num_labels() > 1 && reference_spent < REFERENCE_BUDGET {
            let started = Instant::now();
            let renumbered = bfs_renumbered(&query);
            let plan = QueryPlan::new(renumbered.clone(), &graph);
            let found = reference::count_all(&graph, &renumbered, plan.symmetry_constraints());
            reference_spent += started.elapsed();
            if found != t.expected {
                return Err(format!(
                    "{}: the reference matcher counts {found}, the served run was checked against {}",
                    t.file, t.expected
                ));
            }
            out.reference_checked += 1;
        }

        // What a cache miss does with defaults on: adaptive plan, build,
        // the maintainable stream tables, then enumerate.
        let ((plan, choice), t_plan) = rec.span("core.adaptive.plan", || {
            plan_with_options(
                query.clone(),
                &graph,
                &PlanOptions {
                    order: OrderStrategy::Adaptive,
                    ..PlanOptions::default()
                },
                &AdaptiveOptions {
                    max_workers: cfg.max_match_workers.max(1),
                    ..AdaptiveOptions::default()
                },
            )
        });
        let choice = choice.expect("the adaptive strategy records its choice");
        out.score += choice.score_time;
        out.replanned += choice.replanned as u64;
        let (index, t_build) = rec.span("core.build", || {
            Ceci::build_with(&graph, &plan, BuildOptions::default())
        });
        let stats = index.stats();
        out.built += 1;
        out.filter += stats.filter_time;
        out.refine += stats.refine_time;
        out.index_bytes += index.size_bytes() as u64;
        out.te_entries += stats.te_entries_after_refine as u64;
        out.nte_entries += stats.nte_entries_after_refine as u64;
        let (_, t_stream_build) = rec.span("stream.build", || StreamIndex::build(&graph, &plan));

        let mut t_enum = Duration::ZERO;
        for repeat in 0..ENUMERATE_REPEATS {
            let ((counters, count), took) = rec.span("core.enumerate", || {
                let mut sink = CountSink::unbounded();
                let counters = enumerate_sequential(&graph, &plan, &index, enum_options, &mut sink);
                (counters, sink.count())
            });
            if count != t.expected {
                return Err(format!(
                    "{}: the adaptive plan counts {count}, expected {}",
                    t.file, t.expected
                ));
            }
            if repeat == 0 {
                out.counters.merge(&counters);
            }
            t_enum += took;
        }
        t_enum /= ENUMERATE_REPEATS;
        out.vs_bfs.push(
            (t_plan + t_build + t_enum).as_secs_f64()
                / (t_bfs_plan + t_bfs_build + t_bfs_enum).as_secs_f64(),
        );

        // What a count-only cache hit runs: enumeration forked from the
        // shared frontier of the matching-order prefix.
        let mut t_served_enum = t_enum;
        let mut t_frontier = Duration::ZERO;
        if let Some(spec) =
            PrefixSpec::from_plan(&plan, cfg.batch_prefix_depth).filter(|_| !t.limit1)
        {
            let (frontier, took) = rec.span("core.batch.frontier", || spec.build_frontier(&graph));
            if !frontier_specs.contains(&spec) {
                // Only the first request of a prefix shape pays for it.
                t_frontier = took;
                frontier_specs.push(spec);
            }
            t_served_enum = Duration::ZERO;
            for _ in 0..ENUMERATE_REPEATS {
                let (count, took) = rec.span("core.batch.from_frontier", || {
                    let mut sink = CountSink::unbounded();
                    enumerate_from_frontier(
                        &graph,
                        &plan,
                        &index,
                        enum_options,
                        &frontier,
                        &mut sink,
                    );
                    sink.count()
                });
                if count != t.expected {
                    return Err(format!(
                        "{}: from the frontier counts {count}, expected {}",
                        t.file, t.expected
                    ));
                }
                t_served_enum += took;
            }
            t_served_enum /= ENUMERATE_REPEATS;
        } else if t.limit1 {
            (_, t_served_enum) = rec.span("core.enumerate_limit1", || {
                let mut sink = CountSink::with_limit(1);
                enumerate_sequential(&graph, &plan, &index, enum_options, &mut sink);
                sink.count()
            });
        }
        let hit = t_load + t_admission + t_canonical + t_served_enum;
        out.direct.push((i, "hit", us(hit)));
        out.direct.push((
            i,
            "miss",
            us(hit + t_plan + t_build + t_stream_build + t_frontier),
        ));
        plans.push(Some(plan));
    }

    // stream-rw: the write path, batch by batch, on the registry's own
    // entry type — overlay apply and compaction, then per template the
    // continuous query's patch + delta and the repaired index's freeze.
    if !manifest.batch_lines.is_empty() {
        let (entry, _) = GraphRegistry::new().insert("g", graph.clone());
        let mut live: Vec<(usize, &QueryPlan, StreamIndex, u64)> = Vec::new();
        for (i, plan) in plans.iter().enumerate() {
            let plan = plan.as_ref().ok_or("stream templates pass admission")?;
            live.push((
                i,
                plan,
                StreamIndex::build(&graph, plan),
                manifest.templates[i].expected,
            ));
        }
        let mut repair = vec![Duration::ZERO; manifest.templates.len()];
        for (b, line) in manifest.batch_lines.iter().enumerate() {
            rec.begin_request(1_000 + b as u64);
            let Ok(Some(ceci_service::Request::Mutate { adds, dels, .. })) = parse_request(line)
            else {
                return Err(format!("batch {b} does not parse as a mutation"));
            };
            let vids = |pairs: &[(u32, u32)]| -> Vec<(VertexId, VertexId)> {
                pairs.iter().map(|&(a, b)| (vid(a), vid(b))).collect()
            };
            let (adds, dels) = (vids(&adds), vids(&dels));
            let (outcome, _) = rec.span("service.registry.apply_batch", || {
                entry.apply_batch(&adds, &dels, cfg.compact_threshold, cfg.dirty_log_cap)
            });
            let outcome = outcome.map_err(|e| format!("batch {b}: {e}"))?;
            for (i, plan, stream, total) in &mut live {
                let (stats, t_patch) = rec.span("stream.patch", || {
                    stream.patch(&outcome.new_graph, plan, &outcome.endpoints)
                });
                out.keys_recomputed += stats.keys_recomputed as u64;
                let (delta, _) = rec.span("core.delta", || {
                    batch_delta(
                        &outcome.old_graph,
                        &outcome.new_graph,
                        plan,
                        &outcome.added,
                        &outcome.deleted,
                    )
                });
                *total = delta.apply_to(*total);
                let (index, t_materialize) = rec.span("stream.materialize", || {
                    stream.materialize(&outcome.new_graph, plan)
                });
                let count = count_embeddings(&outcome.new_graph, plan, &index);
                if count != *total {
                    return Err(format!(
                        "batch {b}, template {i}: the repaired index counts {count}, the delta identity gives {total}"
                    ));
                }
                repair[*i] += t_patch + t_materialize;
            }
        }
        for (i, ..) in &live {
            let hit = out
                .direct
                .iter()
                .find(|(t, path, _)| t == i && *path == "hit")
                .map_or(0.0, |d| d.2);
            out.direct.push((
                *i,
                "repaired",
                hit + us(repair[*i]) / manifest.batch_lines.len() as f64,
            ));
        }
    }
    rec.end_request();
    Ok(out)
}

fn main() -> std::process::ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [dir, trace_file] = args.as_slice() else {
        eprintln!("usage: ledger-layers <run-dir> <trace-file>");
        return std::process::ExitCode::from(2);
    };
    let dir = Path::new(dir);
    let run = || -> Result<(), String> {
        let manifest = read_manifest(dir)?;
        let cfg = ServeConfig::default();

        // Twice over the same replay: without the span list, then with it.
        // The difference is what recording spans costs.
        let started = Instant::now();
        replay(dir, &manifest, &cfg, &mut Recorder::new(false))?;
        let untraced = started.elapsed();
        let mut rec = Recorder::new(true);
        let started = Instant::now();
        let out = replay(dir, &manifest, &cfg, &mut rec)?;
        let traced = started.elapsed();
        std::fs::write(trace_file, chrome_trace(&rec.spans))
            .map_err(|e| format!("{trace_file}: {e}"))?;
        eprintln!(
            "ledger-layers: {} spans, {} of {} templates also checked by the reference matcher",
            rec.spans.len(),
            out.reference_checked,
            manifest.templates.len()
        );

        let per_built = |total: f64| {
            if out.built == 0 {
                0.0
            } else {
                total / out.built as f64
            }
        };
        let c = &out.counters;
        let enumerate_us = rec.mean_us("core.enumerate");
        let values: BTreeMap<&str, f64> = BTreeMap::from([
            (
                "service.protocol.parse_ns",
                rec.mean_us("service.protocol.parse") * 1e3 / PARSES_PER_SPAN as f64,
            ),
            ("graph.io.load_ms", rec.mean_us("graph.io.load") / 1e3),
            (
                "graph.label_pair_index_ms",
                rec.mean_us("graph.label_pair_index") / 1e3,
            ),
            ("query.load_us", rec.mean_us("query.load")),
            ("query.canonical_us", rec.mean_us("query.canonical")),
            ("query.admission_us", rec.mean_us("query.admission")),
            ("query.plan_bfs_us", rec.mean_us("query.plan_bfs")),
            ("core.adaptive.plan_us", rec.mean_us("core.adaptive.plan")),
            ("core.adaptive.score_us", per_built(us(out.score))),
            (
                "core.adaptive.replanned_ratio",
                per_built(out.replanned as f64),
            ),
            ("core.adaptive.vs_bfs_ratio", geomean(&out.vs_bfs)),
            ("core.filter.us", per_built(us(out.filter))),
            ("core.refine.us", per_built(us(out.refine))),
            ("core.index.bytes", out.index_bytes as f64),
            ("core.index.te_entries", out.te_entries as f64),
            ("core.index.nte_entries", out.nte_entries as f64),
            ("core.enumerate.us", enumerate_us),
            ("core.enumerate.embeddings", c.embeddings as f64),
            ("core.enumerate.intersection_ops", c.intersection_ops as f64),
            ("core.enumerate.recursive_calls", c.recursive_calls as f64),
            (
                "core.enumerate.ns_per_embedding",
                if c.embeddings == 0 {
                    0.0
                } else {
                    enumerate_us * 1e3 * out.built as f64 / c.embeddings as f64
                },
            ),
            ("core.batch.frontier_us", rec.mean_us("core.batch.frontier")),
            (
                "core.batch.from_frontier_us",
                rec.mean_us("core.batch.from_frontier"),
            ),
            ("stream.build_us", rec.mean_us("stream.build")),
            ("stream.patch_us", rec.mean_us("stream.patch")),
            ("stream.materialize_us", rec.mean_us("stream.materialize")),
            ("stream.keys_recomputed", out.keys_recomputed as f64),
            ("core.delta.us", rec.mean_us("core.delta")),
            (
                "service.registry.apply_batch_us",
                rec.mean_us("service.registry.apply_batch"),
            ),
        ]);
        for (name, _) in DIRECT_LAYER {
            println!("M {name} {}", values[name]);
        }
        println!(
            "M ledger.span_overhead_pct {}",
            (traced.as_secs_f64() / untraced.as_secs_f64() - 1.0) * 100.0
        );
        for (template, path, us) in &out.direct {
            println!("T {template} {path} {us}");
        }
        Ok(())
    };
    match run() {
        Ok(()) => std::process::ExitCode::SUCCESS,
        Err(why) => {
            eprintln!("ledger-layers: {why}");
            std::process::ExitCode::FAILURE
        }
    }
}
