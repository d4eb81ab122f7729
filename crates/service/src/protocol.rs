//! The line-oriented text protocol spoken by `ceci-serve`.
//!
//! One request per line; whitespace-separated tokens; the command word is
//! case-insensitive. Responses are one or more lines, and the *last* line of
//! every response starts with one of the three terminal words, so clients
//! can frame responses without length prefixes:
//!
//! * `OK ...` — success (possibly preceded by payload lines),
//! * `BUSY` — admission control rejected the request (queue full),
//! * `ERR <code> <message>` — the request failed; `<code>` is a stable
//!   machine-readable [`ErrorCode`] spelling (`E_*`), the message free text.
//!
//! Grammar:
//!
//! ```text
//! LOAD <name> <path> [EDGELIST] [DIRECTED]
//! MATCH <graph> <query-path> [LIMIT <k>] [DEADLINE <ms>] [WORKERS <n>] [RAW]
//! ESTIMATE <graph> <query-path> [WALKS <n>]
//! EXPLAIN <graph> <query-path> [ANALYZE]
//! STATS [PROM]
//! CHAOS PANIC | BUILDPANIC | BUILDDELAY <ms> | DELAY <ms>
//!       | EXIT [after-ms] | STALL <ms>
//! ADDEDGE <graph> <u> <v>
//! DELEDGE <graph> <u> <v>
//! BATCH <graph> {+<u>:<v> | -<u>:<v>}...
//! BATCH <graph> FILE <path>
//! REGISTER <name> <graph> <query-path>
//! UNREGISTER <name>
//! PREPARE <name> <query-path> ROOT <r> ORDER <u0,u1,...> RADIUS <k>
//!         [SYM <a:b,...>] [SYMCOMPLETE]
//! EXEC <name> <pivot> <epoch>
//! PING
//! QUIT
//! ```
//!
//! `PREPARE`/`EXEC` are the *shard plane*, spoken between a `ceci-serve`
//! coordinator and `ceci-shard` processes (they parse everywhere but the
//! query daemon refuses them). `PREPARE` pins the coordinator's plan
//! decisions — query root, matching order, symmetry-breaking constraints
//! (`a:b` means `map(a) < map(b)`), and the fragment extraction radius — so
//! every shard enumerates under the *same* plan as a single-process run.
//! `EXEC` asks for one pivot's cluster count; the shard extracts the
//! radius-ball fragment around the pivot on demand (out-of-core when the
//! graph is memory-mapped) and answers
//! `OK EXEC pivot=<p> epoch=<e> count=<c>`. The epoch is echoed verbatim:
//! commit validation (first-commit-wins, stale-epoch rejection) lives on
//! the coordinator's result board.
//!
//! `ADDEDGE`/`DELEDGE`/`BATCH` mutate a loaded graph in place (streaming
//! updates): each applied batch bumps the graph's mutation *sub-epoch* and
//! publishes a fresh snapshot, leaving in-flight requests on the old one.
//! `BATCH ... FILE` reads a SNAP temporal edge list (`src dst ts`) server
//! side and applies every edge as one batch of additions.
//!
//! An inline `BATCH` is **not** applied in token order: all `+` tokens
//! apply before all `-` tokens, each against the view the earlier ones
//! left, and a mutation the view already agrees with is dropped. So
//! `BATCH g -1:2 +1:2` on a present edge drops the add and then deletes
//! the edge (`added=0 deleted=1`), and `BATCH g +3:4 -3:4` on an absent
//! edge applies both (`added=1 deleted=1`): the sub-epoch moves and
//! registered queries get an `EVENT DELTA new=0 retired=0`, over an
//! unchanged edge set. The answer is
//!
//! ```text
//! OK MUTATED graph=<g> added=<a> deleted=<d> sub_epoch=<s> pending=<p> compacted=<0|1>
//!            apply_us=<us> delta_us=<us>
//! ```
//!
//! (one line) where `apply_us` is the registry's share — next snapshot,
//! label-pair maintenance, dirty log — and `delta_us` the sum of the
//! registered queries' delta enumerations for this batch.
//!
//! `REGISTER` pins a *continuous query*: the server keeps its index live
//! across mutation batches and pushes one asynchronous line
//!
//! ```text
//! EVENT DELTA query=<name> graph=<g> batch=<sub-epoch> new=<n> retired=<r> total=<t>
//! ```
//!
//! to the registering connection per applied batch. `EVENT` lines are never
//! terminal and may interleave *between* (never inside) responses on that
//! connection; clients must treat them as out-of-band payload.
//!
//! `MATCH ... RAW` opts one request out of the multi-query optimization
//! layer (admission filter, redundant-extension pruning) — the
//! differential lever used to verify the optimized path returns
//! bit-identical counts. Every `MATCH` form —
//! plain, `LIMIT`, `DEADLINE`, `WORKERS`, `RAW` — drains its cached index
//! through the same enumeration entry point, and `status=` is always `OK`.
//!
//! `MATCH ... DEADLINE <ms>` drains exactly until the deadline. A drain that
//! finishes (or reaches its `LIMIT`) answers exactly, as any `MATCH` does.
//! One the deadline stopped answers with an interval: the exact count of
//! the pivots whose clusters drained, plus a random-walk estimate over the
//! rest (`OK MATCH count=<rounded total> status=OK mode=APPROX
//! exact=<drained> mean=... std_error=... ci95_lo=... ci95_hi=... walks=...`,
//! `ci95_lo` never below `exact`, every value clipped to a `LIMIT`).
//!
//! `ESTIMATE` answers the cardinality question directly: it runs the
//! random-walk estimator over the (cached) index and reports the mean,
//! standard error and 95% confidence interval without enumerating.
//! `WALKS <n>` takes 1 to [`MAX_WALKS`] walks: nothing cancels an estimate,
//! so the cap bounds how long one request holds a pool worker.
//!
//! `CHAOS` is a fault-injection verb for testing the server's failure
//! paths; it is refused with `E_CHAOS_DISABLED` unless the server was
//! started with chaos mode enabled (`--chaos`).
//!
//! Payload lines of multi-line responses (`STATS`, `EXPLAIN`) are prefixed
//! with `STAT ` / `| ` respectively and never start with a terminal word.

use std::fmt;

/// The most walks one `ESTIMATE … WALKS <n>` may ask for: 1 000 times the
/// default budget. Walking is linear in `n` and runs to the end on a pool
/// worker, so a larger `n` is refused at parse time (`E_PARSE`).
pub const MAX_WALKS: u64 = 1_000_000;

/// The options of one `MATCH` line. The default is the plain count-only
/// form, which is also what `ESTIMATE` and `EXPLAIN` resolve as.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MatchForm {
    /// Stop after this many embeddings.
    pub limit: Option<u64>,
    /// Per-request deadline in milliseconds.
    pub deadline_ms: Option<u64>,
    /// Enumeration threads for this request (capped by the server).
    pub workers: Option<usize>,
    /// `RAW`: the one ablation lever — no admission filter, no
    /// redundant-extension pruning — for verifying bit-identical counts.
    /// Width and strategy are those of any `MATCH`: `WORKERS n` (one worker
    /// without it), ST at one worker, FGD above.
    pub raw: bool,
}

/// A parsed client request.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Load (or replace) a named graph from a server-side file.
    Load {
        /// Registry name for the graph.
        name: String,
        /// Server-side path to read.
        path: String,
        /// `true` = SNAP edge list, `false` = labeled t/v/e format.
        edge_list: bool,
        /// Provenance flag for edge lists.
        directed: bool,
    },
    /// Match a query pattern against a loaded graph.
    Match {
        /// Name of a loaded graph.
        graph: String,
        /// Server-side path of the query (labeled t/v/e format).
        query_path: String,
        /// The line's options.
        form: MatchForm,
    },
    /// Estimate the embedding count of a (graph, query) pair via random
    /// walks over the index, without enumerating.
    Estimate {
        /// Name of a loaded graph.
        graph: String,
        /// Server-side path of the query (labeled t/v/e format).
        query_path: String,
        /// Walk budget override (`WALKS <n>`); server default otherwise.
        walks: Option<u64>,
    },
    /// Plan/index report for a (graph, query) pair.
    Explain {
        /// Name of a loaded graph.
        graph: String,
        /// Server-side path of the query.
        query_path: String,
        /// `EXPLAIN ... ANALYZE`: actually run the enumeration with a
        /// per-depth profile attached and append the `EXPLAIN ANALYZE`
        /// table (per-depth calls / candidates / intersections / emits /
        /// backtracks / sampled time).
        analyze: bool,
    },
    /// Aggregate server metrics.
    Stats {
        /// `STATS PROM`: render the Prometheus text-exposition format
        /// instead of `STAT <key> <value>` rows.
        prom: bool,
    },
    /// Inject a fault (chaos-mode only; see [`ChaosCommand`]).
    Chaos {
        /// What to break.
        command: ChaosCommand,
    },
    /// Apply a batch of edge mutations to a loaded graph.
    Mutate {
        /// Name of a loaded graph.
        graph: String,
        /// Undirected edges to add, as `(u, v)` vertex-id pairs.
        adds: Vec<(u32, u32)>,
        /// Undirected edges to delete.
        dels: Vec<(u32, u32)>,
    },
    /// Apply a server-side SNAP temporal edge-list file as one batch of
    /// additions.
    BatchFile {
        /// Name of a loaded graph.
        graph: String,
        /// Server-side path of the `src dst ts` file.
        path: String,
    },
    /// Register a continuous query: keep its index live across mutation
    /// batches and emit `EVENT DELTA` lines to this connection.
    Register {
        /// Registration handle (unique per server; re-registering replaces).
        name: String,
        /// Name of a loaded graph.
        graph: String,
        /// Server-side path of the query (labeled t/v/e format).
        query_path: String,
    },
    /// Drop a continuous-query registration.
    Unregister {
        /// The handle passed to `REGISTER`.
        name: String,
    },
    /// Shard plane: pin a query's plan decisions on a `ceci-shard` so later
    /// `EXEC`s enumerate under the coordinator's (full-graph) plan.
    Prepare {
        /// Handle later `EXEC`s reference.
        name: String,
        /// Shard-side path of the query (labeled t/v/e format).
        query_path: String,
        /// Query root chosen by the coordinator.
        root: u32,
        /// Full matching order (query vertex ids, root first).
        order: Vec<u32>,
        /// Fragment extraction radius (max depth of the query tree).
        radius: usize,
        /// Symmetry-breaking constraints as `(smaller, larger)` query
        /// vertex pairs.
        sym: Vec<(u32, u32)>,
        /// Whether the constraint set breaks *all* automorphisms.
        sym_complete: bool,
    },
    /// Shard plane: count the embedding cluster of one pivot under a
    /// `PREPARE`d plan. The epoch is round-tripped for the coordinator's
    /// result board.
    Exec {
        /// The `PREPARE` handle.
        name: String,
        /// Global data-vertex id of the pivot.
        pivot: u32,
        /// Coordinator ownership epoch, echoed in the response.
        epoch: u32,
    },
    /// Liveness probe.
    Ping,
    /// Close the connection.
    Quit,
}

/// A `CHAOS` sub-command: which failure to inject.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChaosCommand {
    /// Panic inside a pool worker while handling this request — exercises
    /// panic isolation, worker respawn, and the dropped-response path.
    Panic,
    /// Arm a one-shot flag so the *next* index build panics mid-build —
    /// exercises build isolation and cache quarantine.
    BuildPanic,
    /// Arm a one-shot flag so the *next* index build sleeps `ms`
    /// milliseconds before running — the deterministic lever for widening
    /// the single-flight window so concurrent identical MATCHes pile up
    /// behind one leader. Composes with `BuildPanic` (delay first, then
    /// panic).
    BuildDelay {
        /// How long the next build stalls.
        ms: u64,
    },
    /// Occupy a pool worker for `ms` milliseconds — the lever for forcing
    /// `BUSY` storms, and the only request that pins a worker for as long
    /// as its client asks.
    Delay {
        /// How long the worker stalls.
        ms: u64,
    },
    /// Process-level fault: the server process exits (status 42) after
    /// `after_ms` milliseconds (immediately when omitted). On `ceci-shard`
    /// this is the deterministic stand-in for `kill -9` mid-enumeration.
    Exit {
        /// Delay before the process exits.
        after_ms: u64,
    },
    /// Process-level fault: arm a stall of `ms` milliseconds before every
    /// subsequent data/shard-plane request (0 disarms). A stalled shard
    /// stays heartbeat-alive but trips the coordinator's RPC timeout —
    /// the slow-shard re-scatter lever.
    Stall {
        /// Stall applied ahead of each subsequent request.
        ms: u64,
    },
}

/// Stable machine-readable error codes carried on `ERR` lines as the first
/// token after `ERR`. Clients branch on the code; the trailing message is
/// for humans.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorCode {
    /// The request line failed to parse.
    Parse,
    /// `MATCH`/`EXPLAIN` named a graph that is not loaded.
    UnknownGraph,
    /// The query file failed to load or validate.
    Query,
    /// `LOAD` failed to read or parse the graph file.
    Load,
    /// The worker handling the request dropped its response channel
    /// (it panicked mid-request and was respawned).
    WorkerDropped,
    /// The index build for this (graph, query) panicked; the request
    /// failed and the cache key was quarantined.
    BuildPanic,
    /// The (graph, query) cache key is quarantined by an earlier build
    /// panic; re-`LOAD` the graph to clear it.
    Quarantined,
    /// A `CHAOS` command arrived but the server runs without `--chaos`.
    ChaosDisabled,
    /// An `ADDEDGE`/`DELEDGE`/`BATCH` mutation was invalid (endpoint out of
    /// range, unreadable batch file, or malformed edge token).
    Mutation,
    /// A `REGISTER`/`UNREGISTER` request failed (unknown handle, or the
    /// continuous query could not be planned).
    Register,
    /// A socket read or write hit its configured timeout: the peer is
    /// half-open, stalled, or abandoned the connection mid-request.
    Timeout,
    /// A shard-plane request failed (`PREPARE`/`EXEC` on a non-shard
    /// server, an `EXEC` naming an unprepared handle, or a coordinator that
    /// exhausted its retry budget against an unreachable shard).
    Shard,
}

impl ErrorCode {
    /// Wire spelling (`E_*`).
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::Parse => "E_PARSE",
            ErrorCode::UnknownGraph => "E_UNKNOWN_GRAPH",
            ErrorCode::Query => "E_QUERY",
            ErrorCode::Load => "E_LOAD",
            ErrorCode::WorkerDropped => "E_WORKER_DROPPED",
            ErrorCode::BuildPanic => "E_BUILD_PANIC",
            ErrorCode::Quarantined => "E_QUARANTINED",
            ErrorCode::ChaosDisabled => "E_CHAOS_DISABLED",
            ErrorCode::Mutation => "E_MUTATION",
            ErrorCode::Register => "E_REGISTER",
            ErrorCode::Timeout => "E_TIMEOUT",
            ErrorCode::Shard => "E_SHARD",
        }
    }

    /// Formats the terminal `ERR <code> <message>` line.
    pub fn line(self, message: impl std::fmt::Display) -> String {
        format!("ERR {} {message}", self.as_str())
    }
}

/// A request line that could not be parsed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError(pub String);

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ParseError {}

fn err(msg: impl Into<String>) -> ParseError {
    ParseError(msg.into())
}

fn parse_u64(tokens: &mut std::slice::Iter<'_, &str>, what: &str) -> Result<u64, ParseError> {
    tokens
        .next()
        .ok_or_else(|| err(format!("{what} requires a value")))?
        .parse()
        .map_err(|_| err(format!("invalid {what} value")))
}

/// [`parse_u64`] for a 32-bit field: a value past its range is an error,
/// not a truncation (`EXEC q 4294967296 0` is not pivot 0).
fn parse_u32(tokens: &mut std::slice::Iter<'_, &str>, what: &str) -> Result<u32, ParseError> {
    u32::try_from(parse_u64(tokens, what)?).map_err(|_| err(format!("invalid {what} value")))
}

/// [`parse_u64`] for a `usize` field: a value past the host's `usize` is
/// an error, not a truncation.
fn parse_usize(tokens: &mut std::slice::Iter<'_, &str>, what: &str) -> Result<usize, ParseError> {
    usize::try_from(parse_u64(tokens, what)?).map_err(|_| err(format!("invalid {what} value")))
}

fn parse_vertex(tokens: &mut std::slice::Iter<'_, &str>, what: &str) -> Result<u32, ParseError> {
    tokens
        .next()
        .ok_or_else(|| err(format!("{what} requires <graph> <u> <v>")))?
        .parse()
        .map_err(|_| err(format!("{what} vertex ids must be u32")))
}

/// Parses one `BATCH` edge token: `+u:v` (add) or `-u:v` (delete).
fn parse_edge_token(token: &str) -> Result<(bool, u32, u32), ParseError> {
    let (add, rest) = match token.as_bytes().first() {
        Some(b'+') => (true, &token[1..]),
        Some(b'-') => (false, &token[1..]),
        _ => return Err(err(format!("BATCH edge {token:?} must start with + or -"))),
    };
    let (u, v) = rest
        .split_once(':')
        .ok_or_else(|| err(format!("BATCH edge {token:?} must be +u:v or -u:v")))?;
    let u = u
        .parse()
        .map_err(|_| err(format!("BATCH edge {token:?}: vertex ids must be u32")))?;
    let v = v
        .parse()
        .map_err(|_| err(format!("BATCH edge {token:?}: vertex ids must be u32")))?;
    Ok((add, u, v))
}

/// Parses one request line. Empty lines and `#` comments yield `Ok(None)`.
pub fn parse_request(line: &str) -> Result<Option<Request>, ParseError> {
    let line = line.trim();
    if line.is_empty() || line.starts_with('#') {
        return Ok(None);
    }
    let tokens: Vec<&str> = line.split_whitespace().collect();
    let mut it = tokens[1..].iter();
    let cmd = tokens[0].to_ascii_uppercase();
    let request = match cmd.as_str() {
        "LOAD" => {
            let name = it
                .next()
                .ok_or_else(|| err("LOAD requires <name> <path>"))?;
            let path = it
                .next()
                .ok_or_else(|| err("LOAD requires <name> <path>"))?;
            let mut edge_list = false;
            let mut directed = false;
            for flag in it {
                match flag.to_ascii_uppercase().as_str() {
                    "EDGELIST" => edge_list = true,
                    "DIRECTED" => directed = true,
                    other => return Err(err(format!("unknown LOAD flag {other:?}"))),
                }
            }
            Request::Load {
                name: name.to_string(),
                path: path.to_string(),
                edge_list,
                directed,
            }
        }
        "MATCH" => {
            let graph = it
                .next()
                .ok_or_else(|| err("MATCH requires <graph> <query-path>"))?;
            let query_path = it
                .next()
                .ok_or_else(|| err("MATCH requires <graph> <query-path>"))?;
            let mut form = MatchForm::default();
            while let Some(opt) = it.next() {
                match opt.to_ascii_uppercase().as_str() {
                    "LIMIT" => form.limit = Some(parse_u64(&mut it, "LIMIT")?),
                    "DEADLINE" => form.deadline_ms = Some(parse_u64(&mut it, "DEADLINE")?),
                    "WORKERS" => {
                        let w = parse_usize(&mut it, "WORKERS")?;
                        if w == 0 {
                            return Err(err("WORKERS must be >= 1"));
                        }
                        form.workers = Some(w);
                    }
                    "RAW" => form.raw = true,
                    other => return Err(err(format!("unknown MATCH option {other:?}"))),
                }
            }
            Request::Match {
                graph: graph.to_string(),
                query_path: query_path.to_string(),
                form,
            }
        }
        "ESTIMATE" => {
            let graph = it
                .next()
                .ok_or_else(|| err("ESTIMATE requires <graph> <query-path>"))?;
            let query_path = it
                .next()
                .ok_or_else(|| err("ESTIMATE requires <graph> <query-path>"))?;
            let mut walks = None;
            while let Some(opt) = it.next() {
                match opt.to_ascii_uppercase().as_str() {
                    "WALKS" => {
                        let w = parse_u64(&mut it, "WALKS")?;
                        if !(1..=MAX_WALKS).contains(&w) {
                            return Err(err(format!("WALKS must be in 1..={MAX_WALKS}")));
                        }
                        walks = Some(w);
                    }
                    other => return Err(err(format!("unknown ESTIMATE option {other:?}"))),
                }
            }
            Request::Estimate {
                graph: graph.to_string(),
                query_path: query_path.to_string(),
                walks,
            }
        }
        "EXPLAIN" => {
            let graph = it
                .next()
                .ok_or_else(|| err("EXPLAIN requires <graph> <query-path>"))?;
            let query_path = it
                .next()
                .ok_or_else(|| err("EXPLAIN requires <graph> <query-path>"))?;
            let mut analyze = false;
            for flag in it {
                match flag.to_ascii_uppercase().as_str() {
                    "ANALYZE" => analyze = true,
                    other => return Err(err(format!("unknown EXPLAIN flag {other:?}"))),
                }
            }
            Request::Explain {
                graph: graph.to_string(),
                query_path: query_path.to_string(),
                analyze,
            }
        }
        "STATS" => {
            let mut prom = false;
            for flag in it {
                match flag.to_ascii_uppercase().as_str() {
                    "PROM" => prom = true,
                    other => return Err(err(format!("unknown STATS flag {other:?}"))),
                }
            }
            Request::Stats { prom }
        }
        "CHAOS" => {
            let sub = it.next().ok_or_else(|| {
                err(
                    "CHAOS requires PANIC | BUILDPANIC | BUILDDELAY <ms> | DELAY <ms> \
                     | EXIT [after-ms] | STALL <ms>",
                )
            })?;
            let command = match sub.to_ascii_uppercase().as_str() {
                "PANIC" => ChaosCommand::Panic,
                "BUILDPANIC" => ChaosCommand::BuildPanic,
                "BUILDDELAY" => ChaosCommand::BuildDelay {
                    ms: parse_u64(&mut it, "BUILDDELAY")?,
                },
                "DELAY" => ChaosCommand::Delay {
                    ms: parse_u64(&mut it, "DELAY")?,
                },
                "EXIT" => ChaosCommand::Exit {
                    after_ms: match it.next() {
                        Some(ms) => ms
                            .parse()
                            .map_err(|_| err("invalid CHAOS EXIT after-ms value"))?,
                        None => 0,
                    },
                },
                "STALL" => ChaosCommand::Stall {
                    ms: parse_u64(&mut it, "STALL")?,
                },
                other => return Err(err(format!("unknown CHAOS command {other:?}"))),
            };
            Request::Chaos { command }
        }
        "ADDEDGE" | "DELEDGE" => {
            let graph = it
                .next()
                .ok_or_else(|| err(format!("{cmd} requires <graph> <u> <v>")))?;
            let u = parse_vertex(&mut it, &cmd)?;
            let v = parse_vertex(&mut it, &cmd)?;
            if it.next().is_some() {
                return Err(err(format!("{cmd} takes exactly <graph> <u> <v>")));
            }
            let (adds, dels) = if cmd == "ADDEDGE" {
                (vec![(u, v)], Vec::new())
            } else {
                (Vec::new(), vec![(u, v)])
            };
            Request::Mutate {
                graph: graph.to_string(),
                adds,
                dels,
            }
        }
        "BATCH" => {
            let graph = it
                .next()
                .ok_or_else(|| err("BATCH requires <graph> followed by edges or FILE <path>"))?;
            let first = it.next().ok_or_else(|| {
                err("BATCH requires at least one +u:v / -u:v edge or FILE <path>")
            })?;
            if first.eq_ignore_ascii_case("FILE") {
                let path = it
                    .next()
                    .ok_or_else(|| err("BATCH ... FILE requires <path>"))?;
                if it.next().is_some() {
                    return Err(err("BATCH ... FILE takes exactly one path"));
                }
                Request::BatchFile {
                    graph: graph.to_string(),
                    path: path.to_string(),
                }
            } else {
                let mut adds = Vec::new();
                let mut dels = Vec::new();
                for token in std::iter::once(first).chain(it) {
                    let (add, u, v) = parse_edge_token(token)?;
                    if add {
                        adds.push((u, v));
                    } else {
                        dels.push((u, v));
                    }
                }
                Request::Mutate {
                    graph: graph.to_string(),
                    adds,
                    dels,
                }
            }
        }
        "REGISTER" => {
            let name = it
                .next()
                .ok_or_else(|| err("REGISTER requires <name> <graph> <query-path>"))?;
            let graph = it
                .next()
                .ok_or_else(|| err("REGISTER requires <name> <graph> <query-path>"))?;
            let query_path = it
                .next()
                .ok_or_else(|| err("REGISTER requires <name> <graph> <query-path>"))?;
            if it.next().is_some() {
                return Err(err("REGISTER takes exactly <name> <graph> <query-path>"));
            }
            Request::Register {
                name: name.to_string(),
                graph: graph.to_string(),
                query_path: query_path.to_string(),
            }
        }
        "UNREGISTER" => {
            let name = it.next().ok_or_else(|| err("UNREGISTER requires <name>"))?;
            if it.next().is_some() {
                return Err(err("UNREGISTER takes exactly <name>"));
            }
            Request::Unregister {
                name: name.to_string(),
            }
        }
        "PREPARE" => {
            let name = it
                .next()
                .ok_or_else(|| err("PREPARE requires <name> <query-path> ROOT <r> ORDER <...>"))?;
            let query_path = it
                .next()
                .ok_or_else(|| err("PREPARE requires <name> <query-path> ROOT <r> ORDER <...>"))?;
            let mut root = None;
            let mut order = Vec::new();
            let mut radius = None;
            let mut sym = Vec::new();
            let mut sym_complete = false;
            while let Some(opt) = it.next() {
                match opt.to_ascii_uppercase().as_str() {
                    "ROOT" => root = Some(parse_u32(&mut it, "ROOT")?),
                    "RADIUS" => radius = Some(parse_usize(&mut it, "RADIUS")?),
                    "ORDER" => {
                        let list = it.next().ok_or_else(|| err("ORDER requires u0,u1,..."))?;
                        for tok in list.split(',') {
                            order.push(
                                tok.parse()
                                    .map_err(|_| err("ORDER vertex ids must be u32"))?,
                            );
                        }
                    }
                    "SYM" => {
                        let list = it.next().ok_or_else(|| err("SYM requires a:b,..."))?;
                        for tok in list.split(',') {
                            let (a, b) = tok
                                .split_once(':')
                                .ok_or_else(|| err("SYM pairs must be a:b"))?;
                            let a = a.parse().map_err(|_| err("SYM ids must be u32"))?;
                            let b = b.parse().map_err(|_| err("SYM ids must be u32"))?;
                            sym.push((a, b));
                        }
                    }
                    "SYMCOMPLETE" => sym_complete = true,
                    other => return Err(err(format!("unknown PREPARE option {other:?}"))),
                }
            }
            let root = root.ok_or_else(|| err("PREPARE requires ROOT <r>"))?;
            let radius = radius.ok_or_else(|| err("PREPARE requires RADIUS <k>"))?;
            if order.is_empty() {
                return Err(err("PREPARE requires a non-empty ORDER"));
            }
            Request::Prepare {
                name: name.to_string(),
                query_path: query_path.to_string(),
                root,
                order,
                radius,
                sym,
                sym_complete,
            }
        }
        "EXEC" => {
            let name = it
                .next()
                .ok_or_else(|| err("EXEC requires <name> <pivot> <epoch>"))?;
            let pivot = parse_u32(&mut it, "EXEC pivot")?;
            let epoch = parse_u32(&mut it, "EXEC epoch")?;
            if it.next().is_some() {
                return Err(err("EXEC takes exactly <name> <pivot> <epoch>"));
            }
            Request::Exec {
                name: name.to_string(),
                pivot,
                epoch,
            }
        }
        "PING" => Request::Ping,
        "QUIT" => Request::Quit,
        other => return Err(err(format!("unknown command {other:?}"))),
    };
    Ok(Some(request))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coord::{exec_line, prepare_line};
    use ceci_distributed::PlanSpec;
    use ceci_graph::{vid, VertexId};
    use ceci_query::{OrderConstraint, QueryGraph};
    use proptest::prelude::*;

    #[test]
    fn parses_load() {
        assert_eq!(
            parse_request("LOAD social /data/s.graph").unwrap(),
            Some(Request::Load {
                name: "social".into(),
                path: "/data/s.graph".into(),
                edge_list: false,
                directed: false,
            })
        );
        assert_eq!(
            parse_request("load g p edgelist directed").unwrap(),
            Some(Request::Load {
                name: "g".into(),
                path: "p".into(),
                edge_list: true,
                directed: true,
            })
        );
        assert!(parse_request("LOAD onlyname").is_err());
        assert!(parse_request("LOAD g p BOGUS").is_err());
    }

    #[test]
    fn parses_match_with_options() {
        assert_eq!(
            parse_request("MATCH g q.graph LIMIT 100 DEADLINE 50 WORKERS 2").unwrap(),
            Some(Request::Match {
                graph: "g".into(),
                query_path: "q.graph".into(),
                form: MatchForm {
                    limit: Some(100),
                    deadline_ms: Some(50),
                    workers: Some(2),
                    ..MatchForm::default()
                },
            })
        );
        assert_eq!(
            parse_request("match g q").unwrap(),
            Some(Request::Match {
                graph: "g".into(),
                query_path: "q".into(),
                form: MatchForm::default(),
            })
        );
        assert_eq!(
            parse_request("MATCH g q RAW").unwrap(),
            Some(Request::Match {
                graph: "g".into(),
                query_path: "q".into(),
                form: MatchForm {
                    raw: true,
                    ..MatchForm::default()
                },
            })
        );
        // No modifier opts a deadline out of its interval.
        assert!(parse_request("MATCH g q DEADLINE 10 EXACT").is_err());
        assert!(parse_request("MATCH g q LIMIT").is_err());
        assert!(parse_request("MATCH g q LIMIT abc").is_err());
        assert!(parse_request("MATCH g q WORKERS 0").is_err());
        assert!(parse_request("MATCH g").is_err());
    }

    /// `WORKERS` and `RADIUS` are `usize`s: the largest one the host holds
    /// parses, one more is a typed parse error, never a truncation.
    #[test]
    fn usize_fields_refuse_what_the_host_cannot_hold() {
        let (max, past) = (usize::MAX, usize::MAX as u128 + 1);
        let workers = |value: &str| parse_request(&format!("MATCH g q WORKERS {value}"));
        let radius =
            |value: &str| parse_request(&format!("PREPARE h q ROOT 0 ORDER 0 RADIUS {value}"));
        match workers(&max.to_string()) {
            Ok(Some(Request::Match { form, .. })) => assert_eq!(form.workers, Some(max)),
            other => panic!("WORKERS {max}: {other:?}"),
        }
        match radius(&max.to_string()) {
            Ok(Some(Request::Prepare { radius, .. })) => assert_eq!(radius, max),
            other => panic!("RADIUS {max}: {other:?}"),
        }
        let past = past.to_string();
        assert_eq!(workers(&past), Err(err("invalid WORKERS value")));
        assert_eq!(radius(&past), Err(err("invalid RADIUS value")));
    }

    #[test]
    fn parses_estimate() {
        assert_eq!(
            parse_request("ESTIMATE g q.graph").unwrap(),
            Some(Request::Estimate {
                graph: "g".into(),
                query_path: "q.graph".into(),
                walks: None,
            })
        );
        assert_eq!(
            parse_request("estimate g q walks 500").unwrap(),
            Some(Request::Estimate {
                graph: "g".into(),
                query_path: "q".into(),
                walks: Some(500),
            })
        );
        assert!(parse_request("ESTIMATE g").is_err());
        assert!(parse_request("ESTIMATE g q WALKS").is_err());
        assert!(parse_request("ESTIMATE g q WALKS 0").is_err());
        assert!(parse_request("ESTIMATE g q BOGUS").is_err());
        // The walk budget is capped: one request holds one worker.
        assert_eq!(
            parse_request(&format!("ESTIMATE g q WALKS {MAX_WALKS}")).unwrap(),
            Some(Request::Estimate {
                graph: "g".into(),
                query_path: "q".into(),
                walks: Some(MAX_WALKS),
            })
        );
        assert_eq!(
            parse_request(&format!("ESTIMATE g q WALKS {}", MAX_WALKS + 1)),
            Err(err(format!("WALKS must be in 1..={MAX_WALKS}")))
        );
    }

    #[test]
    fn parses_simple_commands() {
        assert_eq!(
            parse_request("STATS").unwrap(),
            Some(Request::Stats { prom: false })
        );
        assert_eq!(
            parse_request("stats prom").unwrap(),
            Some(Request::Stats { prom: true })
        );
        assert!(parse_request("STATS BOGUS").is_err());
        assert_eq!(parse_request("ping").unwrap(), Some(Request::Ping));
        assert_eq!(parse_request("QUIT").unwrap(), Some(Request::Quit));
        assert!(parse_request("SLEEP 25").is_err(), "no SLEEP verb");
        assert_eq!(
            parse_request("EXPLAIN g q").unwrap(),
            Some(Request::Explain {
                graph: "g".into(),
                query_path: "q".into(),
                analyze: false,
            })
        );
        assert_eq!(
            parse_request("explain g q analyze").unwrap(),
            Some(Request::Explain {
                graph: "g".into(),
                query_path: "q".into(),
                analyze: true,
            })
        );
        assert!(parse_request("EXPLAIN g q VERBOSE").is_err());
    }

    #[test]
    fn blank_and_comment_lines_skip() {
        assert_eq!(parse_request("").unwrap(), None);
        assert_eq!(parse_request("   ").unwrap(), None);
        assert_eq!(parse_request("# note").unwrap(), None);
    }

    #[test]
    fn unknown_command_errors() {
        let e = parse_request("FROB x").unwrap_err();
        assert!(e.to_string().contains("FROB"));
    }

    /// `status=` has one spelling, `OK`, so nothing on a `MATCH` line
    /// selects another: `EXACT` is an unknown option, answered `E_PARSE`.
    #[test]
    fn status_spelling() {
        let e = parse_request("MATCH g q DEADLINE 10 EXACT").unwrap_err();
        assert_eq!(e.to_string(), "unknown MATCH option \"EXACT\"");
        assert_eq!(ErrorCode::Parse.as_str(), "E_PARSE");
    }

    #[test]
    fn parses_chaos_commands() {
        assert_eq!(
            parse_request("CHAOS PANIC").unwrap(),
            Some(Request::Chaos {
                command: ChaosCommand::Panic
            })
        );
        assert_eq!(
            parse_request("chaos buildpanic").unwrap(),
            Some(Request::Chaos {
                command: ChaosCommand::BuildPanic
            })
        );
        assert_eq!(
            parse_request("CHAOS DELAY 40").unwrap(),
            Some(Request::Chaos {
                command: ChaosCommand::Delay { ms: 40 }
            })
        );
        assert_eq!(
            parse_request("chaos builddelay 250").unwrap(),
            Some(Request::Chaos {
                command: ChaosCommand::BuildDelay { ms: 250 }
            })
        );
        assert!(parse_request("CHAOS").is_err());
        assert!(parse_request("CHAOS DELAY").is_err());
        assert!(parse_request("CHAOS BUILDDELAY").is_err());
        assert!(parse_request("CHAOS FLOOD").is_err());
    }

    #[test]
    fn parses_process_chaos_commands() {
        assert_eq!(
            parse_request("CHAOS EXIT").unwrap(),
            Some(Request::Chaos {
                command: ChaosCommand::Exit { after_ms: 0 }
            })
        );
        assert_eq!(
            parse_request("chaos exit 150").unwrap(),
            Some(Request::Chaos {
                command: ChaosCommand::Exit { after_ms: 150 }
            })
        );
        assert_eq!(
            parse_request("CHAOS STALL 300").unwrap(),
            Some(Request::Chaos {
                command: ChaosCommand::Stall { ms: 300 }
            })
        );
        assert_eq!(
            parse_request("chaos stall 0").unwrap(),
            Some(Request::Chaos {
                command: ChaosCommand::Stall { ms: 0 }
            })
        );
        assert!(parse_request("CHAOS EXIT soon").is_err());
        assert!(parse_request("CHAOS STALL").is_err());
        assert!(parse_request("CHAOS STALL forever").is_err());
    }

    #[test]
    fn parses_shard_plane_verbs() {
        assert_eq!(
            parse_request("PREPARE q /tmp/q.graph ROOT 2 ORDER 2,0,1,3 RADIUS 3").unwrap(),
            Some(Request::Prepare {
                name: "q".into(),
                query_path: "/tmp/q.graph".into(),
                root: 2,
                order: vec![2, 0, 1, 3],
                radius: 3,
                sym: vec![],
                sym_complete: false,
            })
        );
        assert_eq!(
            parse_request("prepare q q.g root 0 order 0,1 radius 1 sym 0:1,1:2 symcomplete")
                .unwrap(),
            Some(Request::Prepare {
                name: "q".into(),
                query_path: "q.g".into(),
                root: 0,
                order: vec![0, 1],
                radius: 1,
                sym: vec![(0, 1), (1, 2)],
                sym_complete: true,
            })
        );
        assert_eq!(
            parse_request("EXEC q 42 7").unwrap(),
            Some(Request::Exec {
                name: "q".into(),
                pivot: 42,
                epoch: 7,
            })
        );
        assert!(parse_request("PREPARE q").is_err());
        assert!(
            parse_request("PREPARE q p ORDER 0,1 RADIUS 1").is_err(),
            "no ROOT"
        );
        assert!(
            parse_request("PREPARE q p ROOT 0 RADIUS 1").is_err(),
            "no ORDER"
        );
        assert!(
            parse_request("PREPARE q p ROOT 0 ORDER 0,1").is_err(),
            "no RADIUS"
        );
        assert!(parse_request("PREPARE q p ROOT 0 ORDER a,b RADIUS 1").is_err());
        assert!(parse_request("PREPARE q p ROOT 0 ORDER 0 RADIUS 1 SYM 0-1").is_err());
        assert!(parse_request("EXEC q 42").is_err());
        assert!(parse_request("EXEC q 42 7 9").is_err());
        assert!(parse_request("EXEC q x y").is_err());
    }

    #[test]
    fn parses_mutation_verbs() {
        assert_eq!(
            parse_request("ADDEDGE g 3 7").unwrap(),
            Some(Request::Mutate {
                graph: "g".into(),
                adds: vec![(3, 7)],
                dels: vec![],
            })
        );
        assert_eq!(
            parse_request("deledge g 0 1").unwrap(),
            Some(Request::Mutate {
                graph: "g".into(),
                adds: vec![],
                dels: vec![(0, 1)],
            })
        );
        assert_eq!(
            parse_request("BATCH g +1:2 -3:4 +5:6").unwrap(),
            Some(Request::Mutate {
                graph: "g".into(),
                adds: vec![(1, 2), (5, 6)],
                dels: vec![(3, 4)],
            })
        );
        assert_eq!(
            parse_request("batch g file /tmp/edges.txt").unwrap(),
            Some(Request::BatchFile {
                graph: "g".into(),
                path: "/tmp/edges.txt".into(),
            })
        );
        assert!(parse_request("ADDEDGE g 1").is_err());
        assert!(parse_request("ADDEDGE g 1 2 3").is_err());
        assert!(parse_request("ADDEDGE g a b").is_err());
        assert!(parse_request("BATCH g").is_err());
        assert!(parse_request("BATCH g 1:2").is_err(), "missing +/- sign");
        assert!(parse_request("BATCH g +1-2").is_err(), "missing colon");
        assert!(parse_request("BATCH g FILE").is_err());
    }

    #[test]
    fn parses_continuous_query_verbs() {
        assert_eq!(
            parse_request("REGISTER cq1 g q.graph").unwrap(),
            Some(Request::Register {
                name: "cq1".into(),
                graph: "g".into(),
                query_path: "q.graph".into(),
            })
        );
        assert_eq!(
            parse_request("unregister cq1").unwrap(),
            Some(Request::Unregister { name: "cq1".into() })
        );
        assert!(parse_request("REGISTER cq1 g").is_err());
        assert!(parse_request("REGISTER cq1 g q extra").is_err());
        assert!(parse_request("UNREGISTER").is_err());
        assert!(parse_request("UNREGISTER a b").is_err());
    }

    #[test]
    fn error_codes_format_err_lines() {
        assert_eq!(ErrorCode::WorkerDropped.as_str(), "E_WORKER_DROPPED");
        assert_eq!(
            ErrorCode::Quarantined.line("index build previously panicked"),
            "ERR E_QUARANTINED index build previously panicked"
        );
        // Every code spells as a single E_* token (clients split on space).
        for code in [
            ErrorCode::Parse,
            ErrorCode::UnknownGraph,
            ErrorCode::Query,
            ErrorCode::Load,
            ErrorCode::WorkerDropped,
            ErrorCode::BuildPanic,
            ErrorCode::Quarantined,
            ErrorCode::ChaosDisabled,
            ErrorCode::Mutation,
            ErrorCode::Register,
            ErrorCode::Timeout,
            ErrorCode::Shard,
        ] {
            assert!(code.as_str().starts_with("E_"));
            assert!(!code.as_str().contains(' '));
        }
        assert_eq!(ErrorCode::Timeout.as_str(), "E_TIMEOUT");
        assert_eq!(ErrorCode::Shard.as_str(), "E_SHARD");
    }
    /// Words the grammar gives a meaning to somewhere.
    const WORDS: [&str; 38] = [
        "LOAD",
        "EDGELIST",
        "DIRECTED",
        "MATCH",
        "LIMIT",
        "DEADLINE",
        "WORKERS",
        "RAW",
        "ESTIMATE",
        "WALKS",
        "EXPLAIN",
        "ANALYZE",
        "STATS",
        "PROM",
        "CHAOS",
        "PANIC",
        "BUILDPANIC",
        "BUILDDELAY",
        "DELAY",
        "EXIT",
        "STALL",
        "ADDEDGE",
        "DELEDGE",
        "BATCH",
        "FILE",
        "REGISTER",
        "UNREGISTER",
        "PREPARE",
        "ROOT",
        "RADIUS",
        "ORDER",
        "SYM",
        "SYMCOMPLETE",
        "EXEC",
        "PING",
        "QUIT",
        "#",
        "g",
    ];

    fn lossy(bytes: Vec<u8>) -> String {
        String::from_utf8_lossy(&bytes).into_owned()
    }

    /// One token of a soup: a grammar word (either case), a number of any
    /// size, an edge or pair or list token, or noise.
    fn token() -> impl Strategy<Value = String> {
        let id = || 0u64..=u32::MAX as u64 + 2;
        prop_oneof![
            (0..WORDS.len(), any::<bool>()).prop_map(|(i, lower)| match lower {
                true => WORDS[i].to_ascii_lowercase(),
                false => WORDS[i].to_string(),
            }),
            any::<u64>().prop_map(|n| n.to_string()),
            (0u8..4, id(), id()).prop_map(|(sign, u, v)| match sign {
                0 => format!("+{u}:{v}"),
                1 => format!("-{u}:{v}"),
                2 => format!("{u}:{v}"),
                _ => format!("{u},{v}"),
            }),
            collection::vec(0u8..=255, 0..6).prop_map(lossy),
        ]
    }

    /// An arbitrary coordinator decision over a path query of `n` vertices:
    /// any permutation as the order (the wire does not care about tree
    /// precedence), any in-range pairs, any radius.
    fn plan_spec() -> impl Strategy<Value = PlanSpec> {
        let parts = (2usize..8).prop_flat_map(|n| {
            let pair = (0..n as u32, 0..n as u32);
            let keys = collection::vec(any::<u64>(), n..n + 1);
            let sym = collection::vec(pair, 0..4);
            (keys, sym, 0usize..12, any::<bool>())
        });
        parts.prop_map(|(keys, sym, radius, sym_complete)| {
            let n = keys.len() as u32;
            let edges: Vec<_> = (1..n).map(|v| (vid(v - 1), vid(v))).collect();
            let path = ceci_graph::Graph::unlabeled(n as usize, &edges);
            let mut order: Vec<_> = (0..n).map(vid).collect();
            order.sort_by_key(|u| keys[u.index()]);
            let constraint = |(a, b)| OrderConstraint {
                smaller: vid(a),
                larger: vid(b),
            };
            PlanSpec {
                query: QueryGraph::from_graph(&path).expect("a path is a query"),
                root: order[0],
                order,
                sym: sym.into_iter().map(constraint).collect(),
                sym_complete,
                radius,
            }
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// No line panics the parser; only blanks and comments are skipped.
        #[test]
        fn arbitrary_lines_never_panic_the_parser(
            bytes in collection::vec(0u8..=255, 0..64),
            soup in collection::vec(token(), 0..10),
        ) {
            for line in [lossy(bytes), soup.join(" ")] {
                let skipped = line.trim().is_empty() || line.trim().starts_with('#');
                match parse_request(&line) {
                    Ok(parsed) => prop_assert_eq!(parsed.is_none(), skipped, "{:?}", line),
                    Err(e) => prop_assert!(!skipped && !e.0.is_empty(), "{:?}", line),
                }
            }
        }

        /// What the coordinator formats is what the shard parses.
        #[test]
        fn shard_plane_lines_round_trip(
            spec in plan_spec(),
            pivot in any::<u32>(),
            epoch in any::<u32>(),
            wide in u32::MAX as u64 + 1..=u64::MAX,
        ) {
            let ids = |vs: &[VertexId]| vs.iter().map(|u| u.0).collect::<Vec<u32>>();
            let want = Request::Prepare {
                name: "h".into(),
                query_path: "/tmp/q.graph".into(),
                root: spec.root.0,
                order: ids(&spec.order),
                radius: spec.radius,
                sym: spec.sym.iter().map(|c| (c.smaller.0, c.larger.0)).collect(),
                sym_complete: spec.sym_complete,
            };
            let line = prepare_line("h", "/tmp/q.graph", &spec);
            prop_assert_eq!(parse_request(&line).unwrap(), Some(want), "{}", line);
            let want = Request::Exec { name: "h".into(), pivot, epoch };
            let line = exec_line("h", vid(pivot), epoch);
            prop_assert_eq!(parse_request(&line).unwrap(), Some(want), "{}", line);
            // A 32-bit field never wraps a wider value into range.
            for line in [format!("EXEC h {wide} 0"), format!("EXEC h 0 {wide}")] {
                prop_assert!(parse_request(&line).is_err(), "{}", line);
            }
        }
    }
}
