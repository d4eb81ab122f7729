//! The served run: a real `ceci-serve` process with every default on,
//! driven over loopback TCP through the text protocol only.
//!
//! A run is, several times over: set-up from nothing (timed) → measured
//! passes over the same fixed request sequence until that server's share
//! of the time budget is used. Every
//! response is checked against the benchmark's own oracle, and every
//! `MATCH` must report the path (`cache=` / `filter=`) its workload's
//! regime requires.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Barrier;
use std::time::Instant;

use crate::gen::{self, Graph};
use crate::matcher;
use crate::wire::{self, Conn, MatchReply, Server, Terminal};
use crate::workload::{self, Inputs, Op, Reset};

pub struct Config {
    pub serve_bin: PathBuf,
    /// Absolute directory this run writes its input files into.
    pub dir: PathBuf,
    /// Wall time of set-ups and measured passes together, shared out evenly
    /// over the run's servers; every server measures at least one pass.
    pub seconds: f64,
    /// A smoke run: one set-up, one measured pass, whatever `seconds` says.
    pub smoke: bool,
}

/// One measured pass.
#[derive(Clone, Debug, Default)]
pub struct Pass {
    pub wall_s: f64,
    pub attempted: u64,
    pub ok: u64,
    /// Client-observed round trip of every answered request, in plan order
    /// (connection by connection): one per planned op when none failed,
    /// which holds for every pass a run keeps.
    pub rtt_ms: Vec<f64>,
    /// Client-observed `MATCH` latencies.
    pub match_ms: Vec<f64>,
    pub ping_us: Vec<f64>,
    /// Per `MATCH`: round trip minus the server's own `total_us`.
    pub overhead_us: Vec<f64>,
    /// Per `MATCH`: `total_us − build_us − enum_us`.
    pub other_us: Vec<f64>,
    pub sum_rtt_us: f64,
    pub sum_build_us: u64,
    pub sum_enum_us: u64,
    pub sum_total_us: u64,
    /// `stream-rw`: `BATCH` ack latencies.
    pub batch_ms: Vec<f64>,
    /// `stream-rw`: `BATCH` sent → second repaired `MATCH` answered.
    pub fresh_ms: Vec<f64>,
    /// Server counters: after the pass minus before it.
    pub delta: BTreeMap<String, f64>,
    /// Server gauges right after the pass.
    pub after: BTreeMap<String, f64>,
    /// Per (template, path): how many `MATCH`es and their summed `total_us`.
    pub by_path: BTreeMap<(usize, wire::Path), (u64, u64)>,
}

/// Everything the served run found.
pub struct Served {
    pub inputs: Inputs,
    pub checksum: u64,
    /// Per set-up, the seconds each of its steps took (the same steps in
    /// the same order every time: see [`set_up`]).
    pub setup_steps_s: Vec<Vec<f64>>,
    pub load_ms: Vec<f64>,
    pub passes: Vec<Pass>,
    /// Requests sent in the passes, and how many of them failed (transport error, `ERR`, `BUSY`, wrong count, wrong
    /// path, wrong `EVENT` total).
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, verbatim.
    pub problems: Vec<String>,
    pub peak_rss_mb: f64,
    /// Oracle count of each template on the loaded graph.
    pub expected: Vec<u64>,
    /// Wall time the harness's own oracle took.
    pub oracle_ms: f64,
}

const MAX_PROBLEMS: usize = 8;

struct Live {
    server: Server,
    control: Conn,
    clients: Vec<Conn>,
    /// `stream-rw`: the idle connection holding both registrations.
    subscriber: Option<Conn>,
}

/// Request lines, built once per run directory.
struct Lines {
    load: String,
    registers: Vec<String>,
    /// `MATCH g <file>` per template.
    matches: Vec<String>,
    /// One line per planned op, per connection.
    plan: Vec<Vec<String>>,
}

impl Lines {
    fn new(dir: &Path, inputs: &Inputs) -> Lines {
        let file = |name: &str| dir.join(name).display().to_string();
        let matches: Vec<String> = (0..inputs.templates.len())
            .map(|i| format!("MATCH g {}", file(&workload::template_file(i))))
            .collect();
        let plan = inputs
            .plan
            .iter()
            .map(|ops| {
                ops.iter()
                    .map(|op| match *op {
                        Op::Ping => "PING".to_string(),
                        Op::Match {
                            template, limit1, ..
                        } => {
                            let limit = if limit1 { " LIMIT 1" } else { "" };
                            format!("{}{limit}", matches[template])
                        }
                        Op::Batch(i) => gen::batch_line("g", &inputs.batches[i]),
                    })
                    .collect()
            })
            .collect();
        Lines {
            load: format!("LOAD g {}", file(workload::GRAPH_FILE)),
            registers: inputs
                .templates
                .iter()
                .enumerate()
                .map(|(i, t)| {
                    format!(
                        "REGISTER {} g {}",
                        t.name,
                        file(&workload::template_file(i))
                    )
                })
                .collect(),
            matches,
            plan,
        }
    }
}

/// Oracle counts: per template on the loaded graph, and — for `stream-rw`
/// — per template after each batch.
struct Oracle {
    initial: Vec<u64>,
    after_batch: Vec<Vec<u64>>,
    final_graph: Graph,
}

fn oracle(inputs: &Inputs) -> Oracle {
    let count_all = |g: &Graph| -> Vec<u64> {
        let adj = g.adjacency();
        inputs
            .templates
            .iter()
            .map(|t| matcher::count_embeddings(&g.labels, &adj, &t.graph))
            .collect()
    };
    let initial = count_all(&inputs.graph);
    let mut graph = inputs.graph.clone();
    let mut after_batch = Vec::with_capacity(inputs.batches.len());
    for batch in &inputs.batches {
        graph = gen::apply_batch(&graph, batch);
        after_batch.push(count_all(&graph));
    }
    Oracle {
        initial,
        after_batch,
        final_graph: graph,
    }
}

/// The count each planned `MATCH` must return.
fn expected_counts(inputs: &Inputs, oracle: &Oracle) -> Vec<Vec<Option<u64>>> {
    inputs
        .plan
        .iter()
        .map(|ops| {
            let mut counts = &oracle.initial;
            ops.iter()
                .map(|op| match *op {
                    Op::Batch(i) => {
                        counts = &oracle.after_batch[i];
                        None
                    }
                    Op::Match {
                        template, limit1, ..
                    } => Some(if limit1 {
                        counts[template].min(1)
                    } else {
                        counts[template]
                    }),
                    Op::Ping => None,
                })
                .collect()
        })
        .collect()
}

fn ok(conn: &mut Conn, line: &str) -> Result<wire::Reply, String> {
    let brief = || line.chars().take(60).collect::<String>();
    let reply = conn
        .request(line)
        .map_err(|e| format!("{}: transport error: {e}", brief()))?;
    if reply.terminal != Terminal::Ok {
        return Err(format!("{}: {}", brief(), reply.line));
    }
    Ok(reply)
}

fn match_count(conn: &mut Conn, line: &str) -> Result<MatchReply, String> {
    let reply = ok(conn, line)?;
    wire::parse_match(&reply.line).ok_or_else(|| format!("unexpected MATCH reply: {}", reply.line))
}

fn stats(conn: &mut Conn) -> Result<BTreeMap<String, f64>, String> {
    Ok(wire::parse_stats(&ok(conn, "STATS PROM")?.payload))
}

/// Loads the graph and, for `stream-rw`, registers both templates and
/// warms their cached indexes. Returns the `LOAD` round trip in ms.
fn load_and_register(
    live: &mut Live,
    inputs: &Inputs,
    lines: &Lines,
    expected: &[u64],
) -> Result<f64, String> {
    let (reply, load_ms) = wire::timed_ms(|| ok(&mut live.control, &lines.load));
    let reply = reply?;
    let (n, m) = (inputs.graph.n() as u64, inputs.graph.edges.len() as u64);
    if wire::field_u64(&reply.line, "vertices") != Some(n)
        || wire::field_u64(&reply.line, "edges") != Some(m)
    {
        return Err(format!(
            "LOAD reported other sizes than |V|={n} |E|={m}: {}",
            reply.line
        ));
    }
    if let Some(subscriber) = live.subscriber.as_mut() {
        for (t, line) in lines.registers.iter().enumerate() {
            let reply = ok(subscriber, line)?;
            if wire::field_u64(&reply.line, "total") != Some(expected[t]) {
                return Err(format!(
                    "REGISTER total != oracle {}: {}",
                    expected[t], reply.line
                ));
            }
        }
    }
    Ok(load_ms)
}

/// A system set up from nothing, and what that took.
struct SetUp {
    live: Live,
    /// Seconds per step: writing the input files, spawning the server and
    /// connecting, `LOAD` (and `REGISTER`s), then one step per request.
    steps_s: Vec<f64>,
    load_ms: f64,
    checksum: u64,
}

/// Sets the system up from nothing: write the inputs, spawn, connect,
/// `LOAD` (/`REGISTER`), take each template's `RAW` count, and touch every
/// template once on every client connection so caches and frontiers are
/// filled. Every step is timed on its own.
fn set_up(cfg: &Config, inputs: &Inputs, lines: &Lines, oracle: &Oracle) -> Result<SetUp, String> {
    let mut steps_s = Vec::new();
    let mut lap = Instant::now();
    let mut step_done = |steps_s: &mut Vec<f64>| {
        steps_s.push(lap.elapsed().as_secs_f64());
        lap = Instant::now();
    };

    let checksum =
        workload::write_inputs(&cfg.dir, inputs).map_err(|e| format!("write inputs: {e}"))?;
    step_done(&mut steps_s);

    let server = Server::spawn(&cfg.serve_bin).map_err(|e| format!("spawn ceci-serve: {e}"))?;
    let connect = || Conn::connect(&server.addr).map_err(|e| format!("connect: {e}"));
    let control = connect()?;
    let clients = (0..inputs.plan.len())
        .map(|_| connect())
        .collect::<Result<_, _>>()?;
    let subscriber = (inputs.reset == Reset::ReloadRegisterWarm)
        .then(connect)
        .transpose()?;
    let mut live = Live {
        server,
        control,
        clients,
        subscriber,
    };
    step_done(&mut steps_s);

    let load_ms = load_and_register(&mut live, inputs, lines, &oracle.initial)?;
    step_done(&mut steps_s);

    for (t, line) in lines.matches.iter().enumerate() {
        let raw = match_count(&mut live.control, &format!("{line} RAW"))?;
        if raw.count != oracle.initial[t] {
            return Err(format!(
                "template {}: RAW count {} != oracle {}",
                inputs.templates[t].name, raw.count, oracle.initial[t]
            ));
        }
        step_done(&mut steps_s);
    }
    for client in &mut live.clients {
        for line in &lines.matches {
            match_count(client, line)?;
            step_done(&mut steps_s);
        }
    }
    Ok(SetUp {
        live,
        steps_s,
        load_ms,
        checksum,
    })
}

/// The untimed work between passes that puts the server back where the
/// pass expects to find it.
fn reset(live: &mut Live, inputs: &Inputs, lines: &Lines, oracle: &Oracle) -> Result<(), String> {
    match inputs.reset {
        Reset::None => Ok(()),
        Reset::Reload => load_and_register(live, inputs, lines, &oracle.initial).map(drop),
        Reset::ReloadRegisterWarm => {
            load_and_register(live, inputs, lines, &oracle.initial)?;
            for line in &lines.matches {
                match_count(&mut live.clients[0], line)?;
            }
            Ok(())
        }
    }
}

struct Sample {
    start_ns: u64,
    end_ns: u64,
    /// `Ok(Some(_))` for a `MATCH`, `Ok(None)` for other verbs.
    outcome: Result<Option<MatchReply>, String>,
}

/// Sends one connection's share of a pass, closed loop.
fn drive(
    conn: &mut Conn,
    ops: &[Op],
    lines: &[String],
    expect: &[Option<u64>],
    batch_sizes: &[usize],
    epoch: Instant,
) -> Vec<Sample> {
    let mut samples = Vec::with_capacity(ops.len());
    let mut broken: Option<String> = None;
    for ((op, line), expect) in ops.iter().zip(lines).zip(expect) {
        if let Some(why) = &broken {
            samples.push(Sample {
                start_ns: 0,
                end_ns: 0,
                outcome: Err(format!("not sent after {why}")),
            });
            continue;
        }
        let start_ns = epoch.elapsed().as_nanos() as u64;
        let reply = conn.request(line);
        let end_ns = epoch.elapsed().as_nanos() as u64;
        let outcome = match reply {
            Err(e) => {
                broken = Some(format!("transport error: {e}"));
                Err(broken.clone().unwrap())
            }
            Ok(reply) if reply.terminal != Terminal::Ok => Err(reply.line),
            Ok(reply) => match *op {
                Op::Ping if reply.line == "OK PONG" => Ok(None),
                Op::Batch(i)
                    if wire::field_u64(&reply.line, "added").unwrap_or(0)
                        + wire::field_u64(&reply.line, "deleted").unwrap_or(0)
                        == batch_sizes[i] as u64 =>
                {
                    Ok(None)
                }
                Op::Match { expect: regime, .. } => match wire::parse_match(&reply.line) {
                    Some(m) if !regime.allows(m.path) => {
                        Err(format!("regime wants {regime:?}: {}", reply.line))
                    }
                    Some(m) if Some(m.count) != *expect => {
                        Err(format!("oracle count {expect:?}: {}", reply.line))
                    }
                    Some(m) => Ok(Some(m)),
                    None => Err(format!("unexpected reply: {}", reply.line)),
                },
                _ => Err(format!("unexpected reply: {}", reply.line)),
            },
        };
        samples.push(Sample {
            start_ns,
            end_ns,
            outcome,
        });
    }
    samples
}

/// Runs one pass on all client connections at once and folds the samples.
fn run_pass(
    live: &mut Live,
    inputs: &Inputs,
    lines: &Lines,
    expect: &[Vec<Option<u64>>],
    oracle: &Oracle,
    problems: &mut Vec<String>,
) -> Result<Pass, String> {
    let batch_sizes: Vec<usize> = inputs.batches.iter().map(Vec::len).collect();
    let before = stats(&mut live.control)?;
    let barrier = Barrier::new(live.clients.len());
    let epoch = Instant::now();
    let per_conn: Vec<Vec<Sample>> = std::thread::scope(|scope| {
        let handles: Vec<_> = live
            .clients
            .iter_mut()
            .enumerate()
            .map(|(c, conn)| {
                let (barrier, batch_sizes) = (&barrier, &batch_sizes);
                scope.spawn(move || {
                    barrier.wait();
                    drive(
                        conn,
                        &inputs.plan[c],
                        &lines.plan[c],
                        &expect[c],
                        batch_sizes,
                        epoch,
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let after = stats(&mut live.control)?;

    let mut pass = Pass::default();
    let mut problem = |why: String| {
        if problems.len() < MAX_PROBLEMS {
            problems.push(why);
        }
    };
    let sent = per_conn.iter().flatten().filter(|s| s.end_ns > 0);
    let first = sent.clone().map(|s| s.start_ns).min().unwrap_or(0);
    let last = sent.map(|s| s.end_ns).max().unwrap_or(0);
    pass.wall_s = (last - first) as f64 / 1e9;
    for (c, samples) in per_conn.iter().enumerate() {
        for (i, (sample, op)) in samples.iter().zip(&inputs.plan[c]).enumerate() {
            pass.attempted += 1;
            let rtt_us = (sample.end_ns - sample.start_ns) as f64 / 1e3;
            let reply = match &sample.outcome {
                Err(why) => {
                    problem(format!("{op:?}: {why}"));
                    continue;
                }
                Ok(reply) => reply,
            };
            pass.ok += 1;
            pass.rtt_ms.push(rtt_us / 1e3);
            match (*op, reply) {
                (Op::Ping, _) => pass.ping_us.push(rtt_us),
                (Op::Batch(_), _) => {
                    pass.batch_ms.push(rtt_us / 1e3);
                    // BATCH, then the two repaired reads that follow it.
                    if let Some(done) = samples.get(i + 2).filter(|s| s.outcome.is_ok()) {
                        pass.fresh_ms
                            .push((done.end_ns - sample.start_ns) as f64 / 1e6);
                    }
                }
                (Op::Match { template, .. }, Some(m)) => {
                    pass.match_ms.push(rtt_us / 1e3);
                    pass.overhead_us.push(rtt_us - m.total_us as f64);
                    pass.other_us
                        .push(m.total_us.saturating_sub(m.build_us + m.enum_us) as f64);
                    pass.sum_rtt_us += rtt_us;
                    pass.sum_build_us += m.build_us;
                    pass.sum_enum_us += m.enum_us;
                    pass.sum_total_us += m.total_us;
                    let slot = pass.by_path.entry((template, m.path)).or_default();
                    slot.0 += 1;
                    slot.1 += m.total_us;
                }
                (Op::Match { .. }, None) => unreachable!("drive keeps the MATCH reply"),
            }
        }
    }

    // Each applied batch pushed one EVENT per registration; its total must
    // be the count the following MATCH returned (and the oracle's).
    if let Some(subscriber) = live
        .subscriber
        .as_mut()
        .filter(|_| pass.ok == pass.attempted)
    {
        for counts in &oracle.after_batch {
            for _ in &inputs.templates {
                let line = subscriber
                    .read_line()
                    .map_err(|e| format!("reading EVENT: {e}"))?;
                let good = wire::parse_event(&line).is_some_and(|(query, total)| {
                    inputs
                        .templates
                        .iter()
                        .position(|t| t.name == query)
                        .is_some_and(|t| counts[t] == total)
                });
                if !good {
                    pass.ok = pass.ok.saturating_sub(1);
                    problem(format!("EVENT total != oracle {counts:?}: {line}"));
                }
            }
        }
    }

    for (key, value) in &after {
        pass.delta
            .insert(key.clone(), value - before.get(key).copied().unwrap_or(0.0));
    }
    pass.after = after;
    Ok(pass)
}

/// `stream-rw`'s closing check: the harness's own copy of the final edge
/// set, loaded under a second name, must match the live mutated graph on
/// both templates.
fn check_final_graph(
    live: &mut Live,
    cfg: &Config,
    inputs: &Inputs,
    oracle: &Oracle,
) -> Result<(), String> {
    let path = cfg.dir.join("final.txt");
    std::fs::write(&path, oracle.final_graph.to_text()).map_err(|e| format!("write final: {e}"))?;
    ok(&mut live.control, &format!("LOAD final {}", path.display()))?;
    for (t, template) in inputs.templates.iter().enumerate() {
        let file = cfg.dir.join(workload::template_file(t));
        let live_count = match_count(&mut live.control, &format!("MATCH g {}", file.display()))?;
        let copy_count = match_count(
            &mut live.control,
            &format!("MATCH final {}", file.display()),
        )?;
        if live_count.count != copy_count.count {
            return Err(format!(
                "template {}: live graph counts {} but the harness's copy of the final edge set counts {}",
                template.name, live_count.count, copy_count.count
            ));
        }
    }
    Ok(())
}

/// Runs one workload end to end. `Err` means the run could not be carried
/// out at all (no server, set-up mismatch, not one pass without a failure);
/// response-level failures after that are counted in [`Served::failed`].
/// No pass in [`Served::passes`] has a failure: the run stops at the first
/// failing one and does not keep it.
pub fn run(cfg: &Config, workload_name: &str, seed: u64) -> Result<Served, String> {
    let inputs = workload::generate(workload_name, seed);
    let (oracle, oracle_ms) = wire::timed_ms(|| oracle(&inputs));
    for (t, count) in inputs.templates.iter().zip(&oracle.initial) {
        if t.impossible && *count != 0 {
            return Err(format!(
                "template {} should be impossible but counts {count}",
                t.name
            ));
        }
    }
    let expect = expected_counts(&inputs, &oracle);

    // The run is shared out over several servers, each set up from nothing
    // (timed) and then measured until its share of the time budget is used: a run so samples several process
    // layouts and several stretches of host time.
    let servers = if cfg.smoke { 1 } else { inputs.setup_repeats };
    let share_s = cfg.seconds / servers as f64;
    let lines = Lines::new(&cfg.dir, &inputs);
    let (mut setup_steps_s, mut load_ms, mut passes) = (Vec::new(), Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (0, 0);
    let mut problems = Vec::new();
    let mut checksum = 0;
    let mut peak_rss_mb = 0.0f64;
    for server in 0..servers {
        let started = Instant::now();
        let up = set_up(cfg, &inputs, &lines, &oracle)?;
        let mut live = up.live;
        checksum = up.checksum;
        setup_steps_s.push(up.steps_s);
        load_ms.push(up.load_ms);

        // No pass is set aside as a warm-up: the quiet profile keeps, per
        // position, the quickest repeat, and a pass on a cold server is
        // never that, so setting one aside per server would only cost repeats.
        loop {
            reset(&mut live, &inputs, &lines, &oracle)?;
            let pass = run_pass(&mut live, &inputs, &lines, &expect, &oracle, &mut problems)?;
            attempted += pass.attempted;
            failed += pass.attempted - pass.ok;
            if failed > 0 {
                break;
            }
            passes.push(pass);
            if cfg.smoke || started.elapsed().as_secs_f64() >= share_s {
                break;
            }
        }
        if inputs.reset == Reset::ReloadRegisterWarm && failed == 0 && server + 1 == servers {
            if let Err(why) = check_final_graph(&mut live, cfg, &inputs, &oracle) {
                failed += 1;
                problems.push(why);
            }
        }
        peak_rss_mb = peak_rss_mb.max(
            live.server
                .peak_rss_mb()
                .ok_or("cannot read VmHWM of the server")?,
        );
        if failed > 0 {
            break;
        }
        // `live` drops here: the server is killed and reaped.
    }
    if passes.is_empty() {
        return Err(format!(
            "no measured pass completed without a failure: {}",
            problems.join("; ")
        ));
    }
    Ok(Served {
        inputs,
        checksum,
        setup_steps_s,
        load_ms,
        passes,
        attempted,
        failed,
        problems,
        peak_rss_mb,
        expected: oracle.initial,
        oracle_ms,
    })
}
