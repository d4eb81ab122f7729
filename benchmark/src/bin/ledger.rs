//! `ledger` — the perf ledger's entry point.
//!
//! ```text
//! ledger --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     one workload; the last stdout line is the run's JSON result
//!     (end-to-end metrics with --trace 0, per-layer metrics with --trace 1)
//! ledger [--seed <n>] [--seconds <s>] [--smoke] [--aa]
//!     all four workloads, every metric; --aa runs the set twice and
//!     compares; exits non-zero on any mismatch
//! ```
//!
//! This file and the library it uses call no `ceci-*` crate: the system is
//! reached through the `ceci-serve` binary and its text protocol only.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use ceci_ledger::json::{self, Metric};
use ceci_ledger::metrics::{self, Reported};
use ceci_ledger::served::{self, Served};
use ceci_ledger::{gen, wire, workload};

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    aa: bool,
    smoke: bool,
    serve_bin: PathBuf,
    layers_bin: Option<PathBuf>,
    out: PathBuf,
}

fn usage() -> ! {
    eprintln!(
        "usage: ledger --serve-bin PATH [--layers-bin PATH] --out DIR \
         [--workload NAME --trace 0|1] [--seed N] [--seconds S] [--smoke] [--aa]"
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 28.0,
        trace: false,
        aa: false,
        smoke: false,
        serve_bin: PathBuf::new(),
        layers_bin: None,
        out: PathBuf::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => args.workload = Some(value()),
            "--seed" => args.seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => args.seconds = value().parse().unwrap_or_else(|_| usage()),
            "--trace" => args.trace = value() == "1",
            "--aa" => args.aa = true,
            "--smoke" => args.smoke = true,
            "--serve-bin" => args.serve_bin = value().into(),
            "--layers-bin" => args.layers_bin = Some(value().into()),
            "--out" => args.out = value().into(),
            _ => usage(),
        }
    }
    if args.serve_bin.as_os_str().is_empty() || args.out.as_os_str().is_empty() {
        usage();
    }
    if let Some(w) = &args.workload {
        if !workload::NAMES.contains(&w.as_str()) {
            eprintln!("unknown workload {w:?}; known: {:?}", workload::NAMES);
            std::process::exit(2);
        }
    }
    args
}

/// The `[profile.release]` table of a manifest, as sorted `key = value`
/// rows.
fn release_profile(manifest: &Path) -> Result<Vec<String>, String> {
    let text =
        std::fs::read_to_string(manifest).map_err(|e| format!("{}: {e}", manifest.display()))?;
    let mut rows: Vec<String> = text
        .lines()
        .map(str::trim)
        .skip_while(|l| *l != "[profile.release]")
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| l.split_whitespace().collect::<Vec<_>>().join(" "))
        .collect();
    rows.sort();
    Ok(rows)
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn loadavg_1min() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split(' ').next()?.parse().ok())
        .unwrap_or(0.0)
}

/// CPUs this process may run on. Asked before pinning: the answer follows
/// the affinity mask.
fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

fn print_host_header(args: &Args, nproc: usize, pinned: Option<usize>) {
    let governor = std::fs::read_to_string("/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor")
        .map_or_else(|_| "unreadable".to_string(), |s| s.trim().to_string());
    println!(
        "# ledger seed={} commit={} rustc=\"{}\" nproc={} pinned_cpu={} governor={governor} loadavg_start={:.2}",
        args.seed,
        command_line("git", &["rev-parse", "--short", "HEAD"]),
        command_line("rustc", &["-V"]),
        nproc,
        pinned.map_or("none".to_string(), |c| c.to_string()),
        loadavg_1min(),
    );
}

fn warn_if_loaded(when: &str, nproc: usize) {
    let load = loadavg_1min();
    if load > nproc as f64 {
        eprintln!("warning: 1-min loadavg {load:.2} at {when} exceeds nproc {nproc}");
    }
}

/// What one workload run produced.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    end_to_end: Vec<Reported>,
    /// Empty unless the traced run was asked for.
    per_layer: Vec<Reported>,
}

/// Writes what `ledger-layers` replays beside the files of the served run:
/// each template's expected count and flags, and the batches.
fn write_layers_manifest(dir: &Path, served: &Served) -> std::io::Result<()> {
    let mut text = format!("graph {}\n", workload::GRAPH_FILE);
    for (i, (t, expected)) in served
        .inputs
        .templates
        .iter()
        .zip(&served.expected)
        .enumerate()
    {
        let limit1 = served.inputs.plan.iter().flatten().any(
            |op| matches!(op, workload::Op::Match { template, limit1: true, .. } if *template == i),
        );
        text.push_str(&format!(
            "template {} {expected} {} {}\n",
            workload::template_file(i),
            t.impossible as u8,
            limit1 as u8
        ));
    }
    for batch in &served.inputs.batches {
        text.push_str(&gen::batch_line("g", batch));
        text.push('\n');
    }
    std::fs::write(dir.join("layers.txt"), text)
}

/// Direct-call microseconds of one request, per (template, path).
type DirectTimes = BTreeMap<(usize, wire::Path), f64>;

/// Runs `ledger-layers` over the run directory and reads back its metrics
/// and the per-(template, path) direct-call times.
fn run_layers(
    bin: &Path,
    dir: &Path,
    trace_file: &Path,
) -> Result<(BTreeMap<String, f64>, DirectTimes), String> {
    let output = Command::new(bin)
        .arg(dir)
        .arg(trace_file)
        .output()
        .map_err(|e| format!("run {}: {e}", bin.display()))?;
    if !output.status.success() {
        return Err(format!(
            "ledger-layers failed: {}",
            String::from_utf8_lossy(&output.stderr).trim()
        ));
    }
    let mut values = BTreeMap::new();
    let mut direct = BTreeMap::new();
    for line in String::from_utf8_lossy(&output.stdout).lines() {
        let tok: Vec<&str> = line.split(' ').collect();
        match tok.as_slice() {
            ["M", name, value] => {
                values.insert(
                    name.to_string(),
                    value.parse().map_err(|_| line.to_string())?,
                );
            }
            ["T", template, path, us] => {
                let path = match *path {
                    "hit" => wire::Path::Hit,
                    "miss" => wire::Path::Miss,
                    "repaired" => wire::Path::Repaired,
                    "rejected" => wire::Path::Rejected,
                    _ => return Err(format!("ledger-layers: bad row {line:?}")),
                };
                direct.insert(
                    (template.parse().map_err(|_| line.to_string())?, path),
                    us.parse().map_err(|_| line.to_string())?,
                );
            }
            _ => return Err(format!("ledger-layers: bad row {line:?}")),
        }
    }
    Ok((values, direct))
}

fn run_workload(args: &Args, name: &str, traced: bool) -> Result<Outcome, String> {
    let dir = args.out.join(format!("{name}-{}", args.seed));
    let cfg = served::Config {
        serve_bin: args.serve_bin.clone(),
        dir: dir.clone(),
        seconds: args.seconds,
        smoke: args.smoke,
    };
    let served = served::run(&cfg, name, args.seed)?;
    let samples: usize = served.passes.iter().map(|p| p.match_ms.len()).sum();
    println!(
        "# {name}: |V|={} |E|={} templates={} ops/pass={} passes={} MATCH samples={samples} inputs=fnv1a:{:016x}",
        served.inputs.graph.n(),
        served.inputs.graph.edges.len(),
        served.inputs.templates.len(),
        served.inputs.ops_per_pass(),
        served.passes.len(),
        served.checksum,
    );
    if served.inputs.templates.len() <= 8 {
        // Which template the served time went to (all measured passes).
        let mut by_path: BTreeMap<(usize, wire::Path), (u64, u64)> = BTreeMap::new();
        for (key, (n, us)) in served.passes.iter().flat_map(|p| &p.by_path) {
            let slot = by_path.entry(*key).or_default();
            *slot = (slot.0 + n, slot.1 + us);
        }
        for ((t, path), (n, us)) in by_path {
            println!(
                "# {name}: template {} count={} path={path:?} n={n} mean_total_us={:.1}",
                served.inputs.templates[t].name,
                served.expected[t],
                us as f64 / n as f64
            );
        }
    }
    for why in &served.problems {
        eprintln!("{name}: FAILED {why}");
    }
    let mut correct = served.failed == 0;
    let end_to_end = metrics::end_to_end(&served);
    let mut per_layer = metrics::served_layer(&served);
    correct &= regime_holds(name, &served, &per_layer);
    if !traced {
        per_layer.clear();
    } else {
        let bin = args
            .layers_bin
            .as_deref()
            .ok_or("the traced run needs --layers-bin")?;
        write_layers_manifest(&dir, &served).map_err(|e| format!("write manifest: {e}"))?;
        let trace_file = args.out.join(format!("trace_{name}.json"));
        let (values, direct) = run_layers(bin, &dir, &trace_file)?;
        for (metric, _) in metrics::DIRECT_LAYER {
            let value = *values
                .get(metric)
                .ok_or_else(|| format!("ledger-layers did not report {metric}"))?;
            per_layer.push(metrics::reported(metric, value, None));
        }
        let overhead = values
            .get("ledger.span_overhead_pct")
            .copied()
            .unwrap_or(0.0);
        for (metric, value) in [
            (
                "ledger.unattributed_pct",
                metrics::unattributed_pct(&served, &direct),
            ),
            ("ledger.span_overhead_pct", overhead),
            ("ledger.host_ref_ms", served.oracle_ms),
        ] {
            per_layer.push(metrics::reported(metric, value, None));
        }
    }
    Ok(Outcome {
        correct,
        attempted: served.attempted,
        failed: served.failed,
        end_to_end,
        per_layer,
    })
}

/// The structural part of each workload's regime: which path requests
/// took (already enforced per response), plus the counters that prove it.
/// Time shares are printed as warnings only — a change that makes a layer
/// faster must not turn the benchmark red by moving a share.
fn regime_holds(name: &str, served: &Served, layer: &[Reported]) -> bool {
    let value = |metric: &str| {
        layer
            .iter()
            .find(|r| r.metric.name == metric)
            .map_or(0.0, |r| r.metric.value)
    };
    let flat = |metric: &str| {
        layer
            .iter()
            .find(|r| r.metric.name == metric)
            .and_then(|r| r.spread)
            .is_some_and(|s| s.min == s.max)
    };
    let mut structural: Vec<(&str, bool)> = Vec::new();
    let mut shares: Vec<(&str, bool)> = Vec::new();
    match name {
        "hot-enum" => {
            structural.push((
                "no cache miss in a pass",
                value("service.cache.misses") == 0.0,
            ));
            shares.push((
                "enum_us_share >= 0.8",
                value("service.enum_us_share") >= 0.8,
            ));
        }
        "cold-plan" => {
            structural.push((
                "no cache hit in a pass",
                value("service.cache.hit_ratio") == 0.0,
            ));
            shares.push((
                "enum_us_share <= 0.3",
                value("service.enum_us_share") <= 0.3,
            ));
        }
        "stream-rw" => {
            let repaired = 2.0 * workload::STREAM_CYCLES as f64;
            structural.push((
                "2 repairs per cycle",
                value("service.cache.repaired") == repaired,
            ));
            structural.push((
                "no repair fallback",
                value("service.cache.repair_fallbacks") == 0.0,
            ));
            structural.push((
                "the same number (>= 1) of compactions in every pass",
                flat("service.registry.compactions")
                    && value("service.registry.compactions") >= 1.0,
            ));
        }
        "light-rpc" => {
            let in_core: f64 = served
                .passes
                .iter()
                .map(|p| (p.sum_build_us + p.sum_enum_us) as f64)
                .sum();
            let rtt: f64 = served.passes.iter().map(|p| p.sum_rtt_us).sum();
            shares.push(("build + enum <= 0.3 of client RTT", in_core <= 0.3 * rtt));
        }
        _ => unreachable!("workload names are checked at start-up"),
    }
    for (what, holds) in &shares {
        if !holds {
            eprintln!("warning: {name}: regime share not met: {what}");
        }
    }
    for (what, holds) in &structural {
        if !holds {
            eprintln!("{name}: FAILED regime: {what}");
        }
    }
    structural.iter().all(|(_, holds)| *holds)
}

fn print_metrics(name: &str, rows: &[Reported]) {
    for r in rows {
        let spread = r.spread.map_or(String::new(), |s| {
            format!(
                "  [raw: median {:.4} min {:.4} max {:.4}]",
                s.median, s.min, s.max
            )
        });
        println!(
            "{name:<10} {:<40} {:>16.4} {}{spread}",
            r.metric.name, r.metric.value, r.metric.unit
        );
    }
}

/// Every metric of a set of runs, keyed by (workload, metric name).
type Table = BTreeMap<(String, String), Metric>;

/// All four workloads, every metric.
fn run_set(args: &Args) -> Result<(bool, Table), String> {
    let mut all_correct = true;
    let mut table = BTreeMap::new();
    for name in workload::NAMES {
        let outcome = run_workload(args, name, true)?;
        print_metrics(name, &outcome.end_to_end);
        print_metrics(name, &outcome.per_layer);
        println!(
            "{name:<10} attempted={} failed={} correct={}",
            outcome.attempted, outcome.failed, outcome.correct
        );
        all_correct &= outcome.correct;
        for r in outcome.end_to_end.into_iter().chain(outcome.per_layer) {
            table.insert((name.to_string(), r.metric.name.clone()), r.metric);
        }
    }
    Ok((all_correct, table))
}

/// Compares two sets of the same code and seed: end-to-end metrics within
/// their bounds, counts exactly equal.
fn compare_aa(a: &Table, b: &Table) -> bool {
    let mut agree = true;
    println!(
        "{:<10} {:<40} {:>16} {:>16}  verdict",
        "workload", "metric", "A", "A'"
    );
    for ((workload, name), ma) in a {
        let mb = &b[&(workload.clone(), name.clone())];
        let verdict = if let Some(e2e) = metrics::END_TO_END.iter().find(|m| m.name == name) {
            let drift = (ma.value - mb.value).abs() / ma.value.abs().max(f64::MIN_POSITIVE);
            if drift <= e2e.bound {
                "ok"
            } else {
                agree = false;
                "DIFFERS beyond its bound"
            }
        } else if ma.unit == "count" {
            if ma.value == mb.value {
                "ok (exact)"
            } else {
                agree = false;
                "COUNT DIFFERS"
            }
        } else {
            ""
        };
        println!(
            "{workload:<10} {name:<40} {:>16.4} {:>16.4}  {verdict}",
            ma.value, mb.value
        );
    }
    agree
}

fn main() -> ExitCode {
    let mut args = parse_args();
    let nproc = nproc();
    // Before anything is spawned: threads and child processes inherit it.
    let pinned = ceci_ledger::affinity::pin_to_one_cpu();
    if pinned.is_none() {
        eprintln!("warning: cannot pin to one CPU; timings will follow thread placement");
    }
    let root = std::env::current_dir().expect("current directory");
    match (
        release_profile(&root.join("Cargo.toml")),
        release_profile(&root.join("benchmark/Cargo.toml")),
    ) {
        (Ok(a), Ok(b)) if a == b && !a.is_empty() => {}
        (a, b) => {
            eprintln!(
                "error: [profile.release] of Cargo.toml and benchmark/Cargo.toml differ \
                 (or cannot be read): {a:?} vs {b:?}"
            );
            return ExitCode::FAILURE;
        }
    }
    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!("error: create {}: {e}", args.out.display());
        return ExitCode::FAILURE;
    }
    args.out = args.out.canonicalize().expect("the out directory exists");
    print_host_header(&args, nproc, pinned);
    warn_if_loaded("start", nproc);

    let status = match args.workload.clone() {
        Some(name) => match run_workload(&args, &name, args.trace) {
            Err(why) => {
                eprintln!("error: {name}: {why}");
                ExitCode::FAILURE
            }
            Ok(outcome) => {
                let rows = if args.trace {
                    &outcome.per_layer
                } else {
                    &outcome.end_to_end
                };
                print_metrics(&name, rows);
                println!("# loadavg_end={:.2}", loadavg_1min());
                let metrics: Vec<Metric> = rows.iter().map(|r| r.metric.clone()).collect();
                println!(
                    "{}",
                    json::result_line(
                        outcome.correct,
                        outcome.attempted.max(1),
                        outcome.failed,
                        &metrics
                    )
                );
                ExitCode::SUCCESS
            }
        },
        None => {
            let first = run_set(&args);
            let second = args.aa.then(|| run_set(&args));
            println!("# loadavg_end={:.2}", loadavg_1min());
            match (first, second) {
                (Err(why), _) | (_, Some(Err(why))) => {
                    eprintln!("error: {why}");
                    ExitCode::FAILURE
                }
                (Ok((correct, _)), None) => {
                    if correct {
                        ExitCode::SUCCESS
                    } else {
                        ExitCode::FAILURE
                    }
                }
                (Ok((c1, a)), Some(Ok((c2, b)))) => {
                    let agree = compare_aa(&a, &b);
                    if c1 && c2 && agree {
                        println!(
                            "A/A: every end-to-end metric within its bound, every count exact"
                        );
                        ExitCode::SUCCESS
                    } else {
                        ExitCode::FAILURE
                    }
                }
            }
        }
    };
    warn_if_loaded("end", nproc);
    status
}
