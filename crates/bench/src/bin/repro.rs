//! `repro` — regenerate the CECI paper's tables and figures.
//!
//! ```text
//! repro <experiment> [--scale quick|full]
//! repro all [--scale quick|full]
//! ```

#![forbid(unsafe_code)]

use ceci_bench::experiments;
use ceci_bench::Scale;

const HELP: &str = "\
repro — regenerate the CECI paper's tables and figures on synthetic stand-ins

USAGE:
    repro <experiment> [--scale quick|full]

EXPERIMENTS:
    table1              Dataset inventory (Table 1)
    table2              CECI size vs theoretical bound (Table 2)
    queries             The QG1-QG5 query catalog (Figure 6)
    fig7                CECI vs DualSim-lite vs PsgL-lite, QG1/QG4 (Figure 7)
    fig8                Same for QG2/QG3/QG5 on WG/WT/LJ (Figure 8)
    fig9                CECI vs CFLMatch-lite, labeled queries (Figure 9)
    fig10               CECI vs TurboIso-lite on HU (Figure 10)
    fig11               CGD/FGD speedup over static distribution (Figure 11)
    fig12               Effect of beta on per-worker balance (Figure 12)
    fig13               Thread scalability, QG1 (Figure 13)
    fig14               Thread scalability, QG4 (Figure 14)
    fig15               Phase utilization timeline (Figure 15)
    fig16               Distributed speedup, replicated graph (Figure 16)
    fig17               Distributed speedup, shared storage (Figure 17)
    fig18               Recursive-call reduction vs PsgL (Figure 18)
    fig19               Technique-by-technique speedup breakdown (Figure 19)
    fig20               CECI construction IO/comm/compute breakdown (Figure 20)
    ablation-order      Matching-order heuristics vs naive BFS (§2.2)
    ablation-intersect  Intersection vs edge verification (§4.1)
    kernels             Intersection-kernel sweep, and QG1-QG5 under the
                        dispatch checked against the reference matcher (§4)
    physical            Physical decomposition — future work (§8)
    faults              Fault-injection sweep: crashes, stragglers, steal
                        loss — asserts bit-identical counts vs fault-free
                        and writes bench_results/faults.json
    service             Connection-scaling sweep for the event-driven server
                        core: constant offered load while connections scale
                        8 -> 2048 — asserts zero dropped responses and
                        bit-identical counts, reports p99 inflation vs the
                        8-connection baseline, and writes
                        bench_results/service.json
    shard               Multi-process sharded serving sweep: real ceci-shard
                        processes under SIGKILL / stall / kill+restart —
                        asserts bit-identical counts vs the single-process
                        oracle, reports recovery makespan inflation, and
                        writes bench_results/shard.json
    all                 Everything above, in order

OPTIONS:
    --scale quick|full  Stand-in dataset size (default: quick)
";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut experiment: Option<String> = None;
    let mut scale = Scale::Quick;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                match args.get(i).map(|s| s.as_str()) {
                    Some("quick") => scale = Scale::Quick,
                    Some("full") => scale = Scale::Full,
                    other => {
                        eprintln!("error: --scale expects quick|full, got {other:?}");
                        std::process::exit(2);
                    }
                }
            }
            "help" | "--help" | "-h" => {
                print!("{HELP}");
                return;
            }
            other if experiment.is_none() => experiment = Some(other.to_string()),
            other => {
                eprintln!("error: unexpected argument {other:?}");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    let Some(experiment) = experiment else {
        print!("{HELP}");
        std::process::exit(2);
    };
    if !dispatch(&experiment, scale) {
        eprintln!("error: unknown experiment {experiment:?}\n");
        print!("{HELP}");
        std::process::exit(2);
    }
}

fn dispatch(experiment: &str, scale: Scale) -> bool {
    let section = |name: &str| {
        println!("\n================================================================");
        println!("== {name}");
        println!("================================================================\n");
    };
    match experiment {
        "table1" => experiments::table1::run(scale),
        "table2" => experiments::table2::run(scale),
        "queries" => experiments::queries::run(),
        "fig7" => experiments::fig7_8::run_fig7(scale),
        "fig8" => experiments::fig7_8::run_fig8(scale),
        "fig9" => experiments::fig9_10::run_fig9(scale),
        "fig10" => experiments::fig9_10::run_fig10(scale),
        "fig11" => experiments::fig11::run(scale),
        "fig12" => experiments::fig12::run(scale),
        "fig13" => experiments::fig13_14::run_fig13(scale),
        "fig14" => experiments::fig13_14::run_fig14(scale),
        "fig15" => experiments::fig15::run(scale),
        "fig16" => experiments::fig16_17::run_fig16(scale),
        "fig17" => experiments::fig16_17::run_fig17(scale),
        "fig18" => experiments::fig18::run(scale),
        "fig19" => experiments::fig19::run(scale),
        "fig20" => experiments::fig20::run(scale),
        "kernels" => experiments::kernels::run(scale),
        "ablation-order" => experiments::ablation::run_order(scale),
        "ablation-intersect" => experiments::ablation::run_intersection(scale),
        "physical" => experiments::physical::run(scale),
        "faults" => experiments::faults::run(scale),
        "service" => experiments::service::run(scale),
        "shard" => experiments::shard::run(scale),
        "all" => {
            for (name, f) in ALL_EXPERIMENTS {
                section(name);
                f(scale);
            }
        }
        _ => return false,
    }
    true
}

type Runner = fn(Scale);

const ALL_EXPERIMENTS: &[(&str, Runner)] = &[
    ("Table 1", experiments::table1::run),
    ("Table 2", experiments::table2::run),
    ("Figure 6 (queries)", |_| experiments::queries::run()),
    ("Kernel sweep", experiments::kernels::run),
    ("Figure 7", experiments::fig7_8::run_fig7),
    ("Figure 8", experiments::fig7_8::run_fig8),
    ("Figure 9", experiments::fig9_10::run_fig9),
    ("Figure 10", experiments::fig9_10::run_fig10),
    ("Figure 11", experiments::fig11::run),
    ("Figure 12", experiments::fig12::run),
    ("Figure 13", experiments::fig13_14::run_fig13),
    ("Figure 14", experiments::fig13_14::run_fig14),
    ("Figure 15", experiments::fig15::run),
    ("Figure 16", experiments::fig16_17::run_fig16),
    ("Figure 17", experiments::fig16_17::run_fig17),
    ("Figure 18", experiments::fig18::run),
    ("Figure 19", experiments::fig19::run),
    ("Figure 20", experiments::fig20::run),
    (
        "Ablation: matching order (§2.2)",
        experiments::ablation::run_order,
    ),
    (
        "Ablation: intersection (§4.1)",
        experiments::ablation::run_intersection,
    ),
    (
        "Future work: physical decomposition (§8)",
        experiments::physical::run,
    ),
    (
        "Fault injection: exactly-once recovery",
        experiments::faults::run,
    ),
    (
        "Connection scaling: event-driven server core",
        experiments::service::run,
    ),
    (
        "Sharded serving: cross-process fault recovery",
        experiments::shard::run,
    ),
];
