//! The ledger's metric catalogue — names, units, directions and regression
//! bounds — and how the served run's samples fold into values.
//!
//! `BENCHMARK.json` at the repository root carries the same catalogue for
//! the driver; a self-test holds the two together.

use std::collections::BTreeMap;

use crate::json::Metric;
use crate::served::{Pass, Served};
use crate::stats::{median, percentile, Spread};
use crate::workload::Op;

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    /// `true`: lower is better.
    pub lower_is_better: bool,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// The timing bounds are as wide as the driver allows, wider than a quiet
/// machine would need: the reference host (2 vCPUs of a shared machine) has
/// a slow state the quiet profile filters out ([`quiet_profile`]) and,
/// for minutes at a time, a state about 12 % faster than its usual quiet
/// one that nothing can filter; ten runs of one workload spread by up to
/// 9 % between their quartiles on a timing (see the README).
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        lower_is_better: true,
        bound: 0.25,
    },
    EndToEnd {
        name: "match_p50_ms",
        unit: "ms",
        lower_is_better: true,
        bound: 0.25,
    },
    EndToEnd {
        name: "match_p95_ms",
        unit: "ms",
        lower_is_better: true,
        bound: 0.25,
    },
    EndToEnd {
        name: "qps",
        unit: "1/s",
        lower_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        lower_is_better: true,
        bound: 0.15,
    },
];

/// Per-layer metrics taken from the served run: client round trips, the
/// fields `MATCH` responses carry, and `STATS` deltas around each pass.
pub const SERVED_LAYER: [(&str, &str); 26] = [
    ("service.overhead_us_p50", "us"),
    ("service.ping_rtt_us_p50", "us"),
    ("service.other_us_p50", "us"),
    ("service.pool.busy", "count"),
    ("service.build_us_share", "ratio"),
    ("service.enum_us_share", "ratio"),
    ("service.cache.hit_ratio", "ratio"),
    ("service.cache.misses", "count"),
    ("service.cache.repaired", "count"),
    ("service.cache.repair_fallbacks", "count"),
    ("service.cache.evictions", "count"),
    ("service.cache.bytes", "bytes"),
    ("service.cache.singleflight_waits", "count"),
    ("service.admission.rejected", "count"),
    ("service.batch.frontier_builds", "count"),
    ("service.batch.frontier_hits", "count"),
    ("service.adaptive.replans", "count"),
    ("service.stats.plan_score_us_mean", "us"),
    ("service.stats.build_filter_us_mean", "us"),
    ("service.stats.build_refine_us_mean", "us"),
    ("service.stats.index_repair_us_mean", "us"),
    ("service.registry.compactions", "count"),
    ("service.registry.continuous_events", "count"),
    ("service.load_ms", "ms"),
    ("fresh_p50_ms", "ms"),
    ("batch_p50_ms", "ms"),
];

/// Per-layer metrics `ledger-layers` measures with spans around direct
/// calls of the layers' public functions.
pub const DIRECT_LAYER: [(&str, &str); 29] = [
    ("service.protocol.parse_ns", "ns"),
    ("graph.io.load_ms", "ms"),
    ("graph.label_pair_index_ms", "ms"),
    ("query.load_us", "us"),
    ("query.canonical_us", "us"),
    ("query.admission_us", "us"),
    ("query.plan_bfs_us", "us"),
    ("core.adaptive.plan_us", "us"),
    ("core.adaptive.score_us", "us"),
    ("core.adaptive.replanned_ratio", "ratio"),
    ("core.adaptive.vs_bfs_ratio", "ratio"),
    ("core.filter.us", "us"),
    ("core.refine.us", "us"),
    ("core.index.bytes", "bytes"),
    ("core.index.te_entries", "count"),
    ("core.index.nte_entries", "count"),
    ("core.enumerate.us", "us"),
    ("core.enumerate.embeddings", "count"),
    ("core.enumerate.intersection_ops", "count"),
    ("core.enumerate.recursive_calls", "count"),
    ("core.enumerate.ns_per_embedding", "ns"),
    ("core.batch.frontier_us", "us"),
    ("core.batch.from_frontier_us", "us"),
    ("stream.build_us", "us"),
    ("stream.patch_us", "us"),
    ("stream.materialize_us", "us"),
    ("stream.keys_recomputed", "count"),
    ("core.delta.us", "us"),
    ("service.registry.apply_batch_us", "us"),
];

/// The ledger's own health: how much served time the direct calls do not
/// explain, what recording spans costs, and how fast the host ran the
/// harness's own oracle — fixed single-threaded work that no change to the
/// system can move, so a shift in it is a shift of the host.
pub const LEDGER_LAYER: [(&str, &str); 3] = [
    ("ledger.unattributed_pct", "%"),
    ("ledger.span_overhead_pct", "%"),
    ("ledger.host_ref_ms", "ms"),
];

pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(SERVED_LAYER)
        .chain(DIRECT_LAYER)
        .chain(LEDGER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, unit)| unit)
        .unwrap_or_else(|| panic!("metric {name} is not in the catalogue"))
}

/// A reported value with the spread of the per-pass values behind it
/// (`None` for values that have none).
pub struct Reported {
    pub metric: Metric,
    pub spread: Option<Spread>,
}

/// A catalogue metric with its value; `spread` when it is a per-pass median.
pub fn reported(name: &str, value: f64, spread: Option<Spread>) -> Reported {
    Reported {
        metric: Metric {
            name: name.to_string(),
            value,
            unit: unit_of(name),
        },
        spread,
    }
}

fn per_pass(name: &str, passes: &[Pass], f: impl Fn(&Pass) -> f64) -> Reported {
    let values: Vec<f64> = passes.iter().map(f).collect();
    let spread = Spread::of(&values);
    reported(name, spread.median, Some(spread))
}

fn p_or_zero(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        percentile(samples, q)
    }
}

/// Per position of a repeated sequence, the quickest of its repeats.
///
/// Every pass of a run sends the same requests in the same order from the
/// same state, and every set-up takes the same steps, so position `i` is
/// the same piece of work each time and its repeats differ only by what
/// the host added. The reference host flickers between a quiet state and
/// one in which everything (a spin loop in the harness included) takes
/// 1.5 to 1.7 times as long; the slow state covers anything from a tenth
/// to nine tenths of a minute, in stretches of milliseconds to seconds, so
/// a whole pass is often not quiet but, over a run's repeats, every
/// position is at some time. Interference only ever adds time: the
/// quickest repeat is the closest a run gets to the program's own cost.
///
/// # Panics
/// Panics when there is no repeat or the repeats differ in length.
pub fn quiet_profile(repeats: &[&[f64]]) -> Vec<f64> {
    let (first, rest) = repeats.split_first().expect("at least one repeat");
    let mut profile = first.to_vec();
    for repeat in rest {
        assert_eq!(repeat.len(), profile.len(), "repeats of one sequence");
        for (quickest, &x) in profile.iter_mut().zip(*repeat) {
            *quickest = quickest.min(x);
        }
    }
    profile
}

/// The end-to-end metrics of a served run. Each timing is taken from the
/// run's [`quiet_profile`]: `match_p50_ms` / `match_p95_ms` over the quiet
/// round trips of one pass's `MATCH`es, `qps` from their sum (the loop is
/// closed, so a connection's pass lasts as long as its round trips),
/// `setup_s` as the sum of the quiet set-up steps. The spread beside each
/// is that of the raw per-pass (per-set-up) values.
pub fn end_to_end(served: &Served) -> Vec<Reported> {
    let p = &served.passes;
    let plan = &served.inputs.plan;
    let rtt_ms = quiet_profile(&p.iter().map(|x| x.rtt_ms.as_slice()).collect::<Vec<_>>());
    let match_ms: Vec<f64> = plan
        .iter()
        .flatten()
        .zip(&rtt_ms)
        .filter(|(op, _)| matches!(op, Op::Match { .. }))
        .map(|(_, &ms)| ms)
        .collect();
    let mut at = 0;
    let pass_ms = plan
        .iter()
        .map(|ops| {
            at += ops.len();
            rtt_ms[at - ops.len()..at].iter().sum::<f64>()
        })
        .fold(0.0, f64::max);

    let steps: Vec<&[f64]> = served.setup_steps_s.iter().map(Vec::as_slice).collect();
    let setups: Vec<f64> = steps.iter().map(|s| s.iter().sum()).collect();
    let raw = |f: &dyn Fn(&Pass) -> f64| Some(Spread::of(&p.iter().map(f).collect::<Vec<_>>()));
    vec![
        reported(
            "setup_s",
            quiet_profile(&steps).iter().sum(),
            Some(Spread::of(&setups)),
        ),
        reported(
            "match_p50_ms",
            percentile(&match_ms, 0.5),
            raw(&|x| percentile(&x.match_ms, 0.5)),
        ),
        reported(
            "match_p95_ms",
            percentile(&match_ms, 0.95),
            raw(&|x| percentile(&x.match_ms, 0.95)),
        ),
        reported(
            "qps",
            rtt_ms.len() as f64 / (pass_ms / 1e3),
            raw(&|x| x.ok as f64 / x.wall_s),
        ),
        reported("peak_rss_mb", served.peak_rss_mb, None),
    ]
}

/// Mean of a server histogram over one pass, from its exact sum/count.
fn hist_mean(pass: &Pass, hist: &str) -> f64 {
    let d = |k: String| pass.delta.get(&k).copied().unwrap_or(0.0);
    let count = d(format!("{hist}_us_count"));
    if count > 0.0 {
        d(format!("{hist}_us_sum")) / count
    } else {
        0.0
    }
}

/// The served run's per-layer metrics, in [`SERVED_LAYER`] order.
pub fn served_layer(served: &Served) -> Vec<Reported> {
    let p = &served.passes;
    let delta = |name: &'static str, key: &'static str| {
        per_pass(name, p, move |x| x.delta.get(key).copied().unwrap_or(0.0))
    };
    let share = |part: u64, x: &Pass| {
        if x.sum_total_us == 0 {
            0.0
        } else {
            part as f64 / x.sum_total_us as f64
        }
    };
    vec![
        per_pass("service.overhead_us_p50", p, |x| {
            p_or_zero(&x.overhead_us, 0.5)
        }),
        per_pass("service.ping_rtt_us_p50", p, |x| p_or_zero(&x.ping_us, 0.5)),
        per_pass("service.other_us_p50", p, |x| p_or_zero(&x.other_us, 0.5)),
        delta("service.pool.busy", "rejected_busy"),
        per_pass("service.build_us_share", p, |x| share(x.sum_build_us, x)),
        per_pass("service.enum_us_share", p, |x| share(x.sum_enum_us, x)),
        per_pass("service.cache.hit_ratio", p, |x| {
            let d = |k: &str| x.delta.get(k).copied().unwrap_or(0.0);
            let probes = d("cache_hits") + d("cache_misses") + d("index_repairs");
            if probes > 0.0 {
                d("cache_hits") / probes
            } else {
                0.0
            }
        }),
        delta("service.cache.misses", "cache_misses"),
        delta("service.cache.repaired", "index_repairs"),
        delta("service.cache.repair_fallbacks", "index_repair_fallbacks"),
        delta("service.cache.evictions", "cache_evictions"),
        per_pass("service.cache.bytes", p, |x| {
            x.after.get("cache_bytes").copied().unwrap_or(0.0)
        }),
        delta(
            "service.cache.singleflight_waits",
            "cache_singleflight_waits",
        ),
        delta("service.admission.rejected", "filter_rejected"),
        delta("service.batch.frontier_builds", "batch_frontier_builds"),
        delta("service.batch.frontier_hits", "batch_frontier_hits"),
        delta("service.adaptive.replans", "adaptive_replans"),
        per_pass("service.stats.plan_score_us_mean", p, |x| {
            hist_mean(x, "plan_score")
        }),
        per_pass("service.stats.build_filter_us_mean", p, |x| {
            hist_mean(x, "build_filter")
        }),
        per_pass("service.stats.build_refine_us_mean", p, |x| {
            hist_mean(x, "build_refine")
        }),
        per_pass("service.stats.index_repair_us_mean", p, |x| {
            hist_mean(x, "index_repair")
        }),
        delta("service.registry.compactions", "compactions"),
        delta("service.registry.continuous_events", "continuous_events"),
        reported(
            "service.load_ms",
            median(&served.load_ms),
            Some(Spread::of(&served.load_ms)),
        ),
        per_pass("fresh_p50_ms", p, |x| p_or_zero(&x.fresh_ms, 0.5)),
        per_pass("batch_p50_ms", p, |x| p_or_zero(&x.batch_ms, 0.5)),
    ]
}

/// Share of the served `MATCH` time (`Σ total_us` over the measured passes)
/// that direct calls of the layers do not explain. `direct_us` maps
/// `(template, path)` to the time `ledger-layers` measured for one such
/// request.
pub fn unattributed_pct(
    served: &Served,
    direct_us: &BTreeMap<(usize, crate::wire::Path), f64>,
) -> f64 {
    let (mut served_us, mut explained_us) = (0.0, 0.0);
    for pass in &served.passes {
        for (key, &(n, total_us)) in &pass.by_path {
            served_us += total_us as f64;
            explained_us += n as f64 * direct_us.get(key).copied().unwrap_or(0.0);
        }
    }
    if served_us == 0.0 {
        0.0
    } else {
        (1.0 - explained_us / served_us) * 100.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every metric of the catalogue, as `BENCHMARK.json` must list it.
    #[test]
    fn benchmark_json_lists_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        for m in &END_TO_END {
            let better = if m.lower_is_better { "lower" } else { "higher" };
            let row = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{better}\", \"bound\": {}}}",
                m.name, m.unit, m.bound
            );
            assert!(json.contains(&row), "BENCHMARK.json lacks {row}");
        }
        let layers = SERVED_LAYER
            .iter()
            .chain(&DIRECT_LAYER)
            .chain(&LEDGER_LAYER);
        for (name, unit) in layers.clone() {
            let row = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": ");
            assert!(json.contains(&row), "BENCHMARK.json lacks {row}");
        }
        assert_eq!(
            json.matches("\"better\"").count(),
            END_TO_END.len() + layers.count(),
            "BENCHMARK.json lists a metric the catalogue does not have"
        );
        for workload in crate::workload::NAMES {
            assert!(json.contains(&format!("{{\"name\": \"{workload}\", \"why\": ")));
        }
    }

    #[test]
    fn quiet_profile_keeps_the_quickest_repeat_of_each_position() {
        let repeats: [&[f64]; 3] = [&[3.0, 9.0, 5.0], &[4.0, 2.0, 5.5], &[3.5, 8.0, 1.0]];
        assert_eq!(quiet_profile(&repeats), [3.0, 2.0, 1.0]);
        assert_eq!(quiet_profile(&repeats[..1]), [3.0, 9.0, 5.0]);
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(
                SERVED_LAYER
                    .iter()
                    .chain(&DIRECT_LAYER)
                    .chain(&LEDGER_LAYER)
                    .map(|m| m.0),
            )
            .collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
        assert!(names.iter().all(|n| n.len() <= 64
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))));
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
    }
}
