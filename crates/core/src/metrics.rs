//! Instrumentation: counters and phase timelines.
//!
//! Every figure in the paper's evaluation needs one of these numbers —
//! recursive calls (Fig 18), intersection vs edge-verification work (§4.1),
//! per-stage index sizes (Table 2), phase-tagged utilization (Fig 15), and
//! per-worker busy times (Fig 12).

use std::time::{Duration, Instant};

/// CPU time consumed by the *calling thread* so far. Unlike wall-clock
/// [`Instant`], this is immune to preemption: when more workers run than the
/// host has cores (always true for the scalability experiments on small
/// hosts), per-worker CPU time still measures each worker's share of the
/// work, which is what the modeled makespans need.
#[cfg(unix)]
pub fn thread_cpu_time() -> Duration {
    let mut ts = libc::timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: ts is a valid out-pointer; the clock id is a constant.
    let rc = unsafe { libc::clock_gettime(libc::CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    if rc == 0 {
        Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
    } else {
        Duration::ZERO
    }
}

/// Fallback for non-unix targets: wall time since an arbitrary epoch.
#[cfg(not(unix))]
pub fn thread_cpu_time() -> Duration {
    use std::sync::OnceLock;
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed()
}

/// Measures the calling thread's CPU time across a region.
#[derive(Clone, Copy, Debug)]
pub struct ThreadTimer {
    start: Duration,
}

impl ThreadTimer {
    /// Starts the timer on the calling thread.
    pub fn start() -> Self {
        ThreadTimer {
            start: thread_cpu_time(),
        }
    }

    /// CPU time this thread has spent since [`ThreadTimer::start`].
    pub fn elapsed(&self) -> Duration {
        thread_cpu_time().saturating_sub(self.start)
    }
}

/// Counters collected by one enumeration run (single worker). Workers each
/// own a `Counters` and the pool merges them, so the hot path has no atomics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counters {
    /// Recursive calls into the matching routine — the paper's search-space
    /// proxy (§6.6): one per intermediate-embedding expansion attempt.
    pub recursive_calls: u64,
    /// Embeddings emitted.
    pub embeddings: u64,
    /// Set-intersection operations performed (element comparisons). Counted
    /// exactly as integers — every kernel charges each comparison / probe /
    /// SIMD block-test it actually executes, so the figure is deterministic
    /// and bit-identical across platforms (no floating-point estimates).
    pub intersection_ops: u64,
    /// Edge verifications performed (only in edge-verify ablation mode).
    pub edge_verifications: u64,
    /// Candidates rejected by the injectivity (already-used) check.
    pub injectivity_rejections: u64,
    /// Candidates rejected by symmetry-breaking bounds *after* they were
    /// gathered. Intersection-mode enumeration counts nothing here: it clips
    /// every TE/NTE list to the symmetry window before intersecting, so a
    /// candidate outside the bounds is never produced (the bisections that
    /// clip are not counted as `intersection_ops` either). What still counts
    /// is edge-verification mode, which walks each TE list and rejects per
    /// candidate, and the baseline engines.
    pub symmetry_rejections: u64,
    /// Sibling subtrees answered by redundant-extension elimination: the
    /// leaf candidate set was provably identical to an already-computed
    /// sibling's, so its result multiset was reused instead of re-enumerated
    /// (CEMR-style pruning; requires `EnumOptions::prune_redundant`).
    pub reused_subtrees: u64,
    /// Searches entering a clean cut that the drain's memo answered with
    /// a stored sub-count instead of a walk ([`crate::CleanCut`]).
    pub memo_hits: u64,
    /// Sub-counts the drain's memo stored.
    pub memo_keys: u64,
}

impl Counters {
    /// Sums another worker's counters into this one.
    pub fn merge(&mut self, other: &Counters) {
        self.recursive_calls += other.recursive_calls;
        self.embeddings += other.embeddings;
        self.intersection_ops += other.intersection_ops;
        self.edge_verifications += other.edge_verifications;
        self.injectivity_rejections += other.injectivity_rejections;
        self.symmetry_rejections += other.symmetry_rejections;
        self.reused_subtrees += other.reused_subtrees;
        self.memo_hits += other.memo_hits;
        self.memo_keys += other.memo_keys;
    }
}

/// Program phases for the utilization timeline (Fig 15).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Graph loading / IO.
    Load,
    /// Preprocessing: root selection, tree, order, symmetry.
    Preprocess,
    /// CECI creation: BFS filtering.
    Filter,
    /// CECI refinement: reverse-BFS + cardinality.
    Refine,
    /// Work distribution (cluster decomposition, queue setup).
    Distribute,
    /// Parallel embedding enumeration.
    Enumerate,
}

impl Phase {
    /// Short display name.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Load => "load",
            Phase::Preprocess => "preprocess",
            Phase::Filter => "filter",
            Phase::Refine => "refine",
            Phase::Distribute => "distribute",
            Phase::Enumerate => "enumerate",
        }
    }
}

/// A wall-clock record of which phase ran when, and with what parallelism.
/// Drives the Fig 15 CPU-utilization reproduction: utilization during a
/// phase ≈ `active_workers / total_workers`.
#[derive(Clone, Debug, Default)]
pub struct PhaseTimeline {
    entries: Vec<PhaseSpan>,
}

/// One completed phase span.
#[derive(Clone, Copy, Debug)]
pub struct PhaseSpan {
    /// The phase.
    pub phase: Phase,
    /// Wall time the phase took.
    pub duration: Duration,
    /// Workers actively computing during the phase (1 for serial phases).
    pub active_workers: usize,
}

impl PhaseTimeline {
    /// Creates an empty timeline.
    pub fn new() -> Self {
        Self::default()
    }

    /// Times `f` as one span of `phase` with `active_workers` parallelism.
    pub fn record<T>(&mut self, phase: Phase, active_workers: usize, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.entries.push(PhaseSpan {
            phase,
            duration: start.elapsed(),
            active_workers,
        });
        out
    }

    /// Appends a span measured externally.
    pub fn push(&mut self, span: PhaseSpan) {
        self.entries.push(span);
    }

    /// All recorded spans in order.
    pub fn spans(&self) -> &[PhaseSpan] {
        &self.entries
    }

    /// Total wall time across all spans.
    pub fn total(&self) -> Duration {
        self.entries.iter().map(|s| s.duration).sum()
    }

    /// Total time spent in one phase.
    pub fn phase_total(&self, phase: Phase) -> Duration {
        self.entries
            .iter()
            .filter(|s| s.phase == phase)
            .map(|s| s.duration)
            .sum()
    }

    /// Mean CPU utilization over the timeline for a machine with
    /// `total_workers` cores: time-weighted `active / total`.
    pub fn mean_utilization(&self, total_workers: usize) -> f64 {
        let total = self.total().as_secs_f64();
        if total == 0.0 || total_workers == 0 {
            return 0.0;
        }
        let weighted: f64 = self
            .entries
            .iter()
            .map(|s| {
                s.duration.as_secs_f64()
                    * (s.active_workers.min(total_workers) as f64 / total_workers as f64)
            })
            .sum();
        weighted / total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_merge() {
        let mut a = Counters {
            recursive_calls: 10,
            embeddings: 2,
            intersection_ops: 100,
            edge_verifications: 0,
            injectivity_rejections: 3,
            symmetry_rejections: 4,
            reused_subtrees: 2,
            memo_hits: 9,
            memo_keys: 4,
        };
        let b = Counters {
            recursive_calls: 5,
            embeddings: 1,
            intersection_ops: 50,
            edge_verifications: 7,
            injectivity_rejections: 1,
            symmetry_rejections: 0,
            reused_subtrees: 1,
            memo_hits: 3,
            memo_keys: 6,
        };
        a.merge(&b);
        assert_eq!(a.recursive_calls, 15);
        assert_eq!(a.embeddings, 3);
        assert_eq!(a.intersection_ops, 150);
        assert_eq!(a.edge_verifications, 7);
        assert_eq!(a.injectivity_rejections, 4);
        assert_eq!(a.symmetry_rejections, 4);
        assert_eq!(a.reused_subtrees, 3);
        assert_eq!(a.memo_hits, 12);
        assert_eq!(a.memo_keys, 10);
    }

    #[test]
    fn timeline_records_phases() {
        let mut tl = PhaseTimeline::new();
        let x = tl.record(Phase::Filter, 1, || 42);
        assert_eq!(x, 42);
        tl.record(Phase::Enumerate, 8, || {
            std::thread::sleep(Duration::from_millis(2))
        });
        assert_eq!(tl.spans().len(), 2);
        assert!(tl.phase_total(Phase::Enumerate) >= Duration::from_millis(2));
        assert!(tl.total() >= tl.phase_total(Phase::Enumerate));
        assert_eq!(
            tl.total(),
            tl.phase_total(Phase::Filter) + tl.phase_total(Phase::Enumerate)
        );
    }

    #[test]
    fn utilization_weighting() {
        let mut tl = PhaseTimeline::new();
        tl.push(PhaseSpan {
            phase: Phase::Filter,
            duration: Duration::from_secs(1),
            active_workers: 1,
        });
        tl.push(PhaseSpan {
            phase: Phase::Enumerate,
            duration: Duration::from_secs(1),
            active_workers: 4,
        });
        // (1·(1/4) + 1·(4/4)) / 2 = 0.625
        assert!((tl.mean_utilization(4) - 0.625).abs() < 1e-9);
        // Active workers clamp to total.
        assert!((tl.mean_utilization(2) - 0.75).abs() < 1e-9);
    }

    #[test]
    fn empty_timeline_is_zero() {
        let tl = PhaseTimeline::new();
        assert_eq!(tl.total(), Duration::ZERO);
        assert_eq!(tl.mean_utilization(8), 0.0);
        assert_eq!(tl.phase_total(Phase::Load), Duration::ZERO);
    }

    #[test]
    fn thread_timer_advances_with_cpu_work() {
        let t = ThreadTimer::start();
        // Busy-spin a little actual CPU work.
        let mut acc = 0u64;
        for i in 0..2_000_000u64 {
            acc = acc.wrapping_add(i).rotate_left(7);
        }
        std::hint::black_box(acc);
        assert!(t.elapsed() > Duration::ZERO);
    }

    #[test]
    fn thread_timer_ignores_sleep() {
        // Sleeping consumes (almost) no CPU time.
        let t = ThreadTimer::start();
        std::thread::sleep(Duration::from_millis(30));
        assert!(t.elapsed() < Duration::from_millis(25));
    }

    #[test]
    fn phase_names() {
        assert_eq!(Phase::Filter.name(), "filter");
        assert_eq!(Phase::Enumerate.name(), "enumerate");
    }
}
