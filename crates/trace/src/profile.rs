//! Per-matching-order-depth enumeration profile.
//!
//! The enumeration hot path must not allocate and must not take per-call
//! timestamps (a syscall-grade clock read per recursive call would dwarf the
//! work being measured). [`DepthProfile`] is therefore preallocated from the
//! matching-order length before enumeration starts, attributes **exact**
//! integer counters (candidate fan-out, intersection ops, emissions,
//! backtracks) per depth, and attributes wall time by *stride sampling*: one
//! monotonic clock read every `2^k` recursive calls, with the elapsed delta
//! charged to the depth where the sample lands. Over thousands of calls the
//! sampled attribution converges on the true per-depth share while costing a
//! fraction of a percent of throughput.

use std::time::Instant;

/// Default sampling stride: one clock read per 1024 recursive calls.
pub const DEFAULT_STRIDE_MASK: u64 = 0x3FF;

/// Exact + sampled statistics for one matching-order depth.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DepthStat {
    /// Recursive calls entering this depth.
    pub calls: u64,
    /// Candidates produced for this depth (fan-out after TE intersection /
    /// edge verification, before injectivity and symmetry checks).
    pub candidates: u64,
    /// Exact intersection element operations attributed to this depth.
    pub intersections: u64,
    /// Embeddings emitted at this depth (last depth only, unless a prefix
    /// enumeration stops earlier).
    pub emitted: u64,
    /// Returns from a mapped candidate's subtree at this depth (one per
    /// candidate that was mapped and explored).
    pub backtracks: u64,
    /// Subtrees at this depth answered by redundant-extension elimination
    /// (the candidate set was identical to an explored sibling's, so its
    /// result multiset was reused instead of re-enumerated).
    pub reused: u64,
    /// Stride-sampled wall time attributed to this depth, in nanoseconds.
    pub time_ns: u64,
    /// Number of clock samples that landed on this depth.
    pub samples: u64,
}

impl DepthStat {
    /// Accumulate `other` into `self`.
    pub fn merge(&mut self, other: &DepthStat) {
        self.calls += other.calls;
        self.candidates += other.candidates;
        self.intersections += other.intersections;
        self.emitted += other.emitted;
        self.backtracks += other.backtracks;
        self.reused += other.reused;
        self.time_ns += other.time_ns;
        self.samples += other.samples;
    }
}

/// Preallocated per-depth profile for one enumeration run (or one worker of
/// a parallel run; merge worker profiles with [`DepthProfile::merge`]).
#[derive(Debug, Clone)]
pub struct DepthProfile {
    stats: Vec<DepthStat>,
    tick: u64,
    stride_mask: u64,
    epoch: Instant,
    last_ns: u64,
}

impl DepthProfile {
    /// Preallocate a profile for a matching order of `depths` nodes.
    pub fn new(depths: usize) -> Self {
        Self::with_stride(depths, DEFAULT_STRIDE_MASK)
    }

    /// Preallocate with an explicit sampling stride mask (`2^k - 1`).
    pub fn with_stride(depths: usize, stride_mask: u64) -> Self {
        let epoch = Instant::now();
        DepthProfile {
            stats: vec![DepthStat::default(); depths.max(1)],
            tick: 0,
            stride_mask,
            epoch,
            last_ns: 0,
        }
    }

    #[inline]
    fn clamp(&self, depth: usize) -> usize {
        depth.min(self.stats.len() - 1)
    }

    /// Record one recursive call entering `depth`; takes a stride-sampled
    /// timestamp and charges the elapsed delta to this depth when the sample
    /// lands. Zero allocations; at most one clock read per stride.
    #[inline]
    pub fn on_call(&mut self, depth: usize) {
        let d = self.clamp(depth);
        self.stats[d].calls += 1;
        self.tick = self.tick.wrapping_add(1);
        if self.tick & self.stride_mask == 0 {
            let now = self.epoch.elapsed().as_nanos() as u64;
            let delta = now.saturating_sub(self.last_ns);
            self.last_ns = now;
            self.stats[d].time_ns += delta;
            self.stats[d].samples += 1;
        }
    }

    /// Record the candidate fan-out and exact intersection-op delta for one
    /// expansion at `depth`.
    #[inline]
    pub fn on_expand(&mut self, depth: usize, candidates: u64, intersection_ops: u64) {
        let d = self.clamp(depth);
        self.stats[d].candidates += candidates;
        self.stats[d].intersections += intersection_ops;
    }

    /// Flush one candidate drain's batched emissions and backtracks for
    /// `depth`. The enumeration inner loop accumulates these in plain stack
    /// locals and calls this **once per drain** instead of touching the
    /// (boxed, cache-cold) profile per candidate — the difference between a
    /// measurable slowdown and sub-percent overhead on emission-heavy
    /// queries.
    #[inline]
    pub fn on_drain(&mut self, depth: usize, emitted: u64, backtracks: u64) {
        let d = self.clamp(depth);
        self.stats[d].emitted += emitted;
        self.stats[d].backtracks += backtracks;
    }

    /// Record `reused` sibling-subtree reuses (redundant-extension
    /// elimination) at `depth`, batched like [`DepthProfile::on_drain`].
    #[inline]
    pub fn on_reuse(&mut self, depth: usize, reused: u64) {
        let d = self.clamp(depth);
        self.stats[d].reused += reused;
    }

    /// Reset all counters (keeps the allocation and the clock epoch).
    pub fn reset(&mut self) {
        for s in &mut self.stats {
            *s = DepthStat::default();
        }
        self.tick = 0;
        self.last_ns = self.epoch.elapsed().as_nanos() as u64;
    }

    /// Re-arm the sampling clock so the next delta does not include time
    /// spent outside enumeration (call just before the search loop).
    pub fn arm_clock(&mut self) {
        self.last_ns = self.epoch.elapsed().as_nanos() as u64;
    }

    /// Accumulate another profile (e.g. a parallel worker's) into `self`.
    /// Depth vectors may differ in length; the shorter tail is ignored.
    pub fn merge(&mut self, other: &DepthProfile) {
        for (a, b) in self.stats.iter_mut().zip(other.stats.iter()) {
            a.merge(b);
        }
    }

    /// Per-depth statistics, indexed by matching-order depth.
    pub fn depths(&self) -> &[DepthStat] {
        &self.stats
    }

    /// Number of tracked depths.
    pub fn len(&self) -> usize {
        self.stats.len()
    }

    /// Whether the profile tracks zero depths (never true: minimum is 1).
    pub fn is_empty(&self) -> bool {
        self.stats.is_empty()
    }

    /// Sum of exact intersection ops across all depths.
    pub fn total_intersections(&self) -> u64 {
        self.stats.iter().map(|s| s.intersections).sum()
    }

    /// Sum of recursive calls across all depths.
    pub fn total_calls(&self) -> u64 {
        self.stats.iter().map(|s| s.calls).sum()
    }

    /// Sum of candidate fan-out across all depths.
    pub fn total_candidates(&self) -> u64 {
        self.stats.iter().map(|s| s.candidates).sum()
    }

    /// Sum of emitted embeddings across all depths.
    pub fn total_emitted(&self) -> u64 {
        self.stats.iter().map(|s| s.emitted).sum()
    }

    /// Sum of reused sibling subtrees across all depths.
    pub fn total_reused(&self) -> u64 {
        self.stats.iter().map(|s| s.reused).sum()
    }

    /// Sum of sampled time across all depths, nanoseconds.
    pub fn total_time_ns(&self) -> u64 {
        self.stats.iter().map(|s| s.time_ns).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_are_exact_per_depth() {
        let mut p = DepthProfile::with_stride(3, 0x3);
        for _ in 0..10 {
            p.on_call(0);
        }
        p.on_expand(0, 7, 21);
        p.on_call(1);
        p.on_expand(1, 2, 4);
        p.on_drain(2, 1, 0);
        p.on_drain(0, 0, 1);
        assert_eq!(p.depths()[0].calls, 10);
        assert_eq!(p.depths()[0].candidates, 7);
        assert_eq!(p.depths()[0].intersections, 21);
        assert_eq!(p.depths()[0].backtracks, 1);
        assert_eq!(p.depths()[1].calls, 1);
        assert_eq!(p.depths()[2].emitted, 1);
        assert_eq!(p.total_intersections(), 25);
        assert_eq!(p.total_calls(), 11);
    }

    #[test]
    fn deep_indices_clamp_to_last_depth() {
        let mut p = DepthProfile::new(2);
        p.on_call(9);
        p.on_expand(9, 3, 3);
        assert_eq!(p.depths()[1].calls, 1);
        assert_eq!(p.depths()[1].candidates, 3);
    }

    #[test]
    fn merge_sums_depthwise() {
        let mut a = DepthProfile::new(2);
        let mut b = DepthProfile::new(2);
        a.on_call(0);
        b.on_call(0);
        b.on_call(1);
        a.merge(&b);
        assert_eq!(a.depths()[0].calls, 2);
        assert_eq!(a.depths()[1].calls, 1);
    }

    #[test]
    fn sampling_charges_time_somewhere() {
        // Stride 1 (mask 0) => every call samples.
        let mut p = DepthProfile::with_stride(1, 0);
        p.arm_clock();
        for _ in 0..1000 {
            p.on_call(0);
        }
        assert_eq!(p.depths()[0].samples, 1000);
    }

    #[test]
    fn reset_clears_counters() {
        let mut p = DepthProfile::new(2);
        p.on_call(0);
        p.on_drain(1, 1, 0);
        p.reset();
        assert_eq!(p.total_calls(), 0);
        assert_eq!(p.total_emitted(), 0);
    }
}
