//! The recovery protocol: scatter, steal, re-scatter, speculate, commit
//! exactly once — as one plain state machine.
//!
//! [`Recovery`] is the whole of the paper's §5 work distribution plus the
//! exactly-once recovery layered on it, with no transport inside: it never
//! blocks, never reads a clock and never talks to anybody. Whoever owns the
//! executors drives it through `&mut self` calls and does the actual work
//! between them. Two drivers exist: the discrete-event simulator in
//! [`crate::run`] (an executor is a simulated machine) and the shard
//! coordinator in `ceci-service` (an executor is a `ceci-shard` process
//! behind a TCP connection, the state machine behind one lock).
//!
//! ## Protocol
//!
//! * Every pivot has a slot holding an **ownership epoch** and the first
//!   committed count. [`Recovery::next`] hands out a pivot together with its
//!   current epoch; [`Recovery::commit`] accepts a count only under that
//!   epoch and only if nothing committed first.
//! * An executor takes work from its own queue, then steals the back half
//!   of the longest live queue (`MPI_Get` in the paper), then speculatively
//!   re-executes a pivot somebody else has in flight — each such pivot at
//!   most once per executor, and only on executors the driver's policy
//!   admits. Speculation takes no ownership: first commit wins.
//! * [`Recovery::declare_dead`] bumps the epoch of everything uncommitted
//!   the executor owned, queued or in flight, and re-homes it round-robin
//!   on the **live** executors. A late commit from the dead executor
//!   carries the old epoch and is rejected. With nobody alive the pivots
//!   are parked until some executor is [`Recovery::revive`]d or the driver
//!   drains [`Recovery::uncommitted`] itself.
//!
//! A pivot's count is a function of the pivot alone, so the total
//! `Σ committed counts` is the same under every schedule of calls.

use std::cmp::Reverse;
use std::collections::{BTreeSet, HashSet, VecDeque};

use ceci_graph::VertexId;

/// How a unit of work reached the executor that asked for it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WorkKind {
    /// Popped from the executor's own queue.
    Own,
    /// First pivot of a batch just stolen from the longest live queue (the
    /// rest of the batch is now on the executor's own queue).
    Stolen,
    /// Somebody else's in-flight pivot, re-executed without taking
    /// ownership.
    Speculative,
}

/// One pivot to execute and the epoch its count must be committed under.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Work {
    /// The cluster pivot.
    pub pivot: VertexId,
    /// The pivot's ownership epoch when it was handed out.
    pub epoch: u32,
    /// How it was obtained.
    pub kind: WorkKind,
}

#[derive(Debug)]
struct PivotSlot {
    pivot: VertexId,
    epoch: u32,
    /// The executor whose queue holds the pivot or that is executing it;
    /// `None` while parked: orphaned with no live executor to go to.
    owner: Option<usize>,
    committed: Option<u64>,
}

/// The recovery state machine over a fixed set of pivots and executors.
#[derive(Debug)]
pub struct Recovery {
    /// One slot per pivot, sorted by pivot.
    slots: Vec<PivotSlot>,
    /// Unexplored pivots per executor (front = next to run).
    queues: Vec<VecDeque<VertexId>>,
    live: Vec<bool>,
    /// Handed out to their owner and not yet committed, requeued or re-homed.
    in_flight: BTreeSet<VertexId>,
    /// Pivots each executor has already speculated on.
    tried: Vec<HashSet<VertexId>>,
    stealing: bool,
    remaining: usize,
    rejected: u64,
}

impl Recovery {
    /// A state machine over `assignment[e]` = the pivots scattered to
    /// executor `e`, all executors alive. A pivot named twice keeps its
    /// first home. `stealing: false` switches the steal tier of
    /// [`Recovery::next`] off (the paper's §5 ablation).
    pub fn new(assignment: &[Vec<VertexId>], stealing: bool) -> Recovery {
        let mut seen = HashSet::new();
        let mut slots = Vec::new();
        let mut queues = vec![VecDeque::new(); assignment.len()];
        for (executor, pivots) in assignment.iter().enumerate() {
            for &pivot in pivots.iter().filter(|&&p| seen.insert(p)) {
                queues[executor].push_back(pivot);
                slots.push(PivotSlot {
                    pivot,
                    epoch: 0,
                    owner: Some(executor),
                    committed: None,
                });
            }
        }
        slots.sort_unstable_by_key(|s| s.pivot);
        Recovery {
            remaining: slots.len(),
            slots,
            queues,
            live: vec![true; assignment.len()],
            in_flight: BTreeSet::new(),
            tried: vec![HashSet::new(); assignment.len()],
            stealing,
            rejected: 0,
        }
    }

    fn index(&self, pivot: VertexId) -> Option<usize> {
        self.slots.binary_search_by_key(&pivot, |s| s.pivot).ok()
    }

    fn slot(&mut self, pivot: VertexId) -> Option<&mut PivotSlot> {
        self.index(pivot).map(|i| &mut self.slots[i])
    }

    /// The next pivot `executor` should run: its own queue, else a steal,
    /// else a speculative re-execution of an in-flight pivot whose owner
    /// `may_speculate_on` admits. `None` for a dead executor and when there
    /// is nothing it can usefully do right now.
    pub fn next(
        &mut self,
        executor: usize,
        may_speculate_on: impl Fn(usize) -> bool,
    ) -> Option<Work> {
        if !self.live[executor] {
            return None;
        }
        if let Some(work) = self.pop_own(executor, WorkKind::Own) {
            return Some(work);
        }
        if self.stealing && self.take_half_of_longest(executor) {
            if let Some(work) = self.pop_own(executor, WorkKind::Stolen) {
                return Some(work);
            }
        }
        let (pivot, epoch) = self.in_flight.iter().find_map(|&p| {
            let slot = &self.slots[self.index(p)?];
            let admitted = slot
                .owner
                .is_some_and(|o| o != executor && may_speculate_on(o));
            (admitted && !self.tried[executor].contains(&p)).then_some((p, slot.epoch))
        })?;
        self.tried[executor].insert(pivot);
        Some(Work {
            pivot,
            epoch,
            kind: WorkKind::Speculative,
        })
    }

    /// Pops `executor`'s queue down to the first pivot still uncommitted (a
    /// requeued pivot may have been committed by a speculator meanwhile).
    fn pop_own(&mut self, executor: usize, kind: WorkKind) -> Option<Work> {
        while let Some(pivot) = self.queues[executor].pop_front() {
            let slot = self.slot(pivot).expect("queued pivots have slots");
            if slot.committed.is_none() {
                let epoch = slot.epoch;
                self.in_flight.insert(pivot);
                return Some(Work { pivot, epoch, kind });
            }
        }
        None
    }

    /// Moves `len.div_ceil(2)` pivots from the back of the longest live
    /// queue (lowest executor on ties) onto `thief`'s, the victim's last
    /// pivot first. A steal is an ordinary transfer: no epoch changes.
    fn take_half_of_longest(&mut self, thief: usize) -> bool {
        let victim = (0..self.queues.len())
            .filter(|&v| v != thief && self.live[v])
            .max_by_key(|&v| (self.queues[v].len(), Reverse(v)));
        let Some(victim) = victim else {
            return false;
        };
        let take = self.queues[victim].len().div_ceil(2);
        for _ in 0..take {
            let pivot = self.queues[victim].pop_back().expect("take <= len");
            self.slot(pivot).expect("queued pivots have slots").owner = Some(thief);
            self.queues[thief].push_back(pivot);
        }
        take > 0
    }

    /// Commits `count` for `pivot` under `epoch`. The first commit under
    /// the current epoch wins; a stale epoch, a duplicate or an unknown
    /// pivot is rejected, counted in [`Recovery::rejected`], and changes
    /// nothing else.
    pub fn commit(&mut self, pivot: VertexId, epoch: u32, count: u64) -> bool {
        match self.slot(pivot) {
            Some(slot) if slot.committed.is_none() && slot.epoch == epoch => {
                slot.committed = Some(count);
                self.in_flight.remove(&pivot);
                self.remaining -= 1;
                true
            }
            _ => {
                self.rejected += 1;
                false
            }
        }
    }

    /// Returns a pivot `executor` was handed as its own (not speculatively)
    /// to the front of its queue — the execution failed and will be
    /// retried. Anything else (committed meanwhile, re-homed, speculative)
    /// is left alone.
    pub fn requeue(&mut self, executor: usize, pivot: VertexId) {
        let owned = self
            .slot(pivot)
            .is_some_and(|s| s.committed.is_none() && s.owner == Some(executor));
        if owned && self.in_flight.remove(&pivot) {
            self.queues[executor].push_front(pivot);
        }
    }

    /// Declares `executor` dead: every uncommitted pivot it owned, queued
    /// or in flight, gets its epoch bumped and is re-homed round-robin (in
    /// pivot order) on the live executors. Returns the non-empty batches as
    /// `(new home, pivots)`; with nobody alive the orphans are parked and
    /// nothing is returned.
    pub fn declare_dead(&mut self, executor: usize) -> Vec<(usize, Vec<VertexId>)> {
        self.live[executor] = false;
        self.queues[executor].clear();
        let survivors: Vec<usize> = (0..self.live.len()).filter(|&e| self.live[e]).collect();
        let mut batches: Vec<(usize, Vec<VertexId>)> =
            survivors.iter().map(|&s| (s, Vec::new())).collect();
        let mut orphans = 0usize;
        for slot in &mut self.slots {
            if slot.committed.is_some() || slot.owner != Some(executor) {
                continue;
            }
            slot.epoch += 1;
            self.in_flight.remove(&slot.pivot);
            if survivors.is_empty() {
                slot.owner = None;
            } else {
                let (home, batch) = &mut batches[orphans % survivors.len()];
                slot.owner = Some(*home);
                self.queues[*home].push_back(slot.pivot);
                batch.push(slot.pivot);
            }
            orphans += 1;
        }
        batches.retain(|(_, batch)| !batch.is_empty());
        batches
    }

    /// Marks `executor` alive again (a restarted process rejoined) and
    /// gives it whatever was parked while nobody was.
    pub fn revive(&mut self, executor: usize) {
        self.live[executor] = true;
        for slot in &mut self.slots {
            if slot.owner.is_none() && slot.committed.is_none() {
                slot.owner = Some(executor);
                self.queues[executor].push_back(slot.pivot);
            }
        }
    }

    /// Pivots not yet committed.
    pub fn remaining(&self) -> usize {
        self.remaining
    }

    /// Every uncommitted pivot with its current epoch, in pivot order —
    /// what a driver runs itself when no executor is left to.
    pub fn uncommitted(&self) -> Vec<(VertexId, u32)> {
        self.slots
            .iter()
            .filter(|s| s.committed.is_none())
            .map(|s| (s.pivot, s.epoch))
            .collect()
    }

    /// Sum of the committed counts: the answer once
    /// [`Recovery::remaining`] is 0.
    pub fn total(&self) -> u64 {
        self.slots.iter().filter_map(|s| s.committed).sum()
    }

    /// Commits rejected as stale, duplicate or unknown.
    pub fn rejected(&self) -> u64 {
        self.rejected
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ceci_graph::vid;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn vids(ids: &[u32]) -> Vec<VertexId> {
        ids.iter().map(|&i| vid(i)).collect()
    }

    fn anybody(_: usize) -> bool {
        true
    }

    fn nobody(_: usize) -> bool {
        false
    }

    #[test]
    fn first_commit_under_the_current_epoch_wins() {
        // A pivot named twice keeps its first home.
        let mut core = Recovery::new(&[vids(&[3, 1]), vids(&[7, 1])], true);
        assert_eq!(core.remaining(), 3);
        let a = core.next(0, nobody).unwrap();
        assert_eq!((a.pivot, a.epoch, a.kind), (vid(3), 0, WorkKind::Own));
        assert!(core.commit(a.pivot, a.epoch, 10));
        assert!(!core.commit(a.pivot, a.epoch, 99), "duplicate rejected");
        assert!(!core.commit(vid(42), 0, 1), "unknown pivot rejected");
        assert_eq!((core.remaining(), core.rejected()), (2, 2));
        // Executor 0 dies holding pivot 1: its commit is a zombie's.
        let b = core.next(0, nobody).unwrap();
        assert_eq!(core.declare_dead(0), vec![(1, vids(&[1]))]);
        assert!(!core.commit(b.pivot, b.epoch, 99), "stale epoch must lose");
        assert_eq!(core.rejected(), 3);
        assert!(core.next(0, anybody).is_none(), "the dead get no work");
        let c = core.next(1, nobody).unwrap();
        assert_eq!((c.pivot, c.epoch), (vid(7), 0));
        assert!(core.commit(c.pivot, c.epoch, 8));
        let d = core.next(1, nobody).unwrap();
        assert_eq!((d.pivot, d.epoch), (vid(1), b.epoch + 1));
        assert!(core.commit(d.pivot, d.epoch, 42));
        assert_eq!((core.remaining(), core.total()), (0, 10 + 8 + 42));
    }

    #[test]
    fn a_steal_takes_the_back_half_of_the_longest_live_queue() {
        let mut core = Recovery::new(&[vids(&[1, 2, 3, 4, 5]), vec![], vids(&[8, 9])], true);
        // ceil(5 / 2) = 3 pivots leave executor 0's back; the thief starts
        // on the first of the batch and keeps the rest.
        let got = core.next(1, nobody).unwrap();
        assert_eq!((got.pivot, got.kind), (vid(5), WorkKind::Stolen));
        assert_eq!(core.next(1, nobody).unwrap().pivot, vid(4));
        let own = core.next(1, nobody).unwrap();
        assert_eq!((own.pivot, own.kind, own.epoch), (vid(3), WorkKind::Own, 0));
        // Ties go to the lowest executor: 0 and 2 both hold two.
        assert_eq!(core.next(1, nobody).unwrap().pivot, vid(2));
        assert_eq!(core.next(0, nobody).unwrap().pivot, vid(1));
        // With stealing off an empty queue is the end of the road.
        let mut fixed = Recovery::new(&[vids(&[1, 2]), vec![]], false);
        assert!(fixed.next(1, nobody).is_none());
    }

    #[test]
    fn speculation_targets_in_flight_pivots_of_admitted_others_once() {
        let mut core = Recovery::new(&[vids(&[1]), vids(&[2]), vids(&[3])], false);
        let own = core.next(0, nobody).unwrap();
        let theirs = core.next(1, nobody).unwrap();
        // Pivot 3 is queued, not in flight; pivot 1 is the caller's own.
        let only_one = |e: usize| e == 1;
        let spec = core.next(0, only_one).unwrap();
        assert_eq!(
            (spec.pivot, spec.epoch, spec.kind),
            (theirs.pivot, theirs.epoch, WorkKind::Speculative)
        );
        assert!(core.next(0, anybody).is_none(), "each pivot at most once");
        assert!(core.next(2, |e| e == 0).is_some_and(|w| w.pivot == vid(3)));
        assert_eq!(core.next(2, |e| e == 0).unwrap().pivot, own.pivot);
        // First commit wins; the owner's is then the duplicate, and a
        // committed pivot is nobody's target any more.
        assert!(core.commit(spec.pivot, spec.epoch, 5));
        assert!(!core.commit(theirs.pivot, theirs.epoch, 5));
        assert!(core.next(2, |e| e == 1).is_none());
        // A failed speculation is not the speculator's to requeue.
        core.requeue(2, own.pivot);
        assert!(core.next(2, nobody).is_none());
        core.requeue(0, own.pivot);
        assert_eq!(core.next(0, nobody), Some(own));
    }

    #[test]
    fn orphans_only_go_to_the_living() {
        let mut core = Recovery::new(&[vids(&[1, 2, 3]), vids(&[4, 5]), vec![]], true);
        let in_flight = core.next(0, nobody).unwrap();
        // Executor 1 dies first: its pivots spread over 0 and 2.
        assert_eq!(core.declare_dead(1), vec![(0, vids(&[4])), (2, vids(&[5]))]);
        // Then 0 dies: queued and in-flight alike go to 2, the only one
        // left, under a bumped epoch — none to the dead executor 1.
        assert_eq!(core.declare_dead(0), vec![(2, vids(&[1, 2, 3, 4]))]);
        assert!(!core.commit(in_flight.pivot, in_flight.epoch, 7));
        let epochs: Vec<u32> = core.uncommitted().iter().map(|&(_, e)| e).collect();
        assert_eq!(epochs, [1, 1, 1, 2, 1]);
        // With all three dead the work is parked, still listed for the
        // caller's fallback, and goes to whoever rejoins first.
        assert!(core.declare_dead(2).is_empty());
        assert_eq!(core.uncommitted().len(), 5);
        assert!((0..3).all(|e| core.next(e, anybody).is_none()));
        core.revive(1);
        let first = core.next(1, nobody).unwrap();
        assert_eq!((first.pivot, first.epoch), (vid(1), 2));
    }

    /// The count every execution of a pivot's cluster produces.
    fn count_of(pivot: VertexId) -> u64 {
        pivot.0 as u64 * 3 + 1
    }

    /// What the protocol promises, tracked without queues or owners: per
    /// pivot the current epoch and the one committed count.
    struct Model {
        slots: BTreeMap<VertexId, (u32, Option<u64>)>,
        live: Vec<bool>,
        rejected: u64,
    }

    impl Model {
        fn commit(&mut self, core: &mut Recovery, pivot: VertexId, epoch: u32) {
            let before = core.total();
            let accepted = core.commit(pivot, epoch, count_of(pivot));
            match self.slots.get_mut(&pivot) {
                Some((current, committed)) if committed.is_none() && *current == epoch => {
                    assert!(accepted, "{pivot:?}@{epoch} is current and first");
                    *committed = Some(count_of(pivot));
                }
                _ => {
                    assert!(!accepted, "{pivot:?}@{epoch} is stale or duplicate");
                    assert_eq!(core.total(), before);
                    self.rejected += 1;
                }
            }
        }

        /// Epochs only ever move by a declared death, and then by one.
        fn adopt_epochs(&mut self, core: &Recovery, bumped: &[VertexId]) {
            for (pivot, epoch) in core.uncommitted() {
                let (known, committed) = self.slots.get_mut(&pivot).unwrap();
                assert!(committed.is_none());
                let by = u32::from(bumped.contains(&pivot));
                let parked = !self.live.contains(&true);
                assert!(epoch == *known + by || (parked && epoch == *known + 1));
                *known = epoch;
            }
        }

        fn check(&self, core: &Recovery) {
            let committed = || self.slots.values().filter_map(|&(_, c)| c);
            assert_eq!(core.total(), committed().sum::<u64>());
            assert_eq!(core.remaining(), self.slots.len() - committed().count());
            assert_eq!(core.rejected(), self.rejected);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn any_schedule_commits_every_pivot_exactly_once(
            placed in proptest::collection::vec((0u32..48, 0usize..5), 0..40),
            executors in 1usize..6,
            stealing in 0u8..2,
            ops in proptest::collection::vec((0u8..9, 0usize..64, 0u32..3), 0..160),
        ) {
            let mut assignment = vec![Vec::new(); executors];
            for &(p, e) in &placed {
                assignment[e % executors].push(vid(p));
            }
            let mut core = Recovery::new(&assignment, stealing == 1);
            let mut model = Model {
                slots: placed.iter().map(|&(p, _)| (vid(p), (0, None))).collect(),
                live: vec![true; executors],
                rejected: 0,
            };
            // Work handed out and not yet answered — by the living, by
            // zombies, by speculators.
            let mut handed: Vec<(usize, Work)> = Vec::new();
            for &(op, a, b) in &ops {
                let e = a % executors;
                match op {
                    0..=2 => {
                        if let Some(work) = core.next(e, |o| (o + b as usize) % 2 == 0) {
                            prop_assert!(model.live[e], "work for dead executor {e}");
                            prop_assert_eq!(model.slots[&work.pivot], (work.epoch, None));
                            handed.push((e, work));
                        }
                    }
                    3 | 4 if !handed.is_empty() => {
                        // Current (possibly stale by now), then a duplicate.
                        let (_, work) = handed.swap_remove(a % handed.len());
                        model.commit(&mut core, work.pivot, work.epoch);
                        if b == 1 {
                            model.commit(&mut core, work.pivot, work.epoch);
                        }
                    }
                    5 if !handed.is_empty() => {
                        let (_, work) = handed[a % handed.len()];
                        model.commit(&mut core, work.pivot, work.epoch.wrapping_add(b + 1));
                    }
                    6 if !handed.is_empty() => {
                        let (owner, work) = handed.swap_remove(a % handed.len());
                        core.requeue(owner, work.pivot);
                    }
                    7 => {
                        model.live[e] = false;
                        let batches = core.declare_dead(e);
                        prop_assert!(batches.iter().all(|&(home, _)| model.live[home]));
                        let bumped: Vec<VertexId> =
                            batches.into_iter().flat_map(|(_, batch)| batch).collect();
                        model.adopt_epochs(&core, &bumped);
                        // Whatever the dead executor had in flight as its
                        // own is now a zombie's.
                        for &(owner, work) in &handed {
                            let (epoch, committed) = model.slots[&work.pivot];
                            if owner == e && work.kind != WorkKind::Speculative {
                                prop_assert!(committed.is_some() || epoch > work.epoch);
                            }
                        }
                    }
                    8 => {
                        model.live[e] = true;
                        core.revive(e);
                    }
                    _ => {}
                }
                model.check(&core);
            }

            // Every outstanding answer arrives, late or not; then whoever
            // is alive works until there is nothing left to hand out.
            for (_, work) in handed.drain(..) {
                model.commit(&mut core, work.pivot, work.epoch);
            }
            for e in (0..executors).cycle().take(executors * (placed.len() + 1)) {
                if let Some(work) = core.next(e, anybody) {
                    model.commit(&mut core, work.pivot, work.epoch);
                }
            }
            model.check(&core);
            let alive = model.live.contains(&true);
            if alive {
                prop_assert_eq!(core.remaining(), 0);
            } else {
                prop_assert!((0..executors).all(|e| core.next(e, anybody).is_none()));
            }
            // What nobody is left to run, the caller drains itself.
            for (pivot, epoch) in core.uncommitted() {
                model.commit(&mut core, pivot, epoch);
            }
            model.check(&core);
            prop_assert_eq!(core.remaining(), 0);
            prop_assert_eq!(core.total(), model.slots.keys().map(|&p| count_of(p)).sum::<u64>());
            prop_assert_eq!(core.rejected(), model.rejected);
        }
    }
}
