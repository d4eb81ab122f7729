//! Deterministic fault injection for the distributed simulation.
//!
//! A [`FaultPlan`] is a *seeded, virtual-time* description of everything
//! that goes wrong during a run: machine crashes pinned to a point on the
//! machine's deterministic virtual-progress clock, straggler slowdown
//! factors that inflate a machine's virtual time (and trigger speculative
//! re-execution on idle peers), and a steal-message loss probability drawn
//! from a counter-indexed hash — never from wall-clock state — so the same
//! plan injects the same faults on every run, on any host, at any thread
//! count.
//!
//! The *consequences* of a fault replay too: the simulation is a
//! single-threaded discrete-event scheduler ([`crate::run`]) whose order of
//! events is a function of the plan and the cluster configuration alone, so
//! which cluster a machine was running when it died, what was re-scattered
//! where, and every recovery metric come out the same on every run. Match
//! counts are bit-identical under *any* plan regardless, because recovery
//! is per-pivot ownership epochs and first-commit-wins accounting
//! ([`crate::recovery`]).

use std::fmt;
use std::time::Duration;

use ceci_query::splitmix64;

/// Maps a hash to a uniform draw in `[0, 1)`.
#[inline]
fn unit_uniform(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// A machine crash pinned to the machine's virtual-progress clock: the
/// machine dies when its accumulated virtual work first crosses
/// `after_virtual`. The cluster whose completion crosses the line is lost
/// (its partial results are discarded), in-flight sibling enumerations are
/// cancelled, and everything uncommitted the machine owned is re-scattered
/// to survivors under a bumped ownership epoch.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CrashFault {
    /// Machine index that dies.
    pub machine: usize,
    /// Virtual progress at which it dies (`Duration::ZERO` = on its first
    /// completed cluster).
    pub after_virtual: Duration,
}

/// A straggler: the machine's virtual clock runs `slowdown`× slower per
/// unit of work (its *real* compute is unchanged — the simulation models
/// the slowdown rather than sleeping). Machines at or above
/// [`crate::run::STRAGGLER_THRESHOLD`] become targets for speculative
/// re-execution.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StragglerFault {
    /// Machine index that straggles.
    pub machine: usize,
    /// Virtual slowdown factor (must be ≥ 1).
    pub slowdown: f64,
}

/// A complete, deterministic fault schedule for one distributed run.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultPlan {
    /// Seed for all probabilistic draws (steal loss).
    pub seed: u64,
    /// Machine crashes (at most one per machine; later entries for the
    /// same machine are ignored by [`FaultPlan::crash_nanos_for`]).
    pub crashes: Vec<CrashFault>,
    /// Straggler slowdowns.
    pub stragglers: Vec<StragglerFault>,
    /// Probability in `[0, 1]` that any one steal request is lost on the
    /// wire (the thief pays the message latency and retries).
    pub steal_loss: f64,
    /// Virtual time charged per unit of pivot workload estimate — the
    /// exchange rate between [`crate::partition`] estimates and the
    /// virtual-progress clock crashes are pinned to.
    pub unit_cost: Duration,
}

/// Why [`FaultPlan::validate`] refused a plan.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FaultPlanError {
    /// The steal-loss probability is outside `[0, 1]`.
    StealLoss(f64),
    /// A crash or straggler entry names a machine the cluster does not have.
    MachineOutOfRange {
        /// `"crash"` or `"straggler"`.
        fault: &'static str,
        /// The machine the entry names.
        machine: usize,
        /// Machines in the cluster.
        machines: usize,
    },
    /// Every machine crashes: nobody is left to recover onto.
    NoSurvivor,
    /// A straggler slowdown is not a finite value ≥ 1.
    Slowdown(f64),
}

impl fmt::Display for FaultPlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            FaultPlanError::StealLoss(p) => write!(f, "steal_loss {p} outside [0, 1]"),
            FaultPlanError::MachineOutOfRange {
                fault,
                machine,
                machines,
            } => write!(
                f,
                "{fault} names machine {machine} but the cluster has {machines}"
            ),
            FaultPlanError::NoSurvivor => {
                write!(f, "every machine crashes: no survivor to recover onto")
            }
            FaultPlanError::Slowdown(s) => write!(f, "slowdown {s} must be a finite value ≥ 1"),
        }
    }
}

impl std::error::Error for FaultPlanError {}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::new(0)
    }
}

impl FaultPlan {
    /// An empty plan (no faults) with the given seed.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            crashes: Vec::new(),
            stragglers: Vec::new(),
            steal_loss: 0.0,
            unit_cost: Duration::from_micros(1),
        }
    }

    /// Adds a crash of `machine` once its virtual progress crosses
    /// `after_virtual`.
    pub fn crash(mut self, machine: usize, after_virtual: Duration) -> Self {
        self.crashes.push(CrashFault {
            machine,
            after_virtual,
        });
        self
    }

    /// Adds a straggler slowdown for `machine`.
    pub fn straggler(mut self, machine: usize, slowdown: f64) -> Self {
        self.stragglers.push(StragglerFault { machine, slowdown });
        self
    }

    /// Sets the steal-message loss probability.
    pub fn with_steal_loss(mut self, p: f64) -> Self {
        self.steal_loss = p;
        self
    }

    /// Sets the workload→virtual-time exchange rate.
    pub fn with_unit_cost(mut self, unit_cost: Duration) -> Self {
        self.unit_cost = unit_cost;
        self
    }

    /// True when the plan injects nothing at all.
    pub fn is_noop(&self) -> bool {
        self.crashes.is_empty() && self.stragglers.is_empty() && self.steal_loss == 0.0
    }

    /// Validates the plan against a cluster of `machines` machines:
    /// at least one machine must survive, probabilities must be in
    /// `[0, 1]`, slowdowns ≥ 1, and machine indexes in range.
    pub fn validate(&self, machines: usize) -> Result<(), FaultPlanError> {
        if !(0.0..=1.0).contains(&self.steal_loss) {
            return Err(FaultPlanError::StealLoss(self.steal_loss));
        }
        let out_of_range = |fault, machine| FaultPlanError::MachineOutOfRange {
            fault,
            machine,
            machines,
        };
        let mut crashed = vec![false; machines];
        for c in &self.crashes {
            if c.machine >= machines {
                return Err(out_of_range("crash", c.machine));
            }
            crashed[c.machine] = true;
        }
        if machines > 0 && crashed.iter().all(|&c| c) {
            return Err(FaultPlanError::NoSurvivor);
        }
        for s in &self.stragglers {
            if s.machine >= machines {
                return Err(out_of_range("straggler", s.machine));
            }
            // `is_finite` rejects NaN, so the plain `<` comparison is safe.
            if !s.slowdown.is_finite() || s.slowdown < 1.0 {
                return Err(FaultPlanError::Slowdown(s.slowdown));
            }
        }
        Ok(())
    }

    /// The crash point of `machine` on its virtual clock, in nanoseconds
    /// (first matching entry wins). `None` = the machine never crashes.
    pub fn crash_nanos_for(&self, machine: usize) -> Option<u64> {
        self.crashes
            .iter()
            .find(|c| c.machine == machine)
            .map(|c| (c.after_virtual.as_nanos() as u64).max(1))
    }

    /// The straggler slowdown of `machine` (1.0 when not a straggler).
    pub fn slowdown_for(&self, machine: usize) -> f64 {
        self.stragglers
            .iter()
            .find(|s| s.machine == machine)
            .map(|s| s.slowdown.max(1.0))
            .unwrap_or(1.0)
    }

    /// Deterministic draw: is steal attempt number `attempt` by machine
    /// `thief` lost on the wire?
    pub fn steal_lost(&self, thief: usize, attempt: u64) -> bool {
        if self.steal_loss <= 0.0 {
            return false;
        }
        let h =
            splitmix64(self.seed ^ splitmix64(0x57EA_1000 ^ thief as u64) ^ splitmix64(attempt));
        unit_uniform(h) < self.steal_loss
    }

    /// Virtual work in nanoseconds for one cluster with workload
    /// `estimate`, under `machine`'s slowdown. Returns `(total, straggle)`
    /// where `straggle` is the slowdown-induced share of `total`.
    pub fn virtual_work_nanos(&self, machine: usize, estimate: f64) -> (u64, u64) {
        let unit = self.unit_cost.as_nanos() as f64;
        let slowdown = self.slowdown_for(machine);
        let base = estimate.max(1.0) * unit;
        let total = base * slowdown;
        ((total as u64).max(1), (total - base) as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_and_builders() {
        let p = FaultPlan::new(7);
        assert!(p.is_noop());
        let p = p
            .crash(1, Duration::from_millis(5))
            .straggler(0, 4.0)
            .with_steal_loss(0.25)
            .with_unit_cost(Duration::from_micros(2));
        assert!(!p.is_noop());
        assert_eq!(p.crash_nanos_for(1), Some(5_000_000));
        assert_eq!(p.crash_nanos_for(0), None);
        assert_eq!(p.slowdown_for(0), 4.0);
        assert_eq!(p.slowdown_for(1), 1.0);
        assert!(p.validate(2).is_ok());
    }

    #[test]
    fn validate_rejects_bad_plans() {
        assert!(FaultPlan::new(0)
            .crash(0, Duration::ZERO)
            .crash(1, Duration::ZERO)
            .validate(2)
            .is_err());
        assert!(FaultPlan::new(0)
            .crash(5, Duration::ZERO)
            .validate(2)
            .is_err());
        assert!(FaultPlan::new(0).with_steal_loss(1.5).validate(2).is_err());
        assert!(FaultPlan::new(0).straggler(0, 0.5).validate(2).is_err());
        assert!(FaultPlan::new(0)
            .crash(0, Duration::ZERO)
            .validate(2)
            .is_ok());
    }

    #[test]
    fn steal_loss_draws_are_deterministic_and_roughly_calibrated() {
        let p = FaultPlan::new(42).with_steal_loss(0.3);
        let q = FaultPlan::new(42).with_steal_loss(0.3);
        let lost: Vec<bool> = (0..1000).map(|a| p.steal_lost(1, a)).collect();
        let again: Vec<bool> = (0..1000).map(|a| q.steal_lost(1, a)).collect();
        assert_eq!(lost, again, "same seed, same draws");
        let rate = lost.iter().filter(|&&l| l).count() as f64 / 1000.0;
        assert!((rate - 0.3).abs() < 0.08, "observed loss rate {rate}");
        // A different seed gives a different sequence.
        let other = FaultPlan::new(43).with_steal_loss(0.3);
        let seq: Vec<bool> = (0..1000).map(|a| other.steal_lost(1, a)).collect();
        assert_ne!(lost, seq);
        // Zero probability never loses.
        assert!((0..100).all(|a| !FaultPlan::new(42).steal_lost(0, a)));
    }

    #[test]
    fn virtual_work_scales_with_slowdown() {
        let p = FaultPlan::new(0).straggler(2, 3.0);
        let (fast, fast_straggle) = p.virtual_work_nanos(0, 10.0);
        let (slow, slow_straggle) = p.virtual_work_nanos(2, 10.0);
        assert_eq!(fast, 10_000);
        assert_eq!(fast_straggle, 0);
        assert_eq!(slow, 30_000);
        assert_eq!(slow_straggle, 20_000);
    }
}
