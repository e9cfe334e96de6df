//! Deterministic fault injection and the retry policy.
//!
//! Real clusters drop trials: a worker dies, a run times out, a
//! measurement never reports. The runner's recovery path (retry with a
//! derived run id, journal the attempt count, give up after a bounded
//! number of tries) needs exercising without a real cluster, so failures
//! are *injected* — decided by a pure function of `(plan seed, run id,
//! attempt)`, which keeps serial, parallel and resumed runs identical.

use serde::{Deserialize, Serialize};

use crate::hash::{splitmix64, unit_f64};

/// Fault-injection and retry policy for one experiment.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Probability that any single measurement attempt fails.
    pub fail_rate: f64,
    /// Seed of the injection draws (independent of measurement noise).
    pub seed: u64,
    /// Extra attempts after the first failure; a trial that exhausts
    /// `1 + max_retries` attempts reports zero throughput (a "run that
    /// never came back", which the protocol already handles).
    pub max_retries: u32,
    /// Advisory wall-clock budget per measurement; exceeding it logs a
    /// warning but never alters results (a hard kill would make outcomes
    /// schedule-dependent).
    pub timeout_s: f64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            fail_rate: 0.0,
            seed: 0xFA11,
            max_retries: 2,
            timeout_s: 60.0,
        }
    }
}

impl FaultPlan {
    /// A plan that injects failures at `rate` (for tests and the CLI's
    /// `--fail-rate`, which refuses anything outside [0, 1]). `rate` is
    /// clamped to [0, 1]; a NaN rate injects nothing.
    pub fn with_rate(rate: f64) -> FaultPlan {
        FaultPlan {
            fail_rate: rate.clamp(0.0, 1.0),
            ..Default::default()
        }
    }

    /// Deterministically decide whether attempt `attempt` of the
    /// measurement with `run_id` fails.
    pub fn injects_failure(&self, run_id: u64, attempt: u32) -> bool {
        if self.fail_rate <= 0.0 {
            return false;
        }
        let draw = splitmix64(
            self.seed
                ^ run_id.rotate_left(17)
                ^ (attempt as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        );
        unit_f64(draw) < self.fail_rate
    }

    /// Run id for retry attempt `attempt` of a trial whose first attempt
    /// used `base_run_id`. Attempt 0 is the base id itself, so a
    /// zero-fault run derives exactly the protocol's ids; retries salt
    /// the high bits to draw fresh measurement noise.
    pub fn attempt_run_id(&self, base_run_id: u64, attempt: u32) -> u64 {
        if attempt == 0 {
            base_run_id
        } else {
            base_run_id.wrapping_add((attempt as u64) << 40)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_rate_never_fails() {
        let plan = FaultPlan::default();
        for run in 0..500u64 {
            assert!(!plan.injects_failure(run, 0));
        }
    }

    #[test]
    fn rate_is_roughly_respected_and_deterministic() {
        let plan = FaultPlan::with_rate(0.3);
        let fails: usize = (0..10_000u64)
            .filter(|&r| plan.injects_failure(r, 0))
            .count();
        assert!(
            (2_400..3_600).contains(&fails),
            "expected ~30% failures, got {fails}/10000"
        );
        // Pure function: same inputs, same outcome.
        for r in 0..100u64 {
            assert_eq!(plan.injects_failure(r, 1), plan.injects_failure(r, 1));
        }
    }

    #[test]
    fn attempts_draw_independently() {
        let plan = FaultPlan::with_rate(0.5);
        let differs = (0..200u64).any(|r| plan.injects_failure(r, 0) != plan.injects_failure(r, 1));
        assert!(differs, "attempt index must reshuffle the draw");
    }

    #[test]
    fn attempt_zero_keeps_the_protocol_run_id() {
        let plan = FaultPlan::default();
        assert_eq!(plan.attempt_run_id(42, 0), 42);
        assert_ne!(plan.attempt_run_id(42, 1), 42);
        assert_ne!(plan.attempt_run_id(42, 1), plan.attempt_run_id(42, 2));
    }
}
