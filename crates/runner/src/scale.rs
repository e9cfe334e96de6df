//! Experiment budget scaling.
//!
//! Lives in the runner (rather than the bench harness) because the
//! execution engine keys journal fingerprints on the budget: a segment
//! recorded at one scale must never satisfy a request at another.

use mtm_core::RunOptions;
use serde::{Deserialize, Serialize};

/// How faithfully to reproduce the paper's budgets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Scale {
    /// The paper's protocol: 60-step passes (180 for `bo180`), 2 passes,
    /// 30 confirmation runs.
    Paper,
    /// Reduced budgets: 30/90 steps, 2 passes, 10 confirmations.
    Fast,
    /// Seconds-scale smoke run used by integration tests.
    Smoke,
}

impl Scale {
    /// Read from `MTM_SCALE` (`paper` | `fast` | `smoke`), defaulting to
    /// `Paper`.
    pub fn from_env() -> Scale {
        match std::env::var("MTM_SCALE").as_deref() {
            Ok("fast") => Scale::Fast,
            Ok("smoke") => Scale::Smoke,
            _ => Scale::Paper,
        }
    }

    /// Parse a scale label (`paper` | `fast` | `smoke`).
    pub fn parse(label: &str) -> Option<Scale> {
        match label {
            "paper" => Some(Scale::Paper),
            "fast" => Some(Scale::Fast),
            "smoke" => Some(Scale::Smoke),
            _ => None,
        }
    }

    /// Steps of a standard optimization pass.
    pub fn steps(&self) -> usize {
        match self {
            Scale::Paper => 60,
            Scale::Fast => 30,
            Scale::Smoke => 6,
        }
    }

    /// Steps of the extended (`bo180`) pass.
    pub fn steps_extended(&self) -> usize {
        match self {
            Scale::Paper => 180,
            Scale::Fast => 90,
            Scale::Smoke => 12,
        }
    }

    /// Confirmation re-runs of the best configuration.
    pub fn confirms(&self) -> usize {
        match self {
            Scale::Paper => 30,
            Scale::Fast => 10,
            Scale::Smoke => 3,
        }
    }

    /// Optimization passes per experiment.
    pub fn passes(&self) -> usize {
        match self {
            Scale::Smoke => 1,
            _ => 2,
        }
    }

    /// Label used in journal-segment directory names.
    pub fn label(&self) -> &'static str {
        match self {
            Scale::Paper => "paper",
            Scale::Fast => "fast",
            Scale::Smoke => "smoke",
        }
    }

    /// Standard run options at this scale.
    pub fn run_options(&self, seed: u64) -> RunOptions {
        RunOptions {
            max_steps: self.steps(),
            confirm_reps: self.confirms(),
            passes: self.passes(),
            seed,
            ..Default::default()
        }
    }

    /// Extended (`bo180`) run options at this scale.
    pub fn run_options_extended(&self, seed: u64) -> RunOptions {
        RunOptions {
            max_steps: self.steps_extended(),
            ..self.run_options(seed)
        }
    }

    /// Run options for the strategy `label` at this scale: `bo180` takes
    /// the extended pass, every other label the standard one.
    pub fn run_options_for(&self, label: &str, seed: u64) -> RunOptions {
        if label == "bo180" {
            self.run_options_extended(seed)
        } else {
            self.run_options(seed)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budgets_shrink_with_scale() {
        assert!(Scale::Paper.steps() > Scale::Fast.steps());
        assert!(Scale::Fast.steps() > Scale::Smoke.steps());
        assert_eq!(Scale::Paper.steps(), 60);
        assert_eq!(Scale::Paper.steps_extended(), 180);
        assert_eq!(Scale::Paper.confirms(), 30);
        assert_eq!(Scale::Paper.passes(), 2);
    }

    #[test]
    fn options_carry_budgets() {
        let o = Scale::Fast.run_options(9);
        assert_eq!(o.max_steps, 30);
        assert_eq!(o.seed, 9);
        let e = Scale::Fast.run_options_extended(9);
        assert_eq!(e.max_steps, 90);
        assert_eq!(Scale::Fast.run_options_for("bo180", 9).max_steps, 90);
        assert_eq!(Scale::Fast.run_options_for("bo", 9).max_steps, 30);
    }

    #[test]
    fn labels_round_trip() {
        for s in [Scale::Paper, Scale::Fast, Scale::Smoke] {
            assert_eq!(Scale::parse(s.label()), Some(s));
        }
        assert_eq!(Scale::parse("warp"), None);
    }
}
