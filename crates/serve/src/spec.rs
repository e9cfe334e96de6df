//! What one tuning session runs.
//!
//! A [`SessionSpec`] is the service-side equivalent of one grid cell: it
//! pins everything that shapes results — topology size and condition,
//! strategy, budget scale and seed — so a session executed by the daemon
//! is bitwise-identical to the same experiment run by the batch CLI. The
//! spec travels over the wire (submit), into the admission journal, and
//! into the per-session metadata segment, so it is `serde`-round-trippable
//! and validated once at admission.

use serde::{Deserialize, Serialize};

use mtm_core::{Objective, ParamSet, RunOptions, Strategy};
use mtm_runner::grid::{cell_objective, cell_strategy};
use mtm_runner::Scale;
use mtm_stormsim::topology::TopologyBuilder;
use mtm_topogen::{Condition, SizeClass};

/// Everything that determines one session's results. Two sessions with
/// equal specs produce byte-equal canonical results, whoever runs them.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionSpec {
    /// Tenant the session is accounted against (quota key).
    pub tenant: String,
    /// Topology size class.
    pub size: SizeClass,
    /// Workload condition.
    pub condition: Condition,
    /// Strategy label (one of [`mtm_runner::STRATEGIES`]).
    pub strategy: String,
    /// Budget scale.
    pub scale: Scale,
    /// Base seed (topology generation and pass seeding).
    pub seed: u64,
}

impl SessionSpec {
    /// A smoke-scale spec — the shape tests and the soak harness submit.
    pub fn smoke(tenant: &str, strategy: &str, seed: u64) -> SessionSpec {
        SessionSpec {
            tenant: tenant.to_string(),
            size: SizeClass::Small,
            condition: Condition {
                time_imbalance: 0.0,
                contention: 0.0,
            },
            strategy: strategy.to_string(),
            scale: Scale::Smoke,
            seed,
        }
    }

    /// Reject specs the engine would choke on, before admission.
    pub fn validate(&self) -> Result<(), String> {
        if self.tenant.is_empty() || self.tenant.len() > 64 {
            return Err("tenant must be 1..=64 bytes".to_string());
        }
        if !self
            .tenant
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'-' || b == b'_')
        {
            return Err(format!(
                "tenant '{}' must be alphanumeric/dash/underscore",
                self.tenant
            ));
        }
        // The label check needs a topology, not this spec's: a one-spout
        // graph keeps admission from generating the session's topology.
        let mut probe = TopologyBuilder::new("probe");
        probe.spout("s", 1.0);
        let probe = probe.build().map_err(|e| e.to_string())?;
        Strategy::by_name(&self.strategy, &probe, ParamSet::Hints, self.seed).map(drop)
    }

    /// Experiment id recorded in the session's journal header.
    pub fn exp_id(&self, session: &str) -> String {
        format!(
            "serve/{}/{}/{}",
            self.tenant,
            session,
            self.strategy.as_str()
        )
    }

    /// The measurement objective: a grid cell's, with the spec's own seed.
    pub fn objective(&self) -> Objective {
        cell_objective(self.size, &self.condition, self.seed)
    }

    /// Run options at the spec's scale (`bo180` takes the extended pass).
    pub fn run_options(&self) -> RunOptions {
        self.scale.run_options_for(&self.strategy, self.seed)
    }

    /// Per-pass strategy factory, keyed on the pass seed like the grid's.
    pub fn strategy_factory(&self) -> impl Fn(u64) -> Strategy + Sync {
        cell_strategy(&self.strategy, &self.objective())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_spec_is_valid_and_round_trips() {
        let spec = SessionSpec::smoke("acme", "bo", 7);
        spec.validate().unwrap();
        let json = serde_json::to_string(&spec).unwrap();
        let back: SessionSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(spec, back);
        assert_eq!(spec.exp_id("s42"), "serve/acme/s42/bo");
    }

    #[test]
    fn bad_specs_are_rejected() {
        assert!(SessionSpec::smoke("", "bo", 1).validate().is_err());
        assert!(SessionSpec::smoke("a b", "bo", 1).validate().is_err());
        assert!(SessionSpec::smoke("ok", "warp", 1).validate().is_err());
        let long = "x".repeat(65);
        assert!(SessionSpec::smoke(&long, "bo", 1).validate().is_err());
    }

    #[test]
    fn every_grid_label_is_admitted_and_dispatched() {
        for label in mtm_runner::STRATEGIES {
            let spec = SessionSpec::smoke("acme", label, 7);
            spec.validate().unwrap();
            let make = spec.strategy_factory();
            let expected = if label == "bo180" { "bo" } else { label };
            assert_eq!(make(1).name(), expected);
        }
    }

    #[test]
    fn bo180_takes_the_extended_budget() {
        let spec = SessionSpec::smoke("t", "bo180", 1);
        assert_eq!(spec.run_options().max_steps, Scale::Smoke.steps_extended());
        assert_eq!(
            SessionSpec::smoke("t", "bo", 1).run_options().max_steps,
            Scale::Smoke.steps()
        );
    }
}
