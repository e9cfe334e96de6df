//! Pause/resume snapshots.
//!
//! The paper chose Spearmint partly because "it supports pausing and
//! resuming the optimization process, a feature that turned out to be
//! important in our evaluation setup" (their cluster was student
//! workstations that could disappear under them). [`Snapshot`] provides the
//! same: serialize the optimizer state to JSON, reload it later, and —
//! because per-step randomness is derived from `(seed, step)` — the resumed
//! optimizer proposes exactly what the uninterrupted one would have.

use serde::{Deserialize, Serialize};

use crate::error::BoError;
use crate::optimizer::{BayesOpt, BoConfig, Observation};
use crate::space::ParamSpace;

/// A serializable snapshot of an optimization run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Snapshot {
    /// Format version for forward compatibility.
    pub version: u32,
    /// The optimization domain.
    pub space: ParamSpace,
    /// Optimizer configuration.
    pub config: BoConfig,
    /// All completed evaluations.
    pub observations: Vec<Observation>,
}

/// Errors when loading a snapshot.
#[derive(Debug)]
pub enum SnapshotError {
    /// JSON (de)serialization failure.
    Json(serde_json::Error),
    /// Snapshot version not understood.
    UnsupportedVersion(u32),
    /// The snapshot's configuration fails [`BoConfig::validate`].
    InvalidConfig(BoError),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Json(e) => write!(f, "snapshot JSON error: {e}"),
            SnapshotError::UnsupportedVersion(v) => write!(f, "unsupported snapshot version {v}"),
            SnapshotError::InvalidConfig(e) => write!(f, "snapshot config rejected: {e}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<serde_json::Error> for SnapshotError {
    fn from(e: serde_json::Error) -> Self {
        SnapshotError::Json(e)
    }
}

const VERSION: u32 = 1;

impl Snapshot {
    /// Capture the state of an optimizer (consumes it; the optimizer can be
    /// reconstructed losslessly with [`Snapshot::resume`]).
    pub fn capture(bo: BayesOpt) -> Snapshot {
        let (space, config, observations) = bo.into_parts();
        Snapshot {
            version: VERSION,
            space,
            config,
            observations,
        }
    }

    /// Rebuild the optimizer from the snapshot, rejecting a version or a
    /// configuration it cannot run.
    pub fn resume(self) -> Result<BayesOpt, SnapshotError> {
        if self.version != VERSION {
            return Err(SnapshotError::UnsupportedVersion(self.version));
        }
        self.config
            .validate()
            .map_err(SnapshotError::InvalidConfig)?;
        Ok(BayesOpt::from_parts(
            self.space,
            self.config,
            self.observations,
        ))
    }

    /// Serialize to a JSON string.
    pub fn to_json(&self) -> Result<String, SnapshotError> {
        Ok(serde_json::to_string_pretty(self)?)
    }

    /// Deserialize from a JSON string.
    pub fn from_json(s: &str) -> Result<Snapshot, SnapshotError> {
        Ok(serde_json::from_str(s)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::BoConfig;
    use crate::space::{Param, ParamSpace, Value};
    use mtm_gp::FitOptions;

    fn run_steps(bo: &mut BayesOpt, n: usize) -> Vec<Vec<Value>> {
        let mut proposals = Vec::new();
        for _ in 0..n {
            let c = bo.propose().expect("propose");
            let y = -(c.values[0].as_float() - 0.3).powi(2);
            proposals.push(c.values.clone());
            bo.observe(c, y).expect("observe");
        }
        proposals
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let space = ParamSpace::new(vec![Param::float("x", 0.0, 1.0)]);
        let mut bo = BayesOpt::new(
            space,
            BoConfig {
                seed: 42,
                ..Default::default()
            },
        );
        run_steps(&mut bo, 6);
        let snap = Snapshot::capture(bo);
        let json = snap.to_json().unwrap();
        let restored = Snapshot::from_json(&json).unwrap().resume().unwrap();
        assert_eq!(restored.n_observations(), 6);
    }

    #[test]
    fn resume_is_equivalent_to_uninterrupted_run() {
        let space = ParamSpace::new(vec![Param::float("x", 0.0, 1.0)]);
        let cfg = BoConfig {
            seed: 7,
            fit: FitOptions::fast(),
            ..Default::default()
        };

        // Uninterrupted: 10 steps.
        let mut full = BayesOpt::new(space.clone(), cfg.clone());
        let full_proposals = run_steps(&mut full, 10);

        // Interrupted after 5, snapshotted, resumed, 5 more.
        let mut first = BayesOpt::new(space, cfg);
        let mut got = run_steps(&mut first, 5);
        let json = Snapshot::capture(first).to_json().unwrap();
        let mut resumed = Snapshot::from_json(&json).unwrap().resume().unwrap();
        got.extend(run_steps(&mut resumed, 5));

        assert_eq!(
            full_proposals, got,
            "pause/resume must not change the trajectory"
        );
    }

    #[test]
    fn unsupported_version_rejected() {
        let space = ParamSpace::new(vec![Param::float("x", 0.0, 1.0)]);
        let bo = BayesOpt::new(space, BoConfig::default());
        let mut snap = Snapshot::capture(bo);
        snap.version = 999;
        assert!(matches!(
            snap.resume(),
            Err(SnapshotError::UnsupportedVersion(999))
        ));
    }

    /// Set `key` in the `config` object of a serialized snapshot,
    /// appending it when absent.
    fn set_config_field(state: &mut serde::Value, key: &str, value: serde::Value) {
        let serde::Value::Object(pairs) = state else {
            panic!("expected an object");
        };
        let Some((_, serde::Value::Object(cfg))) = pairs.iter_mut().find(|(k, _)| k == "config")
        else {
            panic!("expected a config object");
        };
        cfg.retain(|(k, _)| k != key);
        cfg.push((key.to_string(), value));
    }

    /// `snap` as JSON, with config field `key` set to `value`.
    fn json_with_config_field(snap: &Snapshot, key: &str, value: serde::Value) -> String {
        let mut state = snap.to_value();
        set_config_field(&mut state, key, value);
        serde_json::to_string_pretty(&state).unwrap()
    }

    #[test]
    fn snapshots_with_configs_the_builder_rejects_are_refused() {
        let space = ParamSpace::new(vec![Param::float("x", 0.0, 1.0)]);
        let mut bo = BayesOpt::new(space, BoConfig::default());
        // Past the design steps, so the next proposal would size its
        // candidate pool from `n_perturb`.
        run_steps(&mut bo, 5);
        let snap = Snapshot::capture(bo);
        for (key, value) in [
            ("n_perturb", serde::Value::Int(6_148_914_691_236_517_205)),
            ("n_init", serde::Value::Int(1)),
        ] {
            let json = json_with_config_field(&snap, key, value.clone());
            let parsed = Snapshot::from_json(&json).expect("well-formed snapshot JSON");
            assert!(
                matches!(parsed.resume(), Err(SnapshotError::InvalidConfig(_))),
                "{key}: snapshot resumed"
            );
        }
    }

    #[test]
    fn snapshots_with_the_retired_surrogate_field_resume_unchanged() {
        let space = ParamSpace::new(vec![Param::float("x", 0.0, 1.0)]);
        let cfg = BoConfig {
            seed: 13,
            fit: FitOptions::fast(),
            ..Default::default()
        };
        let mut bo = BayesOpt::new(space, cfg);
        run_steps(&mut bo, 7);
        let snap = Snapshot::capture(bo);
        let resume_and_run = |json: &str| {
            let mut bo = Snapshot::from_json(json).unwrap().resume().unwrap();
            run_steps(&mut bo, 6)
        };
        let plain = snap.to_json().unwrap();
        assert!(!plain.contains("surrogate"));
        let want = resume_and_run(&plain);
        for mode in ["Exact", "Incremental"] {
            let json = json_with_config_field(&snap, "surrogate", serde::Value::Str(mode.into()));
            assert!(
                json.contains(&format!("\"surrogate\": \"{mode}\"")),
                "{json}"
            );
            assert_eq!(resume_and_run(&json), want, "surrogate: {mode}");
        }
    }

    #[test]
    fn malformed_json_rejected() {
        assert!(Snapshot::from_json("{not json").is_err());
    }
}
