//! The tuned parameter surfaces of §V.
//!
//! Three sets mirror the paper's Sundog experiments (Fig. 8):
//!
//! * `h` — one integer hint per node plus the max-tasks cap ("We used
//!   Spearmint to choose a parallelism hint for each node in the topology
//!   and decide over the maximum number of task instances"),
//! * `h bs bp` — hints plus batch size and batch parallelism,
//! * `bs bp cc` — batch size/parallelism plus the concurrency parameters
//!   of Table I (worker threads, receiver threads, ackers), with the
//!   hints pinned to a caller-supplied value (the paper used pla's best,
//!   11).
//!
//! The informed surface (`ibo`) replaces the hint vector with a single
//! log-scaled multiplier over the base-parallelism weights.

use mtm_bayesopt::space::{Param, ParamSpace, Value};
use mtm_stormsim::{StormConfig, Topology};
use serde::{Deserialize, Serialize};

use crate::weights::hints_from_weights;

/// Hint search range per node (pla sweeps the same range, one value per
/// step, across its 60-step budget).
pub const HINT_MAX: i64 = 60;

/// The `max_tasks` parameter for an `n`-vertex topology: from one task
/// per vertex up to [`StormConfig::BASELINE_MAX_TASKS`], or up to two
/// tasks per vertex once the graph alone reaches that cap (the range must
/// stay non-empty).
fn max_tasks_param(n: usize) -> Param {
    let lo = n as i64;
    let cap = i64::from(StormConfig::BASELINE_MAX_TASKS);
    let hi = if lo < cap { cap } else { 2 * lo };
    Param::log_int("max_tasks", lo, hi)
}

/// Which parameters the optimizer controls.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ParamSet {
    /// Per-node parallelism hints + max-tasks.
    Hints,
    /// Hints + max-tasks + batch size + batch parallelism.
    HintsBatch,
    /// Batch size/parallelism + concurrency parameters, hints fixed.
    BatchConcurrency {
        /// The pinned per-node hint (the paper pinned pla's best, 11).
        fixed_hint: u32,
    },
    /// A single informed multiplier over base-parallelism weights +
    /// max-tasks (the `ibo` surface).
    InformedMultiplier {
        /// Per-node base-parallelism weights.
        weights: Vec<f64>,
    },
}

impl ParamSet {
    /// Short label used in figures (`h`, `h bs bp`, `bs bp cc`, `i`).
    pub fn label(&self) -> &'static str {
        match self {
            ParamSet::Hints => "h",
            ParamSet::HintsBatch => "h bs bp",
            ParamSet::BatchConcurrency { .. } => "bs bp cc",
            ParamSet::InformedMultiplier { .. } => "i",
        }
    }

    /// Build the optimization domain for `topo`.
    pub fn space(&self, topo: &Topology) -> ParamSpace {
        let n = topo.n_nodes();
        let mut params = Vec::new();
        match self {
            ParamSet::Hints => {
                for v in 0..n {
                    params.push(Param::int(format!("h{v}"), 1, HINT_MAX));
                }
                params.push(max_tasks_param(n));
            }
            ParamSet::HintsBatch => {
                for v in 0..n {
                    params.push(Param::int(format!("h{v}"), 1, HINT_MAX));
                }
                params.push(max_tasks_param(n));
                params.push(Param::log_int("batch_size", 1_000, 1_000_000));
                params.push(Param::int("batch_parallelism", 1, 32));
            }
            ParamSet::BatchConcurrency { .. } => {
                params.push(Param::log_int("batch_size", 1_000, 1_000_000));
                params.push(Param::int("batch_parallelism", 1, 32));
                params.push(Param::int("worker_threads", 1, 32));
                params.push(Param::int("receiver_threads", 1, 8));
                params.push(Param::int("ackers", 1, 320));
            }
            ParamSet::InformedMultiplier { .. } => {
                params.push(Param::log_float("multiplier", 0.25, HINT_MAX as f64));
                params.push(max_tasks_param(n));
            }
        }
        ParamSpace::new(params)
    }

    /// Decode optimizer values into a deployable configuration, starting
    /// from `base` for everything the set does not control.
    pub fn to_config(&self, topo: &Topology, base: &StormConfig, values: &[Value]) -> StormConfig {
        let n = topo.n_nodes();
        let mut config = base.clone();
        match self {
            ParamSet::Hints => {
                config.parallelism_hints = (0..n).map(|v| values[v].as_int() as u32).collect();
                config.max_tasks = values[n].as_int() as u32;
            }
            ParamSet::HintsBatch => {
                config.parallelism_hints = (0..n).map(|v| values[v].as_int() as u32).collect();
                config.max_tasks = values[n].as_int() as u32;
                config.batch_size = values[n + 1].as_int() as u32;
                config.batch_parallelism = values[n + 2].as_int() as u32;
            }
            ParamSet::BatchConcurrency { fixed_hint } => {
                config.parallelism_hints = vec![*fixed_hint; n];
                config.batch_size = values[0].as_int() as u32;
                config.batch_parallelism = values[1].as_int() as u32;
                config.worker_threads = values[2].as_int() as u32;
                config.receiver_threads = values[3].as_int() as u32;
                config.ackers = values[4].as_int() as u32;
            }
            ParamSet::InformedMultiplier { weights } => {
                config.parallelism_hints = hints_from_weights(weights, values[0].as_float());
                config.max_tasks = values[1].as_int() as u32;
            }
        }
        config
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtm_stormsim::topology::TopologyBuilder;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn topo3() -> Topology {
        let mut tb = TopologyBuilder::new("t");
        let s = tb.spout("s", 1.0);
        let a = tb.bolt("a", 1.0);
        let b = tb.bolt("b", 1.0);
        tb.connect(s, a).connect(a, b);
        tb.build().unwrap()
    }

    #[test]
    fn hints_space_has_node_plus_one_dims() {
        let t = topo3();
        let space = ParamSet::Hints.space(&t);
        assert_eq!(space.dim(), 4);
        assert_eq!(space.params()[0].name(), "h0");
        assert_eq!(space.params()[3].name(), "max_tasks");
    }

    #[test]
    fn hints_decode_into_config() {
        let t = topo3();
        let set = ParamSet::Hints;
        let base = StormConfig::baseline(3);
        let vals = vec![Value::Int(5), Value::Int(7), Value::Int(9), Value::Int(100)];
        let c = set.to_config(&t, &base, &vals);
        assert_eq!(c.parallelism_hints, vec![5, 7, 9]);
        assert_eq!(c.max_tasks, 100);
        assert_eq!(
            c.batch_size, base.batch_size,
            "untouched params come from base"
        );
    }

    #[test]
    fn hints_batch_adds_batch_params() {
        let t = topo3();
        let set = ParamSet::HintsBatch;
        let space = set.space(&t);
        assert_eq!(space.dim(), 6);
        let vals = vec![
            Value::Int(2),
            Value::Int(2),
            Value::Int(2),
            Value::Int(50),
            Value::Int(40_000),
            Value::Int(12),
        ];
        let c = set.to_config(&t, &StormConfig::baseline(3), &vals);
        assert_eq!(c.batch_size, 40_000);
        assert_eq!(c.batch_parallelism, 12);
    }

    #[test]
    fn batch_concurrency_pins_hints() {
        let t = topo3();
        let set = ParamSet::BatchConcurrency { fixed_hint: 11 };
        let space = set.space(&t);
        assert_eq!(space.dim(), 5);
        let vals = vec![
            Value::Int(20_000),
            Value::Int(8),
            Value::Int(16),
            Value::Int(2),
            Value::Int(80),
        ];
        let c = set.to_config(&t, &StormConfig::baseline(3), &vals);
        assert_eq!(c.parallelism_hints, vec![11, 11, 11]);
        assert_eq!(c.worker_threads, 16);
        assert_eq!(c.receiver_threads, 2);
        assert_eq!(c.ackers, 80);
    }

    #[test]
    fn informed_multiplier_scales_weights() {
        let t = topo3();
        let set = ParamSet::InformedMultiplier {
            weights: vec![1.0, 1.0, 1.0],
        };
        let space = set.space(&t);
        assert_eq!(space.dim(), 2);
        let vals = vec![Value::Float(4.0), Value::Int(50)];
        let c = set.to_config(&t, &StormConfig::baseline(3), &vals);
        assert_eq!(c.parallelism_hints, vec![4, 4, 4]);
    }

    #[test]
    fn max_tasks_range_keeps_the_cap_below_it_and_grows_past_it() {
        let range = |n| match max_tasks_param(n) {
            Param::LogInt { lo, hi, .. } => (lo, hi),
            other => panic!("max_tasks is log-int, got {other:?}"),
        };
        assert_eq!(range(3), (3, 4_000));
        assert_eq!(range(3_999), (3_999, 4_000));
        assert_eq!(range(4_000), (4_000, 8_000));
        assert_eq!(range(10_000), (10_000, 20_000));
    }

    #[test]
    fn random_samples_decode_into_valid_configs() {
        let t = topo3();
        let mut rng = StdRng::seed_from_u64(5);
        for set in [
            ParamSet::Hints,
            ParamSet::HintsBatch,
            ParamSet::BatchConcurrency { fixed_hint: 3 },
            ParamSet::InformedMultiplier {
                weights: vec![1.0, 2.0, 3.0],
            },
        ] {
            let space = set.space(&t);
            for _ in 0..50 {
                let vals = space.sample(&mut rng);
                let c = set.to_config(&t, &StormConfig::baseline(3), &vals);
                assert!(c.validate(&t).is_ok(), "{set:?} produced invalid config");
            }
        }
    }
}
