//! The simulator error chain, shared by both simulators.
//!
//! Each simulator has one evaluation path: [`crate::FlowSimulator`] and
//! [`crate::TupleSimulator`] bind a topology, cluster and measurement
//! window at construction, and `evaluate_recorded(config, rec)` scores
//! one configuration, with `evaluate(config)` its unrecorded form.
//!
//! Errors follow the optimizer's `LinalgError → GpError → BoError`
//! ladder: [`crate::config::ConfigError`] (the typed validation tail)
//! chains into [`SimError`], so invalid inputs surface as values instead
//! of panics or silent zero-throughput results.

use crate::config::ConfigError;

/// Why a simulation request is unusable.
///
/// The head of the simulator error chain (`ConfigError → SimError`),
/// mirroring the optimizer's `LinalgError → GpError → BoError` ladder.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SimError {
    /// The measurement window is not a positive finite number of seconds.
    Window(f64),
    /// The configuration fails validation against the topology.
    Config(ConfigError),
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Window(w) => write!(f, "window must be positive and finite, got {w}"),
            SimError::Config(e) => write!(f, "invalid configuration: {e}"),
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimError::Window(_) => None,
            SimError::Config(e) => Some(e),
        }
    }
}

impl From<ConfigError> for SimError {
    fn from(e: ConfigError) -> Self {
        SimError::Config(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterSpec;
    use crate::config::StormConfig;
    use crate::flow_sim::FlowSimulator;
    use crate::topology::{Topology, TopologyBuilder};
    use crate::tuple_sim::{TupleSimOptions, TupleSimulator};
    use mtm_obs::MemRecorder;

    fn diamond() -> Topology {
        let mut tb = TopologyBuilder::new("diamond");
        let s = tb.spout("s", 10.0);
        let a = tb.bolt("a", 20.0);
        let b = tb.bolt("b", 30.0);
        let c = tb.bolt("c", 5.0);
        tb.connect(s, a).connect(s, b).connect(a, c).connect(b, c);
        tb.build().unwrap()
    }

    #[test]
    fn flow_evaluate_matches_evaluate_recorded_bitwise() {
        let sim = FlowSimulator::new(diamond(), ClusterSpec::paper_cluster(), 120.0).unwrap();
        for hint in [1u32, 3, 17, 200] {
            let c = StormConfig::uniform_hints(4, hint);
            let recorded = sim.evaluate_recorded(&c, &mut MemRecorder::new()).unwrap();
            let plain = sim.evaluate(&c).unwrap();
            assert_eq!(
                recorded.throughput_tps.to_bits(),
                plain.throughput_tps.to_bits()
            );
            assert_eq!(recorded, plain);
        }
    }

    #[test]
    fn tuple_evaluate_matches_evaluate_recorded_bitwise() {
        let opts = TupleSimOptions {
            window_s: 10.0,
            max_events: 2_000_000,
            network_delay_s: 0.000_5,
        };
        let sim = TupleSimulator::new(diamond(), ClusterSpec::tiny(), opts).unwrap();
        let c = StormConfig {
            batch_size: 100,
            batch_parallelism: 2,
            ..StormConfig::uniform_hints(4, 2)
        };
        let recorded = sim.evaluate_recorded(&c, &mut MemRecorder::new()).unwrap();
        let plain = sim.evaluate(&c).unwrap();
        assert_eq!(
            recorded.throughput_tps.to_bits(),
            plain.throughput_tps.to_bits()
        );
        assert_eq!(recorded.committed_batches, plain.committed_batches);
    }

    #[test]
    fn invalid_config_is_a_typed_error() {
        let topo = diamond();
        let sim = FlowSimulator::new(topo, ClusterSpec::tiny(), 60.0).unwrap();
        let mut c = StormConfig::baseline(4);
        c.batch_size = 0;
        match sim.evaluate(&c) {
            Err(SimError::Config(ConfigError::ZeroField("batch_size"))) => {}
            other => panic!("expected typed config error, got {other:?}"),
        }
        // The error chain exposes its source, like BoError → GpError.
        let err = sim.evaluate(&c).unwrap_err();
        assert!(std::error::Error::source(&err).is_some());
    }

    #[test]
    fn bad_window_rejected_at_construction() {
        let topo = diamond();
        for w in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert!(matches!(
                FlowSimulator::new(topo.clone(), ClusterSpec::tiny(), w),
                Err(SimError::Window(_))
            ));
            let opts = TupleSimOptions {
                window_s: w,
                ..TupleSimOptions::default()
            };
            assert!(matches!(
                TupleSimulator::new(topo.clone(), ClusterSpec::tiny(), opts),
                Err(SimError::Window(_))
            ));
        }
    }
}
