//! The unified simulator API: [`Simulator`], [`FlowSimulator`],
//! [`TupleSimulator`], and batched evaluation via [`SimBatch`].
//!
//! The reference functions `simulate_flow_with`/`simulate_tuples_with`
//! evaluate one configuration at a time and redo the topology-level analysis (flow
//! propagation, placement layout) on every call. A [`FlowSimulator`]
//! instead analyzes the topology once at construction and then scores
//! any number of candidate configurations against that shared layout —
//! the shape the Bayesian optimizer's acquisition sweep wants, where one
//! step proposes N candidates over a fixed topology.
//!
//! Results are bitwise-identical to the reference functions: the batch path
//! fills reusable scratch buffers in exactly the float-operation order
//! of the per-call path (see `SolveCtx` in [`crate::flow_sim`]) and
//! replays the even scheduler's round-robin placement order without
//! materializing a [`crate::placement::Placement`]. The equivalence
//! suite and the determinism probe pin this.
//!
//! Errors follow the optimizer's `LinalgError → GpError → BoError`
//! ladder: [`crate::config::ConfigError`] (the typed validation tail)
//! chains into [`SimError`], so invalid inputs surface as values instead
//! of panics or silent zero-throughput results.

use mtm_obs::NullRecorder;

use crate::cluster::ClusterSpec;
use crate::config::{ConfigError, StormConfig};
use crate::flow::{self, FlowAnalysis};
use crate::flow_sim::{demand_coef, node_cost_of, SolveCtx};
use crate::metrics::SimResult;
use crate::topology::Topology;
use crate::tuple_sim::{simulate_tuples_with, TupleSimOptions};

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

/// A performance model that scores configurations on a fixed topology.
///
/// Implementors bind the topology, cluster and measurement window at
/// construction; `evaluate` then maps one [`StormConfig`] to one
/// [`SimResult`]. `evaluate_batch` scores N candidates and is guaranteed
/// to return exactly the results of N sequential `evaluate` calls —
/// implementations may share layout analysis across the batch but must
/// not let candidates interact.
pub trait Simulator {
    /// Score one configuration.
    fn evaluate(&self, config: &StormConfig) -> Result<SimResult, SimError>;

    /// Score `configs` in order; element `i` is bitwise-identical to
    /// `self.evaluate(&configs[i])`. Fails fast on the first invalid
    /// configuration.
    fn evaluate_batch(&self, configs: &[StormConfig]) -> Result<Vec<SimResult>, SimError> {
        configs.iter().map(|c| self.evaluate(c)).collect()
    }
}

/// Reusable per-candidate working memory for the batched flow model.
///
/// Every buffer is sized on first use and reused for the rest of the
/// batch, so scoring candidate 2..N touches no allocator at all (the
/// counting-allocator test pins this at V=10k).
#[derive(Debug, Default)]
struct Scratch {
    tasks: Vec<u32>,
    remaining: Vec<u32>,
    node_cost: Vec<f64>,
    coef: Vec<f64>,
    machine_demand: Vec<f64>,
    tasks_per_worker: Vec<usize>,
    ackers_per_worker: Vec<usize>,
}

/// Results plus scratch memory for one batched evaluation.
///
/// Create once, pass to [`FlowSimulator::evaluate_batch_into`] as many
/// times as needed; buffers are reused across calls. After a successful
/// call, [`results`](Self::results) holds one [`SimResult`] per input
/// configuration, in order. After an error the contents are unspecified
/// (the results of candidates scored before the invalid one).
#[derive(Debug, Default)]
pub struct SimBatch {
    results: Vec<SimResult>,
    scratch: Scratch,
}

impl SimBatch {
    /// An empty batch with no preallocated memory.
    pub fn new() -> Self {
        SimBatch::default()
    }

    /// The results of the last [`FlowSimulator::evaluate_batch_into`].
    pub fn results(&self) -> &[SimResult] {
        &self.results
    }

    /// Number of results currently held.
    pub fn len(&self) -> usize {
        self.results.len()
    }

    /// True when no results are held.
    pub fn is_empty(&self) -> bool {
        self.results.is_empty()
    }
}

/// The analytical flow model behind the [`Simulator`] trait.
///
/// Construction runs the topology-level analysis (steady-state flow
/// propagation) once; every `evaluate`/`evaluate_batch` call reuses it.
/// Bitwise-identical to the reference
/// [`crate::flow_sim::simulate_flow_with`].
#[derive(Debug, Clone)]
pub struct FlowSimulator {
    topo: Topology,
    cluster: ClusterSpec,
    window_s: f64,
    flows: FlowAnalysis,
}

impl FlowSimulator {
    /// Bind the model to `topo` on `cluster` with a measurement window of
    /// `window_s` virtual seconds (must be positive and finite — the
    /// free-function shim asserted this; here it is a typed error).
    pub fn new(topo: Topology, cluster: ClusterSpec, window_s: f64) -> Result<Self, SimError> {
        if !window_s.is_finite() || window_s <= 0.0 {
            return Err(SimError::Window(window_s));
        }
        let flows = flow::analyze(&topo);
        Ok(FlowSimulator {
            topo,
            cluster,
            window_s,
            flows,
        })
    }

    /// The topology this simulator is bound to.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The measurement window in virtual seconds.
    pub fn window_s(&self) -> f64 {
        self.window_s
    }

    /// Score `configs` into a caller-owned [`SimBatch`], reusing its
    /// buffers. This is the zero-allocation form of
    /// [`evaluate_batch`](Simulator::evaluate_batch): after the first
    /// candidate has sized the scratch buffers, the remaining candidates
    /// run without touching the allocator.
    pub fn evaluate_batch_into(
        &self,
        configs: &[StormConfig],
        batch: &mut SimBatch,
    ) -> Result<(), SimError> {
        batch.results.clear();
        batch.results.reserve(configs.len());
        for config in configs {
            let result = self.evaluate_with(config, &mut batch.scratch)?;
            batch.results.push(result);
        }
        Ok(())
    }

    /// Score one configuration against the prebuilt flow analysis,
    /// filling `s` in exactly the float-operation order of the legacy
    /// per-call path so the result is bitwise-identical to it.
    ///
    /// The scratch fills below are sanctioned: each buffer reaches its
    /// high-water capacity on the first candidate and is reused after,
    /// which the counting-allocator test pins at zero warm allocations.
    // mtm-hot: sim-batch
    // mtm-allow: alloc -- scratch buffers amortize to zero (see zero_alloc.rs)
    fn evaluate_with(&self, config: &StormConfig, s: &mut Scratch) -> Result<SimResult, SimError> {
        let topo = &self.topo;
        let cluster = &self.cluster;
        // Qualified call: a bare `.validate(` edge would alias every
        // `validate` in the workspace in the checker's call graph.
        StormConfig::validate(config, topo)?;

        config.normalized_tasks_into(topo, &mut s.tasks);
        let total_tasks: usize = s.tasks.iter().map(|&t| t as usize).sum();
        let ackers = config.effective_ackers(total_tasks.min(cluster.machines));
        // The even scheduler's shape, without materializing it: one
        // worker per machine, at most one per task.
        let workers = total_tasks.min(cluster.machines).max(1);
        let ackers_n = (ackers as usize).max(1);
        let remote = if workers <= 1 {
            0.0
        } else {
            1.0 - 1.0 / workers as f64
        };

        // Per-node columns, in node order exactly like the legacy build.
        s.node_cost.clear();
        s.node_cost
            .extend((s.tasks.iter().enumerate()).map(|(v, &t)| node_cost_of(topo, cluster, v, t)));
        s.coef.clear();
        s.coef.extend(
            (self.flows.node_flow.iter().zip(&s.tasks).zip(&s.node_cost))
                .map(|((&f, &t), &cost)| demand_coef(f, cost, t)),
        );
        let ack_coef = self.flows.total_processing * cluster.acker_cost_units / ackers_n as f64;

        // Replay the even scheduler's interleaved round-robin deal
        // (placement.rs `place_even`) and accumulate per-machine demand
        // in the same task order it would produce — identical float
        // summation order, no Placement allocation.
        s.machine_demand.clear();
        s.machine_demand.resize(workers, 0.0);
        s.tasks_per_worker.clear();
        s.tasks_per_worker.resize(workers, 0);
        s.ackers_per_worker.clear();
        s.ackers_per_worker.resize(workers, 0);
        s.remaining.clear();
        s.remaining.extend_from_slice(&s.tasks);
        // The worker cursor wraps by comparison: no division per task.
        let mut next_worker = 0usize;
        loop {
            let mut placed_any = false;
            for (remaining, &coef) in s.remaining.iter_mut().zip(&s.coef) {
                if *remaining == 0 {
                    continue;
                }
                *remaining -= 1;
                s.machine_demand[next_worker] += coef;
                s.tasks_per_worker[next_worker] += 1;
                next_worker += 1;
                if next_worker == workers {
                    next_worker = 0;
                }
                placed_any = true;
            }
            if !placed_any {
                break;
            }
        }
        let mut next_worker = 0usize;
        for _ in 0..ackers {
            s.machine_demand[next_worker] += ack_coef;
            s.ackers_per_worker[next_worker] += 1;
            next_worker += 1;
            if next_worker == workers {
                next_worker = 0;
            }
        }

        let ctx = SolveCtx {
            topo,
            config,
            cluster,
            flows: &self.flows,
            tasks: &s.tasks,
            node_cost: &s.node_cost,
            machine_demand: &s.machine_demand,
            tasks_per_worker: &s.tasks_per_worker,
            ackers_per_worker: &s.ackers_per_worker,
            workers,
            total_tasks,
            ackers_n,
            remote,
            ack_coef,
        };
        let result = ctx.solve(self.window_s, &mut NullRecorder);
        #[cfg(feature = "strict-invariants")]
        crate::invariants::assert_finite(
            "flow-sim metrics (throughput, net, cpu)",
            &[
                result.throughput_tps,
                result.avg_worker_net_mbps,
                result.cpu_utilization,
            ],
        );
        Ok(result)
    }
}

impl Simulator for FlowSimulator {
    fn evaluate(&self, config: &StormConfig) -> Result<SimResult, SimError> {
        let mut scratch = Scratch::default();
        self.evaluate_with(config, &mut scratch)
    }

    fn evaluate_batch(&self, configs: &[StormConfig]) -> Result<Vec<SimResult>, SimError> {
        let mut batch = SimBatch::new();
        self.evaluate_batch_into(configs, &mut batch)?;
        Ok(batch.results)
    }
}

/// The per-tuple discrete-event simulator behind the [`Simulator`]
/// trait. Bitwise-identical to the reference
/// [`crate::tuple_sim::simulate_tuples_with`]; invalid configurations
/// come back as [`SimError`] instead of a silent zero-throughput
/// failure.
#[derive(Debug, Clone)]
pub struct TupleSimulator {
    topo: Topology,
    cluster: ClusterSpec,
    opts: TupleSimOptions,
}

impl TupleSimulator {
    /// Bind the simulator to `topo` on `cluster` with `opts` (the window
    /// must be positive and finite).
    pub fn new(
        topo: Topology,
        cluster: ClusterSpec,
        opts: TupleSimOptions,
    ) -> Result<Self, SimError> {
        if !opts.window_s.is_finite() || opts.window_s <= 0.0 {
            return Err(SimError::Window(opts.window_s));
        }
        Ok(TupleSimulator {
            topo,
            cluster,
            opts,
        })
    }

    /// The topology this simulator is bound to.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }
}

impl Simulator for TupleSimulator {
    fn evaluate(&self, config: &StormConfig) -> Result<SimResult, SimError> {
        StormConfig::validate(config, &self.topo)?;
        Ok(simulate_tuples_with(
            &self.topo,
            config,
            &self.cluster,
            &self.opts,
            &mut NullRecorder,
        ))
    }
}

#[cfg(test)]
mod tests {
    // The equivalence assertions here compare against the reference
    // functions on purpose: they are the semantics the trait must keep.
    use super::*;
    use crate::flow_sim::simulate_flow_with;
    use crate::topology::TopologyBuilder;

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
    fn flow_evaluate_matches_free_function_bitwise() {
        let topo = diamond();
        let cluster = ClusterSpec::paper_cluster();
        let sim = FlowSimulator::new(topo.clone(), cluster.clone(), 120.0).unwrap();
        for hint in [1u32, 3, 17, 200] {
            let c = StormConfig::uniform_hints(4, hint);
            let old = simulate_flow_with(&topo, &c, &cluster, 120.0, &mut NullRecorder);
            let new = sim.evaluate(&c).unwrap();
            assert_eq!(old.throughput_tps.to_bits(), new.throughput_tps.to_bits());
            assert_eq!(old, new);
        }
    }

    #[test]
    fn batch_equals_sequential() {
        let topo = diamond();
        let cluster = ClusterSpec::paper_cluster();
        let sim = FlowSimulator::new(topo, cluster, 120.0).unwrap();
        let configs: Vec<StormConfig> =
            (1..=16).map(|h| StormConfig::uniform_hints(4, h)).collect();
        let batched = sim.evaluate_batch(&configs).unwrap();
        for (c, b) in configs.iter().zip(&batched) {
            assert_eq!(&sim.evaluate(c).unwrap(), b);
        }
    }

    #[test]
    fn batch_buffers_are_reusable() {
        let topo = diamond();
        let sim = FlowSimulator::new(topo, ClusterSpec::tiny(), 60.0).unwrap();
        let a: Vec<StormConfig> = (1..=4).map(|h| StormConfig::uniform_hints(4, h)).collect();
        let b: Vec<StormConfig> = (5..=6).map(|h| StormConfig::uniform_hints(4, h)).collect();
        let mut batch = SimBatch::new();
        sim.evaluate_batch_into(&a, &mut batch).unwrap();
        assert_eq!(batch.len(), 4);
        sim.evaluate_batch_into(&b, &mut batch).unwrap();
        assert_eq!(batch.len(), 2);
        assert!(!batch.is_empty());
        assert_eq!(batch.results()[0], sim.evaluate(&b[0]).unwrap());
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
        }
    }

    #[test]
    fn tuple_evaluate_matches_free_function_bitwise() {
        let topo = diamond();
        let cluster = ClusterSpec::tiny();
        let opts = TupleSimOptions {
            window_s: 10.0,
            max_events: 2_000_000,
            network_delay_s: 0.000_5,
        };
        let sim = TupleSimulator::new(topo.clone(), cluster.clone(), opts).unwrap();
        let c = StormConfig {
            batch_size: 100,
            batch_parallelism: 2,
            ..StormConfig::uniform_hints(4, 2)
        };
        let old = simulate_tuples_with(&topo, &c, &cluster, &opts, &mut NullRecorder);
        let new = sim.evaluate(&c).unwrap();
        assert_eq!(old.throughput_tps.to_bits(), new.throughput_tps.to_bits());
        assert_eq!(old.committed_batches, new.committed_batches);
    }

    #[test]
    fn tuple_default_batch_matches_sequential() {
        let topo = diamond();
        let cluster = ClusterSpec::tiny();
        let opts = TupleSimOptions {
            window_s: 5.0,
            max_events: 1_000_000,
            network_delay_s: 0.000_5,
        };
        let sim = TupleSimulator::new(topo, cluster, opts).unwrap();
        let configs: Vec<StormConfig> = (1..=3)
            .map(|h| StormConfig {
                batch_size: 50,
                ..StormConfig::uniform_hints(4, h)
            })
            .collect();
        let batched = sim.evaluate_batch(&configs).unwrap();
        for (c, b) in configs.iter().zip(&batched) {
            assert_eq!(sim.evaluate(c).unwrap().throughput_tps, b.throughput_tps);
        }
    }
}
