//! The measured objective: deploy a configuration on the simulated
//! cluster, run it for two (virtual) minutes, read back noisy throughput.

use mtm_stormsim::noise::MeasurementNoise;
use mtm_stormsim::{ClusterSpec, FlowSimulator, SimResult, StormConfig, Topology};

/// The fixed batch configuration the synthetic parallelism experiments
/// run under (§V-A only tunes parallelism; batching stays put).
///
/// Batch size scales with topology size so that the mini-batch pipeline
/// neither drowns small-topology runs in commit overhead nor times out
/// the first low-parallelism steps of the sweep.
pub fn synthetic_base(topo: &Topology) -> StormConfig {
    let mut base = StormConfig::baseline(topo.n_nodes());
    base.batch_size = match topo.n_nodes() {
        0..=19 => 1_000,
        20..=69 => 2_000,
        _ => 1_500,
    };
    base.batch_parallelism = 3;
    base
}

/// An evaluable tuning objective for one topology on one cluster.
#[derive(Debug, Clone)]
pub struct Objective {
    /// The bound flow model: it owns the topology, the cluster and the
    /// window, and its topology-level analysis is done once at
    /// construction and shared by every measurement of this objective —
    /// which is what makes trial fan-out cheap on 10k-vertex graphs.
    sim: FlowSimulator,
    base: StormConfig,
    noise: MeasurementNoise,
}

impl Objective {
    /// Objective with the paper's defaults: 2-minute runs and the default
    /// measurement noise, starting from the baseline configuration.
    pub fn new(topo: Topology, cluster: ClusterSpec) -> Self {
        let base = StormConfig::baseline(topo.n_nodes());
        let sim = FlowSimulator::new(topo, cluster, 120.0)
            .expect("the default window is positive and finite");
        Objective {
            sim,
            base,
            noise: MeasurementNoise::default(),
        }
    }

    /// Override the base configuration (everything a strategy doesn't
    /// control comes from here).
    pub fn with_base(mut self, base: StormConfig) -> Self {
        assert_eq!(base.parallelism_hints.len(), self.topology().n_nodes());
        self.base = base;
        self
    }

    /// Override the measurement window. The topology-level analysis does
    /// not depend on the window and is kept.
    ///
    /// # Panics
    ///
    /// If `window_s` is not a positive, finite number of seconds.
    pub fn with_window(mut self, window_s: f64) -> Self {
        assert!(
            window_s.is_finite() && window_s > 0.0,
            "window must be positive and finite, got {window_s}"
        );
        self.sim = self
            .sim
            .with_window(window_s)
            .expect("window checked by the assert above");
        self
    }

    /// Override the noise model.
    pub fn with_noise(mut self, noise: MeasurementNoise) -> Self {
        self.noise = noise;
        self
    }

    /// The topology under tuning.
    pub fn topology(&self) -> &Topology {
        self.sim.topology()
    }

    /// The cluster model.
    pub fn cluster(&self) -> &ClusterSpec {
        self.sim.cluster()
    }

    /// The base configuration.
    pub fn base_config(&self) -> &StormConfig {
        &self.base
    }

    /// Measurement window in seconds.
    pub fn window(&self) -> f64 {
        self.sim.window_s()
    }

    /// The noise-free throughput of one simulated run of `config` (0 for
    /// a failed run). Deterministic: every measurement of `config` is
    /// this value with its own [`apply_noise`](Self::apply_noise) draw,
    /// so callers that measure one configuration several times simulate
    /// it once.
    // mtm-cold: a whole simulated evaluation run — its per-run setup
    // allocates by design; the constraint solver has its own hot root.
    pub fn simulate(&self, config: &StormConfig) -> f64 {
        self.sim.evaluate(config).map_or(0.0, |r| r.throughput_tps)
    }

    /// The measurement noise of run `run_id` applied to a simulated
    /// value `raw` (see [`simulate`](Self::simulate)).
    pub fn apply_noise(&self, raw: f64, run_id: u64) -> f64 {
        self.noise.apply(raw, run_id)
    }

    /// One measured evaluation run: returns noisy throughput in tuples/s.
    /// `run_id` individualizes the noise draw (use a distinct id per
    /// evaluation, as the experiment runner does).
    // mtm-cold: a whole simulated evaluation run — its per-run setup
    // allocates by design; the constraint solver has its own hot root.
    pub fn measure(&self, config: &StormConfig, run_id: u64) -> f64 {
        self.apply_noise(self.simulate(config), run_id)
    }

    /// Batched form of [`measure`](Self::measure): one simulation, one
    /// independent noise draw per run id, appended to `out` in order.
    /// Value `i` is bitwise-identical to `self.measure(config, id_i)`.
    // mtm-cold: a whole simulated evaluation run — its per-run setup
    // allocates by design; the constraint solver has its own hot root.
    pub fn measure_many(
        &self,
        config: &StormConfig,
        run_ids: impl IntoIterator<Item = u64>,
        out: &mut Vec<f64>,
    ) {
        let raw = self.simulate(config);
        out.extend(run_ids.into_iter().map(|id| self.apply_noise(raw, id)));
    }

    /// The full (noise-free) simulation result for a configuration —
    /// used by the reporting paths that need more than throughput.
    pub fn inspect(&self, config: &StormConfig) -> SimResult {
        self.sim
            .evaluate(config)
            .unwrap_or_else(|_| SimResult::failed(self.window(), 0, 0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtm_stormsim::topology::TopologyBuilder;

    fn objective() -> Objective {
        let mut tb = TopologyBuilder::new("t");
        let s = tb.spout("s", 5.0);
        let a = tb.bolt("a", 20.0);
        tb.connect(s, a);
        Objective::new(tb.build().unwrap(), ClusterSpec::paper_cluster())
    }

    #[test]
    fn measure_is_noisy_but_reproducible() {
        let obj = objective();
        let c = obj.base_config().clone();
        let a = obj.measure(&c, 1);
        let b = obj.measure(&c, 1);
        let c2 = obj.measure(&c, 2);
        assert_eq!(a, b);
        assert_ne!(a, c2);
        assert!(a > 0.0);
    }

    #[test]
    fn measure_many_equals_per_run_measures() {
        let obj = objective();
        let c = obj.base_config().clone();
        let ids = [3u64, 9, 9, 1 << 40];
        let mut batch = Vec::new();
        obj.measure_many(&c, ids.iter().copied(), &mut batch);
        assert_eq!(batch.len(), ids.len());
        for (&id, &y) in ids.iter().zip(&batch) {
            assert_eq!(obj.measure(&c, id).to_bits(), y.to_bits());
        }
    }

    #[test]
    fn measure_is_simulate_plus_noise() {
        let obj = objective();
        let c = obj.base_config().clone();
        let raw = obj.simulate(&c);
        assert!(raw > 0.0);
        assert_eq!(raw.to_bits(), obj.inspect(&c).throughput_tps.to_bits());
        for id in [0u64, 7, 1 << 40] {
            assert_eq!(
                obj.measure(&c, id).to_bits(),
                obj.apply_noise(raw, id).to_bits()
            );
        }
    }

    #[test]
    fn inspect_is_noise_free() {
        let obj = objective();
        let c = obj.base_config().clone();
        let r1 = obj.inspect(&c);
        let r2 = obj.inspect(&c);
        assert_eq!(r1.throughput_tps, r2.throughput_tps);
    }

    #[test]
    fn with_window_is_bit_equal_to_a_simulator_bound_at_that_window() {
        let obj = objective().with_window(30.0);
        let sim = FlowSimulator::new(obj.topology().clone(), obj.cluster().clone(), 30.0).unwrap();
        let c = obj.base_config().clone();
        let want = sim.evaluate(&c).unwrap();
        assert_eq!(obj.simulate(&c).to_bits(), want.throughput_tps.to_bits());
        assert_eq!(obj.inspect(&c).committed_batches, want.committed_batches);
    }

    #[test]
    fn builders_apply() {
        let obj = objective()
            .with_window(30.0)
            .with_noise(MeasurementNoise::none());
        assert_eq!(obj.window(), 30.0);
        let c = obj.base_config().clone();
        assert_eq!(
            obj.measure(&c, 1),
            obj.measure(&c, 99),
            "no noise configured"
        );
    }
}
