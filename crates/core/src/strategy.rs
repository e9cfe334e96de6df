//! The four optimization strategies of §V, plus the strategy zoo
//! (TPE, successive-halving/Hyperband, and the random-search floor)
//! behind the same propose/observe seam.

use mtm_bayesopt::{
    BayesOpt, BoConfig, Candidate, Hyperband, HyperbandConfig, Proposer, RandomSearch, Tpe,
    TpeConfig,
};
use mtm_gp::FitOptions;
use mtm_obs::{Event, NullRecorder, Recorder};
use mtm_stormsim::{StormConfig, Topology};

use crate::paramsets::{ParamSet, HINT_MAX};
use crate::weights::{hints_from_weights, normalized_weights};

/// A configuration-proposing strategy.
///
/// Every strategy is driven by the same loop: `propose` a configuration
/// for step `t`, measure it, `observe` the result.
// Variant sizes differ by design: the search variant carries the
// optimizer state; strategies are created once per pass, never stored
// in bulk.
#[allow(clippy::large_enum_variant)]
pub enum Strategy {
    /// Parallel linear ascent: the same hint on every node, increased by
    /// one each step ("sets the same parallelism hint on all spout/bolt
    /// nodes in the topology and increases them in parallel").
    Pla,
    /// Informed pla: hints = base-parallelism weights × the step's
    /// multiplier.
    Ipla {
        /// Per-node base weights.
        weights: Vec<f64>,
    },
    /// A search optimizer (BO, TPE, Hyperband or random search) over a
    /// parameter set.
    Search {
        /// The underlying optimizer.
        opt: Proposer,
        /// The tuned surface.
        set: ParamSet,
        /// The candidate awaiting its observation.
        pending: Option<Candidate>,
    },
}

impl Strategy {
    /// The strategy a figure label names: `pla`, `ipla`, `bo`, `ibo`,
    /// `random`, `tpe` or `hyperband`, with the search strategies over
    /// `set` (`ibo` tunes its own multiplier). `bo180` builds `bo`: the
    /// 180-step budget lives in the run options. Unknown labels are an
    /// error.
    pub fn by_name(
        label: &str,
        topo: &Topology,
        set: ParamSet,
        seed: u64,
    ) -> Result<Strategy, String> {
        Ok(match label {
            "pla" => Strategy::pla(),
            "ipla" => Strategy::ipla(topo),
            "bo" | "bo180" => Strategy::bo(topo, set, seed),
            "ibo" => Strategy::ibo(topo, seed),
            "random" => Strategy::random(topo, set, seed),
            "tpe" => Strategy::tpe(topo, set, seed),
            "hyperband" => Strategy::hyperband(topo, set, seed),
            other => return Err(format!("unknown strategy '{other}'")),
        })
    }

    /// The plain `pla` baseline.
    pub fn pla() -> Strategy {
        Strategy::Pla
    }

    /// The informed `ipla` baseline for `topo`.
    pub fn ipla(topo: &Topology) -> Strategy {
        Strategy::Ipla {
            weights: normalized_weights(topo),
        }
    }

    /// Bayesian Optimization over `set`.
    pub fn bo(topo: &Topology, set: ParamSet, seed: u64) -> Strategy {
        let space = set.space(topo);
        // Scale the fit effort down a little for very wide spaces (the
        // large topology tunes >100 hints); Fig. 7 measures this cost.
        let wide = space.dim() > 40;
        let fit = if wide {
            FitOptions::fast()
        } else {
            FitOptions::default()
        };
        let config = BoConfig::builder()
            .seed(seed)
            .fit(fit)
            .n_init((space.dim() / 4).clamp(6, 16))
            .n_candidates(768)
            .local_passes(3)
            // Wide spaces (the large topology tunes >100 hints) refit the
            // surrogate hyperparameters less often; Fig. 7 measures the
            // resulting sublinear step-time growth.
            .refit_every(if wide { 3 } else { 1 })
            .build()
            .unwrap_or_else(|e| {
                // Statically valid by construction; keep release builds
                // panic-free on the proposal path regardless.
                debug_assert!(false, "strategy BoConfig rejected: {e}");
                BoConfig::default()
            });
        Strategy::search(Proposer::Bo(BayesOpt::new(space, config)), set)
    }

    /// Bayesian Optimization with a caller-supplied optimizer
    /// configuration (used by the ablation benches to swap acquisition
    /// functions, kernels, or hyperparameter marginalization).
    pub fn bo_with(topo: &Topology, set: ParamSet, config: BoConfig) -> Strategy {
        Strategy::search(Proposer::Bo(BayesOpt::new(set.space(topo), config)), set)
    }

    /// Informed Bayesian Optimization: BO over a single multiplier for
    /// the base-parallelism weights.
    pub fn ibo(topo: &Topology, seed: u64) -> Strategy {
        let weights = normalized_weights(topo);
        Strategy::bo(topo, ParamSet::InformedMultiplier { weights }, seed)
    }

    /// Tree-structured Parzen Estimator over `set`
    /// (Bergstra et al. 2011).
    pub fn tpe(topo: &Topology, set: ParamSet, seed: u64) -> Strategy {
        let opt = Tpe::new(set.space(topo), TpeConfig::with_seed(seed));
        Strategy::search(Proposer::Tpe(opt), set)
    }

    /// Successive halving / Hyperband over `set` (Li et al. 2018),
    /// allocating measurement repetitions by rung — see
    /// [`Strategy::measure_reps`]. The schedule leans exploratory
    /// (`r_max = 3`, not the textbook 9): measurement noise is only a
    /// few percent here, so deep re-measurement buys little and fresh
    /// configurations buy a lot — the ContTune-style conservative
    /// allocation for streaming workloads.
    pub fn hyperband(topo: &Topology, set: ParamSet, seed: u64) -> Strategy {
        let config = HyperbandConfig {
            seed,
            eta: 3,
            r_min: 1,
            r_max: 3,
        };
        let opt = Hyperband::new(set.space(topo), config);
        Strategy::search(Proposer::Hyperband(opt), set)
    }

    /// The random-search floor over `set` (Bergstra & Bengio 2012).
    pub fn random(topo: &Topology, set: ParamSet, seed: u64) -> Strategy {
        let opt = RandomSearch::new(set.space(topo), seed);
        Strategy::search(Proposer::Random(opt), set)
    }

    fn search(opt: Proposer, set: ParamSet) -> Strategy {
        Strategy::Search {
            opt,
            set,
            pending: None,
        }
    }

    /// Strategy label as used in the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            Strategy::Pla => "pla",
            Strategy::Ipla { .. } => "ipla",
            Strategy::Search {
                opt: Proposer::Bo(_),
                set: ParamSet::InformedMultiplier { .. },
                ..
            } => "ibo",
            Strategy::Search { opt, .. } => opt.name(),
        }
    }

    /// `true` for the linear-ascent strategies (they use the paper's
    /// three-consecutive-zeros early stop).
    pub fn is_linear(&self) -> bool {
        matches!(self, Strategy::Pla | Strategy::Ipla { .. })
    }

    /// Measurement repetitions the *current* proposal should be averaged
    /// over, when the strategy allocates budget itself. `None` means
    /// "use the run's configured `measure_reps`" — only Hyperband
    /// returns `Some`, with the active rung's budget. Constant-time and
    /// allocation-free (polled from the trial loop every step).
    pub fn measure_reps(&self) -> Option<usize> {
        match self {
            Strategy::Search { opt, .. } => opt.pending_reps().map(|reps| reps.max(1)),
            _ => None,
        }
    }

    /// Propose the configuration to evaluate at step `step` (0-based).
    /// Returns `None` when the strategy has exhausted its schedule.
    pub fn propose(
        &mut self,
        topo: &Topology,
        base: &StormConfig,
        step: usize,
    ) -> Option<StormConfig> {
        self.propose_traced(topo, base, step, &mut NullRecorder)
    }

    /// [`propose`](Self::propose) with instrumentation: search strategies
    /// trace their decisions through [`Proposer::propose_recorded`]; the
    /// linear schedules emit a `path: "linear"` marker. The proposal is
    /// bitwise identical with any recorder.
    // mtm-cold: one proposal per optimization step; the chunked
    // acquisition scorer inside carries its own `acq-score` hot root.
    pub fn propose_traced<R: Recorder>(
        &mut self,
        topo: &Topology,
        base: &StormConfig,
        step: usize,
        rec: &mut R,
    ) -> Option<StormConfig> {
        match self {
            Strategy::Pla => {
                let hint = step as i64 + 1;
                if hint > HINT_MAX {
                    return None;
                }
                let mut c = base.clone();
                c.parallelism_hints = vec![hint as u32; topo.n_nodes()];
                if R::ENABLED {
                    rec.record(linear_propose_event(step));
                }
                Some(c)
            }
            Strategy::Ipla { weights } => {
                let mult = step as f64 + 1.0;
                if mult > HINT_MAX as f64 {
                    return None;
                }
                let mut c = base.clone();
                c.parallelism_hints = hints_from_weights(weights, mult);
                if R::ENABLED {
                    rec.record(linear_propose_event(step));
                }
                Some(c)
            }
            Strategy::Search { opt, set, pending } => {
                assert!(
                    pending.is_none(),
                    "observe() must be called between proposals"
                );
                // A surrogate failure (degenerate data the jitter ladder
                // cannot rescue) ends the schedule instead of panicking;
                // the experiment loop records the steps taken so far.
                let cand = opt.propose_recorded(rec).ok()?;
                let config = set.to_config(topo, base, &cand.values);
                *pending = Some(cand);
                Some(config)
            }
        }
    }

    /// Feed back the measured throughput for the last proposal.
    ///
    /// Observations without a pending proposal, and observations the
    /// optimizer rejects (BO and TPE refuse non-finite throughputs), are
    /// dropped (with a debug assertion) rather than panicking — the
    /// simulator only produces finite rates.
    pub fn observe(&mut self, throughput: f64) {
        if let Strategy::Search { opt, pending, .. } = self {
            let Some(cand) = pending.take() else {
                debug_assert!(false, "propose() must precede observe()");
                return;
            };
            if let Err(e) = opt.observe(cand, throughput) {
                debug_assert!(false, "rejected observation: {e}");
            }
        }
    }
}

/// The trace line for a linear-schedule proposal: the next configuration
/// is fixed by the step index, so there is no pool, margin, or refit.
fn linear_propose_event(step: usize) -> Event {
    Event::Propose {
        step,
        path: "linear".into(),
        refit: false,
        pool: 1,
        margin: 0.0,
        polish_moves: 0,
        wall_ns: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtm_stormsim::topology::TopologyBuilder;

    fn topo() -> Topology {
        let mut tb = TopologyBuilder::new("t");
        let s = tb.spout("s", 1.0);
        let a = tb.bolt("a", 1.0);
        let b = tb.bolt("b", 1.0);
        tb.connect(s, a).connect(s, b);
        tb.build().unwrap()
    }

    #[test]
    fn pla_sweeps_uniform_hints() {
        let t = topo();
        let base = StormConfig::baseline(3);
        let mut s = Strategy::pla();
        for step in 0..5 {
            let c = s.propose(&t, &base, step).unwrap();
            assert_eq!(c.parallelism_hints, vec![step as u32 + 1; 3]);
            s.observe(1.0);
        }
        assert!(s.propose(&t, &base, HINT_MAX as usize).is_none());
    }

    #[test]
    fn ipla_scales_weights() {
        let t = topo();
        let base = StormConfig::baseline(3);
        let mut s = Strategy::ipla(&t);
        let c = s.propose(&t, &base, 2).unwrap(); // multiplier 3
        assert_eq!(c.parallelism_hints, vec![3, 3, 3]);
        s.observe(1.0);
    }

    #[test]
    fn bo_round_trips_propose_observe() {
        let t = topo();
        let base = StormConfig::baseline(3);
        let mut s = Strategy::bo(&t, ParamSet::Hints, 1);
        assert_eq!(s.name(), "bo");
        for step in 0..6 {
            let c = s.propose(&t, &base, step).unwrap();
            assert!(c.validate(&t).is_ok());
            s.observe(c.parallelism_hints.iter().sum::<u32>() as f64);
        }
    }

    #[test]
    fn ibo_controls_only_the_multiplier() {
        let t = topo();
        let base = StormConfig::baseline(3);
        let mut s = Strategy::ibo(&t, 2);
        assert_eq!(s.name(), "ibo");
        let c = s.propose(&t, &base, 0).unwrap();
        // All weights are 1 in this topology, so hints are uniform.
        assert!(c
            .parallelism_hints
            .iter()
            .all(|&h| h == c.parallelism_hints[0]));
        s.observe(5.0);
    }

    #[test]
    #[should_panic(expected = "observe() must be called")]
    fn bo_requires_observation_between_proposals() {
        let t = topo();
        let base = StormConfig::baseline(3);
        let mut s = Strategy::bo(&t, ParamSet::Hints, 1);
        let _ = s.propose(&t, &base, 0);
        let _ = s.propose(&t, &base, 1);
    }

    #[test]
    fn linearity_flag() {
        let t = topo();
        assert!(Strategy::pla().is_linear());
        assert!(Strategy::ipla(&t).is_linear());
        assert!(!Strategy::bo(&t, ParamSet::Hints, 0).is_linear());
        assert!(!Strategy::tpe(&t, ParamSet::Hints, 0).is_linear());
        assert!(!Strategy::hyperband(&t, ParamSet::Hints, 0).is_linear());
        assert!(!Strategy::random(&t, ParamSet::Hints, 0).is_linear());
    }

    #[test]
    fn zoo_round_trips_propose_observe_deterministically() {
        let t = topo();
        let base = StormConfig::baseline(3);
        for make in [Strategy::tpe, Strategy::hyperband, Strategy::random] {
            let mut a = make(&t, ParamSet::Hints, 3);
            let mut b = make(&t, ParamSet::Hints, 3);
            for step in 0..8 {
                let ca = a.propose(&t, &base, step).unwrap();
                let cb = b.propose(&t, &base, step).unwrap();
                assert!(ca.validate(&t).is_ok());
                assert_eq!(ca, cb, "{} step {step}", a.name());
                let y = ca.parallelism_hints.iter().sum::<u32>() as f64;
                a.observe(y);
                b.observe(y);
            }
        }
    }

    #[test]
    fn zoo_names() {
        let t = topo();
        assert_eq!(Strategy::tpe(&t, ParamSet::Hints, 0).name(), "tpe");
        assert_eq!(
            Strategy::hyperband(&t, ParamSet::Hints, 0).name(),
            "hyperband"
        );
        assert_eq!(Strategy::random(&t, ParamSet::Hints, 0).name(), "random");
    }

    #[test]
    fn only_hyperband_allocates_measurement_budget() {
        let t = topo();
        let base = StormConfig::baseline(3);
        assert_eq!(Strategy::pla().measure_reps(), None);
        assert_eq!(Strategy::bo(&t, ParamSet::Hints, 0).measure_reps(), None);
        assert_eq!(Strategy::tpe(&t, ParamSet::Hints, 0).measure_reps(), None);
        assert_eq!(
            Strategy::random(&t, ParamSet::Hints, 0).measure_reps(),
            None
        );

        // The seam's exploratory schedule (eta 3, r 1..3, s_max 1):
        // bracket s=1 is three 1-rep steps then one 3-rep promotion,
        // bracket s=0 is two 3-rep steps, and the next iteration
        // repeats the cycle with fresh configurations.
        let mut hb = Strategy::hyperband(&t, ParamSet::Hints, 0);
        let mut reps = Vec::new();
        for step in 0..12 {
            let _ = hb.propose(&t, &base, step).unwrap();
            reps.push(hb.measure_reps().unwrap());
            hb.observe(1.0 + step as f64);
        }
        assert_eq!(reps, vec![1, 1, 1, 3, 3, 3, 1, 1, 1, 3, 3, 3]);
    }

    #[test]
    #[should_panic(expected = "observe() must be called")]
    fn tpe_requires_observation_between_proposals() {
        let t = topo();
        let base = StormConfig::baseline(3);
        let mut s = Strategy::tpe(&t, ParamSet::Hints, 1);
        let _ = s.propose(&t, &base, 0);
        let _ = s.propose(&t, &base, 1);
    }

    #[test]
    fn hints_strategies_build_on_graphs_past_the_task_cap() {
        // 4 000 vertices: one task per vertex already reaches the
        // baseline `max_tasks` cap, which used to make the range empty.
        let params =
            mtm_topogen::GgenParams::with_density(4_000, 10, 2.5, 4).expect("valid graph shape");
        let t = mtm_topogen::generate_layer_by_layer(&params);
        let base = StormConfig::baseline(t.n_nodes());
        for label in ["bo", "ibo", "random"] {
            let mut s = Strategy::by_name(label, &t, ParamSet::Hints, 5).unwrap();
            let c = s.propose(&t, &base, 0).unwrap();
            assert!(c.validate(&t).is_ok(), "{label} proposed an invalid config");
            assert!(c.max_tasks >= 4_000, "{label}: max_tasks {}", c.max_tasks);
            s.observe(1.0);
        }
    }
}
