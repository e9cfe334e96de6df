//! Pure random search over a [`ParamSpace`] — the calibration floor of
//! the strategy zoo (Bergstra & Bengio, "Random Search for
//! Hyper-Parameter Optimization", JMLR 2012).
//!
//! Every proposal is an independent uniform draw from the space,
//! seeded per step exactly like the other strategies:
//! `StdRng::seed_from_u64(seed ^ step * 0x9E37_79B9)`. The draw depends
//! only on `(seed, step)`, never on observations, so a resumed run that
//! replays its journal lands on the identical sequence by construction.

use mtm_obs::{Event, NullRecorder, Recorder};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::optimizer::Candidate;
use crate::space::ParamSpace;

/// The random-search propose/observe loop.
#[derive(Debug, Clone)]
pub struct RandomSearch {
    space: ParamSpace,
    seed: u64,
    /// Completed observations — the step counter.
    step: usize,
}

impl RandomSearch {
    /// A uniform sampler over `space`.
    pub fn new(space: ParamSpace, seed: u64) -> Self {
        RandomSearch {
            space,
            seed,
            step: 0,
        }
    }

    /// The optimization domain.
    pub fn space(&self) -> &ParamSpace {
        &self.space
    }

    /// Completed observations.
    pub fn step(&self) -> usize {
        self.step
    }

    /// Propose the next configuration: a fresh uniform sample.
    pub fn propose(&mut self) -> Candidate {
        self.propose_recorded(&mut NullRecorder)
    }

    /// [`propose`](Self::propose) with instrumentation: one
    /// [`Event::Propose`] with `path: "random"` per proposal. The
    /// proposal is bitwise identical with any recorder.
    // mtm-cold: one proposal per optimization step, like BayesOpt's.
    pub fn propose_recorded<R: Recorder>(&mut self, rec: &mut R) -> Candidate {
        let mut rng =
            StdRng::seed_from_u64(self.seed ^ (self.step as u64).wrapping_mul(0x9E37_79B9));
        let candidate = self.space.sample_candidate(&mut rng);
        if R::ENABLED {
            rec.record(Event::Propose {
                step: self.step,
                path: "random".into(),
                refit: false,
                pool: 1,
                margin: 0.0,
                polish_moves: 0,
                wall_ns: None,
            });
        }
        candidate
    }

    /// Record that the last proposal was measured. The objective value
    /// is ignored — random search never adapts — but the call advances
    /// the step counter that seeds the next draw.
    pub fn observe(&mut self, _y: f64) {
        self.step += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::Param;

    fn space() -> ParamSpace {
        ParamSpace::new(vec![
            Param::int("h", 1, 30),
            Param::log_int("batch", 10, 10_000),
        ])
    }

    #[test]
    fn sequence_is_deterministic_and_observation_independent() {
        let mut a = RandomSearch::new(space(), 9);
        let mut b = RandomSearch::new(space(), 9);
        for i in 0..10 {
            let ca = a.propose();
            let cb = b.propose();
            assert_eq!(ca, cb);
            a.observe(i as f64);
            b.observe(-1e9 * i as f64); // wildly different ys, same path
        }
        assert_eq!(a.propose(), b.propose());
    }

    #[test]
    fn different_seeds_diverge_and_proposals_vary_by_step() {
        let mut a = RandomSearch::new(space(), 1);
        let mut c = RandomSearch::new(space(), 2);
        let pa = a.propose();
        assert_ne!(pa, c.propose());
        a.observe(0.0);
        assert_ne!(pa, a.propose(), "step advances the draw");
    }

    #[test]
    fn proposals_are_canonical_unit_points() {
        let mut rs = RandomSearch::new(space(), 5);
        for _ in 0..20 {
            let c = rs.propose();
            assert!(c.unit.iter().all(|u| (0.0..=1.0).contains(u)));
            assert_eq!(rs.space().canonicalize(&c.unit), c.unit);
            assert_eq!(rs.space().decode(&c.unit), c.values);
            rs.observe(1.0);
        }
    }
}
