//! One propose/observe seam over the four search optimizers.
//!
//! [`Proposer`] is a closed enum rather than a trait object: recorders
//! carry an associated `const ENABLED`, so the generic
//! [`propose_recorded`](Proposer::propose_recorded) cannot sit behind
//! `dyn`. Each arm forwards to its optimizer unchanged, including how
//! that optimizer treats a non-finite objective (BO and TPE reject it,
//! Hyperband records it as zero, random search ignores it).

use mtm_obs::Recorder;

use crate::error::BoError;
use crate::hyperband::Hyperband;
use crate::optimizer::{BayesOpt, Candidate};
use crate::random_search::RandomSearch;
use crate::tpe::Tpe;

/// A search optimizer behind the shared propose/observe contract.
// Variant sizes differ by design: the BO variant carries the surrogate
// state; proposers are created once per pass, never stored in bulk.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum Proposer {
    /// Gaussian-process Bayesian Optimization.
    Bo(BayesOpt),
    /// Tree-structured Parzen Estimator.
    Tpe(Tpe),
    /// Successive halving / Hyperband over measurement budget.
    Hyperband(Hyperband),
    /// Uniform random search.
    Random(RandomSearch),
}

impl Proposer {
    /// The optimizer's label: `bo`, `tpe`, `hyperband` or `random`.
    pub fn name(&self) -> &'static str {
        match self {
            Proposer::Bo(_) => "bo",
            Proposer::Tpe(_) => "tpe",
            Proposer::Hyperband(_) => "hyperband",
            Proposer::Random(_) => "random",
        }
    }

    /// Propose the next candidate, tracing through `rec`. Only BO can
    /// fail (a surrogate error); the others always propose.
    // mtm-cold: one proposal per optimization step.
    pub fn propose_recorded<R: Recorder>(&mut self, rec: &mut R) -> Result<Candidate, BoError> {
        match self {
            Proposer::Bo(opt) => opt.propose_recorded(rec),
            Proposer::Tpe(opt) => Ok(opt.propose_recorded(rec)),
            Proposer::Hyperband(opt) => Ok(opt.propose_recorded(rec)),
            Proposer::Random(opt) => Ok(opt.propose_recorded(rec)),
        }
    }

    /// Feed back the objective `y` measured for `candidate`.
    pub fn observe(&mut self, candidate: Candidate, y: f64) -> Result<(), BoError> {
        match self {
            Proposer::Bo(opt) => opt.observe(candidate, y),
            Proposer::Tpe(opt) => opt.observe(candidate, y),
            Proposer::Hyperband(opt) => {
                opt.observe(y);
                Ok(())
            }
            Proposer::Random(opt) => {
                opt.observe(y);
                Ok(())
            }
        }
    }

    /// Measurement repetitions the pending proposal needs, for an
    /// optimizer that allocates budget itself (Hyperband); `None` for
    /// the others.
    pub fn pending_reps(&self) -> Option<usize> {
        match self {
            Proposer::Hyperband(opt) => Some(opt.pending_reps()),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hyperband::HyperbandConfig;
    use crate::optimizer::BoConfig;
    use crate::space::{Param, ParamSpace};
    use crate::tpe::TpeConfig;
    use mtm_obs::NullRecorder;

    fn zoo() -> [Proposer; 4] {
        let space = || ParamSpace::new(vec![Param::int("h", 1, 30)]);
        [
            Proposer::Bo(BayesOpt::new(space(), BoConfig::default())),
            Proposer::Tpe(Tpe::new(space(), TpeConfig::with_seed(1))),
            Proposer::Hyperband(Hyperband::new(space(), HyperbandConfig::default())),
            Proposer::Random(RandomSearch::new(space(), 1)),
        ]
    }

    #[test]
    fn arms_keep_their_optimizers_contract() {
        for mut p in zoo() {
            let name = p.name();
            assert_eq!(p.pending_reps().is_some(), name == "hyperband", "{name}");
            let cand = p.propose_recorded(&mut NullRecorder).unwrap();
            // Non-finite objectives: BO and TPE reject, the others absorb.
            let rejected = p.observe(cand, f64::NAN).is_err();
            assert_eq!(rejected, matches!(name, "bo" | "tpe"), "{name}");
        }
    }
}
