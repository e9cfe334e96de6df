//! Hyperband / successive halving over measurement duration (Li et al.,
//! "Hyperband: A Novel Bandit-Based Approach to Hyperparameter
//! Optimization", JMLR 2018; Jamieson & Talwalkar, AISTATS 2016).
//!
//! Where the paper's strategies spend one fixed-length measurement per
//! configuration, Hyperband allocates *measurement budget* adaptively: a
//! rung of configurations is measured cheaply (few averaged repetitions
//! — short effective measurement), the top `1/eta` survive and are
//! re-measured at `eta×` the budget, and so on until one configuration
//! holds the bracket's maximum budget. Budget here is the number of
//! 2-minute evaluation repetitions averaged per optimization step — the
//! protocol's `measure_reps` axis — which the experiment loop issues as
//! one `Measure::measure_batch` call, so a whole rung step scores in a
//! single batched pass.
//!
//! The full Hyperband schedule runs brackets from `s_max =
//! floor(log_eta(r_max/r_min))` down to 0 (most exploratory first) and
//! then starts a new iteration with fresh configurations, indefinitely —
//! the strategy never exhausts its schedule, matching the open-ended
//! propose/observe loop of the other strategies.
//!
//! Determinism contract: rung-0 configurations derive from
//! `(seed, iteration, bracket, slot)` alone; promotions order survivors
//! by `(y desc, slot asc)` under `total_cmp`. A resumed run that replays
//! its observations therefore rebuilds the exact bracket state, and the
//! per-rung budget (`pending_reps`) is a pure function of that state.

use mtm_obs::{Event, NullRecorder, Recorder};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::optimizer::Candidate;
use crate::space::ParamSpace;

/// Tuning knobs of the Hyperband schedule. Out-of-range values are
/// clamped at construction ([`Hyperband::new`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HyperbandConfig {
    /// Seed all configuration sampling derives from.
    pub seed: u64,
    /// Halving rate: survivors per rung = `1/eta` of the members (>= 2).
    pub eta: usize,
    /// Minimum budget (measurement repetitions) of a rung (>= 1).
    pub r_min: usize,
    /// Maximum budget a single configuration can reach (>= `r_min`).
    pub r_max: usize,
}

impl Default for HyperbandConfig {
    fn default() -> Self {
        HyperbandConfig {
            seed: 0,
            eta: 3,
            r_min: 1,
            r_max: 9,
        }
    }
}

impl HyperbandConfig {
    /// Default knobs with a caller-supplied seed.
    pub fn with_seed(seed: u64) -> Self {
        HyperbandConfig {
            seed,
            ..HyperbandConfig::default()
        }
    }
}

/// One rung of a bracket: `members` configurations, each measured with
/// `reps` averaged repetitions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rung {
    /// Configurations in the rung.
    pub members: usize,
    /// Measurement repetitions per configuration.
    pub reps: usize,
}

/// The largest bracket index: `floor(log_eta(r_max / r_min))`.
pub fn s_max(eta: usize, r_min: usize, r_max: usize) -> usize {
    let (eta, r_min) = (eta.max(2), r_min.max(1));
    let mut s = 0;
    let mut budget = r_min;
    while budget.saturating_mul(eta) <= r_max {
        budget = budget.saturating_mul(eta);
        s += 1;
    }
    s
}

/// The rung schedule of bracket `s` (Li et al., Alg. 1): rung 0 holds
/// `ceil((s_max+1)/(s+1)) · eta^s` configurations at budget
/// `r_max / eta^s`, and each later rung keeps `1/eta` of the members at
/// `eta×` the budget. Budgets are monotone non-decreasing down the
/// bracket and never exceed `r_max`.
pub fn bracket_rungs(config: &HyperbandConfig, s: usize) -> Vec<Rung> {
    let eta = config.eta.max(2);
    let r_min = config.r_min.max(1);
    let r_max = config.r_max.max(r_min);
    let smax = s_max(eta, r_min, r_max);
    let s = s.min(smax);
    // eta^s, saturating: brackets stay small in practice (s <= ~5).
    let pow = |e: usize| -> usize { (0..e).fold(1usize, |acc, _| acc.saturating_mul(eta)) };
    let n0 = (smax + 1).div_ceil(s + 1).saturating_mul(pow(s)).max(1);
    let r0 = (r_max / pow(s).max(1)).max(r_min);
    let mut rungs = Vec::with_capacity(s + 1);
    let mut members = n0;
    let mut reps = r0;
    for _ in 0..=s {
        // mtm-allow: alloc -- fills the pre-sized table, once per bracket
        rungs.push(Rung {
            members,
            reps: reps.min(r_max),
        });
        members = (members / eta).max(1);
        reps = reps.saturating_mul(eta);
    }
    rungs
}

/// The successive-halving/Hyperband propose/observe loop over one
/// [`ParamSpace`].
#[derive(Debug, Clone)]
pub struct Hyperband {
    space: ParamSpace,
    config: HyperbandConfig,
    /// Completed outer Hyperband iterations (each runs every bracket).
    iteration: u64,
    /// Bracket index within the iteration: `0..=s_max`, run in order of
    /// decreasing exploration (`s = s_max - bracket`).
    bracket: usize,
    /// Rung schedule of the current bracket, cached so the hot trial
    /// loop can poll [`pending_reps`](Self::pending_reps) without
    /// allocating.
    rungs: Vec<Rung>,
    /// Rung index within the bracket.
    rung: usize,
    /// Members of the current rung, carrying their rung-0 slot for the
    /// deterministic promotion tie-break.
    members: Vec<(usize, Candidate)>,
    /// Observed objectives of this rung, one per proposed member so far.
    ys: Vec<f64>,
    /// Next member to propose.
    next: usize,
}

impl Hyperband {
    /// A sampler over `space`. Config fields are clamped into their
    /// valid ranges (`eta >= 2`, `r_min >= 1`, `r_max >= r_min`).
    pub fn new(space: ParamSpace, config: HyperbandConfig) -> Self {
        let config = HyperbandConfig {
            eta: config.eta.max(2),
            r_min: config.r_min.max(1),
            r_max: config.r_max.max(config.r_min.max(1)),
            ..config
        };
        let mut hb = Hyperband {
            space,
            config,
            iteration: 0,
            bracket: 0,
            rungs: Vec::new(),
            rung: 0,
            members: Vec::new(),
            ys: Vec::new(),
            next: 0,
        };
        hb.enter_bracket();
        hb
    }

    /// The optimization domain.
    pub fn space(&self) -> &ParamSpace {
        &self.space
    }

    /// The effective (clamped) configuration.
    pub fn config(&self) -> &HyperbandConfig {
        &self.config
    }

    /// Measurement repetitions the *current* rung's proposals need —
    /// what the experiment loop passes to `Measure::measure_batch`.
    /// Constant-time and allocation-free (the trial loop polls it every
    /// step).
    pub fn pending_reps(&self) -> usize {
        self.rungs
            .get(self.rung)
            .map(|r| r.reps)
            .unwrap_or(self.config.r_min)
    }

    /// `(iteration, bracket s, rung)` — where the schedule stands.
    pub fn position(&self) -> (u64, usize, usize) {
        let smax = s_max(self.config.eta, self.config.r_min, self.config.r_max);
        (self.iteration, smax - self.bracket.min(smax), self.rung)
    }

    /// Propose the next configuration to evaluate.
    pub fn propose(&mut self) -> Candidate {
        self.propose_recorded(&mut NullRecorder)
    }

    /// [`propose`](Self::propose) with instrumentation: one
    /// [`Event::Propose`] per proposal, `path: "rung"` for freshly
    /// sampled rung-0 members and `path: "promote"` for survivors
    /// re-measured at a larger budget. `pool` is the rung size; `margin`
    /// carries the rung's budget in repetitions (the quantity this
    /// strategy actually allocates). The proposal is bitwise identical
    /// with any recorder.
    // mtm-cold: one proposal per optimization step, like BayesOpt's.
    pub fn propose_recorded<R: Recorder>(&mut self, rec: &mut R) -> Candidate {
        debug_assert!(
            self.next < self.members.len(),
            "observe() must be called between proposals"
        );
        let cand = self
            .members
            .get(self.next)
            .map(|(_, c)| c.clone())
            .unwrap_or_else(|| self.sample_slot(0));
        if R::ENABLED {
            rec.record(Event::Propose {
                step: self.ys.len(),
                path: if self.rung == 0 {
                    "rung".into()
                } else {
                    "promote".into()
                },
                refit: false,
                pool: self.members.len(),
                margin: self.pending_reps() as f64,
                polish_moves: 0,
                wall_ns: None,
            });
        }
        cand
    }

    /// Feed back the (budget-averaged) objective of the last proposal.
    /// Completes the rung when every member is observed: the top `1/eta`
    /// survivors are promoted to the next rung, or the next bracket (or
    /// iteration) starts.
    pub fn observe(&mut self, y: f64) {
        // mtm-allow: alloc -- amortized rung-result append; one per measured trial
        self.ys.push(if y.is_finite() { y } else { 0.0 });
        self.next += 1;
        if self.next < self.members.len() {
            return;
        }
        // Rung complete: promote or advance the schedule.
        let next_rung = self.rung + 1;
        if let Some(target) = self.rungs.get(next_rung).copied() {
            // Order survivors by (y desc, rung-0 slot asc) — finite ys
            // order identically under total_cmp and partial comparison.
            // mtm-allow: alloc -- survivor ordering, once per completed rung
            let mut order: Vec<usize> = (0..self.members.len()).collect();
            order.sort_by(|&a, &b| {
                let ya = self.ys.get(a).copied().unwrap_or(f64::NEG_INFINITY);
                let yb = self.ys.get(b).copied().unwrap_or(f64::NEG_INFINITY);
                yb.total_cmp(&ya).then(a.cmp(&b))
            });
            let keep = target.members.min(order.len()).max(1);
            let mut promoted = Vec::with_capacity(keep);
            for &i in order.iter().take(keep) {
                if let Some(m) = self.members.get(i) {
                    // mtm-allow: alloc -- top-1/eta promotion, once per completed rung
                    promoted.push(m.clone());
                }
            }
            self.members = promoted;
            self.rung = next_rung;
        } else {
            // Bracket finished; move to the next (or wrap the iteration).
            let smax = s_max(self.config.eta, self.config.r_min, self.config.r_max);
            self.rung = 0;
            if self.bracket < smax {
                self.bracket += 1;
            } else {
                self.bracket = 0;
                self.iteration += 1;
            }
            self.enter_bracket();
        }
        self.ys.clear();
        self.next = 0;
    }

    /// Cache the current bracket's rung schedule (`s = s_max - bracket`)
    /// and sample its full rung-0 membership.
    fn enter_bracket(&mut self) {
        let smax = s_max(self.config.eta, self.config.r_min, self.config.r_max);
        self.rungs = bracket_rungs(&self.config, smax - self.bracket.min(smax));
        let n = self.rungs.first().map(|r| r.members).unwrap_or(1);
        // mtm-allow: alloc -- samples the rung-0 membership, once per bracket
        self.members = (0..n).map(|slot| (slot, self.sample_slot(slot))).collect();
    }

    /// Deterministic rung-0 sample for `slot` of the current
    /// `(iteration, bracket)` — independent of everything observed.
    fn sample_slot(&self, slot: usize) -> Candidate {
        let key = self
            .iteration
            .wrapping_mul(1_000_003)
            .wrapping_add(self.bracket as u64)
            .wrapping_mul(1_000_003)
            .wrapping_add(slot as u64);
        let mut rng = StdRng::seed_from_u64(self.config.seed ^ key.wrapping_mul(0x9E37_79B9));
        self.space.sample_candidate(&mut rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::Param;

    fn space() -> ParamSpace {
        ParamSpace::new(vec![Param::int("h", 1, 30), Param::int("w", 1, 8)])
    }

    #[test]
    fn default_schedule_matches_li_et_al() {
        let cfg = HyperbandConfig::default(); // eta 3, r 1..9 => s_max 2
        assert_eq!(s_max(cfg.eta, cfg.r_min, cfg.r_max), 2);
        let b2 = bracket_rungs(&cfg, 2);
        assert_eq!(
            b2,
            vec![
                Rung {
                    members: 9,
                    reps: 1
                },
                Rung {
                    members: 3,
                    reps: 3
                },
                Rung {
                    members: 1,
                    reps: 9
                },
            ]
        );
        let b1 = bracket_rungs(&cfg, 1);
        assert_eq!(
            b1,
            vec![
                Rung {
                    members: 6,
                    reps: 3
                },
                Rung {
                    members: 2,
                    reps: 9
                }
            ]
        );
        let b0 = bracket_rungs(&cfg, 0);
        assert_eq!(
            b0,
            vec![Rung {
                members: 3,
                reps: 9
            }]
        );
    }

    #[test]
    fn rung_budgets_never_decrease_within_a_bracket() {
        for eta in 2..=4 {
            for r_max in [1usize, 4, 9, 27, 81] {
                let cfg = HyperbandConfig {
                    seed: 0,
                    eta,
                    r_min: 1,
                    r_max,
                };
                for s in 0..=s_max(eta, 1, r_max) {
                    let rungs = bracket_rungs(&cfg, s);
                    for pair in rungs.windows(2) {
                        assert!(
                            pair[1].reps >= pair[0].reps,
                            "eta={eta} r_max={r_max} s={s}: budgets {rungs:?}"
                        );
                        assert!(pair[1].members <= pair[0].members);
                    }
                    assert!(rungs.iter().all(|r| r.reps <= r_max.max(1)));
                }
            }
        }
    }

    /// Drive `steps` proposals with a deterministic synthetic objective;
    /// returns `(values per step, reps per step)`.
    fn drive(seed: u64, steps: usize) -> (Vec<Vec<crate::space::Value>>, Vec<usize>) {
        let mut hb = Hyperband::new(space(), HyperbandConfig::with_seed(seed));
        let mut values = Vec::new();
        let mut reps = Vec::new();
        for _ in 0..steps {
            let cand = hb.propose();
            reps.push(hb.pending_reps());
            let y = cand.values.iter().map(|v| v.as_float()).sum::<f64>();
            values.push(cand.values);
            hb.observe(y);
        }
        (values, reps)
    }

    #[test]
    fn promotion_re_measures_the_best_members_at_larger_budget() {
        // Default bracket s=2: 9 configs at 1 rep, then the top 3 at 3.
        let (values, reps) = drive(7, 12);
        assert_eq!(&reps[..9], &[1; 9]);
        assert_eq!(&reps[9..12], &[3; 3]);
        // The promoted trio are exactly the 3 best-scoring rung-0 configs
        // (objective = sum of values, deterministic, noise-free).
        let score = |v: &Vec<crate::space::Value>| v.iter().map(|x| x.as_float()).sum::<f64>();
        let mut rung0: Vec<&Vec<crate::space::Value>> = values[..9].iter().collect();
        rung0.sort_by(|a, b| score(b).total_cmp(&score(a)));
        let expect: Vec<_> = rung0.into_iter().take(3).cloned().collect();
        assert_eq!(&values[9..12], &expect[..]);
    }

    #[test]
    fn schedule_is_deterministic_and_endless() {
        let (a_vals, a_reps) = drive(3, 40);
        let (b_vals, b_reps) = drive(3, 40);
        assert_eq!(a_vals, b_vals);
        assert_eq!(a_reps, b_reps);
        // 40 steps crosses into the second iteration's bracket: fresh
        // configurations keep coming (iteration folded into the seeds).
        let (c_vals, _) = drive(4, 40);
        assert_ne!(a_vals, c_vals, "different seed, different configs");
    }

    #[test]
    fn full_iteration_walks_every_bracket() {
        let mut hb = Hyperband::new(space(), HyperbandConfig::with_seed(1));
        // Default schedule: bracket s=2 (9+3+1), s=1 (6+2), s=0 (3) = 24.
        let mut positions = Vec::new();
        for _ in 0..24 {
            let _ = hb.propose();
            positions.push(hb.position());
            hb.observe(1.0);
        }
        assert_eq!(positions.first().copied(), Some((0, 2, 0)));
        assert!(positions.contains(&(0, 1, 0)));
        assert!(positions.contains(&(0, 0, 0)));
        assert_eq!(hb.position(), (1, 2, 0), "next iteration begins");
    }
}
