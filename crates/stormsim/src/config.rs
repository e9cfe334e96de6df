//! The configuration surface of Table I.

use serde::{Deserialize, Serialize};

use crate::topology::Topology;

/// Why a [`StormConfig`] is unusable for a given topology.
///
/// The typed tail of the simulator error chain
/// (`ConfigError → SimError`), mirroring the optimizer's
/// `LinalgError → GpError → BoError` ladder: validation failures carry
/// structure instead of a formatted `String`, so callers can branch and
/// the happy path allocates nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    /// `parallelism_hints.len()` does not match the node count.
    HintCount {
        /// Hints supplied.
        hints: usize,
        /// Nodes in the topology.
        nodes: usize,
    },
    /// A count field that must be ≥ 1 is zero; the name says which.
    ZeroField(&'static str),
    /// Explicit acker count exceeds the task cap.
    AckersExceedMaxTasks {
        /// Requested acker tasks.
        ackers: u32,
        /// The configured task cap.
        max_tasks: u32,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::HintCount { hints, nodes } => {
                write!(f, "{hints} hints for {nodes} nodes")
            }
            ConfigError::ZeroField(name) => write!(f, "{name} must be >= 1"),
            ConfigError::AckersExceedMaxTasks { ackers, max_tasks } => {
                write!(f, "{ackers} ackers exceed max_tasks {max_tasks}")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// A complete runtime configuration for deploying a topology — exactly the
/// parameters of Table I in the paper.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StormConfig {
    /// Threads in each worker's executor pool ("Worker Threads").
    pub worker_threads: u32,
    /// Message-receive threads per worker ("Receiver Threads").
    pub receiver_threads: u32,
    /// Total acker task instances ("Ackers"). 0 = one per worker (the
    /// Storm default the paper used for its baseline runs).
    pub ackers: u32,
    /// Mini-batches processed in parallel ("Batch Parallelism").
    pub batch_parallelism: u32,
    /// Tuples per mini-batch ("Batch Size").
    pub batch_size: u32,
    /// Parallelism hint per topology node ("Parallelism Hints").
    pub parallelism_hints: Vec<u32>,
    /// Upper bound on total task instances; hints are normalized against
    /// it (paper §V-A: "we normalized the chosen hints using the max-task
    /// parameter").
    pub max_tasks: u32,
}

impl StormConfig {
    /// The baseline `max_tasks` cap (the paper cluster's task budget).
    pub const BASELINE_MAX_TASKS: u32 = 4_000;

    /// A conservative default for a topology with `n_nodes` operators:
    /// hint 1 everywhere, the paper's baseline batch settings.
    pub fn baseline(n_nodes: usize) -> Self {
        StormConfig {
            worker_threads: 8,
            receiver_threads: 1,
            ackers: 0,
            batch_parallelism: 3,
            batch_size: 300,
            parallelism_hints: vec![1; n_nodes],
            max_tasks: Self::BASELINE_MAX_TASKS,
        }
    }

    /// Uniform-hint constructor (what the `pla` strategy sweeps).
    pub fn uniform_hints(n_nodes: usize, hint: u32) -> Self {
        StormConfig {
            parallelism_hints: vec![hint.max(1); n_nodes],
            ..StormConfig::baseline(n_nodes)
        }
    }

    /// The actual task counts Storm would instantiate: hints clamped to at
    /// least 1, then scaled down proportionally if their sum exceeds
    /// `max_tasks` (each node keeps at least one task).
    pub fn normalized_tasks(&self, topo: &Topology) -> Vec<u32> {
        assert_eq!(
            self.parallelism_hints.len(),
            topo.n_nodes(),
            "one parallelism hint per topology node"
        );
        let mut out: Vec<u32> = self.parallelism_hints.iter().map(|&h| h.max(1)).collect();
        let total: u64 = out.iter().map(|&h| h as u64).sum();
        let cap = self.max_tasks.max(topo.n_nodes() as u32) as u64;
        if total <= cap {
            return out;
        }
        // Over budget: every node keeps one task, and the remaining
        // budget is distributed proportionally to the excess hints
        // (water-filling), so the sum never exceeds the cap.
        // `e * spare` fits in u64: e <= u32::MAX - 1 and spare <= cap <=
        // u32::MAX, so the product is below 2^64.
        let n = out.len() as u64;
        let spare = cap - n;
        if spare == 0 {
            // The cap is the node count: the one task each node keeps
            // takes the whole budget, so there is nothing to divide.
            out.fill(1);
            return out;
        }
        let excess_total: u64 = total - n;
        for h in out.iter_mut() {
            let e = (*h - 1) as u64;
            let extra = (e * spare).checked_div(excess_total).unwrap_or(0);
            *h = (1 + extra) as u32;
        }
        out
    }

    /// Total acker tasks given `workers` in use (Storm default: one per
    /// worker when unset).
    pub fn effective_ackers(&self, workers: usize) -> u32 {
        if self.ackers == 0 {
            workers as u32
        } else {
            self.ackers
        }
    }

    /// Validate ranges; returns the typed complaint if unusable.
    pub fn validate(&self, topo: &Topology) -> Result<(), ConfigError> {
        if self.parallelism_hints.len() != topo.n_nodes() {
            return Err(ConfigError::HintCount {
                hints: self.parallelism_hints.len(),
                nodes: topo.n_nodes(),
            });
        }
        if self.worker_threads == 0 {
            return Err(ConfigError::ZeroField("worker_threads"));
        }
        if self.receiver_threads == 0 {
            return Err(ConfigError::ZeroField("receiver_threads"));
        }
        if self.batch_parallelism == 0 {
            return Err(ConfigError::ZeroField("batch_parallelism"));
        }
        if self.batch_size == 0 {
            return Err(ConfigError::ZeroField("batch_size"));
        }
        if self.max_tasks == 0 {
            return Err(ConfigError::ZeroField("max_tasks"));
        }
        // ackers == 0 is valid: it is the documented "one per worker"
        // sentinel (see `effective_ackers`), and what `baseline()` uses.
        // Positive counts are bounded by the task cap like any other task
        // type.
        if self.ackers != 0 && self.ackers > self.max_tasks {
            return Err(ConfigError::AckersExceedMaxTasks {
                ackers: self.ackers,
                max_tasks: self.max_tasks,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::TopologyBuilder;

    fn chain(n: usize) -> Topology {
        let mut tb = TopologyBuilder::new("chain");
        let mut prev = tb.spout("s", 10.0);
        for i in 1..n {
            let b = tb.bolt(&format!("b{i}"), 10.0);
            tb.connect(prev, b);
            prev = b;
        }
        tb.build().unwrap()
    }

    #[test]
    fn normalization_noop_when_under_cap() {
        let t = chain(3);
        let mut c = StormConfig::baseline(3);
        c.parallelism_hints = vec![5, 7, 9];
        c.max_tasks = 100;
        assert_eq!(c.normalized_tasks(&t), vec![5, 7, 9]);
    }

    #[test]
    fn normalization_scales_proportionally() {
        let t = chain(3);
        let mut c = StormConfig::baseline(3);
        c.parallelism_hints = vec![10, 20, 70];
        c.max_tasks = 10;
        let tasks = c.normalized_tasks(&t);
        assert!(tasks.iter().sum::<u32>() <= 10, "{tasks:?}");
        // Ordering of the hints is preserved.
        assert!(tasks[0] <= tasks[1] && tasks[1] <= tasks[2], "{tasks:?}");
        // The biggest hint keeps the lion's share.
        assert!(tasks[2] >= 5, "{tasks:?}");
    }

    #[test]
    fn normalization_never_exceeds_cap_with_extreme_skew() {
        let t = chain(4);
        let mut c = StormConfig::baseline(4);
        c.parallelism_hints = vec![1, 1, 1, 500];
        c.max_tasks = 16;
        let tasks = c.normalized_tasks(&t);
        assert!(tasks.iter().sum::<u32>() <= 16, "{tasks:?}");
        assert!(tasks.iter().all(|&x| x >= 1));
    }

    #[test]
    fn normalization_keeps_minimum_one() {
        let t = chain(4);
        let mut c = StormConfig::baseline(4);
        c.parallelism_hints = vec![1, 1, 1, 997];
        c.max_tasks = 8;
        let tasks = c.normalized_tasks(&t);
        assert!(tasks.iter().all(|&x| x >= 1), "{tasks:?}");
    }

    /// The water-fill as written before it dropped to u64: the product
    /// widened to u128.
    fn normalized_tasks_u128(c: &StormConfig, n_nodes: usize) -> Vec<u32> {
        let mut out: Vec<u32> = c.parallelism_hints.iter().map(|&h| h.max(1)).collect();
        let total: u64 = out.iter().map(|&h| h as u64).sum();
        let cap = c.max_tasks.max(n_nodes as u32) as u64;
        if total <= cap {
            return out;
        }
        let n = out.len() as u64;
        let spare = cap - n;
        let excess_total: u64 = total - n;
        for h in out.iter_mut() {
            let e = (*h - 1) as u64;
            let extra = if excess_total == 0 {
                0
            } else {
                (e as u128 * spare as u128 / excess_total as u128) as u64
            };
            *h = (1 + extra) as u32;
        }
        out
    }

    #[test]
    fn u64_water_fill_is_bit_equal_to_the_u128_one() {
        let mut cases = Vec::new();
        for n in [2usize, 3, 1000] {
            // The overflow edge: the largest hints against the largest cap.
            let mut c = StormConfig::baseline(n);
            c.parallelism_hints = vec![u32::MAX; n];
            c.max_tasks = u32::MAX;
            cases.push(c.clone());
            // Uneven largest hints, so the quotients differ per node.
            c.parallelism_hints = (0..n as u32).map(|v| u32::MAX - v * 7).collect();
            cases.push(c.clone());
            // The cap equals the node count: every node keeps one task.
            c.max_tasks = n as u32;
            cases.push(c.clone());
            // All hints 1: nothing to distribute.
            c.parallelism_hints = vec![1; n];
            cases.push(c);
        }
        for c in &cases {
            let n = c.parallelism_hints.len();
            let t = chain(n);
            assert_eq!(
                c.normalized_tasks(&t),
                normalized_tasks_u128(c, n),
                "n={n} max_tasks={}",
                c.max_tasks
            );
        }
    }

    #[test]
    fn zero_hints_are_clamped() {
        let t = chain(2);
        let mut c = StormConfig::baseline(2);
        c.parallelism_hints = vec![0, 3];
        assert_eq!(c.normalized_tasks(&t), vec![1, 3]);
    }

    #[test]
    fn effective_ackers_defaults_to_workers() {
        let c = StormConfig::baseline(1);
        assert_eq!(c.effective_ackers(80), 80);
        let c = StormConfig {
            ackers: 5,
            ..StormConfig::baseline(1)
        };
        assert_eq!(c.effective_ackers(80), 5);
    }

    #[test]
    fn baseline_acker_sentinel_passes_validation() {
        // `baseline()` ships ackers = 0 — the documented "one per worker"
        // Storm default. The sentinel must validate and must resolve to
        // one acker per worker, while positive counts pass through.
        let t = chain(3);
        let c = StormConfig::baseline(3);
        assert_eq!(c.ackers, 0, "baseline uses the sentinel");
        assert!(c.validate(&t).is_ok(), "{:?}", c.validate(&t));
        assert_eq!(c.effective_ackers(12), 12);
        let explicit = StormConfig {
            ackers: 7,
            ..StormConfig::baseline(3)
        };
        assert!(explicit.validate(&t).is_ok());
        assert_eq!(explicit.effective_ackers(12), 7);
    }

    #[test]
    fn absurd_acker_counts_are_rejected() {
        let t = chain(3);
        let c = StormConfig {
            ackers: 5_000,
            max_tasks: 4_000,
            ..StormConfig::baseline(3)
        };
        assert!(
            c.validate(&t).is_err(),
            "ackers beyond max_tasks must fail validation"
        );
    }

    #[test]
    fn validation_catches_zeroes() {
        let t = chain(2);
        let good = StormConfig::baseline(2);
        assert!(good.validate(&t).is_ok());
        assert!(StormConfig {
            worker_threads: 0,
            ..good.clone()
        }
        .validate(&t)
        .is_err());
        assert!(StormConfig {
            batch_size: 0,
            ..good.clone()
        }
        .validate(&t)
        .is_err());
        assert!(StormConfig {
            parallelism_hints: vec![1],
            ..good
        }
        .validate(&t)
        .is_err());
    }
}
