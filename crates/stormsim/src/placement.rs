//! Task placement: Storm's even scheduler.
//!
//! One worker per machine; task instances (and acker tasks) are dealt
//! round-robin across workers, which is what Storm's default `EvenScheduler`
//! converges to for homogeneous workers. [`place_even`] materializes the
//! deal (the tuple simulator routes every tuple through it); the flow
//! model reads only each worker's load, which `WorkerLoad` accumulates
//! as it replays the same deal.

use crate::cluster::ClusterSpec;
use crate::topology::NodeId;

/// A task instance of a topology node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaskRef {
    /// The node this task instantiates.
    pub node: NodeId,
    /// Instance index within the node, `0..n_tasks(node)`.
    pub instance: u32,
}

/// The physical layout of a configured topology.
#[derive(Debug, Clone)]
pub struct Placement {
    /// Number of workers in use (= machines hosting at least one task).
    pub workers: usize,
    /// Every task instance, in global id order.
    pub tasks: Vec<TaskRef>,
    /// Worker index per task (parallel to `tasks`).
    pub task_worker: Vec<usize>,
    /// Worker index per acker instance.
    pub acker_worker: Vec<usize>,
    /// Topology task count per worker (ackers excluded).
    pub tasks_per_worker: Vec<usize>,
    /// Acker count per worker.
    pub ackers_per_worker: Vec<usize>,
}

/// Workers the even scheduler spreads `total_tasks` over: Storm uses as
/// many workers as it has been assigned, and with one worker slot per
/// machine and fewer tasks than machines, the surplus machines stay idle.
fn even_workers(total_tasks: usize, machines: usize) -> usize {
    total_tasks.min(machines).max(1)
}

/// Place `tasks_per_node[v]` instances of each node and `ackers` acker
/// tasks round-robin on the cluster.
pub fn place_even(tasks_per_node: &[u32], ackers: u32, cluster: &ClusterSpec) -> Placement {
    let total_tasks: usize = tasks_per_node.iter().map(|&t| t as usize).sum();
    let workers = even_workers(total_tasks, cluster.machines);

    let mut tasks = Vec::with_capacity(total_tasks);
    let mut task_worker = Vec::with_capacity(total_tasks);
    let mut tasks_per_worker = vec![0usize; workers];

    // Interleave nodes (rather than placing node-by-node) so every worker
    // gets a cross-section of the topology — matches Storm's executor
    // distribution closely enough for capacity modeling.
    let mut next_worker = 0usize;
    let mut remaining: Vec<u32> = tasks_per_node.to_vec();
    let mut instance: Vec<u32> = vec![0; tasks_per_node.len()];
    loop {
        let mut placed_any = false;
        for node in 0..tasks_per_node.len() {
            if remaining[node] == 0 {
                continue;
            }
            remaining[node] -= 1;
            tasks.push(TaskRef {
                node,
                instance: instance[node],
            });
            instance[node] += 1;
            task_worker.push(next_worker);
            tasks_per_worker[next_worker] += 1;
            next_worker = (next_worker + 1) % workers;
            placed_any = true;
        }
        if !placed_any {
            break;
        }
    }

    let mut acker_worker = Vec::with_capacity(ackers as usize);
    let mut ackers_per_worker = vec![0usize; workers];
    for a in 0..ackers as usize {
        let w = a % workers;
        acker_worker.push(w);
        ackers_per_worker[w] += 1;
    }

    Placement {
        workers,
        tasks,
        task_worker,
        acker_worker,
        tasks_per_worker,
        ackers_per_worker,
    }
}

impl Placement {
    /// Total topology task instances.
    pub fn total_tasks(&self) -> usize {
        self.tasks.len()
    }
}

/// Fraction of an edge's traffic that crosses machine boundaries under
/// shuffle grouping on `workers` workers, assuming both endpoint nodes
/// are spread evenly over them.
pub(crate) fn remote_fraction(workers: usize) -> f64 {
    if workers <= 1 {
        0.0
    } else {
        1.0 - 1.0 / workers as f64
    }
}

/// Each worker's share of [`place_even`]'s deal, accumulated while the
/// deal is replayed instead of materializing its task list: what the
/// flow model reads of a placement.
#[derive(Debug)]
pub(crate) struct WorkerLoad {
    /// Workers in use, as [`Placement::workers`].
    pub(crate) workers: usize,
    /// Topology task instances, as [`Placement::total_tasks`].
    pub(crate) total_tasks: usize,
    /// As [`Placement::tasks_per_worker`].
    pub(crate) tasks_per_worker: Vec<usize>,
    /// As [`Placement::ackers_per_worker`] (zeros until
    /// [`deal_ackers`](Self::deal_ackers)).
    pub(crate) ackers_per_worker: Vec<usize>,
    /// Per worker, the coefficient of each task dealt to it, summed in
    /// deal order, then the acker coefficient once per acker.
    pub(crate) machine_demand: Vec<f64>,
    /// Tasks of the largest node: the rounds the deal takes.
    rounds: u32,
    /// The worker the next topology task goes to.
    next_worker: usize,
}

impl WorkerLoad {
    /// An empty deal of `tasks_per_node` over the workers [`place_even`]
    /// would use on `machines` machines.
    ///
    /// [`place_even`] deals in rounds: round `k` gives the next worker
    /// one task of every node with more than `k` tasks, in node order.
    /// The flow model deals round 0 from its one walk over the nodes
    /// ([`deal_first_round`](Self::deal_first_round) per node, in node
    /// order), then the rest with
    /// [`deal_later_rounds`](Self::deal_later_rounds).
    pub(crate) fn new(tasks_per_node: &[u32], machines: usize) -> Self {
        let (total_tasks, rounds) = (tasks_per_node.iter())
            .fold((0usize, 0u32), |(sum, max), &t| {
                (sum + t as usize, max.max(t))
            });
        let workers = even_workers(total_tasks, machines);
        WorkerLoad {
            workers,
            total_tasks,
            tasks_per_worker: vec![0; workers],
            ackers_per_worker: vec![0; workers],
            machine_demand: vec![0.0; workers],
            rounds,
            next_worker: 0,
        }
    }

    /// Round 0 for one node with `tasks` tasks, each adding `coef` to
    /// the demand of its worker: its first task, if it has one.
    #[inline]
    pub(crate) fn deal_first_round(&mut self, tasks: u32, coef: f64) {
        if tasks > 0 {
            self.deal(coef);
        }
    }

    /// Rounds 1 and on, after round 0: round `k` walks every node and
    /// deals one more task of each node with more than `k` tasks. `coef`
    /// yields each node's coefficient in node order; it is read once,
    /// and only when some node has more than one task.
    pub(crate) fn deal_later_rounds(
        &mut self,
        tasks_per_node: &[u32],
        coef: impl Iterator<Item = f64>,
    ) {
        if self.rounds < 2 {
            return;
        }
        let coef: Vec<f64> = coef.collect();
        for round in 1..self.rounds {
            for (&tasks, &coef) in tasks_per_node.iter().zip(&coef) {
                if tasks > round {
                    self.deal(coef);
                }
            }
        }
    }

    /// Deal one task with demand `coef` to the next worker in turn. The
    /// worker cursor wraps by comparison: no division per task.
    #[inline]
    fn deal(&mut self, coef: f64) {
        self.machine_demand[self.next_worker] += coef;
        self.tasks_per_worker[self.next_worker] += 1;
        self.next_worker += 1;
        if self.next_worker == self.workers {
            self.next_worker = 0;
        }
    }

    /// Deal `ackers` acker tasks round-robin from worker 0, as
    /// [`place_even`] does, adding `ack_coef` to each one's worker.
    pub(crate) fn deal_ackers(&mut self, ackers: u32, ack_coef: f64) {
        let mut next_worker = 0usize;
        for _ in 0..ackers {
            self.machine_demand[next_worker] += ack_coef;
            self.ackers_per_worker[next_worker] += 1;
            next_worker += 1;
            if next_worker == self.workers {
                next_worker = 0;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn count_of(p: &Placement, node: NodeId) -> usize {
        p.tasks.iter().filter(|t| t.node == node).count()
    }

    #[test]
    fn counts_and_parallel_structures_agree() {
        let cl = ClusterSpec::tiny();
        let p = place_even(&[2, 3, 1], 4, &cl);
        assert_eq!(p.total_tasks(), 6);
        assert_eq!(p.workers, 2);
        assert_eq!(p.task_worker.len(), 6);
        assert_eq!(count_of(&p, 0), 2);
        assert_eq!(count_of(&p, 1), 3);
        assert_eq!(count_of(&p, 2), 1);
        assert_eq!(p.tasks_per_worker.iter().sum::<usize>(), 6);
        assert_eq!(p.ackers_per_worker.iter().sum::<usize>(), 4);
    }

    #[test]
    fn balance_is_tight() {
        let cl = ClusterSpec::paper_cluster();
        let p = place_even(&[40, 40, 40], 80, &cl);
        assert_eq!(p.workers, 80);
        let min = p.tasks_per_worker.iter().min().unwrap();
        let max = p.tasks_per_worker.iter().max().unwrap();
        assert!(max - min <= 1, "even scheduler keeps workers within 1 task");
    }

    #[test]
    fn fewer_tasks_than_machines_uses_fewer_workers() {
        let cl = ClusterSpec::paper_cluster();
        let p = place_even(&[1, 1, 1], 0, &cl);
        assert_eq!(p.workers, 3);
        assert_eq!(remote_fraction(p.workers), 1.0 - 1.0 / 3.0);
    }

    #[test]
    fn single_worker_has_no_remote_traffic() {
        let mut cl = ClusterSpec::tiny();
        cl.machines = 1;
        let p = place_even(&[1, 1, 1], 1, &cl);
        assert_eq!(p.workers, 1);
        assert_eq!(remote_fraction(p.workers), 0.0);
    }

    #[test]
    fn instances_are_sequential_within_node() {
        let cl = ClusterSpec::tiny();
        let p = place_even(&[3, 1, 1], 0, &cl);
        let instances: Vec<u32> = (p.tasks.iter())
            .filter(|t| t.node == 0)
            .map(|t| t.instance)
            .collect();
        assert_eq!(instances, vec![0, 1, 2]);
    }

    /// Task counts for 1–200 nodes (0–60 each, one node far longer so
    /// it deals alone for many rounds), a coefficient per node, a
    /// machine count from 1 to past the task total, and an acker count
    /// from 0 to past the worker count.
    fn arb_deal() -> impl Strategy<Value = (Vec<u32>, Vec<f64>, usize, u32)> {
        (1usize..=200)
            .prop_flat_map(|n| {
                (
                    prop::collection::vec(0u32..=60, n),
                    prop::collection::vec(0.0f64..1e3, n),
                    0..n,
                    61u32..=600,
                )
            })
            .prop_flat_map(|(mut tasks, coef, long, long_tasks)| {
                tasks[long] = long_tasks;
                let total = tasks.iter().map(|&t| t as usize).sum::<usize>();
                (
                    Just(tasks),
                    Just(coef),
                    1usize..=total + 8,
                    0u32..=total as u32 + 8,
                )
            })
    }

    /// `WorkerLoad`'s deal against the demand summed over `place_even`'s
    /// materialized placement, to the bit.
    fn deal_matches_place_even(
        tasks: &[u32],
        coef: &[f64],
        machines: usize,
        ackers: u32,
        ack_coef: f64,
    ) {
        let cluster = ClusterSpec {
            machines,
            ..ClusterSpec::tiny()
        };
        // The flow model's deal: round 0 node by node, then the rest.
        let mut load = WorkerLoad::new(tasks, machines);
        for (&t, &c) in tasks.iter().zip(coef) {
            load.deal_first_round(t, c);
        }
        load.deal_later_rounds(tasks, coef.iter().copied());
        load.deal_ackers(ackers, ack_coef);

        let p = place_even(tasks, ackers, &cluster);
        let mut demand = vec![0.0f64; p.workers];
        for (task, &w) in p.tasks.iter().zip(&p.task_worker) {
            demand[w] += coef[task.node];
        }
        for &w in &p.acker_worker {
            demand[w] += ack_coef;
        }

        assert_eq!(load.workers, p.workers);
        assert_eq!(load.total_tasks, p.total_tasks());
        assert_eq!(&load.tasks_per_worker, &p.tasks_per_worker);
        assert_eq!(&load.ackers_per_worker, &p.ackers_per_worker);
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&load.machine_demand), bits(&demand));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn worker_load_deal_is_bit_equal_to_place_even(
            (tasks, coef, machines, ackers) in arb_deal(),
            ack_coef in 0.0f64..1e3,
        ) {
            deal_matches_place_even(&tasks, &coef, machines, ackers, ack_coef);
        }
    }

    #[test]
    fn worker_load_deal_is_bit_equal_to_place_even_when_skewed() {
        // V = 10k with one node at 4000 tasks: the deal runs 3999 rounds
        // after the first on that node alone.
        let mut tasks = vec![1u32; 10_000];
        tasks[4_321] = 4_000;
        let coef: Vec<f64> = (0..10_000).map(|v| 0.5 + (v % 7) as f64 / 3.0).collect();
        for machines in [80, 400] {
            deal_matches_place_even(&tasks, &coef, machines, 96, 0.75);
        }
    }
}
