//! The per-tuple discrete-event simulator.
//!
//! Where [`crate::flow_sim`] solves for steady-state rates analytically,
//! [`TupleSimulator`] actually plays the system out tuple by tuple on the
//! [`crate::engine::EventQueue`]: spout tasks emit mini-batches, bolts
//! queue and service tuples on their worker's thread pool, emitted tuples
//! are routed per grouping (with network delay for remote hops), every
//! processed tuple is acked through acker tasks, and a batch commits only
//! once all of its tuples and acks have drained — the Trident semantics
//! the paper's topologies ran under.
//!
//! It is the ground truth the fast model is validated against (see the
//! integration tests), and the right tool for studying transient behaviour
//! that a steady-state model cannot express.

use std::collections::VecDeque;

use mtm_obs::{Event, NullRecorder, Recorder};

use crate::cluster::ClusterSpec;
use crate::config::StormConfig;
use crate::engine::EventQueue;
use crate::metrics::{Bottleneck, SimResult};
use crate::placement::{place_even, Placement};
use crate::simulator::SimError;
use crate::topology::{Grouping, RoutePolicy, Topology};

/// Options for a tuple-level simulation run.
#[derive(Debug, Clone, Copy)]
pub struct TupleSimOptions {
    /// Measurement window in virtual seconds.
    pub window_s: f64,
    /// Hard cap on processed events (guards against runaway configs).
    pub max_events: u64,
    /// One-way latency added to remote (cross-worker) tuple deliveries.
    pub network_delay_s: f64,
}

impl Default for TupleSimOptions {
    fn default() -> Self {
        TupleSimOptions {
            window_s: 120.0,
            max_events: 50_000_000,
            network_delay_s: 0.000_5,
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum Ev {
    /// A tuple (or ack) arrives at a task's queue.
    Deliver { task: usize, batch: u32 },
    /// A task finishes servicing one message.
    Finish { task: usize, batch: u32 },
    /// A batch's commit coordination completes.
    Commit { batch: u32 },
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum TaskKind {
    Node(usize),
    Acker,
}

struct TaskState {
    kind: TaskKind,
    worker: usize,
    queue: VecDeque<u32>, // batch ids of queued messages
    running: bool,
    /// Per-out-edge fractional emission accumulators (selectivity).
    emit_acc: Vec<f64>,
    /// Round-robin counters: one per out edge for destination choice,
    /// plus one for split-route edge choice.
    rr_dest: Vec<u64>,
    rr_edge: u64,
    processed: u64,
}

struct WorkerState {
    free_slots: u32,
    waiting: VecDeque<usize>,
    slowdown: f64,
    net_bytes: f64,
}

struct BatchState {
    outstanding: u64,
    emitted_all: bool,
}

/// The per-tuple discrete-event simulator, bound to one topology,
/// cluster and set of run options.
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
        SimError::check_window(opts.window_s)?;
        Ok(TupleSimulator {
            topo,
            cluster,
            opts,
        })
    }

    /// Play one configuration out tuple by tuple.
    pub fn evaluate(&self, config: &StormConfig) -> Result<SimResult, SimError> {
        self.evaluate_recorded(config, &mut NullRecorder)
    }

    /// Play one configuration out, recording start/end markers,
    /// per-operator processed counters and queue high-water marks, and
    /// event-engine statistics to `rec`. With [`NullRecorder`] the
    /// high-water-mark bookkeeping is skipped entirely; the result is
    /// bitwise identical either way, since recording is a passive
    /// observer. An invalid configuration records nothing.
    pub fn evaluate_recorded<R: Recorder>(
        &self,
        config: &StormConfig,
        rec: &mut R,
    ) -> Result<SimResult, SimError> {
        let (topo, cluster, opts) = (&self.topo, &self.cluster, &self.opts);
        StormConfig::validate(config, topo)?;
        if R::ENABLED {
            rec.record(Event::SimStart {
                sim: "tuple".into(),
                topo: topo.name_label().into(),
                nodes: topo.n_nodes(),
                window_s: opts.window_s,
            });
        }
        let tasks_per_node = config.normalized_tasks(topo);
        let total_topo_tasks: usize = tasks_per_node.iter().map(|&t| t as usize).sum();
        let ackers = config.effective_ackers(total_topo_tasks.min(cluster.machines));
        let placement = place_even(&tasks_per_node, ackers, cluster);

        let mut sim = Sim::new(topo, config, cluster, &placement, opts, R::ENABLED);
        sim.run_des();
        let result = sim.result();
        if R::ENABLED {
            sim.emit_stats(rec);
            rec.record(Event::SimEnd {
                throughput: result.throughput_tps,
                bottleneck: result.bottleneck.label(),
                committed: result.committed_batches,
            });
        }
        #[cfg(feature = "strict-invariants")]
        crate::invariants::assert_finite(
            "tuple-sim metrics (throughput, net, cpu)",
            &[
                result.throughput_tps,
                result.avg_worker_net_mbps,
                result.cpu_utilization,
            ],
        );
        Ok(result)
    }
}

struct Sim<'a> {
    topo: &'a Topology,
    config: &'a StormConfig,
    cluster: &'a ClusterSpec,
    placement: &'a Placement,
    opts: &'a TupleSimOptions,
    queue: EventQueue<Ev>,
    tasks: Vec<TaskState>,
    workers: Vec<WorkerState>,
    /// Task ids per node (indices into `tasks`), then acker task ids.
    node_tasks: Vec<Vec<usize>>,
    acker_tasks: Vec<usize>,
    /// Task ids of every spout task, in round-robin emission order —
    /// precomputed so `launch_batch` never rebuilds it per batch.
    spout_tasks: Vec<usize>,
    batches: Vec<BatchState>,
    launched: u32,
    committed: u64,
    next_spout_rr: u64,
    aborted: bool,
    /// When recording: per-task queue high-water marks (empty otherwise,
    /// so the unrecorded hot path skips the bookkeeping entirely).
    queue_hwm: Vec<usize>,
}

impl<'a> Sim<'a> {
    fn new(
        topo: &'a Topology,
        config: &'a StormConfig,
        cluster: &'a ClusterSpec,
        placement: &'a Placement,
        opts: &'a TupleSimOptions,
        track_stats: bool,
    ) -> Self {
        let mut tasks = Vec::with_capacity(placement.tasks.len() + placement.acker_worker.len());
        let mut node_tasks = vec![Vec::new(); topo.n_nodes()];
        for (tid, tref) in placement.tasks.iter().enumerate() {
            node_tasks[tref.node].push(tasks.len());
            let n_out = topo.out_edges(tref.node).len();
            tasks.push(TaskState {
                kind: TaskKind::Node(tref.node),
                worker: placement.task_worker[tid],
                queue: VecDeque::new(),
                running: false,
                emit_acc: vec![0.0; n_out],
                rr_dest: vec![0; n_out],
                rr_edge: 0,
                processed: 0,
            });
        }
        let mut acker_tasks = Vec::new();
        for &w in &placement.acker_worker {
            acker_tasks.push(tasks.len());
            tasks.push(TaskState {
                kind: TaskKind::Acker,
                worker: w,
                queue: VecDeque::new(),
                running: false,
                emit_acc: Vec::new(),
                rr_dest: Vec::new(),
                rr_edge: 0,
                processed: 0,
            });
        }

        let workers = (0..placement.workers)
            .map(|m| {
                let threads = (placement.tasks_per_worker[m] as u32).min(config.worker_threads)
                    + config.receiver_threads
                    + placement.ackers_per_worker[m] as u32;
                let capacity = cluster.machine_capacity(threads);
                let spin = cluster.task_spin_units
                    * (placement.tasks_per_worker[m] + placement.ackers_per_worker[m]) as f64;
                let avail = (capacity - spin).max(1e-9);
                // How much slower a single thread runs than the 1-unit/ms
                // ideal, once capacity is shared across concurrent slots.
                let concurrency = (placement.tasks_per_worker[m] as u32)
                    .min(config.worker_threads)
                    .max(1);
                let per_thread = (avail / concurrency as f64).min(cluster.unit_rate);
                WorkerState {
                    free_slots: config.worker_threads.max(1),
                    waiting: VecDeque::new(),
                    slowdown: cluster.unit_rate / per_thread,
                    net_bytes: 0.0,
                }
            })
            .collect();

        let queue_hwm = if track_stats {
            vec![0; tasks.len()]
        } else {
            Vec::new()
        };
        let spout_tasks: Vec<usize> = topo
            .spouts()
            .iter()
            .flat_map(|&s| node_tasks[s].iter().copied())
            .collect();
        Sim {
            topo,
            config,
            cluster,
            placement,
            opts,
            queue: EventQueue::new(),
            tasks,
            workers,
            node_tasks,
            acker_tasks,
            spout_tasks,
            batches: Vec::new(),
            launched: 0,
            committed: 0,
            next_spout_rr: 0,
            aborted: false,
            queue_hwm,
        }
    }

    fn service_units(&self, task: usize) -> f64 {
        match self.tasks[task].kind {
            TaskKind::Node(node) => {
                let contention = if self.topo.is_contentious(node) {
                    (self.node_tasks[node].len() as f64).powf(self.cluster.contention_exponent)
                } else {
                    1.0
                };
                self.topo.time_complexity(node) * contention + self.cluster.per_tuple_overhead_units
            }
            TaskKind::Acker => self.cluster.acker_cost_units,
        }
    }

    fn launch_batch(&mut self) {
        let batch = self.batches.len() as u32;
        // mtm-allow: alloc -- one entry per batch, amortized over batch_size tuples
        self.batches.push(BatchState {
            outstanding: self.config.batch_size as u64,
            emitted_all: true, // all emit jobs enqueued below, synchronously
        });
        self.launched += 1;
        // Distribute the batch's emit jobs round-robin over the
        // precomputed spout tasks.
        debug_assert!(!self.spout_tasks.is_empty());
        for _ in 0..self.config.batch_size {
            let t = self.spout_tasks[(self.next_spout_rr as usize) % self.spout_tasks.len()];
            self.next_spout_rr += 1;
            self.enqueue(t, batch, 0.0);
        }
    }

    /// Put a message on a task's queue after `delay`, via a Deliver event.
    fn enqueue(&mut self, task: usize, batch: u32, delay: f64) {
        self.queue.schedule_in(delay, Ev::Deliver { task, batch });
    }

    fn deliver(&mut self, task: usize, batch: u32) {
        // mtm-allow: alloc -- task queues reuse capacity after warmup high-water
        self.tasks[task].queue.push_back(batch);
        if !self.queue_hwm.is_empty() {
            let depth = self.tasks[task].queue.len();
            if depth > self.queue_hwm[task] {
                self.queue_hwm[task] = depth;
            }
        }
        self.try_start(task);
    }

    fn try_start(&mut self, task: usize) {
        let t = &self.tasks[task];
        if t.running || t.queue.is_empty() {
            return;
        }
        let w = t.worker;
        if self.workers[w].free_slots == 0 {
            if !self.workers[w].waiting.contains(&task) {
                // mtm-allow: alloc -- waiting list bounded by the worker task count
                self.workers[w].waiting.push_back(task);
            }
            return;
        }
        self.workers[w].free_slots -= 1;
        let batch = *self.tasks[task].queue.front().expect("non-empty queue");
        self.tasks[task].running = true;
        let service = self.service_units(task) / self.cluster.unit_rate * self.workers[w].slowdown;
        self.queue.schedule_in(service, Ev::Finish { task, batch });
    }

    fn finish(&mut self, task: usize, batch: u32) {
        let popped = self.tasks[task].queue.pop_front();
        debug_assert_eq!(popped, Some(batch));
        self.tasks[task].running = false;
        self.tasks[task].processed += 1;
        let worker = self.tasks[task].worker;
        self.workers[worker].free_slots += 1;

        match self.tasks[task].kind {
            TaskKind::Node(node) => {
                self.emit_children(task, node, batch);
                // Every processed tuple sends an ack op to an acker.
                if self.acker_tasks.is_empty() {
                    // No ackers at all: account directly.
                    self.batches[batch as usize].outstanding -= 1;
                    self.maybe_commit(batch);
                } else {
                    let a = self.acker_tasks
                        [(self.tasks[task].processed as usize) % self.acker_tasks.len()];
                    self.enqueue(a, batch, 0.0);
                }
            }
            TaskKind::Acker => {
                self.batches[batch as usize].outstanding -= 1;
                self.maybe_commit(batch);
            }
        }

        // Wake this task again or a waiting neighbour.
        self.try_start(task);
        while self.workers[worker].free_slots > 0 {
            match self.workers[worker].waiting.pop_front() {
                Some(next) => self.try_start(next),
                None => break,
            }
        }
    }

    fn emit_children(&mut self, task: usize, node: usize, batch: u32) {
        // Copy the topology reference out of `self` so iterating its
        // edge list does not hold a borrow of `self` across the
        // `send_on_edge` calls below — this used to `to_vec` the edge
        // list on every processed tuple.
        let topo = self.topo;
        let out = topo.out_edges(node);
        if out.is_empty() {
            return;
        }
        let route = topo.route(node);
        let selectivity = topo.selectivity(node);
        let n_out = out.len();
        // Selectivity: how many child tuples this processing produces.
        for (slot, &ei) in out.iter().enumerate() {
            let share = match route {
                RoutePolicy::Replicate => selectivity,
                RoutePolicy::Split => {
                    // Emit to one edge per output tuple, cycling edges.
                    if (self.tasks[task].rr_edge as usize) % n_out == slot {
                        selectivity
                    } else {
                        0.0
                    }
                }
            };
            self.tasks[task].emit_acc[slot] += share;
            while self.tasks[task].emit_acc[slot] >= 1.0 {
                self.tasks[task].emit_acc[slot] -= 1.0;
                self.send_on_edge(task, ei as usize, slot, batch);
            }
        }
        self.tasks[task].rr_edge += 1;
    }

    fn send_on_edge(&mut self, from_task: usize, edge_idx: usize, slot: usize, batch: u32) {
        let edge_to = self.topo.edge_to(edge_idx);
        let edge_from = self.topo.edge_from(edge_idx);
        let dests = &self.node_tasks[edge_to];
        debug_assert!(!dests.is_empty());
        let pick = match self.topo.edge_grouping(edge_idx) {
            Grouping::Shuffle => (self.tasks[from_task].rr_dest[slot] as usize) % dests.len(),
            Grouping::Fields { key_cardinality } => {
                let key = (self.tasks[from_task].rr_dest[slot] as usize)
                    % key_cardinality.max(1) as usize;
                key % dests.len()
            }
            Grouping::Global => 0,
        };
        self.tasks[from_task].rr_dest[slot] += 1;
        let dest = dests[pick];
        self.batches[batch as usize].outstanding += 1;
        let remote = self.tasks[from_task].worker != self.tasks[dest].worker;
        let delay = if remote {
            let bytes = self.topo.tuple_bytes(edge_from) as f64;
            self.workers[self.tasks[from_task].worker].net_bytes += bytes;
            self.workers[self.tasks[dest].worker].net_bytes += bytes;
            self.opts.network_delay_s
        } else {
            0.0
        };
        self.enqueue(dest, batch, delay);
    }

    fn maybe_commit(&mut self, batch: u32) {
        let b = &self.batches[batch as usize];
        if b.emitted_all && b.outstanding == 0 {
            let t_commit = self.cluster.batch_overhead_s
                + self.cluster.batch_coord_per_task_s
                    * (self.placement.total_tasks() + self.acker_tasks.len()) as f64;
            self.queue.schedule_in(t_commit, Ev::Commit { batch });
        }
    }

    // (named `run_des`, not `run`: the checker's call graph resolves
    // method calls by bare name, and `run` collides with half the
    // workspace's entry points — phantom edges everywhere.)
    // mtm-hot: tuple-sim
    fn run_des(&mut self) {
        for _ in 0..self.config.batch_parallelism {
            self.launch_batch();
        }
        while let Some((time, ev)) = self.queue.pop() {
            if time > self.opts.window_s {
                break;
            }
            if self.queue.events_processed() > self.opts.max_events {
                self.aborted = true;
                break;
            }
            match ev {
                Ev::Deliver { task, batch } => self.deliver(task, batch),
                Ev::Finish { task, batch } => self.finish(task, batch),
                Ev::Commit { batch } => {
                    let _ = batch;
                    self.committed += 1;
                    self.launch_batch();
                }
            }
        }
    }

    fn result(&self) -> SimResult {
        if self.aborted {
            return SimResult::failed(
                self.opts.window_s,
                self.placement.workers,
                self.placement.total_tasks(),
            );
        }
        let window = self.opts.window_s;
        let committed_tuples = self.committed * self.config.batch_size as u64;
        let throughput = committed_tuples as f64 / window;
        let avg_net = if self.placement.workers > 0 {
            self.workers.iter().map(|w| w.net_bytes).sum::<f64>()
                / (2.0 * self.placement.workers as f64) // bytes counted at both ends
                / window
                / (1024.0 * 1024.0)
        } else {
            0.0
        };
        // Approximate utilization from work performed.
        let work_units: f64 = self
            .tasks
            .iter()
            .enumerate()
            .map(|(t, st)| st.processed as f64 * self.service_units(t))
            .sum();
        let capacity: f64 = (0..self.placement.workers)
            .map(|m| {
                let threads = (self.placement.tasks_per_worker[m] as u32)
                    .min(self.config.worker_threads)
                    + self.config.receiver_threads
                    + self.placement.ackers_per_worker[m] as u32;
                self.cluster.machine_capacity(threads) * window
            })
            .sum();
        SimResult {
            throughput_tps: throughput,
            committed_batches: self.committed,
            duration_s: window,
            avg_worker_net_mbps: avg_net,
            batch_latency_s: if self.committed > 0 {
                // Little's law estimate over the run.
                Some(
                    self.config.batch_parallelism as f64 * self.config.batch_size as f64
                        / throughput.max(1e-9),
                )
            } else {
                None
            },
            cpu_utilization: (work_units / capacity.max(1e-9)).clamp(0.0, 1.0),
            workers_used: self.placement.workers,
            total_tasks: self.placement.total_tasks(),
            bottleneck: if self.committed == 0 {
                Bottleneck::Failed
            } else {
                Bottleneck::ClusterCpu
            },
        }
    }

    /// Emit the per-operator and engine statistics collected during a
    /// recorded run (requires `track_stats` at construction).
    fn emit_stats<R: Recorder>(&self, rec: &mut R) {
        for v in 0..self.topo.n_nodes() {
            let mut processed = 0u64;
            let mut hwm = 0usize;
            for &t in &self.node_tasks[v] {
                processed += self.tasks[t].processed;
                hwm = hwm.max(self.queue_hwm.get(t).copied().unwrap_or(0));
            }
            rec.record(Event::Operator {
                node: Some(v),
                label: self.topo.label(v).into(),
                tasks: self.node_tasks[v].len(),
                processed,
                queue_hwm: hwm,
            });
        }
        if !self.acker_tasks.is_empty() {
            let mut processed = 0u64;
            let mut hwm = 0usize;
            for &t in &self.acker_tasks {
                processed += self.tasks[t].processed;
                hwm = hwm.max(self.queue_hwm.get(t).copied().unwrap_or(0));
            }
            rec.record(Event::Operator {
                node: None,
                label: "ackers".into(),
                tasks: self.acker_tasks.len(),
                processed,
                queue_hwm: hwm,
            });
        }
        rec.record(Event::Engine {
            scheduled: self.queue.events_scheduled(),
            processed: self.queue.events_processed(),
            queue_peak: self.queue.peak_len(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::TopologyBuilder;

    fn simulate(
        topo: &Topology,
        config: &StormConfig,
        cluster: &ClusterSpec,
        opts: &TupleSimOptions,
    ) -> SimResult {
        TupleSimulator::new(topo.clone(), cluster.clone(), *opts)
            .unwrap()
            .evaluate(config)
            .unwrap()
    }

    fn small_chain() -> Topology {
        let mut tb = TopologyBuilder::new("chain");
        let s = tb.spout("s", 1.0);
        let a = tb.bolt("a", 2.0);
        let b = tb.bolt("b", 1.0);
        tb.connect(s, a).connect(a, b);
        tb.build().unwrap()
    }

    fn fast_opts() -> TupleSimOptions {
        TupleSimOptions {
            window_s: 20.0,
            max_events: 5_000_000,
            network_delay_s: 0.000_5,
        }
    }

    fn small_config() -> StormConfig {
        StormConfig {
            batch_size: 200,
            batch_parallelism: 4,
            ..StormConfig::uniform_hints(3, 2)
        }
    }

    #[test]
    fn commits_batches_and_reports_throughput() {
        let topo = small_chain();
        let r = simulate(&topo, &small_config(), &ClusterSpec::tiny(), &fast_opts());
        assert!(r.committed_batches > 0, "batches must commit: {r:?}");
        assert!(
            (r.throughput_tps - r.committed_batches as f64 * 200.0 / r.duration_s).abs() < 1e-9
        );
    }

    #[test]
    fn recording_is_inert_and_reports_operator_stats() {
        let topo = small_chain();
        let sim = TupleSimulator::new(topo.clone(), ClusterSpec::tiny(), fast_opts()).unwrap();
        let plain = sim.evaluate(&small_config()).unwrap();
        let mut rec = mtm_obs::MemRecorder::new();
        let recorded = sim.evaluate_recorded(&small_config(), &mut rec).unwrap();
        assert_eq!(
            plain.throughput_tps.to_bits(),
            recorded.throughput_tps.to_bits(),
            "recording must not perturb the result"
        );
        assert_eq!(plain, recorded);

        assert!(
            matches!(rec.events().first(), Some(Event::SimStart { sim, .. }) if sim == "tuple")
        );
        assert!(matches!(rec.events().last(), Some(Event::SimEnd { .. })));
        let ops: Vec<_> = rec
            .events()
            .iter()
            .filter_map(|e| match e {
                Event::Operator {
                    processed,
                    queue_hwm,
                    ..
                } => Some((*processed, *queue_hwm)),
                _ => None,
            })
            .collect();
        assert_eq!(ops.len(), topo.n_nodes() + 1, "per node + acker aggregate");
        assert!(ops.iter().any(|&(p, _)| p > 0), "work must be counted");
        assert!(
            ops.iter().any(|&(_, hwm)| hwm > 0),
            "queues must have backed up somewhere: {ops:?}"
        );
        assert!(rec.events().iter().any(
            |e| matches!(e, Event::Engine { scheduled, processed, queue_peak }
                if *scheduled > 0 && *processed > 0 && *queue_peak > 0)
        ));
    }

    #[test]
    fn deterministic_across_runs() {
        let topo = small_chain();
        let a = simulate(&topo, &small_config(), &ClusterSpec::tiny(), &fast_opts());
        let b = simulate(&topo, &small_config(), &ClusterSpec::tiny(), &fast_opts());
        assert_eq!(a.committed_batches, b.committed_batches);
        assert_eq!(a.throughput_tps, b.throughput_tps);
    }

    #[test]
    fn more_parallelism_helps_a_cpu_bound_bolt() {
        let mut tb = TopologyBuilder::new("hot");
        let s = tb.spout("s", 0.1);
        let a = tb.bolt("hot", 8.0);
        tb.connect(s, a);
        let topo = tb.build().unwrap();
        let cluster = ClusterSpec::tiny();
        let thr = |hint: u32| {
            let mut c = small_config();
            c.parallelism_hints = vec![1, hint];
            simulate(&topo, &c, &cluster, &fast_opts()).throughput_tps
        };
        let one = thr(1);
        let four = thr(4);
        assert!(four > one * 1.5, "parallelism should help: {one} vs {four}");
    }

    #[test]
    fn selectivity_amplifies_downstream_work() {
        let mut tb = TopologyBuilder::new("amp");
        let s = tb.spout("s", 0.1);
        let a = tb.bolt("fan", 0.5);
        let b = tb.bolt("sink", 1.0);
        tb.connect(s, a).connect(a, b);
        tb.selectivity(a, 3.0);
        let topo = tb.build().unwrap();
        let r = simulate(&topo, &small_config(), &ClusterSpec::tiny(), &fast_opts());
        let amp = simulate(&topo, &small_config(), &ClusterSpec::tiny(), &fast_opts());
        // The sink sees 3x the tuples the fan sees; the run must still
        // commit and throughput stays finite.
        assert!(r.committed_batches > 0 && amp.throughput_tps.is_finite());
    }

    #[test]
    fn network_bytes_are_counted_for_remote_hops() {
        let topo = small_chain();
        let r = simulate(&topo, &small_config(), &ClusterSpec::tiny(), &fast_opts());
        assert!(
            r.avg_worker_net_mbps > 0.0,
            "cross-worker edges must move bytes"
        );
    }

    #[test]
    fn impossible_batches_fail() {
        let topo = small_chain();
        let mut c = small_config();
        c.batch_size = 2_000_000; // cannot drain in the window
        let opts = TupleSimOptions {
            window_s: 2.0,
            max_events: 200_000,
            network_delay_s: 0.0,
        };
        let r = simulate(&topo, &c, &ClusterSpec::tiny(), &opts);
        assert_eq!(r.committed_batches, 0);
    }

    #[test]
    fn batch_parallelism_increases_throughput() {
        let topo = small_chain();
        let cluster = ClusterSpec::tiny();
        let thr = |bp: u32| {
            let mut c = small_config();
            c.batch_parallelism = bp;
            simulate(&topo, &c, &cluster, &fast_opts()).throughput_tps
        };
        let serial = thr(1);
        let pipelined = thr(6);
        assert!(
            pipelined > serial,
            "pipelining batches should overlap commit latency: {serial} vs {pipelined}"
        );
    }
}
