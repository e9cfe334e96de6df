//! The fast flow-level performance model.
//!
//! [`FlowSimulator`] evaluates a configured topology analytically: every
//! constraint of the cluster model is linear in the aggregate spout rate
//! `R`, so the steady-state throughput is the minimum over constraint
//! bounds, followed by the (nonlinear but closed-form) batch-pipeline,
//! memory and latency corrections. One evaluation of a 10k-vertex graph
//! takes ~0.2 ms on a 2-core x86-64 machine (the paper's presets take
//! microseconds), which is what lets the benches replay the paper's
//! thousands of optimization runs. What depends only on the topology
//! (flows, their sums, the per-node grouping caps) is computed once in
//! [`flow::analyze`] when the simulator is built; an evaluation does only
//! the per-configuration work.
//!
//! The constraints, in the order they are applied:
//!
//! 1. **node capacity** — a node's tasks are single threads: at most one
//!    core each (grouping can cap effective parallelism further),
//! 2. **machine CPU** — processor sharing of each machine's effective
//!    capacity (worker-thread-limited, context-switch-penalized) across
//!    the tasks placed on it, minus per-task spin overhead,
//! 3. **ackers** — one bookkeeping op per processed tuple,
//! 4. **receivers** — per-worker ingress of remote tuples,
//! 5. **network** — per-worker NIC bandwidth,
//! 6. **batch pipeline** — Trident's serial per-batch commit (overhead
//!    grows with total task count) pipelined over `batch_parallelism`
//!    in-flight batches of `batch_size` tuples,
//! 7. **memory** — in-flight batch data vs worker buffering,
//! 8. **batch timeout** — configurations whose batch latency exceeds the
//!    timeout measure *zero* (replay storm), which is how degenerate
//!    configurations failed on the paper's cluster.

use mtm_obs::event::finite_or_zero;
use mtm_obs::{Event, NullRecorder, Recorder};

use crate::cluster::ClusterSpec;
use crate::config::StormConfig;
use crate::flow::{self, FlowAnalysis};
use crate::metrics::{Bottleneck, SimResult};
use crate::placement::{remote_fraction, WorkerLoad};
use crate::simulator::SimError;
use crate::topology::Topology;

/// The analytical flow model, bound to one topology, cluster and
/// measurement window.
///
/// Construction runs the topology-level analysis (steady-state flow
/// propagation) once; every evaluation reuses it. Deterministic; apply
/// [`crate::noise::MeasurementNoise`] on top for realistic measurements.
#[derive(Debug, Clone)]
pub struct FlowSimulator {
    topo: Topology,
    cluster: ClusterSpec,
    window_s: f64,
    flows: FlowAnalysis,
}

impl FlowSimulator {
    /// Bind the model to `topo` on `cluster` with a measurement window of
    /// `window_s` virtual seconds, which must be positive and finite.
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

    /// Score one configuration.
    pub fn evaluate(&self, config: &StormConfig) -> Result<SimResult, SimError> {
        self.evaluate_recorded(config, &mut NullRecorder)
    }

    /// Score one configuration, recording start/end markers, every
    /// constraint bound that tightens the minimum and (for a run that
    /// does not fail) per-operator steady-state counters to `rec`. With
    /// [`NullRecorder`] the instrumentation compiles away; the result is
    /// bitwise identical either way, since recording is a passive
    /// observer. An invalid configuration records nothing.
    pub fn evaluate_recorded<R: Recorder>(
        &self,
        config: &StormConfig,
        rec: &mut R,
    ) -> Result<SimResult, SimError> {
        let (topo, cluster, window_s) = (&self.topo, &self.cluster, self.window_s);
        // Qualified call: a bare `.validate(` edge would alias every
        // `validate` in the workspace in the checker's call graph.
        StormConfig::validate(config, topo)?;
        if R::ENABLED {
            rec.record(Event::SimStart {
                sim: "flow".into(),
                topo: topo.name_label().into(),
                nodes: topo.n_nodes(),
                window_s,
            });
        }
        let tasks = config.normalized_tasks(topo);
        let node_cost: Vec<f64> = (tasks.iter().enumerate())
            .map(|(v, &t)| node_cost_of(topo, cluster, v, t))
            .collect();
        let coef: Vec<f64> = (self.flows.node_flow.iter().zip(&tasks).zip(&node_cost))
            .map(|((&f, &t), &cost)| demand_coef(f, cost, t))
            .collect();
        let mut load = WorkerLoad::deal_tasks(&tasks, &coef, cluster.machines);
        let ackers = config.effective_ackers(load.total_tasks.min(cluster.machines));
        let ackers_n = (ackers as usize).max(1);
        let ack_coef = self.flows.total_processing * cluster.acker_cost_units / ackers_n as f64;
        load.deal_ackers(ackers, ack_coef);

        let ctx = SolveCtx {
            sim: self,
            config,
            tasks,
            node_cost,
            load,
            ackers_n,
            ack_coef,
        };
        let result = ctx.solve(rec);
        if R::ENABLED {
            if !matches!(result.bottleneck, Bottleneck::Failed) {
                ctx.emit_operators(rec, &result);
            }
            rec.record(Event::SimEnd {
                throughput: finite_or_zero(result.throughput_tps),
                bottleneck: result.bottleneck.label(),
                committed: result.committed_batches,
            });
        }
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

/// Running minimum over constraint bounds, with bottleneck attribution
/// and (when recording) a [`Event::Constraint`] line for each bound that
/// *tightens* the minimum — the descent chain ending at the winning
/// bottleneck. Non-binding candidates are not recorded: nothing
/// downstream reads them, and per-candidate emission costs more than the
/// solve itself on small topologies.
struct Tracker {
    best: f64,
    bottleneck: Bottleneck,
}

impl Tracker {
    fn consider<R: Recorder>(
        &mut self,
        rec: &mut R,
        kind: &'static str,
        node: Option<usize>,
        bound: f64,
        what: Bottleneck,
    ) {
        if bound < self.best {
            if R::ENABLED {
                rec.record(Event::Constraint {
                    kind: kind.into(),
                    node,
                    bound: finite_or_zero(bound),
                });
            }
            self.best = bound;
            self.bottleneck = what;
        }
    }
}

/// One configuration's inputs to [`SolveCtx::solve`]: the bound
/// simulator plus the per-node and per-worker columns its evaluation
/// built.
struct SolveCtx<'a> {
    sim: &'a FlowSimulator,
    config: &'a StormConfig,
    tasks: Vec<u32>,
    /// Per-tuple compute cost of node v including contention and overhead.
    node_cost: Vec<f64>,
    /// The even scheduler's deal: per-worker task and acker counts, and
    /// the demand units per spout tuple placed on each machine.
    load: WorkerLoad,
    /// Acker task count, floored at 1 (the divisor of `ack_coef`).
    ackers_n: usize,
    /// Acker demand units per spout tuple, per acker task.
    ack_coef: f64,
}

/// Per-tuple compute cost of node `v` when it runs `tasks` tasks,
/// including the contention multiplier and framework overhead.
fn node_cost_of(topo: &Topology, cluster: &ClusterSpec, v: usize, tasks: u32) -> f64 {
    let contention = if topo.is_contentious(v) {
        (tasks as f64).powf(cluster.contention_exponent)
    } else {
        1.0
    };
    topo.time_complexity(v) * contention + cluster.per_tuple_overhead_units
}

/// Demand units one task of a node adds to its machine per spout tuple:
/// the node's flow `f` times its per-tuple `cost`, shared by its `tasks`.
fn demand_coef(f: f64, cost: f64, tasks: u32) -> f64 {
    if tasks == 0 {
        0.0
    } else {
        f * cost / tasks as f64
    }
}

/// Effective parallelism of a node running `tasks` tasks under the
/// grouping cap `cap` of its in-edges ([`FlowAnalysis::grouping_cap`]):
/// at least one task always runs.
fn eff_tasks(tasks: u32, cap: u32) -> f64 {
    tasks.min(cap).max(1) as f64
}

impl SolveCtx<'_> {
    // mtm-hot: flow-sim
    fn solve<R: Recorder>(&self, rec: &mut R) -> SimResult {
        let (cl, flows, load) = (&self.sim.cluster, &self.sim.flows, &self.load);
        let window_s: f64 = self.sim.window_s;
        let (total_tasks, workers) = (load.total_tasks, load.workers);
        let remote = remote_fraction(workers);
        let ackers = self.ackers_n;

        let mut tr = Tracker {
            best: f64::INFINITY,
            bottleneck: Bottleneck::ClusterCpu,
        };

        // 1. Node capacity: R * f_v * cost_v <= eff_tasks_v * unit_rate,
        // where the grouping caps how many of a node's tasks run at once.
        let columns = (flows.node_flow.iter().zip(&self.node_cost))
            .zip(self.tasks.iter().zip(&flows.grouping_cap));
        for (v, ((&f, &cost), (&tasks, &cap))) in columns.enumerate() {
            if f <= 0.0 {
                continue;
            }
            tr.consider(
                rec,
                "node",
                Some(v),
                eff_tasks(tasks, cap) * cl.unit_rate / (f * cost),
                Bottleneck::NodeCapacity(v),
            );
        }

        // 2. Machine CPU, over the deal's per-worker columns (all three
        // hold exactly `workers` entries).
        let ack_coef = self.ack_coef;
        let mut total_capacity = 0.0;
        let mut spin_total = 0.0;
        let mut failed = false;
        let per_worker =
            (load.tasks_per_worker.iter().zip(&load.ackers_per_worker)).zip(&load.machine_demand);
        for (m, ((&worker_tasks, &worker_ackers), &demand)) in per_worker.enumerate() {
            let threads = (worker_tasks as u32).min(self.config.worker_threads)
                + self.config.receiver_threads
                + worker_ackers as u32;
            let cap = cl.machine_capacity(threads);
            let spin = cl.task_spin_units * (worker_tasks + worker_ackers) as f64;
            total_capacity += cap;
            spin_total += spin;
            if spin >= cap {
                failed = true; // the machine thrashes on overhead alone
                continue;
            }
            if demand > 0.0 {
                tr.consider(
                    rec,
                    "cpu",
                    Some(m),
                    (cap - spin) / demand,
                    Bottleneck::ClusterCpu,
                );
            }
            // Executor work is additionally limited by the worker's
            // thread pool: at most min(worker_threads, tasks) bolt/spout
            // tuples in service at once, one core each.
            let exec_demand: f64 = demand - worker_ackers as f64 * ack_coef;
            if exec_demand > 0.0 {
                let exec_threads = (worker_tasks as u32).min(self.config.worker_threads) as f64;
                tr.consider(
                    rec,
                    "exec",
                    Some(m),
                    exec_threads * cl.unit_rate / exec_demand,
                    Bottleneck::ClusterCpu,
                );
            }
        }
        if failed {
            return SimResult::failed(window_s, workers, total_tasks);
        }

        // 3. Ackers: every processed tuple produces one ack op; each acker
        // task is one thread (at most one core).
        let ack_demand_per_r = flows.total_processing * cl.acker_cost_units;
        if ack_demand_per_r > 0.0 {
            tr.consider(
                rec,
                "ackers",
                None,
                ackers as f64 * cl.unit_rate / ack_demand_per_r,
                Bottleneck::Ackers,
            );
        }

        // 4. Receivers: remote tuples arriving per worker per unit R.
        let inbound_per_worker = flows.edge_flow_total * remote / workers as f64;
        if inbound_per_worker > 0.0 {
            tr.consider(
                rec,
                "receivers",
                None,
                self.config.receiver_threads as f64 * cl.receiver_tuple_rate / inbound_per_worker,
                Bottleneck::Receivers,
            );
        }

        // 5. Network bandwidth per worker.
        let bytes_per_worker = flows.bytes_per_unit * remote / workers as f64;
        if bytes_per_worker > 0.0 {
            tr.consider(
                rec,
                "network",
                None,
                cl.net_bandwidth_bps / bytes_per_worker,
                Bottleneck::Network,
            );
        }

        let (best, mut bottleneck) = (tr.best, tr.bottleneck);
        if !best.is_finite() || best <= 0.0 {
            return SimResult::failed(window_s, workers, total_tasks);
        }
        let r_proc = best;

        // 6. Batch pipeline. Serial commit time grows with the number of
        // coordinated tasks (topology tasks and ackers alike).
        let s = self.config.batch_size as f64;
        let b = self.config.batch_parallelism as f64;
        let t_commit =
            cl.batch_overhead_s + cl.batch_coord_per_task_s * (total_tasks + ackers) as f64;
        let r_commit = s / t_commit;
        // Same binding-only rule as `Tracker::consider`: the commit bound
        // is recorded only when it is the new tightest constraint.
        if R::ENABLED && r_commit < r_proc {
            rec.record(Event::Constraint {
                kind: "commit".into(),
                node: None,
                bound: finite_or_zero(r_commit),
            });
        }
        let mut r = r_proc.min(r_commit);
        if r_commit < r_proc {
            bottleneck = Bottleneck::BatchPipeline;
        }
        // Pipeline smoothing: B batches of S tuples amortize the serial
        // commit; R = R * BS / (BS + R * T_commit).
        let smoothed = r * (b * s) / (b * s + r * t_commit);
        if smoothed < r * 0.85 && !matches!(bottleneck, Bottleneck::BatchPipeline) {
            bottleneck = Bottleneck::BatchPipeline;
        }
        r = smoothed;

        // 7. Memory: in-flight tuples across the pipeline occupy worker
        // buffers; amplification by downstream processing.
        let inflight_bytes =
            b * s * flows.mean_tuple_bytes * (1.0 + flows.total_processing) / workers as f64;
        if inflight_bytes > cl.worker_buffer_bytes {
            let factor = cl.worker_buffer_bytes / inflight_bytes;
            r *= factor * factor; // thrashing is superlinear
            bottleneck = Bottleneck::Memory;
        }

        // 8. Latency and window truncation. Past the batch timeout the
        // topology degrades into replays: throughput falls off steeply
        // and collapses entirely at twice the timeout (in a 2-minute
        // window some early batches still commit before the replay storm
        // takes hold, which is also what gives the optimizer a usable
        // gradient at the cliff's edge instead of a flat zero plateau).
        let batch_latency = b * s / r + t_commit;
        if batch_latency > cl.batch_timeout_s {
            let over = batch_latency / cl.batch_timeout_s;
            if over >= 2.0 {
                return SimResult::failed(window_s, workers, total_tasks);
            }
            // Root-cause attribution is kept: the slow constraint that
            // inflated the latency is still what the operator must fix.
            r *= 2.0 - over;
        }
        let truncation = ((window_s - batch_latency) / window_s).clamp(0.0, 1.0);
        let measured = r * truncation;
        if measured <= 0.0 {
            return SimResult::failed(window_s, workers, total_tasks);
        }

        // Metrics.
        let committed_batches = (measured * window_s / s).floor() as u64;
        let cpu_used = measured
            * (flows.node_flow.iter().zip(&self.node_cost))
                .map(|(&f, &cost)| f * cost)
                .sum::<f64>()
            + measured * ack_demand_per_r
            + spin_total;
        let cpu_utilization = (cpu_used / total_capacity).clamp(0.0, 1.0);
        let avg_worker_net_mbps =
            measured * flows.bytes_per_unit * remote / workers as f64 / (1024.0 * 1024.0);

        SimResult {
            throughput_tps: measured,
            committed_batches,
            duration_s: window_s,
            avg_worker_net_mbps,
            batch_latency_s: Some(batch_latency),
            cpu_utilization,
            workers_used: workers,
            total_tasks,
            bottleneck,
        }
    }

    /// Per-operator steady-state counters for a successful run, emitted
    /// *after* [`solve`](Self::solve) returns so the solver loop itself
    /// stays allocation-free. The flow model has no real queues, so
    /// `queue_hwm` is 0 here (the tuple sim reports actual high-water
    /// marks).
    fn emit_operators<R: Recorder>(&self, rec: &mut R, result: &SimResult) {
        let (topo, flows, window_s) = (&self.sim.topo, &self.sim.flows, self.sim.window_s);
        let measured = result.throughput_tps;
        for (v, (&tasks, &f)) in self.tasks.iter().zip(&flows.node_flow).enumerate() {
            rec.record(Event::Operator {
                node: Some(v),
                label: topo.label(v).into(),
                tasks: tasks as usize,
                processed: (measured * f * window_s).max(0.0) as u64,
                queue_hwm: 0,
            });
        }
        rec.record(Event::Operator {
            node: None,
            label: "ackers".into(),
            tasks: self.ackers_n,
            processed: (measured * flows.total_processing * window_s).max(0.0) as u64,
            queue_hwm: 0,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ConfigError;
    use crate::topology::{Grouping, TopologyBuilder};

    fn chain(costs: &[f64]) -> Topology {
        let mut tb = TopologyBuilder::new("chain");
        let mut prev = tb.spout("s", costs[0]);
        for (i, &c) in costs.iter().enumerate().skip(1) {
            let b = tb.bolt(&format!("b{i}"), c);
            tb.connect(prev, b);
            prev = b;
        }
        tb.build().unwrap()
    }

    fn eval(topo: &Topology, config: &StormConfig) -> SimResult {
        eval_on(topo, config, &ClusterSpec::paper_cluster())
    }

    fn eval_on(topo: &Topology, config: &StormConfig, cluster: &ClusterSpec) -> SimResult {
        FlowSimulator::new(topo.clone(), cluster.clone(), 120.0)
            .unwrap()
            .evaluate(config)
            .unwrap()
    }

    #[test]
    fn throughput_positive_and_finite() {
        let topo = chain(&[10.0, 20.0, 20.0]);
        let r = eval(&topo, &StormConfig::baseline(3));
        assert!(r.throughput_tps > 0.0 && r.throughput_tps.is_finite());
        assert!(r.batch_latency_s.expect("healthy run has a latency") > 0.0);
        assert!(r.cpu_utilization > 0.0 && r.cpu_utilization <= 1.0);
    }

    #[test]
    fn more_parallelism_helps_until_it_does_not() {
        // Sweep uniform hints: throughput must rise, peak, then decline —
        // the interior optimum the pla strategy searches for.
        let topo = chain(&[10.0, 20.0, 20.0, 20.0, 20.0]);
        let mut sweep = Vec::new();
        for h in [1u32, 2, 4, 8, 16, 32, 64, 128, 256, 512] {
            let mut c = StormConfig::uniform_hints(5, h);
            c.max_tasks = 1_000_000;
            sweep.push(eval(&topo, &c).throughput_tps);
        }
        assert!(sweep[1] > sweep[0], "2 tasks beat 1: {sweep:?}");
        let peak = sweep.iter().cloned().fold(0.0, f64::max);
        let last = *sweep.last().unwrap();
        assert!(
            last < peak * 0.9,
            "extreme parallelism must cost throughput: {sweep:?}"
        );
    }

    #[test]
    fn contention_negates_parallelism() {
        let mut tb = TopologyBuilder::new("cont");
        let s = tb.spout("s", 10.0);
        let a = tb.bolt("a", 20.0);
        tb.connect(s, a);
        tb.contentious(a, true);
        let topo = tb.build().unwrap();

        // On an unconstrained cluster extra tasks on a contentious bolt
        // must not *help* (the per-tuple cost scales with the task count,
        // §IV-B2)...
        let low = eval(&topo, &{
            let mut c = StormConfig::baseline(2);
            c.parallelism_hints = vec![4, 1];
            c
        });
        let high = eval(&topo, &{
            let mut c = StormConfig::baseline(2);
            c.parallelism_hints = vec![4, 16];
            c
        });
        assert!(
            high.throughput_tps <= low.throughput_tps * 1.01,
            "parallelizing a contentious bolt must not help: {} vs {}",
            high.throughput_tps,
            low.throughput_tps
        );

        // ...and on a CPU-tight cluster the wasted cycles actively hurt.
        let tight = ClusterSpec::tiny();
        let low_tight = eval_on(
            &topo,
            &{
                let mut c = StormConfig::baseline(2);
                c.parallelism_hints = vec![4, 1];
                c
            },
            &tight,
        );
        let high_tight = eval_on(
            &topo,
            &{
                let mut c = StormConfig::baseline(2);
                c.parallelism_hints = vec![4, 16];
                c
            },
            &tight,
        );
        assert!(
            high_tight.throughput_tps < low_tight.throughput_tps,
            "on a tight cluster contention waste must cost throughput: {} vs {}",
            high_tight.throughput_tps,
            low_tight.throughput_tps
        );
    }

    #[test]
    fn bigger_batches_amortize_commit_overhead() {
        let topo = chain(&[1.0, 1.0, 1.0]);
        let small = eval(&topo, &{
            let mut c = StormConfig::uniform_hints(3, 8);
            c.batch_size = 100;
            c
        });
        let big = eval(&topo, &{
            let mut c = StormConfig::uniform_hints(3, 8);
            c.batch_size = 20_000;
            c
        });
        assert!(
            big.throughput_tps > small.throughput_tps * 1.3,
            "batch amortization: {} vs {}",
            big.throughput_tps,
            small.throughput_tps
        );
    }

    #[test]
    fn absurd_batches_time_out_to_zero() {
        let topo = chain(&[10.0, 30.0]);
        let mut c = StormConfig::uniform_hints(2, 1);
        c.batch_size = 4_000_000;
        c.batch_parallelism = 64;
        let r = eval(&topo, &c);
        assert_eq!(r.throughput_tps, 0.0, "latency beyond timeout must fail");
        assert_eq!(r.bottleneck, Bottleneck::Failed);
    }

    #[test]
    fn global_grouping_caps_effective_parallelism() {
        let mut tb = TopologyBuilder::new("glob");
        let s = tb.spout("s", 5.0);
        let a = tb.bolt("agg", 20.0);
        tb.connect_grouped(s, a, Grouping::Global);
        let topo = tb.build().unwrap();
        let mut c = StormConfig::baseline(2);
        c.parallelism_hints = vec![4, 1];
        let one = eval(&topo, &c).throughput_tps;
        c.parallelism_hints = vec![4, 32];
        let many = eval(&topo, &c).throughput_tps;
        assert!(
            many <= one * 1.05,
            "global grouping pins work to one task: {many} vs {one}"
        );
    }

    #[test]
    fn fields_grouping_caps_at_key_cardinality() {
        let mut tb = TopologyBuilder::new("fields");
        let s = tb.spout("s", 1.0);
        let a = tb.bolt("count", 20.0);
        tb.connect_grouped(s, a, Grouping::Fields { key_cardinality: 2 });
        let topo = tb.build().unwrap();
        let with = |hint: u32| {
            let mut c = StormConfig::baseline(2);
            c.parallelism_hints = vec![4, hint];
            eval(&topo, &c).throughput_tps
        };
        let h2 = with(2);
        let h16 = with(16);
        // Past the key cardinality extra tasks bring nothing (only spin).
        assert!(h16 <= h2 * 1.02, "cardinality cap: {h16} vs {h2}");
    }

    #[test]
    fn network_metric_below_nic_limit() {
        let topo = chain(&[1.0, 1.0, 1.0, 1.0]);
        let r = eval(&topo, &StormConfig::uniform_hints(4, 16));
        assert!(r.avg_worker_net_mbps >= 0.0);
        assert!(
            r.avg_worker_net_mbps <= 128.0,
            "per-worker net {} exceeds the NIC",
            r.avg_worker_net_mbps
        );
    }

    #[test]
    fn deterministic() {
        let topo = chain(&[10.0, 20.0]);
        let c = StormConfig::baseline(2);
        let a = eval(&topo, &c);
        let b = eval(&topo, &c);
        assert_eq!(a.throughput_tps, b.throughput_tps);
    }

    #[test]
    fn recording_is_inert_and_explains_the_bottleneck() {
        let topo = chain(&[10.0, 20.0, 20.0]);
        let c = StormConfig::baseline(3);
        let sim = FlowSimulator::new(topo.clone(), ClusterSpec::paper_cluster(), 120.0).unwrap();
        let plain = sim.evaluate(&c).unwrap();
        let mut rec = mtm_obs::MemRecorder::new();
        let recorded = sim.evaluate_recorded(&c, &mut rec).unwrap();
        assert_eq!(
            plain.throughput_tps.to_bits(),
            recorded.throughput_tps.to_bits(),
            "recording must not perturb the result"
        );
        assert_eq!(plain, recorded);

        // The trace starts and ends a sim run...
        assert!(matches!(rec.events().first(), Some(Event::SimStart { sim, .. }) if sim == "flow"));
        assert!(matches!(rec.events().last(), Some(Event::SimEnd { .. })));
        // ...names one operator per node plus the acker aggregate...
        let ops = rec
            .events()
            .iter()
            .filter(|e| matches!(e, Event::Operator { .. }))
            .count();
        assert_eq!(ops, topo.n_nodes() + 1);
        // ...and contains a constraint line whose bound equals the raw
        // processing limit, tying the SimEnd bottleneck to its cause.
        let bounds: Vec<f64> = rec
            .events()
            .iter()
            .filter_map(|e| match e {
                Event::Constraint { bound, .. } => Some(*bound),
                _ => None,
            })
            .collect();
        assert!(!bounds.is_empty(), "constraints must be traced");
        let tightest = bounds.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(
            tightest >= recorded.throughput_tps,
            "no constraint bound may lie below the measured throughput: \
             tightest={tightest} measured={}",
            recorded.throughput_tps
        );
    }

    /// The per-call forms the flow analysis now computes once per
    /// topology, as they were written before the hoist.
    mod per_call {
        use super::*;

        pub fn eff_tasks_of(topo: &Topology, tasks: &[u32], v: usize) -> f64 {
            let mut eff = tasks[v] as f64;
            for &ei in topo.in_edges(v) {
                match topo.edge_grouping(ei as usize) {
                    Grouping::Shuffle => {}
                    Grouping::Fields { key_cardinality } => {
                        eff = eff.min(key_cardinality as f64);
                    }
                    Grouping::Global => eff = 1.0,
                }
            }
            eff.max(1.0)
        }

        pub fn mean_tuple_bytes(topo: &Topology, flows: &FlowAnalysis) -> f64 {
            let mut weight = 0.0;
            let mut sum = 0.0;
            for v in 0..topo.n_nodes() {
                let f = flows.node_flow[v];
                weight += f;
                sum += f * topo.tuple_bytes(v) as f64;
            }
            if weight > 0.0 {
                sum / weight
            } else {
                128.0
            }
        }

        pub fn edge_flow_sum(flows: &FlowAnalysis) -> f64 {
            flows.edge_flow.iter().sum()
        }
    }

    /// Five spouts feed one bolt per ordered selection of distinct
    /// groupings, connected in that order, so every grouping meets every
    /// other on one node in both orders (`Global` before and after
    /// `Fields`), and every bolt then feeds a sink.
    fn grouping_orders() -> Topology {
        let groupings = [
            Grouping::Shuffle,
            Grouping::Fields { key_cardinality: 0 },
            Grouping::Fields { key_cardinality: 1 },
            Grouping::Fields { key_cardinality: 6 },
            Grouping::Global,
        ];
        let mut orders: Vec<Vec<usize>> = vec![vec![]];
        let mut frontier = orders.clone();
        for _ in 0..groupings.len() {
            frontier = frontier
                .iter()
                .flat_map(|o| {
                    (0..groupings.len())
                        .filter(|g| !o.contains(g))
                        .map(|g| [o.as_slice(), &[g]].concat())
                        .collect::<Vec<_>>()
                })
                .collect();
            orders.extend(frontier.iter().cloned());
        }
        let mut tb = TopologyBuilder::new("grouping-orders");
        let spouts: Vec<_> = (0..groupings.len())
            .map(|i| tb.spout(&format!("s{i}"), 1.0 + i as f64))
            .collect();
        for (i, &s) in spouts.iter().enumerate() {
            tb.tuple_bytes(s, 64 + 37 * i as u32);
            tb.selectivity(s, 0.3 + 0.1 * i as f64);
        }
        let sink = tb.bolt("sink", 1.0);
        for (b, order) in orders.iter().enumerate().skip(1) {
            let bolt = tb.bolt(&format!("b{b}"), 2.0);
            tb.tuple_bytes(bolt, 100 + b as u32 % 17);
            for &g in order {
                tb.connect_grouped(spouts[g], bolt, groupings[g]);
            }
            tb.connect(bolt, sink);
        }
        tb.build().unwrap()
    }

    #[test]
    fn hoisted_flow_terms_are_bit_equal_to_the_per_call_ones() {
        let mut fan_in = TopologyBuilder::new("fan-in");
        let s = fan_in.spout("s", 1.0);
        let t = fan_in.spout("t", 1.0);
        let a = fan_in.bolt("a", 1.0);
        fan_in
            .connect_grouped(s, a, Grouping::Global)
            .connect_grouped(t, a, Grouping::Fields { key_cardinality: 0 });
        let topos = [
            grouping_orders(),
            fan_in.build().unwrap(),
            chain(&[10.0, 20.0, 20.0]),
        ];
        for topo in &topos {
            let flows = flow::analyze(topo);
            assert_eq!(
                flows.mean_tuple_bytes.to_bits(),
                per_call::mean_tuple_bytes(topo, &flows).to_bits()
            );
            assert_eq!(
                flows.edge_flow_total.to_bits(),
                per_call::edge_flow_sum(&flows).to_bits()
            );
            for t in [0, 1, 2, 5, 6, 7, 1000, u32::MAX] {
                let tasks = vec![t; topo.n_nodes()];
                for (v, &cap) in flows.grouping_cap.iter().enumerate() {
                    assert_eq!(
                        eff_tasks(t, cap).to_bits(),
                        per_call::eff_tasks_of(topo, &tasks, v).to_bits(),
                        "{} node {v} tasks {t}",
                        topo.name()
                    );
                }
            }
        }
    }

    #[test]
    fn invalid_config_fails_cleanly() {
        let topo = chain(&[10.0, 20.0]);
        let sim = FlowSimulator::new(topo, ClusterSpec::paper_cluster(), 120.0).unwrap();
        let mut c = StormConfig::baseline(2);
        c.batch_size = 0;
        let mut rec = mtm_obs::MemRecorder::new();
        assert_eq!(
            sim.evaluate_recorded(&c, &mut rec),
            Err(SimError::Config(ConfigError::ZeroField("batch_size")))
        );
        assert!(rec.events().is_empty(), "an invalid config records nothing");
    }
}
