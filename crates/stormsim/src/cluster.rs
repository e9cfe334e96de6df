//! The hardware model: the paper's cluster of 80 student iMacs.

use serde::{Deserialize, Serialize};

/// Cluster hardware and framework-overhead parameters.
///
/// Compute is measured in *compute units*: 1 unit ≈ 1 ms of one core, the
/// paper's busy-wait calibration (§IV-B1), so one core delivers
/// `unit_rate` = 1000 units per second.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterSpec {
    /// Worker machines available.
    pub machines: usize,
    /// Cores per machine.
    pub cores_per_machine: u32,
    /// Compute units one core delivers per second (1 unit = 1 ms ⇒ 1000).
    pub unit_rate: f64,
    /// Full-duplex NIC bandwidth per machine, bytes/second (1 Gbps ⇒
    /// 128 MB/s, the figure the paper quotes for Fig. 3).
    pub net_bandwidth_bps: f64,
    /// Context-switch penalty: fractional capacity lost per active thread
    /// beyond the core count, e.g. 0.05 ⇒ 2x oversubscription costs ~5%
    /// per excess-thread-per-core.
    pub context_switch_penalty: f64,
    /// Tuples per second one receiver thread can deserialize and enqueue.
    pub receiver_tuple_rate: f64,
    /// Compute units per ack bookkeeping operation on an acker task.
    pub acker_cost_units: f64,
    /// Per-batch coordination latency in seconds (Trident commit protocol;
    /// what makes tiny batches expensive).
    pub batch_overhead_s: f64,
    /// Framework overhead per tuple hop in compute units (serialization,
    /// queues) — paid on every edge traversal.
    pub per_tuple_overhead_units: f64,
    /// In-flight bytes one worker can buffer before memory pressure
    /// degrades it (heap given to a Storm worker).
    pub worker_buffer_bytes: f64,
    /// Compute units per second burned by every deployed task even when
    /// idle (disruptor busy-poll, heartbeats, timers). This is what makes
    /// blind over-parallelization expensive on a real Storm cluster.
    pub task_spin_units: f64,
    /// Extra serial batch-coordination time per deployed task, seconds
    /// (Trident's commit protocol touches every task each batch).
    pub batch_coord_per_task_s: f64,
    /// Batch timeout: if end-to-end batch latency exceeds this, the
    /// topology enters a replay storm and measures zero throughput
    /// (Storm's message timeout behaviour).
    pub batch_timeout_s: f64,
    /// Exponent of the resource-contention cost: a contentious bolt with
    /// `n` task instances pays `c * n^contention_exponent` per tuple.
    /// The paper's formula (§IV-B2) is the linear `1.0` — "negate the
    /// effect of increasing parallelism"; the default is slightly
    /// super-linear because real contended resources (a central database,
    /// a lock) degrade beyond proportionally as clients pile on (lock
    /// convoys, cache-line bouncing), which is also what makes blind
    /// over-parallelization measurably *harmful*, as the paper observed.
    pub contention_exponent: f64,
}

impl Default for ClusterSpec {
    fn default() -> Self {
        ClusterSpec::paper_cluster()
    }
}

impl ClusterSpec {
    /// The evaluation cluster of §IV-C: 80 iMacs, 4 cores each (320 cores),
    /// gigabit switches.
    pub fn paper_cluster() -> Self {
        ClusterSpec {
            machines: 80,
            cores_per_machine: 4,
            unit_rate: 1000.0,
            net_bandwidth_bps: 128.0 * 1024.0 * 1024.0,
            context_switch_penalty: 0.06,
            receiver_tuple_rate: 250_000.0,
            acker_cost_units: 0.022,
            batch_overhead_s: 0.15,
            per_tuple_overhead_units: 0.002,
            worker_buffer_bytes: 512.0 * 1024.0 * 1024.0,
            task_spin_units: 60.0,
            batch_coord_per_task_s: 0.001,
            batch_timeout_s: 30.0,
            contention_exponent: 1.25,
        }
    }

    /// A small deterministic cluster for unit tests (2 machines × 2 cores).
    pub fn tiny() -> Self {
        ClusterSpec {
            machines: 2,
            cores_per_machine: 2,
            ..ClusterSpec::paper_cluster()
        }
    }

    /// Effective compute capacity of one machine, in units/second, when a
    /// worker runs `active_threads` concurrently runnable threads on it.
    ///
    /// Fewer threads than cores leaves cores idle; more threads than cores
    /// pays a context-switch penalty that grows with oversubscription.
    pub fn machine_capacity(&self, active_threads: u32) -> f64 {
        let cores = self.cores_per_machine as f64;
        let threads = active_threads as f64;
        if threads <= 0.0 {
            return 0.0;
        }
        let usable = threads.min(cores);
        let oversub = (threads - cores).max(0.0) / cores;
        let penalty = 1.0 / (1.0 + self.context_switch_penalty * oversub);
        usable * self.unit_rate * penalty
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_cluster_dimensions() {
        let c = ClusterSpec::paper_cluster();
        assert_eq!(c.machines, 80);
        assert_eq!(c.cores_per_machine, 4);
        // 1 Gbps in MB/s as quoted in the paper.
        assert!((c.net_bandwidth_bps / (1024.0 * 1024.0) - 128.0).abs() < 1e-9);
    }

    #[test]
    fn capacity_rises_to_core_count() {
        let c = ClusterSpec::paper_cluster();
        assert_eq!(c.machine_capacity(0), 0.0);
        assert!((c.machine_capacity(1) - 1000.0).abs() < 1e-9);
        assert!((c.machine_capacity(4) - 4000.0).abs() < 1e-9);
        // 2 threads deliver exactly 2 cores' worth.
        assert!((c.machine_capacity(2) - 2000.0).abs() < 1e-9);
    }

    #[test]
    fn oversubscription_pays_a_penalty() {
        let c = ClusterSpec::paper_cluster();
        let at_cores = c.machine_capacity(4);
        let oversub = c.machine_capacity(16);
        assert!(
            oversub < at_cores,
            "16 threads on 4 cores must lose capacity"
        );
        assert!(
            oversub > at_cores * 0.7,
            "penalty should be gentle, not a cliff"
        );
        // Monotonically decreasing beyond the core count.
        assert!(c.machine_capacity(8) > c.machine_capacity(32));
    }
}
