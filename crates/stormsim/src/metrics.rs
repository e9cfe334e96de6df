//! Simulation results and bottleneck attribution.

use serde::{Deserialize, Serialize};

use crate::topology::NodeId;

/// What limited the measured throughput.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Bottleneck {
    /// A node's task instances saturated (one thread per task can't keep
    /// up) — raise that node's parallelism hint.
    NodeCapacity(NodeId),
    /// Aggregate machine CPU exhausted (including per-task spin overhead).
    ClusterCpu,
    /// Acker tasks saturated.
    Ackers,
    /// Receiver threads saturated.
    Receivers,
    /// Network bandwidth saturated.
    Network,
    /// Serial batch-commit coordination dominated.
    BatchPipeline,
    /// In-flight batch data exceeded worker buffering.
    Memory,
    /// The configuration failed outright (batch timeout / thrashing):
    /// measured throughput is zero, as the paper observed for degenerate
    /// configurations.
    Failed,
}

impl Bottleneck {
    /// Short label for reports. `Cow` because every variant except the
    /// per-node one is a fixed string — recording a `SimEnd` allocates
    /// only when a specific node saturated.
    // mtm-allow: alloc -- `node:<id>` is the one dynamic label; every
    // other variant is borrowed and allocation-free.
    pub fn label(&self) -> std::borrow::Cow<'static, str> {
        match self {
            Bottleneck::NodeCapacity(n) => format!("node:{n}").into(),
            Bottleneck::ClusterCpu => "cpu".into(),
            Bottleneck::Ackers => "ackers".into(),
            Bottleneck::Receivers => "receivers".into(),
            Bottleneck::Network => "network".into(),
            Bottleneck::BatchPipeline => "batch-pipeline".into(),
            Bottleneck::Memory => "memory".into(),
            Bottleneck::Failed => "failed".into(),
        }
    }
}

/// Outcome of simulating one configured run.
///
/// `PartialEq` compares floats exactly — intentional: the tests assert
/// that recording and binding leave a result *bitwise* identical, not
/// merely close.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimResult {
    /// Measured throughput in spout tuples per second (committed work
    /// within the measurement window — the paper's headline metric).
    pub throughput_tps: f64,
    /// Mini-batches committed during the window.
    pub committed_batches: u64,
    /// Length of the measured window in (virtual) seconds.
    pub duration_s: f64,
    /// Average network load per worker in MB/s (Fig. 3's metric).
    pub avg_worker_net_mbps: f64,
    /// End-to-end latency of a batch in seconds. `None` when the run
    /// failed (no batch ever committed, so there is no latency to
    /// report). An `Option` rather than an `f64::INFINITY` sentinel
    /// because infinity is not JSON-representable — the serializer would
    /// emit `null` and the value could never round-trip.
    pub batch_latency_s: Option<f64>,
    /// Fraction of total cluster CPU used (including overheads).
    pub cpu_utilization: f64,
    /// Workers that hosted at least one task.
    pub workers_used: usize,
    /// Total task instances deployed.
    pub total_tasks: usize,
    /// What limited throughput.
    pub bottleneck: Bottleneck,
}

impl SimResult {
    /// A zero-throughput (failed) result.
    pub fn failed(duration_s: f64, workers: usize, tasks: usize) -> SimResult {
        SimResult {
            throughput_tps: 0.0,
            committed_batches: 0,
            duration_s,
            avg_worker_net_mbps: 0.0,
            batch_latency_s: None,
            cpu_utilization: 0.0,
            workers_used: workers,
            total_tasks: tasks,
            bottleneck: Bottleneck::Failed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_stable() {
        assert_eq!(Bottleneck::NodeCapacity(3).label(), "node:3");
        assert_eq!(Bottleneck::ClusterCpu.label(), "cpu");
        assert_eq!(Bottleneck::Failed.label(), "failed");
    }

    #[test]
    fn failed_result_is_zero() {
        let r = SimResult::failed(120.0, 4, 16);
        assert_eq!(r.throughput_tps, 0.0);
        assert_eq!(r.committed_batches, 0);
        assert_eq!(r.batch_latency_s, None);
        assert_eq!(r.bottleneck, Bottleneck::Failed);
    }

    fn all_bottlenecks() -> Vec<Bottleneck> {
        vec![
            Bottleneck::NodeCapacity(0),
            Bottleneck::NodeCapacity(7),
            Bottleneck::ClusterCpu,
            Bottleneck::Ackers,
            Bottleneck::Receivers,
            Bottleneck::Network,
            Bottleneck::BatchPipeline,
            Bottleneck::Memory,
            Bottleneck::Failed,
        ]
    }

    #[test]
    fn every_bottleneck_round_trips_through_json() {
        for b in all_bottlenecks() {
            let json = serde_json::to_string(&b).unwrap();
            let back: Bottleneck = serde_json::from_str(&json).unwrap();
            assert_eq!(back, b, "round trip failed for {json}");
        }
    }

    #[test]
    fn every_sim_result_shape_round_trips_through_json() {
        // One healthy result per bottleneck variant, plus the failed
        // constructor (whose latency is None). Every field must come
        // back exactly — in particular `batch_latency_s`, which the
        // failed sentinel used to corrupt (infinity serializes to JSON
        // `null`).
        let mut results: Vec<SimResult> = all_bottlenecks()
            .into_iter()
            .map(|b| SimResult {
                throughput_tps: 1234.5,
                committed_batches: 42,
                duration_s: 120.0,
                avg_worker_net_mbps: 3.25,
                batch_latency_s: Some(0.75),
                cpu_utilization: 0.5,
                workers_used: 4,
                total_tasks: 16,
                bottleneck: b,
            })
            .collect();
        results.push(SimResult::failed(120.0, 4, 16));
        for r in results {
            let json = serde_json::to_string(&r).unwrap();
            assert!(
                !json.contains("null") || r.batch_latency_s.is_none(),
                "unexpected null in {json}"
            );
            let back: SimResult = serde_json::from_str(&json).unwrap();
            assert_eq!(back.throughput_tps.to_bits(), r.throughput_tps.to_bits());
            assert_eq!(back.committed_batches, r.committed_batches);
            assert_eq!(back.duration_s.to_bits(), r.duration_s.to_bits());
            assert_eq!(
                back.avg_worker_net_mbps.to_bits(),
                r.avg_worker_net_mbps.to_bits()
            );
            assert_eq!(
                back.batch_latency_s.map(f64::to_bits),
                r.batch_latency_s.map(f64::to_bits)
            );
            assert_eq!(back.cpu_utilization.to_bits(), r.cpu_utilization.to_bits());
            assert_eq!(back.workers_used, r.workers_used);
            assert_eq!(back.total_tasks, r.total_tasks);
            assert_eq!(back.bottleneck, r.bottleneck);
        }
    }
}
