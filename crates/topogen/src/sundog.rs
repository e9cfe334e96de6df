//! The Sundog entity-ranking topology (Fig. 2 of the paper; Fischer et
//! al., "Timely Semantics", ISWC 2015).
//!
//! Phase 1 reads text from HDFS (three reader spouts in our instantiation
//! of the figure), filters lines against a dictionary, preprocesses the
//! survivors into entity pairs (PPS1–3) and counts occurrences (CNT1–5),
//! writing term statistics to a distributed key-value store (DKVS1).
//! Phase 2 computes seven feature metrics (FC1–7) from the counters.
//! Phase 3 merges features (M1–3), joins semi-static features from the
//! key-value store (DKVS2) and ranks entity pairs (R1).
//!
//! Per §IV-A, the experimental Sundog replaced DKVS calls with dummy
//! methods that always return 1 — so DKVS1/DKVS2 appear here as cheap
//! pass-through bolts rather than contended external resources, "these
//! changes … do not change the workload characteristics of the original
//! system." Costs are in compute units per tuple and calibrated so the
//! configuration surface reproduces the paper's Fig. 8 shape: with the
//! hand-tuned batch settings (size 50 000, parallelism 5) the topology is
//! limited by batch-commit serialization, and opening up batch size /
//! parallelism buys roughly the 2.8× the paper measured.
//!
//! The exact Fig. 2 edge wiring is not given in the paper; this module
//! reconstructs it from the figure's phase structure and fan-in/fan-out
//! counts.

use mtm_stormsim::topology::{Grouping, RoutePolicy, Topology, TopologyBuilder};

/// Number of operators in the Sundog topology as instantiated here.
pub const SUNDOG_NODES: usize = 25;

/// Build the Sundog topology.
pub fn sundog_topology() -> Topology {
    let mut tb = TopologyBuilder::new("sundog");

    // Phase 1: reading, preprocessing, counting.
    let hdfs1 = tb.spout("HDFS1", 0.005);
    let hdfs2 = tb.spout("HDFS2", 0.005);
    let hdfs3 = tb.spout("HDFS3", 0.005);
    let filter = tb.bolt("Filter", 0.033);
    let dkvs1 = tb.bolt("DKVS1", 0.005); // stubbed store write
    let pps1 = tb.bolt("PPS1", 0.005);
    let pps2 = tb.bolt("PPS2", 0.005);
    let pps3 = tb.bolt("PPS3", 0.005);
    let cnts: Vec<_> = (1..=5)
        .map(|i| tb.bolt(&format!("CNT{i}"), 0.0015))
        .collect();

    // Phase 2: feature computation.
    let fcs: Vec<_> = (1..=7)
        .map(|i| tb.bolt(&format!("FC{i}"), 0.0015))
        .collect();

    // Phase 3: ranking.
    let m1 = tb.bolt("M1", 0.003);
    let m2 = tb.bolt("M2", 0.003);
    let m3 = tb.bolt("M3", 0.003);
    let dkvs2 = tb.bolt("DKVS2", 0.003); // stubbed semi-static feature read
    let r1 = tb.bolt("R1", 0.004); // decision-tree scoring

    // Spouts emit raw text lines.
    for &h in &[hdfs1, hdfs2, hdfs3] {
        tb.tuple_bytes(h, 300);
        tb.connect(h, filter);
    }

    // The filter drops lines without dictionary terms (≈70%) and feeds
    // both the statistics write path and the preprocessing pipeline.
    tb.selectivity(filter, 0.3);
    tb.route(filter, RoutePolicy::Replicate);
    tb.tuple_bytes(filter, 200);
    tb.connect(filter, dkvs1);
    tb.connect(filter, pps1);

    // Preprocessing chain; PPS3 builds entity pairs (fan-out 2) and feeds
    // every counter (each counts a different statistic).
    tb.connect(pps1, pps2);
    tb.connect(pps2, pps3);
    tb.selectivity(pps3, 2.0);
    tb.route(pps3, RoutePolicy::Replicate);
    tb.tuple_bytes(pps3, 120);
    for &c in &cnts {
        // Counting is keyed by entity (field grouping in the real system).
        tb.connect_grouped(
            pps3,
            c,
            Grouping::Fields {
                key_cardinality: 4096,
            },
        );
        // Counters aggregate: they emit one update per two inputs.
        tb.selectivity(c, 0.5);
        tb.route(c, RoutePolicy::Replicate);
        tb.tuple_bytes(c, 64);
    }

    // Counter-to-feature wiring: FC2 and FC5 combine two counters, the
    // rest read one each (Fig. 2 shows mixed fan-in).
    tb.connect(cnts[0], fcs[0]);
    tb.connect(cnts[0], fcs[1]);
    tb.connect(cnts[1], fcs[1]);
    tb.connect(cnts[1], fcs[2]);
    tb.connect(cnts[2], fcs[3]);
    tb.connect(cnts[2], fcs[4]);
    tb.connect(cnts[3], fcs[4]);
    tb.connect(cnts[3], fcs[5]);
    tb.connect(cnts[4], fcs[6]);
    for &f in &fcs {
        tb.selectivity(f, 0.5);
        tb.tuple_bytes(f, 64);
    }

    // Feature merge: three mergers, features split across them.
    for (i, &f) in fcs.iter().enumerate() {
        let m = [m1, m2, m3][i % 3];
        tb.connect_grouped(
            f,
            m,
            Grouping::Fields {
                key_cardinality: 4096,
            },
        );
    }
    for &m in &[m1, m2, m3] {
        tb.tuple_bytes(m, 96);
        tb.connect(m, dkvs2);
    }
    tb.selectivity(dkvs2, 0.3);
    tb.connect_grouped(
        dkvs2,
        r1,
        Grouping::Fields {
            key_cardinality: 4096,
        },
    );
    tb.tuple_bytes(dkvs2, 96);
    tb.tuple_bytes(r1, 32);

    tb.build().expect("sundog wiring is a valid topology")
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtm_stormsim::{ClusterSpec, FlowSimulator, StormConfig};

    #[test]
    fn structure_matches_figure_2() {
        let t = sundog_topology();
        assert_eq!(t.n_nodes(), SUNDOG_NODES);
        assert_eq!(t.spouts().len(), 3, "three HDFS readers");
        // R1 is the single final sink; DKVS1 is a store-write sink.
        let sinks = t.sinks();
        assert_eq!(sinks.len(), 2, "DKVS1 and R1: {sinks:?}");
        // Three phases at least.
        assert!(
            t.n_layers() >= 6,
            "deep pipeline, got {} layers",
            t.n_layers()
        );
    }

    /// The Fig. 8 calibration: with the hand-tuned batch settings the
    /// topology is batch-pipeline-bound, and opening batch size +
    /// parallelism buys roughly the paper's 2.8×.
    #[test]
    fn batch_tuning_reproduces_the_2_8x_story() {
        let t = sundog_topology();
        let cluster = ClusterSpec::paper_cluster();
        let sundog_defaults = |hint: u32| StormConfig {
            batch_size: 50_000,
            batch_parallelism: 5,
            worker_threads: 8,
            receiver_threads: 1,
            ackers: 0,
            parallelism_hints: vec![hint; SUNDOG_NODES],
            max_tasks: StormConfig::BASELINE_MAX_TASKS,
        };

        // Best-over-h with the developers' batch settings: one bound
        // topology, thirty candidate configurations.
        let sim = FlowSimulator::new(t, cluster, 120.0).unwrap();
        let base_best = (1..=30)
            .map(|h| sim.evaluate(&sundog_defaults(h)).unwrap().throughput_tps)
            .fold(0.0_f64, f64::max);
        assert!(base_best > 0.0, "baseline Sundog must run");

        // Open up batch size / parallelism near the paper's optimum.
        let mut tuned = sundog_defaults(11);
        tuned.batch_size = 265_000;
        tuned.batch_parallelism = 16;
        let tuned_r = sim.evaluate(&tuned).unwrap();

        let gain = tuned_r.throughput_tps / base_best;
        assert!(
            (1.8..=4.5).contains(&gain),
            "batch tuning should give roughly the paper's 2.8x, got {gain:.2}x \
             ({base_best:.0} -> {:.0})",
            tuned_r.throughput_tps
        );
    }

    #[test]
    fn huge_batches_eventually_stop_helping() {
        let t = sundog_topology();
        let cluster = ClusterSpec::paper_cluster();
        let sim = FlowSimulator::new(t, cluster, 120.0).unwrap();
        let with_batch = |size: u32, bp: u32| {
            let mut c = StormConfig {
                batch_size: size,
                batch_parallelism: bp,
                ..StormConfig::uniform_hints(SUNDOG_NODES, 11)
            };
            c.max_tasks = StormConfig::BASELINE_MAX_TASKS;
            sim.evaluate(&c).unwrap().throughput_tps
        };
        let good = with_batch(265_000, 16);
        let absurd = with_batch(4_000_000, 64);
        assert!(
            absurd < good,
            "unbounded batches must hit memory/latency: {good} vs {absurd}"
        );
    }
}
