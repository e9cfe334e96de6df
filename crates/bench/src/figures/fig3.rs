//! Fig. 3 — average network load in MB/s per worker for each topology.
//!
//! The paper reports per-worker network utilization for the four
//! benchmark topologies under their tuned configurations, noting that the
//! network was never saturated (gigabit NICs ⇒ 128 MB/s ceiling). We run
//! a short pla sweep per topology to get a reasonable configuration, then
//! read the network metric from the noise-free simulation.

use mtm_core::objective::synthetic_base;
use mtm_core::report::Table;
use mtm_core::{run_pass_traced, DirectMeasure, Objective, RunOptions, Strategy};
use mtm_obs::NullRecorder;
use mtm_stormsim::{ClusterSpec, StormConfig};
use mtm_topogen::{make_condition, sundog_topology, Condition, SizeClass};

/// Produce the Fig. 3 table: topology → avg MB/s per worker.
pub fn run(steps: usize) -> Table {
    let cluster = ClusterSpec::paper_cluster();
    let balanced = Condition {
        time_imbalance: 0.0,
        contention: 0.0,
    };
    let mut table = Table::new(
        "Fig. 3: average network load per worker (MB/s); NIC limit 128 MB/s",
        &["mb_per_s"],
    );

    for size in SizeClass::all() {
        let topo = make_condition(size, &balanced, 0x2015);
        let base = synthetic_base(&topo);
        let label = size.label().to_string();
        let mbps = tuned_network(&topo, base, &cluster, steps);
        table.push(&label, vec![mbps]);
    }

    // Sundog with its development-time batch settings.
    let topo = sundog_topology();
    let mut base = StormConfig::baseline(topo.n_nodes());
    base.batch_size = 50_000;
    base.batch_parallelism = 5;
    let mbps = tuned_network(&topo, base, &cluster, steps);
    table.push("sundog", vec![mbps]);

    table
}

fn tuned_network(
    topo: &mtm_stormsim::Topology,
    base: StormConfig,
    cluster: &ClusterSpec,
    steps: usize,
) -> f64 {
    let objective = Objective::new(topo.clone(), cluster.clone()).with_base(base);
    let mut pla = Strategy::pla();
    let opts = RunOptions {
        max_steps: steps,
        confirm_reps: 1,
        passes: 1,
        ..Default::default()
    };
    let pass = run_pass_traced(
        &mut pla,
        &objective,
        &opts,
        &mut DirectMeasure,
        &mut NullRecorder,
    );
    objective.inspect(&pass.best_config).avg_worker_net_mbps
}

#[cfg(test)]
mod tests {
    #[test]
    fn network_is_positive_and_unsaturated() {
        let t = super::run(8);
        assert_eq!(t.rows.len(), 4);
        for row in &t.rows {
            let mbps = row.values[0];
            assert!(mbps > 0.0, "{}: network load should be positive", row.label);
            assert!(
                mbps < 128.0,
                "{}: the network must not be saturated (paper's Fig. 3 claim), got {mbps}",
                row.label
            );
        }
    }
}
