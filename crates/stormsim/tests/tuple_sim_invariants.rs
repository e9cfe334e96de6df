//! Invariants of the per-tuple discrete-event simulator.

use proptest::prelude::*;

use mtm_stormsim::metrics::SimResult;
use mtm_stormsim::topology::{Grouping, Topology, TopologyBuilder};
use mtm_stormsim::{ClusterSpec, Simulator, StormConfig, TupleSimOptions, TupleSimulator};

/// Trait-path stand-in with the old free-function shape; each invariant
/// drives a one-shot discrete-event run, so binding per call is fine.
fn eval_tuples(
    topo: &Topology,
    config: &StormConfig,
    cluster: &ClusterSpec,
    opts: &TupleSimOptions,
) -> SimResult {
    TupleSimulator::new(topo.clone(), cluster.clone(), *opts)
        .expect("valid window")
        .evaluate(config)
        .expect("test configs are valid")
}

fn small_topology(fanout: bool) -> Topology {
    let mut tb = TopologyBuilder::new("t");
    let s = tb.spout("s", 0.2);
    let a = tb.bolt("a", 1.0);
    if fanout {
        let b = tb.bolt("b", 1.0);
        let c = tb.bolt("c", 0.5);
        tb.connect(s, a).connect(s, b).connect(a, c).connect(b, c);
    } else {
        let b = tb.bolt("b", 0.5);
        tb.connect(s, a).connect(a, b);
    }
    tb.build().unwrap()
}

fn opts(window: f64) -> TupleSimOptions {
    TupleSimOptions {
        window_s: window,
        max_events: 10_000_000,
        network_delay_s: 0.0002,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn committed_tuples_scale_with_committed_batches(
        hint in 1u32..5,
        bs in 50u32..500,
        bp in 1u32..6,
        fanout in any::<bool>(),
    ) {
        let topo = small_topology(fanout);
        let mut config = StormConfig::uniform_hints(topo.n_nodes(), hint);
        config.batch_size = bs;
        config.batch_parallelism = bp;
        let r = eval_tuples(&topo, &config, &ClusterSpec::tiny(), &opts(15.0));
        // Throughput is exactly committed batches x batch size / window.
        let expect = r.committed_batches as f64 * bs as f64 / r.duration_s;
        prop_assert!((r.throughput_tps - expect).abs() < 1e-9);
        prop_assert!(r.cpu_utilization >= 0.0 && r.cpu_utilization <= 1.0);
    }

    #[test]
    fn simulation_is_deterministic(
        hint in 1u32..4,
        bs in 100u32..400,
    ) {
        let topo = small_topology(true);
        let mut config = StormConfig::uniform_hints(4, hint);
        config.batch_size = bs;
        let a = eval_tuples(&topo, &config, &ClusterSpec::tiny(), &opts(10.0));
        let b = eval_tuples(&topo, &config, &ClusterSpec::tiny(), &opts(10.0));
        prop_assert_eq!(a.committed_batches, b.committed_batches);
        prop_assert_eq!(a.throughput_tps, b.throughput_tps);
        prop_assert_eq!(a.avg_worker_net_mbps, b.avg_worker_net_mbps);
    }

    #[test]
    fn longer_windows_commit_at_least_as_many_batches(hint in 1u32..4) {
        let topo = small_topology(false);
        let config = {
            let mut c = StormConfig::uniform_hints(3, hint);
            c.batch_size = 200;
            c.batch_parallelism = 3;
            c
        };
        let short = eval_tuples(&topo, &config, &ClusterSpec::tiny(), &opts(8.0));
        let long = eval_tuples(&topo, &config, &ClusterSpec::tiny(), &opts(16.0));
        prop_assert!(long.committed_batches >= short.committed_batches);
    }
}

#[test]
fn global_grouping_routes_everything_to_one_task() {
    // With Global grouping and 4 downstream tasks, throughput must match
    // the 1-task configuration (the extra tasks sit idle).
    let build = |grouping: Grouping| {
        let mut tb = TopologyBuilder::new("g");
        let s = tb.spout("s", 0.1);
        let a = tb.bolt("agg", 2.0);
        tb.connect_grouped(s, a, grouping);
        tb.build().unwrap()
    };
    let mut config = StormConfig::uniform_hints(2, 4);
    config.batch_size = 200;
    let cluster = ClusterSpec::tiny();

    let global = eval_tuples(&build(Grouping::Global), &config, &cluster, &opts(15.0));
    let shuffle = eval_tuples(&build(Grouping::Shuffle), &config, &cluster, &opts(15.0));
    let keyed_one = eval_tuples(
        &build(Grouping::Fields { key_cardinality: 1 }),
        &config,
        &cluster,
        &opts(15.0),
    );
    // Same deployment, different routing: global serializes the bolt.
    assert!(
        global.throughput_tps < shuffle.throughput_tps * 0.7,
        "global must serialize the bolt: {} vs shuffle {}",
        global.throughput_tps,
        shuffle.throughput_tps
    );
    // A single-key fields grouping is equivalent to global.
    let ratio = global.throughput_tps / keyed_one.throughput_tps.max(1e-9);
    assert!(
        (0.9..=1.1).contains(&ratio),
        "global ≈ fields(1): {} vs {}",
        global.throughput_tps,
        keyed_one.throughput_tps
    );
}

#[test]
fn fields_grouping_respects_key_cardinality() {
    // key_cardinality = 1 behaves like Global.
    let build = |k: u32| {
        let mut tb = TopologyBuilder::new("f");
        let s = tb.spout("s", 0.1);
        let a = tb.bolt("count", 2.0);
        tb.connect_grouped(s, a, Grouping::Fields { key_cardinality: k });
        tb.build().unwrap()
    };
    let mut config = StormConfig::uniform_hints(2, 6);
    config.batch_size = 200;
    let cluster = ClusterSpec::tiny();
    let narrow = eval_tuples(&build(1), &config, &cluster, &opts(15.0));
    let wide = eval_tuples(&build(1000), &config, &cluster, &opts(15.0));
    assert!(
        wide.throughput_tps > narrow.throughput_tps * 1.3,
        "wide keys must parallelize better: {} vs {}",
        wide.throughput_tps,
        narrow.throughput_tps
    );
}

#[test]
fn event_cap_aborts_runaway_configurations() {
    let topo = small_topology(true);
    let mut config = StormConfig::uniform_hints(4, 2);
    config.batch_size = 100_000;
    config.batch_parallelism = 16;
    let tight = TupleSimOptions {
        window_s: 60.0,
        max_events: 10_000,
        network_delay_s: 0.0,
    };
    let r = eval_tuples(&topo, &config, &ClusterSpec::tiny(), &tight);
    assert_eq!(
        r.throughput_tps, 0.0,
        "aborted runs report zero, not garbage"
    );
}
