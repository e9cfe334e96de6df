//! Behavioural tests of the cluster performance model: directional
//! responses every constraint should exhibit.

use mtm_stormsim::metrics::SimResult;
use mtm_stormsim::topology::{Topology, TopologyBuilder};
use mtm_stormsim::{ClusterSpec, FlowSimulator, StormConfig};

/// One-shot evaluation: these are directional probes, so a fresh
/// binding per call is fine.
fn eval_flow(
    topo: &Topology,
    config: &StormConfig,
    cluster: &ClusterSpec,
    window_s: f64,
) -> SimResult {
    FlowSimulator::new(topo.clone(), cluster.clone(), window_s)
        .expect("valid window")
        .evaluate(config)
        .expect("test configs are valid")
}

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

fn eval(topo: &Topology, config: &StormConfig, cluster: &ClusterSpec) -> f64 {
    eval_flow(topo, config, cluster, 120.0).throughput_tps
}

#[test]
fn more_machines_never_hurt() {
    let topo = chain(&[5.0, 20.0, 20.0]);
    let mut config = StormConfig::uniform_hints(3, 16);
    config.ackers = 16; // pin, so worker count doesn't change coordination
    let mut last = 0.0;
    for machines in [4usize, 16, 40, 80] {
        let mut cluster = ClusterSpec::paper_cluster();
        cluster.machines = machines;
        let thr = eval(&topo, &config, &cluster);
        assert!(
            thr >= last * 0.99,
            "{machines} machines gave {thr}, fewer gave {last}"
        );
        last = thr;
    }
}

#[test]
fn scarce_ackers_bind_and_more_ackers_relieve() {
    let topo = chain(&[0.1, 0.1, 0.1]);
    let cluster = ClusterSpec::paper_cluster();
    let with_ackers = |a: u32| {
        let mut c = StormConfig::uniform_hints(3, 16);
        c.batch_size = 50_000;
        c.ackers = a;
        eval(&topo, &c, &cluster)
    };
    let scarce = with_ackers(1);
    let plenty = with_ackers(160);
    assert!(
        plenty > scarce * 1.5,
        "one acker must bottleneck a fast topology: {scarce} vs {plenty}"
    );
}

#[test]
fn starved_worker_threads_cap_throughput() {
    let topo = chain(&[2.0, 10.0, 10.0]);
    let mut cluster = ClusterSpec::paper_cluster();
    cluster.machines = 4; // few machines so threads matter
    let with_threads = |t: u32| {
        let mut c = StormConfig::uniform_hints(3, 8);
        c.worker_threads = t;
        eval(&topo, &c, &cluster)
    };
    let one = with_threads(1);
    let four = with_threads(4);
    assert!(
        four > one * 2.0,
        "1 thread per 4-core machine must underuse it: {one} vs {four}"
    );
}

#[test]
fn receiver_threads_matter_for_ingest_heavy_loads() {
    // Cheap tuples at high rate stress the receive path.
    let topo = chain(&[0.01, 0.02, 0.02]);
    let mut cluster = ClusterSpec::paper_cluster();
    cluster.machines = 4; // concentrate ingress on few workers
    cluster.receiver_tuple_rate = 5_000.0; // slow deserialization
    let with_recv = |r: u32| {
        let mut c = StormConfig::uniform_hints(3, 32);
        c.receiver_threads = r;
        c.batch_size = 10_000;
        eval(&topo, &c, &cluster)
    };
    let one = with_recv(1);
    let eight = with_recv(8);
    assert!(
        eight > one * 1.5,
        "receiver threads must relieve an ingest bottleneck: {one} vs {eight}"
    );
}

#[test]
fn network_constrains_fat_tuples() {
    let mut tb = TopologyBuilder::new("fat");
    let s = tb.spout("s", 0.01);
    let b = tb.bolt("b", 0.01);
    tb.connect(s, b);
    tb.tuple_bytes(s, 100_000); // 100 kB tuples
    let topo = tb.build().unwrap();
    let config = {
        let mut c = StormConfig::uniform_hints(2, 8);
        c.batch_size = 10_000;
        c
    };
    let r = eval_flow(&topo, &config, &ClusterSpec::paper_cluster(), 120.0);
    assert_eq!(
        r.bottleneck.label(),
        "network",
        "fat tuples must saturate the NIC, got {:?}",
        r.bottleneck
    );
    assert!(r.avg_worker_net_mbps <= 128.0 + 1e-6);
}

#[test]
fn heavier_per_tuple_cost_lowers_throughput() {
    let cluster = ClusterSpec::paper_cluster();
    let config = StormConfig::uniform_hints(3, 8);
    let light = eval(&chain(&[1.0, 5.0, 5.0]), &config, &cluster);
    let heavy = eval(&chain(&[1.0, 40.0, 40.0]), &config, &cluster);
    assert!(
        light > heavy * 2.0,
        "8x cost should cost much more than 2x throughput: {light} vs {heavy}"
    );
}

#[test]
fn selectivity_amplification_costs_throughput() {
    let build = |sel: f64| {
        let mut tb = TopologyBuilder::new("amp");
        let s = tb.spout("s", 1.0);
        let a = tb.bolt("a", 5.0);
        let b = tb.bolt("b", 5.0);
        tb.connect(s, a).connect(a, b);
        tb.selectivity(a, sel);
        tb.build().unwrap()
    };
    let cluster = ClusterSpec::paper_cluster();
    let config = StormConfig::uniform_hints(3, 8);
    let filtering = eval(&build(0.2), &config, &cluster);
    let amplifying = eval(&build(5.0), &config, &cluster);
    assert!(
        filtering > amplifying,
        "a 5x fan-out must be costlier than a 5x filter: {filtering} vs {amplifying}"
    );
}

#[test]
fn bottleneck_attribution_points_at_the_hot_node() {
    // One node 50x more expensive than the rest, single task.
    let topo = chain(&[1.0, 1.0, 50.0, 1.0]);
    let mut config = StormConfig::uniform_hints(4, 8);
    config.parallelism_hints[2] = 1;
    config.batch_size = 100; // small batches so latency stays sane
    let r = eval_flow(&topo, &config, &ClusterSpec::paper_cluster(), 120.0);
    assert_eq!(
        r.bottleneck.label(),
        "node:2",
        "attribution should name the starved node, got {:?}",
        r.bottleneck
    );
}

#[test]
fn larger_window_smooths_latency_truncation() {
    let topo = chain(&[1.0, 10.0]);
    let mut config = StormConfig::uniform_hints(2, 4);
    config.batch_size = 5_000;
    let cluster = ClusterSpec::paper_cluster();
    let short = eval_flow(&topo, &config, &cluster, 30.0).throughput_tps;
    let long = eval_flow(&topo, &config, &cluster, 600.0).throughput_tps;
    assert!(
        long >= short,
        "longer windows amortize batch warm-up: {short} vs {long}"
    );
}
