//! The two substrate simulators must tell the same story: the fast flow
//! model (the optimization objective) is validated against the per-tuple
//! discrete-event simulation on configurations small enough to play out.

use mtm_stormsim::topology::TopologyBuilder;
use mtm_stormsim::{
    ClusterSpec, FlowSimulator, StormConfig, Topology, TupleSimOptions, TupleSimulator,
};

fn pipeline() -> Topology {
    let mut tb = TopologyBuilder::new("agree");
    let s = tb.spout("s", 0.5);
    let a = tb.bolt("a", 3.0);
    let b = tb.bolt("b", 6.0);
    let c = tb.bolt("c", 2.0);
    tb.connect(s, a).connect(a, b).connect(b, c);
    tb.build().unwrap()
}

fn cluster() -> ClusterSpec {
    let mut cl = ClusterSpec::paper_cluster();
    cl.machines = 4;
    cl
}

fn config(hint: u32) -> StormConfig {
    let mut c = StormConfig::uniform_hints(4, hint);
    c.batch_size = 300;
    c.batch_parallelism = 4;
    c
}

fn run_both(hint: u32) -> (f64, f64) {
    let topo = pipeline();
    let cl = cluster();
    let cfg = config(hint);
    let flow_sim = FlowSimulator::new(topo.clone(), cl.clone(), 60.0).unwrap();
    let flow = flow_sim.evaluate(&cfg).unwrap();
    let opts = TupleSimOptions {
        window_s: 60.0,
        max_events: 30_000_000,
        network_delay_s: 0.0005,
    };
    let tuple_sim = TupleSimulator::new(topo, cl, opts).unwrap();
    let tuple = tuple_sim.evaluate(&cfg).unwrap();
    (flow.throughput_tps, tuple.throughput_tps)
}

#[test]
fn absolute_throughput_agrees_within_fidelity_gap() {
    for hint in [1u32, 2, 4] {
        let (flow, tuple) = run_both(hint);
        assert!(
            flow > 0.0 && tuple > 0.0,
            "hint {hint}: both simulators must run"
        );
        let ratio = flow / tuple;
        assert!(
            (0.5..=2.0).contains(&ratio),
            "hint {hint}: flow {flow:.0} vs tuple {tuple:.0} (ratio {ratio:.2}) \
             should agree within 2x"
        );
    }
}

#[test]
fn both_simulators_rank_configurations_identically() {
    // The optimization loop only needs the *ordering* to be right:
    // require perfect rank correlation over a hint sweep.
    let mut flows = Vec::new();
    let mut tuples = Vec::new();
    for hint in [1u32, 2, 8] {
        let (flow, tuple) = run_both(hint);
        flows.push(flow);
        tuples.push(tuple);
    }
    let rho = mtm_stats::corr::spearman(&flows, &tuples).expect("non-degenerate measurements");
    assert!(
        (rho - 1.0).abs() < 1e-9,
        "simulators must agree on ordering: rho = {rho} ({flows:?} vs {tuples:?})"
    );
}

#[test]
fn both_simulators_agree_that_contention_hurts() {
    let build = |contentious: bool| {
        let mut tb = TopologyBuilder::new("cont");
        let s = tb.spout("s", 0.5);
        let a = tb.bolt("a", 4.0);
        tb.connect(s, a);
        tb.contentious(a, contentious);
        tb.build().unwrap()
    };
    let cl = cluster();
    let mut cfg = StormConfig::uniform_hints(2, 6);
    cfg.batch_size = 200;
    cfg.batch_parallelism = 3;
    let opts = TupleSimOptions {
        window_s: 40.0,
        max_events: 20_000_000,
        network_delay_s: 0.0005,
    };

    let flow_of = |contentious: bool| {
        FlowSimulator::new(build(contentious), cl.clone(), 40.0)
            .unwrap()
            .evaluate(&cfg)
            .unwrap()
            .throughput_tps
    };
    let tuple_of = |contentious: bool| {
        TupleSimulator::new(build(contentious), cl.clone(), opts)
            .unwrap()
            .evaluate(&cfg)
            .unwrap()
            .throughput_tps
    };
    let flow_clean = flow_of(false);
    let flow_cont = flow_of(true);
    let tuple_clean = tuple_of(false);
    let tuple_cont = tuple_of(true);

    assert!(
        flow_cont < flow_clean,
        "flow model: contention must cost throughput"
    );
    assert!(
        tuple_cont < tuple_clean,
        "tuple model: contention must cost throughput"
    );
}

#[test]
fn network_accounting_is_consistent() {
    let topo = pipeline();
    let cl = cluster();
    let cfg = config(4);
    let flow = FlowSimulator::new(topo.clone(), cl.clone(), 60.0)
        .unwrap()
        .evaluate(&cfg)
        .unwrap();
    let opts = TupleSimOptions {
        window_s: 60.0,
        max_events: 30_000_000,
        network_delay_s: 0.0005,
    };
    let tuple = TupleSimulator::new(topo, cl, opts)
        .unwrap()
        .evaluate(&cfg)
        .unwrap();
    assert!(flow.avg_worker_net_mbps > 0.0);
    assert!(tuple.avg_worker_net_mbps > 0.0);
    let ratio = flow.avg_worker_net_mbps / tuple.avg_worker_net_mbps;
    assert!(
        (0.3..=3.0).contains(&ratio),
        "network metrics should be same order: {:.3} vs {:.3}",
        flow.avg_worker_net_mbps,
        tuple.avg_worker_net_mbps
    );
}
