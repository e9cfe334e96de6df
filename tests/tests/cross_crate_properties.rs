//! Property-based tests over cross-crate invariants: random topologies
//! and configurations through generation → flow analysis → simulation.

use proptest::prelude::*;

use mtm_core::paramsets::ParamSet;
use mtm_obs::MemRecorder;
use mtm_stormsim::flow;
use mtm_stormsim::{ClusterSpec, FlowSimulator, StormConfig};
use mtm_topogen::{generate_layer_by_layer, make_condition, Condition, GgenParams, SizeClass};

fn arb_params() -> impl Strategy<Value = GgenParams> {
    (6usize..40, 2usize..6, 0.05f64..0.6, any::<u64>()).prop_map(|(vertices, layers, p, seed)| {
        GgenParams::new(vertices.max(layers), layers, p, seed)
            .expect("strategy ranges satisfy the validator")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn generated_topologies_are_structurally_sound(params in arb_params()) {
        let t = generate_layer_by_layer(&params);
        prop_assert_eq!(t.n_nodes(), params.vertices);
        // Acyclic by construction (validated); every node connected.
        for v in 0..t.n_nodes() {
            prop_assert!(!t.in_edges(v).is_empty() || !t.out_edges(v).is_empty());
        }
        // Spouts have no inputs; layering is consistent with edges.
        let layers = t.layers();
        for e in t.edges() {
            prop_assert!(layers[e.from] < layers[e.to]);
        }
    }

    #[test]
    fn flow_is_conserved_under_split_routing(params in arb_params()) {
        let t = generate_layer_by_layer(&params);
        let f = flow::analyze(&t);
        // With unit selectivity and split routing, flow into sinks equals
        // flow out of spouts (1.0).
        prop_assert!((f.sink_flow - 1.0).abs() < 1e-9,
            "sink flow {} != 1", f.sink_flow);
        // All flows non-negative and finite.
        prop_assert!(f.node_flow.iter().all(|x| x.is_finite() && *x >= 0.0));
        prop_assert!(f.total_processing >= 1.0);
    }

    #[test]
    fn simulation_never_reports_negative_or_nan(
        params in arb_params(),
        hint in 1u32..40,
        bs in 50u32..20_000,
        bp in 1u32..16,
    ) {
        let t = generate_layer_by_layer(&params);
        let mut config = StormConfig::uniform_hints(t.n_nodes(), hint);
        config.batch_size = bs;
        config.batch_parallelism = bp;
        let sim = FlowSimulator::new(t, ClusterSpec::paper_cluster(), 120.0).unwrap();
        let r = sim.evaluate(&config).unwrap();
        prop_assert!(r.throughput_tps >= 0.0);
        prop_assert!(r.throughput_tps.is_finite());
        prop_assert!(r.avg_worker_net_mbps >= 0.0);
        prop_assert!((0.0..=1.0).contains(&r.cpu_utilization));
    }

    #[test]
    fn normalized_tasks_respect_the_cap(
        hints in prop::collection::vec(0u32..500, 3..30),
        max_tasks in 1u32..300,
    ) {
        let n = hints.len();
        // Build a chain topology of matching size.
        let mut tb = mtm_stormsim::topology::TopologyBuilder::new("chain");
        let mut prev = tb.spout("s", 1.0);
        for i in 1..n {
            let b = tb.bolt(&format!("b{i}"), 1.0);
            tb.connect(prev, b);
            prev = b;
        }
        let t = tb.build().unwrap();
        let config = StormConfig {
            parallelism_hints: hints,
            max_tasks,
            ..StormConfig::baseline(n)
        };
        let tasks = config.normalized_tasks(&t);
        prop_assert!(tasks.iter().all(|&x| x >= 1));
        let cap = max_tasks.max(n as u32) as u64;
        let total: u64 = tasks.iter().map(|&x| x as u64).sum();
        prop_assert!(total <= cap.max(n as u64),
            "total {total} exceeds cap {cap}");
    }

    #[test]
    fn paramset_decoding_always_yields_valid_configs(
        seed in any::<u64>(),
        cond_idx in 0usize..4,
    ) {
        use rand::SeedableRng;
        let t = make_condition(SizeClass::Small, &Condition::grid()[cond_idx], seed);
        let base = StormConfig::baseline(t.n_nodes());
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        for set in [
            ParamSet::Hints,
            ParamSet::HintsBatch,
            ParamSet::BatchConcurrency { fixed_hint: 11 },
        ] {
            let space = set.space(&t);
            let values = space.sample(&mut rng);
            let config = set.to_config(&t, &base, &values);
            prop_assert!(config.validate(&t).is_ok());
            // And the unit-cube round trip is stable.
            let u = space.encode(&values);
            prop_assert_eq!(space.decode(&u), values);
        }
    }
}

/// On every preset cell of the paper's grid, the recorded path scores
/// each configuration bit for bit as `evaluate` does: recording is a
/// passive observer.
#[test]
fn recorded_path_matches_evaluate_on_every_preset() {
    let cluster = ClusterSpec::paper_cluster();
    for size in SizeClass::all() {
        for cond in Condition::grid() {
            let topo = make_condition(size, &cond, 7);
            let n = topo.n_nodes();
            let sim = FlowSimulator::new(topo, cluster.clone(), 120.0).unwrap();
            for hint in [1u32, 3, 9, 27] {
                let config = StormConfig::uniform_hints(n, hint);
                let recorded = sim.evaluate_recorded(&config, &mut MemRecorder::new());
                assert_eq!(
                    recorded.unwrap(),
                    sim.evaluate(&config).unwrap(),
                    "{size:?}/{cond:?} hint {hint}: the recorded path diverged"
                );
            }
        }
    }
}
