//! The batched evaluation contract, cross-crate: on every preset
//! topology and on generated graphs up to 10k vertices, the unified
//! [`Simulator`] trait path and the batched [`SimBatch`] path must be
//! *bitwise* identical to the reference `simulate_flow_with` and to N
//! sequential evaluations. Not "close" — identical: the optimizer's
//! determinism story (journal replay, the determinism probe) rests on
//! every path through the simulator producing the same bits.

use proptest::prelude::*;

use mtm_obs::NullRecorder;
use mtm_stormsim::{
    simulate_flow_with, ClusterSpec, FlowSimulator, SimBatch, Simulator, StormConfig,
};
use mtm_topogen::{generate_layer_by_layer, make_condition, Condition, GgenParams, SizeClass};

/// Every preset cell of the paper's experiment grid.
fn presets() -> Vec<(SizeClass, Condition)> {
    let mut cells = Vec::new();
    for size in SizeClass::all() {
        for cond in Condition::grid() {
            cells.push((size, cond));
        }
    }
    cells
}

#[test]
fn trait_path_matches_free_function_on_every_preset() {
    let cluster = ClusterSpec::paper_cluster();
    for (size, cond) in presets() {
        let topo = make_condition(size, &cond, 7);
        let sim = FlowSimulator::new(topo.clone(), cluster.clone(), 120.0).unwrap();
        for hint in [1u32, 3, 9, 27] {
            let config = StormConfig::uniform_hints(topo.n_nodes(), hint);
            let old = simulate_flow_with(&topo, &config, &cluster, 120.0, &mut NullRecorder);
            let new = sim.evaluate(&config).unwrap();
            assert_eq!(
                old, new,
                "{size:?}/{cond:?} hint {hint}: trait path diverged from the reference"
            );
        }
    }
}

#[test]
fn batch_matches_sequential_on_every_preset() {
    let cluster = ClusterSpec::paper_cluster();
    for (size, cond) in presets() {
        let topo = make_condition(size, &cond, 11);
        let n = topo.n_nodes();
        let sim = FlowSimulator::new(topo, cluster.clone(), 120.0).unwrap();
        let sweep: Vec<StormConfig> = (1..=16).map(|h| StormConfig::uniform_hints(n, h)).collect();
        let mut batch = SimBatch::new();
        sim.evaluate_batch_into(&sweep, &mut batch).unwrap();
        assert_eq!(batch.len(), sweep.len());
        for (i, (c, batched)) in sweep.iter().zip(batch.results()).enumerate() {
            let sequential = sim.evaluate(c).unwrap();
            assert_eq!(
                &sequential, batched,
                "{size:?}/{cond:?} config {i}: batch diverged from sequential"
            );
        }
    }
}

#[test]
fn batch_matches_sequential_at_ten_thousand_vertices() {
    // The scale the batched engine exists for: a generated 10k-vertex
    // graph on a proportionally scaled-out cluster (10k tasks on the
    // 80-machine paper cluster thrash on spin overhead alone).
    let params = GgenParams::with_density(10_000, 12, 2.5, 0xBA7C).unwrap();
    let topo = generate_layer_by_layer(&params);
    assert_eq!(topo.n_nodes(), 10_000);
    let mut cluster = ClusterSpec::paper_cluster();
    cluster.machines = 400;
    let sim = FlowSimulator::new(topo, cluster, 120.0).unwrap();
    let sweep: Vec<StormConfig> = (0..16)
        .map(|i| {
            let mut c = StormConfig::uniform_hints(10_000, 1);
            c.max_tasks = 10_000;
            c.ackers = 32;
            c.batch_size = 30_000 + 2_000 * i;
            c.batch_parallelism = 1;
            c
        })
        .collect();
    let batched = sim.evaluate_batch(&sweep).unwrap();
    assert_eq!(batched.len(), sweep.len());
    for (c, b) in sweep.iter().zip(&batched) {
        assert_eq!(&sim.evaluate(c).unwrap(), b);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random generated topologies and random sweeps: the batch is the
    /// sequential results, element for element, bit for bit.
    #[test]
    fn batch_equals_sequential_on_random_graphs(
        vertices in 8usize..120,
        layers in 2usize..6,
        p in 0.05f64..0.6,
        seed in any::<u64>(),
        hints in prop::collection::vec(1u32..24, 1..12),
        bs in 100u32..20_000,
        bp in 1u32..12,
    ) {
        let params = GgenParams::new(vertices.max(layers), layers, p, seed)
            .expect("ranges satisfy the validator");
        let topo = generate_layer_by_layer(&params);
        let n = topo.n_nodes();
        let sim = FlowSimulator::new(topo, ClusterSpec::paper_cluster(), 120.0).unwrap();
        let sweep: Vec<StormConfig> = hints
            .iter()
            .map(|&h| {
                let mut c = StormConfig::uniform_hints(n, h);
                c.batch_size = bs;
                c.batch_parallelism = bp;
                c
            })
            .collect();
        let batched = sim.evaluate_batch(&sweep).unwrap();
        prop_assert_eq!(batched.len(), sweep.len());
        for (c, b) in sweep.iter().zip(&batched) {
            prop_assert_eq!(&sim.evaluate(c).unwrap(), b);
        }
    }
}
