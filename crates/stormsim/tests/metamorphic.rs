//! Metamorphic invariants of the flow simulator.
//!
//! Rather than pinning outputs to golden numbers, these properties relate
//! *pairs* of simulations: change the input in a way whose effect on the
//! output is known a priori, and assert the relation holds for randomly
//! generated topologies and configurations. The four invariants:
//!
//! 1. **Capacity monotonicity** — adding a machine never lowers
//!    throughput (with the acker count pinned: the `ackers: 0` default
//!    deploys one acker per worker, so a bigger cluster would also buy
//!    more commit-coordination overhead — a real effect, but not the
//!    relation under test).
//! 2. **Symmetry** — permuting the node ids of a fully symmetric layer
//!    (identical complexity, wiring, and hints) leaves `throughput_tps`
//!    bitwise unchanged: node identity and naming must never leak into
//!    the math.
//! 3. **Work scaling** — scaling every time complexity by `k` scales the
//!    throughput of a CPU-bound run by ~`1/k`.
//! 4. **Failure marking** — `Bottleneck::Failed` if and only if
//!    `throughput_tps == 0.0`.

use mtm_stormsim::metrics::{Bottleneck, SimResult};
use mtm_stormsim::topology::{Topology, TopologyBuilder};
use mtm_stormsim::{ClusterSpec, FlowSimulator, StormConfig};
use proptest::prelude::*;

/// One-shot evaluation: every metamorphic relation compares *pairs* of
/// one-shot runs, so a fresh simulator binding per call keeps the call
/// sites readable.
fn eval_flow(
    topo: &Topology,
    config: &StormConfig,
    cluster: &ClusterSpec,
    window_s: f64,
) -> SimResult {
    FlowSimulator::new(topo.clone(), cluster.clone(), window_s)
        .expect("valid window")
        .evaluate(config)
        .expect("generated configs are valid")
}

const WINDOW_S: f64 = 120.0;

/// One spout feeding a chain of bolt layers; every bolt of layer `l`
/// receives from every node of layer `l-1`. `rotate[l]` rotates the
/// insertion order of layer `l`'s bolts — a pure node-id relabeling when
/// the layer is symmetric.
fn layered_topo(spout_c: f64, layers: &[Vec<f64>], rotate: &[usize]) -> Topology {
    let mut tb = TopologyBuilder::new("metamorphic");
    let spout = tb.spout("s", spout_c);
    let mut prev = vec![spout];
    for (l, costs) in layers.iter().enumerate() {
        let r = rotate.get(l).copied().unwrap_or(0) % costs.len();
        let mut layer = Vec::with_capacity(costs.len());
        for i in 0..costs.len() {
            let b = (i + r) % costs.len();
            let id = tb.bolt(&format!("b{l}_{b}"), costs[b]);
            for &p in &prev {
                tb.connect(p, id);
            }
            layer.push(id);
        }
        prev = layer;
    }
    tb.build().expect("layered topology is well-formed")
}

fn cluster(machines: usize) -> ClusterSpec {
    ClusterSpec {
        machines,
        ..ClusterSpec::paper_cluster()
    }
}

/// Random layer structure: 1–3 layers of 1–4 bolts with bounded costs.
fn arb_layers() -> impl Strategy<Value = Vec<Vec<f64>>> {
    prop::collection::vec(prop::collection::vec(0.5f64..6.0, 1..=4), 1..=3)
}

fn arb_hints(max_nodes: usize) -> impl Strategy<Value = Vec<u32>> {
    prop::collection::vec(1u32..=10, max_nodes)
}

/// Hints for `topo`, drawn from `pool` (generated at the maximum node
/// count and cycled to fit). The acker count is pinned so it does not
/// track the worker count.
fn config_for(topo: &Topology, pool: &[u32]) -> StormConfig {
    let mut c = StormConfig::baseline(topo.n_nodes());
    c.ackers = 4;
    c.parallelism_hints = pool.iter().cycle().take(topo.n_nodes()).copied().collect();
    c
}

proptest! {
    /// Invariant 1: a strictly larger cluster can always do at least as
    /// well — every capacity constraint only relaxes. Stated on uniform
    /// pipelines (equal cost and hint per node), where every task demands
    /// the same compute and the even scheduler's round-robin cannot
    /// concentrate expensive tasks; heterogeneous tasks can genuinely
    /// resonate with the machine count (a discrete-placement effect real
    /// schedulers share), so the clean relation lives on this domain.
    #[test]
    fn adding_a_machine_never_lowers_throughput(
        cost in 0.5f64..6.0,
        depth in 1usize..=6,
        hint in 1u32..=10,
        machines in 2usize..24,
    ) {
        let layers: Vec<Vec<f64>> = vec![vec![cost]; depth];
        let topo = layered_topo(cost, &layers, &[]);
        let config = config_for(&topo, &[hint]);
        let small = eval_flow(&topo, &config, &cluster(machines), WINDOW_S);
        let big = eval_flow(&topo, &config, &cluster(machines + 1), WINDOW_S);
        prop_assert!(
            big.throughput_tps >= small.throughput_tps,
            "machines {} -> {}: throughput fell {} -> {}",
            machines, machines + 1, small.throughput_tps, big.throughput_tps
        );
    }

    /// Invariant 2: bolts with identical cost, wiring and hints are
    /// interchangeable — inserting them in a rotated order (which permutes
    /// their node ids and names) is a pure relabeling, bitwise invisible
    /// in the throughput.
    #[test]
    fn permuting_a_symmetric_layer_is_bitwise_invisible(
        spout_c in 0.5f64..4.0,
        twin_c in 0.5f64..6.0,
        n_twins in 2usize..=4,
        rot in 1usize..=3,
        tail_c in 0.5f64..6.0,
        hints in arb_hints(3),
        machines in 2usize..24,
    ) {
        // s -> {t_0 .. t_{n-1}} -> tail, all twins identical: rotating
        // the twin layer describes the same physical system.
        let layers = vec![vec![twin_c; n_twins], vec![tail_c]];
        let topo_a = layered_topo(spout_c, &layers, &[0]);
        let topo_b = layered_topo(spout_c, &layers, &[rot]);
        let config = config_for(&topo_a, &hints);
        // The twin layer shares one hint (full symmetry); spout and tail
        // keep theirs.
        let mut config = config;
        for v in 1..=n_twins {
            config.parallelism_hints[v] = hints[1 % hints.len()];
        }
        let forward = eval_flow(&topo_a, &config, &cluster(machines), WINDOW_S);
        let rotated = eval_flow(&topo_b, &config, &cluster(machines), WINDOW_S);
        prop_assert_eq!(
            forward.throughput_tps.to_bits(),
            rotated.throughput_tps.to_bits(),
            "relabeling a symmetric layer changed throughput: {} vs {}",
            forward.throughput_tps, rotated.throughput_tps
        );
        prop_assert_eq!(forward.committed_batches, rotated.committed_batches);
    }

    /// Invariant 3: on a CPU-bound run clear of the batch-pipeline
    /// nonlinearities, making every tuple `k`× as expensive divides
    /// throughput by ~`k`.
    #[test]
    fn scaling_time_complexity_scales_throughput_inversely(
        spout_c in 4.0f64..8.0,
        layers in prop::collection::vec(
            prop::collection::vec(4.0f64..10.0, 1..=3),
            1..=2,
        ),
        hints in prop::collection::vec(1u32..=4, 8),
        k in 2u32..=6,
    ) {
        // A small cluster keeps the run CPU-bound, where work and rate
        // are reciprocal; a large batch size keeps the serial-commit
        // smoothing term small relative to both rates.
        let machines = 3;
        let base_topo = layered_topo(spout_c, &layers, &[]);
        let scaled_layers: Vec<Vec<f64>> = layers
            .iter()
            .map(|l| l.iter().map(|c| c * k as f64).collect())
            .collect();
        let scaled_topo = layered_topo(spout_c * k as f64, &scaled_layers, &[]);
        let mut config = config_for(&base_topo, &hints);
        config.batch_size = 1000;
        let base = eval_flow(&base_topo, &config, &cluster(machines), WINDOW_S);
        let scaled = eval_flow(&scaled_topo, &config, &cluster(machines), WINDOW_S);
        // Valid CPU-bound configurations always make progress.
        prop_assert!(base.throughput_tps > 0.0);
        // Deep in latency-cliff territory the relation intentionally does
        // not hold (throughput collapses super-linearly); only assert on
        // pairs where both runs commit comfortably within the timeout.
        let timeout = cluster(machines).batch_timeout_s;
        let (Some(lat_base), Some(lat_scaled)) =
            (base.batch_latency_s, scaled.batch_latency_s)
        else {
            return;
        };
        if lat_base > 0.5 * timeout || lat_scaled > 0.5 * timeout {
            return;
        }
        let ratio = base.throughput_tps / scaled.throughput_tps;
        let k = k as f64;
        prop_assert!(
            ratio > 0.75 * k && ratio < 1.25 * k,
            "k = {}: throughput ratio {} (base {}, scaled {})",
            k, ratio, base.throughput_tps, scaled.throughput_tps
        );
    }

    /// Invariant 4: zero throughput and the `Failed` marker imply each
    /// other — no silent zero from a "healthy" run, no failed run that
    /// still claims progress.
    #[test]
    fn failed_marker_iff_zero_throughput(
        spout_c in 0.5f64..4.0,
        layers in arb_layers(),
        mut hints in arb_hints(13),
        // < 13 picks a hint to sabotage; 13 leaves the config valid.
        zero_at in 0usize..=13,
        machines in 2usize..24,
    ) {
        // Sometimes sabotage one hint to zero — an invalid configuration
        // the simulator must mark Failed, never silently score.
        if let Some(h) = hints.get_mut(zero_at) {
            *h = 0;
        }
        let topo = layered_topo(spout_c, &layers, &[]);
        let config = config_for(&topo, &hints);
        let r = eval_flow(&topo, &config, &cluster(machines), WINDOW_S);
        let failed = r.bottleneck == Bottleneck::Failed;
        prop_assert_eq!(
            failed,
            r.throughput_tps == 0.0,
            "bottleneck {:?} with throughput {}",
            r.bottleneck, r.throughput_tps
        );
        // And a failed run reports no committed work or latency either.
        if failed {
            prop_assert_eq!(r.committed_batches, 0);
            prop_assert!(r.batch_latency_s.is_none());
        }
    }
}
