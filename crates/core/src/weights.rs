//! Informed base-parallelism weights (§V-A).
//!
//! "For these experiments we recursively calculated a 'base parallelism
//! weight' value for each node in the topology. For bolts, this base
//! weight is equal to the sum of the weights of all their parent nodes.
//! All spout nodes have a base weight of 1."

use mtm_stormsim::topology::Topology;

/// Compute the per-node base-parallelism weights.
///
/// Source bolts (in-degree 0 but not spouts cannot occur in validated
/// topologies; spouts are the only sources) get weight 1; every bolt gets
/// the sum of its parents' weights, evaluated in topological order.
pub fn base_parallelism_weights(topo: &Topology) -> Vec<f64> {
    let mut w = vec![0.0; topo.n_nodes()];
    for &v in topo.topo_order() {
        if topo.in_edges(v).is_empty() {
            w[v] = 1.0;
        } else {
            w[v] = topo
                .in_edges(v)
                .iter()
                .map(|&ei| w[topo.edge_from(ei as usize)])
                .sum();
        }
    }
    w
}

/// Weights rescaled to mean 1.
///
/// Raw base-parallelism weights grow multiplicatively with depth (a
/// 10-layer graph can reach weights in the hundreds), which would make a
/// multiplier of 1 already deploy thousands of tasks. Normalizing to mean
/// 1 keeps the informed strategies' multiplier on the same footing as
/// pla's uniform hint: at multiplier `m` both deploy about `m · V` tasks,
/// just distributed differently.
pub fn normalized_weights(topo: &Topology) -> Vec<f64> {
    let mut w = base_parallelism_weights(topo);
    let mean = w.iter().sum::<f64>() / w.len().max(1) as f64;
    if mean > 0.0 {
        for x in &mut w {
            *x /= mean;
        }
    }
    w
}

/// Turn weights and a multiplier into parallelism hints:
/// `hint_v = max(1, round(w_v * multiplier))`, clamped to `u32`.
///
/// The rounding is branchless and gives the hint `f64::round` (half away
/// from zero) gives, for every product: the saturating cast truncates
/// toward zero, and a fraction of one half or more adds one. Products
/// below one half, NaN and `-inf` get the floor hint 1 either way. A
/// product at or past 2^53 is an integer, so its fraction is 0 (or
/// `+inf` past `i64::MAX`, where the add saturates).
pub fn hints_from_weights(weights: &[f64], multiplier: f64) -> Vec<u32> {
    weights
        .iter()
        .map(|&w| {
            let x = w * multiplier;
            let t = x as i64;
            t.saturating_add(i64::from(x - t as f64 >= 0.5))
                .max(1)
                .min(u32::MAX as i64) as u32
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtm_stormsim::topology::TopologyBuilder;
    use proptest::prelude::*;

    #[test]
    fn diamond_weights() {
        // s -> a, s -> b, a -> c, b -> c: c's weight = w(a) + w(b) = 2.
        let mut tb = TopologyBuilder::new("d");
        let s = tb.spout("s", 1.0);
        let a = tb.bolt("a", 1.0);
        let b = tb.bolt("b", 1.0);
        let c = tb.bolt("c", 1.0);
        tb.connect(s, a).connect(s, b).connect(a, c).connect(b, c);
        let t = tb.build().unwrap();
        assert_eq!(base_parallelism_weights(&t), vec![1.0, 1.0, 1.0, 2.0]);
    }

    #[test]
    fn deep_fanin_accumulates() {
        // Two spouts joined: weights add along the chain.
        let mut tb = TopologyBuilder::new("j");
        let s1 = tb.spout("s1", 1.0);
        let s2 = tb.spout("s2", 1.0);
        let j = tb.bolt("join", 1.0);
        let k = tb.bolt("k", 1.0);
        tb.connect(s1, j).connect(s2, j).connect(j, k);
        let t = tb.build().unwrap();
        assert_eq!(base_parallelism_weights(&t), vec![1.0, 1.0, 2.0, 2.0]);
    }

    #[test]
    fn hints_round_and_floor_at_one() {
        let w = [1.0, 2.0, 0.2];
        assert_eq!(hints_from_weights(&w, 1.0), vec![1, 2, 1]);
        assert_eq!(hints_from_weights(&w, 2.5), vec![3, 5, 1]);
        assert_eq!(hints_from_weights(&w, 10.0), vec![10, 20, 2]);
    }

    /// `hints_from_weights`' per-node body before the branchless
    /// rounding: libm `round`, then the same clamp.
    fn libm_hint(x: f64) -> u32 {
        (x.round() as i64).max(1).min(u32::MAX as i64) as u32
    }

    #[test]
    fn hints_from_weights_is_bit_equal_to_libm_round() {
        let two = |e: i32| 2f64.powi(e);
        let edges = [
            0.5,
            1.5,
            2.5,
            0.49999999999999994,
            two(52) + 0.5,
            two(52) + 1.5,
            two(53),
            two(53) + 2.0,
            two(31) - 0.5,
            two(32) - 0.5,
            two(32) + 0.5,
            two(63),
            two(64),
            f64::MAX,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
            -2.5,
            -0.5,
            -0.0,
            0.0,
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE / 2.0,
            f64::from_bits(1),
            -f64::from_bits(1),
            -two(63),
            f64::MIN,
        ];
        let want: Vec<u32> = edges.iter().map(|&x| libm_hint(x)).collect();
        assert_eq!(hints_from_weights(&edges, 1.0), want);
    }

    proptest! {
        /// Random weights times informed multipliers, with half-integer
        /// weights and a multiplier of 1 mixed in so exact ties occur.
        #[test]
        fn hints_from_weights_is_bit_equal_to_libm_round_on_random_weights(
            weights in prop::collection::vec(
                prop_oneof![0.0f64..400.0, (0u32..800).prop_map(|k| f64::from(k) / 2.0)],
                1..200,
            ),
            multiplier in prop_oneof![0.25f64..60.0, Just(1.0)],
        ) {
            let want: Vec<u32> = weights.iter().map(|&w| libm_hint(w * multiplier)).collect();
            prop_assert_eq!(hints_from_weights(&weights, multiplier), want);
        }
    }

    #[test]
    fn normalized_weights_have_mean_one() {
        let t = mtm_topogen::generate_layer_by_layer(&mtm_topogen::GgenParams::large(5));
        let w = normalized_weights(&t);
        let mean = w.iter().sum::<f64>() / w.len() as f64;
        assert!((mean - 1.0).abs() < 1e-12);
        assert!(w.iter().all(|&x| x > 0.0));
    }

    #[test]
    fn weights_on_generated_topology_are_positive() {
        let t = mtm_topogen::generate_layer_by_layer(&mtm_topogen::GgenParams::medium(3));
        let w = base_parallelism_weights(&t);
        assert!(w.iter().all(|&x| x >= 1.0));
        // Later layers accumulate weight.
        let layers = t.layers();
        let max_layer = *layers.iter().max().unwrap();
        let deep_avg: f64 = {
            let deep: Vec<f64> = (0..t.n_nodes())
                .filter(|&v| layers[v] == max_layer)
                .map(|v| w[v])
                .collect();
            deep.iter().sum::<f64>() / deep.len() as f64
        };
        assert!(deep_avg >= 1.0);
    }
}
