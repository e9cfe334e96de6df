//! Steady-state tuple-flow analysis.
//!
//! Normalizes everything to *one unit of aggregate spout emission*: the
//! spouts together emit 1 tuple; flows propagate through the DAG according
//! to selectivity and routing policy. Both simulators and the network
//! accounting build on these per-node and per-edge flows.

use serde::{Deserialize, Serialize};

use crate::topology::{Grouping, RoutePolicy, Topology};

/// Per-node and per-edge steady-state flows for one unit of aggregate
/// spout emission.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FlowAnalysis {
    /// Tuples *processed* by each node per unit (spouts: tuples emitted —
    /// emission is their processing).
    pub node_flow: Vec<f64>,
    /// Tuples traversing each edge per unit.
    pub edge_flow: Vec<f64>,
    /// Σ node_flow — total tuple-processings triggered per spout tuple.
    pub total_processing: f64,
    /// Σ over edges of `edge_flow * tuple_bytes(from)` — bytes put on the
    /// wire per unit, before the remote fraction is applied.
    pub bytes_per_unit: f64,
    /// Tuples arriving at sinks per unit.
    pub sink_flow: f64,
    /// Σ edge_flow — tuples crossing edges per unit.
    pub edge_flow_total: f64,
    /// Flow-weighted mean emitted-tuple size in bytes (128 when no node
    /// carries flow).
    pub mean_tuple_bytes: f64,
    /// Per-node cap on effective parallelism: the smallest bound its
    /// in-edges' groupings put on it — a `Fields` edge its key
    /// cardinality, a `Global` edge 1 — or `u32::MAX` when none does. A
    /// node with `t` tasks runs `t.min(cap).max(1)` of them in parallel.
    pub grouping_cap: Vec<u32>,
}

/// Analyze `topo`. Spouts share the unit emission equally.
pub fn analyze(topo: &Topology) -> FlowAnalysis {
    let n = topo.n_nodes();
    let spouts = topo.spouts();
    debug_assert!(!spouts.is_empty(), "validated topologies have spouts");
    let mut node_flow = vec![0.0; n];
    for &s in &spouts {
        node_flow[s] = 1.0 / spouts.len() as f64;
    }
    let mut edge_flow = vec![0.0; topo.n_edges()];
    let mut grouping_cap = vec![u32::MAX; n];

    // Propagate in topological order: emitted = processed * selectivity,
    // split or replicated across outgoing edges. The same walk visits
    // every edge once, so it also folds each edge's grouping into its
    // target's cap (a `min`, so edge order does not matter).
    for &u in topo.topo_order() {
        let out = topo.out_edges(u);
        if out.is_empty() {
            continue;
        }
        let emitted = node_flow[u] * topo.selectivity(u);
        let per_edge = match topo.route(u) {
            RoutePolicy::Replicate => emitted,
            RoutePolicy::Split => emitted / out.len() as f64,
        };
        for &ei in out {
            let to = topo.edge_to(ei as usize);
            edge_flow[ei as usize] += per_edge;
            node_flow[to] += per_edge;
            let cap = &mut grouping_cap[to];
            match topo.edge_grouping(ei as usize) {
                Grouping::Shuffle => {}
                Grouping::Fields { key_cardinality } => *cap = (*cap).min(key_cardinality),
                Grouping::Global => *cap = (*cap).min(1),
            }
        }
    }

    let total_processing = node_flow.iter().sum();
    let bytes_per_unit = edge_flow
        .iter()
        .enumerate()
        .map(|(ei, &f)| f * topo.tuple_bytes(topo.edge_from(ei)) as f64)
        .sum();
    let sink_flow = topo.sinks().iter().map(|&s| node_flow[s]).sum();
    let edge_flow_total = edge_flow.iter().sum();
    let mut weight = 0.0;
    let mut sum = 0.0;
    for (v, &f) in node_flow.iter().enumerate() {
        weight += f;
        sum += f * topo.tuple_bytes(v) as f64;
    }
    let mean_tuple_bytes = if weight > 0.0 { sum / weight } else { 128.0 };

    FlowAnalysis {
        node_flow,
        edge_flow,
        total_processing,
        bytes_per_unit,
        sink_flow,
        edge_flow_total,
        mean_tuple_bytes,
        grouping_cap,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::TopologyBuilder;

    #[test]
    fn chain_flow_is_conserved() {
        let mut tb = TopologyBuilder::new("chain");
        let s = tb.spout("s", 1.0);
        let a = tb.bolt("a", 1.0);
        let b = tb.bolt("b", 1.0);
        tb.connect(s, a).connect(a, b);
        let t = tb.build().unwrap();
        let f = analyze(&t);
        assert_eq!(f.node_flow, vec![1.0, 1.0, 1.0]);
        assert_eq!(f.total_processing, 3.0);
        assert_eq!(f.sink_flow, 1.0);
    }

    #[test]
    fn split_routing_divides_flow() {
        // s -> {a, b} with split routing: each gets half.
        let mut tb = TopologyBuilder::new("split");
        let s = tb.spout("s", 1.0);
        let a = tb.bolt("a", 1.0);
        let b = tb.bolt("b", 1.0);
        tb.connect(s, a).connect(s, b);
        let t = tb.build().unwrap();
        let f = analyze(&t);
        assert_eq!(f.node_flow[1], 0.5);
        assert_eq!(f.node_flow[2], 0.5);
        assert_eq!(f.sink_flow, 1.0);
    }

    #[test]
    fn replicate_routing_copies_flow() {
        let mut tb = TopologyBuilder::new("rep");
        let s = tb.spout("s", 1.0);
        let a = tb.bolt("a", 1.0);
        let b = tb.bolt("b", 1.0);
        tb.connect(s, a).connect(s, b);
        tb.route(s, RoutePolicy::Replicate);
        let t = tb.build().unwrap();
        let f = analyze(&t);
        assert_eq!(f.node_flow[1], 1.0);
        assert_eq!(f.node_flow[2], 1.0);
        assert_eq!(f.sink_flow, 2.0);
    }

    #[test]
    fn selectivity_scales_downstream_flow() {
        let mut tb = TopologyBuilder::new("sel");
        let s = tb.spout("s", 1.0);
        let a = tb.bolt("filter", 1.0);
        let b = tb.bolt("sink", 1.0);
        tb.connect(s, a).connect(a, b);
        tb.selectivity(a, 0.25); // filter drops 75%
        let t = tb.build().unwrap();
        let f = analyze(&t);
        assert_eq!(f.node_flow[2], 0.25);
        assert_eq!(f.sink_flow, 0.25);
    }

    #[test]
    fn multiple_spouts_share_the_unit() {
        let mut tb = TopologyBuilder::new("multi");
        let s1 = tb.spout("s1", 1.0);
        let s2 = tb.spout("s2", 1.0);
        let a = tb.bolt("a", 1.0);
        tb.connect(s1, a).connect(s2, a);
        let t = tb.build().unwrap();
        let f = analyze(&t);
        assert_eq!(f.node_flow[0], 0.5);
        assert_eq!(f.node_flow[1], 0.5);
        assert_eq!(f.node_flow[2], 1.0);
    }

    #[test]
    fn bytes_accounting_uses_producer_size() {
        let mut tb = TopologyBuilder::new("bytes");
        let s = tb.spout("s", 1.0);
        let a = tb.bolt("a", 1.0);
        tb.connect(s, a);
        tb.tuple_bytes(s, 1000);
        let t = tb.build().unwrap();
        let f = analyze(&t);
        assert_eq!(f.bytes_per_unit, 1000.0);
    }
}
