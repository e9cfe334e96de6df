//! Storm topologies: directed acyclic graphs of spouts and bolts.
//!
//! The cost model attached to each node follows §IV-B of the paper:
//!
//! * **time complexity** — compute units needed per tuple; 1 unit ≈ 1 ms of
//!   one core on an idle machine (the paper's busy-wait calibration),
//! * **resource contention** — a flagged bolt's per-tuple cost is
//!   multiplied by the *total number of task instances of that bolt*, so
//!   adding parallelism to it buys nothing and wastes cycles,
//! * **selectivity** — average number of output tuples per input tuple.
//!
//! Each edge carries a [`Grouping`] (how tuples pick a destination *task*)
//! and each node a [`RoutePolicy`] (whether an emitted tuple is sent to
//! every downstream bolt or split across them; the synthetic benchmark
//! topologies shuffle "evenly among downstream bolts", i.e. split).
//!
//! ## Storage layout
//!
//! [`Topology`] is a structure of arrays: each node and edge field lives
//! in its own flat column (`Vec<f64>`, `Vec<u32>`, …) and adjacency is a
//! CSR index (`u32` edge ids behind per-node offset ranges). Simulator
//! hot loops read single columns contiguously instead of striding over
//! an array of structs, and a 10k-vertex graph costs a dozen
//! allocations at build time rather than one `Vec` per node. The
//! struct-shaped views ([`NodeSpec`], [`Edge`], [`Topology::node`],
//! [`Topology::edges`]) are materialized on demand for cold callers —
//! hot paths use the per-field accessors ([`Topology::selectivity`],
//! [`Topology::edge_to`], …) or the whole-column slices.

use serde::{Deserialize, Serialize};

/// Index of a node within its topology.
pub type NodeId = usize;

/// Spout (source) or bolt (operator).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum NodeKind {
    /// Data source; emits tuples into the topology.
    Spout,
    /// Operator; consumes upstream tuples, may emit downstream.
    Bolt,
}

/// Stream grouping: how tuples on an edge choose a destination task.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Grouping {
    /// Round-robin / random across destination tasks (load balancing).
    Shuffle,
    /// Hash of a key field: all tuples with equal keys hit the same task.
    /// `key_cardinality` bounds how many distinct keys exist, which caps
    /// the effective parallelism of the destination.
    Fields {
        /// Number of distinct key values in the stream.
        key_cardinality: u32,
    },
    /// Everything to task 0 (aggregation endpoint).
    Global,
}

/// How a node's emitted tuples fan out across multiple outgoing edges.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RoutePolicy {
    /// Each emitted tuple is copied onto **every** outgoing edge (Storm's
    /// semantics when several bolts subscribe to the same stream).
    Replicate,
    /// Each emitted tuple is routed to **one** outgoing edge, chosen
    /// evenly — the behaviour of the paper's generated topologies.
    Split,
}

/// Per-node specification.
///
/// Inside a validated [`Topology`] the fields live in flat columns;
/// this struct is the builder-side input and the materialized view
/// [`Topology::node`] returns. Materializing clones the name — use the
/// per-field accessors in anything per-tuple or per-candidate.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodeSpec {
    /// Human-readable name.
    pub name: String,
    /// Spout or bolt.
    pub kind: NodeKind,
    /// Compute units consumed per processed tuple (1 unit ≈ 1 ms·core).
    pub time_complexity: f64,
    /// When `true`, per-tuple cost is multiplied by this node's task count.
    pub contentious: bool,
    /// Average tuples emitted per tuple processed (ignored for sinks).
    pub selectivity: f64,
    /// Serialized size of an emitted tuple, for network accounting.
    pub tuple_bytes: u32,
    /// Fan-out behaviour across this node's outgoing edges.
    pub route: RoutePolicy,
}

/// A directed edge with its grouping.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Edge {
    /// Producing node.
    pub from: NodeId,
    /// Consuming node.
    pub to: NodeId,
    /// Grouping strategy on this edge.
    pub grouping: Grouping,
}

/// A validated Storm topology (connected DAG with at least one spout),
/// stored as a structure of arrays with CSR adjacency.
///
/// Serialize-only: the interned label caches hold `&'static str`, which
/// has no meaningful deserialization (and nothing round-trips a whole
/// `Topology` — builders and generators are the only constructors).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Topology {
    name: String,
    /// Interned copy of `name` for zero-alloc trace labels.
    name_label: &'static str,
    /// Node names, id order (cold; hot paths use `labels`).
    names: Vec<String>,
    /// Interned copies of the node names, same order as `names`, so
    /// per-run `Operator` events record without cloning a `String`.
    labels: Vec<&'static str>,
    // --- node columns, id order ---
    kind: Vec<NodeKind>,
    time_complexity: Vec<f64>,
    contentious: Vec<bool>,
    selectivity: Vec<f64>,
    tuple_bytes: Vec<u32>,
    route: Vec<RoutePolicy>,
    // --- edge columns, edge-id order ---
    edge_from: Vec<u32>,
    edge_to: Vec<u32>,
    edge_grouping: Vec<Grouping>,
    // --- CSR adjacency: edge ids of node v are
    //     out_edge[out_start[v]..out_start[v+1]] (and the in_ pair) ---
    out_start: Vec<u32>,
    out_edge: Vec<u32>,
    in_start: Vec<u32>,
    in_edge: Vec<u32>,
    /// Topological order of node ids.
    topo_order: Vec<NodeId>,
}

/// Errors from topology validation.
#[derive(Debug, Clone, PartialEq)]
pub enum TopologyError {
    /// The graph contains a directed cycle.
    Cyclic,
    /// No spout present.
    NoSpout,
    /// A node is completely disconnected (paper requires all vertices
    /// connected to at least one other vertex).
    Disconnected(NodeId),
    /// A spout has incoming edges.
    SpoutWithInput(NodeId),
    /// An edge references a missing node.
    DanglingEdge(usize),
    /// Duplicate edge between the same pair.
    DuplicateEdge(NodeId, NodeId),
    /// A numeric field is invalid (negative cost, non-positive selectivity…).
    BadSpec(NodeId, &'static str),
    /// Node or edge count exceeds the `u32` index space of the CSR
    /// adjacency layout.
    TooLarge(usize),
}

impl std::fmt::Display for TopologyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TopologyError::Cyclic => write!(f, "topology contains a cycle"),
            TopologyError::NoSpout => write!(f, "topology has no spout"),
            TopologyError::Disconnected(n) => write!(f, "node {n} is disconnected"),
            TopologyError::SpoutWithInput(n) => write!(f, "spout {n} has incoming edges"),
            TopologyError::DanglingEdge(e) => write!(f, "edge {e} references a missing node"),
            TopologyError::DuplicateEdge(a, b) => write!(f, "duplicate edge {a} -> {b}"),
            TopologyError::BadSpec(n, what) => write!(f, "node {n}: invalid {what}"),
            TopologyError::TooLarge(n) => {
                write!(f, "{n} nodes/edges exceed the u32 index space")
            }
        }
    }
}

impl std::error::Error for TopologyError {}

/// Incremental builder for [`Topology`].
#[derive(Debug, Clone)]
pub struct TopologyBuilder {
    name: String,
    nodes: Vec<NodeSpec>,
    edges: Vec<Edge>,
}

impl TopologyBuilder {
    /// Start a topology with the given name.
    pub fn new(name: &str) -> Self {
        TopologyBuilder {
            name: name.into(),
            nodes: Vec::new(),
            edges: Vec::new(),
        }
    }

    /// Start a topology with node and edge capacity reserved up front
    /// (generators know both counts before the first push).
    pub fn with_capacity(name: &str, nodes: usize, edges: usize) -> Self {
        TopologyBuilder {
            name: name.into(),
            nodes: Vec::with_capacity(nodes),
            edges: Vec::with_capacity(edges),
        }
    }

    /// Add a spout with per-tuple emission cost `time_complexity`.
    pub fn spout(&mut self, name: &str, time_complexity: f64) -> NodeId {
        self.push_node(name, NodeKind::Spout, time_complexity)
    }

    /// Add a bolt with per-tuple processing cost `time_complexity`.
    pub fn bolt(&mut self, name: &str, time_complexity: f64) -> NodeId {
        self.push_node(name, NodeKind::Bolt, time_complexity)
    }

    fn push_node(&mut self, name: &str, kind: NodeKind, time_complexity: f64) -> NodeId {
        let id = self.nodes.len();
        self.nodes.push(NodeSpec {
            name: name.into(),
            kind,
            time_complexity,
            contentious: false,
            selectivity: 1.0,
            tuple_bytes: 128,
            route: RoutePolicy::Split,
        });
        id
    }

    /// Mark a node resource-contentious (§IV-B2).
    pub fn contentious(&mut self, id: NodeId, flag: bool) -> &mut Self {
        self.nodes[id].contentious = flag;
        self
    }

    /// Set a node's selectivity (§IV-B3).
    pub fn selectivity(&mut self, id: NodeId, s: f64) -> &mut Self {
        self.nodes[id].selectivity = s;
        self
    }

    /// Set a node's emitted tuple size in bytes.
    pub fn tuple_bytes(&mut self, id: NodeId, bytes: u32) -> &mut Self {
        self.nodes[id].tuple_bytes = bytes;
        self
    }

    /// Set a node's fan-out policy.
    pub fn route(&mut self, id: NodeId, route: RoutePolicy) -> &mut Self {
        self.nodes[id].route = route;
        self
    }

    /// Connect `from -> to` with shuffle grouping.
    pub fn connect(&mut self, from: NodeId, to: NodeId) -> &mut Self {
        self.connect_grouped(from, to, Grouping::Shuffle)
    }

    /// Connect `from -> to` with an explicit grouping.
    pub fn connect_grouped(&mut self, from: NodeId, to: NodeId, grouping: Grouping) -> &mut Self {
        self.edges.push(Edge { from, to, grouping });
        self
    }

    /// Validate and finalize.
    pub fn build(self) -> Result<Topology, TopologyError> {
        Topology::validate(self.name, self.nodes, self.edges)
    }
}

impl Topology {
    fn validate(
        name: String,
        nodes: Vec<NodeSpec>,
        edges: Vec<Edge>,
    ) -> Result<Topology, TopologyError> {
        let n = nodes.len();
        // The CSR index is u32; reject graphs that cannot address their
        // own nodes or edges rather than truncating silently.
        if n > u32::MAX as usize {
            return Err(TopologyError::TooLarge(n));
        }
        if edges.len() > u32::MAX as usize {
            return Err(TopologyError::TooLarge(edges.len()));
        }
        for (i, e) in edges.iter().enumerate() {
            if e.from >= n || e.to >= n {
                return Err(TopologyError::DanglingEdge(i));
            }
        }
        // Duplicate edges: sort the (from, to) pairs and scan adjacent
        // entries — O(E log E), where the old pairwise scan was O(E²)
        // (minutes at the 10k-vertex scale).
        let mut pairs: Vec<(NodeId, NodeId)> = edges.iter().map(|e| (e.from, e.to)).collect();
        pairs.sort_unstable();
        for w in pairs.windows(2) {
            if w[0] == w[1] {
                return Err(TopologyError::DuplicateEdge(w[0].0, w[0].1));
            }
        }
        // Node specs.
        for (id, node) in nodes.iter().enumerate() {
            if node.time_complexity.is_nan()
                || node.time_complexity < 0.0
                || !node.time_complexity.is_finite()
            {
                return Err(TopologyError::BadSpec(id, "time_complexity"));
            }
            if node.selectivity.is_nan() || node.selectivity < 0.0 || !node.selectivity.is_finite()
            {
                return Err(TopologyError::BadSpec(id, "selectivity"));
            }
        }
        // CSR adjacency via counting sort: per-node degrees, prefix
        // sums, then a fill pass in edge-id order — which preserves the
        // ascending edge-id order per node that the old per-node `Vec`
        // push loop produced.
        let mut out_start = vec![0u32; n + 1];
        let mut in_start = vec![0u32; n + 1];
        for e in &edges {
            out_start[e.from + 1] += 1;
            in_start[e.to + 1] += 1;
        }
        for v in 0..n {
            out_start[v + 1] += out_start[v];
            in_start[v + 1] += in_start[v];
        }
        let mut out_edge = vec![0u32; edges.len()];
        let mut in_edge = vec![0u32; edges.len()];
        let mut out_fill = out_start.clone();
        let mut in_fill = in_start.clone();
        for (i, e) in edges.iter().enumerate() {
            out_edge[out_fill[e.from] as usize] = i as u32;
            out_fill[e.from] += 1;
            in_edge[in_fill[e.to] as usize] = i as u32;
            in_fill[e.to] += 1;
        }
        let out_deg = |v: NodeId| (out_start[v + 1] - out_start[v]) as usize;
        let in_deg = |v: NodeId| (in_start[v + 1] - in_start[v]) as usize;
        // Structural checks.
        if !nodes.iter().any(|nd| nd.kind == NodeKind::Spout) {
            return Err(TopologyError::NoSpout);
        }
        for (id, node) in nodes.iter().enumerate() {
            if node.kind == NodeKind::Spout && in_deg(id) != 0 {
                return Err(TopologyError::SpoutWithInput(id));
            }
            if n > 1 && out_deg(id) == 0 && in_deg(id) == 0 {
                return Err(TopologyError::Disconnected(id));
            }
        }
        // Kahn's algorithm: topological order + cycle detection.
        let mut indeg: Vec<usize> = (0..n).map(in_deg).collect();
        let mut queue: Vec<NodeId> = (0..n).filter(|&i| indeg[i] == 0).collect();
        let mut topo_order = Vec::with_capacity(n);
        let mut head = 0;
        while head < queue.len() {
            let u = queue[head];
            head += 1;
            topo_order.push(u);
            for &ei in &out_edge[out_start[u] as usize..out_start[u + 1] as usize] {
                let v = edges[ei as usize].to;
                indeg[v] -= 1;
                if indeg[v] == 0 {
                    queue.push(v);
                }
            }
        }
        if topo_order.len() != n {
            return Err(TopologyError::Cyclic);
        }
        let name_label = mtm_obs::intern::intern(&name);
        let labels = nodes
            .iter()
            .map(|nd| mtm_obs::intern::intern(&nd.name))
            .collect();
        // Shred the node and edge structs into columns.
        let mut names = Vec::with_capacity(n);
        let mut kind = Vec::with_capacity(n);
        let mut time_complexity = Vec::with_capacity(n);
        let mut contentious = Vec::with_capacity(n);
        let mut selectivity = Vec::with_capacity(n);
        let mut tuple_bytes = Vec::with_capacity(n);
        let mut route = Vec::with_capacity(n);
        for nd in nodes {
            names.push(nd.name);
            kind.push(nd.kind);
            time_complexity.push(nd.time_complexity);
            contentious.push(nd.contentious);
            selectivity.push(nd.selectivity);
            tuple_bytes.push(nd.tuple_bytes);
            route.push(nd.route);
        }
        let mut edge_from = Vec::with_capacity(edges.len());
        let mut edge_to = Vec::with_capacity(edges.len());
        let mut edge_grouping = Vec::with_capacity(edges.len());
        for e in edges {
            edge_from.push(e.from as u32);
            edge_to.push(e.to as u32);
            edge_grouping.push(e.grouping);
        }
        Ok(Topology {
            name,
            name_label,
            names,
            labels,
            kind,
            time_complexity,
            contentious,
            selectivity,
            tuple_bytes,
            route,
            edge_from,
            edge_to,
            edge_grouping,
            out_start,
            out_edge,
            in_start,
            in_edge,
            topo_order,
        })
    }

    /// Topology name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Interned topology name for zero-alloc trace labels.
    pub fn name_label(&self) -> &'static str {
        self.name_label
    }

    /// Interned name of node `v` for zero-alloc trace labels.
    pub fn label(&self, v: NodeId) -> &'static str {
        self.labels[v]
    }

    /// Number of nodes.
    pub fn n_nodes(&self) -> usize {
        self.kind.len()
    }

    /// Number of edges.
    pub fn n_edges(&self) -> usize {
        self.edge_from.len()
    }

    /// Node specification by id, materialized from the columns.
    ///
    /// Clones the node name — fine for construction, tests and
    /// reporting; hot loops use the per-field accessors below.
    pub fn node(&self, id: NodeId) -> NodeSpec {
        NodeSpec {
            name: self.names[id].clone(),
            kind: self.kind[id],
            time_complexity: self.time_complexity[id],
            contentious: self.contentious[id],
            selectivity: self.selectivity[id],
            tuple_bytes: self.tuple_bytes[id],
            route: self.route[id],
        }
    }

    /// All edges, materialized (cold; per-field accessors are the hot path).
    pub fn edges(&self) -> Vec<Edge> {
        (0..self.n_edges()).map(|ei| self.edge(ei)).collect()
    }

    /// One edge, materialized.
    pub fn edge(&self, ei: usize) -> Edge {
        Edge {
            from: self.edge_from[ei] as NodeId,
            to: self.edge_to[ei] as NodeId,
            grouping: self.edge_grouping[ei],
        }
    }

    // --- per-field node accessors (hot path; no materialization) ---

    /// Spout or bolt.
    pub fn kind(&self, v: NodeId) -> NodeKind {
        self.kind[v]
    }

    /// Compute units per processed tuple.
    pub fn time_complexity(&self, v: NodeId) -> f64 {
        self.time_complexity[v]
    }

    /// Whether the node pays the contention multiplier.
    pub fn is_contentious(&self, v: NodeId) -> bool {
        self.contentious[v]
    }

    /// Tuples emitted per tuple processed.
    pub fn selectivity(&self, v: NodeId) -> f64 {
        self.selectivity[v]
    }

    /// Emitted tuple size in bytes.
    pub fn tuple_bytes(&self, v: NodeId) -> u32 {
        self.tuple_bytes[v]
    }

    /// Fan-out policy across outgoing edges.
    pub fn route(&self, v: NodeId) -> RoutePolicy {
        self.route[v]
    }

    /// Producing node of edge `ei`.
    pub fn edge_from(&self, ei: usize) -> NodeId {
        self.edge_from[ei] as NodeId
    }

    /// Consuming node of edge `ei`.
    pub fn edge_to(&self, ei: usize) -> NodeId {
        self.edge_to[ei] as NodeId
    }

    /// Grouping on edge `ei`.
    pub fn edge_grouping(&self, ei: usize) -> Grouping {
        self.edge_grouping[ei]
    }

    // --- setters for generator post-processing (replace `node_mut`) ---

    /// Overwrite a node's per-tuple compute cost (generator post-processing).
    pub fn set_time_complexity(&mut self, v: NodeId, units: f64) {
        self.time_complexity[v] = units;
    }

    /// Overwrite a node's contention flag (generator post-processing).
    pub fn set_contentious(&mut self, v: NodeId, flag: bool) {
        self.contentious[v] = flag;
    }

    /// Ids of outgoing edges of `id` (CSR slice, ascending edge id).
    pub fn out_edges(&self, id: NodeId) -> &[u32] {
        &self.out_edge[self.out_start[id] as usize..self.out_start[id + 1] as usize]
    }

    /// Ids of incoming edges of `id` (CSR slice, ascending edge id).
    pub fn in_edges(&self, id: NodeId) -> &[u32] {
        &self.in_edge[self.in_start[id] as usize..self.in_start[id + 1] as usize]
    }

    /// Node ids in topological order.
    pub fn topo_order(&self) -> &[NodeId] {
        &self.topo_order
    }

    /// Ids of all spouts.
    pub fn spouts(&self) -> Vec<NodeId> {
        (0..self.n_nodes())
            .filter(|&i| self.kind[i] == NodeKind::Spout)
            .collect()
    }

    /// Ids of all source nodes (in-degree 0; includes spouts).
    pub fn sources(&self) -> Vec<NodeId> {
        (0..self.n_nodes())
            .filter(|&i| self.in_edges(i).is_empty())
            .collect()
    }

    /// Ids of all sinks (out-degree 0).
    pub fn sinks(&self) -> Vec<NodeId> {
        (0..self.n_nodes())
            .filter(|&i| self.out_edges(i).is_empty())
            .collect()
    }

    /// Average out-degree across all nodes (Table II's AOD column).
    pub fn avg_out_degree(&self) -> f64 {
        self.n_edges() as f64 / self.n_nodes() as f64
    }

    /// Longest-path layering: layer(v) = 1 + max layer over predecessors,
    /// sources at layer 0. Returns per-node layers.
    pub fn layers(&self) -> Vec<usize> {
        let mut layer = vec![0usize; self.n_nodes()];
        for &u in &self.topo_order {
            for &ei in self.out_edges(u) {
                let v = self.edge_to[ei as usize] as NodeId;
                layer[v] = layer[v].max(layer[u] + 1);
            }
        }
        layer
    }

    /// Number of distinct layers.
    pub fn n_layers(&self) -> usize {
        self.layers().iter().max().map_or(0, |m| m + 1)
    }

    /// Total compute units across nodes (used to flag "25% of compute
    /// time" as contentious, §IV-B2).
    pub fn total_compute_units(&self) -> f64 {
        self.time_complexity.iter().sum()
    }

    /// Sum of compute units on contentious nodes.
    pub fn contentious_compute_units(&self) -> f64 {
        (0..self.n_nodes())
            .filter(|&v| self.contentious[v])
            .map(|v| self.time_complexity[v])
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> Topology {
        // s -> a, s -> b, a -> c, b -> c
        let mut tb = TopologyBuilder::new("diamond");
        let s = tb.spout("s", 10.0);
        let a = tb.bolt("a", 20.0);
        let b = tb.bolt("b", 30.0);
        let c = tb.bolt("c", 5.0);
        tb.connect(s, a).connect(s, b).connect(a, c).connect(b, c);
        tb.build().unwrap()
    }

    #[test]
    fn builds_and_reports_structure() {
        let t = diamond();
        assert_eq!(t.n_nodes(), 4);
        assert_eq!(t.n_edges(), 4);
        assert_eq!(t.spouts(), vec![0]);
        assert_eq!(t.sinks(), vec![3]);
        assert_eq!(t.sources(), vec![0]);
        assert!((t.avg_out_degree() - 1.0).abs() < 1e-12);
        assert_eq!(t.layers(), vec![0, 1, 1, 2]);
        assert_eq!(t.n_layers(), 3);
        assert_eq!(t.total_compute_units(), 65.0);
    }

    #[test]
    fn topo_order_respects_edges() {
        let t = diamond();
        let order = t.topo_order();
        let pos: Vec<usize> = (0..4)
            .map(|i| order.iter().position(|&x| x == i).unwrap())
            .collect();
        for e in t.edges() {
            assert!(pos[e.from] < pos[e.to], "edge {} -> {}", e.from, e.to);
        }
    }

    #[test]
    fn columns_match_materialized_views() {
        let t = diamond();
        for v in 0..t.n_nodes() {
            let spec = t.node(v);
            assert_eq!(spec.kind, t.kind(v));
            assert_eq!(spec.time_complexity, t.time_complexity(v));
            assert_eq!(spec.contentious, t.is_contentious(v));
            assert_eq!(spec.selectivity, t.selectivity(v));
            assert_eq!(spec.tuple_bytes, t.tuple_bytes(v));
            assert_eq!(spec.route, t.route(v));
        }
        for (ei, e) in t.edges().into_iter().enumerate() {
            assert_eq!(e.from, t.edge_from(ei));
            assert_eq!(e.to, t.edge_to(ei));
            assert_eq!(e.grouping, t.edge_grouping(ei));
        }
        let costs: Vec<f64> = (0..t.n_nodes()).map(|v| t.time_complexity(v)).collect();
        assert_eq!(costs, [10.0, 20.0, 30.0, 5.0]);
        let from: Vec<NodeId> = (0..t.n_edges()).map(|ei| t.edge_from(ei)).collect();
        assert_eq!(from, [0, 0, 1, 2]);
        let to: Vec<NodeId> = (0..t.n_edges()).map(|ei| t.edge_to(ei)).collect();
        assert_eq!(to, [1, 2, 3, 3]);
    }

    #[test]
    fn csr_adjacency_is_in_edge_id_order() {
        let t = diamond();
        assert_eq!(t.out_edges(0), &[0, 1]);
        assert_eq!(t.out_edges(1), &[2]);
        assert_eq!(t.out_edges(2), &[3]);
        assert!(t.out_edges(3).is_empty());
        assert_eq!(t.in_edges(3), &[2, 3]);
        assert!(t.in_edges(0).is_empty());
    }

    #[test]
    fn detects_cycle() {
        let mut tb = TopologyBuilder::new("cyc");
        let s = tb.spout("s", 1.0);
        let a = tb.bolt("a", 1.0);
        let b = tb.bolt("b", 1.0);
        tb.connect(s, a).connect(a, b).connect(b, a);
        assert_eq!(tb.build().unwrap_err(), TopologyError::Cyclic);
    }

    #[test]
    fn rejects_spout_with_input() {
        let mut tb = TopologyBuilder::new("bad");
        let s1 = tb.spout("s1", 1.0);
        let s2 = tb.spout("s2", 1.0);
        tb.connect(s1, s2);
        assert_eq!(tb.build().unwrap_err(), TopologyError::SpoutWithInput(1));
    }

    #[test]
    fn rejects_disconnected_and_no_spout() {
        let mut tb = TopologyBuilder::new("iso");
        let s = tb.spout("s", 1.0);
        let a = tb.bolt("a", 1.0);
        let _lonely = tb.bolt("b", 1.0);
        tb.connect(s, a);
        assert_eq!(tb.build().unwrap_err(), TopologyError::Disconnected(2));

        let mut tb = TopologyBuilder::new("nospout");
        let a = tb.bolt("a", 1.0);
        let b = tb.bolt("b", 1.0);
        tb.connect(a, b);
        assert_eq!(tb.build().unwrap_err(), TopologyError::NoSpout);
    }

    #[test]
    fn rejects_duplicates_and_dangling() {
        let mut tb = TopologyBuilder::new("dup");
        let s = tb.spout("s", 1.0);
        let a = tb.bolt("a", 1.0);
        tb.connect(s, a).connect(s, a);
        assert_eq!(tb.build().unwrap_err(), TopologyError::DuplicateEdge(0, 1));

        let mut tb = TopologyBuilder::new("dangle");
        let s = tb.spout("s", 1.0);
        tb.connect(s, 7);
        assert_eq!(tb.build().unwrap_err(), TopologyError::DanglingEdge(0));
    }

    #[test]
    fn rejects_bad_specs() {
        let mut tb = TopologyBuilder::new("bad");
        let s = tb.spout("s", f64::NAN);
        let a = tb.bolt("a", 1.0);
        tb.connect(s, a);
        assert!(matches!(
            tb.build(),
            Err(TopologyError::BadSpec(0, "time_complexity"))
        ));
    }

    #[test]
    fn contentious_accounting() {
        let mut tb = TopologyBuilder::new("cont");
        let s = tb.spout("s", 10.0);
        let a = tb.bolt("a", 30.0);
        let b = tb.bolt("b", 20.0);
        tb.connect(s, a).connect(s, b);
        tb.contentious(a, true);
        let t = tb.build().unwrap();
        assert_eq!(t.contentious_compute_units(), 30.0);
        assert_eq!(t.total_compute_units(), 60.0);
    }

    #[test]
    fn single_spout_topology_is_valid() {
        let mut tb = TopologyBuilder::new("solo");
        tb.spout("s", 1.0);
        let t = tb.build().unwrap();
        assert_eq!(t.sinks(), vec![0]);
    }

    #[test]
    fn setters_overwrite_columns() {
        let mut t = diamond();
        t.set_time_complexity(1, 99.0);
        t.set_contentious(1, true);
        assert_eq!(t.time_complexity(1), 99.0);
        assert!(t.is_contentious(1));
        assert_eq!(t.contentious_compute_units(), 99.0);
    }
}
