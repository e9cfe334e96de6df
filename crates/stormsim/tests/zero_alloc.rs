//! A warm [`SimBatch`] must evaluate without touching the heap.
//!
//! The static side of this contract is the hot-path analyzer: the
//! `mtm-hot: sim-batch` root must reach no unsanctioned allocation
//! site. Here it is checked dynamically, the way `mtm-obs` checks its
//! recorder arena: a counting global allocator wraps the system
//! allocator, one batch evaluation warms every scratch buffer to its
//! high-water mark, and every batch after that must leave the
//! allocation counter untouched — on a 10k-vertex topology, the scale
//! the batched engine exists for. Lives in its own integration-test
//! binary so the counting allocator cannot skew any other suite.

#![allow(
    unsafe_code,
    reason = "a counting `#[global_allocator]` needs `unsafe impl GlobalAlloc`"
)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use mtm_stormsim::topology::{Topology, TopologyBuilder};
use mtm_stormsim::{ClusterSpec, FlowSimulator, SimBatch, StormConfig};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates every operation to `System` unchanged; the counter
// is a relaxed atomic with no other side effects.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract for
        // `layout`, which is passed to `System` unchanged.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, so from `System`, with
        // this `layout`, as `GlobalAlloc::dealloc` requires.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr`, `layout` and `new_size` meet
        // `GlobalAlloc::realloc`'s contract and go to `System` unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// A layered DAG of `n` vertices built directly (this crate cannot
/// depend on `mtm-topogen`): `width` spouts, then bolt layers of
/// `width`, each bolt fed by one node of the previous layer — `width`
/// parallel pipelines, so unit selectivity keeps total flow conserved
/// no matter how deep the graph gets.
fn layered(n: usize, width: usize) -> Topology {
    let mut tb = TopologyBuilder::with_capacity("big", n, n);
    let mut prev: Vec<usize> = (0..width)
        .map(|i| tb.spout(&format!("s{i}"), 0.01))
        .collect();
    let mut made = width;
    while made < n {
        let take = width.min(n - made);
        let mut layer = Vec::with_capacity(take);
        for i in 0..take {
            let b = tb.bolt(&format!("b{made}_{i}"), 0.02);
            tb.connect(prev[i % prev.len()], b);
            layer.push(b);
        }
        prev = layer;
        made += take;
    }
    tb.build().unwrap()
}

#[test]
fn warm_batch_evaluates_10k_vertices_without_allocating() {
    let n = 10_000;
    let topo = layered(n, 50);
    assert_eq!(topo.n_nodes(), n);
    // 10k nodes deploy at least 10k tasks; on the 80-machine paper
    // cluster that is 125 tasks/machine of spin overhead alone — every
    // machine thrashes. A graph this size needs a proportionally
    // scaled-out cluster (~25 tasks/machine).
    let mut cluster = ClusterSpec::paper_cluster();
    cluster.machines = 400;
    let sim = FlowSimulator::new(topo, cluster, 120.0).unwrap();

    // At 10k coordinated tasks the serial commit costs ~10s per batch,
    // so only large, single-pipeline batches finish inside the batch
    // timeout: the sweep varies batch size, the realistic knob at this
    // scale (`max_tasks` pins one task per node).
    let sweep: Vec<StormConfig> = (0..16)
        .map(|i| {
            let mut c = StormConfig::uniform_hints(n, 1);
            c.max_tasks = n as u32;
            c.ackers = 32;
            c.batch_size = 30_000 + 2_000 * i;
            c.batch_parallelism = 1;
            c
        })
        .collect();

    // Warm-up: one full batch pushes every scratch buffer (task counts,
    // per-node costs, per-machine demand, the result vector itself) to
    // its high-water mark.
    let mut batch = SimBatch::new();
    sim.evaluate_batch_into(&sweep, &mut batch).unwrap();
    let warm: Vec<f64> = batch.results().iter().map(|r| r.throughput_tps).collect();
    assert!(
        warm.iter().all(|&t| t > 0.0),
        "10k-vertex batch must run: {:?}",
        batch
            .results()
            .iter()
            .map(|r| (r.throughput_tps, r.bottleneck))
            .collect::<Vec<_>>()
    );

    let before = ALLOCS.load(Ordering::Relaxed);
    for _ in 0..3 {
        sim.evaluate_batch_into(&sweep, &mut batch).unwrap();
    }
    let after = ALLOCS.load(Ordering::Relaxed);
    assert_eq!(
        after - before,
        0,
        "re-evaluating a warm 16-config batch on a 10k-vertex topology \
         performed {} heap allocation(s)",
        after - before
    );

    // And the warm passes kept producing the same numbers.
    for (a, b) in warm.iter().zip(batch.results()) {
        assert_eq!(a.to_bits(), b.throughput_tps.to_bits());
    }
}
