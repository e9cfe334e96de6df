//! A warm [`MemRecorder`] must record without touching the heap.
//!
//! This is the contract the hot-path analyzer enforces statically
//! (`mtm-hot: recorder` reaches no unsanctioned allocation site) —
//! here it is checked dynamically: a counting global allocator wraps
//! the system allocator, the arena is warmed past its high-water mark,
//! and a full batch of records must leave the allocation counter
//! untouched. Lives in its own integration-test binary so the counting
//! allocator cannot skew any other suite.
//!
//! The counter is per thread: libtest runs the tests below on parallel
//! threads, and a shared counter would see one test's warm-up inside the
//! other's measured window.

#![allow(
    unsafe_code,
    reason = "a counting `#[global_allocator]` needs `unsafe impl GlobalAlloc`"
)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mtm_obs::event::Event;
use mtm_obs::recorder::{MemRecorder, Recorder, MEM_RECORDER_CAPACITY};

struct CountingAlloc;

thread_local! {
    // `const`-initialised and without a destructor, so touching it from
    // inside the allocator never allocates or re-enters.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

/// Heap allocations made so far on the calling thread.
fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

// SAFETY: delegates every operation to `System` unchanged; the counter
// is a thread-local cell with no other side effects.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
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
        count_one();
        // SAFETY: `ptr`, `layout` and `new_size` meet
        // `GlobalAlloc::realloc`'s contract and go to `System` unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// One event of each hot-emitter shape, all labels `Cow::Borrowed` (the
/// interned form the simulators record after this PR).
fn sample_event(i: usize) -> Event {
    Event::Constraint {
        kind: "node".into(),
        node: Some(i % 7),
        bound: 1000.0 + i as f64,
    }
}

#[test]
fn warm_arena_records_without_allocating() {
    let n = MEM_RECORDER_CAPACITY;
    let mut rec = MemRecorder::new();
    // Warm-up: push the high-water mark to `n`, then reset the live
    // length. Slots stay owned by the arena.
    for i in 0..n {
        rec.record(sample_event(i));
    }
    rec.clear();

    let before = allocs();
    for i in 0..n {
        rec.record(sample_event(i));
    }
    let after = allocs();

    assert_eq!(rec.len(), n);
    assert_eq!(
        after - before,
        0,
        "recording {n} events into a warm arena performed {} heap allocation(s)",
        after - before
    );
}

#[test]
fn clear_and_rerecord_stays_allocation_free_across_runs() {
    // The steady state bench_obs measures: one recorder reused across
    // many runs, `clear` between them.
    let mut rec = MemRecorder::new();
    for i in 0..MEM_RECORDER_CAPACITY {
        rec.record(sample_event(i));
    }
    rec.clear();

    let before = allocs();
    for _run in 0..100 {
        rec.clear();
        for i in 0..32 {
            rec.record(sample_event(i));
        }
    }
    let after = allocs();
    assert_eq!(after - before, 0, "clear/record cycles must not allocate");
}
