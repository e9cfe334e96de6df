//! # mtm-obs
//!
//! Deterministic structured tracing and metrics for the mtm stack.
//!
//! The paper treats throughput as a black box the optimizer probes blind;
//! our simulator is not one. This crate is the seam that lets every layer
//! *explain itself* without perturbing results:
//!
//! * [`Recorder`] — the instrumentation trait. [`NullRecorder`] is the
//!   default everywhere and compiles away (`ENABLED = false` lets hot
//!   paths skip even the bookkeeping); [`MemRecorder`] buffers events in
//!   memory (used by the runner to keep parallel traces byte-identical
//!   to serial ones); [`JsonlRecorder`] appends schema-versioned JSONL
//!   through a [`segment`].
//! * [`segment`] — the torn-tail JSONL log every layer writes: one
//!   flushed line per append, and readers trust only the longest valid
//!   prefix. Runner journals and `mtm-serve`'s store are built on it
//!   too.
//! * [`Event`] — the trace schema: per-operator counters and queue
//!   high-water marks from the simulators, per-constraint bottleneck
//!   attribution from the flow model, per-propose surrogate decisions
//!   from the optimizer, per-trial spans (linked to journal run ids)
//!   from the runner.
//! * [`summary`] — the aggregation layer behind the `mtm-obs` CLI
//!   (`summarize` / `diff` / `top`).
//!
//! ## Determinism contract
//!
//! Recording must never change what is being recorded: instrumented code
//! paths are passive observers, asserted bitwise by the determinism
//! probe with recording on vs. off. Traces themselves are deterministic
//! too — two identical seeded runs produce **byte-identical** trace
//! files, which is what makes golden-trajectory regression tests
//! possible. Wall-clock durations are the one sanctioned exception: they
//! are only captured when a recorder opts in via
//! [`Recorder::wallclock`], and every recorder defaults to *off*.

pub mod event;
pub mod intern;
pub mod recorder;
pub mod segment;
pub mod summary;

pub use event::{Event, Header, Record, TRACE_VERSION};
pub use recorder::{
    load_trace, JsonlRecorder, MemRecorder, NullRecorder, ObsError, Recorder, TraceData,
    MEM_RECORDER_CAPACITY,
};
pub use summary::{diff_traces, summarize, Summary};
