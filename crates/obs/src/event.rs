//! The trace schema.
//!
//! One trace file is a JSONL stream: a [`Header`] line followed by
//! [`Event`] lines, each externally tagged (`{"Header":{...}}`,
//! `{"Event":{"Propose":{...}}}` — the same representation the runner
//! journal uses). The schema is versioned by [`TRACE_VERSION`]; bump it
//! on any shape change so stale traces are rejected instead of misread.
//!
//! Every field is deterministic given the run's seed — except
//! `wall_ns`, which stays `None` unless the recorder opted into
//! wall-clock capture (see [`crate::Recorder::wallclock`]). No event
//! carries timestamps, paths, or non-finite floats: the vendored JSON
//! serializer emits `null` for NaN/±inf, which would corrupt the
//! round-trip, so producers clamp or omit instead.

use std::borrow::Cow;

use serde::{Deserialize, Serialize};

/// Trace schema version; the first line of every trace records it.
///
/// Label-ish fields are `Cow<'static, str>` rather than `String`: the
/// hot emitters (`sim`, `kind`, `bottleneck`, `path`) are fixed
/// vocabularies that record as `Cow::Borrowed` without allocating,
/// while dynamic labels (topology and operator names) stay owned. The
/// serialized bytes are identical either way, so this is not a schema
/// change and traces round-trip unchanged (deserialization always
/// yields the owned variant).
pub const TRACE_VERSION: u32 = 1;

/// First line of every trace: where it came from and under which seed.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Header {
    /// Trace schema version ([`TRACE_VERSION`]).
    pub version: u32,
    /// Logical source label (e.g. `golden/bo`, `runner/grid-smoke`).
    /// Never a filesystem path — traces must be byte-identical across
    /// machines.
    pub source: String,
    /// Base seed of the recorded run.
    pub seed: u64,
}

/// One structured trace event.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Event {
    /// A simulator run begins (`sim` is `"flow"` or `"tuple"`).
    SimStart {
        /// Which simulator.
        sim: Cow<'static, str>,
        /// Topology name.
        topo: Cow<'static, str>,
        /// Node count.
        nodes: usize,
        /// Measurement window in virtual seconds.
        window_s: f64,
    },
    /// One constraint bound the flow model considered while solving for
    /// throughput — the full set explains *why* the winning
    /// [`Bottleneck`](../mtm_stormsim/metrics/enum.Bottleneck.html) won.
    Constraint {
        /// Constraint family (`node`, `cpu`, `exec`, `ackers`,
        /// `receivers`, `network`, `commit`).
        kind: Cow<'static, str>,
        /// The node this bound belongs to, for per-node constraints.
        node: Option<usize>,
        /// The throughput bound (tuples/s) this constraint imposes.
        bound: f64,
    },
    /// Per-operator counters at the end of a simulator run.
    Operator {
        /// Node id; `None` for the acker aggregate.
        node: Option<usize>,
        /// Node label (topology name of the node, or `ackers`).
        label: Cow<'static, str>,
        /// Task instances deployed for this operator.
        tasks: usize,
        /// Tuples processed (tuple sim: actual; flow sim: steady-state
        /// expectation over the window).
        processed: u64,
        /// Highest queue depth any of this operator's tasks reached
        /// (tuple sim only; 0 for the flow model).
        queue_hwm: usize,
    },
    /// Event-queue statistics of a tuple-sim run.
    Engine {
        /// Events ever scheduled.
        scheduled: u64,
        /// Events processed.
        processed: u64,
        /// Peak pending-event count.
        queue_peak: usize,
    },
    /// A simulator run ends.
    SimEnd {
        /// Measured throughput, tuples/s.
        throughput: f64,
        /// Winning bottleneck label.
        bottleneck: Cow<'static, str>,
        /// Mini-batches committed.
        committed: u64,
    },
    /// One optimizer proposal and the surrogate decisions behind it.
    Propose {
        /// Step index (equals the observation count at proposal time).
        step: usize,
        /// Which path produced the proposal: `design` (warm-up),
        /// `incremental` (persistent surrogate stepped), `replay`
        /// (surrogate rebuilt by replaying the history), `fresh` (a new
        /// GP fit over all observations: the fallback when replay fails,
        /// or pinned by `invalidate_surrogate()`), `uniform`
        /// (degenerate-data fallback), or `linear` (pla/ipla schedules).
        path: Cow<'static, str>,
        /// `true` when this step re-optimized surrogate hyperparameters.
        refit: bool,
        /// Candidate-pool size scored by the acquisition.
        pool: usize,
        /// Acquisition argmax margin: best score minus runner-up score
        /// (0 when fewer than two candidates or non-finite).
        margin: f64,
        /// Coordinate-descent polish moves that improved the incumbent.
        polish_moves: usize,
        /// Wall-clock nanoseconds this proposal took. `None` unless the
        /// recorder opted into wall-clock capture — the one sanctioned
        /// nondeterminism in the schema.
        wall_ns: Option<u64>,
    },
    /// One measured trial inside an optimization pass, linked to the
    /// journal by its deterministic `run_id`.
    Trial {
        /// Optimization step.
        step: usize,
        /// Repetition within the step.
        rep: usize,
        /// The run id the measurement used (journal linkage).
        run_id: u64,
        /// Measured throughput, tuples/s.
        y: f64,
    },
    /// An optimization pass begins (runner scope).
    PassStart {
        /// Pass index within the experiment.
        pass: usize,
        /// Derived seed of the pass.
        seed: u64,
    },
    /// An optimization pass ends.
    PassEnd {
        /// Pass index within the experiment.
        pass: usize,
        /// Step at which the best throughput was first measured.
        best_step: usize,
        /// Best measured throughput of the pass.
        best_y: f64,
    },
    /// One confirmation re-run of the winning configuration.
    Confirm {
        /// Confirmation index.
        rep: usize,
        /// Run id measured under (journal linkage).
        run_id: u64,
        /// Measured throughput, tuples/s.
        y: f64,
    },
    /// The experiment completed.
    ExperimentEnd {
        /// Experiment id.
        exp_id: Cow<'static, str>,
        /// Index of the winning pass.
        best_pass: usize,
    },
    /// Free-form marker (kept out of hot paths).
    Note {
        /// The marker text.
        text: Cow<'static, str>,
    },
}

/// One line of a trace file.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Record {
    /// The header (always the first line).
    Header(Header),
    /// One event.
    Event(Event),
}

/// Clamp a float for the trace: non-finite values (which the JSON layer
/// would turn into `null`) become `0.0`, keeping every trace line
/// round-trippable.
pub fn finite_or_zero(x: f64) -> f64 {
    if x.is_finite() {
        x
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_round_trip_through_json() {
        let events = vec![
            Event::SimStart {
                sim: "flow".into(),
                topo: "chain".into(),
                nodes: 3,
                window_s: 120.0,
            },
            Event::Constraint {
                kind: "node".into(),
                node: Some(1),
                bound: 1234.5,
            },
            Event::Operator {
                node: None,
                label: "ackers".into(),
                tasks: 4,
                processed: 99,
                queue_hwm: 7,
            },
            Event::Propose {
                step: 6,
                path: "incremental".into(),
                refit: true,
                pool: 816,
                margin: 0.25,
                polish_moves: 3,
                wall_ns: None,
            },
            Event::Trial {
                step: 6,
                rep: 0,
                run_id: 0xDEAD,
                y: 5000.0,
            },
        ];
        for ev in events {
            let rec = Record::Event(ev);
            let json = serde_json::to_string(&rec).unwrap();
            let back: Record = serde_json::from_str(&json).unwrap();
            assert_eq!(back, rec, "round trip failed for {json}");
        }
    }

    #[test]
    fn wall_ns_some_survives_round_trip() {
        let rec = Record::Event(Event::Propose {
            step: 0,
            path: "fresh".into(),
            refit: false,
            pool: 1,
            margin: 0.0,
            polish_moves: 0,
            wall_ns: Some(123_456),
        });
        let json = serde_json::to_string(&rec).unwrap();
        let back: Record = serde_json::from_str(&json).unwrap();
        assert_eq!(back, rec);
    }

    #[test]
    fn finite_or_zero_clamps() {
        assert_eq!(finite_or_zero(2.5), 2.5);
        assert_eq!(finite_or_zero(f64::INFINITY), 0.0);
        assert_eq!(finite_or_zero(f64::NAN), 0.0);
    }
}
