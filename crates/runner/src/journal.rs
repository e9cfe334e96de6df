//! The append-only trial journal.
//!
//! One experiment writes one **segment**: a JSONL file whose first line is
//! a schema-versioned [`Header`] and whose remaining lines are
//! [`Record`]s, appended and flushed one at a time so a crash loses at
//! most the line being written. The reader tolerates exactly that
//! failure: it parses the longest valid prefix, reports its byte length,
//! and the writer truncates to it before appending — a torn trailing line
//! is indistinguishable from a clean stop.
//!
//! Staleness safety (the flaw the old `grid_{scale}.json` cache had): a
//! segment is only trusted when its header matches the requesting
//! experiment's schema version, id, seed **and** options fingerprint.
//! Change the seed, the budget, the fault plan or the record schema and
//! the segment is discarded instead of silently served.

use std::collections::BTreeMap;
use std::path::Path;

use serde::{Deserialize, Serialize};

use mtm_core::{ExperimentResult, PassResult};
use mtm_obs::segment::{self, SegmentWriter};

use crate::error::RunnerError;

/// Journal schema version. Bump on any record-shape or key change; old
/// segments are then re-run rather than misread. Version 2 dropped the
/// trial rows' `cached` flag; version 3 keys trials by the word-wise
/// [`config_hash`](crate::hash::config_hash).
pub const SCHEMA_VERSION: u32 = 3;

/// First line of every segment: what experiment this is and under which
/// exact protocol it ran.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Header {
    /// Journal schema version ([`SCHEMA_VERSION`]).
    pub version: u32,
    /// Experiment id (e.g. `grid-smoke/small/even/pla`).
    pub exp_id: String,
    /// Base seed of the experiment.
    pub seed: u64,
    /// Fingerprint of everything else that shapes results: budgets,
    /// repetitions, fault plan (see
    /// [`crate::engine::fingerprint`]). Thread count is deliberately
    /// excluded — parallel and serial runs are interchangeable.
    pub fingerprint: u64,
}

/// One measured trial.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrialRecord {
    /// Pass index within the experiment.
    pub pass: usize,
    /// Optimization step within the pass.
    pub step: usize,
    /// Repetition within the step (`measure_reps`).
    pub rep: usize,
    /// Stable hash of the proposed configuration — replay verifies the
    /// re-proposed configuration against this before trusting the value.
    pub config_hash: u64,
    /// The run id the measurement (attempt that succeeded) used.
    pub run_id: u64,
    /// Measured throughput, tuples/s.
    pub throughput: f64,
    /// Measurement attempts consumed (>1 means injected failures were
    /// retried).
    pub attempts: u32,
}

/// One confirmation re-run of the winning configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConfirmRecord {
    /// Confirmation index.
    pub rep: usize,
    /// Stable hash of the winning configuration being confirmed — replay
    /// ignores records whose hash no longer matches the current winner.
    pub config_hash: u64,
    /// Run id measured under.
    pub run_id: u64,
    /// Measured throughput, tuples/s.
    pub throughput: f64,
}

/// A completed pass, stored whole so resume can skip re-proposing it.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PassDone {
    /// Pass index.
    pub pass: usize,
    /// The pass outcome.
    pub result: PassResult,
}

/// Everything a segment can record, externally tagged per line.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Record {
    /// Segment header (always the first line).
    Header(Header),
    /// One trial measurement.
    Trial(TrialRecord),
    /// One confirmation measurement.
    Confirm(ConfirmRecord),
    /// A completed optimization pass.
    PassDone(PassDone),
    /// The completed experiment (always the last line of a finished
    /// segment).
    Done(ExperimentResult),
}

/// Parsed view of a segment: the longest valid record prefix, indexed for
/// replay. Later records win on key collisions, so a pass that re-measured
/// after a replay divergence supersedes its stale rows.
#[derive(Debug, Default)]
pub struct SegmentData {
    /// The header, when the first line parsed as one.
    pub header: Option<Header>,
    /// `(pass, step, rep)` → trial.
    pub trials: BTreeMap<(usize, usize, usize), TrialRecord>,
    /// Confirmation index → record.
    pub confirms: BTreeMap<usize, ConfirmRecord>,
    /// Completed passes.
    pub passes: BTreeMap<usize, PassResult>,
    /// The finished experiment, if the segment completed.
    pub done: Option<ExperimentResult>,
    /// Byte length of the valid prefix (append after truncating to this).
    pub valid_len: u64,
}

impl SegmentData {
    /// Number of journaled trial + confirmation measurements.
    pub fn n_records(&self) -> usize {
        self.trials.len() + self.confirms.len()
    }
}

/// Index scanned records into a [`SegmentData`] (later records win on
/// key collisions; the first header wins).
pub fn index_records(records: Vec<Record>, valid_len: u64) -> SegmentData {
    let mut data = SegmentData {
        valid_len,
        ..SegmentData::default()
    };
    for record in records {
        match record {
            Record::Header(h) => {
                if data.header.is_none() {
                    data.header = Some(h);
                }
            }
            Record::Trial(t) => {
                data.trials.insert((t.pass, t.step, t.rep), t);
            }
            Record::Confirm(c) => {
                data.confirms.insert(c.rep, c);
            }
            Record::PassDone(p) => {
                data.passes.insert(p.pass, p.result);
            }
            Record::Done(r) => {
                data.done = Some(r);
            }
        }
    }
    data
}

/// Load and index a segment. `Ok(None)` when the file does not exist;
/// torn or trailing-garbage bytes (including invalid UTF-8 a concurrent
/// writer may be mid-way through flushing) are excluded from `valid_len`
/// rather than reported as errors — loading never requires the writer to
/// be stopped (see [`segment::scan_prefix`]).
pub fn load_segment(path: &Path) -> Result<Option<SegmentData>, RunnerError> {
    let Some((lines, valid_len)) = segment::load_prefix::<Record>(path)? else {
        return Ok(None);
    };
    Ok(Some(index_records(
        lines.into_iter().map(|l| l.record).collect(),
        valid_len,
    )))
}

/// Append-only, internally synchronized record writer over
/// [`SegmentWriter`]. Each `append` writes one full line
/// and flushes, so at most the in-flight record is lost on a crash.
pub struct Journal {
    writer: SegmentWriter,
}

impl Journal {
    /// A journal that discards everything — in-memory execution.
    pub fn null() -> Journal {
        Journal {
            writer: SegmentWriter::null(),
        }
    }

    /// Open `path` for appending after truncating it to `valid_len`
    /// (drops any torn trailing bytes a crash left behind). Creates the
    /// file and its parent directory as needed.
    pub fn open_append(path: &Path, valid_len: u64) -> Result<Journal, RunnerError> {
        Ok(Journal {
            writer: SegmentWriter::open_append(path, valid_len)?,
        })
    }

    // mtm-cold: journal IO runs per measured trial, never inside sim or scoring loops
    /// Append one record (one line) and flush it to the OS.
    pub fn append(&self, record: &Record) -> Result<(), RunnerError> {
        Ok(self.writer.append(record)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    fn tmpfile(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("mtm-runner-journal-tests");
        fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn trial(pass: usize, step: usize, tp: f64) -> Record {
        Record::Trial(TrialRecord {
            pass,
            step,
            rep: 0,
            config_hash: 0xABCD,
            run_id: 7,
            throughput: tp,
            attempts: 1,
        })
    }

    #[test]
    fn records_round_trip_through_jsonl() {
        let path = tmpfile("roundtrip.jsonl");
        let _ = fs::remove_file(&path);
        let j = Journal::open_append(&path, 0).unwrap();
        j.append(&Record::Header(Header {
            version: SCHEMA_VERSION,
            exp_id: "t".into(),
            seed: 5,
            fingerprint: 99,
        }))
        .unwrap();
        j.append(&trial(0, 0, 100.0)).unwrap();
        j.append(&trial(0, 1, 200.0)).unwrap();
        drop(j);

        let data = load_segment(&path).unwrap().unwrap();
        let h = data.header.unwrap();
        assert_eq!(h.seed, 5);
        assert_eq!(h.fingerprint, 99);
        assert_eq!(data.trials.len(), 2);
        assert_eq!(data.trials[&(0, 1, 0)].throughput, 200.0);
        assert!(data.done.is_none());
    }

    #[test]
    fn torn_trailing_line_is_dropped_and_reappendable() {
        let path = tmpfile("torn.jsonl");
        let _ = fs::remove_file(&path);
        let j = Journal::open_append(&path, 0).unwrap();
        j.append(&trial(0, 0, 100.0)).unwrap();
        j.append(&trial(0, 1, 200.0)).unwrap();
        drop(j);

        // Simulate a crash mid-write: chop the file mid-record.
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() - 9]).unwrap();

        let data = load_segment(&path).unwrap().unwrap();
        assert_eq!(data.trials.len(), 1, "torn record excluded");
        let valid = data.valid_len;
        assert!(valid < (bytes.len() - 9) as u64);

        // Appending after truncation yields a clean two-record file again.
        let j = Journal::open_append(&path, valid).unwrap();
        j.append(&trial(0, 1, 222.0)).unwrap();
        drop(j);
        let data = load_segment(&path).unwrap().unwrap();
        assert_eq!(data.trials.len(), 2);
        assert_eq!(data.trials[&(0, 1, 0)].throughput, 222.0);
    }

    #[test]
    fn later_records_win_on_collisions() {
        let path = tmpfile("collide.jsonl");
        let _ = fs::remove_file(&path);
        let j = Journal::open_append(&path, 0).unwrap();
        j.append(&trial(0, 0, 1.0)).unwrap();
        j.append(&trial(0, 0, 2.0)).unwrap();
        drop(j);
        let data = load_segment(&path).unwrap().unwrap();
        assert_eq!(data.trials[&(0, 0, 0)].throughput, 2.0);
    }

    #[test]
    fn live_segment_with_partial_utf8_tail_loads() {
        // `mtm-runner status` against a journal a live daemon is
        // appending to: the tail may hold a partially flushed multi-byte
        // character. The loader must serve the valid prefix, not error.
        let path = tmpfile("live-utf8.jsonl");
        let _ = fs::remove_file(&path);
        let j = Journal::open_append(&path, 0).unwrap();
        j.append(&trial(0, 0, 100.0)).unwrap();
        drop(j);
        let mut bytes = fs::read(&path).unwrap();
        bytes.extend_from_slice(b"{\"Trial\":{\"pass\":0,\"step\":1,\"x\xC3"); // torn mid-'Ã©'
        fs::write(&path, &bytes).unwrap();
        let data = load_segment(&path).unwrap().unwrap();
        assert_eq!(data.trials.len(), 1);
        assert!(data.valid_len < bytes.len() as u64);
    }

    #[test]
    fn missing_file_is_none_and_null_sink_swallows() {
        assert!(load_segment(Path::new("/nonexistent/nope.jsonl"))
            .unwrap()
            .is_none());
        let j = Journal::null();
        j.append(&trial(0, 0, 1.0)).unwrap();
    }
}
