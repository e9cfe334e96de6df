//! The sharded, crash-safe session store.
//!
//! Layout under the store root:
//!
//! ```text
//! root/
//!   admission.jsonl            every admission decision, seq-numbered
//!   shard-0/ … shard-f/        sessions, sharded by id hash
//!     s42/
//!       meta.jsonl             lifecycle: opened/priority/cancel/finish
//!       segment.jsonl          the runner's trial journal (resume state)
//!       trace.jsonl            optional per-session obs trace
//! ```
//!
//! Every file is an append-only JSONL segment ([`mtm_obs::segment`], the
//! log under runner journals and obs traces too): readers take the longest
//! valid prefix, writers truncate to it before appending, and a crash
//! costs at most the line in flight. The admission journal is the single
//! source of truth for *which* sessions exist and in what order they were
//! admitted — restart recovery replays it in `seq` order, so recovered
//! scheduling decisions are exactly the original ones.
//!
//! **Compaction** bounds replay cost: once a pass is complete its
//! per-trial rows are redundant (resume loads the pass wholesale from its
//! `PassDone` line), so [`SessionStore::compact`] rewrites the segment
//! without them. Restart cost after compaction is proportional to the
//! *incomplete* work, not to session length.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use serde::{Deserialize, Serialize};

use mtm_obs::segment::{self, SegmentWriter};
use mtm_runner::hash::fnv1a64;
use mtm_runner::journal::Record as TrialJournalLine;
use mtm_runner::RunnerError;

use crate::proto::SegmentStats;
use crate::spec::SessionSpec;

/// Store layout version, written into every session's `Opened` line.
pub const STORE_VERSION: u32 = 1;

/// Number of shard directories (a power of two so the shard index is a
/// bitmask, not a modulo).
pub const SHARDS: u64 = 16;

/// One admission decision, as journaled in `admission.jsonl`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum AdmitLine {
    /// The session was admitted and queued.
    Admitted {
        /// Monotonic admission sequence number (also names the session).
        seq: u64,
        /// Assigned session id (`s<seq>`).
        session: String,
        /// What was admitted.
        spec: SessionSpec,
    },
    /// The submission was refused (quota, backpressure, invalid spec).
    Rejected {
        /// Sequence number of the decision.
        seq: u64,
        /// Tenant that asked.
        tenant: String,
        /// Why it was refused.
        reason: String,
    },
}

/// One line of a session's `meta.jsonl`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum MetaLine {
    /// First line: the session exists and runs this spec.
    Opened {
        /// Store layout version ([`STORE_VERSION`]).
        version: u32,
        /// The admitted spec.
        spec: SessionSpec,
    },
    /// Steered to a new priority.
    Priority {
        /// The new priority.
        priority: i32,
    },
    /// Canceled by request.
    Canceled,
    /// Finished; the result is the segment's `Done` line.
    Finished,
    /// Execution failed.
    Failed {
        /// The error.
        message: String,
    },
    /// The segment was compacted.
    Compacted {
        /// What compaction did.
        stats: SegmentStats,
    },
}

/// A session as reconstructed from disk during restart recovery.
#[derive(Debug, Clone)]
pub struct RecoveredSession {
    /// Admission sequence number.
    pub seq: u64,
    /// Session id.
    pub session: String,
    /// The admitted spec.
    pub spec: SessionSpec,
    /// Last journaled priority (0 if never steered).
    pub priority: i32,
    /// A `Canceled` line was journaled.
    pub canceled: bool,
    /// A `Finished` line was journaled (the segment holds the result).
    pub finished: bool,
    /// A `Failed` line was journaled, with its message.
    pub failed: Option<String>,
}

/// The store handle. Admission and metadata appends are internally
/// synchronized; segment files are only touched by the session's current
/// owner (one worker at a time), so they need no extra locking.
pub struct SessionStore {
    root: PathBuf,
    admission: SegmentWriter,
    /// Next admission sequence. Atomic only so [`journal_admission`] can
    /// take `&self`; the dispatcher serializes admissions under its own
    /// lock, so there is never a concurrent draw.
    ///
    /// [`journal_admission`]: SessionStore::journal_admission
    next_seq: AtomicU64,
    /// Serializes the load-prefix/reopen/append dance in
    /// [`meta_append`](SessionStore::meta_append) — lifecycle appends are
    /// rare, but two at once would race the torn-tail truncation.
    meta_mu: Mutex<()>,
}

impl SessionStore {
    /// Open (or create) a store rooted at `root`, positioning the
    /// admission journal after its longest valid prefix.
    pub fn open(root: &Path) -> Result<SessionStore, RunnerError> {
        std::fs::create_dir_all(root)
            .map_err(|e| RunnerError::Io(format!("create {}: {e}", root.display())))?;
        let admission_path = root.join("admission.jsonl");
        let (lines, valid_len) =
            segment::load_prefix::<AdmitLine>(&admission_path)?.unwrap_or_default();
        let next_seq = lines
            .iter()
            .map(|l| match &l.record {
                AdmitLine::Admitted { seq, .. } | AdmitLine::Rejected { seq, .. } => seq + 1,
            })
            .max()
            .unwrap_or(0);
        let admission = SegmentWriter::open_append(&admission_path, valid_len)?;
        Ok(SessionStore {
            root: root.to_path_buf(),
            admission,
            next_seq: AtomicU64::new(next_seq),
            meta_mu: Mutex::new(()),
        })
    }

    /// The store root.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Next admission sequence number (not yet journaled).
    pub fn peek_seq(&self) -> u64 {
        self.next_seq.load(Ordering::Relaxed)
    }

    /// Journal one admission decision and advance the sequence. Callers
    /// (the dispatcher) serialize admissions under their own lock; the
    /// atomic exists for `&self` access, not for concurrent draws, so
    /// `Relaxed` is enough.
    pub fn journal_admission(&self, line: &AdmitLine) -> Result<u64, RunnerError> {
        let seq = self.next_seq.load(Ordering::Relaxed);
        self.admission.append(line)?;
        self.next_seq.store(seq + 1, Ordering::Relaxed);
        Ok(seq)
    }

    /// Shard directory of a session id.
    fn shard_dir(&self, session: &str) -> PathBuf {
        // Bitmask, not modulo: SHARDS is a power of two and the ratchet
        // holds serve at zero variable-divisor sites.
        let shard = fnv1a64(session.as_bytes()) & (SHARDS - 1);
        self.root.join(format!("shard-{shard:x}"))
    }

    /// Directory of one session.
    pub fn session_dir(&self, session: &str) -> PathBuf {
        self.shard_dir(session).join(session)
    }

    /// The session's runner journal segment.
    pub fn segment_path(&self, session: &str) -> PathBuf {
        self.session_dir(session).join("segment.jsonl")
    }

    /// The session's metadata journal.
    pub fn meta_path(&self, session: &str) -> PathBuf {
        self.session_dir(session).join("meta.jsonl")
    }

    /// The session's optional obs trace.
    pub fn trace_path(&self, session: &str) -> PathBuf {
        self.session_dir(session).join("trace.jsonl")
    }

    /// Create the session directory and journal its `Opened` line.
    pub fn create_session(&self, session: &str, spec: &SessionSpec) -> Result<(), RunnerError> {
        let dir = self.session_dir(session);
        std::fs::create_dir_all(&dir)
            .map_err(|e| RunnerError::Io(format!("create {}: {e}", dir.display())))?;
        self.meta_append(
            session,
            &MetaLine::Opened {
                version: STORE_VERSION,
                spec: spec.clone(),
            },
        )
    }

    /// Append one line to the session's metadata journal (truncating any
    /// torn tail first). Meta appends are rare — lifecycle transitions,
    /// not per-trial traffic — so reopening the file each time is fine.
    /// The internal mutex makes concurrent appends safe now that the
    /// dispatcher journals outside its core lock.
    pub fn meta_append(&self, session: &str, line: &MetaLine) -> Result<(), RunnerError> {
        // mtm-allow: lock -- the io guard exists to serialize this reopen+append; it is held for nothing else and is never held while taking another lock
        let _io = match self.meta_mu.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        let path = self.meta_path(session);
        let valid_len = match segment::load_prefix::<MetaLine>(&path)? {
            Some((_, len)) => len,
            None => 0,
        };
        let writer = SegmentWriter::open_append(&path, valid_len)?;
        Ok(writer.append(line)?)
    }

    /// Load one session's metadata, or `None` when it does not exist.
    pub fn load_meta(&self, session: &str) -> Result<Option<Vec<MetaLine>>, RunnerError> {
        let Some((lines, _)) = segment::load_prefix::<MetaLine>(&self.meta_path(session))? else {
            return Ok(None);
        };
        Ok(Some(lines.into_iter().map(|l| l.record).collect()))
    }

    /// Reconstruct every admitted session from disk, in admission order.
    /// Rejected lines are skipped (they exist for decision audit, not
    /// recovery); sessions whose `Opened` line never made it to disk are
    /// re-created from the admission journal's copy of the spec.
    pub fn recover(&self) -> Result<Vec<RecoveredSession>, RunnerError> {
        let admission_path = self.root.join("admission.jsonl");
        let Some((lines, _)) = segment::load_prefix::<AdmitLine>(&admission_path)? else {
            return Ok(Vec::new());
        };
        let mut out = Vec::new();
        for line in lines {
            let AdmitLine::Admitted { seq, session, spec } = line.record else {
                continue;
            };
            let mut rec = RecoveredSession {
                seq,
                session: session.clone(),
                spec: spec.clone(),
                priority: 0,
                canceled: false,
                finished: false,
                failed: None,
            };
            match self.load_meta(&session)? {
                None => {
                    // Crash between admission append and meta create:
                    // finish the interrupted create now.
                    self.create_session(&session, &spec)?;
                }
                Some(meta) => {
                    for line in meta {
                        match line {
                            MetaLine::Opened { version, .. } => {
                                if version != STORE_VERSION {
                                    return Err(RunnerError::Corrupt(format!(
                                        "session {session}: store version {version}, expected {STORE_VERSION}"
                                    )));
                                }
                            }
                            MetaLine::Priority { priority } => rec.priority = priority,
                            MetaLine::Canceled => rec.canceled = true,
                            MetaLine::Finished => rec.finished = true,
                            MetaLine::Failed { message } => rec.failed = Some(message),
                            MetaLine::Compacted { .. } => {}
                        }
                    }
                }
            }
            out.push(rec);
        }
        Ok(out)
    }

    /// Compact a session's segment: drop the per-trial rows of passes
    /// already summarized by a `PassDone` line. Resume never reads those
    /// rows (completed passes load wholesale), so the rewrite changes
    /// replay cost, not replay results. Must only run while no worker
    /// owns the session — the dispatcher enforces that.
    pub fn compact(&self, session: &str) -> Result<SegmentStats, RunnerError> {
        let path = self.segment_path(session);
        let loaded = segment::load_prefix::<TrialJournalLine>(&path)?;
        let Some((lines, _)) = loaded else {
            return Ok(SegmentStats {
                records_before: 0,
                records_after: 0,
                passes_compacted: 0,
            });
        };
        let records: Vec<TrialJournalLine> = lines.into_iter().map(|l| l.record).collect();
        let done_passes: std::collections::BTreeSet<usize> = records
            .iter()
            .filter_map(|r| match r {
                TrialJournalLine::PassDone(p) => Some(p.pass),
                _ => None,
            })
            .collect();
        let kept: Vec<TrialJournalLine> = records
            .iter()
            .filter(|r| match r {
                TrialJournalLine::Trial(t) => !done_passes.contains(&t.pass),
                _ => true,
            })
            .cloned()
            .collect();
        let stats = SegmentStats {
            records_before: records.len(),
            records_after: kept.len(),
            passes_compacted: done_passes.len(),
        };
        if stats.records_after < stats.records_before {
            let bytes = segment::render_lines(&kept)?;
            segment::rewrite_atomic(&path, &bytes)?;
            self.meta_append(
                session,
                &MetaLine::Compacted {
                    stats: stats.clone(),
                },
            )?;
        }
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    fn tmproot(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join("mtm-serve-store-tests")
            .join(format!("{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn admission_seq_survives_reopen() {
        let root = tmproot("seq");
        let store = SessionStore::open(&root).expect("open fresh store");
        assert_eq!(store.peek_seq(), 0);
        let spec = SessionSpec::smoke("t", "bo", 1);
        store
            .journal_admission(&AdmitLine::Admitted {
                seq: 0,
                session: "s0".into(),
                spec: spec.clone(),
            })
            .expect("journal admitted line");
        store
            .journal_admission(&AdmitLine::Rejected {
                seq: 1,
                tenant: "t".into(),
                reason: "queue full".into(),
            })
            .expect("journal rejected line");
        drop(store);
        let store = SessionStore::open(&root).expect("reopen store");
        assert_eq!(store.peek_seq(), 2);
        let recovered = store.recover().expect("recover after reopen");
        assert_eq!(recovered.len(), 1, "rejections are not sessions");
        assert_eq!(recovered[0].session, "s0");
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn meta_lifecycle_round_trips() {
        let root = tmproot("meta");
        let store = SessionStore::open(&root).expect("open fresh store");
        let spec = SessionSpec::smoke("acme", "pla", 9);
        store
            .journal_admission(&AdmitLine::Admitted {
                seq: 0,
                session: "s0".into(),
                spec: spec.clone(),
            })
            .expect("journal admitted line");
        store
            .create_session("s0", &spec)
            .expect("create session dir");
        store
            .meta_append("s0", &MetaLine::Priority { priority: 5 })
            .expect("append priority line");
        store
            .meta_append("s0", &MetaLine::Finished)
            .expect("append finished line");
        let rec = store.recover().expect("recover journaled lifecycle");
        assert_eq!(rec.len(), 1);
        assert_eq!(rec[0].priority, 5);
        assert!(rec[0].finished);
        assert!(!rec[0].canceled);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn torn_meta_tail_is_tolerated() {
        let root = tmproot("torn");
        let store = SessionStore::open(&root).expect("open fresh store");
        let spec = SessionSpec::smoke("t", "bo", 2);
        store
            .create_session("s7", &spec)
            .expect("create session dir");
        store
            .meta_append("s7", &MetaLine::Canceled)
            .expect("append canceled line");
        let path = store.meta_path("s7");
        let mut bytes = fs::read(&path).expect("read meta journal");
        bytes.extend_from_slice(b"{\"Fini");
        fs::write(&path, &bytes).expect("write torn tail");
        let meta = store
            .load_meta("s7")
            .expect("load torn meta")
            .expect("meta exists");
        assert_eq!(meta.len(), 2, "torn tail dropped");
        // And the next append lands after the valid prefix.
        store
            .meta_append("s7", &MetaLine::Finished)
            .expect("append after torn tail");
        let meta = store
            .load_meta("s7")
            .expect("reload meta")
            .expect("meta exists");
        assert_eq!(meta.last(), Some(&MetaLine::Finished));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn sessions_spread_across_shards() {
        let root = tmproot("shards");
        let store = SessionStore::open(&root).expect("open fresh store");
        let shards: std::collections::BTreeSet<PathBuf> = (0..64)
            .map(|i| {
                store
                    .session_dir(&format!("s{i}"))
                    .parent()
                    .expect("session dir has a shard parent")
                    .to_path_buf()
            })
            .collect();
        assert!(shards.len() > 4, "64 ids should hit several shards");
        let _ = fs::remove_dir_all(&root);
    }
}
