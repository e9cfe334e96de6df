//! The torn-tail JSONL segment: the one log primitive under runner
//! journals, `mtm-serve`'s session store and obs traces.
//!
//! A segment is a JSONL file appended one flushed line at a time, and a
//! reader trusts exactly the **longest valid prefix** — everything up to
//! the first incomplete, non-UTF-8 or unparsable line. It lives at the
//! bottom of the stack so every log in the workspace shares one writer,
//! one loader and one crash discipline.
//!
//! Three pieces live here:
//!
//! * [`scan_prefix`] — the byte-level prefix scan. It works on raw bytes
//!   (not `read_to_string`) so a *live* segment that another process is
//!   appending to right now can be read safely: a torn trailing line —
//!   even one cut mid-way through a multi-byte UTF-8 character — is
//!   excluded from the valid prefix instead of failing the whole read.
//!   This is what lets `mtm-runner status` and `mtm-serve poll` inspect
//!   journals without stopping the writer.
//! * [`SegmentWriter`] — the append-only line writer: open-or-create,
//!   truncate to a caller-provided valid length (dropping torn bytes a
//!   crash left behind), then append one serialized record + newline +
//!   flush per call.
//! * [`rewrite_atomic`] — segment rotation for compaction: write the
//!   replacement contents to a sibling temp file and `rename` it over
//!   the original, so a crash mid-rotation leaves either the old or the
//!   new segment, never a mix.

use std::fs::{self, File, OpenOptions};
use std::io::{Seek, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use serde::{Deserialize, Serialize};

use crate::recorder::ObsError;

/// One complete, parseable line of a segment's valid prefix.
#[derive(Debug, Clone, PartialEq)]
pub struct ScannedLine<T> {
    /// The parsed record.
    pub record: T,
    /// Byte offset of the end of this line (including its newline) —
    /// i.e. the valid length if the prefix stopped here.
    pub end: u64,
}

/// Parse the longest valid prefix of `bytes` as JSONL records of type
/// `T`. Returns the parsed records and the byte length of the valid
/// prefix (truncate-and-append after it). The scan stops — without
/// erroring — at the first line that is incomplete (no trailing
/// newline), not valid UTF-8, or not a parseable `T`: all three are
/// indistinguishable from a crash- or concurrency-torn tail.
pub fn scan_prefix<T: Deserialize>(bytes: &[u8]) -> (Vec<ScannedLine<T>>, u64) {
    let mut out = Vec::new();
    let mut offset = 0usize;
    for line in bytes.split_inclusive(|&b| b == b'\n') {
        let complete = line.last() == Some(&b'\n');
        if !complete {
            // A record without its newline may still be mid-write.
            break;
        }
        let Ok(text) = std::str::from_utf8(line) else {
            break; // torn multi-byte character or foreign bytes
        };
        let body = text.trim_end();
        if body.is_empty() {
            offset += line.len();
            continue;
        }
        let Ok(record) = serde_json::from_str::<T>(body) else {
            break; // torn write or foreign bytes: stop at the valid prefix
        };
        offset += line.len();
        out.push(ScannedLine {
            record,
            end: offset as u64,
        });
    }
    (out, offset as u64)
}

/// A scanned prefix: the decoded records and the byte length of the
/// longest valid prefix they cover.
pub type ScannedPrefix<T> = (Vec<ScannedLine<T>>, u64);

/// Load the longest valid prefix of the segment at `path` as records of
/// type `T`. `Ok(None)` when the file does not exist. Never requires the
/// writer to be stopped: the file is read as raw bytes, not UTF-8 text,
/// so a partially flushed multi-byte character reads as a torn tail, not
/// an error.
pub fn load_prefix<T: Deserialize>(path: &Path) -> Result<Option<ScannedPrefix<T>>, ObsError> {
    match fs::read(path) {
        Ok(bytes) => Ok(Some(scan_prefix(&bytes))),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(ObsError(format!("read {}: {e}", path.display()))),
    }
}

#[derive(Debug)]
enum Sink {
    File(Mutex<File>),
    Null,
}

/// Append-only, internally synchronized JSONL line writer. Each
/// [`append`](SegmentWriter::append) serializes one record, writes one
/// full line and flushes, so at most the in-flight record is lost on a
/// crash.
#[derive(Debug)]
pub struct SegmentWriter {
    sink: Sink,
}

impl SegmentWriter {
    /// A writer that discards everything — in-memory execution.
    pub fn null() -> SegmentWriter {
        SegmentWriter { sink: Sink::Null }
    }

    /// Open `path` for appending after truncating it to `valid_len`
    /// (drops any torn trailing bytes a crash left behind). Creates the
    /// file and its parent directory as needed.
    pub fn open_append(path: &Path, valid_len: u64) -> Result<SegmentWriter, ObsError> {
        if let Some(parent) = path.parent() {
            fs::create_dir_all(parent)
                .map_err(|e| ObsError(format!("mkdir {}: {e}", parent.display())))?;
        }
        // Never truncate on open: the explicit `set_len(valid_len)` below
        // is the only truncation — it keeps the journaled valid prefix.
        let mut file = OpenOptions::new()
            .create(true)
            .truncate(false)
            .write(true)
            .open(path)
            .map_err(|e| ObsError(format!("open {}: {e}", path.display())))?;
        file.set_len(valid_len)
            .map_err(|e| ObsError(format!("truncate {}: {e}", path.display())))?;
        file.seek(std::io::SeekFrom::End(0))
            .map_err(|e| ObsError(format!("seek {}: {e}", path.display())))?;
        Ok(SegmentWriter {
            sink: Sink::File(Mutex::new(file)),
        })
    }

    // mtm-cold: segment IO runs per journaled record, never inside sim
    // or scoring loops
    /// Append one record (one line) and flush it to the OS.
    pub fn append<T: Serialize>(&self, record: &T) -> Result<(), ObsError> {
        let Sink::File(file) = &self.sink else {
            return Ok(());
        };
        // The newline goes into the line's own buffer: one `write` per
        // record, so a line is never split across two writes.
        let mut line = serde_json::to_string(record)
            .map_err(|e| ObsError(format!("serialize record: {e}")))?;
        line.push('\n');
        // mtm-allow: lock -- the file mutex exists to serialize this write+flush; it is held for nothing else and never while another lock is held
        let mut guard = match file.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        guard
            .write_all(line.as_bytes())
            .and_then(|()| guard.flush())
            .map_err(|e| ObsError(format!("append: {e}")))
    }
}

/// Replace the segment at `path` with `contents` atomically: write a
/// sibling `.rotate` temp file, flush it, and `rename` it over the
/// original. A crash mid-rotation leaves either the complete old file or
/// the complete new one. This is the rotation primitive compaction is
/// built on; callers must ensure no live writer holds the segment open.
pub fn rewrite_atomic(path: &Path, contents: &[u8]) -> Result<(), ObsError> {
    if let Some(parent) = path.parent() {
        fs::create_dir_all(parent)
            .map_err(|e| ObsError(format!("mkdir {}: {e}", parent.display())))?;
    }
    let tmp: PathBuf = match path.file_name() {
        Some(name) => {
            let mut n = name.to_os_string();
            n.push(".rotate");
            path.with_file_name(n)
        }
        None => return Err(ObsError(format!("bad path {}", path.display()))),
    };
    let mut file =
        File::create(&tmp).map_err(|e| ObsError(format!("create {}: {e}", tmp.display())))?;
    file.write_all(contents)
        .and_then(|()| file.flush())
        .and_then(|()| file.sync_all())
        .map_err(|e| ObsError(format!("write {}: {e}", tmp.display())))?;
    drop(file);
    fs::rename(&tmp, path).map_err(|e| {
        ObsError(format!(
            "rename {} -> {}: {e}",
            tmp.display(),
            path.display()
        ))
    })
}

/// Serialize records to the canonical segment byte representation (one
/// JSON line per record) — the payload [`rewrite_atomic`] rotates in.
pub fn render_lines<T: Serialize>(records: &[T]) -> Result<Vec<u8>, ObsError> {
    let mut out = Vec::new();
    for record in records {
        let json = serde_json::to_string(record)
            .map_err(|e| ObsError(format!("serialize record: {e}")))?;
        out.extend_from_slice(json.as_bytes());
        out.push(b'\n');
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    struct Row {
        k: u64,
        label: String,
    }

    fn tmpfile(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("mtm-obs-segment-tests");
        fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{}-{}", std::process::id(), name))
    }

    #[test]
    fn scan_parses_complete_lines_only() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(b"{\"k\":1,\"label\":\"a\"}\n");
        bytes.extend_from_slice(b"{\"k\":2,\"label\":\"b\"}\n");
        bytes.extend_from_slice(b"{\"k\":3,\"lab"); // torn mid-write
        let (rows, valid) = scan_prefix::<Row>(&bytes);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[1].record.k, 2);
        assert_eq!(valid, rows[1].end);
        assert!(valid < bytes.len() as u64);
    }

    #[test]
    fn scan_tolerates_torn_multibyte_utf8() {
        // A writer killed mid-way through a multi-byte character leaves
        // invalid UTF-8; the scan must treat it as a torn tail, not an
        // error (this is what a read-while-appending can observe).
        let mut bytes = Vec::new();
        bytes.extend_from_slice(b"{\"k\":7,\"label\":\"ok\"}\n");
        bytes.extend_from_slice(b"{\"k\":8,\"label\":\"\xE2\x82"); // half a '€'
        let (rows, valid) = scan_prefix::<Row>(&bytes);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].record.k, 7);
        assert_eq!(valid, 21);
    }

    #[test]
    fn scan_stops_at_foreign_complete_line() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(b"{\"k\":1,\"label\":\"a\"}\n");
        bytes.extend_from_slice(b"not json at all\n");
        bytes.extend_from_slice(b"{\"k\":2,\"label\":\"b\"}\n");
        let (rows, valid) = scan_prefix::<Row>(&bytes);
        assert_eq!(rows.len(), 1, "prefix ends at the first bad line");
        assert_eq!(valid, rows[0].end);
    }

    #[test]
    fn writer_roundtrip_and_truncation() {
        let path = tmpfile("writer.jsonl");
        let _ = fs::remove_file(&path);
        let w = SegmentWriter::open_append(&path, 0).unwrap();
        w.append(&Row {
            k: 1,
            label: "x".into(),
        })
        .unwrap();
        w.append(&Row {
            k: 2,
            label: "y".into(),
        })
        .unwrap();
        drop(w);
        let (rows, valid) = load_prefix::<Row>(&path).unwrap().unwrap();
        assert_eq!(rows.len(), 2);

        // Chop mid-record; reopen at the valid prefix and append anew.
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();
        let (rows, torn_valid) = load_prefix::<Row>(&path).unwrap().unwrap();
        assert_eq!(rows.len(), 1);
        assert!(torn_valid < valid);
        let w = SegmentWriter::open_append(&path, torn_valid).unwrap();
        w.append(&Row {
            k: 9,
            label: "z".into(),
        })
        .unwrap();
        drop(w);
        let (rows, _) = load_prefix::<Row>(&path).unwrap().unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[1].record.k, 9);
    }

    #[test]
    fn read_while_writer_holds_the_file_open() {
        // The reader must not require the writer to be stopped: load the
        // prefix while a writer still holds the file open mid-append.
        let path = tmpfile("live.jsonl");
        let _ = fs::remove_file(&path);
        let w = SegmentWriter::open_append(&path, 0).unwrap();
        w.append(&Row {
            k: 1,
            label: "live".into(),
        })
        .unwrap();
        // Simulate a partially flushed next record (writer still alive).
        {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(b"{\"k\":2,\"la").unwrap();
            f.flush().unwrap();
        }
        let (rows, valid) = load_prefix::<Row>(&path).unwrap().unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].record.label, "live");
        assert_eq!(valid, rows[0].end);
        drop(w);
    }

    #[test]
    fn rewrite_atomic_replaces_contents() {
        let path = tmpfile("rotate.jsonl");
        let _ = fs::remove_file(&path);
        let w = SegmentWriter::open_append(&path, 0).unwrap();
        for k in 0..10 {
            w.append(&Row {
                k,
                label: "old".into(),
            })
            .unwrap();
        }
        drop(w);
        let replacement = render_lines(&[Row {
            k: 99,
            label: "new".into(),
        }])
        .unwrap();
        rewrite_atomic(&path, &replacement).unwrap();
        let (rows, _) = load_prefix::<Row>(&path).unwrap().unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].record.k, 99);
        // No temp file left behind.
        let mut tmp_name = path.file_name().unwrap().to_os_string();
        tmp_name.push(".rotate");
        assert!(!path.with_file_name(tmp_name).exists());
    }

    #[test]
    fn missing_file_and_null_sink() {
        assert!(load_prefix::<Row>(Path::new("/nonexistent/nope.jsonl"))
            .unwrap()
            .is_none());
        let w = SegmentWriter::null();
        w.append(&Row {
            k: 0,
            label: String::new(),
        })
        .unwrap();
    }
}
