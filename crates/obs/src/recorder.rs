//! Recorder implementations and the trace-file loader.
//!
//! [`NullRecorder`] is the zero-cost default: its `ENABLED` constant is
//! `false`, so instrumentation guarded by `R::ENABLED` compiles to
//! nothing. [`MemRecorder`] buffers events for later splicing (the
//! runner uses one per parallel unit so trace bytes stay order-stable).
//! [`JsonlRecorder`] writes the trace as a [`segment`],
//! the same torn-tail JSONL log the runner journal uses; [`load_trace`]
//! reads back its longest valid prefix, so a torn tail is
//! indistinguishable from a clean stop.

use std::path::Path;

use crate::event::{Event, Header, Record, TRACE_VERSION};
use crate::segment::{self, SegmentWriter};

/// An observability error (I/O or serialization).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObsError(pub String);

impl std::fmt::Display for ObsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "obs: {}", self.0)
    }
}

impl std::error::Error for ObsError {}

/// A passive consumer of trace [`Event`]s.
///
/// The contract instrumented code relies on:
///
/// * recording is **inert** — a recorder never influences the values
///   being recorded (asserted by the determinism probe);
/// * `ENABLED` is `false` only for recorders that discard everything,
///   so hot paths may skip collection work entirely;
/// * [`wallclock`](Recorder::wallclock) defaults to `false`; only when
///   it returns `true` may instrumentation capture wall-clock durations
///   (the one sanctioned nondeterminism in the trace schema).
pub trait Recorder {
    /// `false` only when every event is discarded ([`NullRecorder`]):
    /// instrumentation guarded by `R::ENABLED` is then compiled away.
    const ENABLED: bool = true;

    /// Should instrumentation capture wall-clock durations? Defaults to
    /// `false`; deterministic traces (golden tests, the determinism
    /// probe) rely on that default.
    fn wallclock(&self) -> bool {
        false
    }

    /// Consume one event. Infallible by design — recorders buffer their
    /// first I/O error internally (see [`JsonlRecorder::finish`]) so
    /// instrumented hot paths never grow an error branch.
    fn record(&mut self, event: Event);
}

impl<R: Recorder> Recorder for &mut R {
    const ENABLED: bool = R::ENABLED;
    fn wallclock(&self) -> bool {
        (**self).wallclock()
    }
    fn record(&mut self, event: Event) {
        (**self).record(event);
    }
}

/// The default recorder: discards everything, compiles away.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullRecorder;

impl Recorder for NullRecorder {
    const ENABLED: bool = false;
    fn record(&mut self, _event: Event) {}
}

/// Buffers events in memory, in arrival order, in a preallocated slot
/// arena.
///
/// Unlike a grow-on-push `Vec`, recording into a warm arena allocates
/// nothing: slots up to the high-water mark are overwritten in place,
/// and [`clear`](MemRecorder::clear) resets the live length without
/// releasing them, so a recorder reused across runs reaches a steady
/// state where [`record`](Recorder::record) never touches the heap.
/// The heap is involved only when the live length exceeds every
/// previously written slot (the `grow` cold path) and on
/// [`drain`](MemRecorder::drain), which moves the arena out.
#[derive(Debug, Clone)]
pub struct MemRecorder {
    /// Slot arena: `..len` are live events, the rest are dead slots
    /// kept for reuse.
    buf: Vec<Event>,
    /// Live prefix length.
    len: usize,
    wallclock: bool,
}

/// Default arena capacity: several times the ~30 events one
/// instrumented flow-sim run of the paper's Sundog topology emits
/// (start/end, binding constraints, per-operator counters), so the
/// common one-run-per-recorder call sites never hit the grow path.
pub const MEM_RECORDER_CAPACITY: usize = 256;

impl MemRecorder {
    /// An empty arena of [`MEM_RECORDER_CAPACITY`] slots, wall-clock
    /// capture off.
    pub fn new() -> MemRecorder {
        MemRecorder::with_capacity(MEM_RECORDER_CAPACITY)
    }

    /// An empty arena with room for `capacity` events before the first
    /// grow.
    pub fn with_capacity(capacity: usize) -> MemRecorder {
        MemRecorder {
            buf: Vec::with_capacity(capacity),
            len: 0,
            wallclock: false,
        }
    }

    /// Enable wall-clock capture for instrumentation feeding this buffer.
    pub fn with_wallclock(mut self, on: bool) -> MemRecorder {
        self.wallclock = on;
        self
    }

    /// The recorded events, in arrival order.
    pub fn events(&self) -> &[Event] {
        self.buf.get(..self.len).unwrap_or(&[])
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when nothing has been recorded since the last reset.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Forget the recorded events but keep their slots: the next run
    /// recorded into this arena overwrites them without allocating.
    pub fn clear(&mut self) {
        self.len = 0;
    }

    /// Move the buffered events out, leaving an empty (capacity-less)
    /// recorder behind. End-of-life operation — prefer
    /// [`clear`](MemRecorder::clear) when the recorder will be reused.
    pub fn drain(&mut self) -> Vec<Event> {
        let mut events = std::mem::take(&mut self.buf);
        events.truncate(self.len);
        self.len = 0;
        events
    }

    /// Cold growth path: the live length passed the arena high-water
    /// mark, so this event needs a fresh slot.
    #[cold]
    // mtm-allow: alloc -- growth past the preallocated arena is the one
    // sanctioned allocation; warm recorders never reach it.
    fn grow(&mut self, event: Event) {
        self.buf.push(event);
    }
}

impl Default for MemRecorder {
    fn default() -> MemRecorder {
        MemRecorder::new()
    }
}

impl Recorder for MemRecorder {
    fn wallclock(&self) -> bool {
        self.wallclock
    }
    // mtm-hot: recorder
    fn record(&mut self, event: Event) {
        match self.buf.get_mut(self.len) {
            Some(slot) => *slot = event,
            None => self.grow(event),
        }
        self.len += 1;
    }
}

/// Append-only JSONL trace writer over a [`SegmentWriter`]: one record
/// per line, flushed as written, so a crash loses at most the in-flight
/// line.
#[derive(Debug)]
pub struct JsonlRecorder {
    writer: SegmentWriter,
    wallclock: bool,
    error: Option<ObsError>,
}

impl JsonlRecorder {
    /// Create (truncating) a trace at `path` and write its header line.
    /// `source` is a logical label, never a path — trace bytes must not
    /// depend on where they are written.
    pub fn create(path: &Path, source: &str, seed: u64) -> Result<JsonlRecorder, ObsError> {
        let rec = JsonlRecorder::open(path, 0)?;
        rec.writer.append(&Record::Header(Header {
            version: TRACE_VERSION,
            source: source.to_string(),
            seed,
        }))?;
        Ok(rec)
    }

    /// Continue the trace at `path` after its longest valid prefix,
    /// dropping any torn tail. A missing file, or one whose prefix has
    /// no header (a kill between creating the file and flushing the
    /// header), is [`create`](JsonlRecorder::create)d afresh.
    pub fn resume(path: &Path, source: &str, seed: u64) -> Result<JsonlRecorder, ObsError> {
        match load_trace(path)? {
            Some(TraceData {
                header: Some(_),
                valid_len,
                ..
            }) => JsonlRecorder::open(path, valid_len),
            _ => JsonlRecorder::create(path, source, seed),
        }
    }

    fn open(path: &Path, valid_len: u64) -> Result<JsonlRecorder, ObsError> {
        Ok(JsonlRecorder {
            writer: SegmentWriter::open_append(path, valid_len)?,
            wallclock: false,
            error: None,
        })
    }

    /// Enable wall-clock capture (`wall_ns` fields). Off by default;
    /// turning it on forfeits byte-identical traces.
    pub fn with_wallclock(mut self, on: bool) -> JsonlRecorder {
        self.wallclock = on;
        self
    }

    /// Surface the first buffered I/O error, if any. Call after a
    /// recorded run; a trace whose writer errored is incomplete.
    pub fn finish(self) -> Result<(), ObsError> {
        match self.error {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }
}

impl Recorder for JsonlRecorder {
    fn wallclock(&self) -> bool {
        self.wallclock
    }
    fn record(&mut self, event: Event) {
        if self.error.is_none() {
            // mtm-allow: alloc -- journaling recorder buffers and writes by design; MemRecorder is the zero-alloc path
            if let Err(e) = self.writer.append(&Record::Event(event)) {
                self.error = Some(e);
            }
        }
    }
}

/// Parsed view of a trace file: the longest valid record prefix.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct TraceData {
    /// The header, when the first line parsed as one.
    pub header: Option<Header>,
    /// Events of the valid prefix, in file order.
    pub events: Vec<Event>,
    /// Byte length of the valid prefix (append after truncating to it).
    pub valid_len: u64,
}

impl TraceData {
    /// Re-serialize the parsed records to canonical JSONL bytes. A trace
    /// written by [`JsonlRecorder`] round-trips byte-identically through
    /// [`load_trace`] + this — the golden tests' schema-stability check.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        if let Some(h) = &self.header {
            out.push_str(&serde_json::to_string(&Record::Header(h.clone())).unwrap_or_default());
            out.push('\n');
        }
        for ev in &self.events {
            out.push_str(&serde_json::to_string(&Record::Event(ev.clone())).unwrap_or_default());
            out.push('\n');
        }
        out
    }
}

/// Load a trace. `Ok(None)` when the file does not exist; torn or
/// foreign trailing bytes are excluded from `valid_len` rather than
/// reported as errors — the [`segment`] discipline.
pub fn load_trace(path: &Path) -> Result<Option<TraceData>, ObsError> {
    let Some((lines, valid_len)) = segment::load_prefix::<Record>(path)? else {
        return Ok(None);
    };
    let mut data = TraceData {
        valid_len,
        ..TraceData::default()
    };
    for line in lines {
        match line.record {
            Record::Header(h) => {
                if data.header.is_none() {
                    data.header = Some(h);
                }
            }
            Record::Event(ev) => data.events.push(ev),
        }
    }
    Ok(Some(data))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    fn tmpfile(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("mtm-obs-recorder-tests");
        fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn note(text: &str) -> Event {
        Event::Note {
            text: text.to_string().into(),
        }
    }

    #[test]
    fn null_recorder_is_disabled() {
        const { assert!(!NullRecorder::ENABLED) };
        const { assert!(MemRecorder::ENABLED) };
        let mut r = NullRecorder;
        assert!(!r.wallclock());
        r.record(note("dropped"));
    }

    #[test]
    fn mem_recorder_buffers_in_order() {
        let mut r = MemRecorder::new();
        r.record(note("a"));
        r.record(note("b"));
        assert_eq!(r.len(), 2);
        assert_eq!(r.events().len(), 2);
        let drained = r.drain();
        assert_eq!(drained[1], note("b"));
        assert!(r.is_empty());
        assert!(r.events().is_empty());
    }

    #[test]
    fn mem_recorder_arena_reuses_slots_across_clear() {
        // Force the grow path with a zero-capacity arena, then verify a
        // cleared recorder serves the same slots again: capacity must
        // not shrink and the second run's events fully replace the
        // first's.
        let mut r = MemRecorder::with_capacity(0);
        r.record(note("a"));
        r.record(note("b"));
        let cap = r.buf.capacity();
        r.clear();
        assert!(r.is_empty());
        assert_eq!(r.buf.capacity(), cap, "clear must keep the arena");
        r.record(note("c"));
        assert_eq!(r.events(), &[note("c")]);
        assert_eq!(r.buf.capacity(), cap, "warm re-record must not grow");
    }

    #[test]
    fn mem_recorder_drain_returns_only_live_prefix() {
        let mut r = MemRecorder::new();
        r.record(note("a"));
        r.record(note("b"));
        r.clear();
        r.record(note("c"));
        assert_eq!(r.drain(), vec![note("c")], "dead slots must not leak");
        assert!(r.is_empty());
    }

    #[test]
    fn jsonl_trace_round_trips() {
        let path = tmpfile("roundtrip.jsonl");
        let _ = fs::remove_file(&path);
        let mut rec = JsonlRecorder::create(&path, "test/roundtrip", 42).unwrap();
        rec.record(note("one"));
        rec.record(note("two"));
        rec.finish().unwrap();

        let data = load_trace(&path).unwrap().unwrap();
        let h = data.header.clone().unwrap();
        assert_eq!(h.version, TRACE_VERSION);
        assert_eq!(h.source, "test/roundtrip");
        assert_eq!(h.seed, 42);
        assert_eq!(data.events, vec![note("one"), note("two")]);

        // Canonical re-serialization reproduces the file bytes exactly.
        assert_eq!(data.to_jsonl().as_bytes(), fs::read(&path).unwrap());
    }

    /// Write `kept` then `torn`, cut the file to `cut(bytes)` bytes, and
    /// check that the valid prefix loads and a resumed append lands
    /// right after it.
    fn tear_and_resume(name: &str, torn: &str, cut: impl Fn(&[u8]) -> usize) {
        let path = tmpfile(name);
        let _ = fs::remove_file(&path);
        let mut rec = JsonlRecorder::create(&path, "test/torn", 1).unwrap();
        rec.record(note("kept"));
        rec.record(note(torn));
        rec.finish().unwrap();

        let bytes = fs::read(&path).unwrap();
        let end = cut(&bytes);
        fs::write(&path, &bytes[..end]).unwrap();

        let data = load_trace(&path).unwrap().unwrap();
        assert_eq!(data.events, vec![note("kept")], "torn record excluded");
        assert!(data.valid_len < end as u64);

        let mut rec = JsonlRecorder::resume(&path, "test/torn", 1).unwrap();
        rec.record(note("appended"));
        rec.finish().unwrap();
        let resumed = load_trace(&path).unwrap().unwrap();
        assert_eq!(resumed.header, data.header);
        assert_eq!(resumed.events, vec![note("kept"), note("appended")]);
        // One header, no torn bytes left between the prefix and the append.
        assert_eq!(resumed.to_jsonl().as_bytes(), fs::read(&path).unwrap());
    }

    #[test]
    fn torn_tail_is_dropped_and_reappendable() {
        // Cut mid-record, the way a kill -9 would.
        tear_and_resume("torn.jsonl", "torn-away", |b| b.len() - 7);
        // Cut mid-way through a multi-byte character: still a torn tail,
        // not an error.
        tear_and_resume("torn-utf8.jsonl", "café", |b| {
            b.iter().rposition(|&x| x == 0xC3).unwrap() + 1
        });
    }

    #[test]
    fn resume_creates_missing_and_headerless_traces() {
        // A kill between creating the file and flushing its header leaves
        // an empty trace; resuming it, like resuming a missing one, must
        // start the trace over with the header as its first line.
        let path = tmpfile("headerless.jsonl");
        for existing in [None, Some(&b""[..])] {
            let _ = fs::remove_file(&path);
            if let Some(bytes) = existing {
                fs::write(&path, bytes).unwrap();
            }
            let mut rec = JsonlRecorder::resume(&path, "test/headerless", 3).unwrap();
            rec.record(note("first"));
            rec.finish().unwrap();
            let (lines, _) = segment::load_prefix::<Record>(&path).unwrap().unwrap();
            let records: Vec<Record> = lines.into_iter().map(|l| l.record).collect();
            assert_eq!(
                records,
                vec![
                    Record::Header(Header {
                        version: TRACE_VERSION,
                        source: "test/headerless".into(),
                        seed: 3,
                    }),
                    Record::Event(note("first")),
                ]
            );
        }
    }

    #[test]
    fn identical_runs_produce_identical_bytes() {
        let write = |name: &str| {
            let path = tmpfile(name);
            let _ = fs::remove_file(&path);
            let mut rec = JsonlRecorder::create(&path, "test/bitwise", 7).unwrap();
            for i in 0..5u64 {
                rec.record(Event::Trial {
                    step: i as usize,
                    rep: 0,
                    run_id: i * 31,
                    y: (i as f64) * 0.1,
                });
            }
            rec.finish().unwrap();
            fs::read(&path).unwrap()
        };
        assert_eq!(write("bit_a.jsonl"), write("bit_b.jsonl"));
    }

    #[test]
    fn missing_file_is_none() {
        assert!(load_trace(Path::new("/nonexistent/nope.jsonl"))
            .unwrap()
            .is_none());
    }
}
