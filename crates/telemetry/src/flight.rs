//! Query flight recorder and span tracing.
//!
//! A [`FlightRecorder`] is a fixed-capacity, overwrite-on-full ring of
//! structured [`QueryEvent`] records — one per query the engine
//! finishes (or aborts). Writers pay one relaxed `fetch_add` to claim a
//! sequence number plus one uncontended per-slot mutex write, so the
//! enabled-path cost is per *query*, not per row, and two concurrent
//! queries only contend when they hash to the same slot.
//!
//! A [`TraceSink`] collects [`SpanRecord`]s (scopes: `admit`,
//! `compile`, `drive` per morsel, `settle`, `emit`) for a single query;
//! the engine attaches one when profiling or when the slow-query
//! threshold is armed. [`render_chrome_trace`] turns the spans into
//! Chrome `chrome://tracing` JSON (load via `chrome://tracing` or
//! <https://ui.perfetto.dev>).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

// --- query identity ----------------------------------------------------

static NEXT_QUERY_ID: AtomicU64 = AtomicU64::new(1);

/// Allocates a process-unique query id (monotone from 1).
pub fn next_query_id() -> u64 {
    NEXT_QUERY_ID.fetch_add(1, Ordering::Relaxed)
}

/// FNV-1a 64-bit hash; used for query-text identity in flight-recorder
/// entries (stable across runs, unlike `DefaultHasher`).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

// --- span records ------------------------------------------------------

/// One timed scope inside a query's execution, with nanosecond
/// timestamps relative to the owning [`TraceSink`]'s epoch.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Scope name: `admit`, `compile`, `drive`, `settle`, or `emit`.
    pub scope: &'static str,
    /// Free-form detail (e.g. `morsel 17`); empty when not applicable.
    pub detail: String,
    /// Logical thread id: 0 for the coordinating thread, worker index
    /// plus one for parallel morsel workers.
    pub tid: u32,
    /// Start offset in nanoseconds since the sink epoch.
    pub start_nanos: u64,
    /// End offset in nanoseconds since the sink epoch (≥ start).
    pub end_nanos: u64,
}

/// Collects span records for one query. Shared across morsel workers
/// behind an `Arc`; recording is one short mutex-protected push.
#[derive(Debug)]
pub struct TraceSink {
    epoch: Instant,
    spans: Mutex<Vec<SpanRecord>>,
}

impl Default for TraceSink {
    fn default() -> Self {
        TraceSink {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl TraceSink {
    /// A fresh sink; its epoch (timestamp zero) is the moment of
    /// construction.
    pub fn new() -> TraceSink {
        TraceSink::default()
    }

    /// Nanoseconds elapsed since the sink epoch.
    #[inline]
    pub fn now_nanos(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Records a span that started at `start_nanos` (from
    /// [`TraceSink::now_nanos`]) and ends now.
    pub fn record(&self, scope: &'static str, detail: String, tid: u32, start_nanos: u64) {
        let end_nanos = self.now_nanos().max(start_nanos);
        self.push(SpanRecord {
            scope,
            detail,
            tid,
            start_nanos,
            end_nanos,
        });
    }

    /// Records a fully formed span.
    pub fn push(&self, rec: SpanRecord) {
        self.spans.lock().expect("trace sink poisoned").push(rec);
    }

    /// Drains the collected spans, sorted by start time.
    pub fn take(&self) -> Vec<SpanRecord> {
        let mut spans = std::mem::take(&mut *self.spans.lock().expect("trace sink poisoned"));
        spans.sort_by_key(|s| (s.start_nanos, s.tid));
        spans
    }
}

// --- query events ------------------------------------------------------

/// Terminal state of a query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QueryOutcome {
    /// Completed normally.
    #[default]
    Ok,
    /// Stopped by an explicit cancel-token request.
    Cancelled,
    /// Aborted by its deadline or row budget.
    Deadline,
    /// Aborted by its memory budget.
    MemoryExhausted,
    /// Rejected at admission (governor overload shedding).
    Shed,
}

impl QueryOutcome {
    /// Stable lower-snake string used in logs and the sys graphs.
    pub fn as_str(self) -> &'static str {
        match self {
            QueryOutcome::Ok => "ok",
            QueryOutcome::Cancelled => "cancelled",
            QueryOutcome::Deadline => "deadline",
            QueryOutcome::MemoryExhausted => "memory_exhausted",
            QueryOutcome::Shed => "shed",
        }
    }
}

/// One flight-recorder entry: everything the engine knew about a query
/// at the moment it finished.
#[derive(Debug, Clone, Default)]
pub struct QueryEvent {
    /// Process-unique id from [`next_query_id`].
    pub query_id: u64,
    /// Query family (`select`, `aggregate`, `path`, `ask`, `construct`).
    pub family: &'static str,
    /// [`fnv1a64`] of the query text.
    pub text_hash: u64,
    /// Nanoseconds spent waiting in the governor's admission queue.
    pub admission_wait_nanos: u64,
    /// Whether the plan came from the plan cache.
    pub cache_hit: bool,
    /// Nanoseconds spent parsing + compiling (0 on a cache hit).
    pub compile_nanos: u64,
    /// Wall-clock execution nanoseconds.
    pub exec_nanos: u64,
    /// Result rows (or quads) produced.
    pub rows_out: u64,
    /// Peak memory charged against the query's budget, in bytes.
    pub peak_mem_bytes: u64,
    /// Worker threads the executor resolved to.
    pub threads: u32,
    /// Whether any part of the query ran on the vectorized columnar
    /// pipeline (reported by the executor; `false` for a shed query).
    pub vectorized: bool,
    /// Terminal state.
    pub outcome: QueryOutcome,
    /// Span timeline; empty unless profiling was on or the query
    /// crossed the slow-query threshold.
    pub spans: Vec<SpanRecord>,
}

// --- the ring ----------------------------------------------------------

/// Default capacity of the process-wide recorder ring.
pub const DEFAULT_FLIGHT_CAPACITY: usize = 256;

/// Fixed-capacity, overwrite-on-full ring buffer of [`QueryEvent`]s.
///
/// A writer claims the next sequence number with one relaxed
/// `fetch_add`, then writes `slots[seq % capacity]` under that slot's
/// own mutex — writers on different slots never contend, and a reader
/// ([`FlightRecorder::snapshot`]) locks one slot at a time. Slot
/// entries carry their sequence number so a snapshot can order events
/// and discard slots that a concurrent wrap made non-monotone.
#[derive(Debug)]
pub struct FlightRecorder {
    enabled: AtomicBool,
    head: AtomicU64,
    slots: Vec<Mutex<Option<(u64, QueryEvent)>>>,
}

impl FlightRecorder {
    /// A recorder holding the most recent `capacity` events
    /// (minimum 1), enabled by default.
    pub fn with_capacity(capacity: usize) -> FlightRecorder {
        let capacity = capacity.max(1);
        FlightRecorder {
            enabled: AtomicBool::new(true),
            head: AtomicU64::new(0),
            slots: (0..capacity).map(|_| Mutex::new(None)).collect(),
        }
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Whether [`FlightRecorder::record`] stores events.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Turns recording on or off.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Total events ever recorded (monotone; `min(recorded, capacity)`
    /// events are retrievable).
    pub fn recorded(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
    }

    /// Stores an event, overwriting the oldest once full. No-op when
    /// disabled.
    pub fn record(&self, event: QueryEvent) {
        if !self.enabled() {
            return;
        }
        let seq = self.head.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(seq % self.slots.len() as u64) as usize];
        let mut guard = slot.lock().expect("flight recorder slot poisoned");
        // A slower writer must not clobber a faster one that lapped it.
        if guard.as_ref().is_none_or(|(s, _)| *s < seq) {
            *guard = Some((seq, event));
        }
    }

    /// The retained events, oldest first.
    pub fn snapshot(&self) -> Vec<QueryEvent> {
        let mut entries: Vec<(u64, QueryEvent)> = self
            .slots
            .iter()
            .filter_map(|s| s.lock().expect("flight recorder slot poisoned").clone())
            .collect();
        entries.sort_by_key(|(seq, _)| *seq);
        entries.into_iter().map(|(_, e)| e).collect()
    }

    /// The retained event for `query_id`, if still in the ring.
    pub fn find(&self, query_id: u64) -> Option<QueryEvent> {
        self.slots
            .iter()
            .filter_map(|s| s.lock().expect("flight recorder slot poisoned").clone())
            .find(|(_, e)| e.query_id == query_id)
            .map(|(_, e)| e)
    }

    /// Empties the ring (tests and bench sections).
    pub fn clear(&self) {
        for slot in &self.slots {
            *slot.lock().expect("flight recorder slot poisoned") = None;
        }
        self.head.store(0, Ordering::Relaxed);
    }
}

/// The process-wide flight recorder every engine facade records into.
/// Capacity [`DEFAULT_FLIGHT_CAPACITY`]; on by default, the
/// `PGRDF_FLIGHT` environment variable (`0`, `off`, `false`, `no`)
/// disables it at first use.
pub fn flight_recorder() -> &'static FlightRecorder {
    static GLOBAL: OnceLock<FlightRecorder> = OnceLock::new();
    GLOBAL.get_or_init(|| {
        let rec = FlightRecorder::with_capacity(DEFAULT_FLIGHT_CAPACITY);
        if let Ok(v) = std::env::var("PGRDF_FLIGHT") {
            if matches!(v.as_str(), "0" | "off" | "false" | "no") {
                rec.set_enabled(false);
            }
        }
        rec
    })
}

// --- chrome trace export -----------------------------------------------

fn json_escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
}

/// Renders spans as Chrome trace-event JSON (`ph:"X"` complete events;
/// `ts`/`dur` in microseconds with nanosecond precision). `pid` is the
/// query id so several query timelines can be merged side by side.
pub fn render_chrome_trace(query_id: u64, spans: &[SpanRecord]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let dur = s.end_nanos.saturating_sub(s.start_nanos);
        out.push_str("{\"name\":\"");
        json_escape_into(&mut out, s.scope);
        out.push_str("\",\"cat\":\"pgrdf\",\"ph\":\"X\",\"ts\":");
        out.push_str(&format!("{:.3}", s.start_nanos as f64 / 1000.0));
        out.push_str(",\"dur\":");
        out.push_str(&format!("{:.3}", dur as f64 / 1000.0));
        out.push_str(&format!(",\"pid\":{},\"tid\":{}", query_id, s.tid));
        if !s.detail.is_empty() {
            out.push_str(",\"args\":{\"detail\":\"");
            json_escape_into(&mut out, &s.detail);
            out.push_str("\"}");
        }
        out.push('}');
    }
    out.push_str("]}");
    out
}

// --- tests -------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;

    fn event(id: u64) -> QueryEvent {
        QueryEvent {
            query_id: id,
            family: "select",
            text_hash: fnv1a64(b"SELECT"),
            compile_nanos: 10,
            exec_nanos: 100,
            rows_out: 1,
            threads: 1,
            ..QueryEvent::default()
        }
    }

    #[test]
    fn ring_overwrites_oldest() {
        let rec = FlightRecorder::with_capacity(4);
        for id in 1..=10 {
            rec.record(event(id));
        }
        let snap = rec.snapshot();
        let ids: Vec<u64> = snap.iter().map(|e| e.query_id).collect();
        assert_eq!(ids, vec![7, 8, 9, 10]);
        assert_eq!(rec.recorded(), 10);
        assert!(rec.find(6).is_none());
        assert_eq!(rec.find(9).unwrap().exec_nanos, 100);
    }

    #[test]
    fn disabled_recorder_drops_events() {
        let rec = FlightRecorder::with_capacity(4);
        rec.set_enabled(false);
        rec.record(event(1));
        assert!(rec.snapshot().is_empty());
        assert_eq!(rec.recorded(), 0);
    }

    #[test]
    fn fnv_is_stable_and_spreads() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv1a64(b"SELECT ?a"), fnv1a64(b"SELECT ?b"));
        assert_eq!(fnv1a64(b"x"), fnv1a64(b"x"));
    }

    #[test]
    fn trace_sink_orders_spans() {
        let sink = TraceSink::new();
        let t0 = sink.now_nanos();
        sink.record("compile", String::new(), 0, t0);
        sink.push(SpanRecord {
            scope: "drive",
            detail: "morsel 0".into(),
            tid: 1,
            start_nanos: t0 + 5,
            end_nanos: t0 + 9,
        });
        let spans = sink.take();
        assert_eq!(spans.len(), 2);
        assert!(spans
            .windows(2)
            .all(|w| w[0].start_nanos <= w[1].start_nanos));
        assert!(spans.iter().all(|s| s.end_nanos >= s.start_nanos));
        assert!(sink.take().is_empty(), "take drains");
    }

    #[test]
    fn chrome_trace_shape() {
        let spans = vec![SpanRecord {
            scope: "drive",
            detail: "morsel \"7\"\n".into(),
            tid: 2,
            start_nanos: 1500,
            end_nanos: 4500,
        }];
        let json = render_chrome_trace(42, &spans);
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"ts\":1.500"));
        assert!(json.contains("\"dur\":3.000"));
        assert!(json.contains("\"pid\":42,\"tid\":2"));
        assert!(json.contains("morsel \\\"7\\\"\\n"), "{json}");
    }
}
