//! The wide-event plane: one canonical record per request lifecycle.
//!
//! Metrics aggregate and the flight recorder tail-samples; neither can
//! answer *"why was request R rejected?"*. This module can: the
//! replay driver emits exactly one [`EventRecord`] per simulated
//! request — outcome, typed rejection reason, search tier, candidate
//! count and latencies — and the records flow into a
//! bounded global ring for the `/debug/events` tail and into segmented
//! JSONL on disk (`xar simulate --events-out`) for the `xar logs`
//! forensics CLI.
//!
//! The recording discipline matches the PR-2 flight recorder
//! ([`crate::trace`]):
//!
//! * **Disabled is free.** [`emit`] starts with one relaxed atomic
//!   load; when the sink is off it returns before touching any
//!   thread-local — no locks, no allocation (pinned ≤ 50 ns and
//!   0 allocations per event by `tests/events_overhead`).
//! * **No locks per event.** Enabled emits push onto a thread-local
//!   buffer; the global ring mutex is taken once per
//!   [`FLUSH_THRESHOLD`] events (and once more at [`flush_thread`]).
//! * **Conserved drop accounting.** The ring is bounded; eviction
//!   increments `dropped`, and `kept + dropped == emitted` always
//!   holds in a [`snapshot`] taken after flushes — the invariant the
//!   end-to-end conservation test reconciles against the simulator's
//!   outcome counters.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};

use crate::json::{self, JsonValue, JsonWriter};

/// Enabled emits buffer thread-locally and publish to the global ring
/// every this many events.
pub const FLUSH_THRESHOLD: usize = 64;

/// Default global ring capacity (events kept for `/debug/events` and
/// an in-process [`snapshot`]).
pub const DEFAULT_CAPACITY: usize = 65_536;

/// Events per on-disk segment: the JSONL writer emits a `segment`
/// checkpoint line before every block of this many events, so a
/// truncated file can be recovered segment-by-segment.
pub const SEGMENT_LEN: usize = 4_096;

/// On-disk format version written to the `meta` line.
pub const FORMAT_VERSION: u64 = 1;

/// Sentinel ride id for events that booked no ride.
pub const NO_RIDE: u64 = u64::MAX;

/// One wide event: the full decision record of a single request
/// lifecycle. All fields are plain `Copy` data (`&'static str` for the
/// enums), so constructing and emitting one never allocates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EventRecord {
    /// Request (trip) id.
    pub request_id: u64,
    /// Simulated arrival time of the request, seconds.
    pub sim_t_s: f64,
    /// Lifecycle outcome: `"booked"`, `"created"` or `"unservable"`.
    pub outcome: &'static str,
    /// Typed rejection-reason code (`xar_core::Reason::code()`);
    /// `"served"` for booked requests.
    pub reason: &'static str,
    /// Search tier (1-based fan-out bucket; 0 = search never reached
    /// candidate generation).
    pub tier: u8,
    /// Candidate-set size `|R1|` of the (first) search.
    pub candidates: u32,
    /// Feasible matches the (first) search returned.
    pub matches: u32,
    /// Search calls performed for this request (re-searches included).
    pub searches: u32,
    /// Booking attempts that failed stale before the outcome.
    pub stale: u32,
    /// Booked ride id, or [`NO_RIDE`].
    pub ride: u64,
    /// Search latency, nanoseconds (first search).
    pub search_ns: u64,
    /// Booking latency, nanoseconds (successful attempt only; 0
    /// otherwise).
    pub book_ns: u64,
    /// Rider walking distance for the booked match, metres (0 when not
    /// booked).
    pub walk_m: f64,
    /// Realised detour of the booked match, metres (0 when not
    /// booked).
    pub detour_m: f64,
    /// Rider wait from request to scheduled pick-up, seconds (0 when
    /// not booked).
    pub wait_s: f64,
}

impl EventRecord {
    /// A record with every field zeroed and the given id — callers
    /// fill in what they know.
    pub fn new(request_id: u64) -> Self {
        EventRecord {
            request_id,
            sim_t_s: 0.0,
            outcome: "",
            reason: "",
            tier: 0,
            candidates: 0,
            matches: 0,
            searches: 0,
            stale: 0,
            ride: NO_RIDE,
            search_ns: 0,
            book_ns: 0,
            walk_m: 0.0,
            detour_m: 0.0,
            wait_s: 0.0,
        }
    }
}

/// Bounded ring plus the conserved accounting counters.
struct Ring {
    events: VecDeque<EventRecord>,
    capacity: usize,
    emitted: u64,
    dropped: u64,
}

/// The global wide-event sink: an enabled flag read on every emit and
/// a bounded ring behind one mutex taken only on (amortized) flushes.
pub struct EventSink {
    enabled: AtomicBool,
    ring: Mutex<Ring>,
}

thread_local! {
    static LOCAL: RefCell<Vec<EventRecord>> = const { RefCell::new(Vec::new()) };
}

static SINK: OnceLock<EventSink> = OnceLock::new();

/// The process-wide sink. Starts **disabled** with
/// [`DEFAULT_CAPACITY`].
pub fn sink() -> &'static EventSink {
    SINK.get_or_init(|| EventSink {
        enabled: AtomicBool::new(false),
        ring: Mutex::new(Ring {
            events: VecDeque::new(),
            capacity: DEFAULT_CAPACITY,
            emitted: 0,
            dropped: 0,
        }),
    })
}

/// Point-in-time copy of the sink's state. `kept + dropped ==
/// emitted` when every emitting thread has [`flush_thread`]-ed.
#[derive(Debug, Clone)]
pub struct EventsSnapshot {
    /// Events still in the ring, oldest first.
    pub events: Vec<EventRecord>,
    /// Events published to the ring since the last [`configure`].
    pub emitted: u64,
    /// Events evicted from the bounded ring.
    pub dropped: u64,
}

impl EventsSnapshot {
    /// Events retained (`emitted - dropped`).
    pub fn kept(&self) -> u64 {
        self.events.len() as u64
    }
}

/// Turn the sink on or off. Off is the default; emits while off cost
/// one relaxed load.
pub fn set_enabled(on: bool) {
    sink().enabled.store(on, Ordering::Relaxed);
}

/// Whether the sink currently accepts events.
pub fn is_enabled() -> bool {
    sink().enabled.load(Ordering::Relaxed)
}

/// Resize the ring to `capacity` events and reset the ring plus its
/// accounting to empty. Call once before a run.
pub fn configure(capacity: usize) {
    let mut ring = sink().ring.lock().unwrap_or_else(|e| e.into_inner());
    ring.events.clear();
    ring.capacity = capacity.max(1);
    ring.emitted = 0;
    ring.dropped = 0;
}

/// Record one wide event. When the sink is disabled this is one
/// relaxed load and a branch — no thread-local access, no allocation.
#[inline]
pub fn emit(record: EventRecord) {
    if !sink().enabled.load(Ordering::Relaxed) {
        return;
    }
    LOCAL.with(|buf| {
        let mut buf = buf.borrow_mut();
        buf.push(record);
        if buf.len() >= FLUSH_THRESHOLD {
            publish(&mut buf);
        }
    });
}

/// Publish this thread's buffered events to the global ring. Call at
/// the end of every emitting thread (the dispatch loop does, for the
/// driver thread and each parallel worker).
pub fn flush_thread() {
    LOCAL.with(|buf| {
        let mut buf = buf.borrow_mut();
        if !buf.is_empty() {
            publish(&mut buf);
        }
    });
}

fn publish(buf: &mut Vec<EventRecord>) {
    let mut ring = sink().ring.lock().unwrap_or_else(|e| e.into_inner());
    for rec in buf.drain(..) {
        ring.emitted += 1;
        ring.events.push_back(rec);
    }
    while ring.events.len() > ring.capacity {
        ring.events.pop_front();
        ring.dropped += 1;
    }
}

/// Copy out the ring and its accounting.
pub fn snapshot() -> EventsSnapshot {
    let ring = sink().ring.lock().unwrap_or_else(|e| e.into_inner());
    EventsSnapshot {
        events: ring.events.iter().copied().collect(),
        emitted: ring.emitted,
        dropped: ring.dropped,
    }
}

fn write_event_line(out: &mut String, e: &EventRecord) {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("type");
    w.string("event");
    w.key("id");
    w.number_u64(e.request_id);
    w.key("t_s");
    w.number_f64(e.sim_t_s);
    w.key("outcome");
    w.string(e.outcome);
    w.key("reason");
    w.string(e.reason);
    w.key("tier");
    w.number_u64(u64::from(e.tier));
    w.key("candidates");
    w.number_u64(u64::from(e.candidates));
    w.key("matches");
    w.number_u64(u64::from(e.matches));
    w.key("searches");
    w.number_u64(u64::from(e.searches));
    w.key("stale");
    w.number_u64(u64::from(e.stale));
    w.key("ride");
    if e.ride == NO_RIDE {
        w.null();
    } else {
        w.number_u64(e.ride);
    }
    w.key("search_ns");
    w.number_u64(e.search_ns);
    w.key("book_ns");
    w.number_u64(e.book_ns);
    w.key("walk_m");
    w.number_f64(e.walk_m);
    w.key("detour_m");
    w.number_f64(e.detour_m);
    w.key("wait_s");
    w.number_f64(e.wait_s);
    w.end_object();
    out.push_str(&w.finish());
    out.push('\n');
}

/// Render a snapshot as the segmented JSONL format `xar logs` reads:
/// a `meta` header, a `segment` checkpoint line before every
/// [`SEGMENT_LEN`] events, one `event` line per record, and a final
/// `drops` accounting line (`kept + dropped == emitted`).
pub fn to_jsonl(snap: &EventsSnapshot) -> String {
    let mut out = String::new();
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("type");
    w.string("meta");
    w.key("version");
    w.number_u64(FORMAT_VERSION);
    w.key("segment_len");
    w.number_u64(SEGMENT_LEN as u64);
    w.end_object();
    out.push_str(&w.finish());
    out.push('\n');
    for (i, e) in snap.events.iter().enumerate() {
        if i % SEGMENT_LEN == 0 {
            let mut s = JsonWriter::new();
            s.begin_object();
            s.key("type");
            s.string("segment");
            s.key("seq");
            s.number_u64((i / SEGMENT_LEN) as u64);
            s.key("start");
            s.number_u64(i as u64);
            s.key("len");
            s.number_u64(SEGMENT_LEN.min(snap.events.len() - i) as u64);
            s.end_object();
            out.push_str(&s.finish());
            out.push('\n');
        }
        write_event_line(&mut out, e);
    }
    let mut f = JsonWriter::new();
    f.begin_object();
    f.key("type");
    f.string("drops");
    f.key("emitted");
    f.number_u64(snap.emitted);
    f.key("dropped");
    f.number_u64(snap.dropped);
    f.key("kept");
    f.number_u64(snap.kept());
    f.end_object();
    out.push_str(&f.finish());
    out.push('\n');
    out
}

/// One event as parsed back from JSONL — the owned-string twin of
/// [`EventRecord`].
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedEvent {
    /// Request (trip) id.
    pub request_id: u64,
    /// Simulated arrival time, seconds.
    pub sim_t_s: f64,
    /// Lifecycle outcome.
    pub outcome: String,
    /// Rejection-reason code (`"served"` for booked requests).
    pub reason: String,
    /// Search tier.
    pub tier: u64,
    /// Candidate-set size.
    pub candidates: u64,
    /// Matches returned.
    pub matches: u64,
    /// Search calls performed.
    pub searches: u64,
    /// Stale booking attempts.
    pub stale: u64,
    /// Booked ride id, if any.
    pub ride: Option<u64>,
    /// Search latency, nanoseconds.
    pub search_ns: u64,
    /// Booking latency, nanoseconds.
    pub book_ns: u64,
    /// Walking distance, metres.
    pub walk_m: f64,
    /// Realised detour, metres.
    pub detour_m: f64,
    /// Wait to pick-up, seconds.
    pub wait_s: f64,
}

/// A parsed event log: the decoded events plus the drop accounting
/// from the footer.
#[derive(Debug, Clone, Default)]
pub struct EventLog {
    /// Decoded events, file order.
    pub events: Vec<ParsedEvent>,
    /// Total events published at write time.
    pub emitted: u64,
    /// Events evicted before the file was written.
    pub dropped: u64,
}

impl EventLog {
    /// `(code, count)` per distinct reason, most frequent first (ties
    /// by code).
    pub fn reason_histogram(&self) -> Vec<(String, u64)> {
        histogram(self.events.iter().map(|e| e.reason.as_str()))
    }

    /// `(outcome, count)` per distinct outcome, most frequent first.
    pub fn outcome_histogram(&self) -> Vec<(String, u64)> {
        histogram(self.events.iter().map(|e| e.outcome.as_str()))
    }
}

fn histogram<'a>(keys: impl Iterator<Item = &'a str>) -> Vec<(String, u64)> {
    let mut counts: Vec<(String, u64)> = Vec::new();
    for k in keys {
        match counts.iter_mut().find(|(name, _)| name == k) {
            Some((_, n)) => *n += 1,
            None => counts.push((k.to_string(), 1)),
        }
    }
    counts.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    counts
}

fn field_u64(obj: &JsonValue, key: &str) -> Result<u64, String> {
    obj.get(key)
        .and_then(JsonValue::as_u64)
        .ok_or_else(|| format!("event line missing numeric field {key:?}"))
}

fn field_f64(obj: &JsonValue, key: &str) -> Result<f64, String> {
    obj.get(key)
        .and_then(JsonValue::as_f64)
        .ok_or_else(|| format!("event line missing numeric field {key:?}"))
}

fn field_str(obj: &JsonValue, key: &str) -> Result<String, String> {
    obj.get(key)
        .and_then(JsonValue::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("event line missing string field {key:?}"))
}

/// Parse the segmented JSONL format back into an [`EventLog`].
///
/// Validates the envelope: a `meta` line must come first, every line
/// must carry a known `type`, and the `drops` footer's `kept` must
/// equal the number of event lines (conservation of the on-disk
/// record).
pub fn parse_jsonl(text: &str) -> Result<EventLog, String> {
    let mut log = EventLog::default();
    let mut saw_meta = false;
    let mut saw_drops = false;
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let v = json::parse(line).map_err(|e| format!("line {}: {e}", lineno + 1))?;
        let ty = field_str(&v, "type").map_err(|e| format!("line {}: {e}", lineno + 1))?;
        match ty.as_str() {
            "meta" => {
                let version = field_u64(&v, "version")
                    .map_err(|e| format!("line {}: {e}", lineno + 1))?;
                if version > FORMAT_VERSION {
                    return Err(format!("unsupported events format version {version}"));
                }
                saw_meta = true;
            }
            "segment" => {}
            "event" => {
                if !saw_meta {
                    return Err("event line before meta header".to_string());
                }
                let parse = |v: &JsonValue| -> Result<ParsedEvent, String> {
                    Ok(ParsedEvent {
                        request_id: field_u64(v, "id")?,
                        sim_t_s: field_f64(v, "t_s")?,
                        outcome: field_str(v, "outcome")?,
                        reason: field_str(v, "reason")?,
                        tier: field_u64(v, "tier")?,
                        candidates: field_u64(v, "candidates")?,
                        matches: field_u64(v, "matches")?,
                        searches: field_u64(v, "searches")?,
                        stale: field_u64(v, "stale")?,
                        ride: v.get("ride").and_then(JsonValue::as_u64),
                        search_ns: field_u64(v, "search_ns")?,
                        book_ns: field_u64(v, "book_ns")?,
                        walk_m: field_f64(v, "walk_m")?,
                        detour_m: field_f64(v, "detour_m")?,
                        wait_s: field_f64(v, "wait_s")?,
                    })
                };
                log.events.push(parse(&v).map_err(|e| format!("line {}: {e}", lineno + 1))?);
            }
            "drops" => {
                log.emitted = field_u64(&v, "emitted")
                    .map_err(|e| format!("line {}: {e}", lineno + 1))?;
                log.dropped = field_u64(&v, "dropped")
                    .map_err(|e| format!("line {}: {e}", lineno + 1))?;
                let kept = field_u64(&v, "kept")
                    .map_err(|e| format!("line {}: {e}", lineno + 1))?;
                if kept != log.events.len() as u64 {
                    return Err(format!(
                        "drops line claims {kept} kept events, file has {}",
                        log.events.len()
                    ));
                }
                if log.emitted != kept + log.dropped {
                    return Err(format!(
                        "drop accounting violated: emitted {} != kept {kept} + dropped {}",
                        log.emitted, log.dropped
                    ));
                }
                saw_drops = true;
            }
            other => {
                return Err(format!("line {}: unknown record type {other:?}", lineno + 1));
            }
        }
    }
    if !saw_meta {
        return Err("not an events file: no meta header".to_string());
    }
    if !saw_drops {
        return Err("truncated events file: no drops footer".to_string());
    }
    Ok(log)
}

/// JSON body for the `/debug/events` endpoint: the sink state, the
/// conserved accounting, and the newest `tail_len` ring events.
pub fn debug_events_json(tail_len: usize) -> String {
    let snap = snapshot();
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("enabled");
    w.boolean(is_enabled());
    w.key("emitted");
    w.number_u64(snap.emitted);
    w.key("dropped");
    w.number_u64(snap.dropped);
    w.key("kept");
    w.number_u64(snap.kept());
    w.key("tail");
    let start = snap.events.len().saturating_sub(tail_len);
    let mut tail = String::new();
    for e in &snap.events[start..] {
        write_event_line(&mut tail, e);
    }
    w.begin_array();
    for line in tail.lines() {
        w.raw(line);
    }
    w.end_array();
    w.end_object();
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::MutexGuard;

    // The sink is process-global; tests that reconfigure it must not
    // interleave.
    static TEST_GATE: Mutex<()> = Mutex::new(());

    fn lock() -> MutexGuard<'static, ()> {
        TEST_GATE.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn rec(id: u64, outcome: &'static str, reason: &'static str) -> EventRecord {
        EventRecord { outcome, reason, ..EventRecord::new(id) }
    }

    #[test]
    fn disabled_sink_records_nothing() {
        let _g = lock();
        configure(16);
        set_enabled(false);
        emit(rec(1, "booked", "served"));
        flush_thread();
        let snap = snapshot();
        assert_eq!(snap.emitted, 0);
        assert_eq!(snap.kept(), 0);
    }

    #[test]
    fn ring_evicts_oldest_and_conserves_accounting() {
        let _g = lock();
        configure(8);
        set_enabled(true);
        for i in 0..20 {
            emit(rec(i, "created", "no_cluster_candidates"));
        }
        flush_thread();
        set_enabled(false);
        let snap = snapshot();
        assert_eq!(snap.emitted, 20);
        assert_eq!(snap.kept(), 8);
        assert_eq!(snap.dropped, 12);
        assert_eq!(snap.kept() + snap.dropped, snap.emitted);
        // Oldest evicted: the ring holds the newest 8 ids.
        assert_eq!(snap.events[0].request_id, 12);
        assert_eq!(snap.events[7].request_id, 19);
    }

    #[test]
    fn jsonl_round_trips_and_validates() {
        let _g = lock();
        configure(64);
        set_enabled(true);
        for i in 0..10 {
            let mut r = rec(i, if i % 2 == 0 { "booked" } else { "created" }, if i % 2 == 0 { "served" } else { "capacity_full" });
            r.sim_t_s = i as f64 * 0.5;
            r.candidates = 3;
            r.matches = u32::from(i % 2 == 0);
            r.ride = if i % 2 == 0 { i * 7 } else { NO_RIDE };
            emit(r);
        }
        flush_thread();
        set_enabled(false);
        let snap = snapshot();
        let text = to_jsonl(&snap);
        let log = parse_jsonl(&text).expect("round trip");
        assert_eq!(log.events.len(), 10);
        assert_eq!(log.emitted, 10);
        assert_eq!(log.dropped, 0);
        assert_eq!(log.events[0].ride, Some(0));
        assert_eq!(log.events[1].ride, None);
        assert_eq!(log.events[3].reason, "capacity_full");
        let hist = log.reason_histogram();
        assert_eq!(hist[0], ("capacity_full".to_string(), 5));
    }

    #[test]
    fn parse_rejects_corruption() {
        assert!(parse_jsonl("").is_err(), "empty file");
        assert!(parse_jsonl("{\"type\":\"event\"}").is_err(), "event before meta");
        assert!(parse_jsonl("not json\n").is_err(), "invalid JSON");
        let ok = "{\"type\":\"meta\",\"version\":1}\n{\"type\":\"drops\",\"emitted\":0,\"dropped\":0,\"kept\":0}\n";
        assert!(parse_jsonl(ok).is_ok());
        let missing_footer = "{\"type\":\"meta\",\"version\":1}\n";
        assert!(parse_jsonl(missing_footer).is_err(), "no footer");
        let bad_kept = "{\"type\":\"meta\",\"version\":1}\n{\"type\":\"drops\",\"emitted\":3,\"dropped\":1,\"kept\":1}\n";
        assert!(parse_jsonl(bad_kept).is_err(), "kept mismatch");
    }

    #[test]
    fn debug_json_reports_tail() {
        let _g = lock();
        configure(32);
        set_enabled(true);
        for i in 0..5 {
            emit(rec(i, "booked", "served"));
        }
        flush_thread();
        set_enabled(false);
        let body = debug_events_json(2);
        let v = json::parse(&body).expect("valid JSON");
        assert_eq!(v.get("kept").and_then(JsonValue::as_u64), Some(5));
        assert_eq!(v.get("tail").and_then(JsonValue::as_array).map(<[JsonValue]>::len), Some(2));
    }
}
