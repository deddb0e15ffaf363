//! The wide event: one canonical decision record per request, and its
//! JSONL export.
//!
//! Metrics aggregate and traces show where time went; neither says
//! *"why was request R rejected?"*. The replay driver fills exactly one
//! [`EventRecord`] per simulated request — outcome, typed rejection
//! reason, search tier, candidate count, latencies, promised ETAs — and
//! hands it to the request's root span ([`crate::trace::RootSpan::event`]).
//! The recorder stamps it with the root's duration and its split by
//! layer and keeps it whatever tail sampling decides for the spans.
//! [`to_jsonl`] writes the recorder's wide events as segmented JSONL
//! (`xar simulate --events-out`), the input of the `xar logs`
//! forensics CLI; [`parse_jsonl`] reads it back.

use crate::json::{self, JsonValue, JsonWriter};
use crate::trace::TraceSnapshot;

/// Events per on-disk segment: the JSONL writer emits a `segment`
/// checkpoint line before every block of this many events, so a
/// truncated file can be recovered segment-by-segment.
pub const SEGMENT_LEN: usize = 4_096;

/// On-disk format version written to the `meta` line.
pub const FORMAT_VERSION: u64 = 1;

/// Sentinel ride id for events that booked no ride.
pub const NO_RIDE: u64 = u64::MAX;

/// The layers a request's time splits into, in [`EventRecord::layers`]
/// order. Each is the self-time of its spans:
/// `search` (`search`, `enumerate_src`, `enumerate_dst`),
/// `shortest_path`, `index` (`index_ride`, `deindex_ride`),
/// `route_splice` and `lock` (`lock.write_acquire`); `other` is the
/// rest of the root's duration, so the split sums exactly to `dur_ns`.
/// The reader looks layers up by name, so a file that also splits out
/// a layer since retired still parses.
pub const LAYERS: [&str; 6] = [
    "search",
    "shortest_path",
    "index",
    "route_splice",
    "lock",
    "other",
];

/// Index of `other` in [`LAYERS`].
pub const OTHER: usize = LAYERS.len() - 1;

/// The [`LAYERS`] index a span's self-time counts toward.
pub fn layer_of(span: &str) -> usize {
    match span {
        "search" | "enumerate_src" | "enumerate_dst" => 0,
        "shortest_path" => 1,
        "index_ride" | "deindex_ride" => 2,
        "route_splice" => 3,
        "lock.write_acquire" => 4,
        _ => OTHER,
    }
}

/// One wide event: the full decision record of a single request. All
/// fields are plain `Copy` data (`&'static str` for the enums), so
/// constructing and handing one over never allocates.
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
    /// Promised pick-up time of the booked match, simulated seconds
    /// (`NaN` when not booked).
    pub pickup_eta_s: f64,
    /// Promised drop-off time of the booked match, simulated seconds
    /// (`NaN` when not booked).
    pub dropoff_eta_s: f64,
    /// Wall time of the whole request (its root span), nanoseconds:
    /// every search, booking attempt and create included. Set by the
    /// recorder when the root closes.
    pub dur_ns: u64,
    /// `dur_ns` split by [`LAYERS`]; sums exactly to `dur_ns`. Set by
    /// the recorder when the root closes.
    pub layers: [u64; LAYERS.len()],
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
            pickup_eta_s: f64::NAN,
            dropoff_eta_s: f64::NAN,
            dur_ns: 0,
            layers: [0; LAYERS.len()],
        }
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
    // Only a booking makes a promise; other outcomes omit the keys.
    for (key, eta) in [
        ("pickup_eta_s", e.pickup_eta_s),
        ("dropoff_eta_s", e.dropoff_eta_s),
    ] {
        if eta.is_finite() {
            w.key(key);
            w.number_f64(eta);
        }
    }
    w.key("dur_ns");
    w.number_u64(e.dur_ns);
    w.key("layers");
    w.begin_object();
    for (name, ns) in LAYERS.iter().zip(e.layers) {
        w.key(name);
        w.number_u64(ns);
    }
    w.end_object();
    w.end_object();
    out.push_str(&w.finish());
    out.push('\n');
}

/// Render the wide events of a recorder snapshot as the segmented
/// JSONL format `xar logs` reads: a `meta` header, a `segment`
/// checkpoint line before every [`SEGMENT_LEN`] events, one `event`
/// line per record that carries one, and a final `drops` line with the
/// recorder's record account (`kept + dropped == emitted`).
pub fn to_jsonl(snap: &TraceSnapshot) -> String {
    let events: Vec<&EventRecord> = snap
        .records
        .iter()
        .filter_map(|r| r.event.as_ref())
        .collect();
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
    for (i, e) in events.iter().enumerate() {
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
            s.number_u64(SEGMENT_LEN.min(events.len() - i) as u64);
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
    f.number_u64(snap.stats.emitted_records);
    f.key("dropped");
    f.number_u64(snap.stats.dropped_records);
    f.key("kept");
    f.number_u64(events.len() as u64);
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
    /// Promised pick-up time, simulated seconds (booked requests of
    /// files that record it).
    pub pickup_eta_s: Option<f64>,
    /// Promised drop-off time, simulated seconds.
    pub dropoff_eta_s: Option<f64>,
    /// Wall time of the whole request, nanoseconds. Files written
    /// before the field existed fall back to `search_ns + book_ns`.
    pub dur_ns: u64,
    /// `dur_ns` split by [`LAYERS`], when the file records it.
    pub layers: Option<[u64; LAYERS.len()]>,
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
                let version =
                    field_u64(&v, "version").map_err(|e| format!("line {}: {e}", lineno + 1))?;
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
                    let layers = match v.get("layers") {
                        None => None,
                        Some(l) => {
                            let mut split = [0; LAYERS.len()];
                            for (ns, name) in split.iter_mut().zip(LAYERS) {
                                *ns = field_u64(l, name)?;
                            }
                            Some(split)
                        }
                    };
                    let (search_ns, book_ns) =
                        (field_u64(v, "search_ns")?, field_u64(v, "book_ns")?);
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
                        search_ns,
                        book_ns,
                        walk_m: field_f64(v, "walk_m")?,
                        detour_m: field_f64(v, "detour_m")?,
                        wait_s: field_f64(v, "wait_s")?,
                        pickup_eta_s: v.get("pickup_eta_s").and_then(JsonValue::as_f64),
                        dropoff_eta_s: v.get("dropoff_eta_s").and_then(JsonValue::as_f64),
                        dur_ns: match v.get("dur_ns") {
                            None => search_ns + book_ns,
                            Some(_) => field_u64(v, "dur_ns")?,
                        },
                        layers,
                    })
                };
                log.events
                    .push(parse(&v).map_err(|e| format!("line {}: {e}", lineno + 1))?);
            }
            "drops" => {
                log.emitted =
                    field_u64(&v, "emitted").map_err(|e| format!("line {}: {e}", lineno + 1))?;
                log.dropped =
                    field_u64(&v, "dropped").map_err(|e| format!("line {}: {e}", lineno + 1))?;
                let kept =
                    field_u64(&v, "kept").map_err(|e| format!("line {}: {e}", lineno + 1))?;
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
                return Err(format!(
                    "line {}: unknown record type {other:?}",
                    lineno + 1
                ));
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{Recorder, TraceConfig};

    /// A snapshot of `n` requests alternating booked / created.
    fn snapshot(n: u64) -> TraceSnapshot {
        let rec = Recorder::new(TraceConfig::events_only());
        for i in 0..n {
            let mut root = rec.start_root("request");
            drop(rec.child_span("search"));
            let mut r = EventRecord::new(i);
            r.sim_t_s = i as f64 * 0.5;
            r.candidates = 3;
            if i % 2 == 0 {
                (r.outcome, r.reason, r.ride, r.matches) = ("booked", "served", i * 7, 1);
                (r.pickup_eta_s, r.dropoff_eta_s) = (60.0, 600.0);
            } else {
                (r.outcome, r.reason) = ("created", "no_cluster_candidates");
            }
            root.event(r);
        }
        rec.snapshot()
    }

    #[test]
    fn jsonl_round_trips_and_validates() {
        let snap = snapshot(10);
        let log = parse_jsonl(&to_jsonl(&snap)).expect("round trip");
        assert_eq!(log.events.len(), 10);
        assert_eq!((log.emitted, log.dropped), (10, 0));
        let (booked, created) = (&log.events[0], &log.events[1]);
        assert_eq!((booked.ride, created.ride), (Some(0), None));
        assert_eq!(
            (booked.pickup_eta_s, booked.dropoff_eta_s),
            (Some(60.0), Some(600.0))
        );
        assert_eq!(created.pickup_eta_s, None);
        assert_eq!(created.reason, "no_cluster_candidates");
        for (e, r) in log.events.iter().zip(&snap.records) {
            assert_eq!(e.dur_ns, r.dur_ns);
            assert_eq!(
                e.layers.expect("layers written").iter().sum::<u64>(),
                e.dur_ns
            );
        }
        assert_eq!(
            log.reason_histogram()[0],
            ("no_cluster_candidates".to_string(), 5)
        );
    }

    #[test]
    fn parse_rejects_corruption() {
        assert!(parse_jsonl("").is_err(), "empty file");
        assert!(
            parse_jsonl("{\"type\":\"event\"}").is_err(),
            "event before meta"
        );
        assert!(parse_jsonl("not json\n").is_err(), "invalid JSON");
        let ok = "{\"type\":\"meta\",\"version\":1}\n{\"type\":\"drops\",\"emitted\":0,\"dropped\":0,\"kept\":0}\n";
        assert!(parse_jsonl(ok).is_ok());
        let missing_footer = "{\"type\":\"meta\",\"version\":1}\n";
        assert!(parse_jsonl(missing_footer).is_err(), "no footer");
        let bad_kept = "{\"type\":\"meta\",\"version\":1}\n{\"type\":\"drops\",\"emitted\":3,\"dropped\":1,\"kept\":1}\n";
        assert!(parse_jsonl(bad_kept).is_err(), "kept mismatch");
        // A layer split missing a layer is corrupt, not partial.
        let text = to_jsonl(&snapshot(1)).replace("\"other\":", "\"rest\":");
        assert!(parse_jsonl(&text).is_err(), "incomplete layers");
    }
}
