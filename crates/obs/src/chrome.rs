//! Chrome trace-event export of the recorder's kept spans, plus the
//! reader/timeline tooling the `xar trace` CLI and the CI trace
//! checker are built on.
//!
//! [`export_chrome`] renders a [`TraceSnapshot`] as Chrome trace-event
//! JSON (the "JSON Array Format" with a top-level object), loadable in
//! Perfetto or `chrome://tracing`:
//!
//! * span Begin/End events → phases `"B"` / `"E"` (`ts` in µs, one
//!   lane per recording thread via `tid`);
//! * every event's `args` carries `trace` / `span` ids (a Begin also
//!   its `parent`) plus the recorded attributes, so causality survives
//!   the export;
//! * a top-level `"xar"` object records the recorder's counters
//!   (started/kept/sampled-out traces, dropped events) and sampling
//!   configuration — the file is self-describing about what it omits.
//!
//! [`parse_chrome`] + [`Timeline::build`] invert the export: they
//! re-match `B`/`E` pairs per thread and rebuild span trees with
//! per-span self-time; instants (phase `"i"`), which files written
//! before the recorder merged with the wide event carry, are skipped.
//! Export → parse is round-trip property-tested in
//! `tests/trace_properties.rs`. [`collapse`] folds those trees into
//! collapsed stacks (`request;sim.search;search 8123`), the input
//! format of flamegraph.pl, inferno and speedscope: a profile is a fold
//! of the trace file, not a second recorder.
//!
//! ```
//! use xar_obs::trace::{Recorder, TraceConfig};
//! use xar_obs::chrome::{export_chrome, parse_chrome, Timeline};
//!
//! let rec = Recorder::new(TraceConfig::keep_all());
//! {
//!     let _root = rec.start_root("request");
//!     let _child = rec.child_span("search");
//! }
//! let json = export_chrome(&rec.snapshot());
//! let parsed = parse_chrome(&json).unwrap();
//! let timelines = Timeline::build(&parsed);
//! assert_eq!(timelines.len(), 1);
//! assert_eq!(timelines[0].root.name, "request");
//! assert_eq!(timelines[0].root.children[0].name, "search");
//! ```

use std::collections::BTreeMap;

use crate::json::{parse, JsonValue, JsonWriter};
use crate::trace::{AttrValue, EventKind, TraceSnapshot};

/// Attributes read back from a trace file: `args` entries minus the
/// causality ids.
pub type Attrs = Vec<(String, JsonValue)>;

/// Render a snapshot as Chrome trace-event JSON.
pub fn export_chrome(snap: &TraceSnapshot) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("displayTimeUnit");
    w.string("ms");
    w.key("traceEvents");
    w.begin_array();
    // Every kept span event, ordered by timestamp (stable, so
    // per-thread recording order is preserved on ties).
    let mut events: Vec<&crate::trace::TraceEvent> =
        snap.records.iter().flat_map(|r| r.spans.iter()).collect();
    events.sort_by_key(|e| e.ts_ns);
    for ev in events {
        w.begin_object();
        w.key("name");
        w.string(ev.name);
        w.key("ph");
        w.string(match ev.kind {
            EventKind::Begin => "B",
            EventKind::End => "E",
        });
        w.key("ts");
        w.number_f64(ev.ts_ns as f64 / 1_000.0); // µs
        w.key("pid");
        w.number_u64(1);
        w.key("tid");
        w.number_u64(ev.tid);
        w.key("args");
        w.begin_object();
        w.key("trace");
        w.number_u64(ev.trace);
        w.key("span");
        w.number_u64(ev.span);
        // The parent is on the Begin; an End only closes its span.
        if ev.parent != 0 && ev.kind == EventKind::Begin {
            w.key("parent");
            w.number_u64(ev.parent);
        }
        for (k, v) in ev.attrs.iter() {
            w.key(k);
            match v {
                AttrValue::U64(x) => w.number_u64(x),
                AttrValue::I64(x) => w.number_i64(x),
                AttrValue::F64(x) => w.number_f64(x),
                AttrValue::Str(x) => w.string(x),
            }
        }
        w.end_object();
        w.end_object();
    }
    w.end_array();
    // Self-description: what the recorder kept, dropped and sampled.
    let st = snap.stats;
    w.key("xar");
    w.begin_object();
    w.key("started_traces");
    w.number_u64(st.started_traces);
    w.key("kept_traces");
    w.number_u64(st.kept_traces);
    w.key("sampled_out_traces");
    w.number_u64(st.sampled_out_traces);
    w.key("dropped_events");
    w.number_u64(st.dropped_events);
    w.key("slow_threshold_ns");
    w.number_u64(st.slow_threshold_ns);
    w.key("sample_per_mille");
    w.number_u64(u64::from(st.sample_per_mille));
    w.end_object();
    w.end_object();
    w.finish()
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

/// One event read back from a Chrome trace file.
#[derive(Debug, Clone, PartialEq)]
pub struct ChromeEvent {
    /// Event name.
    pub name: String,
    /// `"B"`, `"E"` or `"i"`.
    pub ph: String,
    /// Timestamp, microseconds.
    pub ts_us: f64,
    /// Thread lane.
    pub tid: u64,
    /// `args.trace` (0 if absent).
    pub trace: u64,
    /// `args.span` (0 if absent).
    pub span: u64,
    /// `args.parent` (0 if absent).
    pub parent: u64,
    /// Remaining `args` entries (attributes), in document order.
    pub attrs: Attrs,
}

/// A parsed trace file: the events plus the recorder's self-reported
/// counters from the `"xar"` block.
#[derive(Debug, Clone)]
pub struct ChromeTrace {
    /// All events, in document order.
    pub events: Vec<ChromeEvent>,
    /// `xar.started_traces` (0 if the block is absent).
    pub started_traces: u64,
    /// `xar.kept_traces`.
    pub kept_traces: u64,
    /// `xar.sampled_out_traces`.
    pub sampled_out_traces: u64,
    /// `xar.dropped_events`.
    pub dropped_events: u64,
    /// Whether the `"xar"` self-description block (and its drop
    /// counter) was present at all.
    pub has_drop_counter: bool,
}

/// Parse Chrome trace-event JSON (as written by [`export_chrome`]).
pub fn parse_chrome(text: &str) -> Result<ChromeTrace, String> {
    let doc = parse(text)?;
    let events_json = doc
        .get("traceEvents")
        .and_then(|v| v.as_array())
        .ok_or("missing traceEvents array")?;
    let mut events = Vec::with_capacity(events_json.len());
    for (i, ev) in events_json.iter().enumerate() {
        let name = ev
            .get("name")
            .and_then(|v| v.as_str())
            .ok_or_else(|| format!("event {i}: missing name"))?
            .to_string();
        let ph = ev
            .get("ph")
            .and_then(|v| v.as_str())
            .ok_or_else(|| format!("event {i}: missing ph"))?
            .to_string();
        let ts_us = ev
            .get("ts")
            .and_then(|v| v.as_f64())
            .ok_or_else(|| format!("event {i}: missing ts"))?;
        let tid = ev.get("tid").and_then(|v| v.as_u64()).unwrap_or(0);
        let (mut trace, mut span, mut parent) = (0u64, 0u64, 0u64);
        let mut attrs = Vec::new();
        if let Some(args) = ev.get("args").and_then(|v| v.as_object()) {
            for (k, v) in args {
                match k.as_str() {
                    "trace" => trace = v.as_u64().unwrap_or(0),
                    "span" => span = v.as_u64().unwrap_or(0),
                    "parent" => parent = v.as_u64().unwrap_or(0),
                    _ => attrs.push((k.clone(), v.clone())),
                }
            }
        }
        events.push(ChromeEvent {
            name,
            ph,
            ts_us,
            tid,
            trace,
            span,
            parent,
            attrs,
        });
    }
    let xar = doc.get("xar");
    let counter = |key: &str| -> u64 {
        xar.and_then(|x| x.get(key))
            .and_then(|v| v.as_u64())
            .unwrap_or(0)
    };
    Ok(ChromeTrace {
        events,
        started_traces: counter("started_traces"),
        kept_traces: counter("kept_traces"),
        sampled_out_traces: counter("sampled_out_traces"),
        dropped_events: counter("dropped_events"),
        has_drop_counter: xar
            .map(|x| x.get("dropped_events").is_some())
            .unwrap_or(false),
    })
}

// ---------------------------------------------------------------------------
// Timelines
// ---------------------------------------------------------------------------

/// A reconstructed span: name, wall-clock bounds, children, and the
/// time not covered by any direct child (self-time).
#[derive(Debug, Clone)]
pub struct SpanNode {
    /// Span name.
    pub name: String,
    /// Start, microseconds.
    pub start_us: f64,
    /// Duration, microseconds (≥ 0 for any trace this module exported).
    pub dur_us: f64,
    /// Duration minus the summed durations of direct children, µs.
    pub self_us: f64,
    /// Attributes from the span's End event.
    pub attrs: Attrs,
    /// Nested spans, in start order.
    pub children: Vec<SpanNode>,
}

/// One complete per-trace timeline: a root span tree.
#[derive(Debug, Clone)]
pub struct Timeline {
    /// Trace id.
    pub trace: u64,
    /// The root span (e.g. `request`).
    pub root: SpanNode,
}

impl Timeline {
    /// Rebuild per-trace span trees from a parsed Chrome trace by
    /// matching `B`/`E` pairs per thread lane. Unmatched events and
    /// instants are skipped (an exported file from this module never
    /// produces either).
    /// Returns timelines sorted by root start time.
    pub fn build(trace: &ChromeTrace) -> Vec<Timeline> {
        // Per-tid open-span stack of partially built nodes.
        struct Open {
            node: SpanNode,
            trace: u64,
            parent_is_root: bool,
        }
        let mut stacks: std::collections::HashMap<u64, Vec<Open>> =
            std::collections::HashMap::new();
        let mut roots: Vec<(u64, SpanNode)> = Vec::new();

        for ev in &trace.events {
            let stack = stacks.entry(ev.tid).or_default();
            match ev.ph.as_str() {
                "B" => {
                    stack.push(Open {
                        node: SpanNode {
                            name: ev.name.clone(),
                            start_us: ev.ts_us,
                            dur_us: 0.0,
                            self_us: 0.0,
                            attrs: Vec::new(),
                            children: Vec::new(),
                        },
                        trace: ev.trace,
                        parent_is_root: stack.is_empty(),
                    });
                }
                "E" => {
                    let Some(mut open) = stack.pop() else {
                        continue;
                    };
                    open.node.dur_us = (ev.ts_us - open.node.start_us).max(0.0);
                    open.node.attrs = ev.attrs.clone();
                    let child_total: f64 = open.node.children.iter().map(|c| c.dur_us).sum();
                    open.node.self_us = (open.node.dur_us - child_total).max(0.0);
                    if open.parent_is_root {
                        roots.push((open.trace, open.node));
                    } else if let Some(parent) = stack.last_mut() {
                        parent.node.children.push(open.node);
                    }
                }
                _ => {}
            }
        }

        let mut timelines: Vec<Timeline> = roots
            .into_iter()
            .map(|(trace, root)| Timeline { trace, root })
            .collect();
        timelines.sort_by(|a, b| {
            a.root
                .start_us
                .partial_cmp(&b.root.start_us)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        timelines
    }

    /// Total events in the root tree (for reporting).
    pub fn span_count(&self) -> usize {
        fn walk(n: &SpanNode) -> usize {
            1 + n.children.iter().map(walk).sum::<usize>()
        }
        walk(&self.root)
    }
}

/// Fold span trees into collapsed stacks: one `frame;frame;… self_ns`
/// line per distinct stack path, where `self_ns` sums
/// `round(self_us × 1000)` over every span on that path. Paths whose
/// weight is zero are dropped, and lines come out sorted by path, so
/// the weights sum to the timelines' root durations (within the 1 ns
/// rounding of each span) and equal inputs give byte-equal output.
/// `;` and whitespace in span names become `_`, so every line splits
/// back into frames and a weight.
pub fn collapse(timelines: &[Timeline]) -> String {
    fn fold(node: &SpanNode, path: &mut String, out: &mut BTreeMap<String, u64>) {
        let len = path.len();
        if len > 0 {
            path.push(';');
        }
        for c in node.name.chars() {
            path.push(if c == ';' || c.is_whitespace() {
                '_'
            } else {
                c
            });
        }
        let self_ns = (node.self_us * 1000.0).round() as u64;
        if self_ns > 0 {
            *out.entry(path.clone()).or_default() += self_ns;
        }
        for child in &node.children {
            fold(child, path, out);
        }
        path.truncate(len);
    }
    let mut stacks = BTreeMap::new();
    let mut path = String::new();
    for t in timelines {
        fold(&t.root, &mut path, &mut stacks);
    }
    let mut out = String::new();
    for (stack, ns) in stacks {
        out.push_str(&stack);
        out.push(' ');
        out.push_str(&ns.to_string());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{Recorder, TraceConfig};

    fn sample_snapshot() -> TraceSnapshot {
        let rec = Recorder::new(TraceConfig::keep_all());
        {
            let mut root = rec.start_root("request");
            root.attr("idx", 1u64);
            {
                let mut s = rec.child_span("search");
                s.attr("candidates", 5u64);
                drop(rec.child_span("enumerate"));
            }
            {
                let _b = rec.child_span("book");
                drop(rec.child_span("shortest_path"));
                drop(rec.child_span("shortest_path"));
            }
        }
        rec.snapshot()
    }

    #[test]
    fn export_parse_round_trip() {
        let snap = sample_snapshot();
        let json = export_chrome(&snap);
        let parsed = parse_chrome(&json).expect("valid JSON");
        // Every B has a matching E per tid.
        let begins = parsed.events.iter().filter(|e| e.ph == "B").count();
        let ends = parsed.events.iter().filter(|e| e.ph == "E").count();
        assert_eq!(begins, ends);
        assert!(parsed.has_drop_counter);
        assert_eq!(parsed.kept_traces, 1);
    }

    #[test]
    fn timeline_rebuilds_nesting_and_self_time() {
        let snap = sample_snapshot();
        let parsed = parse_chrome(&export_chrome(&snap)).unwrap();
        let timelines = Timeline::build(&parsed);
        assert_eq!(timelines.len(), 1);
        let t = &timelines[0];
        assert_eq!(t.root.name, "request");
        let names: Vec<&str> = t.root.children.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["search", "book"]);
        assert_eq!(t.root.children[0].children[0].name, "enumerate");
        assert_eq!(t.root.children[1].children.len(), 2);
        // Self-time never exceeds duration, durations non-negative.
        fn check(n: &SpanNode) {
            assert!(n.dur_us >= 0.0);
            assert!(n.self_us >= 0.0);
            assert!(n.self_us <= n.dur_us + 1e-9);
            n.children.iter().for_each(check);
        }
        check(&t.root);
        assert_eq!(t.span_count(), 6);
    }

    #[test]
    fn collapse_folds_self_time_by_stack_path() {
        let node = |name: &str, dur_us: f64, self_us: f64, children: Vec<SpanNode>| SpanNode {
            name: name.into(),
            start_us: 0.0,
            dur_us,
            self_us,
            attrs: Vec::new(),
            children,
        };
        let timeline = |root: SpanNode| Timeline { trace: 1, root };
        let timelines = [
            timeline(node(
                "request",
                10.0,
                2.0,
                vec![
                    node("search", 5.0, 5.0, vec![]),
                    node("bad name;x", 3.0, 3.0, vec![]),
                ],
            )),
            // A second request merges into the same paths; its zero-self
            // `book` span leaves no line of its own.
            timeline(node(
                "request",
                4.0,
                1.0,
                vec![node("book", 3.0, 0.0, vec![node("sp", 3.0, 3.0, vec![])])],
            )),
        ];
        assert_eq!(
            collapse(&timelines),
            "request 3000\nrequest;bad_name_x 3000\nrequest;book;sp 3000\nrequest;search 5000\n"
        );
        assert!(collapse(&[]).is_empty());
    }

    #[test]
    fn instants_of_older_files_are_skipped() {
        let old = r#"{"traceEvents":[
            {"name":"request","ph":"B","ts":0,"tid":1,"args":{"trace":1,"span":2}},
            {"name":"request.born","ph":"i","s":"t","ts":1,"tid":1,"args":{"trace":1}},
            {"name":"request","ph":"E","ts":9,"tid":1,"args":{"trace":1,"span":2}},
            {"name":"request.picked_up","ph":"i","s":"t","ts":50,"tid":1,"args":{"trace":1}}
        ]}"#;
        let timelines = Timeline::build(&parse_chrome(old).unwrap());
        assert_eq!(timelines.len(), 1);
        assert_eq!(timelines[0].span_count(), 1);
    }

    #[test]
    fn parse_rejects_non_trace_json() {
        assert!(parse_chrome("[]").is_err());
        assert!(parse_chrome(r#"{"traceEvents": 3}"#).is_err());
        assert!(parse_chrome(r#"{"traceEvents": [{"ph":"B"}]}"#).is_err());
    }
}
