//! Property tests for the request recorder and its Chrome export.
//!
//! Three laws, each over randomized request shapes:
//!
//! 1. **One conserved account** — however small the ring's two budgets
//!    and the per-request span budget, whatever the sampling rate and
//!    however many threads record at once: records kept + dropped ==
//!    emitted (one per request that carries a wide event, sampled or
//!    not), span events kept + dropped == recorded, kept spans stay
//!    balanced, and every wide event's layer split sums exactly to its
//!    `dur_ns`. Eviction loses data by design, never accounting.
//! 2. **Per-thread monotonicity** — events that share a thread lane
//!    carry non-decreasing timestamps, so Chrome's per-tid `B`/`E`
//!    stack discipline can always be replayed.
//! 3. **Export round-trip** — `export_chrome` → `parse_chrome` →
//!    `Timeline::build` reconstructs exactly the nesting that was
//!    recorded: every `B` has its `E`, durations are non-negative, and
//!    children lie inside their parents.

use std::sync::Arc;

use proptest::prelude::*;
use xar_obs::chrome::{export_chrome, parse_chrome, SpanNode, Timeline};
use xar_obs::events::EventRecord;
use xar_obs::trace::{EventKind, Recorder};
use xar_obs::TraceConfig;

/// Span names that land in different layers, so the split is exercised.
const NAMES: [&str; 4] = ["search", "shortest_path", "index_ride", "sim.book"];

/// One request: its children (each with `shape[i] % 3` nested
/// grandchildren) and whether it carries a wide event.
type Shape = (Vec<usize>, bool);

/// Record one root per shape entry; requests that carry an event hand
/// it to the root.
fn record_traces(rec: &Arc<Recorder>, shapes: &[Shape]) {
    for (i, (children, wide)) in shapes.iter().enumerate() {
        let mut root = rec.start_root("request");
        root.attr("children", children.len() as u64);
        for (c, &grands) in children.iter().enumerate() {
            let mut child = rec.child_span(NAMES[c % NAMES.len()]);
            child.attr("grands", grands as u64);
            for g in 0..grands {
                let _g = rec.child_span(NAMES[(c + g + 1) % NAMES.len()]);
            }
        }
        if *wide {
            root.event(EventRecord::new(i as u64));
        }
    }
}

/// Conceptual span-event count for a shape: root B/E + B/E per span.
fn conceptual_events(shapes: &[Shape]) -> usize {
    shapes
        .iter()
        .map(|(s, _)| 2 + s.iter().map(|&g| 2 + 2 * g).sum::<usize>())
        .sum()
}

fn shapes(max: usize) -> impl Strategy<Value = Vec<Shape>> {
    proptest::collection::vec(
        (
            proptest::collection::vec(0usize..4, 0..6),
            (0u8..5).prop_map(|w| w > 0),
        ),
        1..max,
    )
}

fn plain(shapes: Vec<Vec<usize>>) -> Vec<Shape> {
    shapes.into_iter().map(|s| (s, false)).collect()
}

proptest! {
    /// Law 1: both halves of the account conserve under ring eviction,
    /// per-request overflow, sampling and concurrent recorders.
    #[test]
    fn one_account_conserves_records_spans_and_layers(
        shapes in shapes(30),
        capacity_events in 8usize..200,
        capacity_records in 1usize..24,
        max_events_per_trace in 4usize..40,
        sample_per_mille in prop_oneof![Just(0u32), Just(500), Just(1_000)],
        threads in 1usize..4,
    ) {
        let rec = Recorder::new(TraceConfig {
            slow_threshold_ns: u64::MAX,
            sample_per_mille,
            capacity_events,
            capacity_records,
            max_events_per_trace,
        });
        std::thread::scope(|s| {
            for chunk in shapes.chunks(shapes.len().div_ceil(threads)) {
                let rec = Arc::clone(&rec);
                s.spawn(move || record_traces(&rec, chunk));
            }
        });
        let snap = rec.snapshot();
        let st = snap.stats;

        let wide = shapes.iter().filter(|(_, w)| *w).count() as u64;
        let kept_records = snap.records.iter().filter(|r| r.event.is_some()).count() as u64;
        prop_assert_eq!(st.emitted_records, wide, "every wide event is published");
        prop_assert_eq!(kept_records + st.dropped_records, st.emitted_records);
        prop_assert!(kept_records <= capacity_records as u64);

        let kept_spans: u64 = snap.records.iter().map(|r| r.spans.len() as u64).sum();
        prop_assert_eq!(kept_spans + st.dropped_events, st.recorded_events);
        let expected = match sample_per_mille {
            0 => 0,
            1_000 => conceptual_events(&shapes) as u64,
            _ => st.recorded_events.min(conceptual_events(&shapes) as u64),
        };
        prop_assert_eq!(st.recorded_events, expected);
        prop_assert_eq!(st.kept_traces + st.sampled_out_traces, shapes.len() as u64);
        prop_assert_eq!(st.started_traces, shapes.len() as u64);

        for r in &snap.records {
            prop_assert!(r.event.is_some() || !r.spans.is_empty(), "an empty record stayed");
            // Truncation never unbalances kept spans: every Begin still
            // has its End (a B≠E trace is unreconstructable downstream).
            let b = r.spans.iter().filter(|e| e.kind == EventKind::Begin).count();
            prop_assert_eq!(2 * b, r.spans.len(), "unbalanced record {}", r.trace);
            if let Some(ev) = r.event {
                prop_assert_eq!(ev.dur_ns, r.dur_ns);
                prop_assert_eq!(ev.layers.iter().sum::<u64>(), ev.dur_ns, "{:?}", ev);
            }
        }
    }

    /// Law 2: within each thread lane, timestamps never go backwards.
    #[test]
    fn per_thread_timestamps_monotone(
        shapes in proptest::collection::vec(
            proptest::collection::vec(0usize..4, 0..6), 1..10),
    ) {
        let rec = Recorder::new(TraceConfig::keep_all());
        record_traces(&rec, &plain(shapes));
        let snap = rec.snapshot();
        for t in &snap.records {
            let mut last: std::collections::HashMap<u64, u64> =
                std::collections::HashMap::new();
            for ev in &t.spans {
                if let Some(prev) = last.insert(ev.tid, ev.ts_ns) {
                    prop_assert!(
                        ev.ts_ns >= prev,
                        "tid {} went backwards: {} after {}",
                        ev.tid, ev.ts_ns, prev
                    );
                }
            }
        }
    }

    /// Law 3: the Chrome export round-trips the recorded nesting.
    #[test]
    fn chrome_export_round_trips_nesting(
        shapes in proptest::collection::vec(
            proptest::collection::vec(0usize..4, 0..6), 1..10),
    ) {
        let rec = Recorder::new(TraceConfig::keep_all());
        record_traces(&rec, &plain(shapes.clone()));
        let json = export_chrome(&rec.snapshot());
        let parsed = parse_chrome(&json).expect("export must parse");
        prop_assert!(parsed.has_drop_counter);
        prop_assert_eq!(parsed.kept_traces as usize, shapes.len());

        // Every B has a matching E (same span id), pairwise.
        let mut open: std::collections::HashMap<u64, usize> =
            std::collections::HashMap::new();
        for ev in &parsed.events {
            match ev.ph.as_str() {
                "B" => *open.entry(ev.span).or_insert(0) += 1,
                "E" => {
                    let n = open.entry(ev.span).or_insert(0);
                    prop_assert!(*n > 0, "E without B for span {}", ev.span);
                    *n -= 1;
                }
                _ => {}
            }
        }
        prop_assert!(
            open.values().all(|&n| n == 0),
            "unclosed spans in export"
        );

        // Timelines reconstruct the exact generated tree.
        let timelines = Timeline::build(&parsed);
        prop_assert_eq!(timelines.len(), shapes.len());
        // Sort both sides by recording order (trace ids ascend).
        let mut tls: Vec<&Timeline> = timelines.iter().collect();
        tls.sort_by_key(|t| t.trace);
        for (tl, shape) in tls.iter().zip(shapes.iter()) {
            prop_assert_eq!(&tl.root.name, "request");
            prop_assert_eq!(tl.root.children.len(), shape.len());
            for (c, (child, &grands)) in tl.root.children.iter().zip(shape.iter()).enumerate() {
                prop_assert_eq!(&child.name, NAMES[c % NAMES.len()]);
                prop_assert_eq!(child.children.len(), grands);
            }
            check_durations(&tl.root)?;
        }
    }
}

/// Recursive duration sanity: non-negative, self ≤ total, children
/// inside the parent window.
fn check_durations(node: &SpanNode) -> Result<(), TestCaseError> {
    prop_assert!(node.dur_us >= 0.0, "negative duration on {}", node.name);
    prop_assert!(node.self_us >= 0.0, "negative self-time on {}", node.name);
    prop_assert!(node.self_us <= node.dur_us + 1e-6);
    for c in &node.children {
        // Timestamps are µs with sub-µs resolution loss; allow 1 µs.
        prop_assert!(c.start_us >= node.start_us - 1.0);
        prop_assert!(c.start_us + c.dur_us <= node.start_us + node.dur_us + 1.0);
        check_durations(c)?;
    }
    Ok(())
}
