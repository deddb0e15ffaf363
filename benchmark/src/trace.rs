//! The benchmark's own tracing: one span per call into a layer, kept in
//! memory and written out when the run ends. Spans *inside* the engine
//! (validate / shortest_path / publish / lock_wait) need tracing in the
//! program and are a later issue.

use std::fmt::Write as _;
use std::path::Path;

/// The span names. `Request` is the root of each request; the others
/// are its children, one per call into the engine.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Layer {
    Request,
    Track,
    Search,
    Book,
    Create,
}

impl Layer {
    pub const ALL: [Layer; 5] = [
        Layer::Request,
        Layer::Track,
        Layer::Search,
        Layer::Book,
        Layer::Create,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Layer::Request => "request",
            Layer::Track => "track",
            Layer::Search => "search",
            Layer::Book => "book",
            Layer::Create => "create",
        }
    }
}

/// Parent index of a root span.
pub const NO_PARENT: u32 = u32::MAX;

#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub layer: Layer,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one, or [`NO_PARENT`].
    pub parent: u32,
    /// Replay index of the request; spans of one request share it.
    pub request: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Self time of every span: its duration minus the part of that
/// interval its child spans cover. Children are clipped to the parent
/// and overlapping children are counted once. `spans` must hold each
/// parent before its children and siblings in start order, which is
/// how the replay loop appends them.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    let mut covered_until = vec![0u64; spans.len()];
    for s in spans {
        if s.parent == NO_PARENT {
            continue;
        }
        let p = s.parent as usize;
        let lo = s.start_ns.max(spans[p].start_ns).max(covered_until[p]);
        let hi = s.end_ns.min(spans[p].end_ns);
        if hi > lo {
            covered[p] += hi - lo;
            covered_until[p] = hi;
        }
    }
    spans
        .iter()
        .zip(covered)
        .map(|(s, c)| s.dur_ns() - c)
        .collect()
}

/// Write the spans and the per-layer metrics measured at the same
/// boundaries as one JSON document (spans as rows of
/// `[name index, start_ns, end_ns, parent, request]`, parent −1 for a
/// root).
pub fn write_json(
    path: &Path,
    workload: &str,
    seed: u64,
    spans: &[Span],
    metrics: &[(&str, f64)],
) -> std::io::Result<()> {
    let mut out = String::with_capacity(64 + spans.len() * 40);
    let names: Vec<String> = Layer::ALL
        .iter()
        .map(|l| format!("\"{}\"", l.name()))
        .collect();
    let _ = write!(
        out,
        "{{\"workload\":\"{workload}\",\"seed\":{seed},\"names\":[{}],\
         \"columns\":[\"name\",\"start_ns\",\"end_ns\",\"parent\",\"request\"],\"metrics\":{{",
        names.join(",")
    );
    for (i, (name, value)) in metrics.iter().enumerate() {
        let _ = write!(out, "{}\"{name}\":{value}", if i == 0 { "" } else { "," });
    }
    out.push_str("},\"spans\":[\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = if s.parent == NO_PARENT {
            -1
        } else {
            i64::from(s.parent)
        };
        let _ = writeln!(
            out,
            "[{},{},{},{parent},{}]{}",
            s.layer as u8,
            s.start_ns,
            s.end_ns,
            s.request,
            if i + 1 == spans.len() { "" } else { "," }
        );
    }
    out.push_str("]}\n");
    std::fs::write(path, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: Layer, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span {
            layer,
            start_ns,
            end_ns,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_covered_children() {
        let spans = [
            span(Layer::Request, 100, 200, NO_PARENT),
            span(Layer::Search, 110, 130, 0),
            span(Layer::Book, 140, 190, 0),
            span(Layer::Request, 200, 260, NO_PARENT),
            span(Layer::Create, 210, 250, 3),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 50, 20, 40]);
    }

    #[test]
    fn children_are_clipped_and_overlap_counts_once() {
        let spans = [
            span(Layer::Request, 100, 200, NO_PARENT),
            // Starts before the parent: only 100..120 counts.
            span(Layer::Track, 90, 120, 0),
            // Overlaps the previous child by 10: only 120..150 is new.
            span(Layer::Search, 110, 150, 0),
            // Runs past the parent's end: only 180..200 counts.
            span(Layer::Book, 180, 230, 0),
        ];
        assert_eq!(self_times(&spans)[0], 100 - (20 + 30 + 20));
    }

    #[test]
    fn childless_span_keeps_its_whole_duration() {
        assert_eq!(
            self_times(&[span(Layer::Request, 5, 9, NO_PARENT)]),
            vec![4]
        );
    }
}
