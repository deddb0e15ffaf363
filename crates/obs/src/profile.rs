//! Continuous profiling on top of the flight recorder.
//!
//! The [`trace`](crate::trace) module answers "what happened inside
//! *this* request"; this module answers "where does time go across
//! *all* requests". It has three parts:
//!
//! * [`Profile`] — aggregates kept span trees into a hierarchical
//!   self/total-time profile (one node per distinct span *stack path*,
//!   merged across traces).
//! * Artifact export/import — [`Profile::to_collapsed`] emits
//!   collapsed stacks (flamegraph.pl, inferno and speedscope all load
//!   them) and [`parse_collapsed`] reads them back, so artifacts are
//!   self-validating (round-trip tested).
//! * Exemplars — per-series retention of the trace ids behind the
//!   highest-latency samples ([`exemplar_handle`] / [`ExemplarSlot`]),
//!   rendered by [`promtext`](crate::promtext) in OpenMetrics exemplar
//!   syntax so `/metrics` links straight back to traces.
//!
//! ```
//! use xar_obs::profile::{parse_collapsed, Profile};
//! use xar_obs::trace::{Recorder, TraceConfig};
//!
//! let rec = Recorder::new(TraceConfig::keep_all());
//! {
//!     let _root = rec.start_root("request");
//!     let _child = rec.child_span("search");
//! }
//! let profile = Profile::from_snapshot(&rec.snapshot());
//! let collapsed = profile.to_collapsed();
//! assert!(collapsed.contains("request;search"));
//! assert_eq!(parse_collapsed(&collapsed).unwrap().len(), 2);
//! ```

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use crate::json::JsonWriter;
use crate::trace::{EventKind, TraceSnapshot};

// ---------------------------------------------------------------------------
// Span-tree aggregation
// ---------------------------------------------------------------------------

/// One node of an aggregated profile: a distinct span stack path, with
/// time and invocation counts merged over every occurrence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileNode {
    /// Span name (the innermost frame of this path).
    pub name: String,
    /// Wall time spent in this path, children included.
    pub total_ns: u64,
    /// Wall time spent in this path, children excluded.
    pub self_ns: u64,
    /// Number of spans merged into this node.
    pub count: u64,
    /// Child paths, sorted by descending `total_ns`.
    pub children: Vec<ProfileNode>,
}

/// A hierarchical self/total-time profile aggregated from kept traces.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Profile {
    /// Root spans (request kinds), sorted by descending `total_ns`.
    pub roots: Vec<ProfileNode>,
    /// Number of traces merged in.
    pub traces: u64,
    /// Number of spans merged in.
    pub spans: u64,
}

/// Mutable aggregation node (arena form, finalized into [`ProfileNode`]).
struct ANode {
    name: String,
    total: u64,
    count: u64,
    children: Vec<usize>,
}

struct Arena {
    nodes: Vec<ANode>,
    roots: Vec<usize>,
}

impl Arena {
    fn child_of(&mut self, parent: Option<usize>, name: &str) -> usize {
        let siblings = match parent {
            Some(p) => &self.nodes[p].children,
            None => &self.roots,
        };
        if let Some(&idx) = siblings.iter().find(|&&i| self.nodes[i].name == name) {
            return idx;
        }
        let idx = self.nodes.len();
        self.nodes.push(ANode {
            name: name.to_string(),
            total: 0,
            count: 0,
            children: Vec::new(),
        });
        match parent {
            Some(p) => self.nodes[p].children.push(idx),
            None => self.roots.push(idx),
        }
        idx
    }

    fn finalize(&self, idx: usize) -> ProfileNode {
        let node = &self.nodes[idx];
        let mut children: Vec<ProfileNode> =
            node.children.iter().map(|&c| self.finalize(c)).collect();
        children.sort_by(|a, b| b.total_ns.cmp(&a.total_ns).then(a.name.cmp(&b.name)));
        let child_total: u64 = children.iter().map(|c| c.total_ns).sum();
        ProfileNode {
            name: node.name.clone(),
            total_ns: node.total,
            self_ns: node.total.saturating_sub(child_total),
            count: node.count,
            children,
        }
    }
}

impl Profile {
    /// Aggregate every kept trace in `snap` into one profile. Spans
    /// merge by their stack *path* (root name, then each child name),
    /// so `request → search` accumulates separately from
    /// `request → book` even when both contain a `lock.read_acquire`.
    pub fn from_snapshot(snap: &TraceSnapshot) -> Self {
        let mut arena = Arena { nodes: Vec::new(), roots: Vec::new() };
        let mut spans = 0_u64;
        for trace in &snap.traces {
            // A kept trace is one thread's buffer: its events are in
            // recording order with balanced Begin/End pairs.
            let mut stack: Vec<(usize, u64)> = Vec::new();
            for ev in &trace.events {
                match ev.kind {
                    EventKind::Begin => {
                        let parent = stack.last().map(|&(idx, _)| idx);
                        let idx = arena.child_of(parent, ev.name);
                        stack.push((idx, ev.ts_ns));
                    }
                    EventKind::End => {
                        if let Some((idx, start)) = stack.pop() {
                            arena.nodes[idx].total += ev.ts_ns.saturating_sub(start);
                            arena.nodes[idx].count += 1;
                            spans += 1;
                        }
                    }
                    EventKind::Instant => {}
                }
            }
        }
        let mut roots: Vec<ProfileNode> =
            arena.roots.iter().map(|&r| arena.finalize(r)).collect();
        roots.sort_by(|a, b| b.total_ns.cmp(&a.total_ns).then(a.name.cmp(&b.name)));
        Profile { roots, traces: snap.traces.len() as u64, spans }
    }

    /// Build a profile from `(stack path, self time)` entries — the
    /// inverse of [`Profile::collapsed_entries`], used by the artifact
    /// round-trip tests and by tooling that re-loads saved profiles.
    /// Counts are 1 for listed paths and 0 for implied ancestors.
    pub fn from_entries(entries: &[(Vec<String>, u64)]) -> Self {
        let mut arena = Arena { nodes: Vec::new(), roots: Vec::new() };
        let mut selfs: HashMap<usize, u64> = HashMap::new();
        let mut spans = 0_u64;
        for (path, value) in entries {
            let mut parent = None;
            for name in path {
                parent = Some(arena.child_of(parent, name));
            }
            if let Some(leaf) = parent {
                *selfs.entry(leaf).or_insert(0) += value;
                arena.nodes[leaf].count += 1;
                spans += 1;
            }
        }
        // Totals are self + descendant self, accumulated bottom-up.
        fn fill_total(arena: &mut Arena, selfs: &HashMap<usize, u64>, idx: usize) -> u64 {
            let children = arena.nodes[idx].children.clone();
            let mut total = selfs.get(&idx).copied().unwrap_or(0);
            for c in children {
                total += fill_total(arena, selfs, c);
            }
            arena.nodes[idx].total = total;
            total
        }
        for r in arena.roots.clone() {
            fill_total(&mut arena, &selfs, r);
        }
        let mut roots: Vec<ProfileNode> =
            arena.roots.iter().map(|&r| arena.finalize(r)).collect();
        roots.sort_by(|a, b| b.total_ns.cmp(&a.total_ns).then(a.name.cmp(&b.name)));
        Profile { roots, traces: 0, spans }
    }

    /// Total wall time across all roots.
    pub fn total_ns(&self) -> u64 {
        self.roots.iter().map(|r| r.total_ns).sum()
    }

    /// The canonical `(stack path, self time)` entry list: one entry
    /// per node with non-zero self time, in deterministic DFS order.
    /// The collapsed artifact serializes exactly this.
    pub fn collapsed_entries(&self) -> Vec<(Vec<String>, u64)> {
        fn walk(
            node: &ProfileNode,
            path: &mut Vec<String>,
            out: &mut Vec<(Vec<String>, u64)>,
        ) {
            path.push(node.name.clone());
            if node.self_ns > 0 {
                out.push((path.clone(), node.self_ns));
            }
            for c in &node.children {
                walk(c, path, out);
            }
            path.pop();
        }
        let mut out = Vec::new();
        let mut path = Vec::new();
        for r in &self.roots {
            walk(r, &mut path, &mut out);
        }
        out
    }

    /// Render as collapsed stacks: one `a;b;c <self_ns>` line per
    /// entry, directly loadable by flamegraph.pl and inferno.
    pub fn to_collapsed(&self) -> String {
        let mut out = String::new();
        for (path, value) in self.collapsed_entries() {
            for (i, frame) in path.iter().enumerate() {
                if i > 0 {
                    out.push(';');
                }
                push_frame_sanitized(&mut out, frame);
            }
            out.push(' ');
            out.push_str(&value.to_string());
            out.push('\n');
        }
        out
    }

    /// The `n` heaviest paths by self time, as `(path, self_ns, count)`
    /// with the path joined by `;` — the CLI summary table.
    pub fn top_self(&self, n: usize) -> Vec<(String, u64, u64)> {
        fn walk(node: &ProfileNode, path: &mut Vec<String>, out: &mut Vec<(String, u64, u64)>) {
            path.push(node.name.clone());
            if node.self_ns > 0 {
                out.push((path.join(";"), node.self_ns, node.count));
            }
            for c in &node.children {
                walk(c, path, out);
            }
            path.pop();
        }
        let mut out = Vec::new();
        let mut path = Vec::new();
        for r in &self.roots {
            walk(r, &mut path, &mut out);
        }
        out.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        out.truncate(n);
        out
    }

    /// Render the hierarchical profile as JSON (the `/debug/profile`
    /// payload body).
    pub fn write_json(&self, w: &mut JsonWriter) {
        fn write_node(w: &mut JsonWriter, node: &ProfileNode) {
            w.begin_object();
            w.key("name");
            w.string(&node.name);
            w.key("total_ns");
            w.number_u64(node.total_ns);
            w.key("self_ns");
            w.number_u64(node.self_ns);
            w.key("count");
            w.number_u64(node.count);
            w.key("children");
            w.begin_array();
            for c in &node.children {
                write_node(w, c);
            }
            w.end_array();
            w.end_object();
        }
        w.begin_object();
        w.key("traces");
        w.number_u64(self.traces);
        w.key("spans");
        w.number_u64(self.spans);
        w.key("total_ns");
        w.number_u64(self.total_ns());
        w.key("roots");
        w.begin_array();
        for r in &self.roots {
            write_node(w, r);
        }
        w.end_array();
        w.end_object();
    }
}

/// Collapsed-stack frames must not contain the `;` path separator or
/// the value-separating space; span names are clean identifiers, but
/// sanitize defensively so artifacts always re-parse.
fn push_frame_sanitized(out: &mut String, frame: &str) {
    for c in frame.chars() {
        out.push(match c {
            ';' | ' ' | '\n' | '\t' | '\r' => '_',
            c => c,
        });
    }
}

/// Parse a collapsed-stack document back into `(path, value)` entries.
/// The inverse of [`Profile::to_collapsed`].
pub fn parse_collapsed(text: &str) -> Result<Vec<(Vec<String>, u64)>, String> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let (stack, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("line {}: no value separator", i + 1))?;
        let value: u64 =
            value.parse().map_err(|_| format!("line {}: bad value '{value}'", i + 1))?;
        if stack.is_empty() {
            return Err(format!("line {}: empty stack", i + 1));
        }
        let path: Vec<String> = stack.split(';').map(str::to_string).collect();
        if path.iter().any(String::is_empty) {
            return Err(format!("line {}: empty frame in '{stack}'", i + 1));
        }
        out.push((path, value));
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Exemplars
// ---------------------------------------------------------------------------

/// Exemplar slots retained per series.
pub const EXEMPLARS_PER_SERIES: usize = 4;

/// How long an exemplar stays eligible before any fresh sample may
/// replace it, regardless of value (keeps `/metrics` pointing at
/// recent traces instead of one ancient spike).
pub const EXEMPLAR_RETENTION_MS: u64 = 60_000;

fn now_ms() -> u64 {
    static BASE: OnceLock<Instant> = OnceLock::new();
    let base = BASE.get_or_init(Instant::now);
    // +1 so 0 stays the "empty slot" sentinel.
    u64::try_from(base.elapsed().as_millis()).unwrap_or(u64::MAX - 1) + 1
}

struct ExemplarCell {
    value: AtomicU64,
    trace: AtomicU64,
    ts_ms: AtomicU64,
}

/// Lock-free retention of the highest-valued recent samples of one
/// series, with the trace id that produced each. Obtain via
/// [`exemplar_handle`] at setup; [`ExemplarSlot::offer`] on the hot
/// path is a handful of relaxed atomics and never allocates.
pub struct ExemplarSlot {
    family: String,
    labels: Vec<(String, String)>,
    cells: [ExemplarCell; EXEMPLARS_PER_SERIES],
}

impl std::fmt::Debug for ExemplarSlot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExemplarSlot")
            .field("family", &self.family)
            .field("labels", &self.labels)
            .finish_non_exhaustive()
    }
}

impl ExemplarSlot {
    /// Offer a `(value, trace id)` observation. It is retained when a
    /// slot is empty, stale (older than [`EXEMPLAR_RETENTION_MS`]), or
    /// holds a smaller value — i.e. each series keeps (about) its
    /// [`EXEMPLARS_PER_SERIES`] largest recent samples. Races may drop
    /// an observation; retention is best-effort by design.
    pub fn offer(&self, value: u64, trace: u64) {
        let now = now_ms();
        let mut victim = None;
        let mut victim_value = u64::MAX;
        for cell in &self.cells {
            let ts = cell.ts_ms.load(Ordering::Relaxed);
            let stale = ts == 0 || now.saturating_sub(ts) > EXEMPLAR_RETENTION_MS;
            let v = if stale { 0 } else { cell.value.load(Ordering::Relaxed) };
            if v < victim_value {
                victim_value = v;
                victim = Some(cell);
            }
        }
        let Some(cell) = victim else { return };
        if value >= victim_value || victim_value == 0 {
            cell.value.store(value, Ordering::Relaxed);
            cell.trace.store(trace, Ordering::Relaxed);
            cell.ts_ms.store(now, Ordering::Relaxed);
        }
    }

    /// The metric family this slot belongs to (e.g. `engine.search_ns`).
    pub fn family(&self) -> &str {
        &self.family
    }
}

/// One retained exemplar.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Exemplar {
    /// The observed value (same unit as the series it annotates).
    pub value: u64,
    /// The trace id of the request that produced it.
    pub trace: u64,
    /// Milliseconds since the observation.
    pub age_ms: u64,
}

/// The exemplars of one series, for rendering.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExemplarSeries {
    /// Metric family name (pre-sanitization, e.g. `engine.search_ns`).
    pub family: String,
    /// Label pairs identifying the series within the family.
    pub labels: Vec<(String, String)>,
    /// Retained exemplars, sorted by descending value.
    pub exemplars: Vec<Exemplar>,
}

fn exemplar_store() -> &'static Mutex<Vec<Arc<ExemplarSlot>>> {
    static STORE: OnceLock<Mutex<Vec<Arc<ExemplarSlot>>>> = OnceLock::new();
    STORE.get_or_init(|| Mutex::new(Vec::new()))
}

/// Resolve (or create) the exemplar slot for `family` + `labels`.
/// Process-global, like [`registry::global`](crate::registry::global):
/// repeated resolution returns the same slot. Call at setup, keep the
/// `Arc`, and [`offer`](ExemplarSlot::offer) on the hot path.
pub fn exemplar_handle(family: &str, labels: &[(&str, &str)]) -> Arc<ExemplarSlot> {
    let mut labels: Vec<(String, String)> =
        labels.iter().map(|&(k, v)| (k.to_string(), v.to_string())).collect();
    labels.sort();
    let mut store = exemplar_store().lock().unwrap_or_else(|e| e.into_inner());
    if let Some(slot) =
        store.iter().find(|s| s.family == family && s.labels == labels)
    {
        return Arc::clone(slot);
    }
    let slot = Arc::new(ExemplarSlot {
        family: family.to_string(),
        labels,
        cells: [const {
            ExemplarCell {
                value: AtomicU64::new(0),
                trace: AtomicU64::new(0),
                ts_ms: AtomicU64::new(0),
            }
        }; EXEMPLARS_PER_SERIES],
    });
    store.push(Arc::clone(&slot));
    slot
}

/// Snapshot every series that currently retains at least one fresh
/// exemplar.
pub fn exemplar_snapshot() -> Vec<ExemplarSeries> {
    let now = now_ms();
    let store = exemplar_store().lock().unwrap_or_else(|e| e.into_inner());
    let mut out = Vec::new();
    for slot in store.iter() {
        let mut exemplars: Vec<Exemplar> = slot
            .cells
            .iter()
            .filter_map(|cell| {
                let ts = cell.ts_ms.load(Ordering::Relaxed);
                if ts == 0 || now.saturating_sub(ts) > EXEMPLAR_RETENTION_MS {
                    return None;
                }
                Some(Exemplar {
                    value: cell.value.load(Ordering::Relaxed),
                    trace: cell.trace.load(Ordering::Relaxed),
                    age_ms: now.saturating_sub(ts),
                })
            })
            .collect();
        if exemplars.is_empty() {
            continue;
        }
        exemplars.sort_by(|a, b| b.value.cmp(&a.value).then(a.trace.cmp(&b.trace)));
        out.push(ExemplarSeries {
            family: slot.family.clone(),
            labels: slot.labels.clone(),
            exemplars,
        });
    }
    out
}

// ---------------------------------------------------------------------------
// /debug/profile payload
// ---------------------------------------------------------------------------

/// Aggregate the global recorder's kept traces into the
/// `/debug/profile` JSON document.
pub fn debug_profile_json() -> String {
    let profile = Profile::from_snapshot(&crate::trace::recorder().snapshot());
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("profile");
    profile.write_json(&mut w);
    w.end_object();
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{Recorder, TraceConfig};

    fn sample_profile() -> Profile {
        let rec = Recorder::new(TraceConfig::keep_all());
        for _ in 0..3 {
            let _root = rec.start_root("request");
            {
                let _s = rec.child_span("search");
                let _l = rec.child_span("lock.read_acquire");
            }
            let _b = rec.child_span("book");
        }
        Profile::from_snapshot(&rec.snapshot())
    }

    #[test]
    fn aggregates_by_stack_path() {
        let p = sample_profile();
        assert_eq!(p.traces, 3);
        assert_eq!(p.roots.len(), 1);
        let root = &p.roots[0];
        assert_eq!(root.name, "request");
        assert_eq!(root.count, 3);
        let names: Vec<&str> = root.children.iter().map(|c| c.name.as_str()).collect();
        assert!(names.contains(&"search") && names.contains(&"book"), "{names:?}");
        let search = root.children.iter().find(|c| c.name == "search").unwrap();
        assert_eq!(search.children[0].name, "lock.read_acquire");
        assert_eq!(search.count, 3);
        // Total dominates self; self is total minus children.
        assert!(root.total_ns >= root.self_ns);
        let child_total: u64 = root.children.iter().map(|c| c.total_ns).sum();
        assert_eq!(root.self_ns, root.total_ns - child_total);
    }

    #[test]
    fn collapsed_round_trips() {
        let p = sample_profile();
        let entries = parse_collapsed(&p.to_collapsed()).unwrap();
        assert_eq!(entries, p.collapsed_entries());
    }

    #[test]
    fn from_entries_reconstructs_totals() {
        let entries = vec![
            (vec!["a".to_string()], 5),
            (vec!["a".to_string(), "b".to_string()], 7),
            (vec!["a".to_string(), "c".to_string()], 2),
        ];
        let p = Profile::from_entries(&entries);
        assert_eq!(p.roots.len(), 1);
        assert_eq!(p.roots[0].total_ns, 14);
        assert_eq!(p.roots[0].self_ns, 5);
        let mut got = p.collapsed_entries();
        got.sort();
        let mut want = entries.clone();
        want.sort();
        assert_eq!(got, want);
    }

    #[test]
    fn collapsed_sanitizes_separators() {
        let p = Profile::from_entries(&[(vec!["bad name;x".to_string()], 3)]);
        let text = p.to_collapsed();
        assert_eq!(text, "bad_name_x 3\n");
        assert!(parse_collapsed(&text).is_ok());
    }

    #[test]
    fn parse_collapsed_rejects_malformed() {
        assert!(parse_collapsed("novalue").is_err());
        assert!(parse_collapsed("a;b notanumber").is_err());
        assert!(parse_collapsed(";a 5").is_err());
        assert_eq!(parse_collapsed("\n  \n").unwrap(), vec![]);
    }

    #[test]
    fn exemplar_slot_keeps_largest_recent() {
        let slot = exemplar_handle("test.profile.exemplar_keeps", &[("k", "v")]);
        for (value, trace) in [(10, 1), (50, 2), (30, 3), (40, 4), (20, 5), (60, 6)] {
            slot.offer(value, trace);
        }
        let snap = exemplar_snapshot();
        let series = snap
            .iter()
            .find(|s| s.family == "test.profile.exemplar_keeps")
            .expect("series retained");
        assert_eq!(series.labels, vec![("k".to_string(), "v".to_string())]);
        let values: Vec<u64> = series.exemplars.iter().map(|e| e.value).collect();
        assert_eq!(values, vec![60, 50, 40, 30], "keeps the 4 largest");
        assert_eq!(series.exemplars[0].trace, 6);
    }

    #[test]
    fn exemplar_handle_is_idempotent() {
        let a = exemplar_handle("test.profile.idem", &[("a", "1"), ("b", "2")]);
        let b = exemplar_handle("test.profile.idem", &[("b", "2"), ("a", "1")]);
        assert!(Arc::ptr_eq(&a, &b), "label order must not matter");
    }

    #[test]
    fn debug_profile_json_parses() {
        let doc = crate::json::parse(&debug_profile_json()).unwrap();
        assert!(doc.get("profile").is_some());
    }
}
