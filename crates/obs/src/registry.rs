//! The named-metric registry.
//!
//! A [`Registry`] hands out `Arc` handles to counters and histograms. Hot paths clone the handle once at setup and then
//! record through relaxed atomics — the registry lock is only touched
//! at registration and snapshot time.
//!
//! Every metric name is a *family*; a family holds one unlabeled
//! series plus any number (bounded — see [`MAX_SERIES_PER_FAMILY`]) of
//! *labeled* series distinguished by a small set of `key=value` label
//! pairs ([`Registry::histogram_with`] and friends). Label sets are
//! interned: the first `histogram_with("x", &[("tier", "t2")])` call
//! creates the series, every later call with an equal label set (in
//! any pair order) returns the same `Arc` handle without allocating —
//! so a hot path that cannot pre-resolve its handles can still look
//! one up per operation without touching the allocator, and one that
//! can (the normal case) holds plain `Arc`s and records lock-free.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

use crate::hist::{Histogram, HistogramSnapshot};
use crate::json::JsonWriter;

/// Upper bound on distinct labeled series per family. Labels are for
/// low-cardinality dimensions (a tier, an outcome); once a family reaches the cap, further *new* label sets
/// all collapse into one reserved `{overflow="true"}` series so a
/// cardinality bug degrades a metrics file instead of eating the heap.
pub const MAX_SERIES_PER_FAMILY: usize = 64;

/// Upper bound on label pairs per series (kept tiny on purpose).
pub const MAX_LABELS_PER_SERIES: usize = 4;

/// A monotonically increasing relaxed atomic counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Increment by one.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Increment by `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Clone)]
enum Metric {
    Counter(Arc<Counter>),
    Histogram(Arc<Histogram>),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Histogram(_) => "histogram",
        }
    }
}

/// One metric's state at snapshot time.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricSnapshot {
    /// Counter value.
    Counter(u64),
    /// Histogram percentile summary (with bucket cells).
    Histogram(HistogramSnapshot),
}

/// Interned label set: pairs sorted by key, boxed once at creation.
type LabelSet = Box<[(Box<str>, Box<str>)]>;

/// Order-insensitive equality between a stored (sorted, distinct-key)
/// label set and a borrowed query. No allocation.
fn labels_match(stored: &LabelSet, query: &[(&str, &str)]) -> bool {
    stored.len() == query.len()
        && stored
            .iter()
            .all(|(k, v)| query.iter().any(|&(qk, qv)| qk == &**k && qv == &**v))
}

/// All series sharing one metric name. Exactly one kind per family.
struct Family {
    /// The label-less series, if it has been created.
    unlabeled: Option<Metric>,
    /// Labeled series in creation order (searched linearly: families
    /// are low-cardinality by the `MAX_SERIES_PER_FAMILY` contract).
    labeled: Vec<(LabelSet, Metric)>,
}

impl Family {
    fn kind(&self) -> Option<&'static str> {
        self.unlabeled
            .as_ref()
            .map(Metric::kind)
            .or_else(|| self.labeled.first().map(|(_, m)| m.kind()))
    }
}

/// A named-metric table: counters and histograms keyed by a
/// dotted name (convention: `<subsystem>.<metric>_<unit>`, e.g.
/// `engine.search_ns`), each optionally fanned out into labeled series.
///
/// Handles are `Arc`s resolved once and recorded into lock-free; the
/// registry lock is only taken at resolution and snapshot time:
///
/// ```
/// use xar_obs::Registry;
///
/// let reg = Registry::new();
/// let searches = reg.counter("engine.searches");
/// let latency = reg.histogram("engine.search_ns");
/// searches.inc();
/// latency.record(12_500);
/// assert_eq!(reg.counter("engine.searches").get(), 1); // same series
/// assert!(reg.snapshot_json().contains("\"engine.search_ns\""));
/// ```
#[derive(Default)]
pub struct Registry {
    families: RwLock<BTreeMap<String, Family>>,
    /// Distinct label sets rejected by the per-family cap (folded into
    /// the overflow series).
    label_overflow: AtomicU64,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry")
            .field("families", &self.lock_read().len())
            .finish()
    }
}

/// Label pairs `query` folded into the reserved overflow label set.
const OVERFLOW_LABELS: &[(&str, &str)] = &[("overflow", "true")];

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn lock_read(&self) -> std::sync::RwLockReadGuard<'_, BTreeMap<String, Family>> {
        self.families.read().unwrap_or_else(|e| e.into_inner())
    }

    fn lock_write(&self) -> std::sync::RwLockWriteGuard<'_, BTreeMap<String, Family>> {
        self.families.write().unwrap_or_else(|e| e.into_inner())
    }

    /// Get-or-create the series `(name, labels)`. `make` builds a fresh
    /// metric of the caller's kind; `pick` projects the handle back out
    /// (returning `None` on a kind mismatch, which panics: one family,
    /// one kind).
    fn series_with<T>(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        kind: &'static str,
        make: impl Fn() -> Metric,
        pick: impl Fn(&Metric) -> Option<T>,
    ) -> T {
        assert!(
            labels.len() <= MAX_LABELS_PER_SERIES,
            "metric '{name}': more than {MAX_LABELS_PER_SERIES} labels"
        );
        // Fast path: read lock, allocation-free lookup.
        {
            let map = self.lock_read();
            if let Some(fam) = map.get(name) {
                let found = if labels.is_empty() {
                    fam.unlabeled.as_ref()
                } else {
                    fam.labeled
                        .iter()
                        .find(|(ls, _)| labels_match(ls, labels))
                        .map(|(_, m)| m)
                };
                if let Some(m) = found {
                    return pick(m).unwrap_or_else(|| {
                        panic!(
                            "metric '{name}' already registered with a different type ({})",
                            m.kind()
                        )
                    });
                }
            }
        }
        // Slow path: create under the write lock (re-checking, since
        // another thread may have won the race).
        for (i, (k, _)) in labels.iter().enumerate() {
            assert!(!k.is_empty(), "metric '{name}': empty label key");
            assert!(
                !labels[..i].iter().any(|(pk, _)| pk == k),
                "metric '{name}': duplicate label key '{k}'"
            );
        }
        let mut map = self.lock_write();
        let fam = map.entry(name.to_string()).or_insert_with(|| Family {
            unlabeled: None,
            labeled: Vec::new(),
        });
        // One family, one kind — whichever series was created first
        // fixed it; check before inserting anything.
        if let Some(existing) = fam.kind() {
            assert!(
                existing == kind,
                "metric '{name}' already registered with a different type ({existing})"
            );
        }
        let intern = |pairs: &[(&str, &str)]| -> LabelSet {
            let mut ls: Vec<(Box<str>, Box<str>)> = pairs
                .iter()
                .map(|&(k, v)| (Box::from(k), Box::from(v)))
                .collect();
            ls.sort_by(|a, b| a.0.cmp(&b.0));
            ls.into_boxed_slice()
        };
        let is_overflow_query = labels.len() == 1 && labels[0] == OVERFLOW_LABELS[0];
        let metric = if labels.is_empty() {
            fam.unlabeled.get_or_insert_with(&make).clone()
        } else if let Some((_, m)) = fam.labeled.iter().find(|(ls, _)| labels_match(ls, labels)) {
            m.clone()
        } else if fam.labeled.len() >= MAX_SERIES_PER_FAMILY && !is_overflow_query {
            // Cardinality cap: fold this (new) label set into the
            // reserved overflow series.
            self.label_overflow.fetch_add(1, Ordering::Relaxed);
            match fam
                .labeled
                .iter()
                .find(|(ls, _)| labels_match(ls, OVERFLOW_LABELS))
            {
                Some((_, m)) => m.clone(),
                None => {
                    let m = make();
                    fam.labeled.push((intern(OVERFLOW_LABELS), m.clone()));
                    m
                }
            }
        } else {
            let m = make();
            fam.labeled.push((intern(labels), m.clone()));
            m
        };
        pick(&metric).unwrap_or_else(|| {
            panic!(
                "metric '{name}' already registered with a different type ({})",
                metric.kind()
            )
        })
    }

    /// Get or create the counter named `name` (the unlabeled series).
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric
    /// type.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        self.counter_with(name, &[])
    }

    /// Get or create the counter series `name{labels}`. Pair order is
    /// irrelevant; label keys must be distinct.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric
    /// type, on a duplicate/empty label key, or on more than
    /// [`MAX_LABELS_PER_SERIES`] pairs.
    pub fn counter_with(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        self.series_with(
            name,
            labels,
            "counter",
            || Metric::Counter(Arc::new(Counter::default())),
            |m| match m {
                Metric::Counter(c) => Some(Arc::clone(c)),
                _ => None,
            },
        )
    }

    /// Get or create the histogram named `name` (the unlabeled series).
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric
    /// type.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        self.histogram_with(name, &[])
    }

    /// Get or create the histogram series `name{labels}` (see
    /// [`Registry::counter_with`] for the label contract).
    pub fn histogram_with(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Histogram> {
        self.series_with(
            name,
            labels,
            "histogram",
            || Metric::Histogram(Arc::new(Histogram::new())),
            |m| match m {
                Metric::Histogram(h) => Some(Arc::clone(h)),
                _ => None,
            },
        )
    }

    /// Distinct label sets folded into overflow series so far.
    pub fn label_overflow(&self) -> u64 {
        self.label_overflow.load(Ordering::Relaxed)
    }

    /// Snapshot every series as `(key, value)`, sorted by family name.
    /// Within a family the unlabeled series comes first, keyed `name`,
    /// then the labeled ones in label order, keyed `name{k="v",...}`.
    pub fn snapshot(&self) -> Vec<(String, MetricSnapshot)> {
        let mut out = Vec::new();
        for (name, fam) in self.lock_read().iter() {
            if let Some(m) = &fam.unlabeled {
                out.push((name.clone(), snap_metric(m)));
            }
            let mut labeled: Vec<&(LabelSet, Metric)> = fam.labeled.iter().collect();
            labeled.sort_by(|a, b| a.0.cmp(&b.0));
            for (ls, m) in labeled {
                let pairs: Vec<String> = ls.iter().map(|(k, v)| format!("{k}=\"{v}\"")).collect();
                out.push((format!("{name}{{{}}}", pairs.join(",")), snap_metric(m)));
            }
        }
        let overflow = self.label_overflow();
        if overflow > 0 {
            out.push((
                "obs.label_overflow".into(),
                MetricSnapshot::Counter(overflow),
            ));
        }
        out
    }

    /// Snapshot every metric as a deterministic JSON object.
    ///
    /// Schema: `{"<name>": <u64>}` for counters, and for histograms
    /// `{"<name>": {"count":u64,"sum":u64,"mean":f64,"p50":u64,
    /// "p90":u64,"p99":u64,"max":u64}}`. Labeled series appear under
    /// keys of the form `name{k="v",...}`.
    pub fn snapshot_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        for (name, snap) in self.snapshot() {
            w.key(&name);
            match snap {
                MetricSnapshot::Counter(v) => w.number_u64(v),
                MetricSnapshot::Histogram(h) => write_hist_json(&mut w, &h),
            }
        }
        w.end_object();
        w.finish()
    }
}

fn snap_metric(m: &Metric) -> MetricSnapshot {
    match m {
        Metric::Counter(c) => MetricSnapshot::Counter(c.get()),
        Metric::Histogram(h) => MetricSnapshot::Histogram(h.snapshot()),
    }
}

/// Write one histogram snapshot as a JSON object (shared with the
/// simulator's report dump).
pub(crate) fn write_hist_json(w: &mut JsonWriter, h: &HistogramSnapshot) {
    w.begin_object();
    w.key("count");
    w.number_u64(h.count);
    w.key("sum");
    w.number_u64(h.sum);
    w.key("mean");
    w.number_f64(h.mean);
    w.key("p50");
    w.number_u64(h.p50);
    w.key("p90");
    w.number_u64(h.p90);
    w.key("p99");
    w.number_u64(h.p99);
    w.key("max");
    w.number_u64(h.max);
    w.end_object();
}

/// The process-wide registry, for subsystems (like the road network's
/// shortest-path engines) that have no natural owner to hang a
/// registry off.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_are_shared() {
        let r = Registry::new();
        let a = r.counter("ops");
        let b = r.counter("ops");
        a.inc();
        b.add(2);
        assert_eq!(r.counter("ops").get(), 3);
    }

    #[test]
    #[should_panic(expected = "different type")]
    fn type_mismatch_panics() {
        let r = Registry::new();
        r.counter("x");
        let _ = r.histogram("x");
    }

    #[test]
    #[should_panic(expected = "different type")]
    fn labeled_type_mismatch_panics() {
        let r = Registry::new();
        r.counter_with("x", &[("a", "1")]);
        let _ = r.histogram_with("x", &[("a", "2")]);
    }

    #[test]
    #[should_panic(expected = "duplicate label key")]
    fn duplicate_label_key_panics() {
        let r = Registry::new();
        let _ = r.counter_with("x", &[("a", "1"), ("a", "2")]);
    }

    #[test]
    fn labels_intern_order_insensitively() {
        let r = Registry::new();
        let a = r.counter_with("req", &[("tier", "t2"), ("cluster", "b3")]);
        let b = r.counter_with("req", &[("cluster", "b3"), ("tier", "t2")]);
        a.inc();
        b.inc();
        assert_eq!(
            r.counter_with("req", &[("tier", "t2"), ("cluster", "b3")])
                .get(),
            2
        );
        // A different value is a different series.
        let c = r.counter_with("req", &[("tier", "t1"), ("cluster", "b3")]);
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn unlabeled_and_labeled_coexist() {
        let r = Registry::new();
        r.histogram("h").record(10);
        r.histogram_with("h", &[("tier", "t1")]).record(20);
        let names: Vec<String> = r.snapshot().into_iter().map(|(k, _)| k).collect();
        assert_eq!(names, vec!["h".to_string(), "h{tier=\"t1\"}".to_string()]);
    }

    #[test]
    fn cardinality_cap_folds_into_overflow() {
        let r = Registry::new();
        for i in 0..(MAX_SERIES_PER_FAMILY + 10) {
            r.counter_with("many", &[("i", &i.to_string())]).inc();
        }
        assert_eq!(r.label_overflow(), 10);
        let snap = r.snapshot();
        let total: u64 = snap
            .iter()
            .filter(|(k, _)| k.starts_with("many{"))
            .map(|(_, v)| match v {
                MetricSnapshot::Counter(v) => *v,
                _ => 0,
            })
            .sum();
        assert_eq!(
            total,
            (MAX_SERIES_PER_FAMILY + 10) as u64,
            "counts conserved"
        );
        assert!(snap.iter().any(|(k, _)| k == "many{overflow=\"true\"}"));
        // The overflow series keeps absorbing further new sets.
        r.counter_with("many", &[("i", "zzz")]).inc();
        assert_eq!(r.label_overflow(), 11);
    }

    #[test]
    fn snapshot_json_is_sorted_and_complete() {
        let r = Registry::new();
        r.counter("b.count").add(7);
        r.histogram("a.lat_ns").record(100);
        let json = r.snapshot_json();
        let a = json.find("\"a.lat_ns\"").expect("histogram present");
        let b = json.find("\"b.count\":7").expect("counter present");
        assert!(a < b, "keys not sorted: {json}");
        assert!(json.contains("\"p99\":"));
    }

    #[test]
    fn labeled_series_render_in_snapshot_json() {
        let r = Registry::new();
        r.counter_with("sim.requests", &[("outcome", "booked")])
            .add(3);
        let json = r.snapshot_json();
        assert!(
            json.contains("\"sim.requests{outcome=\\\"booked\\\"}\":3"),
            "{json}"
        );
    }

    #[test]
    fn global_registry_is_a_singleton() {
        global().counter("test.global").inc();
        assert!(global().counter("test.global").get() >= 1);
    }
}
