//! The request recorder: one record per request, carrying the
//! request's wide event and, when tail sampling keeps them, its spans.
//!
//! Aggregate histograms (the rest of this crate) answer "how slow is
//! p99 search?"; this module answers "*why* was that one request slow,
//! and why was it rejected?". A request opens a [`root`] span, engines
//! open causally nested child [`span`]s under it, and the dispatcher
//! hands the root its [`EventRecord`] (outcome, typed reason, search
//! counts). When the root closes, the recorder publishes one
//! [`Record`]: the wide event, always, with the root's duration and
//! its split by layer filled in, plus the span events when the tail
//! sampler keeps them.
//!
//! Design, in the order the hot path sees it:
//!
//! 1. **Disabled is branch-cheap.** [`span`] / [`root`] first load one
//!    relaxed atomic; when the recorder is off they return a no-op
//!    guard without allocating (guarded by `tests/overhead.rs`).
//! 2. **Recording is lock-free.** While a root is open, span events are
//!    pushed into one thread-local buffer — no atomics, no locks, no
//!    cross-thread traffic. The buffer is bounded per request;
//!    overflowing events are counted, never silently lost, and
//!    Begin/End balance is preserved (an End whose Begin overflowed is
//!    dropped with it). Each closing span adds its self-time to its
//!    layer ([`crate::events::layer_of`]).
//! 3. **Tail sampling at completion.** When the root closes, its spans
//!    are kept — always, if it ran longer than the configured slow
//!    threshold; otherwise with the configured probability
//!    (deterministic in the trace id) — or discarded. The wide event is
//!    kept either way. A root that carries no event and whose spans are
//!    discarded publishes nothing and takes no lock.
//! 4. **One ring, one account.** Records enter one bounded ring behind
//!    one mutex. Past `capacity_events` span events the oldest records
//!    lose their spans (their wide events stay); past
//!    `capacity_records` wide events the oldest records are evicted
//!    whole. The account is conserved in every [`Recorder::snapshot`]:
//!    records kept + dropped == emitted, and span events kept + dropped
//!    == recorded (property-tested in `tests/trace_properties.rs`).
//!
//! The ring has two exports: [`crate::chrome::export_chrome`] writes
//! the spans as Chrome trace-event JSON (`--trace-out`), and
//! [`crate::events::to_jsonl`] writes the wide events as JSONL
//! (`--events-out`).
//!
//! ```
//! use xar_obs::events::EventRecord;
//! use xar_obs::trace::{Recorder, TraceConfig};
//!
//! let rec = Recorder::new(TraceConfig::keep_all());
//! {
//!     let mut root = rec.start_root("request");
//!     root.attr("idx", 7u64);
//!     {
//!         let mut s = rec.child_span("search");
//!         s.attr("candidates", 42u64);
//!     }
//!     root.event(EventRecord::new(7));
//! }
//! let snap = rec.snapshot();
//! assert_eq!(snap.records.len(), 1);
//! let r = &snap.records[0];
//! assert_eq!(r.root_name, "request");
//! // root B/E + child B/E:
//! assert_eq!(r.spans.len(), 4);
//! let ev = r.event.expect("the root carried an event");
//! assert_eq!(ev.dur_ns, r.dur_ns);
//! assert_eq!(ev.layers.iter().sum::<u64>(), ev.dur_ns);
//! ```

use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use crate::events::{layer_of, EventRecord, LAYERS, OTHER};

/// Maximum attributes one event carries; further `attr` calls are
/// silently ignored (attributes are debugging hints, not data).
pub const MAX_ATTRS: usize = 4;

/// An attribute value: small scalars and static strings only, so the
/// record path never allocates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AttrValue {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Float.
    F64(f64),
    /// Static string.
    Str(&'static str),
}

impl From<u64> for AttrValue {
    fn from(v: u64) -> Self {
        Self::U64(v)
    }
}
impl From<usize> for AttrValue {
    fn from(v: usize) -> Self {
        Self::U64(v as u64)
    }
}
impl From<i64> for AttrValue {
    fn from(v: i64) -> Self {
        Self::I64(v)
    }
}
impl From<f64> for AttrValue {
    fn from(v: f64) -> Self {
        Self::F64(v)
    }
}
impl From<&'static str> for AttrValue {
    fn from(v: &'static str) -> Self {
        Self::Str(v)
    }
}

/// A fixed-capacity (no-allocation) attribute list.
#[derive(Debug, Clone, Copy, Default)]
pub struct AttrList([Option<(&'static str, AttrValue)>; MAX_ATTRS]);

impl AttrList {
    /// An empty list.
    pub const fn new() -> Self {
        Self([None; MAX_ATTRS])
    }

    /// Add a key/value pair (ignored once full).
    pub fn push(&mut self, key: &'static str, value: impl Into<AttrValue>) {
        if let Some(slot) = self.0.iter_mut().find(|s| s.is_none()) {
            *slot = Some((key, value.into()));
        }
    }

    /// Iterate over the present pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, AttrValue)> + '_ {
        self.0.iter().filter_map(|s| *s)
    }

    /// Number of present pairs.
    pub fn len(&self) -> usize {
        self.0.iter().filter(|s| s.is_some()).count()
    }

    /// Whether no pairs are present.
    pub fn is_empty(&self) -> bool {
        self.0.iter().all(|s| s.is_none())
    }
}

/// What a span event marks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A span opened (Chrome phase `B`).
    Begin,
    /// A span closed (Chrome phase `E`).
    End,
}

/// One recorded span event.
#[derive(Debug, Clone, Copy)]
pub struct TraceEvent {
    /// Monotonic nanoseconds since the recorder's epoch.
    pub ts_ns: u64,
    /// The trace this event belongs to.
    pub trace: u64,
    /// The span this event marks.
    pub span: u64,
    /// The span's parent span id (0 = the trace root has no parent).
    pub parent: u64,
    /// Begin / End.
    pub kind: EventKind,
    /// Static span name.
    pub name: &'static str,
    /// Small key/value attributes (End events carry the guard's).
    pub attrs: AttrList,
    /// Recording thread (small dense index, not the OS thread id).
    pub tid: u64,
}

/// One published root: the request's wide event and its kept spans.
#[derive(Debug, Clone)]
pub struct Record {
    /// Trace id.
    pub trace: u64,
    /// Name the root span was opened with.
    pub root_name: &'static str,
    /// Root start, nanoseconds since the recorder epoch.
    pub start_ns: u64,
    /// Root duration, nanoseconds.
    pub dur_ns: u64,
    /// Whether the root ran longer than the slow threshold (spans kept
    /// unconditionally) rather than being probabilistically sampled.
    pub slow: bool,
    /// The wide event the root carried, with `dur_ns` and `layers`
    /// filled in; `None` for roots that carry none (tracking sweeps).
    pub event: Option<EventRecord>,
    /// The span events, in recording order. Empty when tail sampling
    /// discarded them or the ring's span budget evicted them.
    pub spans: Vec<TraceEvent>,
}

/// Recorder tunables.
#[derive(Debug, Clone, Copy)]
pub struct TraceConfig {
    /// Roots that run at least this long always keep their spans.
    pub slow_threshold_ns: u64,
    /// Per-mille probability (0..=1000) of keeping a fast root's spans.
    pub sample_per_mille: u32,
    /// Ring budget in span events; past it the oldest records lose
    /// their spans (counted as dropped span events).
    pub capacity_events: usize,
    /// Ring budget in wide events; past it the oldest records are
    /// evicted whole (counted as dropped records).
    pub capacity_records: usize,
    /// Per-request span-event budget; events beyond it are counted as
    /// dropped at publish time (Begin/End balance preserved).
    pub max_events_per_trace: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        Self {
            slow_threshold_ns: 1_000_000, // 1 ms
            sample_per_mille: 10,         // 1 %
            capacity_events: 65_536,
            capacity_records: 65_536,
            max_events_per_trace: 1_024,
        }
    }
}

impl TraceConfig {
    /// Keep every root's spans (tests, snapshots of small runs).
    pub fn keep_all() -> Self {
        Self {
            slow_threshold_ns: 0,
            sample_per_mille: 1_000,
            ..Self::default()
        }
    }

    /// Keep no root's spans: only the wide events reach the ring.
    pub fn events_only() -> Self {
        Self {
            slow_threshold_ns: u64::MAX,
            sample_per_mille: 0,
            ..Self::default()
        }
    }
}

/// Recorder counters at snapshot time. The drop account
/// (`emitted_records`, `dropped_records`, `recorded_events`,
/// `dropped_events`) is read under the ring lock, so it is conserved
/// exactly against the snapshot's records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceStats {
    /// Roots started.
    pub started_traces: u64,
    /// Roots whose spans tail sampling kept.
    pub kept_traces: u64,
    /// Roots whose spans tail sampling discarded.
    pub sampled_out_traces: u64,
    /// Wide events published into the ring.
    pub emitted_records: u64,
    /// Wide events evicted from the ring.
    pub dropped_records: u64,
    /// Span events of kept roots, overflowed ones included.
    pub recorded_events: u64,
    /// Span events lost to per-request overflow or to ring eviction.
    pub dropped_events: u64,
    /// The active slow threshold, nanoseconds.
    pub slow_threshold_ns: u64,
    /// The active sampling probability, per mille.
    pub sample_per_mille: u32,
}

/// Everything the recorder holds, cloned out under one lock.
#[derive(Debug, Clone)]
pub struct TraceSnapshot {
    /// Records, oldest first.
    pub records: Vec<Record>,
    /// Counters.
    pub stats: TraceStats,
}

#[derive(Default)]
struct Account {
    emitted_records: u64,
    dropped_records: u64,
    recorded_events: u64,
    dropped_events: u64,
}

#[derive(Default)]
struct Ring {
    records: VecDeque<Record>,
    /// Records in the ring that carry a wide event.
    wide: usize,
    /// Span events held by the records in the ring.
    span_events: usize,
    /// The first `stripped` records have already lost their spans.
    stripped: usize,
    /// Records left holding nothing: stripped roots without an event.
    empty: usize,
    account: Account,
}

/// The recorder. One global instance serves the whole process (see
/// [`recorder`]); tests construct private ones.
pub struct Recorder {
    enabled: AtomicBool,
    slow_ns: AtomicU64,
    sample_per_mille: AtomicU32,
    capacity_events: AtomicUsize,
    capacity_records: AtomicUsize,
    max_events_per_trace: AtomicUsize,
    next_id: AtomicU64,
    started: AtomicU64,
    kept: AtomicU64,
    sampled_out: AtomicU64,
    epoch: Instant,
    ring: Mutex<Ring>,
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recorder")
            .field("enabled", &self.enabled.load(Ordering::Relaxed))
            .field("stats", &self.stats())
            .finish()
    }
}

// ---------------------------------------------------------------------------
// Thread-local state
// ---------------------------------------------------------------------------

/// An open span on the thread's stack.
struct Open {
    span: u64,
    start_ns: u64,
    /// Summed durations of the span's closed children.
    child_ns: u64,
    layer: usize,
}

/// The thread's open root. Idle while `rec` is `None`; the buffers keep
/// their capacity from one root to the next.
struct Active {
    rec: Option<Arc<Recorder>>,
    trace: u64,
    root_name: &'static str,
    /// Open spans, the root first; the last entry is the current parent.
    stack: Vec<Open>,
    events: Vec<TraceEvent>,
    /// Open spans whose Begin overflowed (their Ends must be dropped
    /// too, to preserve B/E balance).
    overflow_depth: usize,
    overflow: u64,
    max_events: usize,
    tid: u64,
    /// Self-time per layer of the spans closed so far.
    layers: [u64; LAYERS.len()],
}

thread_local! {
    static ACTIVE: RefCell<Active> = const {
        RefCell::new(Active {
            rec: None,
            trace: 0,
            root_name: "",
            stack: Vec::new(),
            events: Vec::new(),
            overflow_depth: 0,
            overflow: 0,
            max_events: 0,
            tid: 0,
            layers: [0; LAYERS.len()],
        })
    };
    static THREAD_IDX: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

fn thread_idx() -> u64 {
    THREAD_IDX.with(|c| {
        let v = c.get();
        if v != 0 {
            return v;
        }
        static NEXT: AtomicU64 = AtomicU64::new(1);
        let v = NEXT.fetch_add(1, Ordering::Relaxed);
        c.set(v);
        v
    })
}

/// SplitMix64 — the keep/drop coin for tail sampling, deterministic in
/// the trace id so tests and re-runs agree.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl Recorder {
    /// A recorder with the given tunables, initially **enabled**.
    /// (The process-global recorder from [`recorder`] starts disabled.)
    pub fn new(config: TraceConfig) -> Arc<Self> {
        let rec = Self {
            enabled: AtomicBool::new(true),
            slow_ns: AtomicU64::new(0),
            sample_per_mille: AtomicU32::new(0),
            capacity_events: AtomicUsize::new(0),
            capacity_records: AtomicUsize::new(0),
            max_events_per_trace: AtomicUsize::new(0),
            next_id: AtomicU64::new(1),
            started: AtomicU64::new(0),
            kept: AtomicU64::new(0),
            sampled_out: AtomicU64::new(0),
            epoch: Instant::now(),
            ring: Mutex::new(Ring::default()),
        };
        rec.configure(config);
        Arc::new(rec)
    }

    /// Replace the tunables (takes effect for roots started after the
    /// call).
    pub fn configure(&self, config: TraceConfig) {
        self.slow_ns
            .store(config.slow_threshold_ns, Ordering::Relaxed);
        self.sample_per_mille
            .store(config.sample_per_mille.min(1_000), Ordering::Relaxed);
        self.capacity_events
            .store(config.capacity_events, Ordering::Relaxed);
        self.capacity_records
            .store(config.capacity_records.max(1), Ordering::Relaxed);
        self.max_events_per_trace
            .store(config.max_events_per_trace, Ordering::Relaxed);
    }

    /// Turn recording on or off. Off makes every tracing entry point a
    /// single relaxed load plus a branch.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Whether recording is on.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Would tail sampling keep trace id `trace`'s spans absent
    /// slowness?
    pub fn would_sample(&self, trace: u64) -> bool {
        (splitmix64(trace) % 1_000) < u64::from(self.sample_per_mille.load(Ordering::Relaxed))
    }

    /// Start a root span, making `name` the open root on this thread.
    /// Returns a no-op guard if the recorder is disabled or a root is
    /// already open on this thread (nested roots do not stack).
    pub fn start_root(self: &Arc<Self>, name: &'static str) -> RootSpan {
        if !self.enabled() {
            return RootSpan::DISARMED;
        }
        ACTIVE.with(|a| {
            let mut a = a.borrow_mut();
            if a.rec.is_some() {
                return RootSpan::DISARMED;
            }
            self.started.fetch_add(1, Ordering::Relaxed);
            let trace = self.next_id.fetch_add(2, Ordering::Relaxed);
            let root_span = trace + 1;
            let start_ns = self.now_ns();
            let tid = thread_idx();
            a.rec = Some(Arc::clone(self));
            a.trace = trace;
            a.root_name = name;
            a.stack.clear();
            a.stack.push(Open {
                span: root_span,
                start_ns,
                child_ns: 0,
                layer: OTHER,
            });
            a.events.clear();
            a.events.reserve(64);
            a.overflow_depth = 0;
            a.overflow = 0;
            a.max_events = self.max_events_per_trace.load(Ordering::Relaxed);
            a.tid = tid;
            a.layers = [0; LAYERS.len()];
            a.push(TraceEvent {
                ts_ns: start_ns,
                trace,
                span: root_span,
                parent: 0,
                kind: EventKind::Begin,
                name,
                attrs: AttrList::new(),
                tid,
            });
            RootSpan {
                armed: true,
                attrs: AttrList::new(),
                event: None,
            }
        })
    }

    /// Open a child span under the root open on this thread (no-op
    /// guard when disabled or no root is open).
    pub fn child_span(self: &Arc<Self>, name: &'static str) -> Span {
        if !self.enabled() {
            return Span::disarmed(name);
        }
        ACTIVE.with(|a| {
            let mut a = a.borrow_mut();
            if !a.rec.as_ref().is_some_and(|r| Arc::ptr_eq(r, self)) {
                return Span::disarmed(name);
            }
            a.begin_child(name);
            Span {
                armed: true,
                name,
                attrs: AttrList::new(),
            }
        })
    }

    /// Publish one closed root into the ring, then enforce both budgets.
    fn publish(&self, record: Record, overflowed: u64) {
        let mut ring = self.ring.lock().unwrap_or_else(|e| e.into_inner());
        let ring = &mut *ring;
        let spans = record.spans.len() as u64;
        ring.account.recorded_events += spans + overflowed;
        ring.account.dropped_events += overflowed;
        if record.event.is_some() {
            ring.account.emitted_records += 1;
            ring.wide += 1;
        }
        ring.span_events += record.spans.len();
        ring.records.push_back(record);

        // Span budget: strip the oldest records' spans, never the
        // newest record's (a truncated-but-whole trace beats none).
        let cap = self.capacity_events.load(Ordering::Relaxed);
        while ring.span_events > cap && ring.stripped + 1 < ring.records.len() {
            let record = &mut ring.records[ring.stripped];
            let spans = std::mem::take(&mut record.spans);
            ring.empty += usize::from(record.event.is_none());
            ring.span_events -= spans.len();
            ring.account.dropped_events += spans.len() as u64;
            ring.stripped += 1;
        }
        // Record budget: evict whole records from the front, and with
        // them any front record that no longer holds anything.
        let cap = self.capacity_records.load(Ordering::Relaxed);
        while let Some(front) = ring.records.front() {
            let empty = front.event.is_none() && front.spans.is_empty();
            if !empty && ring.wide <= cap {
                break;
            }
            let evicted = ring.records.pop_front().expect("front exists");
            if evicted.event.is_some() {
                ring.wide -= 1;
                ring.account.dropped_records += 1;
            }
            ring.empty -= usize::from(empty);
            ring.span_events -= evicted.spans.len();
            ring.account.dropped_events += evicted.spans.len() as u64;
            ring.stripped = ring.stripped.saturating_sub(1);
        }
        // Empty records sit in the stripped prefix, behind older wide
        // events; drop them once they are half the ring.
        if ring.empty * 2 > ring.records.len() {
            ring.records
                .retain(|r| r.event.is_some() || !r.spans.is_empty());
            ring.stripped -= ring.empty;
            ring.empty = 0;
        }
    }

    /// Clone out every record that still holds something, and every
    /// counter, under one lock.
    pub fn snapshot(&self) -> TraceSnapshot {
        let ring = self.ring.lock().unwrap_or_else(|e| e.into_inner());
        let records = ring
            .records
            .iter()
            .filter(|r| r.event.is_some() || !r.spans.is_empty())
            .cloned()
            .collect();
        TraceSnapshot {
            records,
            stats: self.stats_of(&ring),
        }
    }

    /// Current counters.
    pub fn stats(&self) -> TraceStats {
        let ring = self.ring.lock().unwrap_or_else(|e| e.into_inner());
        self.stats_of(&ring)
    }

    fn stats_of(&self, ring: &Ring) -> TraceStats {
        TraceStats {
            started_traces: self.started.load(Ordering::Relaxed),
            kept_traces: self.kept.load(Ordering::Relaxed),
            sampled_out_traces: self.sampled_out.load(Ordering::Relaxed),
            emitted_records: ring.account.emitted_records,
            dropped_records: ring.account.dropped_records,
            recorded_events: ring.account.recorded_events,
            dropped_events: ring.account.dropped_events,
            slow_threshold_ns: self.slow_ns.load(Ordering::Relaxed),
            sample_per_mille: self.sample_per_mille.load(Ordering::Relaxed),
        }
    }

    /// Discard every record and zero every counter.
    pub fn clear(&self) {
        let mut ring = self.ring.lock().unwrap_or_else(|e| e.into_inner());
        *ring = Ring::default();
        for c in [&self.started, &self.kept, &self.sampled_out] {
            c.store(0, Ordering::Relaxed);
        }
    }
}

impl Active {
    fn push(&mut self, ev: TraceEvent) {
        if self.events.len() >= self.max_events {
            self.overflow += 1;
            return;
        }
        self.events.push(ev);
    }

    fn begin_child(&mut self, name: &'static str) {
        // +1 below reserves room for the matching End, so a Begin that
        // fits never strands an unmatched End in the overflow counter.
        if self.events.len() + 1 >= self.max_events {
            self.overflow_depth += 1;
            self.overflow += 2; // the Begin and its future End
            return;
        }
        let rec = self.rec.as_ref().expect("a root is open");
        let span = rec.next_id.fetch_add(1, Ordering::Relaxed);
        let ts_ns = rec.now_ns();
        let parent = self.stack.last().expect("root always open").span;
        self.stack.push(Open {
            span,
            start_ns: ts_ns,
            child_ns: 0,
            layer: layer_of(name),
        });
        self.events.push(TraceEvent {
            ts_ns,
            trace: self.trace,
            span,
            parent,
            kind: EventKind::Begin,
            name,
            attrs: AttrList::new(),
            tid: self.tid,
        });
    }

    fn end_child(&mut self, name: &'static str, attrs: AttrList) {
        if self.overflow_depth > 0 {
            self.overflow_depth -= 1;
            return; // the End's budget was charged with its Begin
        }
        if self.stack.len() <= 1 {
            return; // unbalanced end (guard leaked across root) — ignore
        }
        let open = self.stack.pop().expect("len > 1");
        let ts_ns = self.rec.as_ref().expect("a root is open").now_ns();
        let dur = ts_ns.saturating_sub(open.start_ns);
        self.layers[open.layer] += dur.saturating_sub(open.child_ns);
        let parent = self.stack.last_mut().expect("root below");
        parent.child_ns += dur;
        let parent = parent.span;
        // End events always fit: begin_child reserved the slot.
        self.events.push(TraceEvent {
            ts_ns,
            trace: self.trace,
            span: open.span,
            parent,
            kind: EventKind::End,
            name,
            attrs,
            tid: self.tid,
        });
    }

    /// Close the root: stamp the event, run tail sampling and publish.
    fn close(&mut self, attrs: AttrList, event: Option<EventRecord>) {
        let Some(rec) = self.rec.take() else { return };
        let end_ns = rec.now_ns();
        let root = &self.stack[0];
        let (root_span, start_ns) = (root.span, root.start_ns);
        let dur_ns = end_ns.saturating_sub(start_ns);
        // Close the root span itself. The push is unconditional: like
        // child Ends, the root End may softly exceed the event budget,
        // because a truncated-but-balanced trace is usable and an
        // unclosed root is not (Timeline::build would drop it).
        self.events.push(TraceEvent {
            ts_ns: end_ns,
            trace: self.trace,
            span: root_span,
            parent: 0,
            kind: EventKind::End,
            name: self.root_name,
            attrs,
            tid: self.tid,
        });
        let slow = dur_ns >= rec.slow_ns.load(Ordering::Relaxed);
        let keep_spans = slow || rec.would_sample(self.trace);
        let counter = if keep_spans {
            &rec.kept
        } else {
            &rec.sampled_out
        };
        counter.fetch_add(1, Ordering::Relaxed);
        let event = event.map(|mut ev| {
            // Whatever no layer claimed — the root's own time, dispatch
            // and unnamed spans — is `other`, so the split sums exactly.
            let named: u64 = self.layers[..OTHER].iter().sum();
            self.layers[OTHER] = dur_ns.saturating_sub(named);
            ev.dur_ns = dur_ns;
            ev.layers = self.layers;
            ev
        });
        if !keep_spans && event.is_none() {
            return;
        }
        let (spans, overflowed) = if keep_spans {
            (std::mem::take(&mut self.events), self.overflow)
        } else {
            (Vec::new(), 0)
        };
        rec.publish(
            Record {
                trace: self.trace,
                root_name: self.root_name,
                start_ns,
                dur_ns,
                slow,
                event,
                spans,
            },
            overflowed,
        );
    }
}

// ---------------------------------------------------------------------------
// Guards
// ---------------------------------------------------------------------------

/// Guard for a root span. On drop the root closes: its wide event (if
/// handed one) is published, and tail sampling keeps or discards its
/// spans.
#[derive(Debug)]
#[must_use = "dropping the guard ends the trace"]
pub struct RootSpan {
    armed: bool,
    attrs: AttrList,
    event: Option<EventRecord>,
}

impl RootSpan {
    const DISARMED: RootSpan = RootSpan {
        armed: false,
        attrs: AttrList::new(),
        event: None,
    };

    /// Attach an attribute to the root span's End event.
    pub fn attr(&mut self, key: &'static str, value: impl Into<AttrValue>) {
        if self.armed {
            self.attrs.push(key, value);
        }
    }

    /// Hand the root the request's wide event, published when the root
    /// closes with `dur_ns` and `layers` filled in. A no-op when the
    /// guard does not record.
    pub fn event(&mut self, event: EventRecord) {
        if self.armed {
            self.event = Some(event);
        }
    }

    /// Whether this guard actually records (false when tracing is off).
    pub fn is_recording(&self) -> bool {
        self.armed
    }
}

impl Drop for RootSpan {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        let (attrs, event) = (self.attrs, self.event.take());
        ACTIVE.with(|a| a.borrow_mut().close(attrs, event));
    }
}

/// RAII guard for a child span; records the End event (with any
/// attributes) on drop.
#[derive(Debug)]
pub struct Span {
    armed: bool,
    name: &'static str,
    attrs: AttrList,
}

impl Span {
    fn disarmed(name: &'static str) -> Self {
        Span {
            armed: false,
            name,
            attrs: AttrList::new(),
        }
    }

    /// Attach an attribute to the span's End event.
    pub fn attr(&mut self, key: &'static str, value: impl Into<AttrValue>) {
        if self.armed {
            self.attrs.push(key, value);
        }
    }

    /// Whether this guard actually records (false when tracing is off
    /// or no root is open).
    pub fn is_recording(&self) -> bool {
        self.armed
    }

    /// End the span now instead of at scope end.
    pub fn stop(self) {
        drop(self);
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        let (name, attrs) = (self.name, self.attrs);
        ACTIVE.with(|a| {
            let mut a = a.borrow_mut();
            if a.rec.is_some() {
                a.end_child(name, attrs);
            }
        });
    }
}

// ---------------------------------------------------------------------------
// Process-global entry points (what the engines call)
// ---------------------------------------------------------------------------

/// The process-wide recorder. Starts **disabled** — every span helper
/// below is a single relaxed load + branch until something (the CLI's
/// `--trace-out` / `--events-out`, a harness, a test) enables it.
pub fn recorder() -> &'static Arc<Recorder> {
    static GLOBAL: OnceLock<Arc<Recorder>> = OnceLock::new();
    GLOBAL.get_or_init(|| {
        let rec = Recorder::new(TraceConfig::default());
        rec.set_enabled(false);
        rec
    })
}

/// Start a root on the global recorder (no-op guard if recording is
/// disabled or a root is already open on this thread).
#[inline]
pub fn root(name: &'static str) -> RootSpan {
    let rec = recorder();
    if !rec.enabled() {
        return RootSpan::DISARMED;
    }
    rec.start_root(name)
}

/// Open a child span on the global recorder. When recording is disabled
/// this is one relaxed atomic load, a branch, and a no-alloc guard.
#[inline]
pub fn span(name: &'static str) -> Span {
    let rec = recorder();
    if !rec.enabled() {
        return Span::disarmed(name);
    }
    rec.child_span(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request(rec: &Arc<Recorder>, id: u64, children: usize) {
        let mut root = rec.start_root("request");
        for _ in 0..children {
            drop(rec.child_span("child"));
        }
        root.event(EventRecord::new(id));
    }

    #[test]
    fn root_and_children_publish_in_order() {
        let rec = Recorder::new(TraceConfig::keep_all());
        {
            let mut root = rec.start_root("request");
            root.attr("idx", 3u64);
            {
                let mut s = rec.child_span("search");
                s.attr("candidates", 9u64);
                let inner = rec.child_span("shortest_path");
                drop(inner);
            }
        }
        let snap = rec.snapshot();
        assert_eq!(snap.records.len(), 1);
        let t = &snap.records[0];
        assert_eq!(t.root_name, "request");
        assert!(t.event.is_none());
        // B(request) B(search) B(sp) E(sp) E(search) E(request)
        let kinds: Vec<EventKind> = t.spans.iter().map(|e| e.kind).collect();
        use EventKind::{Begin, End};
        assert_eq!(kinds, [Begin, Begin, Begin, End, End, End]);
        // Causality: sp's parent is search, search's parent is root.
        assert_eq!(t.spans[1].parent, t.spans[0].span);
        assert_eq!(t.spans[2].parent, t.spans[1].span);
        // Timestamps are monotone within the thread.
        assert!(t.spans.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns));
    }

    #[test]
    fn sampling_discards_spans_but_keeps_events() {
        let rec = Recorder::new(TraceConfig::events_only());
        for i in 0..32 {
            request(&rec, i, 2);
        }
        // A root without an event and without kept spans leaves nothing.
        drop(rec.start_root("track"));
        let snap = rec.snapshot();
        assert_eq!(snap.records.len(), 32);
        assert!(snap
            .records
            .iter()
            .all(|r| r.spans.is_empty() && r.event.is_some()));
        assert_eq!(snap.stats.sampled_out_traces, 33);
        assert_eq!(snap.stats.kept_traces, 0);
        assert_eq!(snap.stats.emitted_records, 32);
        assert_eq!(snap.stats.recorded_events, 0);
    }

    #[test]
    fn slow_traces_always_kept() {
        let cfg = TraceConfig {
            slow_threshold_ns: 0,
            sample_per_mille: 0,
            ..TraceConfig::default()
        };
        let rec = Recorder::new(cfg);
        drop(rec.start_root("request"));
        let snap = rec.snapshot();
        assert_eq!(snap.records.len(), 1);
        assert!(snap.records[0].slow);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let rec = Recorder::new(TraceConfig::keep_all());
        rec.set_enabled(false);
        {
            let mut root = rec.start_root("request");
            assert!(!root.is_recording());
            root.event(EventRecord::new(1));
            let s = rec.child_span("child");
            assert!(!s.is_recording());
        }
        assert!(rec.snapshot().records.is_empty());
        assert_eq!(rec.stats().started_traces, 0);
    }

    #[test]
    fn span_without_open_root_is_noop() {
        let rec = Recorder::new(TraceConfig::keep_all());
        let s = rec.child_span("orphan");
        assert!(!s.is_recording());
        drop(s);
        assert!(rec.snapshot().records.is_empty());
    }

    #[test]
    fn span_budget_strips_spans_and_keeps_events() {
        let cfg = TraceConfig {
            capacity_events: 8,
            ..TraceConfig::keep_all()
        };
        let rec = Recorder::new(cfg);
        for i in 0..10 {
            request(&rec, i, 1); // root B/E + child B/E
        }
        let snap = rec.snapshot();
        assert_eq!(snap.records.len(), 10, "every wide event stays");
        let in_ring: u64 = snap.records.iter().map(|r| r.spans.len() as u64).sum();
        assert!(in_ring <= 8);
        assert_eq!(in_ring + snap.stats.dropped_events, 40);
        assert_eq!(snap.stats.recorded_events, 40);
        // Only the oldest records lost their spans.
        assert!(!snap.records[9].spans.is_empty());
        assert!(snap.records[0].spans.is_empty());
    }

    #[test]
    fn record_budget_evicts_oldest_whole() {
        let cfg = TraceConfig {
            capacity_records: 8,
            ..TraceConfig::keep_all()
        };
        let rec = Recorder::new(cfg);
        for i in 0..20 {
            request(&rec, i, 1);
        }
        let snap = rec.snapshot();
        let st = snap.stats;
        assert_eq!((st.emitted_records, st.dropped_records), (20, 12));
        assert_eq!(snap.records.len(), 8);
        assert_eq!(snap.records[0].event.map(|e| e.request_id), Some(12));
        assert_eq!(st.dropped_events, 12 * 4);
    }

    #[test]
    fn per_trace_overflow_keeps_balance_and_count() {
        let cfg = TraceConfig {
            max_events_per_trace: 6,
            ..TraceConfig::keep_all()
        };
        let rec = Recorder::new(cfg);
        request(&rec, 0, 10);
        let snap = rec.snapshot();
        let t = &snap.records[0];
        // Balance: every Begin has an End.
        let begins = t
            .spans
            .iter()
            .filter(|e| e.kind == EventKind::Begin)
            .count();
        assert_eq!(begins * 2, t.spans.len());
        // Count: kept + dropped == all 22 events (root B/E + 10×2).
        assert_eq!(t.spans.len() as u64 + snap.stats.dropped_events, 22);
        // The overflowed children's time went to `other`; the split
        // still sums to the root.
        let ev = t.event.expect("event kept");
        assert_eq!(ev.layers.iter().sum::<u64>(), ev.dur_ns);
    }

    #[test]
    fn layers_take_self_time_and_sum_to_the_root() {
        let rec = Recorder::new(TraceConfig::keep_all());
        {
            let mut root = rec.start_root("request");
            {
                let _search = rec.child_span("search");
                let _e = rec.child_span("enumerate_src");
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            {
                let _book = rec.child_span("book");
                let _sp = rec.child_span("shortest_path");
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            root.event(EventRecord::new(1));
        }
        let ev = rec.snapshot().records[0].event.expect("event");
        assert_eq!(ev.layers.iter().sum::<u64>(), ev.dur_ns);
        let layer = |name: &str| ev.layers[LAYERS.iter().position(|l| *l == name).unwrap()];
        assert!(layer("search") >= 1_000_000, "{ev:?}");
        assert!(layer("shortest_path") >= 1_000_000, "{ev:?}");
        assert_eq!(layer("lock"), 0);
    }

    #[test]
    fn attr_list_caps_at_max() {
        let mut a = AttrList::new();
        for i in 0..10u64 {
            a.push("k", i);
        }
        assert_eq!(a.len(), MAX_ATTRS);
    }
}
