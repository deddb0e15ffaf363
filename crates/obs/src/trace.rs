//! Request-scoped tracing: a bounded flight recorder with causal
//! spans and tail-based sampling.
//!
//! Aggregate histograms (the rest of this crate) answer "how slow is
//! p99 search?"; this module answers "*why* was that one search slow?"
//! by recording a per-request timeline of causally nested spans — each
//! event carries a monotonic timestamp, a trace id, a span id and its
//! parent span id, a static name and a handful of key/value attributes.
//!
//! Design, in the order the hot path sees it:
//!
//! 1. **Disabled is branch-cheap.** [`span`] / [`root`] / [`instant`]
//!    first load one relaxed atomic; when tracing is off they return a
//!    no-op guard without allocating (guarded by the overhead test in
//!    `tests/overhead.rs`).
//! 2. **Recording is lock-free.** While a trace is active, events are
//!    pushed into a thread-local buffer owned by the current request —
//!    no atomics, no locks, no cross-thread traffic. Each trace's
//!    buffer is bounded; overflowing events are counted, never silently
//!    lost, and Begin/End balance is preserved (an End whose Begin
//!    overflowed is dropped with it).
//! 3. **Tail sampling at completion.** When the root span ends, the
//!    whole trace is either *kept* — always, if it ran longer than the
//!    configured slow threshold; otherwise with the configured
//!    probability (deterministic in the trace id) — or discarded
//!    wholesale. Only kept traces pay the one uncontended mutex lock to
//!    publish into the global ring.
//! 4. **The ring is a flight recorder.** A bounded ring of kept
//!    traces; publishing past capacity evicts the oldest whole traces
//!    and adds their event counts to the dropped-event counter, so
//!    `kept events + dropped events` always equals everything ever
//!    published (property-tested in `tests/trace_properties.rs`).
//!
//! Export via [`crate::chrome::export_chrome`] (Chrome trace-event
//! JSON, loadable in Perfetto / `chrome://tracing`) or walk the
//! [`Recorder::snapshot`] directly.
//!
//! ```
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
//! }
//! let snap = rec.snapshot();
//! assert_eq!(snap.traces.len(), 1);
//! assert_eq!(snap.traces[0].root_name, "request");
//! // root B/E + child B/E:
//! assert_eq!(snap.traces[0].events.len(), 4);
//! ```

use std::cell::RefCell;
use std::collections::{HashSet, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

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
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a key/value pair (ignored once full).
    pub fn push(&mut self, key: &'static str, value: impl Into<AttrValue>) {
        if let Some(slot) = self.0.iter_mut().find(|s| s.is_none()) {
            *slot = Some((key, value.into()));
        }
    }

    /// Builder-style [`AttrList::push`].
    pub fn with(mut self, key: &'static str, value: impl Into<AttrValue>) -> Self {
        self.push(key, value);
        self
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

/// What an event marks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A span opened (Chrome phase `B`).
    Begin,
    /// A span closed (Chrome phase `E`).
    End,
    /// A point-in-time marker (Chrome phase `i`).
    Instant,
}

/// One recorded event.
#[derive(Debug, Clone, Copy)]
pub struct TraceEvent {
    /// Monotonic nanoseconds since the recorder's epoch.
    pub ts_ns: u64,
    /// The trace this event belongs to.
    pub trace: u64,
    /// The span this event belongs to (the marked span for Begin/End,
    /// the enclosing span for Instant; 0 = none).
    pub span: u64,
    /// The span's parent span id (0 = the trace root has no parent).
    pub parent: u64,
    /// Begin / End / Instant.
    pub kind: EventKind,
    /// Static event name.
    pub name: &'static str,
    /// Small key/value attributes.
    pub attrs: AttrList,
    /// Recording thread (small dense index, not the OS thread id).
    pub tid: u64,
}

/// One kept (published) trace.
#[derive(Debug, Clone)]
pub struct KeptTrace {
    /// Trace id.
    pub trace: u64,
    /// Name the root span was opened with.
    pub root_name: &'static str,
    /// Root start, nanoseconds since the recorder epoch.
    pub start_ns: u64,
    /// Root duration, nanoseconds.
    pub dur_ns: u64,
    /// Whether the trace ran longer than the slow threshold (kept
    /// unconditionally) rather than being probabilistically sampled.
    pub slow: bool,
    /// The events, in per-thread recording order.
    pub events: Vec<TraceEvent>,
}

/// Recorder tunables.
#[derive(Debug, Clone, Copy)]
pub struct TraceConfig {
    /// Traces whose root runs at least this long are always kept.
    pub slow_threshold_ns: u64,
    /// Per-mille probability (0..=1000) of keeping a non-slow trace.
    pub sample_per_mille: u32,
    /// Ring capacity in events; publishing past it evicts the oldest
    /// traces (their event counts go to the dropped counter).
    pub capacity_events: usize,
    /// Per-trace event budget; events beyond it are counted as dropped
    /// at publish time (Begin/End balance preserved).
    pub max_events_per_trace: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        Self {
            slow_threshold_ns: 1_000_000, // 1 ms
            sample_per_mille: 10,         // 1 %
            capacity_events: 65_536,
            max_events_per_trace: 1_024,
        }
    }
}

impl TraceConfig {
    /// Keep every trace (tests, snapshots of small runs).
    pub fn keep_all() -> Self {
        Self { slow_threshold_ns: 0, sample_per_mille: 1_000, ..Self::default() }
    }
}

/// Recorder counters at snapshot time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceStats {
    /// Root traces started.
    pub started_traces: u64,
    /// Traces kept (slow or sampled in).
    pub kept_traces: u64,
    /// Traces discarded by tail sampling.
    pub sampled_out_traces: u64,
    /// Events lost to ring eviction, per-trace overflow, or lifecycle
    /// eviction. `Σ events-in-ring + dropped_events` equals every event
    /// ever published or overflowed.
    pub dropped_events: u64,
    /// The active slow threshold, nanoseconds.
    pub slow_threshold_ns: u64,
    /// The active sampling probability, per mille.
    pub sample_per_mille: u32,
}

/// Everything the recorder holds, cloned out under one lock.
#[derive(Debug, Clone)]
pub struct TraceSnapshot {
    /// Kept traces, oldest first.
    pub traces: Vec<KeptTrace>,
    /// Out-of-band lifecycle instants (see [`Recorder::lifecycle`]).
    pub lifecycle: Vec<TraceEvent>,
    /// Counters.
    pub stats: TraceStats,
}

struct Ring {
    traces: VecDeque<KeptTrace>,
    total_events: usize,
    kept_ids: HashSet<u64>,
    lifecycle: VecDeque<TraceEvent>,
}

/// The flight recorder. One global instance serves the whole process
/// (see [`recorder`]); tests construct private ones.
pub struct Recorder {
    enabled: AtomicBool,
    slow_ns: AtomicU64,
    sample_per_mille: AtomicU32,
    capacity_events: AtomicUsize,
    max_events_per_trace: AtomicUsize,
    next_id: AtomicU64,
    started: AtomicU64,
    kept: AtomicU64,
    sampled_out: AtomicU64,
    dropped_events: AtomicU64,
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

struct Active {
    rec: Arc<Recorder>,
    trace: u64,
    root_span: u64,
    root_name: &'static str,
    start_ns: u64,
    /// Open span ids; the last entry is the current parent.
    stack: Vec<u64>,
    events: Vec<TraceEvent>,
    /// Open spans whose Begin overflowed (their Ends must be dropped
    /// too, to preserve B/E balance).
    overflow_depth: usize,
    overflow: u64,
    max_events: usize,
    tid: u64,
}

thread_local! {
    static ACTIVE: RefCell<Option<Active>> = const { RefCell::new(None) };
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
        Arc::new(Self {
            enabled: AtomicBool::new(true),
            slow_ns: AtomicU64::new(config.slow_threshold_ns),
            sample_per_mille: AtomicU32::new(config.sample_per_mille.min(1_000)),
            capacity_events: AtomicUsize::new(config.capacity_events),
            max_events_per_trace: AtomicUsize::new(config.max_events_per_trace),
            next_id: AtomicU64::new(1),
            started: AtomicU64::new(0),
            kept: AtomicU64::new(0),
            sampled_out: AtomicU64::new(0),
            dropped_events: AtomicU64::new(0),
            epoch: Instant::now(),
            ring: Mutex::new(Ring {
                traces: VecDeque::new(),
                total_events: 0,
                kept_ids: HashSet::new(),
                lifecycle: VecDeque::new(),
            }),
        })
    }

    /// Replace the tunables (takes effect for traces started after the
    /// call).
    pub fn configure(&self, config: TraceConfig) {
        self.slow_ns.store(config.slow_threshold_ns, Ordering::Relaxed);
        self.sample_per_mille.store(config.sample_per_mille.min(1_000), Ordering::Relaxed);
        self.capacity_events.store(config.capacity_events, Ordering::Relaxed);
        self.max_events_per_trace.store(config.max_events_per_trace, Ordering::Relaxed);
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

    /// Would tail sampling keep trace id `trace` absent slowness?
    pub fn would_sample(&self, trace: u64) -> bool {
        (splitmix64(trace) % 1_000) < u64::from(self.sample_per_mille.load(Ordering::Relaxed))
    }

    /// Start a root span, making `name` the active trace on this
    /// thread. Returns a no-op guard if the recorder is disabled or a
    /// trace is already active on this thread (nested roots do not
    /// stack).
    pub fn start_root(self: &Arc<Self>, name: &'static str) -> RootSpan {
        if !self.enabled() {
            return RootSpan { armed: false, attrs: AttrList::new() };
        }
        ACTIVE.with(|a| {
            let mut slot = a.borrow_mut();
            if slot.is_some() {
                return RootSpan { armed: false, attrs: AttrList::new() };
            }
            self.started.fetch_add(1, Ordering::Relaxed);
            let trace = self.next_id.fetch_add(2, Ordering::Relaxed);
            let root_span = trace + 1;
            let start_ns = self.now_ns();
            let tid = thread_idx();
            let mut active = Active {
                rec: Arc::clone(self),
                trace,
                root_span,
                root_name: name,
                start_ns,
                stack: vec![root_span],
                events: Vec::with_capacity(64),
                overflow_depth: 0,
                overflow: 0,
                max_events: self.max_events_per_trace.load(Ordering::Relaxed),
                tid,
            };
            active.push(TraceEvent {
                ts_ns: start_ns,
                trace,
                span: root_span,
                parent: 0,
                kind: EventKind::Begin,
                name,
                attrs: AttrList::new(),
                tid,
            });
            *slot = Some(active);
            RootSpan { armed: true, attrs: AttrList::new() }
        })
    }

    /// Open a child span under the active trace on this thread (no-op
    /// guard when disabled or no trace is active).
    pub fn child_span(self: &Arc<Self>, name: &'static str) -> Span {
        if !self.enabled() {
            return Span { armed: false, name, attrs: AttrList::new() };
        }
        ACTIVE.with(|a| {
            let mut slot = a.borrow_mut();
            let Some(active) = slot.as_mut() else {
                return Span { armed: false, name, attrs: AttrList::new() };
            };
            if !Arc::ptr_eq(&active.rec, self) {
                return Span { armed: false, name, attrs: AttrList::new() };
            }
            active.begin_child(name);
            Span { armed: true, name, attrs: AttrList::new() }
        })
    }

    /// Record a point-in-time event under the active trace.
    pub fn instant(self: &Arc<Self>, name: &'static str, attrs: AttrList) {
        if !self.enabled() {
            return;
        }
        ACTIVE.with(|a| {
            let mut slot = a.borrow_mut();
            let Some(active) = slot.as_mut() else { return };
            if !Arc::ptr_eq(&active.rec, self) {
                return;
            }
            let ev = TraceEvent {
                ts_ns: active.rec.now_ns(),
                trace: active.trace,
                span: *active.stack.last().expect("root always open"),
                parent: 0,
                kind: EventKind::Instant,
                name,
                attrs,
                tid: active.tid,
            };
            active.push(ev);
        });
    }

    /// Append an out-of-band instant to an already-completed trace —
    /// the simulator uses this for lifecycle milestones (picked up /
    /// dropped off) that happen long after the request's root span
    /// closed. Recorded only if `trace` was kept (still in the ring),
    /// so lifecycle volume stays proportional to kept traces.
    pub fn lifecycle(&self, trace: u64, name: &'static str, attrs: AttrList) {
        if !self.enabled() {
            return;
        }
        let ev = TraceEvent {
            ts_ns: self.now_ns(),
            trace,
            span: 0,
            parent: 0,
            kind: EventKind::Instant,
            name,
            attrs,
            tid: thread_idx(),
        };
        let mut ring = self.ring.lock().unwrap_or_else(|e| e.into_inner());
        if !ring.kept_ids.contains(&trace) {
            return;
        }
        ring.lifecycle.push_back(ev);
        let cap = (self.capacity_events.load(Ordering::Relaxed) / 4).max(1);
        while ring.lifecycle.len() > cap {
            ring.lifecycle.pop_front();
            self.dropped_events.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// The id of the trace active on this thread, if any (capture for
    /// [`Recorder::lifecycle`]).
    pub fn current_trace(&self) -> Option<u64> {
        ACTIVE.with(|a| a.borrow().as_ref().map(|active| active.trace))
    }

    fn publish(&self, kept: KeptTrace, overflowed: u64) {
        self.dropped_events.fetch_add(overflowed, Ordering::Relaxed);
        let mut ring = self.ring.lock().unwrap_or_else(|e| e.into_inner());
        ring.total_events += kept.events.len();
        ring.kept_ids.insert(kept.trace);
        ring.traces.push_back(kept);
        let cap = self.capacity_events.load(Ordering::Relaxed);
        while ring.total_events > cap && ring.traces.len() > 1 {
            let evicted = ring.traces.pop_front().expect("len > 1");
            ring.total_events -= evicted.events.len();
            ring.kept_ids.remove(&evicted.trace);
            self.dropped_events.fetch_add(evicted.events.len() as u64, Ordering::Relaxed);
        }
    }

    /// Clone out every kept trace, lifecycle event and counter.
    pub fn snapshot(&self) -> TraceSnapshot {
        let ring = self.ring.lock().unwrap_or_else(|e| e.into_inner());
        TraceSnapshot {
            traces: ring.traces.iter().cloned().collect(),
            lifecycle: ring.lifecycle.iter().cloned().collect(),
            stats: self.stats(),
        }
    }

    /// Current counters.
    pub fn stats(&self) -> TraceStats {
        TraceStats {
            started_traces: self.started.load(Ordering::Relaxed),
            kept_traces: self.kept.load(Ordering::Relaxed),
            sampled_out_traces: self.sampled_out.load(Ordering::Relaxed),
            dropped_events: self.dropped_events.load(Ordering::Relaxed),
            slow_threshold_ns: self.slow_ns.load(Ordering::Relaxed),
            sample_per_mille: self.sample_per_mille.load(Ordering::Relaxed),
        }
    }

    /// Discard all kept traces and lifecycle events (counters are kept).
    pub fn clear(&self) {
        let mut ring = self.ring.lock().unwrap_or_else(|e| e.into_inner());
        ring.traces.clear();
        ring.total_events = 0;
        ring.kept_ids.clear();
        ring.lifecycle.clear();
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
        let span = self.rec.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = *self.stack.last().expect("root always open");
        let ev = TraceEvent {
            ts_ns: self.rec.now_ns(),
            trace: self.trace,
            span,
            parent,
            kind: EventKind::Begin,
            name,
            attrs: AttrList::new(),
            tid: self.tid,
        };
        self.stack.push(span);
        self.events.push(ev);
    }

    fn end_child(&mut self, name: &'static str, attrs: AttrList) {
        if self.overflow_depth > 0 {
            self.overflow_depth -= 1;
            return; // the End's budget was charged with its Begin
        }
        if self.stack.len() <= 1 {
            return; // unbalanced end (guard leaked across root) — ignore
        }
        let span = self.stack.pop().expect("len > 1");
        let parent = *self.stack.last().expect("root below");
        let ev = TraceEvent {
            ts_ns: self.rec.now_ns(),
            trace: self.trace,
            span,
            parent,
            kind: EventKind::End,
            name,
            attrs,
            tid: self.tid,
        };
        // End events always fit: begin_child reserved the slot.
        self.events.push(ev);
    }
}

// ---------------------------------------------------------------------------
// Guards
// ---------------------------------------------------------------------------

/// Guard for a trace root. On drop the trace completes and the
/// tail-sampling verdict publishes or discards it.
#[derive(Debug)]
#[must_use = "dropping the guard ends the trace"]
pub struct RootSpan {
    armed: bool,
    attrs: AttrList,
}

impl RootSpan {
    /// Attach an attribute to the root span's End event.
    pub fn attr(&mut self, key: &'static str, value: impl Into<AttrValue>) {
        if self.armed {
            self.attrs.push(key, value);
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
        let attrs = self.attrs;
        ACTIVE.with(|a| {
            let Some(mut active) = a.borrow_mut().take() else { return };
            let rec = Arc::clone(&active.rec);
            let end_ns = rec.now_ns();
            let dur_ns = end_ns.saturating_sub(active.start_ns);
            // Close the root span itself. The push is unconditional:
            // like child Ends, the root End may softly exceed the event
            // budget, because a truncated-but-balanced trace is usable
            // and an unclosed root is not (Timeline::build would drop
            // the whole trace).
            let root_ev = TraceEvent {
                ts_ns: end_ns,
                trace: active.trace,
                span: active.root_span,
                parent: 0,
                kind: EventKind::End,
                name: active.root_name,
                attrs,
                tid: active.tid,
            };
            active.events.push(root_ev);
            let slow = dur_ns >= rec.slow_ns.load(Ordering::Relaxed);
            if slow || rec.would_sample(active.trace) {
                rec.kept.fetch_add(1, Ordering::Relaxed);
                let kept = KeptTrace {
                    trace: active.trace,
                    root_name: active.root_name,
                    start_ns: active.start_ns,
                    dur_ns,
                    slow,
                    events: std::mem::take(&mut active.events),
                };
                rec.publish(kept, active.overflow);
            } else {
                rec.sampled_out.fetch_add(1, Ordering::Relaxed);
            }
        });
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
    /// Attach an attribute to the span's End event.
    pub fn attr(&mut self, key: &'static str, value: impl Into<AttrValue>) {
        if self.armed {
            self.attrs.push(key, value);
        }
    }

    /// Whether this guard actually records (false when tracing is off
    /// or no trace is active).
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
            if let Some(active) = a.borrow_mut().as_mut() {
                active.end_child(name, attrs);
            }
        });
    }
}

// ---------------------------------------------------------------------------
// Process-global entry points (what the engines call)
// ---------------------------------------------------------------------------

/// The process-wide recorder. Starts **disabled** — every span helper
/// below is a single relaxed load + branch until something (the CLI's
/// `--trace-out`, a harness, a test) enables it.
pub fn recorder() -> &'static Arc<Recorder> {
    static GLOBAL: OnceLock<Arc<Recorder>> = OnceLock::new();
    GLOBAL.get_or_init(|| {
        let rec = Recorder::new(TraceConfig::default());
        rec.set_enabled(false);
        rec
    })
}

/// Start a root trace on the global recorder (no-op guard if tracing
/// is disabled or a trace is already active on this thread).
#[inline]
pub fn root(name: &'static str) -> RootSpan {
    let rec = recorder();
    if !rec.enabled() {
        return RootSpan { armed: false, attrs: AttrList::new() };
    }
    rec.start_root(name)
}

/// Open a child span on the global recorder. When tracing is disabled
/// this is one relaxed atomic load, a branch, and a no-alloc guard.
#[inline]
pub fn span(name: &'static str) -> Span {
    let rec = recorder();
    if !rec.enabled() {
        return Span { armed: false, name, attrs: AttrList::new() };
    }
    rec.child_span(name)
}

/// Record an instant event on the global recorder.
#[inline]
pub fn instant(name: &'static str, attrs: AttrList) {
    let rec = recorder();
    if rec.enabled() {
        rec.instant(name, attrs);
    }
}

/// The id of the trace active on this thread (global recorder).
#[inline]
pub fn current_trace() -> Option<u64> {
    let rec = recorder();
    if !rec.enabled() {
        return None;
    }
    rec.current_trace()
}

/// Out-of-band lifecycle instant on the global recorder (see
/// [`Recorder::lifecycle`]).
#[inline]
pub fn lifecycle(trace: u64, name: &'static str, attrs: AttrList) {
    let rec = recorder();
    if rec.enabled() {
        rec.lifecycle(trace, name, attrs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
            rec.instant("offered", AttrList::new().with("matches", 2u64));
        }
        let snap = rec.snapshot();
        assert_eq!(snap.traces.len(), 1);
        let t = &snap.traces[0];
        assert_eq!(t.root_name, "request");
        // B(request) B(search) B(sp) E(sp) E(search) i(offered) E(request)
        assert_eq!(t.events.len(), 7);
        let kinds: Vec<EventKind> = t.events.iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            [
                EventKind::Begin,
                EventKind::Begin,
                EventKind::Begin,
                EventKind::End,
                EventKind::End,
                EventKind::Instant,
                EventKind::End,
            ]
        );
        // Causality: sp's parent is search, search's parent is root.
        let root_span = t.events[0].span;
        let search_span = t.events[1].span;
        assert_eq!(t.events[1].parent, root_span);
        assert_eq!(t.events[2].parent, search_span);
        // Timestamps are monotone within the thread.
        assert!(t.events.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns));
    }

    #[test]
    fn sampling_discards_fast_traces() {
        let cfg = TraceConfig {
            slow_threshold_ns: u64::MAX,
            sample_per_mille: 0,
            ..TraceConfig::default()
        };
        let rec = Recorder::new(cfg);
        for _ in 0..32 {
            let _root = rec.start_root("request");
        }
        let snap = rec.snapshot();
        assert!(snap.traces.is_empty());
        assert_eq!(snap.stats.sampled_out_traces, 32);
        assert_eq!(snap.stats.kept_traces, 0);
    }

    #[test]
    fn slow_traces_always_kept() {
        let cfg = TraceConfig {
            slow_threshold_ns: 0, // everything counts as slow
            sample_per_mille: 0,
            ..TraceConfig::default()
        };
        let rec = Recorder::new(cfg);
        {
            let _root = rec.start_root("request");
        }
        let snap = rec.snapshot();
        assert_eq!(snap.traces.len(), 1);
        assert!(snap.traces[0].slow);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let rec = Recorder::new(TraceConfig::keep_all());
        rec.set_enabled(false);
        {
            let root = rec.start_root("request");
            assert!(!root.is_recording());
            let s = rec.child_span("child");
            assert!(!s.is_recording());
        }
        assert!(rec.snapshot().traces.is_empty());
        assert_eq!(rec.stats().started_traces, 0);
    }

    #[test]
    fn span_without_active_trace_is_noop() {
        let rec = Recorder::new(TraceConfig::keep_all());
        let s = rec.child_span("orphan");
        assert!(!s.is_recording());
        drop(s);
        assert!(rec.snapshot().traces.is_empty());
    }

    #[test]
    fn ring_eviction_counts_dropped_events() {
        let cfg = TraceConfig {
            capacity_events: 8,
            ..TraceConfig::keep_all()
        };
        let rec = Recorder::new(cfg);
        let mut published = 0u64;
        for _ in 0..10 {
            let _root = rec.start_root("request");
            let _c = rec.child_span("child");
            drop(_c);
            published += 4; // root B/E + child B/E
        }
        let snap = rec.snapshot();
        let in_ring: u64 = snap.traces.iter().map(|t| t.events.len() as u64).sum();
        assert_eq!(in_ring + snap.stats.dropped_events, published);
        assert!(snap.stats.dropped_events > 0, "capacity 8 must evict");
    }

    #[test]
    fn per_trace_overflow_keeps_balance_and_count() {
        let cfg = TraceConfig {
            max_events_per_trace: 6,
            ..TraceConfig::keep_all()
        };
        let rec = Recorder::new(cfg);
        {
            let _root = rec.start_root("request");
            for _ in 0..10 {
                let s = rec.child_span("child");
                drop(s);
            }
        }
        let snap = rec.snapshot();
        assert_eq!(snap.traces.len(), 1);
        let t = &snap.traces[0];
        // Balance: every Begin has an End.
        let begins = t.events.iter().filter(|e| e.kind == EventKind::Begin).count();
        let ends = t.events.iter().filter(|e| e.kind == EventKind::End).count();
        assert_eq!(begins, ends);
        // Count: kept + dropped == all 22 events (root B/E + 10×2).
        assert_eq!(t.events.len() as u64 + snap.stats.dropped_events, 22);
    }

    #[test]
    fn lifecycle_only_for_kept_traces() {
        let rec = Recorder::new(TraceConfig::keep_all());
        let trace_id = {
            let _root = rec.start_root("request");
            rec.current_trace().expect("active")
        };
        rec.lifecycle(trace_id, "picked_up", AttrList::new().with("sim_t_s", 1.0));
        rec.lifecycle(9_999_999, "picked_up", AttrList::new()); // unknown trace
        let snap = rec.snapshot();
        assert_eq!(snap.lifecycle.len(), 1);
        assert_eq!(snap.lifecycle[0].trace, trace_id);
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
