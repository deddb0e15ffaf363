//! The three-stage dispatch pipeline: **generate candidates → assign →
//! commit**.
//!
//! The paper's simulator (§X.A.2) fuses its policy into the replay
//! loop: search, book the first feasible match, else create. This
//! module separates *candidate generation* (one XAR search per
//! request) from *assignment* (a [`DispatchPolicy`]) and *commit*
//! (booking against the live engine), so alternative dispatchers plug
//! in without touching the drivers:
//!
//! * [`FirstMatch`] replays the paper's protocol decision-for-decision
//!   (property-tested in `tests/dispatch_equivalence.rs`).
//! * [`BatchWindow`] collects requests over a window of simulated
//!   time, builds the request→ride candidate bipartite graph from the
//!   per-request search results, assigns greedily by score and
//!   improves the assignment with local 2-swap + eject-reinsert
//!   passes until a fixed point or a swap budget.
//!
//! Batched commits re-validate every candidate against the live
//! engine (`book_checked`): within a window, earlier commits consume
//! seats and detour budget, so a search-time candidate can go stale
//! before its own commit. Rejected commits are counted
//! (`dispatch.stale_commits`) and fall back to a fresh search; so do
//! unassigned requests once the window has changed engine state, which
//! lets them pool into rides created moments earlier in the same
//! window. The batch path additionally records `dispatch.window_ns`,
//! `dispatch.batch_size` and `dispatch.swaps` into the run's registry
//! and wraps the assignment stage in a `dispatch.assign` trace span.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use xar_core::{Reason, SearchExplain};
use xar_obs::events::{self, EventRecord};
use xar_obs::trace::AttrList;
use xar_obs::{Counter, Histogram, Registry};

use crate::report::{Decision, DecisionOutcome, SimReport};
use crate::sim::{BookResult, RideBackend, SimConfig};
use crate::trips::Trip;

mod batch;
mod first_match;

pub use batch::BatchWindow;
pub use first_match::FirstMatch;

/// One edge of the request→ride candidate bipartite graph, as the
/// assignment stage sees it: the backend's opaque match reduced to the
/// ride it points at, the assignment score (lower is better — combined
/// rider walking for XAR, the paper's §X.A.2 objective) and the detour
/// the booking is estimated to add.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Candidate {
    /// Backend-opaque ride identity (capacity is tracked per ride).
    pub ride: u64,
    /// Assignment score, lower is better.
    pub score: f64,
    /// Estimated detour the booking adds, metres.
    pub detour_m: f64,
}

/// One request of a dispatch window: its position in the trip stream
/// (a deterministic tie-breaker) and its candidates, best-first in the
/// backend's search order.
#[derive(Debug, Clone)]
pub struct BatchRequest {
    /// Index of the trip in the driver's stream.
    pub idx: usize,
    /// Candidate edges, best-first.
    pub candidates: Vec<Candidate>,
}

/// The assignment stage's verdict for one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Assignment {
    /// Commit the candidate at this index of the request's list.
    Book(usize),
    /// No candidate assigned — offer a new ride instead.
    Create,
}

/// What [`DispatchPolicy::assign`] returns: one [`Assignment`] per
/// request (same order as the input batch) plus how many improving
/// local-search moves produced it.
#[derive(Debug, Clone)]
pub struct AssignOutcome {
    /// One verdict per batched request.
    pub assignments: Vec<Assignment>,
    /// Improving moves (2-swaps + eject-reinserts) applied.
    pub swaps: u64,
}

/// A pluggable assignment policy — stage 2 of the pipeline. The
/// driver owns stages 1 (candidate generation) and 3 (commit); the
/// policy only decides *which* candidate each request gets.
pub trait DispatchPolicy {
    /// Window width in simulated seconds: requests arriving within
    /// `window_s` of the window's first request are assigned together.
    /// `0.0` closes the window on every arrival (batches of one).
    fn window_s(&self) -> f64 {
        0.0
    }

    /// Cap on requests per window; the window is flushed early when
    /// it fills.
    fn max_batch(&self) -> usize {
        usize::MAX
    }

    /// `true` routes requests through the windowed batch path
    /// (checked commits, re-search fallback, `dispatch.*` metrics);
    /// `false` through the immediate per-request path, which is
    /// byte-for-byte the paper's §X.A.2 replay.
    fn batched(&self) -> bool;

    /// Stage 2: assign every request of `batch` to one of its
    /// candidates or to ride creation.
    fn assign(&mut self, batch: &[BatchRequest]) -> AssignOutcome;

    /// Short policy name for reports and traces.
    fn name(&self) -> &'static str;
}

/// A parsed `--dispatch` CLI value: which policy to build. `Copy` so
/// the parallel driver can hand one to every worker thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DispatchSpec {
    /// The paper's first-match protocol (the default).
    First,
    /// Batch-window assignment over windows of `window_ms`
    /// milliseconds of simulated time.
    Batch {
        /// Window width, milliseconds of simulated time.
        window_ms: u64,
    },
}

/// Widest accepted batch window: one hour of simulated time.
pub const MAX_BATCH_WINDOW_MS: u64 = 3_600_000;

impl DispatchSpec {
    /// Parse a `--dispatch` value: `first` or `batch:<ms>`.
    pub fn parse(s: &str) -> Result<Self, String> {
        if s == "first" {
            return Ok(Self::First);
        }
        if let Some(ms) = s.strip_prefix("batch:") {
            if let Ok(v) = ms.parse::<u64>() {
                if v <= MAX_BATCH_WINDOW_MS {
                    return Ok(Self::Batch { window_ms: v });
                }
                return Err(format!(
                    "--dispatch batch window {v} ms exceeds the {MAX_BATCH_WINDOW_MS} ms cap"
                ));
            }
        }
        Err(format!("invalid --dispatch value '{s}' (expected 'first' or 'batch:<ms>')"))
    }

    /// Instantiate the policy this spec names. Batch windows cap
    /// per-ride assignments at the seat count new rides offer
    /// (`cfg.seats`) — an upper bound on any live ride's free seats;
    /// the commit re-check enforces the true count.
    pub fn build(&self, cfg: &SimConfig) -> Box<dyn DispatchPolicy + Send> {
        match *self {
            DispatchSpec::First => Box::new(FirstMatch),
            DispatchSpec::Batch { window_ms } => {
                Box::new(BatchWindow::new(window_ms as f64 / 1_000.0, u32::from(cfg.seats)))
            }
        }
    }

    /// Human-readable label (`first`, `batch:50ms`).
    pub fn label(&self) -> String {
        match *self {
            DispatchSpec::First => "first".to_string(),
            DispatchSpec::Batch { window_ms } => format!("batch:{window_ms}ms"),
        }
    }
}

/// A booked request whose pick-up / drop-off milestones have not been
/// reached yet: `(trace id, pickup ETA, dropoff ETA)`. Consumed etas
/// are set to `NaN`.
type PendingLifecycle = (u64, f64, f64);

/// Emit `request.picked_up` / `request.dropped_off` lifecycle instants
/// for every pending booking whose scheduled time has passed `now_s`.
fn flush_lifecycle(pending: &mut Vec<PendingLifecycle>, now_s: f64) {
    pending.retain_mut(|(trace, pickup, dropoff)| {
        if pickup.is_finite() && *pickup <= now_s {
            xar_obs::trace::lifecycle(
                *trace,
                "request.picked_up",
                AttrList::new().with("sim_t_s", *pickup),
            );
            *pickup = f64::NAN;
        }
        if dropoff.is_finite() && *dropoff <= now_s {
            xar_obs::trace::lifecycle(
                *trace,
                "request.dropped_off",
                AttrList::new().with("sim_t_s", *dropoff),
            );
            *dropoff = f64::NAN;
        }
        pickup.is_finite() || dropoff.is_finite()
    });
}

/// Pre-resolved `sim.*` phase series shared by both dispatch paths.
struct PhaseMetrics {
    search_h: Arc<Histogram>,
    book_h: Arc<Histogram>,
    create_h: Arc<Histogram>,
    track_h: Arc<Histogram>,
    requests_total: Arc<Counter>,
    req_booked: Arc<Counter>,
    req_created: Arc<Counter>,
    req_unservable: Arc<Counter>,
    /// One `sim.reject_reason{reason=...}` counter per [`Reason`]
    /// variant (indexed by `Reason::index()`); bumped exactly once per
    /// non-booked request, so `sim.requests{outcome=booked}` plus the
    /// sum over these equals `sim.requests_total` — the conservation
    /// the event plane reconciles against.
    reject_reason: Vec<Arc<Counter>>,
}

impl PhaseMetrics {
    fn new(registry: &Registry) -> Self {
        Self {
            search_h: registry.histogram("sim.search_ns"),
            book_h: registry.histogram("sim.book_ns"),
            create_h: registry.histogram("sim.create_ns"),
            track_h: registry.histogram("sim.track_ns"),
            requests_total: registry.counter("sim.requests_total"),
            req_booked: registry.counter_with("sim.requests", &[("outcome", "booked")]),
            req_created: registry.counter_with("sim.requests", &[("outcome", "created")]),
            req_unservable: registry.counter_with("sim.requests", &[("outcome", "unservable")]),
            reject_reason: Reason::ALL
                .iter()
                .map(|r| registry.counter_with("sim.reject_reason", &[("reason", r.code())]))
                .collect(),
        }
    }

    fn reject(&self, reason: Reason) {
        self.reject_reason[reason.index()].inc();
    }
}

/// Process-wide batch-window id sequence: globally unique across the
/// parallel driver's worker threads, so a merged event file never
/// aliases two windows. Only advanced while the event sink is on —
/// ids exist for forensics, not for control flow.
static WINDOW_SEQ: AtomicU64 = AtomicU64::new(0);

fn next_window_id() -> u64 {
    if events::is_enabled() {
        WINDOW_SEQ.fetch_add(1, Ordering::Relaxed)
    } else {
        0
    }
}

/// Pre-resolved `dispatch.*` series — created only on the batch path,
/// so immediate (first-match) runs expose exactly the pre-pipeline
/// metric families.
struct DispatchMetrics {
    window_ns: Arc<Histogram>,
    batch_size: Arc<Histogram>,
    swaps: Arc<Counter>,
    stale_commits: Arc<Counter>,
}

impl DispatchMetrics {
    fn new(registry: &Registry) -> Self {
        Self {
            window_ns: registry.histogram("dispatch.window_ns"),
            batch_size: registry.histogram("dispatch.batch_size"),
            swaps: registry.counter("dispatch.swaps"),
            stale_commits: registry.counter("dispatch.stale_commits"),
        }
    }
}

/// Drive `trips` through `backend` under `policy`: the generic
/// replacement for the fused §X.A.2 loop. With a non-batched policy
/// ([`FirstMatch`]) this is the legacy serial protocol,
/// trace-for-trace; with a batched one, windows of requests are
/// searched, assigned jointly, and committed with live re-validation.
pub fn run_dispatch<B: RideBackend, P: DispatchPolicy + ?Sized>(
    backend: &mut B,
    trips: &[Trip],
    cfg: &SimConfig,
    policy: &mut P,
) -> SimReport {
    // Phase histograms live in the backend's registry when it has one
    // (so engine internals and simulator phases share a snapshot), in a
    // private one otherwise.
    let registry = backend.registry().unwrap_or_else(|| Arc::new(Registry::new()));
    run_dispatch_in(backend, trips, cfg, policy, registry)
}

/// [`run_dispatch`] recording into `registry` — the parallel driver
/// resolves one registry for the run and hands it to every worker, so
/// all of them record into the same snapshot even when the backend
/// keeps no registry of its own.
pub(crate) fn run_dispatch_in<B: RideBackend, P: DispatchPolicy + ?Sized>(
    backend: &mut B,
    trips: &[Trip],
    cfg: &SimConfig,
    policy: &mut P,
    registry: Arc<Registry>,
) -> SimReport {
    let mut report = SimReport::default();
    let pm = PhaseMetrics::new(&registry);
    let system = backend.name();
    let mut pending: Vec<PendingLifecycle> = Vec::new();
    let mut next_track = trips.first().map_or(0.0, |t| t.pickup_s);

    if !policy.batched() {
        for (idx, trip) in trips.iter().enumerate() {
            track_sweeps(backend, cfg, trip.pickup_s, &mut next_track, &pm, &mut pending, system);
            dispatch_immediate(backend, cfg, policy, idx, trip, &mut report, &pm, &mut pending, system);
        }
    } else {
        let dm = DispatchMetrics::new(&registry);
        let mut batch: Vec<(usize, &Trip)> = Vec::new();
        let mut deadline = f64::INFINITY;
        for (idx, trip) in trips.iter().enumerate() {
            // Close the pending window before anything keyed to this
            // trip's (later) arrival time runs.
            if !batch.is_empty() && trip.pickup_s >= deadline {
                flush_window(backend, cfg, policy, &mut batch, &mut report, &pm, &dm, &mut pending, system);
            }
            track_sweeps(backend, cfg, trip.pickup_s, &mut next_track, &pm, &mut pending, system);
            if batch.is_empty() {
                deadline = trip.pickup_s + policy.window_s();
            }
            batch.push((idx, trip));
            if batch.len() >= policy.max_batch() {
                flush_window(backend, cfg, policy, &mut batch, &mut report, &pm, &dm, &mut pending, system);
            }
        }
        if !batch.is_empty() {
            flush_window(backend, cfg, policy, &mut batch, &mut report, &pm, &dm, &mut pending, system);
        }
    }

    // The simulation clock stops at the last request; milestones
    // already scheduled (bookings with known ETAs) are flushed so
    // committed snapshots contain complete rider timelines.
    flush_lifecycle(&mut pending, f64::INFINITY);
    // Publish this thread's buffered wide events: the parallel driver
    // runs one `run_dispatch` per worker thread, so every emitter
    // flushes itself and a post-run snapshot is complete.
    events::flush_thread();
    report.registry = Some(registry);
    report
}

/// Run the tracking sweeps due before a request at `now_s`.
fn track_sweeps<B: RideBackend>(
    backend: &mut B,
    cfg: &SimConfig,
    now_s: f64,
    next_track: &mut f64,
    pm: &PhaseMetrics,
    pending: &mut Vec<PendingLifecycle>,
    system: &'static str,
) {
    if let Some(every) = cfg.track_every_s {
        while now_s >= *next_track {
            {
                let mut troot = xar_obs::trace::root("track");
                troot.attr("sim_t_s", *next_track);
                troot.attr("system", system);
                let t0 = Instant::now();
                backend.track(*next_track);
                pm.track_h.record(t0.elapsed().as_nanos() as u64);
            }
            flush_lifecycle(pending, *next_track);
            *next_track += every;
        }
    }
}

/// One timed search with full accounting.
fn timed_search<B: RideBackend>(
    backend: &mut B,
    trip: &Trip,
    cfg: &SimConfig,
    report: &mut SimReport,
    pm: &PhaseMetrics,
) -> Vec<B::Match> {
    let _phase = xar_obs::trace::span("sim.search");
    let t0 = Instant::now();
    let matches = backend.search(trip, cfg);
    let ns = t0.elapsed().as_nanos() as u64;
    report.search_ns.push(ns);
    pm.search_h.record(ns);
    report.looks += 1;
    matches
}

/// [`timed_search`] through the explained entry point: additionally
/// returns the rejection attribution and the wall-clock nanoseconds
/// (for the request's wide event).
fn timed_search_explained<B: RideBackend>(
    backend: &mut B,
    trip: &Trip,
    cfg: &SimConfig,
    report: &mut SimReport,
    pm: &PhaseMetrics,
) -> (Vec<B::Match>, SearchExplain, u64) {
    let _phase = xar_obs::trace::span("sim.search");
    let t0 = Instant::now();
    let (matches, explain) = backend.search_explained(trip, cfg);
    let ns = t0.elapsed().as_nanos() as u64;
    report.search_ns.push(ns);
    pm.search_h.record(ns);
    report.looks += 1;
    (matches, explain, ns)
}

/// Book-success bookkeeping shared by every commit path. Also fills
/// the outcome half of the request's wide event.
#[allow(clippy::too_many_arguments)]
fn record_booked(
    report: &mut SimReport,
    pm: &PhaseMetrics,
    pending: &mut Vec<PendingLifecycle>,
    trip: &Trip,
    ride: u64,
    res: BookResult,
    ctx: Option<xar_obs::TraceCtx>,
    ev: &mut EventRecord,
) {
    let BookResult::Booked {
        actual_detour_m,
        estimated_detour_m,
        walk_m,
        budget_before_m,
        pickup_eta_s,
        dropoff_eta_s,
    } = res
    else {
        unreachable!("record_booked called with a failed booking");
    };
    report.booked += 1;
    pm.requests_total.inc();
    pm.req_booked.inc();
    report.detour_actual_m.push(actual_detour_m);
    report.detour_estimated_m.push(estimated_detour_m);
    report.detour_excess_m.push((actual_detour_m - budget_before_m).max(0.0));
    report.walk_m.push(walk_m);
    if pickup_eta_s.is_finite() {
        report.wait_s.push((pickup_eta_s - trip.pickup_s).max(0.0));
    }
    ev.outcome = "booked";
    ev.reason = Reason::Served.code();
    ev.ride = ride;
    ev.walk_m = walk_m;
    ev.detour_m = actual_detour_m;
    if pickup_eta_s.is_finite() {
        ev.wait_s = (pickup_eta_s - trip.pickup_s).max(0.0);
    }
    report.decisions.push(Decision { trip_id: trip.id, outcome: DecisionOutcome::Booked { ride } });
    xar_obs::trace::instant(
        "request.booked",
        AttrList::new()
            .with("walk_m", walk_m)
            .with("detour_m", actual_detour_m)
            .with("pickup_eta_s", pickup_eta_s),
    );
    if let Some(ctx) = ctx {
        if pickup_eta_s.is_finite() || dropoff_eta_s.is_finite() {
            pending.push((ctx.trace, pickup_eta_s, dropoff_eta_s));
        }
    }
}

/// Timed ride creation with full accounting; `Err` carries the typed
/// reason the offer was refused with (the request is unservable).
fn timed_create<B: RideBackend>(
    backend: &mut B,
    trip: &Trip,
    cfg: &SimConfig,
    report: &mut SimReport,
    pm: &PhaseMetrics,
) -> Result<(), Reason> {
    let _phase = xar_obs::trace::span("sim.create");
    let t0 = Instant::now();
    let res = backend.create(trip, cfg);
    let ns = t0.elapsed().as_nanos() as u64;
    report.create_ns.push(ns);
    pm.create_h.record(ns);
    pm.requests_total.inc();
    if res.is_ok() {
        report.created += 1;
        pm.req_created.inc();
        report.decisions.push(Decision { trip_id: trip.id, outcome: DecisionOutcome::Created });
        xar_obs::trace::instant("request.created", AttrList::new());
    } else {
        report.unservable += 1;
        pm.req_unservable.inc();
        report.decisions.push(Decision { trip_id: trip.id, outcome: DecisionOutcome::Unservable });
        xar_obs::trace::instant("request.unservable", AttrList::new());
    }
    res
}

/// Decide the rejection reason of a request that ended `created` (a
/// new ride) or `unservable`, from what its commit path saw. Fixed
/// precedence, documented in EXPERIMENTS.md: a failed ride offer
/// (unservable) keeps its own reason; then a stale batch commit, then
/// a batch ejection, then the last live booking failure, then the
/// search's own attribution. Never [`Reason::Unknown`].
fn rejection_reason(
    create_err: Option<Reason>,
    stale_commit: bool,
    ejected: bool,
    last_book_failure: Option<Reason>,
    explain: &SearchExplain,
) -> Reason {
    if let Some(r) = create_err {
        return r;
    }
    if stale_commit {
        return Reason::StaleCommit;
    }
    if ejected {
        return Reason::SwapEjected;
    }
    if let Some(r) = last_book_failure {
        return r;
    }
    explain.dominant_reason(0)
}

/// The immediate per-request path: generate, assign (a batch of one),
/// commit with the §X.A.2 stale fall-through. This is the legacy
/// serial protocol, kept call-for-call so `FirstMatch` replays it
/// exactly.
#[allow(clippy::too_many_arguments)]
fn dispatch_immediate<B: RideBackend, P: DispatchPolicy + ?Sized>(
    backend: &mut B,
    cfg: &SimConfig,
    policy: &mut P,
    idx: usize,
    trip: &Trip,
    report: &mut SimReport,
    pm: &PhaseMetrics,
    pending: &mut Vec<PendingLifecycle>,
    system: &'static str,
) {
    let mut troot = xar_obs::trace::root("request");
    troot.attr("idx", idx as u64);
    troot.attr("sim_t_s", trip.pickup_s);
    troot.attr("system", system);
    let ctx = xar_obs::trace::current_ctx();
    xar_obs::trace::instant("request.born", AttrList::new().with("sim_t_s", trip.pickup_s));
    let mut ev = EventRecord::new(trip.id);
    ev.sim_t_s = trip.pickup_s;
    ev.window = next_window_id();

    // Extra "look" searches (high look-to-book scenarios, Fig. 5b).
    for _ in 0..cfg.lookups_per_request {
        let _ = timed_search(backend, trip, cfg, report, pm);
    }

    let (matches, explain, search_ns) = timed_search_explained(backend, trip, cfg, report, pm);
    report.matches_returned += matches.len() as u64;
    xar_obs::trace::instant("request.offered", AttrList::new().with("matches", matches.len()));
    ev.searches = cfg.lookups_per_request as u32 + 1;
    ev.search_ns = search_ns;
    ev.tier = explain.tier;
    ev.candidates = explain.candidates;
    ev.matches = matches.len() as u32;

    let request = BatchRequest {
        idx,
        candidates: matches.iter().map(|m| B::describe(m)).collect(),
    };
    let outcome = policy.assign(std::slice::from_ref(&request));
    let start = match outcome.assignments.first() {
        Some(Assignment::Book(c)) if *c < matches.len() => *c,
        _ => matches.len(),
    };

    let mut booked = false;
    let mut last_book_failure = None;
    for (ci, m) in matches.iter().enumerate().skip(start) {
        let _phase = xar_obs::trace::span("sim.book");
        let t0 = Instant::now();
        let res = backend.book(m, cfg);
        let ns = t0.elapsed().as_nanos() as u64;
        report.book_ns.push(ns);
        pm.book_h.record(ns);
        if matches!(res, BookResult::Booked { .. }) {
            ev.book_ns = ns;
            record_booked(report, pm, pending, trip, request.candidates[ci].ride, res, ctx, &mut ev);
            booked = true;
            troot.attr("outcome", "booked");
            break;
        }
        if let BookResult::Failed(r) = res {
            last_book_failure = Some(r);
        }
        report.stale_matches += 1;
        ev.stale += 1;
        xar_obs::trace::instant("request.rejected", AttrList::new().with("stale", 1u64));
    }
    if !booked {
        // A policy that declined despite candidates is an ejection —
        // `FirstMatch` never does, but the path is generic.
        let ejected = start >= matches.len() && !matches.is_empty() && last_book_failure.is_none();
        let res = timed_create(backend, trip, cfg, report, pm);
        ev.outcome = if res.is_ok() { "created" } else { "unservable" };
        let reason = rejection_reason(res.err(), false, ejected, last_book_failure, &explain);
        ev.reason = reason.code();
        pm.reject(reason);
        troot.attr("outcome", ev.outcome);
    }
    events::emit(ev);
}

/// The windowed batch path: search every request of the window against
/// the same pre-window engine state, assign jointly, then commit in
/// stream order with live re-validation. Stale or displaced requests
/// re-search before falling back to ride creation, so they can still
/// pool into rides created earlier in the same window.
#[allow(clippy::too_many_arguments)]
fn flush_window<B: RideBackend, P: DispatchPolicy + ?Sized>(
    backend: &mut B,
    cfg: &SimConfig,
    policy: &mut P,
    batch: &mut Vec<(usize, &Trip)>,
    report: &mut SimReport,
    pm: &PhaseMetrics,
    dm: &DispatchMetrics,
    pending: &mut Vec<PendingLifecycle>,
    system: &'static str,
) {
    let t0 = Instant::now();
    let n = batch.len();
    let window_id = next_window_id();
    let mut all_matches: Vec<Vec<B::Match>> = Vec::with_capacity(n);
    let mut explains: Vec<SearchExplain> = Vec::with_capacity(n);
    let mut search_nss: Vec<u64> = Vec::with_capacity(n);
    let mut requests: Vec<BatchRequest> = Vec::with_capacity(n);

    // Stages 1 + 2 under one window trace root; commits get their own
    // per-request roots below (a root span cannot stay open across
    // other requests' work).
    let outcome = {
        let mut wroot = xar_obs::trace::root("dispatch.window");
        wroot.attr("size", n as u64);
        wroot.attr("sim_t_s", batch[0].1.pickup_s);
        wroot.attr("system", system);
        for (idx, trip) in batch.iter() {
            xar_obs::trace::instant(
                "request.born",
                AttrList::new().with("idx", *idx as u64).with("sim_t_s", trip.pickup_s),
            );
            for _ in 0..cfg.lookups_per_request {
                let _ = timed_search(backend, trip, cfg, report, pm);
            }
            let (matches, explain, search_ns) =
                timed_search_explained(backend, trip, cfg, report, pm);
            report.matches_returned += matches.len() as u64;
            xar_obs::trace::instant(
                "request.offered",
                AttrList::new().with("idx", *idx as u64).with("matches", matches.len()),
            );
            requests.push(BatchRequest {
                idx: *idx,
                candidates: matches.iter().map(|m| B::describe(m)).collect(),
            });
            all_matches.push(matches);
            explains.push(explain);
            search_nss.push(search_ns);
        }
        let mut aspan = xar_obs::trace::span("dispatch.assign");
        let outcome = policy.assign(&requests);
        aspan.attr("size", n as u64);
        aspan.attr("swaps", outcome.swaps);
        outcome
    };
    debug_assert_eq!(outcome.assignments.len(), n);
    dm.swaps.add(outcome.swaps);
    report.swaps += outcome.swaps;

    // Stage 3a: commit every valid `Book` assignment of the window in
    // one batched call — the backend coalesces the write cost (the
    // sharded engine takes one write lock and publishes one snapshot
    // per *touched shard* instead of per booking). Within a shard the
    // batch commits in stream order with per-item re-validation, so
    // each booking sees exactly the state a sequential commit would
    // have; results are consumed index-aligned by the stream-order
    // loop below.
    let picks: Vec<(usize, &B::Match)> = batch
        .iter()
        .enumerate()
        .filter_map(|(i, _)| match outcome.assignments.get(i).copied() {
            Some(Assignment::Book(c)) => all_matches[i].get(c).map(|m| (i, m)),
            _ => None,
        })
        .collect();
    let mut primary: Vec<Option<BookResult>> = vec![None; n];
    let mut per_book_ns = 0u64;
    if !picks.is_empty() {
        let _phase = xar_obs::trace::span("sim.book");
        let tb = Instant::now();
        let refs: Vec<&B::Match> = picks.iter().map(|&(_, m)| m).collect();
        let results = backend.book_checked_batch(&refs, cfg);
        debug_assert_eq!(results.len(), picks.len());
        // The lock is taken and the snapshot published once per shard:
        // attribute the amortized cost evenly across the bookings.
        per_book_ns = tb.elapsed().as_nanos() as u64 / picks.len().max(1) as u64;
        for (&(i, _), res) in picks.iter().zip(results) {
            primary[i] = Some(res);
        }
    }

    // Stage 3b: consume in stream order. `dirty` tracks whether the
    // engine changed since the window's searches — once it has,
    // unassigned requests re-search instead of creating blindly. The
    // batched commits above already mutated the engine, so any
    // successful primary booking dirties the whole window.
    let mut dirty = primary.iter().flatten().any(|r| matches!(r, BookResult::Booked { .. }));
    for (i, (idx, trip)) in batch.iter().enumerate() {
        let assignment = outcome.assignments.get(i).copied().unwrap_or(Assignment::Create);
        let mut troot = xar_obs::trace::root("request");
        troot.attr("idx", *idx as u64);
        troot.attr("sim_t_s", trip.pickup_s);
        troot.attr("system", system);
        let ctx = xar_obs::trace::current_ctx();
        let mut ev = EventRecord::new(trip.id);
        ev.sim_t_s = trip.pickup_s;
        ev.window = window_id;
        ev.searches = cfg.lookups_per_request as u32 + 1;
        ev.search_ns = search_nss[i];
        ev.tier = explains[i].tier;
        ev.candidates = explains[i].candidates;
        ev.matches = all_matches[i].len() as u32;

        let mut booked = false;
        let mut assignment_failed = false;
        let mut stale_commit = false;
        let mut last_book_failure = None;
        // A request with window-time candidates that the policy still
        // sent to `Create` was displaced by the assignment stage (e.g.
        // a batch swap gave its ride to a cheaper rider).
        let ejected =
            matches!(assignment, Assignment::Create) && !requests[i].candidates.is_empty();
        if let Assignment::Book(c) = assignment {
            if let Some(res) = primary[i] {
                let ns = per_book_ns;
                report.book_ns.push(ns);
                pm.book_h.record(ns);
                if matches!(res, BookResult::Booked { .. }) {
                    ev.book_ns = ns;
                    record_booked(
                        report,
                        pm,
                        pending,
                        trip,
                        requests[i].candidates[c].ride,
                        res,
                        ctx,
                        &mut ev,
                    );
                    booked = true;
                    troot.attr("outcome", "booked");
                } else {
                    // The candidate went stale within the window.
                    assignment_failed = true;
                    stale_commit = true;
                    ev.stale += 1;
                    dm.stale_commits.inc();
                    report.stale_commits += 1;
                    xar_obs::trace::instant(
                        "request.rejected",
                        AttrList::new().with("stale_commit", 1u64),
                    );
                }
            } else {
                assignment_failed = true;
            }
        }
        if !booked {
            // Fall back to a fresh search when the window-time
            // candidates are no longer trustworthy: the assignment was
            // invalidated, or earlier commits changed the engine.
            if assignment_failed || dirty {
                let fresh = timed_search(backend, trip, cfg, report, pm);
                ev.searches += 1;
                report.matches_returned += fresh.len() as u64;
                for m in &fresh {
                    let _phase = xar_obs::trace::span("sim.book");
                    let t0 = Instant::now();
                    let res = backend.book_checked(m, cfg);
                    let ns = t0.elapsed().as_nanos() as u64;
                    report.book_ns.push(ns);
                    pm.book_h.record(ns);
                    if matches!(res, BookResult::Booked { .. }) {
                        ev.book_ns = ns;
                        record_booked(report, pm, pending, trip, B::describe(m).ride, res, ctx, &mut ev);
                        booked = true;
                        dirty = true;
                        troot.attr("outcome", "booked");
                        break;
                    }
                    if let BookResult::Failed(r) = res {
                        last_book_failure = Some(r);
                    }
                    report.stale_matches += 1;
                    ev.stale += 1;
                    xar_obs::trace::instant(
                        "request.rejected",
                        AttrList::new().with("stale", 1u64),
                    );
                }
            }
            if !booked {
                let res = timed_create(backend, trip, cfg, report, pm);
                if res.is_ok() {
                    dirty = true;
                }
                ev.outcome = if res.is_ok() { "created" } else { "unservable" };
                let reason = rejection_reason(
                    res.err(),
                    stale_commit,
                    ejected,
                    last_book_failure,
                    &explains[i],
                );
                ev.reason = reason.code();
                pm.reject(reason);
                troot.attr("outcome", ev.outcome);
            }
        }
        events::emit(ev);
    }

    let elapsed = t0.elapsed().as_nanos() as u64;
    dm.window_ns.record(elapsed);
    dm.batch_size.record(n as u64);
    report.window_ns.push(elapsed);
    report.window_sizes.push(n as u64);
    batch.clear();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dispatch_spec_parses_valid_values() {
        assert_eq!(DispatchSpec::parse("first"), Ok(DispatchSpec::First));
        assert_eq!(DispatchSpec::parse("batch:0"), Ok(DispatchSpec::Batch { window_ms: 0 }));
        assert_eq!(DispatchSpec::parse("batch:50"), Ok(DispatchSpec::Batch { window_ms: 50 }));
        assert_eq!(
            DispatchSpec::parse("batch:3600000"),
            Ok(DispatchSpec::Batch { window_ms: MAX_BATCH_WINDOW_MS })
        );
    }

    #[test]
    fn dispatch_spec_rejects_garbage() {
        for bad in ["", "nope", "batch", "batch:", "batch:abc", "batch:-5", "batch:1.5", "batch:3600001", "FIRST"] {
            assert!(DispatchSpec::parse(bad).is_err(), "{bad} must be rejected");
        }
    }

    #[test]
    fn dispatch_spec_labels() {
        assert_eq!(DispatchSpec::First.label(), "first");
        assert_eq!(DispatchSpec::Batch { window_ms: 50 }.label(), "batch:50ms");
    }

    #[test]
    fn built_policies_match_their_spec() {
        let cfg = SimConfig::default();
        let first = DispatchSpec::First.build(&cfg);
        assert!(!first.batched());
        assert_eq!(first.name(), "first");
        let batch = DispatchSpec::Batch { window_ms: 50 }.build(&cfg);
        assert!(batch.batched());
        assert!((batch.window_s() - 0.05).abs() < 1e-12);
    }
}
