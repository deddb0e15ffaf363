//! The §X.A.2 replay loop: for every request run the tracking sweeps
//! that are due, search, book the least-walk match — falling through
//! the match list when an entry has gone stale — and otherwise offer
//! the trip as a new ride. One loop serves both drivers:
//! [`crate::sim::run_simulation`] calls it on the caller's backend,
//! [`crate::parallel::run_parallel_dispatch`] once per worker thread.
//!
//! Every request leaves one `request` trace, one wide
//! [`EventRecord`] and one `sim.requests{outcome}` /
//! `sim.reject_reason{reason}` count. A second, batch-window policy
//! was built on a three-stage split of this loop, measured and removed
//! (EXPERIMENTS.md, "Figure 7"): supply never binds under the paper's
//! protocol, so joint assignment had nothing to win.

use std::sync::Arc;
use std::time::Instant;

use xar_core::{Reason, SearchExplain};
use xar_obs::events::{self, EventRecord};
use xar_obs::trace::AttrList;
use xar_obs::{Counter, Histogram, Registry};

use crate::report::{Decision, DecisionOutcome, SimReport};
use crate::sim::{BookResult, RideBackend, SimConfig};
use crate::trips::Trip;

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

/// Pre-resolved `sim.*` phase series.
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

/// Replay `trips` through `backend`, recording the `sim.*` series into
/// `registry` — the parallel driver hands one registry to every
/// worker, so all of them record into the same snapshot even when the
/// backend keeps none of its own.
pub(crate) fn run_dispatch<B: RideBackend>(
    backend: &mut B,
    trips: &[Trip],
    cfg: &SimConfig,
    registry: Arc<Registry>,
) -> SimReport {
    let mut report = SimReport::default();
    let pm = PhaseMetrics::new(&registry);
    let system = backend.name();
    let mut pending: Vec<PendingLifecycle> = Vec::new();
    let mut next_track = trips.first().map_or(0.0, |t| t.pickup_s);

    for (idx, trip) in trips.iter().enumerate() {
        track_sweeps(backend, cfg, trip.pickup_s, &mut next_track, &pm, &mut pending, system);
        dispatch_request(backend, cfg, idx, trip, &mut report, &pm, &mut pending, system);
    }

    // The simulation clock stops at the last request; milestones
    // already scheduled (bookings with known ETAs) are flushed so
    // committed snapshots contain complete rider timelines.
    flush_lifecycle(&mut pending, f64::INFINITY);
    // Publish this thread's buffered wide events: the parallel driver
    // runs one replay per worker thread, so every emitter flushes
    // itself and a post-run snapshot is complete.
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

/// Book-success bookkeeping. Also fills the outcome half of the
/// request's wide event.
fn record_booked(
    report: &mut SimReport,
    pm: &PhaseMetrics,
    pending: &mut Vec<PendingLifecycle>,
    trip: &Trip,
    res: BookResult,
    trace: Option<u64>,
    ev: &mut EventRecord,
) {
    let BookResult::Booked {
        ride,
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
    if let Some(trace) = trace {
        if pickup_eta_s.is_finite() || dropoff_eta_s.is_finite() {
            pending.push((trace, pickup_eta_s, dropoff_eta_s));
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

/// One request through the protocol: look, search, book down the match
/// list, else create; one trace root and one wide event either way.
#[allow(clippy::too_many_arguments)]
fn dispatch_request<B: RideBackend>(
    backend: &mut B,
    cfg: &SimConfig,
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
    let trace = xar_obs::trace::current_trace();
    xar_obs::trace::instant("request.born", AttrList::new().with("sim_t_s", trip.pickup_s));
    let mut ev = EventRecord::new(trip.id);
    ev.sim_t_s = trip.pickup_s;

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

    let mut booked = false;
    let mut last_book_failure = None;
    for m in &matches {
        let _phase = xar_obs::trace::span("sim.book");
        let t0 = Instant::now();
        let res = backend.book(m, cfg);
        let ns = t0.elapsed().as_nanos() as u64;
        report.book_ns.push(ns);
        pm.book_h.record(ns);
        match res {
            BookResult::Booked { .. } => {
                ev.book_ns = ns;
                record_booked(report, pm, pending, trip, res, trace, &mut ev);
                booked = true;
                troot.attr("outcome", "booked");
                break;
            }
            BookResult::Failed(r) => last_book_failure = Some(r),
        }
        report.stale_matches += 1;
        ev.stale += 1;
        xar_obs::trace::instant("request.rejected", AttrList::new().with("stale", 1u64));
    }
    if !booked {
        let res = timed_create(backend, trip, cfg, report, pm);
        ev.outcome = if res.is_ok() { "created" } else { "unservable" };
        // Fixed precedence (EXPERIMENTS.md): a refused offer keeps its
        // own reason, then the last booking failure, then the search's
        // attribution — never `Reason::Unknown`.
        let reason =
            res.err().or(last_book_failure).unwrap_or_else(|| explain.dominant_reason(0));
        ev.reason = reason.code();
        pm.reject(reason);
        troot.attr("outcome", ev.outcome);
    }
    events::emit(ev);
}
