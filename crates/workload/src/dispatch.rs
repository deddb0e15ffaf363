//! The §X.A.2 replay loop, [`run_simulation`]: for every request run
//! the tracking sweeps that are due, search, book the least-walk match
//! — falling through the match list when an entry has gone stale — and
//! otherwise offer the trip as a new ride.
//!
//! Every request opens one `request` root, hands it one wide
//! [`EventRecord`] (published when the root closes, with the request's
//! duration split by layer) and leaves one `sim.requests{outcome}` /
//! `sim.reject_reason{reason}` count. A second, batch-window policy
//! was built on a three-stage split of this loop, measured and removed
//! (EXPERIMENTS.md, "Figure 7"): supply never binds under the paper's
//! protocol, so joint assignment had nothing to win. So was a driver
//! that raced N worker threads over a sharded engine (EXPERIMENTS.md,
//! "One replay driver"): it was slower than this loop on two cores and its
//! decisions did not repeat.

use std::sync::Arc;
use std::time::Instant;

use xar_core::{Reason, SearchExplain};
use xar_obs::events::EventRecord;
use xar_obs::{Counter, Histogram, Registry};

use crate::report::{Decision, DecisionOutcome, SimReport};
use crate::sim::{BookResult, RideBackend, SimConfig};
use crate::trips::Trip;

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

/// Run the §X.A.2 protocol over `trips`: search; book the best match
/// if any (falling through the match list on stale entries); otherwise
/// create a new ride. Per-operation wall-clock latencies are recorded
/// in the returned report.
///
/// When the global trace recorder is enabled, every trip becomes one
/// `request` root carrying the trip's wide event — outcome, reason,
/// promised pick-up / drop-off ETAs and its wall time split by layer —
/// and every tracking sweep one `track` root; tail sampling decides
/// which roots keep their spans.
pub fn run_simulation<B: RideBackend>(
    backend: &mut B,
    trips: &[Trip],
    cfg: &SimConfig,
) -> SimReport {
    // Phase histograms live in the backend's registry when it has one
    // (so engine internals and simulator phases share a snapshot), in a
    // private one otherwise.
    let registry = backend
        .registry()
        .unwrap_or_else(|| Arc::new(Registry::new()));
    let mut report = SimReport::default();
    let pm = PhaseMetrics::new(&registry);
    let system = backend.name();
    let mut next_track = trips.first().map_or(0.0, |t| t.pickup_s);
    // Every search of the run fills this one buffer.
    let mut matches = Vec::new();

    for (idx, trip) in trips.iter().enumerate() {
        track_sweeps(backend, cfg, trip.pickup_s, &mut next_track, &pm, system);
        dispatch_request(
            backend,
            cfg,
            idx,
            trip,
            &mut matches,
            &mut report,
            &pm,
            system,
        );
    }
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
            *next_track += every;
        }
    }
}

/// One timed search into `matches` with full accounting: the
/// rejection attribution and the wall-clock nanoseconds (for the
/// request's wide event).
fn timed_search<B: RideBackend>(
    backend: &mut B,
    trip: &Trip,
    cfg: &SimConfig,
    matches: &mut Vec<B::Match>,
    report: &mut SimReport,
    pm: &PhaseMetrics,
) -> (SearchExplain, u64) {
    let _phase = xar_obs::trace::span("sim.search");
    let t0 = Instant::now();
    let explain = backend.search(trip, cfg, matches);
    let ns = t0.elapsed().as_nanos() as u64;
    report.search_ns.push(ns);
    pm.search_h.record(ns);
    report.looks += 1;
    (explain, ns)
}

/// Book-success bookkeeping. Also fills the outcome half of the
/// request's wide event.
fn record_booked(
    report: &mut SimReport,
    pm: &PhaseMetrics,
    trip: &Trip,
    res: BookResult,
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
    report
        .detour_excess_m
        .push((actual_detour_m - budget_before_m).max(0.0));
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
    ev.pickup_eta_s = pickup_eta_s;
    ev.dropoff_eta_s = dropoff_eta_s;
    report.decisions.push(Decision {
        trip_id: trip.id,
        outcome: DecisionOutcome::Booked { ride },
    });
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
        report.decisions.push(Decision {
            trip_id: trip.id,
            outcome: DecisionOutcome::Created,
        });
    } else {
        report.unservable += 1;
        pm.req_unservable.inc();
        report.decisions.push(Decision {
            trip_id: trip.id,
            outcome: DecisionOutcome::Unservable,
        });
    }
    res
}

/// One request through the protocol: look, search (into `matches`),
/// book down the match list, else create; one root carrying one wide
/// event either way.
#[allow(clippy::too_many_arguments)]
fn dispatch_request<B: RideBackend>(
    backend: &mut B,
    cfg: &SimConfig,
    idx: usize,
    trip: &Trip,
    matches: &mut Vec<B::Match>,
    report: &mut SimReport,
    pm: &PhaseMetrics,
    system: &'static str,
) {
    let mut troot = xar_obs::trace::root("request");
    troot.attr("idx", idx as u64);
    troot.attr("sim_t_s", trip.pickup_s);
    troot.attr("system", system);
    let mut ev = EventRecord::new(trip.id);
    ev.sim_t_s = trip.pickup_s;

    // Extra "look" searches (high look-to-book scenarios, Fig. 5b).
    for _ in 0..cfg.lookups_per_request {
        let _ = timed_search(backend, trip, cfg, matches, report, pm);
    }

    let (explain, search_ns) = timed_search(backend, trip, cfg, matches, report, pm);
    report.matches_returned += matches.len() as u64;
    ev.searches = cfg.lookups_per_request as u32 + 1;
    ev.search_ns = search_ns;
    ev.tier = explain.tier;
    ev.candidates = explain.candidates;
    ev.matches = matches.len() as u32;

    let mut booked = false;
    let mut last_book_failure = None;
    for m in matches.iter() {
        let _phase = xar_obs::trace::span("sim.book");
        let t0 = Instant::now();
        let res = backend.book(m, cfg);
        let ns = t0.elapsed().as_nanos() as u64;
        report.book_ns.push(ns);
        pm.book_h.record(ns);
        match res {
            BookResult::Booked { .. } => {
                ev.book_ns = ns;
                record_booked(report, pm, trip, res, &mut ev);
                booked = true;
                troot.attr("outcome", "booked");
                break;
            }
            BookResult::Failed(r) => last_book_failure = Some(r),
        }
        report.stale_matches += 1;
        ev.stale += 1;
    }
    if !booked {
        let res = timed_create(backend, trip, cfg, report, pm);
        ev.outcome = if res.is_ok() { "created" } else { "unservable" };
        // Fixed precedence (EXPERIMENTS.md): a refused offer keeps its
        // own reason, then the last booking failure, then the search's
        // attribution — never `Reason::Unknown`.
        let reason = res
            .err()
            .or(last_book_failure)
            .unwrap_or_else(|| explain.dominant_reason(0));
        ev.reason = reason.code();
        pm.reject(reason);
        troot.attr("outcome", ev.outcome);
    }
    troot.event(ev);
}
