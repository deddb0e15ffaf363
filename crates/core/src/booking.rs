//! Ride booking (§VIII.B).
//!
//! When a rider confirms a match, new via-points are created at the
//! pick-up and drop-off landmarks, the route is updated with freshly
//! computed shortest paths (at most 4 — "since it is done in the
//! back-end after the booking is confirmed, it does not affect the user
//! experience"), the detour budget and seat count are decremented, and
//! the pass-through / reachable clusters of the ride are recomputed —
//! "such an update may render some of the earlier pass through and
//! reachable clusters invalid". The booking that sells the last seat
//! only de-lists the ride.
//!
//! The route edit is [`Route::insert_stops`], the one §VIII.B insertion
//! the T-Share baseline books with too: one call for a pick-up and
//! drop-off on the same segment, two for different segments.

use xar_roadnet::{NodeId, Route};

use crate::engine::XarEngine;
use crate::error::XarError;
use crate::ride::{Booking, RideStatus};
use crate::search::RideMatch;

/// The result of a confirmed booking — including the realised detour,
/// which the quality experiment (Figure 3a) compares against the
/// search-time estimate and the ε guarantee.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BookingOutcome {
    /// The ride booked.
    pub ride: crate::ride::RideId,
    /// Extra distance the route actually grew by, metres.
    pub actual_detour_m: f64,
    /// The search-time estimate for the same quantity, metres.
    pub estimated_detour_m: f64,
    /// Total walking the rider incurs, metres.
    pub walk_total_m: f64,
    /// Scheduled pick-up time, absolute seconds.
    pub pickup_eta_s: f64,
    /// Scheduled drop-off time, absolute seconds.
    pub dropoff_eta_s: f64,
    /// Shortest-path computations this booking performed (≤ 4).
    pub shortest_paths: usize,
    /// The ride's remaining detour budget *before* this booking,
    /// metres. `actual_detour_m - detour_budget_before_m` (when
    /// positive) is the "detour limit exceeded by" quantity whose ε
    /// bound Figure 3a evaluates.
    pub detour_budget_before_m: f64,
}

impl XarEngine {
    /// **Book** a match previously returned by [`XarEngine::search`].
    ///
    /// Every check runs once, against the *current* ride state, before
    /// any route work: the ride must still exist and be active, have a
    /// free seat, have its pick-up segment no later than its drop-off
    /// segment, not have driven past the pick-up segment, and still hold
    /// the detour budget for the match's estimate. A match booked right
    /// after its own search always passes the budget check — search
    /// admitted it against that same budget — so the check only turns
    /// away matches that other bookings made stale in between. The
    /// realised detour may still overshoot the estimate by the
    /// discretization error (Figure 3a).
    pub fn book_checked(&mut self, m: &RideMatch) -> Result<BookingOutcome, XarError> {
        let mut tspan = xar_obs::trace::span("book");
        let region = std::sync::Arc::clone(self.region());
        let pickup_node = region.landmark(m.pickup_landmark).node;
        let dropoff_node = region.landmark(m.dropoff_landmark).node;

        let ride = self.ride(m.ride).ok_or(XarError::UnknownRide(m.ride))?;
        if ride.status != RideStatus::Active {
            return Err(XarError::UnknownRide(m.ride));
        }
        if ride.seats_available == 0 {
            return Err(XarError::NoSeats(m.ride));
        }
        let n_seg = ride.via_points.len() - 1;
        let (pickup_seg, dropoff_seg) = (m.pickup_seg.min(n_seg - 1), m.dropoff_seg.min(n_seg - 1));
        if pickup_seg > dropoff_seg {
            return Err(XarError::InvalidRequest(
                "pick-up segment after drop-off segment",
            ));
        }
        // The ride must not have passed the pick-up segment's start.
        if ride.progress_idx > ride.via_points[pickup_seg + 1] {
            return Err(XarError::AlreadyPassed(m.ride));
        }
        let budget_before = ride.detour_remaining_m();
        if m.detour_est_m > budget_before {
            return Err(XarError::DetourExceeded {
                ride: m.ride,
                needed_m: m.detour_est_m,
                remaining_m: budget_before,
            });
        }

        let old_len = ride.route.dist_m();
        let graph = region.graph();
        let mut sp_count = 0usize;
        let sp_ns = std::sync::Arc::clone(&self.metrics.sp_ns);
        // Counted when computed, like creation does: a leg that finds
        // no route fails the booking after its predecessors were paid
        // for, and `engine.shortest_paths` must not fall behind
        // `engine.sp_ns`.
        let sp_total = std::sync::Arc::clone(&self.metrics.shortest_paths);
        let mut leg = |a: NodeId, b: NodeId| -> Option<Route> {
            sp_count += 1;
            sp_total.inc();
            let p = {
                let _sp_span = xar_obs::SpanTimer::new(std::sync::Arc::clone(&sp_ns));
                let _sp_trace = xar_obs::trace::span("shortest_path");
                region.router().path(a, b)
            }?;
            Route::from_path_result(graph, &p)
        };

        // §VIII.B: on one segment, SP(s1, src), SP(src, dest),
        // SP(dest, s2); across two, SP(s1, src), SP(src, s2) and then
        // SP(d1, dest), SP(dest, d2) on the route the first left.
        let traced = tspan.is_recording();
        let splice_span = traced.then(|| xar_obs::trace::span("route_splice"));
        let (route, vias) = (&ride.route, &ride.via_points);
        let inserted = if pickup_seg == dropoff_seg {
            route.insert_stops(vias, pickup_seg, &[pickup_node, dropoff_node], &mut leg)
        } else {
            route
                .insert_stops(vias, pickup_seg, &[pickup_node], &mut leg)
                .and_then(|(r, v)| r.insert_stops(&v, dropoff_seg + 1, &[dropoff_node], &mut leg))
        };
        let (new_route, vias) = inserted.ok_or(XarError::NoRoute)?;
        let (pickup_idx, dropoff_idx) = (vias[pickup_seg + 1], vias[dropoff_seg + 2]);
        drop(splice_span);

        let actual_detour = (new_route.dist_m() - old_len).max(0.0);
        // The estimate respected the budget; the realised detour may
        // exceed it by the discretization error (bounded by the ε
        // guarantee). The booking is honoured either way — that
        // overshoot is exactly what the Figure 3a experiment measures —
        // but the consumed budget is recorded truthfully, so the ride
        // stops accepting further riders once it is exhausted.
        let ride = self.rides_mut().get_mut(&m.ride).expect("checked above");

        let pickup_eta;
        let dropoff_eta;
        {
            ride.route = new_route;
            ride.via_points = vias;
            ride.seats_available -= 1;
            ride.detour_used_m += actual_detour;
            ride.bookings.push(Booking {
                pickup_idx,
                dropoff_idx,
                detour_m: actual_detour,
            });
            pickup_eta = ride.eta_at_route_idx(pickup_idx);
            dropoff_eta = ride.eta_at_route_idx(dropoff_idx);
        }

        // Refresh the index: remove every stale entry, then recompute
        // the pass-through and reachable clusters for the updated route
        // and the reduced detour budget, which every new row carries —
        // none if this booking sold the last seat.
        let (region, config) = (std::sync::Arc::clone(self.region()), self.config().clone());
        self.with_index_and_ride(m.ride, |ride, index| {
            XarEngine::deindex_ride(ride, index, traced);
            let from = ride.progress_idx;
            XarEngine::index_ride(&region, &config, ride, index, from);
        });
        self.metrics.bookings.inc();
        tspan.attr("ride", m.ride.0);
        tspan.attr("shortest_paths", sp_count);
        tspan.attr("detour_m", actual_detour);

        Ok(BookingOutcome {
            ride: m.ride,
            actual_detour_m: actual_detour,
            estimated_detour_m: m.detour_est_m,
            walk_total_m: m.walk_total_m(),
            pickup_eta_s: pickup_eta,
            dropoff_eta_s: dropoff_eta,
            shortest_paths: sp_count,
            detour_budget_before_m: budget_before,
        })
    }
}
