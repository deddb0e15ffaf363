//! Ride tracking (§VIII.A) — operation O3.
//!
//! Once a ride is on the move, clusters it has crossed — and clusters it
//! can no longer reach without violating its detour limit — are
//! *obsolete* and must leave the index, or "for a new request arising
//! from the part of the route ... that the ride has already passed,
//! this ride \[would\] be mistakenly shown as one of the potential
//! rides".
//!
//! The paper's three update steps, implemented verbatim:
//!
//! 1. mark each crossed pass-through cluster and all its connected
//!    reachable clusters obsolete;
//! 2. for each obsolete cluster, check whether it is still reachable
//!    through any remaining valid pass-through cluster; if not, remove
//!    the ride from that cluster's potential-rides list (if it is,
//!    refresh the entry from the best surviving pass-through);
//! 3. remove the crossed pass-through clusters from the ride's
//!    pass-through list.

use xar_discretize::ClusterId;

use crate::engine::XarEngine;
use crate::error::XarError;
use crate::index::PotentialRide;
use crate::ride::{PassCluster, RideId, RideStatus};

impl XarEngine {
    /// Advance `ride` to wall-clock time `now_s`, updating its progress
    /// along the route and expelling obsolete clusters from the index.
    ///
    /// A ride tracked past the end of its route is retired: it
    /// disappears from the index and from the engine's ride table, and
    /// the method reports `RideStatus::Completed`.
    pub fn track_ride(&mut self, id: RideId, now_s: f64) -> Result<RideStatus, XarError> {
        self.metrics.tracks.inc();
        let mut tspan = xar_obs::trace::span("track");
        tspan.attr("ride", id.0);
        let ride = self
            .rides_mut()
            .get_mut(&id)
            .ok_or(XarError::UnknownRide(id))?;
        if now_s <= ride.departure_s {
            return Ok(ride.status);
        }
        // Convert wall-clock progress back to free-flow route time via
        // the ride's congestion multiplier.
        let elapsed = (now_s - ride.departure_s) / ride.time_scale;
        let new_idx = ride.route.index_at_time(elapsed);
        if new_idx <= ride.progress_idx && new_idx + 1 < ride.route.len() {
            return Ok(ride.status); // no forward progress; nothing to do
        }

        if new_idx + 1 >= ride.route.len() {
            // Route finished: retire the ride completely.
            let traced = tspan.is_recording();
            self.with_index_and_ride(id, |ride, index| {
                XarEngine::deindex_ride(ride, index, traced);
                ride.status = RideStatus::Completed;
            });
            self.rides_mut().remove(&id);
            return Ok(RideStatus::Completed);
        }

        self.with_index_and_ride(id, |ride, index| {
            ride.progress_idx = new_idx;
            // Step 1: crossed pass-through clusters (exit way-point
            // strictly behind the ride) and their reachable clusters.
            let crossed = |p: &PassCluster| p.exit_idx < new_idx;
            let mut obsolete: Vec<ClusterId> = ride
                .pass_clusters
                .iter()
                .filter(|p| crossed(p))
                .flat_map(PassCluster::clusters)
                .collect();
            if obsolete.is_empty() {
                return;
            }
            obsolete.sort_unstable();
            obsolete.dedup();

            // Step 3 first (so Step 2 sees only the *valid* pass-through
            // clusters): drop the crossed entries from the ride.
            ride.pass_clusters.retain(|p| !crossed(p));

            // Step 2: for each obsolete cluster, find the best surviving
            // way to serve it; refresh or remove its index entry. A
            // pass-through cluster's own entry displaces only a
            // strictly larger detour.
            crate::footprint::with(index.cluster_count(), |best| {
                for p in &ride.pass_clusters {
                    best.offer(p.cluster, p.entry(ride, p.eta_s, 0.0), |own, kept| {
                        own.detour_m < kept.detour_m
                    });
                    for &(c, detour, eta) in &p.reachable {
                        best.offer(c, p.entry(ride, eta, detour), PotentialRide::better_than);
                    }
                }
                for c in obsolete {
                    index.remove(c, ride.id);
                    if let Some(entry) = best.get(c) {
                        index.insert(c, entry);
                    }
                }
            });
        });
        Ok(RideStatus::Active)
    }

    /// Advance every live ride to `now_s` (the periodic tracking sweep
    /// of a deployed system). Returns the number of rides retired.
    pub fn track_all(&mut self, now_s: f64) -> usize {
        let ids: Vec<RideId> = self.rides().map(|r| r.id).collect();
        let mut retired = 0;
        for id in ids {
            if matches!(self.track_ride(id, now_s), Ok(RideStatus::Completed)) {
                retired += 1;
            }
        }
        retired
    }
}
