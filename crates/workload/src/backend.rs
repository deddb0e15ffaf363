//! [`RideBackend`] adapters for the systems under test, and the one
//! mapping from a [`Trip`] to the request / offer it poses.

use std::sync::Arc;

use xar_core::{Reason, RideMatch, RideOffer, RideRequest, SearchExplain, XarEngine};
use xar_obs::Registry;
use xar_tshare::engine::{TShareMatch, TShareRequest};
use xar_tshare::TShareEngine;

use crate::sim::{BookResult, RideBackend, SimConfig};
use crate::trips::Trip;

/// The [`RideRequest`] a trip poses under the simulation parameters.
pub fn request_of(trip: &Trip, cfg: &SimConfig) -> RideRequest {
    RideRequest {
        source: trip.pickup,
        destination: trip.dropoff,
        window_start_s: trip.pickup_s,
        window_end_s: trip.pickup_s + cfg.window_s,
        walk_limit_m: cfg.walk_limit_m,
    }
}

/// The [`RideOffer`] a trip becomes when its rider turns driver.
pub fn offer_of(trip: &Trip, cfg: &SimConfig) -> RideOffer {
    RideOffer {
        source: trip.pickup,
        destination: trip.dropoff,
        departure_s: trip.pickup_s,
        seats: cfg.seats,
        detour_limit_m: cfg.detour_limit_m,
        driver: None,
        via: Vec::new(),
    }
}

/// [`BookResult`] from a core-engine booking outcome; failures carry
/// the error's typed rejection reason.
fn book_result(res: Result<xar_core::BookingOutcome, xar_core::XarError>) -> BookResult {
    match res {
        Ok(out) => BookResult::Booked {
            ride: out.ride.0,
            actual_detour_m: out.actual_detour_m,
            estimated_detour_m: out.estimated_detour_m,
            walk_m: out.walk_total_m,
            budget_before_m: out.detour_budget_before_m,
            pickup_eta_s: out.pickup_eta_s,
            dropoff_eta_s: out.dropoff_eta_s,
        },
        Err(e) => BookResult::Failed(e.reason()),
    }
}

/// XAR under simulation: the serial engine (one thread, no locks).
pub struct XarBackend {
    /// The wrapped engine (public so harnesses can inspect stats and
    /// memory after a run).
    pub engine: XarEngine,
}

impl XarBackend {
    /// Wrap an engine.
    pub fn new(engine: XarEngine) -> Self {
        Self { engine }
    }
}

impl RideBackend for XarBackend {
    type Match = RideMatch;

    fn search(&mut self, trip: &Trip, cfg: &SimConfig) -> (Vec<RideMatch>, SearchExplain) {
        let mut explain = SearchExplain::default();
        let matches = self
            .engine
            .search_explained(&request_of(trip, cfg), cfg.k, &mut explain)
            .unwrap_or_default();
        (matches, explain)
    }

    fn book(&mut self, m: &RideMatch, _cfg: &SimConfig) -> BookResult {
        book_result(self.engine.book_checked(m))
    }

    fn create(&mut self, trip: &Trip, cfg: &SimConfig) -> Result<(), Reason> {
        self.engine
            .create_ride(&offer_of(trip, cfg))
            .map(|_| ())
            .map_err(|e| e.reason())
    }

    fn track(&mut self, now_s: f64) {
        self.engine.track_all(now_s);
    }

    fn registry(&self) -> Option<Arc<Registry>> {
        Some(self.engine.metrics().registry())
    }

    fn name(&self) -> &'static str {
        "xar"
    }
}

/// The T-Share baseline under simulation.
pub struct TShareBackend {
    /// The wrapped engine.
    pub engine: TShareEngine,
}

impl TShareBackend {
    /// Wrap an engine.
    pub fn new(engine: TShareEngine) -> Self {
        Self { engine }
    }
}

impl RideBackend for TShareBackend {
    type Match = TShareMatch;

    /// T-Share cannot attribute a rejection: its explain is
    /// `candidates = matches`, nothing else.
    fn search(&mut self, trip: &Trip, cfg: &SimConfig) -> (Vec<TShareMatch>, SearchExplain) {
        let req = TShareRequest {
            pickup: trip.pickup,
            dropoff: trip.dropoff,
            window_start_s: trip.pickup_s,
            window_end_s: trip.pickup_s + cfg.window_s,
        };
        let matches = self.engine.search(&req, cfg.k);
        let explain = SearchExplain {
            candidates: matches.len() as u32,
            ..SearchExplain::default()
        };
        (matches, explain)
    }

    fn book(&mut self, m: &TShareMatch, _cfg: &SimConfig) -> BookResult {
        match self.engine.book(m) {
            Some(actual) => BookResult::Booked {
                ride: m.taxi.0,
                actual_detour_m: actual,
                estimated_detour_m: m.detour_m,
                walk_m: 0.0,                    // T-Share picks riders up at their door
                budget_before_m: f64::INFINITY, // T-Share has no per-ride budget
                pickup_eta_s: m.pickup_eta_s,
                dropoff_eta_s: f64::NAN, // T-Share does not expose it
            },
            // T-Share's `book` re-validates the taxi schedule at
            // insertion time; a `None` means the schedule can no
            // longer absorb the trip — the match went stale.
            None => BookResult::Failed(Reason::StaleCommit),
        }
    }

    fn create(&mut self, trip: &Trip, cfg: &SimConfig) -> Result<(), Reason> {
        self.engine
            .create_taxi(trip.pickup, trip.dropoff, trip.pickup_s, cfg.seats)
            .map(|_| ())
            .ok_or(Reason::NoRoute)
    }

    fn track(&mut self, now_s: f64) {
        self.engine.track_all(now_s);
    }

    fn registry(&self) -> Option<Arc<Registry>> {
        Some(self.engine.metrics().registry())
    }

    fn name(&self) -> &'static str {
        "tshare"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::run_simulation;
    use crate::trips::{generate_trips, TripGenConfig};
    use xar_core::EngineConfig;
    use xar_discretize::{ClusterGoal, RegionConfig, RegionIndex};
    use xar_roadnet::{sample_pois, CityConfig, NodeId, PoiConfig};
    use xar_tshare::TShareConfig;

    fn city() -> Arc<xar_roadnet::RoadGraph> {
        Arc::new(CityConfig::manhattan(25, 25, 42).generate())
    }

    fn region(graph: &Arc<xar_roadnet::RoadGraph>) -> Arc<RegionIndex> {
        let pois = sample_pois(
            graph,
            &PoiConfig {
                count: 700,
                ..Default::default()
            },
        );
        Arc::new(RegionIndex::build(
            Arc::clone(graph),
            &pois,
            RegionConfig {
                landmark_separation_m: 220.0,
                cluster_goal: ClusterGoal::Delta(150.0),
                max_walk_m: 900.0,
                ..Default::default()
            },
        ))
    }

    #[test]
    fn xar_simulation_shares_rides() {
        let graph = city();
        let reg = region(&graph);
        let trips = generate_trips(
            &graph,
            &TripGenConfig {
                count: 400,
                ..Default::default()
            },
        );
        let mut backend = XarBackend::new(XarEngine::new(reg, EngineConfig::default()));
        let report = run_simulation(&mut backend, &trips, &SimConfig::default());
        assert_eq!(report.booked + report.created + report.unservable, 400);
        assert!(report.created > 0, "first trips must create rides");
        assert!(report.booked > 0, "hotspot workload must produce shares");
        // Quality: every booking respected the walking limit.
        for w in &report.walk_m {
            assert!(*w <= 800.0 + 1e-9);
        }
        // XAR search never computes shortest paths.
        let s = backend.engine.stats().snapshot();
        let (creates, bookings, sps) = (s.creates, s.bookings, s.shortest_paths);
        assert!(
            sps <= creates + 4 * bookings,
            "search leaked shortest paths"
        );
        // The run's registry covers both the simulator phases and the
        // engine internals.
        let reg = report.registry.as_ref().expect("registry attached");
        assert_eq!(reg.histogram("sim.search_ns").count(), report.looks);
        assert_eq!(reg.histogram("engine.search_ns").count(), report.looks);
        assert!(reg.histogram("engine.search_candidates").count() > 0);
        assert!(report.to_json().contains("\"engine.create_ns\""));
    }

    #[test]
    fn tshare_simulation_shares_rides() {
        let graph = city();
        let trips = generate_trips(
            &graph,
            &TripGenConfig {
                count: 300,
                ..Default::default()
            },
        );
        let cfg = TShareConfig {
            grid_cell_m: 400.0,
            ..Default::default()
        };
        let mut backend = TShareBackend::new(TShareEngine::new(Arc::clone(&graph), cfg));
        let report = run_simulation(&mut backend, &trips, &SimConfig::default());
        assert_eq!(report.booked + report.created + report.unservable, 300);
        assert!(report.booked > 0, "T-Share must also find shares");
    }

    #[test]
    fn same_workload_both_systems_comparable_share_rates() {
        // Not a performance test — just that the two backends see the
        // same protocol and produce sane, comparable outcomes.
        let graph = city();
        let reg = region(&graph);
        let trips = generate_trips(
            &graph,
            &TripGenConfig {
                count: 300,
                ..Default::default()
            },
        );
        let mut xar = XarBackend::new(XarEngine::new(reg, EngineConfig::default()));
        let rx = run_simulation(&mut xar, &trips, &SimConfig::default());
        let mut ts = TShareBackend::new(TShareEngine::new(
            Arc::clone(&graph),
            TShareConfig {
                grid_cell_m: 400.0,
                ..Default::default()
            },
        ));
        let rt = run_simulation(&mut ts, &trips, &SimConfig::default());
        assert!(rx.share_rate() > 0.02);
        assert!(rt.share_rate() > 0.02);
    }

    /// A match made before another booking spent the ride's detour
    /// budget is refused, and the refusal leaves the ride as it was,
    /// although the second insertion would realise only 16 m of detour
    /// against the 580 m left: its 798 m estimate was made against the
    /// full 1 000 m.
    #[test]
    fn xar_backend_refuses_a_match_made_against_a_spent_budget() {
        let graph = city();
        let n = graph.node_count() as u32;
        let mut backend = XarBackend::new(XarEngine::new(region(&graph), EngineConfig::default()));
        let offer = RideOffer {
            source: graph.point(NodeId(0)),
            destination: graph.point(NodeId(n - 1)),
            departure_s: 0.0,
            seats: 3,
            detour_limit_m: 1_000.0,
            driver: None,
            via: Vec::new(),
        };
        let id = backend.engine.create_ride(&offer).unwrap();
        let found = |src: u32, dst: u32| {
            let req = RideRequest {
                source: graph.point(NodeId(src)),
                destination: graph.point(NodeId(dst)),
                window_start_s: 0.0,
                window_end_s: 3_600.0,
                walk_limit_m: 200.0,
            };
            let ms = backend.engine.search(&req, usize::MAX).unwrap();
            *ms.iter().find(|m| m.ride == id).expect("the ride matches")
        };
        // Two matches on the one ride, from the same engine state.
        let (first, stale) = (found(608, 589), found(380, 558));
        let cfg = SimConfig::default();
        assert!(matches!(
            backend.book(&first, &cfg),
            BookResult::Booked { .. }
        ));
        let ride = |b: &XarBackend| b.engine.ride(id).unwrap().clone();
        let before = ride(&backend);
        assert!(
            stale.detour_est_m > before.detour_remaining_m(),
            "the second match is not stale"
        );
        let refused = backend.book(&stale, &cfg);
        assert!(
            matches!(refused, BookResult::Failed(Reason::DetourBudgetExceeded)),
            "{refused:?}"
        );
        let after = ride(&backend);
        assert_eq!(after.detour_used_m, before.detour_used_m);
        assert_eq!(after.bookings.len(), 1);
    }
}
