//! The ride-sharing simulation framework of §X.A.2, generic over the
//! system under test.
//!
//! This module keeps the configuration ([`SimConfig`]) and the
//! system-under-test abstraction ([`RideBackend`]); the replay loop,
//! [`run_simulation`], lives in `crate::dispatch`.

use std::sync::Arc;

use xar_core::{Reason, SearchExplain};
use xar_obs::Registry;

use crate::trips::Trip;

/// Simulation parameters shared by both systems.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Rider walking threshold per request, metres (XAR only; T-Share
    /// picks riders up at their location).
    pub walk_limit_m: f64,
    /// Pick-up window width: a request at `t` accepts pick-ups in
    /// `[t, t + window_s]`.
    pub window_s: f64,
    /// Detour budget given to newly created rides, metres.
    pub detour_limit_m: f64,
    /// Seats offered by a newly created ride (taxi capacity 4 including
    /// the driver ⇒ 3).
    pub seats: u8,
    /// Matches requested per search (`usize::MAX` = all).
    pub k: usize,
    /// Run a tracking sweep every this many simulated seconds (`None`
    /// disables tracking).
    pub track_every_s: Option<f64>,
    /// Extra *look* searches issued per booking — the look-to-book
    /// ratio `r` of Figure 5b is `lookups_per_request + 1`.
    pub lookups_per_request: usize,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            walk_limit_m: 800.0,
            window_s: 1_200.0,
            detour_limit_m: 4_000.0,
            seats: 3,
            k: usize::MAX,
            track_every_s: Some(600.0),
            lookups_per_request: 0,
        }
    }
}

/// A ride-sharing system under simulation. Implemented for XAR and for
/// the T-Share baseline in
/// [`crate::backend`]; [`run_simulation`] borrows one and replays the
/// trips through it.
pub trait RideBackend {
    /// An opaque match handle.
    type Match;

    /// Search for rides serving `trip`: replace the contents of `out`
    /// with up to `k` matches, best first, and return the per-check
    /// rejection attribution for the request's wide event. `out` is the
    /// caller's, reused across searches, so a backend that fills it in
    /// place allocates nothing once it has grown. A backend that cannot
    /// attribute more finely reports `candidates = matches` and nothing
    /// else, which keeps the reason taxonomy closed: a matchless search
    /// decodes to [`Reason::NoClusterCandidates`].
    fn search(&mut self, trip: &Trip, cfg: &SimConfig, out: &mut Vec<Self::Match>)
        -> SearchExplain;
    /// Book a match; [`BookResult::Failed`] carries the typed reason
    /// when it went stale.
    fn book(&mut self, m: &Self::Match, cfg: &SimConfig) -> BookResult;
    /// Offer `trip` as a new ride; on failure, the typed
    /// [`Reason`] the request becomes unservable with (e.g.
    /// unroutable end-points).
    fn create(&mut self, trip: &Trip, cfg: &SimConfig) -> Result<(), Reason>;
    /// Advance the system clock (tracking sweep).
    fn track(&mut self, now_s: f64);
    /// The backend's own metric registry, if it keeps one. When
    /// present, [`run_simulation`] records its `sim.*` phase metrics into
    /// the same registry, so one snapshot covers the whole stack
    /// (simulator phases + engine internals + lock telemetry).
    fn registry(&self) -> Option<Arc<Registry>> {
        None
    }
    /// Short system name stamped on every request trace (`system`
    /// attribute), so one trace file can interleave XAR and T-Share
    /// timelines distinguishably.
    fn name(&self) -> &'static str {
        "backend"
    }
}

/// Outcome of one booking attempt.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BookResult {
    /// Booked; carries the ride and `(actual detour m, estimated
    /// detour m, walked m)` for quality accounting.
    Booked {
        /// The ride that absorbed the request (backend-opaque id).
        ride: u64,
        /// Realised route extension, metres.
        actual_detour_m: f64,
        /// Search-time detour estimate, metres.
        estimated_detour_m: f64,
        /// Rider walking, metres.
        walk_m: f64,
        /// The ride's remaining detour budget before the booking,
        /// metres.
        budget_before_m: f64,
        /// Scheduled pick-up time, absolute simulated seconds (`NaN`
        /// when the backend cannot predict it).
        pickup_eta_s: f64,
        /// Scheduled drop-off time, absolute simulated seconds (`NaN`
        /// when unknown — T-Share does not expose it).
        dropoff_eta_s: f64,
    },
    /// The booking failed, with the typed [`Reason`] (ride full,
    /// detour budget gone, departed, retired); the simulation falls
    /// through to ride creation.
    Failed(Reason),
}

pub use crate::dispatch::run_simulation;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trips::{generate_trips, TripGenConfig};
    use xar_roadnet::CityConfig;

    /// A scripted backend to validate the protocol mechanics.
    struct Scripted {
        /// Per call: how many matches search returns.
        match_counts: Vec<usize>,
        searches: usize,
        books: usize,
        creates: usize,
        tracks: Vec<f64>,
        fail_first_booking: bool,
    }

    impl RideBackend for Scripted {
        type Match = ();

        fn search(&mut self, _t: &Trip, _c: &SimConfig, out: &mut Vec<()>) -> SearchExplain {
            let n = self.match_counts.get(self.searches).copied().unwrap_or(0);
            self.searches += 1;
            *out = vec![(); n];
            SearchExplain::default()
        }
        fn book(&mut self, _m: &(), _c: &SimConfig) -> BookResult {
            self.books += 1;
            if self.fail_first_booking && self.books == 1 {
                BookResult::Failed(Reason::CapacityFull)
            } else {
                BookResult::Booked {
                    ride: 1,
                    actual_detour_m: 10.0,
                    estimated_detour_m: 8.0,
                    walk_m: 50.0,
                    budget_before_m: 100.0,
                    pickup_eta_s: 0.0,
                    dropoff_eta_s: 0.0,
                }
            }
        }
        fn create(&mut self, _t: &Trip, _c: &SimConfig) -> Result<(), Reason> {
            self.creates += 1;
            Ok(())
        }
        fn track(&mut self, now: f64) {
            self.tracks.push(now);
        }
    }

    fn trips(n: usize) -> Vec<Trip> {
        let g = CityConfig::test_city(1).generate();
        generate_trips(
            &g,
            &TripGenConfig {
                count: n,
                ..Default::default()
            },
        )
    }

    #[test]
    fn protocol_books_else_creates() {
        let ts = trips(3);
        let mut b = Scripted {
            match_counts: vec![0, 2, 0],
            searches: 0,
            books: 0,
            creates: 0,
            tracks: vec![],
            fail_first_booking: false,
        };
        let cfg = SimConfig {
            track_every_s: None,
            ..Default::default()
        };
        let r = run_simulation(&mut b, &ts, &cfg);
        assert_eq!(b.searches, 3);
        assert_eq!(r.booked, 1);
        assert_eq!(r.created, 2);
        assert_eq!(b.books, 1, "first match books, second never tried");
        assert_eq!(r.matches_returned, 2);
        assert_eq!(r.looks, 3);
    }

    #[test]
    fn stale_match_falls_through_to_next() {
        let ts = trips(1);
        let mut b = Scripted {
            match_counts: vec![2],
            searches: 0,
            books: 0,
            creates: 0,
            tracks: vec![],
            fail_first_booking: true,
        };
        let cfg = SimConfig {
            track_every_s: None,
            ..Default::default()
        };
        let r = run_simulation(&mut b, &ts, &cfg);
        assert_eq!(b.books, 2);
        assert_eq!(r.booked, 1);
        assert_eq!(r.stale_matches, 1);
        assert_eq!(r.created, 0);
    }

    #[test]
    fn all_stale_matches_create_instead() {
        let ts = trips(1);
        struct AllStale {
            books: usize,
        }
        impl RideBackend for AllStale {
            type Match = ();
            fn search(&mut self, _: &Trip, _: &SimConfig, out: &mut Vec<()>) -> SearchExplain {
                *out = vec![(); 3];
                SearchExplain::default()
            }
            fn book(&mut self, _: &(), _: &SimConfig) -> BookResult {
                self.books += 1;
                BookResult::Failed(Reason::WindowExpired)
            }
            fn create(&mut self, _: &Trip, _: &SimConfig) -> Result<(), Reason> {
                Ok(())
            }
            fn track(&mut self, _: f64) {}
        }
        let mut b = AllStale { books: 0 };
        let cfg = SimConfig {
            track_every_s: None,
            ..Default::default()
        };
        let r = run_simulation(&mut b, &ts, &cfg);
        assert_eq!(b.books, 3);
        assert_eq!(r.created, 1);
    }

    #[test]
    fn tracking_sweeps_at_interval() {
        let ts = trips(50);
        let mut b = Scripted {
            match_counts: vec![],
            searches: 0,
            books: 0,
            creates: 0,
            tracks: vec![],
            fail_first_booking: false,
        };
        let cfg = SimConfig {
            track_every_s: Some(3_600.0),
            ..Default::default()
        };
        run_simulation(&mut b, &ts, &cfg);
        assert!(!b.tracks.is_empty());
        for w in b.tracks.windows(2) {
            assert!((w[1] - w[0] - 3_600.0).abs() < 1e-9);
        }
    }

    #[test]
    fn lookups_multiply_searches() {
        let ts = trips(4);
        let mut b = Scripted {
            match_counts: vec![],
            searches: 0,
            books: 0,
            creates: 0,
            tracks: vec![],
            fail_first_booking: false,
        };
        let cfg = SimConfig {
            track_every_s: None,
            lookups_per_request: 9,
            ..Default::default()
        };
        let r = run_simulation(&mut b, &ts, &cfg);
        assert_eq!(b.searches, 40, "10 searches per request (r = 10)");
        assert_eq!(r.looks, 40);
    }
}
