//! The ride model (§VI): the ten entities that characterise a ride in
//! XAR — source, destination, departure time, seats, route, via-points,
//! segments, detour limit, pass-through clusters and reachable clusters.

use xar_discretize::ClusterId;
use xar_geo::GeoPoint;
use xar_roadnet::Route;

use crate::index::PotentialRide;

/// Unique ride identifier ("each ride created in the system is assigned
/// a unique ride ID", §VI).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RideId(pub u64);

/// Identity of a person in the system (driver or requester) — used by
/// the social-network ranking of §VII.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RiderId(pub u64);

/// Lifecycle state of a ride.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RideStatus {
    /// Created, not yet departed (or departed and en route — rides
    /// depart at their departure time and are advanced by tracking).
    Active,
    /// Tracked past the end of its route; retired from the index.
    Completed,
}

/// A ride offer as submitted by a driver.
#[derive(Debug, Clone)]
pub struct RideOffer {
    /// Where the ride begins.
    pub source: GeoPoint,
    /// Where the ride ends.
    pub destination: GeoPoint,
    /// Departure time, seconds since simulation epoch (midnight).
    pub departure_s: f64,
    /// Seats available for co-riders (the driver's own seat excluded).
    pub seats: u8,
    /// Maximum deviation from the route the driver accepts, metres.
    pub detour_limit_m: f64,
    /// The driver's identity, if known (enables social ranking, §VII).
    pub driver: Option<RiderId>,
    /// Optional intermediate points the driver insists on passing
    /// through: "the shortest route between the source and the
    /// destination **unless the user has explicitly specified an
    /// alternate route**" (§VI, entity 5). The route becomes the
    /// concatenation of shortest paths through these points, and each
    /// becomes a via-point of the ride.
    pub via: Vec<xar_geo::GeoPoint>,
}

impl RideOffer {
    /// Convenience constructor for the common case: shortest route, no
    /// declared driver identity.
    pub fn simple(
        source: GeoPoint,
        destination: GeoPoint,
        departure_s: f64,
        seats: u8,
        detour_limit_m: f64,
    ) -> Self {
        Self {
            source,
            destination,
            departure_s,
            seats,
            detour_limit_m,
            driver: None,
            via: Vec::new(),
        }
    }
}

/// A pass-through cluster of a ride on one of its segments, with the
/// reachable clusters servable from it without violating the detour
/// limit.
#[derive(Debug, Clone)]
pub struct PassCluster {
    /// The cluster the route passes through.
    pub cluster: ClusterId,
    /// Index of the segment (between via-points `seg` and `seg+1`) the
    /// cluster lies on.
    pub seg: usize,
    /// Route way-point index where the ride first enters the cluster.
    pub route_idx: usize,
    /// Route way-point index of the last consecutive way-point inside
    /// the cluster — the ride has "crossed" the cluster (tracking
    /// §VIII.A) once its progress passes this index.
    pub exit_idx: usize,
    /// Estimated time of arrival at the cluster, absolute seconds.
    pub eta_s: f64,
    /// Clusters reachable from here within the remaining detour limit,
    /// with `(cluster, estimated detour metres, estimated eta seconds)`.
    pub reachable: Vec<(ClusterId, f64, f64)>,
}

impl PassCluster {
    /// Every cluster the ride is listed in on account of this
    /// pass-through cluster: itself, then its reachable clusters.
    pub(crate) fn clusters(&self) -> impl Iterator<Item = ClusterId> + '_ {
        std::iter::once(self.cluster).chain(self.reachable.iter().map(|&(c, _, _)| c))
    }

    /// `ride`'s index entry for one of [`Self::clusters`]: `detour_m` 0
    /// and this cluster's ETA for the cluster itself. The row carries
    /// the ride's remaining detour budget as of now.
    #[inline]
    pub(crate) fn entry(&self, ride: &Ride, eta_s: f64, detour_m: f64) -> PotentialRide {
        PotentialRide {
            ride: ride.id,
            eta_s,
            detour_m,
            budget_m: ride.detour_remaining_m(),
            seg: self.seg as u32,
            pass_route_idx: self.route_idx as u32,
        }
    }
}

/// A confirmed booking on a ride.
#[derive(Debug, Clone)]
pub struct Booking {
    /// Pick-up way-point (index into the *current* route).
    pub pickup_idx: usize,
    /// Drop-off way-point (index into the *current* route).
    pub dropoff_idx: usize,
    /// Actual extra distance the booking added to the route, metres.
    pub detour_m: f64,
}

/// A ride in the system. Mutated only through the engine's create /
/// book / track operations.
#[derive(Debug, Clone)]
pub struct Ride {
    /// Unique id.
    pub id: RideId,
    /// Source location as offered.
    pub source: GeoPoint,
    /// Destination location as offered.
    pub destination: GeoPoint,
    /// Departure time, absolute seconds.
    pub departure_s: f64,
    /// Seats still available.
    pub seats_available: u8,
    /// Current route (updated by bookings).
    pub route: Route,
    /// Via-points: the way-point indices the ride *must* pass through
    /// — its own source and destination and every booked rider's
    /// pick-up and drop-off (§VI distinguishes via-points from plain
    /// way-points). Ascending; `via_points[0]` is 0 (the source),
    /// `via_points.last()` is `route.len() - 1` (the destination), and
    /// consecutive equal indices delimit a zero-length segment.
    pub via_points: Vec<usize>,
    /// Original detour budget, metres.
    pub detour_limit_m: f64,
    /// Detour already consumed by bookings, metres.
    pub detour_used_m: f64,
    /// Current pass-through clusters with their reachable sets; entries
    /// are removed (not flagged) once obsolete.
    pub pass_clusters: Vec<PassCluster>,
    /// Confirmed bookings.
    pub bookings: Vec<Booking>,
    /// The driver's identity, if known.
    pub driver: Option<RiderId>,
    /// Historical congestion multiplier sampled at the ride's departure
    /// hour (1.0 = free flow); scales every ETA of the ride.
    pub time_scale: f64,
    /// Lifecycle state.
    pub status: RideStatus,
    /// How far along the route tracking has advanced (way-point index).
    pub progress_idx: usize,
}

impl Ride {
    /// Remaining detour budget, metres (never negative: a booking whose
    /// realised detour overshoots the estimate — bounded by the ε
    /// guarantee — clamps to zero).
    #[inline]
    pub fn detour_remaining_m(&self) -> f64 {
        (self.detour_limit_m - self.detour_used_m).max(0.0)
    }

    /// Estimated arrival time at route way-point `idx`, absolute
    /// seconds: departure + cumulative free-flow time scaled by the
    /// ride's historical congestion multiplier — the paper's
    /// "estimated from historical travel times".
    #[inline]
    pub fn eta_at_route_idx(&self, idx: usize) -> f64 {
        self.departure_s + self.route.time_at(idx) * self.time_scale
    }

    /// Scheduled completion time, absolute seconds.
    #[inline]
    pub fn arrival_s(&self) -> f64 {
        self.departure_s + self.route.duration_s() * self.time_scale
    }

    /// Heap bytes held by this ride (index-size accounting).
    pub fn heap_bytes(&self) -> usize {
        self.route.heap_bytes()
            + self.via_points.capacity() * std::mem::size_of::<usize>()
            + self.pass_clusters.capacity() * std::mem::size_of::<PassCluster>()
            + self
                .pass_clusters
                .iter()
                .map(|p| p.reachable.capacity() * std::mem::size_of::<(ClusterId, f64, f64)>())
                .sum::<usize>()
            + self.bookings.capacity() * std::mem::size_of::<Booking>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xar_roadnet::{CityConfig, NodeId, RoadGraph, ShortestPaths};

    fn make_ride(g: &RoadGraph) -> Ride {
        let sp = ShortestPaths::driving(g);
        let n = g.node_count() as u32;
        let p = sp.path(NodeId(0), NodeId(n - 1)).expect("connected city");
        let route = Route::from_path_result(g, &p).unwrap();
        let last = route.len() - 1;
        Ride {
            id: RideId(1),
            source: g.point(NodeId(0)),
            destination: g.point(NodeId(n - 1)),
            departure_s: 3600.0,
            seats_available: 3,
            via_points: vec![0, last],
            route,
            detour_limit_m: 2000.0,
            detour_used_m: 0.0,
            pass_clusters: vec![],
            bookings: vec![],
            driver: None,
            time_scale: 1.0,
            status: RideStatus::Active,
            progress_idx: 0,
        }
    }

    #[test]
    fn detour_remaining_clamps_at_zero() {
        let g = CityConfig::test_city(1).generate();
        let mut r = make_ride(&g);
        assert_eq!(r.detour_remaining_m(), 2000.0);
        r.detour_used_m = 2500.0;
        assert_eq!(r.detour_remaining_m(), 0.0);
    }

    #[test]
    fn eta_accumulates_from_departure() {
        let g = CityConfig::test_city(1).generate();
        let r = make_ride(&g);
        assert_eq!(r.eta_at_route_idx(0), 3600.0);
        let end = r.route.len() - 1;
        assert!(r.eta_at_route_idx(end) > 3600.0);
        assert_eq!(r.arrival_s(), r.eta_at_route_idx(end));
    }

    #[test]
    fn heap_bytes_nonzero() {
        let g = CityConfig::test_city(1).generate();
        let r = make_ride(&g);
        assert!(r.heap_bytes() > 0);
    }
}
