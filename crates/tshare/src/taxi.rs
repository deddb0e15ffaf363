//! The taxi model of the T-Share baseline.

use xar_geo::{GeoPoint, GridId};
use xar_roadnet::Route;

/// Unique taxi (ride offer) identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaxiId(pub u64);

/// One grid cell on a taxi's scheduled route.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellVisit {
    /// The cell.
    pub cell: GridId,
    /// Way-point index at which the route first enters the cell.
    pub route_idx: usize,
    /// Estimated arrival at the cell, absolute seconds.
    pub eta_s: f64,
}

/// A taxi with its current schedule.
#[derive(Debug, Clone)]
pub struct Taxi {
    /// Unique id.
    pub id: TaxiId,
    /// Offered origin.
    pub source: GeoPoint,
    /// Offered destination.
    pub destination: GeoPoint,
    /// Departure time, absolute seconds.
    pub departure_s: f64,
    /// Seats still free.
    pub seats_available: u8,
    /// Current scheduled route.
    pub route: Route,
    /// Way-point indices of schedule stops (source, every rider pick-up
    /// / drop-off, destination), ascending.
    pub via_points: Vec<usize>,
    /// Cells the remaining route passes through, in route order.
    pub cells: Vec<CellVisit>,
    /// Total extra distance accepted so far through matches, metres.
    pub detour_used_m: f64,
    /// Way-point progress index from tracking.
    pub progress_idx: usize,
}

impl Taxi {
    /// Estimated arrival at way-point `idx`, absolute seconds.
    #[inline]
    pub fn eta_at(&self, idx: usize) -> f64 {
        self.departure_s + self.route.time_at(idx)
    }

    /// Scheduled completion time.
    #[inline]
    pub fn arrival_s(&self) -> f64 {
        self.departure_s + self.route.duration_s()
    }

    /// Heap bytes held by this taxi (memory accounting).
    pub fn heap_bytes(&self) -> usize {
        self.route.heap_bytes()
            + self.via_points.capacity() * std::mem::size_of::<usize>()
            + self.cells.capacity() * std::mem::size_of::<CellVisit>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xar_roadnet::{CityConfig, NodeId, ShortestPaths};

    fn taxi() -> Taxi {
        let g = CityConfig::test_city(3).generate();
        let n = g.node_count() as u32;
        let sp = ShortestPaths::driving_time(&g);
        let p = sp.path(NodeId(0), NodeId(n - 1)).unwrap();
        let route = Route::from_path_result(&g, &p).unwrap();
        let last = route.len() - 1;
        Taxi {
            id: TaxiId(1),
            source: g.point(NodeId(0)),
            destination: g.point(NodeId(n - 1)),
            departure_s: 1000.0,
            seats_available: 3,
            via_points: vec![0, last],
            route,
            cells: vec![],
            detour_used_m: 0.0,
            progress_idx: 0,
        }
    }

    #[test]
    fn eta_and_arrival() {
        let t = taxi();
        assert_eq!(t.eta_at(0), 1000.0);
        assert!(t.arrival_s() > 1000.0);
        assert_eq!(t.arrival_s(), t.eta_at(t.route.len() - 1));
    }
}
