//! Landmark extraction (paper §IV, Definition 2).
//!
//! > *"A landmark is a point of interest in a geographical region, such
//! > as a bus stop, a mall or an important building, such that it is
//! > sufficiently far (at least a pre-specified `f` distance away) from
//! > any other landmark."*
//!
//! The filter scans POIs in significance order (transit stops first)
//! and keeps a POI only if every previously kept landmark is at least
//! `f` metres away. A spatial hash makes the scan near-linear.

use xar_geo::{BoundingBox, GeoPoint, GridSpec};
use xar_roadnet::{NodeId, Poi, RoadGraph};

/// Identifier of a landmark; dense `0..n` after filtering, which is
/// also "the lowest number in an ordering imposed on the set of
/// landmarks" used for tie-breaking (§IV).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LandmarkId(pub u32);

impl LandmarkId {
    /// The landmark index as `usize`.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A filtered landmark: a significant POI at least `f` from every other
/// landmark, snapped to its road node.
#[derive(Debug, Clone, Copy)]
pub struct Landmark {
    /// Dense id (position in the filtered list).
    pub id: LandmarkId,
    /// Geographic location of the landmark itself.
    pub point: GeoPoint,
    /// Road node the landmark snaps to; all driving/walking distances
    /// to or from the landmark are measured at this way-point.
    pub node: NodeId,
}

/// Filter `pois` down to a set of landmarks pairwise at least
/// `min_separation_m` apart (great-circle distance).
///
/// POIs are processed in significance order (most significant first,
/// stable within a class), so transit stops win conflicts against
/// stores, mirroring the paper's preference for "bus stops, railway
/// stations, big stores, taxi stands". Insignificant POIs are dropped
/// up front.
///
/// # Panics
///
/// Panics if `min_separation_m` is negative or not finite.
pub fn filter_landmarks(graph: &RoadGraph, pois: &[Poi], min_separation_m: f64) -> Vec<Landmark> {
    assert!(
        min_separation_m.is_finite() && min_separation_m >= 0.0,
        "separation must be non-negative, got {min_separation_m}"
    );
    let mut significant: Vec<&Poi> = pois.iter().filter(|p| p.kind.is_significant()).collect();
    significant.sort_by_key(|p| p.kind); // PoiKind ordering: TransitStop < MajorDestination
    if significant.is_empty() {
        return vec![];
    }

    // Spatial hash over the POI extent with cells of side f (or 1 m
    // minimum) — a conflict can only come from the 3x3 neighbourhood.
    let bbox = BoundingBox::from_points(significant.iter().map(|p| p.point))
        .expect("non-empty POI set")
        .expanded(1e-4);
    let cell = min_separation_m.max(1.0);
    let grid = GridSpec::new(bbox, cell);
    let cols = grid.cols() as usize;
    let mut buckets: Vec<Vec<u32>> = vec![Vec::new(); grid.cell_count() as usize];
    let mut kept: Vec<Landmark> = Vec::new();

    for poi in significant {
        let gid = grid.grid_of(&poi.point);
        let mut ok = true;
        'scan: for dr in -1i64..=1 {
            for dc in -1i64..=1 {
                let r = i64::from(gid.row) + dr;
                let c = i64::from(gid.col) + dc;
                if r < 0 || c < 0 || r as u32 >= grid.rows() || c as u32 >= grid.cols() {
                    continue;
                }
                for &k in &buckets[r as usize * cols + c as usize] {
                    if kept[k as usize].point.haversine_m(&poi.point) < min_separation_m {
                        ok = false;
                        break 'scan;
                    }
                }
            }
        }
        if ok {
            let id = LandmarkId(kept.len() as u32);
            kept.push(Landmark {
                id,
                point: poi.point,
                node: poi.node,
            });
            buckets[gid.row as usize * cols + gid.col as usize].push(id.0);
        }
    }
    // Re-snap: POIs scatter off the road; confirm nodes exist.
    debug_assert!(kept.iter().all(|l| l.node.index() < graph.node_count()));
    kept
}

#[cfg(test)]
mod tests {
    use super::*;
    use xar_roadnet::{sample_pois, CityConfig, PoiConfig, PoiKind};

    fn setup() -> (RoadGraph, Vec<Poi>) {
        let g = CityConfig::test_city(1).generate();
        let pois = sample_pois(
            &g,
            &PoiConfig {
                count: 800,
                ..Default::default()
            },
        );
        (g, pois)
    }

    #[test]
    fn separation_is_enforced() {
        let (g, pois) = setup();
        let f = 150.0;
        let lms = filter_landmarks(&g, &pois, f);
        assert!(!lms.is_empty());
        for (i, a) in lms.iter().enumerate() {
            for b in &lms[i + 1..] {
                let d = a.point.haversine_m(&b.point);
                assert!(d >= f, "landmarks {a:?} and {b:?} only {d} m apart");
            }
        }
    }

    #[test]
    fn ids_are_dense_and_ordered() {
        let (g, pois) = setup();
        let lms = filter_landmarks(&g, &pois, 120.0);
        for (i, l) in lms.iter().enumerate() {
            assert_eq!(l.id, LandmarkId(i as u32));
        }
    }

    #[test]
    fn insignificant_pois_are_dropped() {
        let (g, mut pois) = setup();
        // Force every POI minor: result must be empty.
        for p in &mut pois {
            p.kind = PoiKind::MinorAmenity;
        }
        assert!(filter_landmarks(&g, &pois, 100.0).is_empty());
    }

    #[test]
    fn zero_separation_keeps_all_significant() {
        let (g, pois) = setup();
        let significant = pois.iter().filter(|p| p.kind.is_significant()).count();
        let lms = filter_landmarks(&g, &pois, 0.0);
        assert_eq!(lms.len(), significant);
    }

    #[test]
    fn larger_f_keeps_fewer() {
        let (g, pois) = setup();
        let few = filter_landmarks(&g, &pois, 400.0).len();
        let many = filter_landmarks(&g, &pois, 50.0).len();
        assert!(few < many, "f=400 kept {few}, f=50 kept {many}");
    }

    #[test]
    fn transit_stops_win_conflicts() {
        let (g, pois) = setup();
        let lms = filter_landmarks(&g, &pois, 200.0);
        // The first landmarks must be transit stops (processed first).
        let transit_nodes: std::collections::HashSet<_> = pois
            .iter()
            .filter(|p| p.kind == PoiKind::TransitStop)
            .map(|p| (p.point.lat.to_bits(), p.point.lon.to_bits()))
            .collect();
        let first = &lms[0];
        assert!(transit_nodes.contains(&(first.point.lat.to_bits(), first.point.lon.to_bits())));
    }

    #[test]
    fn empty_input_is_empty_output() {
        let (g, _) = setup();
        assert!(filter_landmarks(&g, &[], 100.0).is_empty());
    }
}
