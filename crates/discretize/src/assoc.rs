//! Grid → landmark association and walkable-cluster lists (paper §IV).
//!
//! * Each grid "is associated with a unique landmark, that minimizes the
//!   maximum driving distance of the grid from the landmark", ties going
//!   to "the one with the lowest number", and only "if it is within Δ
//!   distance of the landmark". Grids beyond Δ of every landmark stay
//!   unassociated but may still be served through walkable clusters.
//! * Each grid additionally keeps a list of *walkable clusters*
//!   `⟨C, w⟩` where `w ≤ W` is the walking distance to the nearest
//!   landmark of `C`, "sorted in non-decreasing walking distances".
//!
//! Both tables are stored per **road node** rather than per raw grid
//! cell: every grid cell is represented by its centroid (§IV), and the
//! centroid snaps to its nearest way-point, so node-level tables are the
//! natural dense encoding — the snap error is below the grid
//! discretization error already accepted by the paper's model. Only
//! the cell → way-point step is kept per cell (4 B in `RegionIndex`'s
//! grid table), so a request reaches these lists by `grid_of` + 2 reads.

use crate::landmarks::{Landmark, LandmarkId};
use crate::region::ClusterId;
use xar_roadnet::{CostMetric, Direction, NodeId, RoadGraph, ShortestPaths};

/// One entry of a walkable-cluster list: the paper's tuple `⟨C, w⟩`,
/// extended with the identity of the nearest landmark so that booking
/// can route the ride to a concrete pick-up way-point without
/// recomputing the walking search.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WalkEntry {
    /// The walkable cluster `C`.
    pub cluster: ClusterId,
    /// The nearest landmark of `C` (the one realising `w`).
    pub landmark: LandmarkId,
    /// Walking distance `w` to that landmark, metres.
    pub walk_m: f32,
}

/// Per-node association tables (tiers "grid → landmark" and
/// "grid → walkable clusters" of the hierarchy).
#[derive(Debug, Clone)]
pub struct NodeAssociation {
    /// For each node: the associated landmark and the driving distance
    /// (metres) from the node to it, if within `Δ`.
    pub landmark_of: Vec<Option<(LandmarkId, f32)>>,
    /// For each node: walkable clusters sorted by non-decreasing
    /// walking distance (ties by cluster id).
    pub walkable: Vec<Vec<WalkEntry>>,
}

impl NodeAssociation {
    /// Build both tables.
    ///
    /// * `cluster_of[l]` maps landmark index to its cluster.
    /// * `delta_drive_m` is the paper's `Δ` (maximum driving distance
    ///   for the grid → landmark association).
    /// * `max_walk_m` is the paper's `W` (system-wide walking cap).
    ///
    /// Driving distance "of the grid from the landmark" is the distance
    /// the rider's pick-up vehicle would cover, i.e. node → landmark on
    /// the directed graph; it is computed with one *reverse* bounded
    /// Dijkstra per landmark. Walking distances use the undirected
    /// graph.
    pub fn build(
        graph: &RoadGraph,
        landmarks: &[Landmark],
        cluster_of: &[ClusterId],
        delta_drive_m: f64,
        max_walk_m: f64,
    ) -> Self {
        assert_eq!(
            landmarks.len(),
            cluster_of.len(),
            "one cluster per landmark"
        );
        let n = graph.node_count();
        let mut landmark_of: Vec<Option<(LandmarkId, f32)>> = vec![None; n];
        let rev = ShortestPaths::new(graph, CostMetric::Distance, Direction::Reverse);
        for lm in landmarks {
            // Reverse search from the landmark: settles nodes by their
            // node -> landmark driving distance.
            for (node, d) in rev.bounded_from(lm.node, delta_drive_m) {
                let d = d as f32;
                let better = match landmark_of[node.index()] {
                    None => true,
                    // Strictly closer wins; exact ties keep the lower id
                    // (landmarks are scanned in id order).
                    Some((_, cur)) => d < cur,
                };
                if better {
                    landmark_of[node.index()] = Some((lm.id, d));
                }
            }
        }

        let mut walk_best: Vec<std::collections::HashMap<u32, (LandmarkId, f32)>> =
            vec![std::collections::HashMap::new(); n];
        let walk = ShortestPaths::new(graph, CostMetric::Distance, Direction::Undirected);
        for lm in landmarks {
            let cluster = cluster_of[lm.id.index()];
            for (node, d) in walk.bounded_from(lm.node, max_walk_m) {
                let d = d as f32;
                walk_best[node.index()]
                    .entry(cluster.0)
                    .and_modify(|cur| {
                        if d < cur.1 {
                            *cur = (lm.id, d);
                        }
                    })
                    .or_insert((lm.id, d));
            }
        }
        let walkable = walk_best
            .into_iter()
            .map(|m| {
                let mut v: Vec<WalkEntry> = m
                    .into_iter()
                    .map(|(c, (landmark, walk_m))| WalkEntry {
                        cluster: ClusterId(c),
                        landmark,
                        walk_m,
                    })
                    .collect();
                v.sort_by(|a, b| {
                    a.walk_m
                        .total_cmp(&b.walk_m)
                        .then(a.cluster.0.cmp(&b.cluster.0))
                });
                v
            })
            .collect();
        Self {
            landmark_of,
            walkable,
        }
    }

    /// The walkable clusters of `node` pruned to the per-request walking
    /// threshold `walk_limit_m` — the linear traversal of the sorted
    /// list the paper describes ("the list of walkable clusters can be
    /// further pruned according to the walking distance threshold
    /// mentioned by the commuter ... in time linear in the number of
    /// walkable clusters").
    pub fn walkable_within(&self, node: NodeId, walk_limit_m: f64) -> &[WalkEntry] {
        let list = &self.walkable[node.index()];
        let end = list.partition_point(|e| f64::from(e.walk_m) <= walk_limit_m);
        &list[..end]
    }

    /// Heap bytes held by the tables (index-size accounting).
    pub fn heap_bytes(&self) -> usize {
        let lm = self.landmark_of.capacity() * std::mem::size_of::<Option<(LandmarkId, f32)>>();
        let wk: usize = self.walkable.capacity() * std::mem::size_of::<Vec<WalkEntry>>()
            + self
                .walkable
                .iter()
                .map(|v| v.capacity() * std::mem::size_of::<WalkEntry>())
                .sum::<usize>();
        lm + wk
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::landmarks::filter_landmarks;
    use xar_roadnet::{sample_pois, CityConfig, PoiConfig};

    fn setup() -> (RoadGraph, Vec<Landmark>, Vec<ClusterId>) {
        let g = CityConfig::test_city(5).generate();
        let pois = sample_pois(
            &g,
            &PoiConfig {
                count: 400,
                ..Default::default()
            },
        );
        let lms = filter_landmarks(&g, &pois, 300.0);
        assert!(lms.len() >= 4, "need a few landmarks, got {}", lms.len());
        // Simple clustering for the tests: two clusters by parity.
        let clusters: Vec<ClusterId> = lms.iter().map(|l| ClusterId(l.id.0 % 2)).collect();
        (g, lms, clusters)
    }

    #[test]
    fn landmark_nodes_associate_to_themselves() {
        let (g, lms, cl) = setup();
        let assoc = NodeAssociation::build(&g, &lms, &cl, 800.0, 500.0);
        for lm in &lms {
            let (id, d) = assoc.landmark_of[lm.node.index()].expect("landmark node associated");
            assert_eq!(d, 0.0, "landmark {lm:?} has nonzero self-distance");
            // The associated landmark must be *a* landmark at distance 0
            // (two landmarks can share a snap node); lowest id wins.
            let co_located: Vec<_> = lms.iter().filter(|o| o.node == lm.node).collect();
            assert_eq!(id, co_located[0].id);
        }
    }

    #[test]
    fn association_respects_delta_bound() {
        let (g, lms, cl) = setup();
        let delta = 400.0;
        let assoc = NodeAssociation::build(&g, &lms, &cl, delta, 500.0);
        let sp = ShortestPaths::driving(&g);
        for node in g.node_ids().take(50) {
            if let Some((lm, d)) = assoc.landmark_of[node.index()] {
                assert!(f64::from(d) <= delta + 1e-6);
                // Distance recorded is the true driving distance.
                let true_d = sp.cost(node, lms[lm.index()].node).unwrap();
                assert!((f64::from(d) - true_d).abs() < 0.5, "{d} vs {true_d}");
            }
        }
    }

    #[test]
    fn association_picks_nearest_landmark() {
        let (g, lms, cl) = setup();
        let assoc = NodeAssociation::build(&g, &lms, &cl, 1500.0, 500.0);
        let sp = ShortestPaths::driving(&g);
        for node in g.node_ids().take(20) {
            if let Some((lm, d)) = assoc.landmark_of[node.index()] {
                // No landmark may be strictly closer.
                for other in &lms {
                    if let Some(od) = sp.cost(node, other.node) {
                        assert!(
                            od >= f64::from(d) - 0.5,
                            "node {node:?}: assigned {lm:?}@{d} but {other:?}@{od} closer"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn tiny_delta_leaves_far_nodes_unassociated() {
        let (g, lms, cl) = setup();
        let assoc = NodeAssociation::build(&g, &lms, &cl, 1.0, 500.0);
        let associated = assoc.landmark_of.iter().flatten().count();
        // Only nodes at distance <= 1 m (essentially the landmark snap
        // nodes themselves).
        assert!(associated <= lms.len());
    }

    #[test]
    fn walkable_lists_are_sorted_and_bounded() {
        let (g, lms, cl) = setup();
        let w = 600.0;
        let assoc = NodeAssociation::build(&g, &lms, &cl, 800.0, w);
        for list in &assoc.walkable {
            for pair in list.windows(2) {
                assert!(
                    pair[0].walk_m <= pair[1].walk_m,
                    "walkable list not sorted: {list:?}"
                );
            }
            for e in list {
                assert!(f64::from(e.walk_m) <= w + 1e-6);
            }
            // Each cluster appears at most once.
            let mut ids: Vec<u32> = list.iter().map(|e| e.cluster.0).collect();
            ids.sort_unstable();
            ids.dedup();
            assert_eq!(ids.len(), list.len());
        }
    }

    #[test]
    fn walkable_distance_is_true_undirected_distance() {
        let (g, lms, cl) = setup();
        let assoc = NodeAssociation::build(&g, &lms, &cl, 800.0, 700.0);
        let walk = ShortestPaths::walking(&g);
        let node = lms[0].node;
        for e in &assoc.walkable[node.index()] {
            // walk_m must equal the min walking distance to a landmark
            // of that cluster, and the recorded landmark must realise it.
            let best = lms
                .iter()
                .filter(|l| cl[l.id.index()] == e.cluster)
                .filter_map(|l| walk.cost(node, l.node))
                .fold(f64::INFINITY, f64::min);
            assert!(
                (f64::from(e.walk_m) - best).abs() < 0.5,
                "cluster {:?}: {} vs {best}",
                e.cluster,
                e.walk_m
            );
            let via_recorded = walk.cost(node, lms[e.landmark.index()].node).unwrap();
            assert!((via_recorded - best).abs() < 0.5);
            assert_eq!(cl[e.landmark.index()], e.cluster);
        }
    }

    #[test]
    fn walkable_within_prunes_by_threshold() {
        let (g, lms, cl) = setup();
        let assoc = NodeAssociation::build(&g, &lms, &cl, 800.0, 700.0);
        let node = lms[1].node;
        let full = assoc.walkable[node.index()].len();
        let half = assoc.walkable_within(node, 200.0);
        assert!(half.len() <= full);
        assert!(half.iter().all(|e| f64::from(e.walk_m) <= 200.0));
        let none = assoc.walkable_within(node, -1.0);
        assert!(none.is_empty());
        let all = assoc.walkable_within(node, f64::INFINITY);
        assert_eq!(all.len(), full);
    }
}
