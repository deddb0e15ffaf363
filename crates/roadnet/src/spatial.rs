//! Grid-bucketed nearest-node lookup.
//!
//! Every external location (taxi pickup, landmark, transit stop) must be
//! snapped to a road-graph way-point before any routing can happen. The
//! locator buckets node ids by grid cell — one CSR pair, `starts` into
//! `nodes`: two allocations however many cells — and answers
//! nearest-node queries by scanning outward ring by ring.
//!
//! **Exact for any cell size.** A node in the ring at Chebyshev
//! distance `r` is at least `(r-1) * cell` projected metres from any
//! point of (or clamped into) the centre cell, and the walk stops only
//! once that bound exceeds the best distance by `RING_SLACK`, so every
//! node that could be nearer — or exactly as near — has been seen.
//! Among exactly equidistant nodes the **lower `NodeId` wins**, not the
//! bucket walked first. The answer is `argmin (haversine, id)` over the
//! whole graph, a function of the graph and the query alone, which
//! leaves `cell_m` a free tuning constant.

use xar_geo::{BoundingBox, GeoPoint, GridSpec};

use crate::graph::{NodeId, RoadGraph};

/// The ring bound is in the grid's equirectangular metres, the ranking in
/// great-circle metres: they differ by the ratio of the cosines of the
/// query's and the grid centre's latitudes, under 1 % below ~100 km.
const RING_SLACK: f64 = 1.01;

/// Spatial index over the nodes of a road graph.
#[derive(Debug, Clone)]
pub struct NodeLocator {
    grid: GridSpec,
    /// Cell `row * cols + col` holds `nodes[starts[cell]..starts[cell + 1]]`.
    starts: Vec<u32>,
    /// Node ids grouped by cell, ascending within a cell.
    nodes: Vec<NodeId>,
}

impl NodeLocator {
    /// Index all nodes of `graph` with bucket cells of side `cell_m`
    /// metres (a hundred to a few hundred metres is a good default).
    ///
    /// # Panics
    ///
    /// Panics if the graph has no nodes.
    pub fn new(graph: &RoadGraph, cell_m: f64) -> Self {
        assert!(graph.node_count() > 0, "cannot index an empty graph");
        let bbox = BoundingBox::from_points(graph.node_ids().map(|n| graph.point(n)))
            .expect("non-empty graph")
            .expanded(1e-4);
        let grid = GridSpec::new(bbox, cell_m);
        let cell_of = |n: NodeId| {
            let id = grid.grid_of(&graph.point(n));
            id.row as usize * grid.cols() as usize + id.col as usize
        };
        // Counting sort by cell. `starts[c + 1]` counts cell `c`, then
        // is its cursor during placement, and so ends as its end —
        // cell `c + 1`'s start.
        let mut starts = vec![0u32; grid.cell_count() as usize + 1];
        for n in graph.node_ids() {
            starts[cell_of(n) + 1] += 1;
        }
        let mut sum = 0u32;
        for s in &mut starts[1..] {
            (sum, *s) = (sum + *s, sum);
        }
        let mut nodes = vec![NodeId(0); graph.node_count()];
        for n in graph.node_ids() {
            let cursor = &mut starts[cell_of(n) + 1];
            nodes[*cursor as usize] = n;
            *cursor += 1;
        }
        Self {
            grid,
            starts,
            nodes,
        }
    }

    /// Number of indexed nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the locator is empty (never true: construction panics on
    /// an empty graph).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    fn bucket(&self, col: u32, row: u32) -> &[NodeId] {
        let cell = (row as usize) * self.grid.cols() as usize + col as usize;
        &self.nodes[self.starts[cell] as usize..self.starts[cell + 1] as usize]
    }

    /// The graph node nearest to `p` (by great-circle distance; exact
    /// ties to the lower id), and the distance to it in metres.
    ///
    /// Allocation-free: ride creation snaps every stop through here, so
    /// the ring walk uses the visitor form of the grid expansion.
    pub fn nearest(&self, graph: &RoadGraph, p: &GeoPoint) -> (NodeId, f64) {
        let center = self.grid.grid_of(p);
        let cell = self.grid.cell_m();
        let max_radius = self.grid.cols().max(self.grid.rows());
        let mut best: Option<(NodeId, f64)> = None;
        for r in 0..=max_radius {
            // Once we have a candidate, stop as soon as the next ring
            // cannot possibly contain a node as close.
            if let Some((_, d)) = best {
                if f64::from(r.saturating_sub(1)) * cell > d * RING_SLACK {
                    break;
                }
            }
            self.grid.for_ring(center, r, |cid| {
                for &n in self.bucket(cid.col, cid.row) {
                    let d = graph.point(n).haversine_m(p);
                    if best.is_none_or(|(bn, bd)| d < bd || (d == bd && n < bn)) {
                        best = Some((n, d));
                    }
                }
            });
        }
        best.expect("locator indexes at least one node")
    }

    /// All nodes within `radius_m` metres of `p`, as `(node, distance)`
    /// pairs sorted by distance.
    pub fn within(&self, graph: &RoadGraph, p: &GeoPoint, radius_m: f64) -> Vec<(NodeId, f64)> {
        let center = self.grid.grid_of(p);
        let cell = self.grid.cell_m();
        let rings = (radius_m / cell).ceil() as u32 + 1;
        let mut out = Vec::new();
        for r in 0..=rings {
            for cid in self.grid.ring(center, r) {
                for &n in self.bucket(cid.col, cid.row) {
                    let d = graph.point(n).haversine_m(p);
                    if d <= radius_m {
                        out.push((n, d));
                    }
                }
            }
        }
        out.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{RoadClass, RoadGraphBuilder};

    fn grid_graph(n: usize, spacing_deg: f64) -> RoadGraph {
        let mut b = RoadGraphBuilder::new();
        let mut ids = vec![];
        for r in 0..n {
            for c in 0..n {
                ids.push(b.add_node(GeoPoint::new(
                    40.70 + spacing_deg * r as f64,
                    -74.00 + spacing_deg * c as f64,
                )));
            }
        }
        // A ring to keep the graph non-trivial.
        for i in 1..ids.len() {
            b.add_two_way(ids[i - 1], ids[i], RoadClass::Street, None);
        }
        b.build()
    }

    #[test]
    fn nearest_exact_hit() {
        let g = grid_graph(10, 0.005);
        let loc = NodeLocator::new(&g, 300.0);
        for n in [0u32, 37, 99] {
            let p = g.point(NodeId(n));
            let (found, d) = loc.nearest(&g, &p);
            assert_eq!(found, NodeId(n));
            assert!(d < 1e-6);
        }
    }

    #[test]
    fn nearest_matches_brute_force() {
        let g = grid_graph(10, 0.005);
        let loc = NodeLocator::new(&g, 250.0);
        let queries = [
            GeoPoint::new(40.712, -73.987),
            GeoPoint::new(40.7401, -73.9703),
            GeoPoint::new(40.699, -74.01), // outside the node bbox
        ];
        for q in queries {
            let (found, d) = loc.nearest(&g, &q);
            let (bf, bd) = g
                .node_ids()
                .map(|n| (n, g.point(n).haversine_m(&q)))
                .min_by(|a, b| a.1.total_cmp(&b.1))
                .unwrap();
            assert!(
                (d - bd).abs() < 1e-9,
                "query {q:?}: {found:?}@{d} vs {bf:?}@{bd}"
            );
        }
    }

    /// `argmin (haversine, id)` over every node: what `nearest` must
    /// return whatever the bucket size.
    fn brute_force(g: &RoadGraph, q: &GeoPoint) -> (NodeId, f64) {
        g.node_ids()
            .map(|n| (n, g.point(n).haversine_m(q)))
            .min_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)))
            .unwrap()
    }

    #[test]
    fn bucket_size_does_not_change_the_answer() {
        let (n, step) = (10usize, 0.005);
        let g = grid_graph(n, step);
        let (fine, coarse) = (NodeLocator::new(&g, 100.0), NodeLocator::new(&g, 400.0));
        // The centre of every lattice square: its two northern corners
        // are (all but) equidistant, in different 100 m buckets.
        for r in 0..n - 1 {
            for c in 0..n - 1 {
                let q = GeoPoint::new(
                    40.70 + step * (r as f64 + 0.5),
                    -74.00 + step * (c as f64 + 0.5),
                );
                let expect = brute_force(&g, &q);
                assert_eq!(fine.nearest(&g, &q), expect, "100 m cells, query {q:?}");
                assert_eq!(coarse.nearest(&g, &q), expect, "400 m cells, query {q:?}");
            }
        }
    }

    #[test]
    fn exact_ties_go_to_the_lower_id_not_the_first_bucket_walked() {
        // Two nodes mirrored about the prime meridian are exactly
        // equidistant from any point on it. The higher id sits west, in
        // the bucket every ring walk reaches first.
        let mut b = RoadGraphBuilder::new();
        let east = b.add_node(GeoPoint::new(10.0, 0.003));
        let west = b.add_node(GeoPoint::new(10.0, -0.003));
        b.add_two_way(east, west, RoadClass::Street, None);
        let g = b.build();
        for q in [
            GeoPoint::new(10.0, 0.0),
            GeoPoint::new(10.002, 0.0),
            GeoPoint::new(9.9, 0.0),
        ] {
            assert_eq!(g.point(east).haversine_m(&q), g.point(west).haversine_m(&q));
            for cell_m in [50.0, 100.0, 400.0, 5_000.0] {
                assert_eq!(
                    NodeLocator::new(&g, cell_m).nearest(&g, &q).0,
                    east,
                    "cell {cell_m}"
                );
            }
        }
    }

    #[test]
    fn within_radius_sorted_and_complete() {
        let g = grid_graph(10, 0.005);
        let loc = NodeLocator::new(&g, 250.0);
        let q = GeoPoint::new(40.72, -73.98);
        let r = 1200.0;
        let got = loc.within(&g, &q, r);
        let expect: usize = g
            .node_ids()
            .filter(|n| g.point(*n).haversine_m(&q) <= r)
            .count();
        assert_eq!(got.len(), expect);
        for w in got.windows(2) {
            assert!(w[0].1 <= w[1].1);
        }
    }

    #[test]
    fn within_zero_radius_can_be_empty() {
        let g = grid_graph(3, 0.01);
        let loc = NodeLocator::new(&g, 250.0);
        let q = GeoPoint::new(40.705, -73.995); // between nodes
        assert!(loc.within(&g, &q, 10.0).is_empty());
    }

    #[test]
    fn single_node_graph() {
        let mut b = RoadGraphBuilder::new();
        let a = b.add_node(GeoPoint::new(40.70, -74.00));
        let c = b.add_node(GeoPoint::new(40.701, -74.00));
        b.add_two_way(a, c, RoadClass::Street, None);
        let g = b.build();
        let loc = NodeLocator::new(&g, 100.0);
        let (n, _) = loc.nearest(&g, &GeoPoint::new(40.7004, -74.00));
        assert_eq!(n, a);
    }
}
