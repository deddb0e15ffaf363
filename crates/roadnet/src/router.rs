//! Exact goal-directed point-to-point routing for the write path.
//!
//! Ride creation and booking are the only operations of the run-time
//! unit that compute shortest paths (§VI, §VIII.B), and once search and
//! publication are cheap those paths *are* the cost of a request. The
//! [`Router`] answers them with ALT — A*, Landmarks, Triangle
//! inequality (Goldberg & Harrelson) — over the driving-distance
//! metric: a handful of landmark nodes are chosen once per graph, the
//! exact distance from and to each of them is tabulated for every
//! node, and a query runs A* with the triangle-inequality lower bound
//!
//! ```text
//! h(v) = max_i max( d(v, Lᵢ) − d(t, Lᵢ),  d(Lᵢ, t) − d(Lᵢ, v),  0 )  ≤  d(v, t)
//! ```
//!
//! on the thread-local generation-stamped scratch (see
//! `scratch.rs`), so it touches only the nodes it reaches.
//!
//! **Exactness.** `h` is admissible because both differences are lower
//! bounds of `d(v, t)` by the triangle inequality on *exact* tabulated
//! distances. It need not be consistent: the search re-opens a node
//! whenever a cheaper label reaches it (lazy deletion — superseded heap
//! entries are skipped when popped), and A* with re-opening returns an
//! optimal path for any admissible heuristic: when the target is popped
//! with label `g`, every optimal path still has an open node `n` with an
//! optimal label, so `g ≤ g*(n) + h(n) ≤ d(s, t)`. The returned path is
//! therefore a shortest path, and where shortest paths are unique (the
//! generated cities jitter their edge lengths) it is node-for-node the
//! path [`ShortestPaths::path`] returns.

use std::sync::Arc;

use crate::graph::{NodeId, RoadGraph};
use crate::scratch::{with_scratch, HeapEntry};
use crate::shortest_path::{CostMetric, Direction, PathResult, ShortestPaths};

/// Number of ALT landmarks. A constant, not a setting: four corner-ish
/// landmarks already cut the settled set of a cross-city query from
/// thousands of nodes to a few hundred on the lattice cities, and each
/// further landmark costs 16 bytes per node and two more table reads
/// per relaxation.
const LANDMARKS: usize = 4;
/// Table entries per node: distance to and from each landmark.
const ROW: usize = 2 * LANDMARKS;

/// Driving-distance router bound to one road graph.
///
/// ```
/// use std::sync::Arc;
/// use xar_roadnet::{CityConfig, NodeId, Router, ShortestPaths};
///
/// let graph = Arc::new(CityConfig::test_city(7).generate());
/// let router = Router::new(Arc::clone(&graph));
/// let (a, b) = (NodeId(0), NodeId(graph.node_count() as u32 - 1));
/// // Same path as plain Dijkstra, found by settling far fewer nodes.
/// assert_eq!(router.path(a, b), ShortestPaths::driving(&graph).path(a, b));
/// ```
pub struct Router {
    graph: Arc<RoadGraph>,
    /// Node-major lower-bound table: row `v` holds `d(v, Lᵢ)` for each
    /// landmark, then `d(Lᵢ, v)` for each landmark (`INFINITY` where no
    /// path exists). One row is 64 bytes, the size of a cache line.
    table: Vec<[f64; ROW]>,
}

impl Router {
    /// Choose the landmarks of `graph` and tabulate their distances:
    /// `2·K + 1` full Dijkstra runs.
    ///
    /// Landmarks are picked by farthest-point selection — the node
    /// farthest from node 0, then repeatedly the node farthest from
    /// the landmarks chosen so far — which spreads them along the rim
    /// of the network, where the triangle bounds are tightest for
    /// queries that cross it. Only nodes at finite distance are
    /// candidates, so on a graph that is not strongly connected the
    /// landmarks stay in the part reachable from node 0 (any choice is
    /// *correct*; a poor one is merely slower). A graph too small to
    /// offer `K` distinct candidates repeats one, which is harmless.
    pub fn new(graph: Arc<RoadGraph>) -> Self {
        let n = graph.node_count();
        let mut table = vec![[f64::INFINITY; ROW]; n];
        if n == 0 {
            return Self { graph, table };
        }
        let forward = ShortestPaths::driving(&graph);
        let reverse = ShortestPaths::new(&graph, CostMetric::Distance, Direction::Reverse);
        // Distance from the nearest chosen landmark (seeded with node 0,
        // which only anchors the first pick).
        let mut nearest = forward.one_to_all(NodeId(0));
        for i in 0..LANDMARKS {
            let mut landmark = NodeId(0);
            let mut farthest = 0.0;
            for (v, &d) in nearest.iter().enumerate() {
                if d.is_finite() && d > farthest {
                    (landmark, farthest) = (NodeId(v as u32), d);
                }
            }
            let from = forward.one_to_all(landmark);
            let to = reverse.one_to_all(landmark);
            for v in 0..n {
                table[v][i] = to[v];
                table[v][LANDMARKS + i] = from[v];
                nearest[v] = if i == 0 { from[v] } else { nearest[v].min(from[v]) };
            }
        }
        Self { graph, table }
    }

    /// Heap bytes of the lower-bound table: 64 per node.
    pub fn heap_bytes(&self) -> usize {
        self.table.capacity() * std::mem::size_of::<[f64; ROW]>()
    }

    /// Shortest driving path (metres) from `src` to `dst`; `None` if
    /// unreachable. Equal to `ShortestPaths::driving(graph).path(src,
    /// dst)` — same reachability, same cost, and the same node sequence
    /// wherever the shortest path is unique — but allocates only the
    /// returned path.
    ///
    /// # Panics
    ///
    /// Panics if `src` or `dst` is not a node of the router's graph.
    pub fn path(&self, src: NodeId, dst: NodeId) -> Option<PathResult> {
        let goal = *self.row(dst);
        // `f64::max` returns its other argument when one is NaN, which
        // is what the bound needs where a landmark is cut off from both
        // `v` and the target (∞ − ∞): that landmark says nothing.
        // A landmark `v` cannot reach but the target can (∞ − finite)
        // correctly yields h = ∞: `v` cannot reach the target either.
        let h = |v: usize| -> f64 {
            let row = self.row(NodeId(v as u32));
            let mut bound = 0.0f64;
            for i in 0..LANDMARKS {
                bound = bound
                    .max(row[i] - goal[i])
                    .max(goal[LANDMARKS + i] - row[LANDMARKS + i]);
            }
            bound
        };
        with_scratch(self.graph.node_count(), |mut labels, heap| {
            labels.set(src.index(), 0.0, src.0);
            heap.push(HeapEntry { cost: h(src.index()), node: src.0 });
            while let Some(HeapEntry { cost: f, node }) = heap.pop() {
                if node == dst.0 {
                    let driving = ShortestPaths::driving(&self.graph);
                    return Some(driving.reconstruct(src, dst, |v| labels.mark(v)));
                }
                let g = labels.dist(node as usize);
                // Superseded entry: the node was re-labelled with a
                // smaller g (hence smaller key) after this push. The
                // live entry's key is recomputed by the same expression
                // it was pushed with, so the comparison is exact.
                if f > g + h(node as usize) {
                    continue;
                }
                for e in self.graph.out_edges(NodeId(node)) {
                    let next = e.to.index();
                    let ng = g + e.len_m;
                    if ng < labels.dist(next) {
                        labels.set(next, ng, node);
                        heap.push(HeapEntry { cost: ng + h(next), node: e.to.0 });
                    }
                }
            }
            None
        })
    }

    #[inline]
    fn row(&self, v: NodeId) -> &[f64; ROW] {
        &self.table[v.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::CityConfig;

    #[test]
    fn table_is_64_bytes_per_node() {
        let graph = Arc::new(CityConfig::test_city(3).generate());
        let router = Router::new(Arc::clone(&graph));
        assert_eq!(router.heap_bytes(), 64 * graph.node_count());
    }

    #[test]
    fn lower_bound_never_exceeds_the_distance() {
        let graph = Arc::new(CityConfig::test_city(5).generate());
        let router = Router::new(Arc::clone(&graph));
        let n = graph.node_count();
        for t in (0..n).step_by(37) {
            // d(v, t) for every v is the reverse search from t.
            let exact = ShortestPaths::new(&graph, CostMetric::Distance, Direction::Reverse)
                .one_to_all(NodeId(t as u32));
            let goal = router.row(NodeId(t as u32));
            for (v, &d) in exact.iter().enumerate() {
                let row = router.row(NodeId(v as u32));
                for i in 0..LANDMARKS {
                    let bound = (row[i] - goal[i]).max(goal[LANDMARKS + i] - row[LANDMARKS + i]);
                    assert!(bound <= d + 1e-6, "h({v}) = {bound} > d({v},{t}) = {d}");
                }
            }
        }
    }
}
