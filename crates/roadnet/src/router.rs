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
//! **Cost per settled node.** Three things keep it low without
//! changing a single pop. Heap entries compare as one integer
//! ([`HeapEntry`]). `h(v)` is computed once per query, when `v` is first
//! labelled, and cached beside its label, so the superseded-entry test
//! and every re-push read it back instead of recomputing it. And the
//! inner loop walks the router's own `(head, length)` arc array instead
//! of following edge ids into the graph's edge records.
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
// `Router::path` spells out its bound as a max tree over four terms.
const _: () = assert!(LANDMARKS == 4);

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
    /// CSR offsets into `arcs` per node (len = nodes + 1).
    first: Vec<u32>,
    /// Each node's out-edges as `(head, len_m)`, in `out_edges` order:
    /// 16 bytes per arc, read without an edge-id indirection.
    arcs: Vec<(u32, f64)>,
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
        let mut first = Vec::with_capacity(n + 1);
        let mut arcs = Vec::with_capacity(graph.edge_count());
        first.push(0);
        for v in 0..n {
            arcs.extend(graph.out_edges(NodeId(v as u32)).map(|e| (e.to.0, e.len_m)));
            first.push(arcs.len() as u32);
        }
        if n == 0 {
            return Self {
                graph,
                table,
                first,
                arcs,
            };
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
                nearest[v] = if i == 0 {
                    from[v]
                } else {
                    nearest[v].min(from[v])
                };
            }
        }
        Self {
            graph,
            table,
            first,
            arcs,
        }
    }

    /// Heap bytes of the lower-bound table and the arc array: 64 per
    /// node for the table, 4 per node (plus 4) for the offsets and 16
    /// per arc.
    pub fn heap_bytes(&self) -> usize {
        self.table.capacity() * std::mem::size_of::<[f64; ROW]>()
            + self.first.capacity() * std::mem::size_of::<u32>()
            + self.arcs.capacity() * std::mem::size_of::<(u32, f64)>()
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
        // The terms are combined as a pairwise tree; `max` is exact and
        // no term is `-0.0`, so the value is the one a serial chain
        // from 0 gives, and the trailing `max(0.0)` also absorbs a NaN
        // that survives the tree when every term of a branch is NaN.
        let h = |v: usize| -> f64 {
            let row = self.row(NodeId(v as u32));
            let term = |i: usize| (row[i] - goal[i]).max(goal[LANDMARKS + i] - row[LANDMARKS + i]);
            (term(0).max(term(1))).max(term(2).max(term(3))).max(0.0)
        };
        with_scratch(self.graph.node_count(), |mut labels, heap| {
            if let Some(bound) = labels.relax_bounded(src.index(), 0.0, src.0, || h(src.index())) {
                heap.push(HeapEntry::new(bound, src.0));
            }
            while let Some(entry) = heap.pop() {
                let node = entry.node();
                if node == dst.0 {
                    let driving = ShortestPaths::driving(&self.graph);
                    return Some(driving.reconstruct(src, dst, |v| labels.mark(v)));
                }
                let g = labels.dist(node as usize);
                // Superseded entry: the node was re-labelled with a
                // smaller g (hence smaller key) after this push. The
                // live entry's key was formed from the same g and the
                // same cached bound, so the comparison is exact.
                if entry.cost() > g + labels.bound(node as usize) {
                    continue;
                }
                let (lo, hi) = (self.first[node as usize], self.first[node as usize + 1]);
                for &(next, len) in &self.arcs[lo as usize..hi as usize] {
                    let ng = g + len;
                    let next_h = || h(next as usize);
                    if let Some(bound) = labels.relax_bounded(next as usize, ng, node, next_h) {
                        heap.push(HeapEntry::new(ng + bound, next));
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
    fn heap_bytes_count_the_table_and_the_arcs_exactly() {
        let graph = Arc::new(CityConfig::test_city(3).generate());
        let router = Router::new(Arc::clone(&graph));
        let (n, arcs) = (graph.node_count(), graph.edge_count());
        assert_eq!(router.heap_bytes(), 64 * n + 4 * (n + 1) + 16 * arcs);
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
