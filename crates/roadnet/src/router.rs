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
//! **Many landmarks, a few per query.** The router tabulates
//! `LANDMARKS` = 16 landmarks, but a query bounds with only the
//! `ACTIVE` = 6 of them that give the largest bound at its source
//! (Goldberg & Werneck's active-landmark rule): the landmarks roughly in
//! line with the query, behind its source or beyond its target. More
//! landmarks to choose from means a tighter bound for every direction
//! of travel; a small active set keeps the cost of one bound evaluation
//! near what four landmarks cost.
//!
//! **Cost per settled node.** Four things keep it low without
//! changing a single pop. Heap entries compare as one integer
//! ([`HeapEntry`]). `h(v)` is computed once per query, when `v` is first
//! labelled, and cached beside its label, so the superseded-entry test
//! and every re-push read it back instead of recomputing it. The inner
//! loop walks the router's own `(head, length)` arc array instead of
//! following edge ids into the graph's edge records. And the table
//! holds `f32`: a node's distances to the landmarks fill one cache
//! line, its distances from them another.
//!
//! **Exactness.** `h` is admissible: each difference is a lower bound
//! of `d(v, t)` by the triangle inequality on exact distances, and the
//! `f32` table only moves it by rounding. Every tabulated entry is
//! within `M·ε/2` of the exact distance (`M` the largest finite entry,
//! `ε = f32::EPSILON`), and the `f32` subtraction of two entries in
//! `[0, M]` rounds by at most `M·ε/2` more, so a computed term exceeds
//! its exact value by at most `1.5·M·ε`. The bound subtracts a slack of
//! `4·M·ε` (in `f64`) before it is clamped at 0, so it stays below
//! `d(v, t)`. It need not be consistent: the search re-opens a node
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

/// Number of ALT landmarks tabulated per graph. A constant, not a
/// setting: on the lattice cities 16 farthest-point landmarks settle
/// about half the nodes four did on a cross-city query, for 2·16 + 1
/// Dijkstra runs at build time and 8 bytes per landmark per node.
const LANDMARKS: usize = 16;
/// Landmarks one query bounds with: those with the largest bound at its
/// source. Bounding with all 16 settles fewer nodes but takes as long
/// per query, since every labelled node evaluates every term.
const ACTIVE: usize = 6;

/// One node's distances to (or from) every landmark, `INFINITY` where
/// no path exists: 64 bytes, aligned to be exactly one cache line.
#[derive(Clone, Copy)]
#[repr(C, align(64))]
struct Line([f32; LANDMARKS]);

/// One node's two table lines.
#[derive(Clone, Copy)]
struct Row<'r> {
    /// `d(v, Lᵢ)` for each landmark.
    to: &'r Line,
    /// `d(Lᵢ, v)` for each landmark.
    from: &'r Line,
}

impl Row<'_> {
    /// The triangle bound of landmark `i` on `d(self, goal)`, rounded
    /// (see the module docs). `NaN` where the landmark is cut off from
    /// both nodes (∞ − ∞): it says nothing there.
    #[inline]
    fn term(self, goal: Row<'_>, i: usize) -> f32 {
        (self.to.0[i] - goal.to.0[i]).max(goal.from.0[i] - self.from.0[i])
    }
}

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
    /// Node-major lower-bound table: `d(v, Lᵢ)` per node. Two tables,
    /// not one of 128-byte rows: each is an allocation of the size the
    /// four-landmark `f64` table was, and glibc's heap reuses those
    /// across repeated region builds where it did not reuse one 2.5 MB
    /// table on the 140×140 city (EXPERIMENTS.md, "16 landmarks and a
    /// masked footprint scan").
    to: Vec<Line>,
    /// `d(Lᵢ, v)` per node.
    from: Vec<Line>,
    /// What every bound subtracts to cover the table's `f32` rounding:
    /// `4·M·f32::EPSILON` for the largest finite entry `M`.
    slack: f64,
    /// CSR offsets into `arcs` per node (len = nodes + 1).
    first: Vec<u32>,
    /// Each node's out-edges as `(head, len_m)`, in `out_edges` order:
    /// 16 bytes per arc, read without an edge-id indirection.
    arcs: Vec<(u32, f64)>,
}

impl Router {
    /// Choose the landmarks of `graph` and tabulate their distances:
    /// `2·LANDMARKS + 1` full Dijkstra runs.
    ///
    /// Landmarks are picked by farthest-point selection — the node
    /// farthest from node 0, then repeatedly the node farthest from
    /// the landmarks chosen so far — which spreads them along the rim
    /// of the network, where the triangle bounds are tightest for
    /// queries that cross it. Only nodes at finite distance are
    /// candidates, so on a graph that is not strongly connected the
    /// landmarks stay in the part reachable from node 0 (any choice is
    /// *correct*; a poor one is merely slower). A graph too small to
    /// offer `LANDMARKS` distinct candidates repeats one, which is
    /// harmless.
    pub fn new(graph: Arc<RoadGraph>) -> Self {
        let n = graph.node_count();
        let mut to_landmark = vec![Line([f32::INFINITY; LANDMARKS]); n];
        let mut from_landmark = to_landmark.clone();
        let mut first = Vec::with_capacity(n + 1);
        let mut arcs = Vec::with_capacity(graph.edge_count());
        first.push(0);
        for v in 0..n {
            arcs.extend(graph.out_edges(NodeId(v as u32)).map(|e| (e.to.0, e.len_m)));
            first.push(arcs.len() as u32);
        }
        let mut max_entry = 0.0f32;
        if n > 0 {
            let forward = ShortestPaths::driving(&graph);
            let reverse = ShortestPaths::new(&graph, CostMetric::Distance, Direction::Reverse);
            // Distance from the nearest chosen landmark (seeded with
            // node 0, which only anchors the first pick).
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
                    let (t, f) = (to[v] as f32, from[v] as f32);
                    (to_landmark[v].0[i], from_landmark[v].0[i]) = (t, f);
                    for d in [t, f] {
                        if d.is_finite() {
                            max_entry = max_entry.max(d);
                        }
                    }
                    nearest[v] = if i == 0 {
                        from[v]
                    } else {
                        nearest[v].min(from[v])
                    };
                }
            }
        }
        Self {
            graph,
            to: to_landmark,
            from: from_landmark,
            slack: 4.0 * f64::from(max_entry) * f64::from(f32::EPSILON),
            first,
            arcs,
        }
    }

    /// Heap bytes of the lower-bound table and the arc array: 128 per
    /// node for the table, 4 per node (plus 4) for the offsets and 16
    /// per arc.
    pub fn heap_bytes(&self) -> usize {
        (self.to.capacity() + self.from.capacity()) * std::mem::size_of::<Line>()
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
        let goal = self.row(dst.index());
        let active = self.active_landmarks(src, dst);
        let h = |v: usize| self.bound(self.row(v), goal, &active);
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

    /// The `ACTIVE` landmarks with the largest bound on `d(src, dst)`,
    /// ties to the lower index; a landmark that says nothing (`NaN`)
    /// ranks last.
    fn active_landmarks(&self, src: NodeId, dst: NodeId) -> [usize; ACTIVE] {
        let (from, goal) = (self.row(src.index()), self.row(dst.index()));
        let score: [f32; LANDMARKS] = std::array::from_fn(|i| {
            let t = from.term(goal, i);
            if t.is_nan() {
                f32::NEG_INFINITY
            } else {
                t
            }
        });
        let mut order: [usize; LANDMARKS] = std::array::from_fn(|i| i);
        order.sort_unstable_by(|&a, &b| score[b].total_cmp(&score[a]).then(a.cmp(&b)));
        std::array::from_fn(|k| order[k])
    }

    /// The admissible bound on `d(v, goal)` over the `active` landmarks:
    /// the largest term less the rounding slack, at least 0.
    ///
    /// `f32::max` returns its other argument when one is NaN, so a
    /// landmark cut off from both nodes drops out, and the fold's
    /// starting 0 absorbs the case where every term is NaN. A landmark
    /// `v` cannot reach but the target can (∞ − finite) correctly
    /// yields h = ∞: `v` cannot reach the target either.
    #[inline]
    fn bound(&self, v: Row<'_>, goal: Row<'_>, active: &[usize; ACTIVE]) -> f64 {
        let best = active.iter().fold(0.0f32, |m, &i| m.max(v.term(goal, i)));
        (f64::from(best) - self.slack).max(0.0)
    }

    #[inline]
    fn row(&self, v: usize) -> Row<'_> {
        Row {
            to: &self.to[v],
            from: &self.from[v],
        }
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
        assert_eq!(router.heap_bytes(), 128 * n + 4 * (n + 1) + 16 * arcs);
    }

    /// Every bound a query can use — any landmark's term less the
    /// slack, and the active-set bound of queries from several sources —
    /// is at most the exact Dijkstra distance, with no tolerance.
    #[test]
    fn lower_bound_never_exceeds_the_distance() {
        let graph = Arc::new(CityConfig::test_city(5).generate());
        let router = Router::new(Arc::clone(&graph));
        let n = graph.node_count();
        let reverse = ShortestPaths::new(&graph, CostMetric::Distance, Direction::Reverse);
        for t in (0..n).step_by(37) {
            // d(v, t) for every v is the reverse search from t.
            let exact = reverse.one_to_all(NodeId(t as u32));
            let goal = router.row(t);
            let actives: Vec<[usize; ACTIVE]> = (0..n)
                .step_by(53)
                .map(|s| router.active_landmarks(NodeId(s as u32), NodeId(t as u32)))
                .collect();
            for (v, &d) in exact.iter().enumerate() {
                let row = router.row(v);
                for i in 0..LANDMARKS {
                    let bound = (f64::from(row.term(goal, i)) - router.slack).max(0.0);
                    assert!(
                        bound <= d,
                        "landmark {i}: h({v}) = {bound} > d({v},{t}) = {d}"
                    );
                }
                for active in &actives {
                    let bound = router.bound(row, goal, active);
                    assert!(
                        bound <= d,
                        "{active:?}: h({v}) = {bound} > d({v},{t}) = {d}"
                    );
                }
            }
        }
    }

    #[test]
    fn the_active_set_is_the_largest_bounds_at_the_source() {
        let graph = Arc::new(CityConfig::test_city(5).generate());
        let router = Router::new(Arc::clone(&graph));
        let n = graph.node_count() as u32;
        for (s, t) in [(0, n - 1), (n / 3, 2 * n / 3), (7, 7)] {
            let (src, dst) = (NodeId(s), NodeId(t));
            let active = router.active_landmarks(src, dst);
            let (from, goal) = (router.row(s as usize), router.row(t as usize));
            let mut distinct = active.to_vec();
            distinct.sort_unstable();
            distinct.dedup();
            assert_eq!(distinct.len(), ACTIVE, "{active:?} repeats a landmark");
            let weakest = active
                .iter()
                .map(|&i| from.term(goal, i))
                .fold(f32::MAX, f32::min);
            for i in (0..LANDMARKS).filter(|i| !active.contains(i)) {
                assert!(
                    from.term(goal, i) <= weakest,
                    "{i} beats the active {active:?}"
                );
            }
        }
    }
}
