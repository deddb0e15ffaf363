//! Exact goal-directed point-to-point routing for the write path.
//!
//! Ride creation and booking are the only operations of the run-time
//! unit that compute shortest paths (§VI, §VIII.B), and once search and
//! publication are cheap those paths *are* the cost of a request. The
//! [`Router`] answers them with ALT — A*, Landmarks, Triangle
//! inequality (Goldberg & Harrelson) — over the driving-distance
//! metric: `LANDMARKS` = 16 landmark nodes are chosen once per graph,
//! the distance from and to each of them is tabulated for every node,
//! and a query runs A* with the triangle-inequality lower bound
//!
//! ```text
//! h(v) = max_i max( d(v, Lᵢ) − d(t, Lᵢ),  d(Lᵢ, t) − d(Lᵢ, v),  0 )  ≤  d(v, t)
//! ```
//!
//! on the thread-local generation-stamped scratch and its radix heap
//! (see `scratch.rs`), so it touches only the nodes it reaches.
//!
//! **One line per node.** A node's 16 `d(v, Lᵢ)` and 16 `d(Lᵢ, v)` are
//! `u16` in units of `u = M / 65534`, `M` the largest finite entry, with
//! `u16::MAX` for "no path": 64 bytes, aligned to be exactly one cache
//! line. A bound is two saturating subtractions and two maxima over 16
//! lanes, `to_v ⊖ to_t` and `from_t ⊖ from_v`, one multiply by `u` and
//! one subtraction of the slack: all 16 landmarks bound every node, in
//! about the time 6 `f32` terms took.
//!
//! **Cost per settled node.** `h(v)` is computed once per query, when
//! `v` is first labelled, and cached beside its label, so the
//! superseded-entry test and every re-push read it back. The inner loop
//! walks the router's own `(head, length)` arc array instead of
//! following edge ids into the graph's edge records.
//!
//! **The slack.** Write `D` for the `f64` Dijkstra distances the table
//! is built from. Each entry is `q = round(f32(D) / u)`: the `f32`
//! rounding moves `D` by at most `M·2⁻²⁴ < u/256`, and the unit rounding
//! by `u/2` more (plus `f64` rounding of the quotient, below `2⁻³⁵·u`).
//! A lane's difference of two entries therefore exceeds
//! `D(v, Lᵢ) − D(t, Lᵢ)` (or `D(Lᵢ, t) − D(Lᵢ, v)`) by less than
//! `u + u/128`, and by the triangle inequality that difference is at
//! most `d(v, t)`. The triangle inequality holds for real path lengths;
//! every `D` is an `f64` sum along a path of fewer than `n` edges,
//! within `n·2⁻⁵³·M` of its real length, so all `f64` rounding in this
//! argument stays under `n·2⁻⁵¹·M`, which is below `u/8` for any graph
//! with `u32` node ids. The bound subtracts a slack of `1.5·u` before it
//! is clamped at 0: it stays more than `u/4` below `d(v, t)`, the margin
//! the key comparisons of the stopping proof need (below). Saturation only lowers a term, and a
//! lane where `v` or `t` has no path to or from the landmark either
//! saturates to 0 or exceeds `d(v, t)` only where `d(v, t)` is infinite
//! (`v` missing a landmark `t` reaches cannot reach `t`). A table whose
//! `u` is not a normal `f64` (`M` zero or subnormal) stores 0 for every
//! finite entry and bounds with `u = 0`: plain Dijkstra, never a
//! division by zero.
//!
//! **Stopping at the target's first pop.** The bound is admissible
//! but not consistent: on `metro` about 45 % of a query's pushes land
//! below the radix heap's floor, and the heap pops those last in, first
//! out, not in key order. The search re-opens a node whenever a cheaper
//! label reaches it (lazy deletion: a superseded entry is skipped when
//! popped) and still returns at the first pop of the target `t`. That
//! is exact for any admissible bound.
//!
//! *Proof.* Take a shortest path `P` from `s` to `t`, and call a node
//! *done* once it has been expanded with its exact distance as label.
//! Until `t` is popped, let `n` be the first node of `P` that is not
//! done (`t` itself if all before it are). Its predecessor on `P` is
//! done (or `n = s`, labelled 0), so `n` holds the label `d(s, n)`, and
//! the entry pushed with that label is still open: it is not
//! superseded, and `n` has not been expanded with it (for `n = t`: `t`
//! has not been popped). Its key `d(s, n) + h(n)` is at most
//! `d(s, n) + d(n, t) = d(s, t)`, less the slack's margin, which absorbs
//! the rounding of the sum.
//! 1. *The floor stays at most `d(s, t)` until `t` is popped.* It rises
//!    only when bucket 0 is empty, to the least open key, and `n`'s
//!    entry is open.
//! 2. *If `t`'s first pop comes from bucket 0,* its key `g(t)` is at
//!    most the floor, so at most `d(s, t)`: `g(t) = d(s, t)`.
//! 3. *If it comes from above,* bucket 0 was empty and `g(t)` is the
//!    least open key, at most `n`'s: `g(t) ≤ d(s, t)`. ∎
//!
//! If the heap runs dry first, the target was never labelled: "no
//! path". Where shortest paths are unique (the generated cities jitter
//! their edge lengths) the returned path is node for node the path
//! [`ShortestPaths::path`] returns.

use std::sync::Arc;

use crate::graph::{NodeId, RoadGraph};
use crate::scratch::{with_scratch, HeapEntry};
use crate::shortest_path::{CostMetric, Direction, PathResult, ShortestPaths};

/// Number of ALT landmarks tabulated per graph. A constant, not a
/// setting: on the lattice cities 16 farthest-point landmarks settle
/// about half the nodes four did on a cross-city query, for 3·16 + 1
/// traversals at build time and 4 bytes per landmark per node.
const LANDMARKS: usize = 16;

/// The largest finite table entry; `u16::MAX` marks "no path".
const TOP: u16 = u16::MAX - 1;

/// One node's distances to and from every landmark in table units:
/// 64 bytes, aligned to be exactly one cache line.
#[derive(Clone, Copy)]
#[repr(C, align(64))]
struct Line {
    /// `d(v, Lᵢ)` for each landmark.
    to: [u16; LANDMARKS],
    /// `d(Lᵢ, v)` for each landmark.
    from: [u16; LANDMARKS],
}

impl Line {
    /// Hold `d` (a `d(v, Lᵢ)`) in lane `i`'s two halves as `f32` bits
    /// while the unit is not known yet.
    fn park(&mut self, i: usize, d: f32) {
        let bits = d.to_bits();
        (self.to[i], self.from[i]) = (bits as u16, (bits >> 16) as u16);
    }

    /// The value [`Self::park`] left in lane `i`.
    fn parked(&self, i: usize) -> f32 {
        f32::from_bits(u32::from(self.to[i]) | u32::from(self.from[i]) << 16)
    }

    /// The largest triangle bound over all landmarks on `d(self, goal)`,
    /// in table units, before the slack (see the module docs).
    #[inline]
    fn units_to(&self, goal: &Line) -> u16 {
        let mut best = 0u16;
        for i in 0..LANDMARKS {
            let ahead = self.to[i].saturating_sub(goal.to[i]);
            let behind = goal.from[i].saturating_sub(self.from[i]);
            best = best.max(ahead).max(behind);
        }
        best
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
    /// The lower-bound table: one line per node.
    lines: Vec<Line>,
    /// Metres per table unit, `M / 65534` (0 when that is not normal).
    unit: f64,
    /// What every bound subtracts to cover the quantization: `1.5·unit`.
    slack: f64,
    /// CSR offsets into `arcs` per node (len = nodes + 1).
    first: Vec<u32>,
    /// Each node's out-edges as `(head, len_m)`, in `out_edges` order:
    /// 16 bytes per arc, read without an edge-id indirection.
    arcs: Vec<(u32, f64)>,
}

impl Router {
    /// Choose the landmarks of `graph` and tabulate their distances.
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
    ///
    /// The unit needs the largest entry before the first is stored.
    /// The `2·LANDMARKS + 1` traversals that choose the landmarks find
    /// it, and meanwhile park each `d(v, Lᵢ)` in the table as `f32`
    /// bits; `LANDMARKS` more forward traversals then fill it. No
    /// distance table is kept beside the `u16` one, not even for the
    /// length of the build.
    pub fn new(graph: Arc<RoadGraph>) -> Self {
        let n = graph.node_count();
        // The table before the traversals' temporaries: allocated after
        // them, it raised the benchmark's `peak_rss_mb` (DESIGN §3b).
        let blank = Line {
            to: [u16::MAX; LANDMARKS],
            from: [u16::MAX; LANDMARKS],
        };
        let mut lines = vec![blank; n];
        let mut first = Vec::with_capacity(n + 1);
        let mut arcs = Vec::with_capacity(graph.edge_count());
        first.push(0);
        for v in 0..n {
            arcs.extend(graph.out_edges(NodeId(v as u32)).map(|e| (e.to.0, e.len_m)));
            first.push(arcs.len() as u32);
        }
        let mut unit = 0.0;
        if n > 0 {
            let forward = ShortestPaths::driving(&graph);
            let reverse = ShortestPaths::new(&graph, CostMetric::Distance, Direction::Reverse);
            let mut landmarks = [NodeId(0); LANDMARKS];
            let mut max_entry = 0.0f32;
            // Distance from the nearest chosen landmark (seeded with
            // node 0, which only anchors the first pick).
            let mut nearest = forward.one_to_all(NodeId(0));
            for (i, landmark) in landmarks.iter_mut().enumerate() {
                let mut farthest = 0.0;
                for (v, &d) in nearest.iter().enumerate() {
                    if d.is_finite() && d > farthest {
                        (*landmark, farthest) = (NodeId(v as u32), d);
                    }
                }
                let from = forward.one_to_all(*landmark);
                let to = reverse.one_to_all(*landmark);
                for v in 0..n {
                    let (t, f) = (to[v] as f32, from[v] as f32);
                    for d in [t, f] {
                        if d.is_finite() {
                            max_entry = max_entry.max(d);
                        }
                    }
                    lines[v].park(i, t);
                    nearest[v] = if i == 0 {
                        from[v]
                    } else {
                        nearest[v].min(from[v])
                    };
                }
            }
            unit = f64::from(max_entry) / f64::from(TOP);
            if !unit.is_normal() {
                unit = 0.0;
            }
            let quantize = |d: f32| {
                if !d.is_finite() {
                    u16::MAX
                } else if unit == 0.0 {
                    0
                } else {
                    (f64::from(d) / unit).round().min(f64::from(TOP)) as u16
                }
            };
            for (i, &landmark) in landmarks.iter().enumerate() {
                for (line, d) in lines.iter_mut().zip(forward.one_to_all(landmark)) {
                    let to = line.parked(i);
                    (line.to[i], line.from[i]) = (quantize(to), quantize(d as f32));
                }
            }
        }
        Self {
            graph,
            lines,
            unit,
            slack: 1.5 * unit,
            first,
            arcs,
        }
    }

    /// Heap bytes of the lower-bound table and the arc array: 64 per
    /// node for the table, 4 per node (plus 4) for the offsets and 16
    /// per arc.
    pub fn heap_bytes(&self) -> usize {
        self.lines.capacity() * std::mem::size_of::<Line>()
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
        let goal = &self.lines[dst.index()];
        let h = |v: usize| self.bound(&self.lines[v], goal);
        with_scratch(self.graph.node_count(), |mut labels, heap| {
            if let Some(bound) = labels.relax_bounded(src.index(), 0.0, src.0, || h(src.index())) {
                heap.push(HeapEntry::new(bound, src.0));
            }
            while let Some(entry) = heap.pop() {
                let node = entry.node();
                if node == dst.0 {
                    // Exact at the first pop: see the module docs.
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

    /// The admissible bound on `d(v, goal)`: the largest lane in
    /// metres, less the slack, at least 0.
    #[inline]
    fn bound(&self, v: &Line, goal: &Line) -> f64 {
        (f64::from(v.units_to(goal)) * self.unit - self.slack).max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::CityConfig;
    use crate::graph::{RoadClass, RoadGraphBuilder};
    use xar_geo::GeoPoint;

    #[test]
    fn heap_bytes_count_the_table_and_the_arcs_exactly() {
        let graph = Arc::new(CityConfig::test_city(3).generate());
        let router = Router::new(Arc::clone(&graph));
        let (n, arcs) = (graph.node_count(), graph.edge_count());
        assert_eq!(std::mem::size_of::<Line>(), 64);
        assert_eq!(router.heap_bytes(), 64 * n + 4 * (n + 1) + 16 * arcs);
    }

    /// Every bound a query can use — each landmark's lane alone, and the
    /// maximum over all 16 — is at most the exact Dijkstra distance,
    /// with no tolerance, from every node to every `step`-th target.
    fn assert_bounds_are_admissible(graph: RoadGraph, step: usize) -> Router {
        let graph = Arc::new(graph);
        let router = Router::new(Arc::clone(&graph));
        let reverse = ShortestPaths::new(&graph, CostMetric::Distance, Direction::Reverse);
        for t in (0..graph.node_count()).step_by(step) {
            // d(v, t) for every v is the reverse search from t.
            let exact = reverse.one_to_all(NodeId(t as u32));
            let goal = &router.lines[t];
            for (v, &d) in exact.iter().enumerate() {
                let line = &router.lines[v];
                for i in 0..LANDMARKS {
                    let mut lane = zeros();
                    (lane.to[i], lane.from[i]) = (line.to[i], line.from[i]);
                    let mut goal_lane = zeros();
                    (goal_lane.to[i], goal_lane.from[i]) = (goal.to[i], goal.from[i]);
                    let bound = router.bound(&lane, &goal_lane);
                    assert!(
                        bound <= d,
                        "landmark {i}: h({v}) = {bound} > d({v},{t}) = {d}"
                    );
                }
                let bound = router.bound(line, goal);
                assert!(bound >= 0.0 && bound.is_finite(), "h({v}) = {bound}");
                assert!(bound <= d, "h({v}) = {bound} > d({v},{t}) = {d}");
            }
        }
        router
    }

    fn zeros() -> Line {
        Line {
            to: [0; LANDMARKS],
            from: [0; LANDMARKS],
        }
    }

    #[test]
    fn lower_bound_never_exceeds_the_distance() {
        let router = assert_bounds_are_admissible(CityConfig::test_city(5).generate(), 37);
        // The largest entry is the top of the range, and the slack is
        // a unit and a half.
        let top = router.lines.iter().flat_map(|l| l.to.iter().chain(&l.from));
        assert_eq!(top.copied().max(), Some(TOP));
        assert!(router.unit > 0.0 && router.slack == 1.5 * router.unit);
    }

    /// A two-way ring of `len` nodes with distinct edge lengths.
    fn add_ring(b: &mut RoadGraphBuilder, len: usize, lat: f64, base_m: f64) -> Vec<NodeId> {
        let ids: Vec<NodeId> = (0..len)
            .map(|i| b.add_node(GeoPoint::new(lat, -74.0 + 0.001 * i as f64)))
            .collect();
        for i in 0..len {
            let m = base_m + 13.0 * i as f64 + 0.37 * (i * i) as f64;
            b.add_two_way(ids[i], ids[(i + 1) % len], RoadClass::Street, Some(m));
        }
        ids
    }

    /// Ring A reaches ring B over a one-way bridge but not back, and
    /// ring C is an island: every node's line holds `u16::MAX` in some
    /// lanes, and C's in all of them.
    #[test]
    fn lower_bound_is_admissible_where_landmarks_are_cut_off() {
        let mut b = RoadGraphBuilder::new();
        let ring_a = add_ring(&mut b, 7, 40.70, 100.0);
        let ring_b = add_ring(&mut b, 6, 40.71, 140.0);
        add_ring(&mut b, 5, 40.72, 90.0);
        b.add_edge(ring_a[3], ring_b[0], RoadClass::Street, Some(55.0));
        let router = assert_bounds_are_admissible(b.build(), 1);
        assert!(router.lines[17].to.iter().all(|&q| q == u16::MAX));
    }

    /// A table whose largest entry is 0 (no edges) or subnormal (edges
    /// of one subnormal length) has no normal unit: it stores 0 for
    /// every finite entry and bounds with 0, with no division by zero.
    #[test]
    fn a_zero_or_subnormal_largest_entry_bounds_with_zero() {
        let three = |edge_m: Option<f64>| {
            let mut b = RoadGraphBuilder::new();
            let ids: Vec<NodeId> = (0..3)
                .map(|i| b.add_node(GeoPoint::new(40.70, -74.0 + 0.001 * f64::from(i))))
                .collect();
            for w in ids.windows(2).filter(|_| edge_m.is_some()) {
                b.add_two_way(w[0], w[1], RoadClass::Street, edge_m);
            }
            b.build()
        };
        for graph in [three(None), three(Some(f64::from_bits(1)))] {
            let router = assert_bounds_are_admissible(graph, 1);
            assert_eq!((router.unit, router.slack), (0.0, 0.0));
            for line in &router.lines {
                assert!(line
                    .to
                    .iter()
                    .chain(&line.from)
                    .all(|&q| q == 0 || q == u16::MAX));
            }
        }
    }
}
