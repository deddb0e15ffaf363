//! Shortest-path engines over the road graph.
//!
//! XAR deliberately performs **no** shortest-path computation during
//! ride search (§VII); shortest paths are needed only (a) at
//! pre-processing time to build the discretization and the
//! inter-landmark distance tables, (b) when a ride offer is created, and
//! (c) when a booking is confirmed (at most 4 computations, §VIII.B).
//! The T-Share baseline, by contrast, calls these engines on its search
//! path — which is exactly the contrast the paper's Figure 4 measures.
//!
//! Three traversal directions are supported:
//!
//! * [`Direction::Forward`] — driving, respecting one-way streets;
//! * [`Direction::Reverse`] — driving *towards* a target (used for
//!   "distance of a grid *from* a landmark" style queries);
//! * [`Direction::Undirected`] — walking, which ignores one-way
//!   restrictions. This is why "the two \[driving and walking
//!   distances\] can sometimes be very different, especially in regions
//!   with narrow streets, or one-way etc." (§IV).

use std::collections::BinaryHeap;

use crate::graph::{Edge, NodeId, RoadGraph};
use crate::scratch::{with_scratch, HeapEntry, NO_MARK};

/// Cached handles into the process-wide metric registry
/// ([`xar_obs::global`]): one latency histogram per traversal entry
/// point. `ShortestPaths` is a short-lived borrowed view constructed
/// ad hoc all over the workspace, so there is no natural owner to hang
/// a registry off — the global registry is the right home, and the
/// `OnceLock` caching keeps the per-call cost to an `Arc` clone.
mod sp_metrics {
    use std::sync::{Arc, OnceLock};
    use xar_obs::Histogram;

    macro_rules! cached {
        ($fn_name:ident, $metric:literal) => {
            pub(super) fn $fn_name() -> Arc<Histogram> {
                static H: OnceLock<Arc<Histogram>> = OnceLock::new();
                Arc::clone(H.get_or_init(|| xar_obs::global().histogram($metric)))
            }
        };
    }

    cached!(path_ns, "roadnet.sp_path_ns");
    cached!(bounded_ns, "roadnet.sp_bounded_ns");
    cached!(targets_ns, "roadnet.sp_targets_ns");
    cached!(one_to_all_ns, "roadnet.sp_one_to_all_ns");
}

/// Pedestrian speed used to convert walking distances to times: 1.4 m/s
/// (~5 km/h).
pub const WALK_SPEED_MPS: f64 = 1.4;

/// Which quantity edge traversal accumulates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CostMetric {
    /// Metres along the road.
    Distance,
    /// Seconds at free-flow speed.
    Time,
}

/// Which adjacency a traversal follows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Follow edges tail → head (driving away from the source).
    Forward,
    /// Follow edges head → tail (driving towards the source).
    Reverse,
    /// Follow edges both ways (walking).
    Undirected,
}

/// A resolved shortest path.
#[derive(Debug, Clone, PartialEq)]
pub struct PathResult {
    /// Node sequence from source to destination (inclusive).
    pub nodes: Vec<NodeId>,
    /// Total length in metres.
    pub dist_m: f64,
    /// Total free-flow driving time in seconds.
    pub time_s: f64,
}

/// A shortest-path engine bound to a graph, a cost metric, and a
/// traversal direction.
#[derive(Debug, Clone, Copy)]
pub struct ShortestPaths<'g> {
    graph: &'g RoadGraph,
    metric: CostMetric,
    direction: Direction,
}

impl<'g> ShortestPaths<'g> {
    /// Create an engine.
    pub fn new(graph: &'g RoadGraph, metric: CostMetric, direction: Direction) -> Self {
        Self {
            graph,
            metric,
            direction,
        }
    }

    /// Convenience: driving distance engine (forward, metres).
    pub fn driving(graph: &'g RoadGraph) -> Self {
        Self::new(graph, CostMetric::Distance, Direction::Forward)
    }

    /// Convenience: driving time engine (forward, seconds).
    pub fn driving_time(graph: &'g RoadGraph) -> Self {
        Self::new(graph, CostMetric::Time, Direction::Forward)
    }

    /// Convenience: walking distance engine (undirected, metres).
    pub fn walking(graph: &'g RoadGraph) -> Self {
        Self::new(graph, CostMetric::Distance, Direction::Undirected)
    }

    /// The underlying graph.
    pub fn graph(&self) -> &'g RoadGraph {
        self.graph
    }

    #[inline]
    fn edge_cost(&self, e: &Edge) -> f64 {
        match self.metric {
            CostMetric::Distance => e.len_m,
            CostMetric::Time => e.travel_time_s(),
        }
    }

    /// Expand `node`, calling `visit(neighbor, edge_cost)` for each
    /// neighbour under the configured direction.
    #[inline]
    fn for_each_neighbor(&self, node: NodeId, mut visit: impl FnMut(NodeId, f64)) {
        match self.direction {
            Direction::Forward => {
                for e in self.graph.out_edges(node) {
                    visit(e.to, self.edge_cost(e));
                }
            }
            Direction::Reverse => {
                for e in self.graph.in_edges(node) {
                    visit(e.from, self.edge_cost(e));
                }
            }
            Direction::Undirected => {
                for e in self.graph.out_edges(node) {
                    visit(e.to, self.edge_cost(e));
                }
                for e in self.graph.in_edges(node) {
                    visit(e.from, self.edge_cost(e));
                }
            }
        }
    }

    /// Dijkstra from `src` to `dst` with early termination; `None` if
    /// unreachable.
    ///
    /// Deliberately the textbook routine — fresh `node_count()`-sized
    /// arrays, no goal direction: it is the oracle the
    /// [`crate::Router`] is tested against.
    pub fn path(&self, src: NodeId, dst: NodeId) -> Option<PathResult> {
        let _span = xar_obs::SpanTimer::new(sp_metrics::path_ns());
        let n = self.graph.node_count();
        let mut dist = vec![f64::INFINITY; n];
        let mut prev = vec![u32::MAX; n];
        let mut heap = BinaryHeap::new();
        dist[src.index()] = 0.0;
        heap.push(HeapEntry::new(0.0, src.0));
        while let Some(entry) = heap.pop() {
            let (cost, node) = (entry.cost(), entry.node());
            if node == dst.0 {
                return Some(self.reconstruct(src, dst, |v| prev[v]));
            }
            if cost > dist[node as usize] {
                continue;
            }
            self.for_each_neighbor(NodeId(node), |next, w| {
                let nd = cost + w;
                if nd < dist[next.index()] {
                    dist[next.index()] = nd;
                    prev[next.index()] = node;
                    heap.push(HeapEntry::new(nd, next.0));
                }
            });
        }
        None
    }

    /// Cost (in the configured metric) from `src` to `dst`; `None` if
    /// unreachable.
    pub fn cost(&self, src: NodeId, dst: NodeId) -> Option<f64> {
        self.path(src, dst).map(|p| match self.metric {
            CostMetric::Distance => p.dist_m,
            CostMetric::Time => p.time_s,
        })
    }

    /// All nodes within `max_cost` of `src`, as `(node, cost)` pairs in
    /// non-decreasing cost order. The source itself is included with
    /// cost 0.
    pub fn bounded_from(&self, src: NodeId, max_cost: f64) -> Vec<(NodeId, f64)> {
        let _span = xar_obs::SpanTimer::new(sp_metrics::bounded_ns());
        with_scratch(self.graph.node_count(), |mut labels, heap| {
            let mut out = Vec::new();
            labels.lower(src.index(), 0.0);
            heap.push(HeapEntry::new(0.0, src.0));
            while let Some(entry) = heap.pop() {
                let (cost, node) = (entry.cost(), entry.node());
                if cost > labels.dist(node as usize) {
                    continue;
                }
                out.push((NodeId(node), cost));
                self.for_each_neighbor(NodeId(node), |next, w| {
                    let nd = cost + w;
                    if nd <= max_cost && labels.lower(next.index(), nd) {
                        heap.push(HeapEntry::new(nd, next.0));
                    }
                });
            }
            out
        })
    }

    /// Costs from `src` to each of `targets`, stopping as soon as every
    /// target is settled or `max_cost` is exceeded. Unreachable (or
    /// beyond-bound) targets yield `None`.
    pub fn to_targets(&self, src: NodeId, targets: &[NodeId], max_cost: f64) -> Vec<Option<f64>> {
        let _span = xar_obs::SpanTimer::new(sp_metrics::targets_ns());
        // Mark of a target that is not settled yet.
        const WANTED: u32 = 1;
        with_scratch(self.graph.node_count(), |mut labels, heap| {
            let mut remaining = 0usize;
            for t in targets {
                if labels.mark(t.index()) != WANTED {
                    labels.set(t.index(), f64::INFINITY, WANTED);
                    remaining += 1;
                }
            }
            labels.lower(src.index(), 0.0);
            heap.push(HeapEntry::new(0.0, src.0));
            while let Some(entry) = heap.pop() {
                let (cost, node) = (entry.cost(), entry.node());
                if cost > labels.dist(node as usize) {
                    continue;
                }
                if labels.mark(node as usize) == WANTED {
                    labels.set(node as usize, cost, NO_MARK);
                    remaining -= 1;
                    if remaining == 0 {
                        break;
                    }
                }
                self.for_each_neighbor(NodeId(node), |next, w| {
                    let nd = cost + w;
                    if nd <= max_cost && labels.lower(next.index(), nd) {
                        heap.push(HeapEntry::new(nd, next.0));
                    }
                });
            }
            targets
                .iter()
                .map(|t| {
                    let d = labels.dist(t.index());
                    (d <= max_cost).then_some(d)
                })
                .collect()
        })
    }

    /// Full single-source search: cost to every node (`INFINITY` when
    /// unreachable).
    ///
    /// Dial's algorithm as sequential Δ-stepping: labels wait in a ring
    /// of buckets `⌊d / Δ⌋`, where Δ is the lightest positive edge cost,
    /// floored at `max / 4096` for the heaviest cost `max`, and
    /// `⌊max / Δ⌋ + 3` buckets hold every waiting label, two to spare for
    /// rounding. A bucket is
    /// drained until empty, so a node relabelled into it over a light
    /// edge is processed again in the same pass; an entry superseded by a
    /// lower label is skipped.
    ///
    /// **Exact for any Δ > 0.** Every label is the left-to-right `f64`
    /// sum of some path, and since `fl(x + w)` and the bucket map are
    /// monotone in `x`, no relaxation labels into a bucket already left.
    /// So on return `d(v) ≤ fl(d(u) + w)` on every edge, which makes the
    /// labels the least fixpoint of `d(v) = min_u fl(d(u) + w)`, the one
    /// heap Dijkstra and [`Self::path`] reach: every bit is theirs.
    pub fn one_to_all(&self, src: NodeId) -> Vec<f64> {
        let _span = xar_obs::SpanTimer::new(sp_metrics::one_to_all_ns());
        let n = self.graph.node_count();
        let mut dist = vec![f64::INFINITY; n];
        dist[src.index()] = 0.0;
        let (lightest, heaviest) = match self.metric {
            CostMetric::Distance => self.graph.len_range_m,
            CostMetric::Time => self.graph.time_range_s,
        };
        let width = lightest.max(heaviest / 4096.0);
        // A width too small to invert (subnormal edge costs only)
        // degrades to one bucket: the same loop, label-correcting.
        let (inv, buckets) = if width.is_normal() {
            (1.0 / width, (heaviest / width) as usize + 3)
        } else {
            (0.0, 1)
        };
        let bucket_of = |d: f64| (d * inv) as usize;
        let mut ring = vec![Vec::<(f64, u32)>::new(); buckets];
        ring[0].push((0.0, src.0));
        let mut pending = 1usize;
        let (mut cur, mut slot) = (0usize, 0usize);
        while pending > 0 {
            while let Some((cost, node)) = ring[slot].pop() {
                pending -= 1;
                if cost > dist[node as usize] {
                    continue;
                }
                self.for_each_neighbor(NodeId(node), |next, w| {
                    let nd = cost + w;
                    if nd < dist[next.index()] {
                        dist[next.index()] = nd;
                        let ahead = bucket_of(nd) - cur;
                        debug_assert!(ahead < buckets, "label {nd} beyond the ring");
                        let at = slot + ahead;
                        ring[if at < buckets { at } else { at - buckets }].push((nd, next.0));
                        pending += 1;
                    }
                });
            }
            cur += 1;
            slot = if slot + 1 < buckets { slot + 1 } else { 0 };
        }
        dist
    }

    /// Rebuild the node path by following `prev_of` (node index →
    /// predecessor id) back from `dst`, accumulating both distance and
    /// time. The chain is walked once to size the node vector, so the
    /// result costs one allocation.
    pub(crate) fn reconstruct(
        &self,
        src: NodeId,
        dst: NodeId,
        prev_of: impl Fn(usize) -> u32,
    ) -> PathResult {
        let mut hops = 0usize;
        let mut cur = dst;
        while cur != src {
            cur = NodeId(prev_of(cur.index()));
            hops += 1;
        }
        let mut nodes = Vec::with_capacity(hops + 1);
        nodes.push(dst);
        let mut cur = dst;
        while cur != src {
            cur = NodeId(prev_of(cur.index()));
            nodes.push(cur);
        }
        nodes.reverse();
        let (mut dist_m, mut time_s) = (0.0, 0.0);
        for w in nodes.windows(2) {
            let (a, b) = (w[0], w[1]);
            // Find the cheapest connecting edge under the traversal
            // direction (paths from Undirected traversal may use an edge
            // in either orientation).
            let mut best: Option<&Edge> = None;
            let mut consider = |e: &'g Edge| {
                if best.is_none_or(|b| self.edge_cost(e) < self.edge_cost(b)) {
                    best = Some(e);
                }
            };
            match self.direction {
                Direction::Forward => {
                    for e in self.graph.out_edges(a) {
                        if e.to == b {
                            consider(e);
                        }
                    }
                }
                Direction::Reverse => {
                    for e in self.graph.in_edges(a) {
                        if e.from == b {
                            consider(e);
                        }
                    }
                }
                Direction::Undirected => {
                    for e in self.graph.out_edges(a) {
                        if e.to == b {
                            consider(e);
                        }
                    }
                    for e in self.graph.in_edges(a) {
                        if e.from == b {
                            consider(e);
                        }
                    }
                }
            }
            let e = best.expect("reconstructed path uses a real edge");
            dist_m += e.len_m;
            time_s += e.travel_time_s();
        }
        PathResult {
            nodes,
            dist_m,
            time_s,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{RoadClass, RoadGraphBuilder};
    use xar_geo::GeoPoint;

    /// A 1 km-spaced 4x4 lattice, all two-way streets, except one
    /// one-way "avenue" shortcut.
    fn lattice() -> RoadGraph {
        let mut b = RoadGraphBuilder::new();
        let mut ids = vec![];
        for r in 0..4 {
            for c in 0..4 {
                ids.push(b.add_node(GeoPoint::new(
                    40.70 + 0.009 * r as f64,
                    -74.00 + 0.012 * c as f64,
                )));
            }
        }
        let at = |r: usize, c: usize| ids[r * 4 + c];
        for r in 0..4 {
            for c in 0..4 {
                if c + 1 < 4 {
                    b.add_two_way(at(r, c), at(r, c + 1), RoadClass::Street, Some(1000.0));
                }
                if r + 1 < 4 {
                    b.add_two_way(at(r, c), at(r + 1, c), RoadClass::Street, Some(1000.0));
                }
            }
        }
        // One-way diagonal-ish shortcut 0 -> 5 (shorter than the 2km grid path).
        b.add_edge(at(0, 0), at(1, 1), RoadClass::Avenue, Some(1400.0));
        b.build()
    }

    #[test]
    fn straight_line_path() {
        let g = lattice();
        let sp = ShortestPaths::driving(&g);
        let p = sp.path(NodeId(0), NodeId(3)).unwrap();
        assert_eq!(p.dist_m, 3000.0);
        assert_eq!(p.nodes, vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)]);
    }

    #[test]
    fn one_way_shortcut_used_forward_only() {
        let g = lattice();
        let sp = ShortestPaths::driving(&g);
        // 0 -> 5: shortcut 1400 beats grid 2000.
        assert_eq!(sp.cost(NodeId(0), NodeId(5)).unwrap(), 1400.0);
        // 5 -> 0: shortcut unusable, grid path 2000.
        assert_eq!(sp.cost(NodeId(5), NodeId(0)).unwrap(), 2000.0);
    }

    #[test]
    fn walking_ignores_one_way() {
        let g = lattice();
        let sp = ShortestPaths::walking(&g);
        assert_eq!(sp.cost(NodeId(5), NodeId(0)).unwrap(), 1400.0);
    }

    #[test]
    fn reverse_direction_swaps_endpoints() {
        let g = lattice();
        let fwd = ShortestPaths::driving(&g);
        let rev = ShortestPaths::new(&g, CostMetric::Distance, Direction::Reverse);
        assert_eq!(
            rev.cost(NodeId(5), NodeId(0)),
            fwd.cost(NodeId(0), NodeId(5))
        );
    }

    #[test]
    fn time_metric_prefers_fast_roads() {
        let g = lattice();
        let sp = ShortestPaths::driving_time(&g);
        let p = sp.path(NodeId(0), NodeId(5)).unwrap();
        // Avenue shortcut: 1400m at 11 m/s ≈ 127 s; grid: 2000m at 8 m/s = 250 s.
        assert!((p.time_s - 1400.0 / 11.0).abs() < 1e-9);
        assert_eq!(p.dist_m, 1400.0);
    }

    #[test]
    fn unreachable_returns_none() {
        let mut b = RoadGraphBuilder::new();
        let a = b.add_node(GeoPoint::new(40.70, -74.00));
        let c = b.add_node(GeoPoint::new(40.71, -74.00));
        b.add_edge(a, c, RoadClass::Street, Some(10.0));
        let g = b.build();
        let sp = ShortestPaths::driving(&g);
        assert!(sp.path(c, a).is_none());
        assert!(sp.cost(c, a).is_none());
    }

    #[test]
    fn trivial_path_to_self() {
        let g = lattice();
        let sp = ShortestPaths::driving(&g);
        let p = sp.path(NodeId(7), NodeId(7)).unwrap();
        assert_eq!(p.dist_m, 0.0);
        assert_eq!(p.nodes, vec![NodeId(7)]);
    }

    #[test]
    fn bounded_from_respects_radius_and_order() {
        let g = lattice();
        let sp = ShortestPaths::driving(&g);
        let within = sp.bounded_from(NodeId(0), 2000.0);
        // Costs must be sorted non-decreasing and within bound.
        for w in within.windows(2) {
            assert!(w[0].1 <= w[1].1);
        }
        assert!(within.iter().all(|&(_, c)| c <= 2000.0));
        assert!(within.iter().any(|&(n, _)| n == NodeId(0)));
        // Node 3 is 3000m away: excluded.
        assert!(!within.iter().any(|&(n, _)| n == NodeId(3)));
        // Node 5 via shortcut at 1400: included.
        assert!(within.iter().any(|&(n, c)| n == NodeId(5) && c == 1400.0));
    }

    #[test]
    fn to_targets_matches_individual_paths() {
        let g = lattice();
        let sp = ShortestPaths::driving(&g);
        let targets = [NodeId(3), NodeId(15), NodeId(5)];
        let got = sp.to_targets(NodeId(0), &targets, f64::INFINITY);
        for (t, g2) in targets.iter().zip(&got) {
            assert_eq!(*g2, sp.cost(NodeId(0), *t));
        }
    }

    #[test]
    fn to_targets_bound_excludes_far_nodes() {
        let g = lattice();
        let sp = ShortestPaths::driving(&g);
        let got = sp.to_targets(NodeId(0), &[NodeId(15)], 1000.0);
        assert_eq!(got, vec![None]);
    }

    #[test]
    fn to_targets_handles_duplicates() {
        let g = lattice();
        let sp = ShortestPaths::driving(&g);
        let got = sp.to_targets(NodeId(0), &[NodeId(1), NodeId(1)], f64::INFINITY);
        assert_eq!(got, vec![Some(1000.0), Some(1000.0)]);
    }

    #[test]
    fn one_to_all_agrees_with_path() {
        let g = lattice();
        let sp = ShortestPaths::driving(&g);
        let all = sp.one_to_all(NodeId(0));
        for dst in 0..16u32 {
            assert_eq!(Some(all[dst as usize]), sp.cost(NodeId(0), NodeId(dst)));
        }
    }
}
