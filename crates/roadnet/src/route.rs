//! Concrete routes over the road graph.
//!
//! A [`Route`] is "the shortest route between the source and the
//! destination unless the user has explicitly specified an alternate
//! route" (§VI, ride entity 5): a way-point sequence with cumulative
//! distance and free-flow travel time, supporting the position-at-time
//! queries used by ride tracking and the splicing used by booking (new
//! via-points replace a segment of the old route with freshly computed
//! shortest paths, §VIII.B).

use xar_geo::GeoPoint;

use crate::graph::{NodeId, RoadGraph};
use crate::shortest_path::PathResult;

/// A route: a node path annotated with cumulative distance and time.
#[derive(Debug, Clone, PartialEq)]
pub struct Route {
    nodes: Vec<NodeId>,
    /// `cum_dist_m[i]` = metres from the start to `nodes[i]`.
    cum_dist_m: Vec<f64>,
    /// `cum_time_s[i]` = free-flow seconds from the start to `nodes[i]`.
    cum_time_s: Vec<f64>,
}

impl Route {
    /// Build a route from a node path, looking up each consecutive edge
    /// in `graph` (choosing the shortest parallel edge when several
    /// exist). Returns `None` if some consecutive pair is not connected
    /// by a forward edge, or the path is empty.
    pub fn from_path(graph: &RoadGraph, nodes: Vec<NodeId>) -> Option<Route> {
        if nodes.is_empty() {
            return None;
        }
        let mut cum_dist_m = Vec::with_capacity(nodes.len());
        let mut cum_time_s = Vec::with_capacity(nodes.len());
        cum_dist_m.push(0.0);
        cum_time_s.push(0.0);
        for w in nodes.windows(2) {
            let mut best: Option<(f64, f64)> = None;
            for e in graph.out_edges(w[0]) {
                if e.to == w[1] && best.is_none_or(|(d, _)| e.len_m < d) {
                    best = Some((e.len_m, e.travel_time_s()));
                }
            }
            let (d, t) = best?;
            cum_dist_m.push(cum_dist_m.last().unwrap() + d);
            cum_time_s.push(cum_time_s.last().unwrap() + t);
        }
        Some(Route {
            nodes,
            cum_dist_m,
            cum_time_s,
        })
    }

    /// Build a route from a [`PathResult`] produced by a forward
    /// shortest-path query.
    pub fn from_path_result(graph: &RoadGraph, p: &PathResult) -> Option<Route> {
        Self::from_path(graph, p.nodes.clone())
    }

    /// The way-point sequence.
    #[inline]
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// Number of way-points.
    #[inline]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the route has no way-points (never true for a
    /// successfully constructed route).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Total length in metres.
    #[inline]
    pub fn dist_m(&self) -> f64 {
        *self.cum_dist_m.last().expect("route is non-empty")
    }

    /// Total free-flow duration in seconds.
    #[inline]
    pub fn duration_s(&self) -> f64 {
        *self.cum_time_s.last().expect("route is non-empty")
    }

    /// Metres from the start to way-point `i`.
    #[inline]
    pub fn dist_at(&self, i: usize) -> f64 {
        self.cum_dist_m[i]
    }

    /// Seconds from the start to way-point `i`.
    #[inline]
    pub fn time_at(&self, i: usize) -> f64 {
        self.cum_time_s[i]
    }

    /// Distance in metres between way-points `i <= j`.
    pub fn dist_between(&self, i: usize, j: usize) -> f64 {
        assert!(i <= j, "dist_between requires i <= j, got {i} > {j}");
        self.cum_dist_m[j] - self.cum_dist_m[i]
    }

    /// Index of the last way-point reached at `elapsed_s` seconds after
    /// departure (clamped to the final way-point).
    pub fn index_at_time(&self, elapsed_s: f64) -> usize {
        if elapsed_s <= 0.0 {
            return 0;
        }
        // partition_point: first index with cum_time > elapsed.
        let idx = self.cum_time_s.partition_point(|&t| t <= elapsed_s);
        idx.saturating_sub(1)
    }

    /// Interpolated geographic position `elapsed_s` seconds after
    /// departure (clamped to the endpoints).
    pub fn position_at_time(&self, graph: &RoadGraph, elapsed_s: f64) -> GeoPoint {
        let i = self.index_at_time(elapsed_s);
        if i + 1 >= self.nodes.len() {
            return graph.point(*self.nodes.last().expect("non-empty"));
        }
        let t0 = self.cum_time_s[i];
        let t1 = self.cum_time_s[i + 1];
        let frac = if t1 > t0 {
            ((elapsed_s - t0) / (t1 - t0)).clamp(0.0, 1.0)
        } else {
            0.0
        };
        graph
            .point(self.nodes[i])
            .lerp(&graph.point(self.nodes[i + 1]), frac)
    }

    /// First index at which `node` appears, if any.
    pub fn position_of(&self, node: NodeId) -> Option<usize> {
        self.nodes.iter().position(|&n| n == node)
    }

    /// Replace the sub-route between way-point indices `from_idx` and
    /// `to_idx` (inclusive endpoints) with `replacement`, whose first and
    /// last way-points must equal `nodes[from_idx]` and `nodes[to_idx]`.
    ///
    /// This is the route-update step of booking (§VIII.B):
    /// [`Route::insert_stops`] joins the freshly computed shortest paths
    /// through the new via-points into one replacement and splices it
    /// over the old segment.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of range/order or the replacement
    /// endpoints do not match.
    pub fn splice(&self, from_idx: usize, to_idx: usize, replacement: &Route) -> Route {
        assert!(
            from_idx <= to_idx && to_idx < self.nodes.len(),
            "splice indices out of range"
        );
        assert_eq!(
            replacement.nodes.first(),
            Some(&self.nodes[from_idx]),
            "replacement must start at nodes[{from_idx}]"
        );
        assert_eq!(
            replacement.nodes.last(),
            Some(&self.nodes[to_idx]),
            "replacement must end at nodes[{to_idx}]"
        );
        let mut nodes =
            Vec::with_capacity(from_idx + replacement.len() + (self.nodes.len() - to_idx));
        let mut cum_d = Vec::with_capacity(nodes.capacity());
        let mut cum_t = Vec::with_capacity(nodes.capacity());
        // Prefix up to (and including) from_idx.
        nodes.extend_from_slice(&self.nodes[..=from_idx]);
        cum_d.extend_from_slice(&self.cum_dist_m[..=from_idx]);
        cum_t.extend_from_slice(&self.cum_time_s[..=from_idx]);
        // Replacement (skip its first point, already present).
        let d0 = self.cum_dist_m[from_idx];
        let t0 = self.cum_time_s[from_idx];
        for k in 1..replacement.len() {
            nodes.push(replacement.nodes[k]);
            cum_d.push(d0 + replacement.cum_dist_m[k]);
            cum_t.push(t0 + replacement.cum_time_s[k]);
        }
        // Suffix after to_idx, shifted by the length change.
        let new_d_at_to = d0 + replacement.dist_m();
        let new_t_at_to = t0 + replacement.duration_s();
        let dd = new_d_at_to - self.cum_dist_m[to_idx];
        let dt = new_t_at_to - self.cum_time_s[to_idx];
        for k in (to_idx + 1)..self.nodes.len() {
            nodes.push(self.nodes[k]);
            cum_d.push(self.cum_dist_m[k] + dd);
            cum_t.push(self.cum_time_s[k] + dt);
        }
        Route {
            nodes,
            cum_dist_m: cum_d,
            cum_time_s: cum_t,
        }
    }

    /// Route through `stops` in order, joining `leg(stops[k], stops[k+1])`
    /// for each consecutive pair. Returns the route and each stop's
    /// way-point index on it (the first is 0, the last `len() - 1`), or
    /// `None` as soon as a leg fails — later legs are not asked for.
    ///
    /// The legs are joined as a left fold of [`Route::concat`] would
    /// join them, so the cumulative arrays hold the same sums, bit for
    /// bit.
    ///
    /// # Panics
    ///
    /// Panics if there are fewer than two stops or a leg does not run
    /// from its first stop to its second.
    pub fn through(
        stops: &[NodeId],
        mut leg: impl FnMut(NodeId, NodeId) -> Option<Route>,
    ) -> Option<(Route, Vec<usize>)> {
        let mut leg = |a: NodeId, b: NodeId| {
            let l = leg(a, b)?;
            assert!(
                l.nodes.first() == Some(&a) && l.nodes.last() == Some(&b),
                "a leg must run from its first stop to its second"
            );
            Some(l)
        };
        // The first leg is the route as it came (its exact capacity);
        // the others are appended.
        let mut route = leg(stops[0], stops[1])?;
        let mut idx = Vec::with_capacity(stops.len());
        idx.extend([0, route.len() - 1]);
        for w in stops[1..].windows(2) {
            route.extend(&leg(w[0], w[1])?);
            idx.push(route.len() - 1);
        }
        Some((route, idx))
    }

    /// Insert `stops`, in order, into segment `seg` of a route whose
    /// segments are delimited by the ascending way-point indices `vias`
    /// — the booking primitive of §VIII.B. Only the changed legs are
    /// routed: `leg` is asked for `nodes[vias[seg]] → stops… →
    /// nodes[vias[seg + 1]]` and the result is spliced over the segment.
    ///
    /// Returns the new route and the new via list: `stops` sit at
    /// positions `seg + 1 ..= seg + stops.len()`, and every via after
    /// the segment's start is shifted by the length change *by list
    /// position* — a zero-length segment's start keeps its index while
    /// its end moves. `None` if a leg fails.
    pub fn insert_stops(
        &self,
        vias: &[usize],
        seg: usize,
        stops: &[NodeId],
        leg: impl FnMut(NodeId, NodeId) -> Option<Route>,
    ) -> Option<(Route, Vec<usize>)> {
        let (from, to) = (vias[seg], vias[seg + 1]);
        let mut path = Vec::with_capacity(stops.len() + 2);
        path.push(self.nodes[from]);
        path.extend_from_slice(stops);
        path.push(self.nodes[to]);
        let (replacement, at) = Route::through(&path, leg)?;
        let route = self.splice(from, to, &replacement);
        // The segment's end moves from `to` to `end`; so does every
        // later via.
        let end = from + replacement.len() - 1;
        let mut new_vias = Vec::with_capacity(vias.len() + stops.len());
        new_vias.extend_from_slice(&vias[..=seg]);
        new_vias.extend(at[1..].iter().map(|&k| from + k));
        new_vias.extend(vias[seg + 2..].iter().map(|&v| end + (v - to)));
        debug_assert!(
            new_vias.windows(2).all(|w| w[0] <= w[1]),
            "stops out of order"
        );
        Some((route, new_vias))
    }

    /// Join two routes where `self` ends at the node `other` starts at.
    ///
    /// # Panics
    ///
    /// Panics if the junction nodes differ.
    pub fn concat(&self, other: &Route) -> Route {
        let mut joined = self.clone();
        joined.extend(other);
        joined
    }

    /// Append `other` (minus its first way-point, which must equal this
    /// route's last) in place.
    fn extend(&mut self, other: &Route) {
        assert_eq!(
            self.nodes.last(),
            other.nodes.first(),
            "concat requires matching junction way-point"
        );
        let d0 = self.dist_m();
        let t0 = self.duration_s();
        self.nodes.extend_from_slice(&other.nodes[1..]);
        self.cum_dist_m
            .extend(other.cum_dist_m[1..].iter().map(|d| d0 + d));
        self.cum_time_s
            .extend(other.cum_time_s[1..].iter().map(|t| t0 + t));
    }

    /// Heap bytes held by this route (for index-size accounting).
    pub fn heap_bytes(&self) -> usize {
        self.nodes.capacity() * std::mem::size_of::<NodeId>()
            + self.cum_dist_m.capacity() * std::mem::size_of::<f64>()
            + self.cum_time_s.capacity() * std::mem::size_of::<f64>()
    }
}

/// The segment (between consecutive via way-points `vias`, ascending)
/// containing way-point `idx`. A way-point on a via boundary belongs to
/// the segment starting there, except the final via, which belongs to
/// the last segment.
pub fn segment_of(vias: &[usize], idx: usize) -> usize {
    debug_assert!(vias.len() >= 2, "a route has at least one segment");
    let pos = vias.partition_point(|&v| v <= idx);
    pos.saturating_sub(1).min(vias.len().saturating_sub(2))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{RoadClass, RoadGraphBuilder};
    use crate::shortest_path::ShortestPaths;

    /// Line graph 0-1-2-3-4 with 1 km street edges (two-way).
    fn line() -> RoadGraph {
        let mut b = RoadGraphBuilder::new();
        let ids: Vec<_> = (0..5)
            .map(|i| b.add_node(GeoPoint::new(40.70, -74.00 + 0.012 * i as f64)))
            .collect();
        for i in 1..5 {
            b.add_two_way(ids[i - 1], ids[i], RoadClass::Street, Some(1000.0));
        }
        b.build()
    }

    fn route(g: &RoadGraph, ids: &[u32]) -> Route {
        Route::from_path(g, ids.iter().map(|&i| NodeId(i)).collect()).unwrap()
    }

    #[test]
    fn cumulative_arrays() {
        let g = line();
        let r = route(&g, &[0, 1, 2, 3]);
        assert_eq!(r.dist_m(), 3000.0);
        assert_eq!(r.dist_at(2), 2000.0);
        assert_eq!(r.dist_between(1, 3), 2000.0);
        let t_edge = 1000.0 / RoadClass::Street.speed_mps();
        assert!((r.duration_s() - 3.0 * t_edge).abs() < 1e-9);
    }

    #[test]
    fn from_path_rejects_disconnected() {
        let g = line();
        assert!(Route::from_path(&g, vec![NodeId(0), NodeId(2)]).is_none());
        assert!(Route::from_path(&g, vec![]).is_none());
    }

    #[test]
    fn singleton_route() {
        let g = line();
        let r = route(&g, &[2]);
        assert_eq!(r.dist_m(), 0.0);
        assert_eq!(r.len(), 1);
        assert_eq!(r.position_at_time(&g, 100.0), g.point(NodeId(2)));
    }

    #[test]
    fn index_at_time_progresses() {
        let g = line();
        let r = route(&g, &[0, 1, 2, 3, 4]);
        let t_edge = 1000.0 / RoadClass::Street.speed_mps();
        assert_eq!(r.index_at_time(-5.0), 0);
        assert_eq!(r.index_at_time(0.0), 0);
        assert_eq!(r.index_at_time(t_edge * 0.5), 0);
        assert_eq!(r.index_at_time(t_edge * 1.5), 1);
        assert_eq!(r.index_at_time(t_edge * 4.0), 4);
        assert_eq!(r.index_at_time(t_edge * 100.0), 4);
    }

    #[test]
    fn position_at_time_interpolates() {
        let g = line();
        let r = route(&g, &[0, 1]);
        let half = r.duration_s() / 2.0;
        let p = r.position_at_time(&g, half);
        let expect = g.point(NodeId(0)).lerp(&g.point(NodeId(1)), 0.5);
        assert!(p.haversine_m(&expect) < 1.0);
    }

    #[test]
    fn splice_inserts_detour() {
        let g = line();
        let r = route(&g, &[0, 1, 2]);
        // Replace segment 1..2 with the detour 1 -> 0 -> 1 -> 2.
        let detour = route(&g, &[1, 0, 1, 2]);
        let s = r.splice(1, 2, &detour);
        assert_eq!(
            s.nodes(),
            &[NodeId(0), NodeId(1), NodeId(0), NodeId(1), NodeId(2)]
        );
        assert_eq!(s.dist_m(), 4000.0);
        // Cumulative arrays must stay consistent.
        assert_eq!(s.dist_at(4) - s.dist_at(3), 1000.0);
    }

    #[test]
    fn splice_identity() {
        let g = line();
        let r = route(&g, &[0, 1, 2, 3]);
        let seg = route(&g, &[1, 2]);
        let s = r.splice(1, 2, &seg);
        assert_eq!(s, r);
    }

    #[test]
    #[should_panic(expected = "replacement must start")]
    fn splice_mismatched_endpoint_panics() {
        let g = line();
        let r = route(&g, &[0, 1, 2]);
        let bad = route(&g, &[0, 1]);
        let _ = r.splice(1, 2, &bad);
    }

    #[test]
    fn concat_joins() {
        let g = line();
        let a = route(&g, &[0, 1, 2]);
        let b = route(&g, &[2, 3, 4]);
        let c = a.concat(&b);
        assert_eq!(c.len(), 5);
        assert_eq!(c.dist_m(), 4000.0);
    }

    /// A leg router over `g` that counts the legs it is asked for.
    fn legs<'a>(
        g: &'a RoadGraph,
        asked: &'a mut usize,
    ) -> impl FnMut(NodeId, NodeId) -> Option<Route> + 'a {
        let sp = ShortestPaths::driving(g);
        move |a, b| {
            *asked += 1;
            Route::from_path_result(g, &sp.path(a, b)?)
        }
    }

    fn ids(r: &Route) -> Vec<u32> {
        r.nodes().iter().map(|n| n.0).collect()
    }

    /// `insert_stops(vias, seg, stops)` on the line route 0-1-2-3-4,
    /// checked for node sequence, via list and leg count.
    fn check_insert(vias: &[usize], seg: usize, stops: &[u32], nodes: &[u32], want: &[usize]) {
        let g = line();
        let r = route(&g, &[0, 1, 2, 3, 4]);
        let stops: Vec<NodeId> = stops.iter().map(|&i| NodeId(i)).collect();
        let mut asked = 0;
        let (s, v) = r
            .insert_stops(vias, seg, &stops, legs(&g, &mut asked))
            .unwrap();
        assert_eq!(ids(&s), nodes);
        assert_eq!(v, want);
        assert_eq!(asked, stops.len() + 1, "only the changed legs are routed");
        for (&i, &n) in v[seg + 1..].iter().zip(&stops) {
            assert_eq!(s.nodes()[i], n, "stop {n:?} is at its via");
        }
        assert_eq!(*v.last().unwrap(), s.len() - 1);
    }

    #[test]
    fn insert_into_zero_length_first_segment() {
        check_insert(&[0, 0, 4], 0, &[1], &[0, 1, 0, 1, 2, 3, 4], &[0, 1, 2, 6]);
    }

    #[test]
    fn insert_into_zero_length_middle_segment_keeps_its_start() {
        // The segment [2, 2]: its start stays at 2 while its end moves.
        check_insert(
            &[0, 2, 2, 4],
            1,
            &[3],
            &[0, 1, 2, 3, 2, 3, 4],
            &[0, 2, 3, 4, 6],
        );
    }

    #[test]
    fn insert_into_zero_length_last_segment_keeps_its_start() {
        // A rule shifting every via at or after the segment's end index
        // would move the start 4 too and break the order.
        check_insert(&[0, 4, 4], 1, &[3], &[0, 1, 2, 3, 4, 3, 4], &[0, 4, 5, 6]);
    }

    #[test]
    fn insert_two_stops_into_one_segment() {
        check_insert(
            &[0, 4],
            0,
            &[3, 1],
            &[0, 1, 2, 3, 2, 1, 2, 3, 4],
            &[0, 3, 5, 8],
        );
    }

    #[test]
    fn insert_a_stop_on_the_route_adds_no_way_point() {
        check_insert(&[0, 2, 4], 1, &[3], &[0, 1, 2, 3, 4], &[0, 2, 3, 4]);
    }

    #[test]
    fn failing_leg_returns_none_and_asks_no_further() {
        let g = line();
        let r = route(&g, &[0, 1, 2, 3, 4]);
        let vias = vec![0, 2, 4];
        let (r0, v0) = (r.clone(), vias.clone());
        let mut asked = 0;
        let mut inner = legs(&g, &mut asked);
        // The second leg fails.
        let mut n = 0;
        let leg = |a, b| {
            n += 1;
            if n == 2 {
                None
            } else {
                inner(a, b)
            }
        };
        assert!(r
            .insert_stops(&vias, 0, &[NodeId(3), NodeId(0)], leg)
            .is_none());
        assert_eq!(n, 2, "the third leg is never asked for");
        assert_eq!((r, vias), (r0, v0));
        assert!(Route::through(&[NodeId(0), NodeId(1)], |_, _| None).is_none());
    }

    #[test]
    fn through_returns_each_stops_index() {
        let g = line();
        let mut asked = 0;
        let stops = [NodeId(0), NodeId(3), NodeId(1), NodeId(4)];
        let (r, idx) = Route::through(&stops, legs(&g, &mut asked)).unwrap();
        assert_eq!(ids(&r), [0, 1, 2, 3, 2, 1, 2, 3, 4]);
        assert_eq!(idx, [0, 3, 5, 8]);
        assert_eq!(asked, 3);
        assert_eq!(r.dist_m(), 8000.0);
    }

    /// `through` + `insert_stops` give the same bits as joining the legs
    /// with `concat` and splicing the join, on a city whose edge
    /// lengths are far from round numbers.
    #[test]
    fn insertion_is_bit_equal_to_concat_and_splice() {
        use crate::generators::CityConfig;
        let g = CityConfig::test_city(5).generate();
        let sp = ShortestPaths::driving(&g);
        let leg = |a: NodeId, b: NodeId| Route::from_path_result(&g, &sp.path(a, b)?);
        let n = g.node_count() as u32;
        let (src, dst) = (NodeId(0), NodeId(n - 1));
        let (p, q) = (NodeId(n / 3), NodeId(2 * n / 3));
        let bits = |r: &Route| -> Vec<(u32, u64, u64)> {
            (0..r.len())
                .map(|i| (r.nodes[i].0, r.dist_at(i).to_bits(), r.time_at(i).to_bits()))
                .collect()
        };

        let (base, idx) = Route::through(&[src, p, dst], leg).unwrap();
        let folded = leg(src, p).unwrap().concat(&leg(p, dst).unwrap());
        assert_eq!(bits(&base), bits(&folded));

        // Insert two stops into the second segment.
        let (from, to) = (idx[1], idx[2]);
        let (got, vias) = base.insert_stops(&idx, 1, &[q, src], leg).unwrap();
        let (a, b, c) = (
            leg(p, q).unwrap(),
            leg(q, src).unwrap(),
            leg(src, dst).unwrap(),
        );
        let want = base.splice(from, to, &a.concat(&b).concat(&c));
        assert_eq!(bits(&got), bits(&want));
        assert_eq!(vias[2], from + a.len() - 1);
        assert_eq!(vias[3], vias[2] + b.len() - 1);
        assert_eq!(vias[4], want.len() - 1);
    }

    #[test]
    fn segment_of_maps_boundaries_to_the_next_segment() {
        assert_eq!(segment_of(&[0, 9], 0), 0);
        assert_eq!(segment_of(&[0, 9], 9), 0);
        let vias = [0, 4, 9];
        assert_eq!(segment_of(&vias, 3), 0);
        assert_eq!(
            segment_of(&vias, 4),
            1,
            "a boundary starts the next segment"
        );
        assert_eq!(segment_of(&vias, 9), 1, "the final via stays in the last");
        // Zero-length segments: an index on a repeated via belongs to the
        // last segment starting there (clamped to the last segment).
        assert_eq!(segment_of(&[0, 4, 4, 9], 4), 2);
        assert_eq!(segment_of(&[0, 4, 9, 9], 9), 2);
    }

    #[test]
    fn route_from_shortest_path() {
        let g = line();
        let sp = ShortestPaths::driving(&g);
        let p = sp.path(NodeId(0), NodeId(4)).unwrap();
        let r = Route::from_path_result(&g, &p).unwrap();
        assert_eq!(r.dist_m(), p.dist_m);
        assert!((r.duration_s() - p.time_s).abs() < 1e-9);
    }
}
