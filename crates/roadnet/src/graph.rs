//! Compact directed road graph.
//!
//! Nodes are way-points with geographic coordinates; edges are directed
//! road segments with a length and a free-flow speed derived from their
//! [`RoadClass`]. The graph is built with a [`RoadGraphBuilder`] and
//! frozen into a CSR (compressed sparse row) [`RoadGraph`] that stores
//! both the forward and the reverse adjacency, so that forward,
//! reverse and undirected traversals are all cache-friendly.

use xar_geo::GeoPoint;

/// Index of a node (way-point) in the road graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The node index as a `usize`, for slice indexing.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Index of a directed edge in the road graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EdgeId(pub u32);

impl EdgeId {
    /// The edge index as a `usize`, for slice indexing.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Functional class of a road segment, determining its free-flow speed.
///
/// The synthetic Manhattan generator uses `Avenue` for the fast
/// north-south axes and `Street` for the slower cross streets, mirroring
/// the speed heterogeneity of the real NYC network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RoadClass {
    /// Grade-separated highway (fastest).
    Highway,
    /// Major urban artery (e.g. a Manhattan avenue).
    Avenue,
    /// Regular city street.
    Street,
    /// Narrow lane or service road (slowest).
    Lane,
}

impl RoadClass {
    /// Free-flow driving speed for this class, in m/s.
    pub fn speed_mps(self) -> f64 {
        match self {
            RoadClass::Highway => 22.0, // ~80 km/h
            RoadClass::Avenue => 11.0,  // ~40 km/h
            RoadClass::Street => 8.0,   // ~29 km/h
            RoadClass::Lane => 4.5,     // ~16 km/h
        }
    }
}

/// A node of the road graph: a way-point with a location.
#[derive(Debug, Clone, Copy)]
pub struct Node {
    /// Geographic position of the way-point.
    pub point: GeoPoint,
}

/// A directed edge of the road graph.
#[derive(Debug, Clone, Copy)]
pub struct Edge {
    /// Tail node.
    pub from: NodeId,
    /// Head node.
    pub to: NodeId,
    /// Length along the road, in metres.
    pub len_m: f64,
    /// Functional class, fixing the free-flow speed.
    pub class: RoadClass,
}

impl Edge {
    /// Free-flow traversal time of the edge, in seconds.
    #[inline]
    pub fn travel_time_s(&self) -> f64 {
        self.len_m / self.class.speed_mps()
    }
}

/// Incremental builder for a [`RoadGraph`].
#[derive(Debug, Default)]
pub struct RoadGraphBuilder {
    nodes: Vec<Node>,
    edges: Vec<Edge>,
}

impl RoadGraphBuilder {
    /// Create an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create a builder with pre-allocated capacity.
    pub fn with_capacity(nodes: usize, edges: usize) -> Self {
        Self {
            nodes: Vec::with_capacity(nodes),
            edges: Vec::with_capacity(edges),
        }
    }

    /// Add a node and return its id.
    pub fn add_node(&mut self, point: GeoPoint) -> NodeId {
        let id = NodeId(u32::try_from(self.nodes.len()).expect("node count exceeds u32"));
        self.nodes.push(Node { point });
        id
    }

    /// Add a one-way edge from `from` to `to`. The length defaults to
    /// the great-circle distance between the endpoints; pass
    /// `Some(len_m)` to override (e.g. for curved roads).
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is out of range or the length is not
    /// positive.
    pub fn add_edge(
        &mut self,
        from: NodeId,
        to: NodeId,
        class: RoadClass,
        len_m: Option<f64>,
    ) -> EdgeId {
        assert!(
            from.index() < self.nodes.len(),
            "edge tail {from:?} out of range"
        );
        assert!(
            to.index() < self.nodes.len(),
            "edge head {to:?} out of range"
        );
        let len = len_m.unwrap_or_else(|| {
            self.nodes[from.index()]
                .point
                .haversine_m(&self.nodes[to.index()].point)
        });
        assert!(
            len.is_finite() && len > 0.0,
            "edge length must be positive, got {len}"
        );
        let id = EdgeId(u32::try_from(self.edges.len()).expect("edge count exceeds u32"));
        self.edges.push(Edge {
            from,
            to,
            len_m: len,
            class,
        });
        id
    }

    /// Add a pair of opposite one-way edges (a two-way road).
    pub fn add_two_way(
        &mut self,
        a: NodeId,
        b: NodeId,
        class: RoadClass,
        len_m: Option<f64>,
    ) -> (EdgeId, EdgeId) {
        (
            self.add_edge(a, b, class, len_m),
            self.add_edge(b, a, class, len_m),
        )
    }

    /// Number of nodes added so far.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges added so far.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Freeze into an immutable CSR graph.
    pub fn build(self) -> RoadGraph {
        RoadGraph::from_parts(self.nodes, self.edges)
    }
}

/// An immutable road graph in CSR form, with both forward and reverse
/// adjacency.
#[derive(Debug, Clone)]
pub struct RoadGraph {
    nodes: Vec<Node>,
    edges: Vec<Edge>,
    /// CSR offsets into `out_edges` per node (len = nodes + 1).
    out_offsets: Vec<u32>,
    /// Edge ids sorted by tail node.
    out_edges: Vec<EdgeId>,
    /// CSR offsets into `in_edges` per node (len = nodes + 1).
    in_offsets: Vec<u32>,
    /// Edge ids sorted by head node.
    in_edges: Vec<EdgeId>,
    /// Lightest positive and heaviest edge length in metres
    /// (`(INFINITY, 0)` without edges).
    pub(crate) len_range_m: (f64, f64),
    /// Lightest positive and heaviest free-flow edge time in seconds
    /// (`(INFINITY, 0)` without edges).
    pub(crate) time_range_s: (f64, f64),
}

/// The lightest positive and the heaviest of `costs`.
fn cost_range(costs: impl Iterator<Item = f64>) -> (f64, f64) {
    costs.fold((f64::INFINITY, 0.0f64), |(lo, hi), w| {
        (if w > 0.0 { lo.min(w) } else { lo }, hi.max(w))
    })
}

impl RoadGraph {
    fn from_parts(nodes: Vec<Node>, edges: Vec<Edge>) -> Self {
        let n = nodes.len();
        let mut out_counts = vec![0u32; n + 1];
        let mut in_counts = vec![0u32; n + 1];
        for e in &edges {
            out_counts[e.from.index() + 1] += 1;
            in_counts[e.to.index() + 1] += 1;
        }
        for i in 0..n {
            out_counts[i + 1] += out_counts[i];
            in_counts[i + 1] += in_counts[i];
        }
        let mut out_edges = vec![EdgeId(0); edges.len()];
        let mut in_edges = vec![EdgeId(0); edges.len()];
        let mut out_cursor = out_counts.clone();
        let mut in_cursor = in_counts.clone();
        for (i, e) in edges.iter().enumerate() {
            let id = EdgeId(i as u32);
            out_edges[out_cursor[e.from.index()] as usize] = id;
            out_cursor[e.from.index()] += 1;
            in_edges[in_cursor[e.to.index()] as usize] = id;
            in_cursor[e.to.index()] += 1;
        }
        Self {
            len_range_m: cost_range(edges.iter().map(|e| e.len_m)),
            time_range_s: cost_range(edges.iter().map(Edge::travel_time_s)),
            nodes,
            edges,
            out_offsets: out_counts,
            out_edges,
            in_offsets: in_counts,
            in_edges,
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of directed edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// The node with id `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[inline]
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// The location of node `id`.
    #[inline]
    pub fn point(&self, id: NodeId) -> GeoPoint {
        self.nodes[id.index()].point
    }

    /// The edge with id `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[inline]
    pub fn edge(&self, id: EdgeId) -> &Edge {
        &self.edges[id.index()]
    }

    /// Iterate over all node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// Iterate over all edges.
    pub fn edges(&self) -> impl Iterator<Item = &Edge> + '_ {
        self.edges.iter()
    }

    /// The edges leaving `node`.
    #[inline]
    pub fn out_edges(&self, node: NodeId) -> impl Iterator<Item = &Edge> + '_ {
        let lo = self.out_offsets[node.index()] as usize;
        let hi = self.out_offsets[node.index() + 1] as usize;
        self.out_edges[lo..hi]
            .iter()
            .map(move |&e| &self.edges[e.index()])
    }

    /// The edges entering `node`.
    #[inline]
    pub fn in_edges(&self, node: NodeId) -> impl Iterator<Item = &Edge> + '_ {
        let lo = self.in_offsets[node.index()] as usize;
        let hi = self.in_offsets[node.index() + 1] as usize;
        self.in_edges[lo..hi]
            .iter()
            .map(move |&e| &self.edges[e.index()])
    }

    /// Out-degree of `node`.
    #[inline]
    pub fn out_degree(&self, node: NodeId) -> usize {
        (self.out_offsets[node.index() + 1] - self.out_offsets[node.index()]) as usize
    }

    /// Total length of all edges in metres (each direction of a two-way
    /// road counted separately).
    pub fn total_edge_length_m(&self) -> f64 {
        self.edges.iter().map(|e| e.len_m).sum()
    }

    /// Find the directed edge from `from` to `to`, if any.
    pub fn find_edge(&self, from: NodeId, to: NodeId) -> Option<&Edge> {
        self.out_edges(from).find(|e| e.to == to)
    }

    /// Build a new graph containing only the nodes for which `keep` is
    /// true (and the edges between them). Returns the new graph and, for
    /// each old node id, its new id (or `None` if dropped).
    ///
    /// Used by the generators to restrict a city to its largest strongly
    /// connected component.
    pub fn subgraph(&self, keep: &[bool]) -> (RoadGraph, Vec<Option<NodeId>>) {
        assert_eq!(keep.len(), self.nodes.len(), "keep mask length mismatch");
        let mut mapping = vec![None; self.nodes.len()];
        let mut nodes = Vec::new();
        for (i, k) in keep.iter().enumerate() {
            if *k {
                mapping[i] = Some(NodeId(nodes.len() as u32));
                nodes.push(self.nodes[i]);
            }
        }
        let mut edges = Vec::new();
        for e in &self.edges {
            if let (Some(f), Some(t)) = (mapping[e.from.index()], mapping[e.to.index()]) {
                edges.push(Edge {
                    from: f,
                    to: t,
                    ..*e
                });
            }
        }
        (RoadGraph::from_parts(nodes, edges), mapping)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> RoadGraph {
        // a -> b -> c -> a, plus two-way a <-> c.
        let mut b = RoadGraphBuilder::new();
        let a = b.add_node(GeoPoint::new(40.70, -74.00));
        let bb = b.add_node(GeoPoint::new(40.71, -74.00));
        let c = b.add_node(GeoPoint::new(40.71, -73.99));
        b.add_edge(a, bb, RoadClass::Street, None);
        b.add_edge(bb, c, RoadClass::Street, None);
        b.add_edge(c, a, RoadClass::Avenue, None);
        b.add_two_way(a, c, RoadClass::Lane, Some(2_000.0));
        b.build()
    }

    #[test]
    fn counts() {
        let g = triangle();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 5);
    }

    #[test]
    fn out_and_in_edges_are_consistent() {
        let g = triangle();
        let a = NodeId(0);
        let out: Vec<_> = g.out_edges(a).map(|e| e.to).collect();
        assert!(out.contains(&NodeId(1)));
        assert!(out.contains(&NodeId(2)));
        assert_eq!(out.len(), 2);
        let inc: Vec<_> = g.in_edges(a).map(|e| e.from).collect();
        assert_eq!(inc, vec![NodeId(2), NodeId(2)]); // c->a street + c->a lane
    }

    #[test]
    fn default_edge_length_is_haversine() {
        let g = triangle();
        let e = g.find_edge(NodeId(0), NodeId(1)).unwrap();
        let d = g.point(NodeId(0)).haversine_m(&g.point(NodeId(1)));
        assert!((e.len_m - d).abs() < 1e-9);
    }

    #[test]
    fn explicit_edge_length_is_respected() {
        let g = triangle();
        let lane = g
            .out_edges(NodeId(0))
            .find(|e| e.class == RoadClass::Lane)
            .unwrap();
        assert_eq!(lane.len_m, 2_000.0);
    }

    #[test]
    fn travel_time_uses_class_speed() {
        let e = Edge {
            from: NodeId(0),
            to: NodeId(1),
            len_m: 110.0,
            class: RoadClass::Avenue,
        };
        assert!((e.travel_time_s() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn speeds_are_ordered_by_class() {
        assert!(RoadClass::Highway.speed_mps() > RoadClass::Avenue.speed_mps());
        assert!(RoadClass::Avenue.speed_mps() > RoadClass::Street.speed_mps());
        assert!(RoadClass::Street.speed_mps() > RoadClass::Lane.speed_mps());
    }

    #[test]
    fn subgraph_drops_nodes_and_their_edges() {
        let g = triangle();
        let (sub, map) = g.subgraph(&[true, false, true]);
        assert_eq!(sub.node_count(), 2);
        assert!(map[1].is_none());
        // Only a<->c edges survive (street c->a + two-way lane).
        assert_eq!(sub.edge_count(), 3);
        let new_a = map[0].unwrap();
        let new_c = map[2].unwrap();
        assert!(sub.find_edge(new_c, new_a).is_some());
        assert!(sub.find_edge(new_a, new_c).is_some());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn dangling_edge_panics() {
        let mut b = RoadGraphBuilder::new();
        let a = b.add_node(GeoPoint::new(40.70, -74.00));
        b.add_edge(a, NodeId(7), RoadClass::Street, Some(1.0));
    }

    #[test]
    fn find_edge_absent_is_none() {
        let g = triangle();
        assert!(g.find_edge(NodeId(1), NodeId(0)).is_none());
    }
}
