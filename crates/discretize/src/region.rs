//! The complete pre-processing pipeline: the XAR "pre-processing unit"
//! of Figure 1, producing a [`RegionIndex`].
//!
//! The pipeline runs once per deployment region:
//!
//! 1. grid the region ([`xar_geo::GridSpec`], Definition 1);
//! 2. filter POIs into landmarks at least `f` apart (Definition 2);
//! 3. compute the inter-landmark driving-distance table;
//! 4. cluster the landmarks — GREEDYSEARCH for a target `δ`, or GREEDY
//!    with a fixed cluster count `C` (the Figure 3 sweeps);
//! 5. associate nodes/grids to landmarks within `Δ` and build the
//!    walkable-cluster lists within `W` (§IV);
//! 6. compute the cluster-to-cluster distance table (§VI).
//!
//! The resulting [`RegionIndex`] is everything the runtime unit
//! (`xar-core`) needs; no shortest path is ever computed during a
//! search against it.

use std::sync::Arc;

use xar_geo::{BoundingBox, GeoPoint, GridId, GridSpec};
use xar_roadnet::{NodeId, NodeLocator, Poi, RoadGraph, Router};

use crate::assoc::{NodeAssociation, WalkEntry};
use crate::cluster_distance::ClusterDistances;
use crate::greedy_search::{cluster_with_k, greedy_search, Clustering};
use crate::landmarks::{filter_landmarks, Landmark, LandmarkId};
use crate::metric::LandmarkMetric;

/// Identifier of a cluster; dense `0..k`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ClusterId(pub u32);

impl ClusterId {
    /// The cluster index as `usize`.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// How the clustering step chooses the number of clusters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ClusterGoal {
    /// Run GREEDYSEARCH for the given `δ` (metres): minimum clusters
    /// with the Theorem 6 guarantee `diameter ≤ 4δ`.
    Delta(f64),
    /// Run GREEDY with a fixed cluster count (the paper's `C = 500 …
    /// 5000` trade-off sweeps).
    FixedCount(usize),
}

/// Pre-processing parameters. Defaults follow the paper's experimental
/// setup (§X.A.3): 100 m grids, landmark separation pruning, ε = 1 km.
#[derive(Debug, Clone)]
pub struct RegionConfig {
    /// Grid cell side, metres (paper: 100 m).
    pub grid_cell_m: f64,
    /// Minimum landmark separation `f`, metres.
    pub landmark_separation_m: f64,
    /// Clustering goal (δ or fixed count). `Delta(250.0)` gives the
    /// paper's ε = 4δ = 1 km worst-case guarantee.
    pub cluster_goal: ClusterGoal,
    /// Maximum driving distance `Δ` for grid → landmark association.
    pub assoc_drive_m: f64,
    /// System-wide maximum walking distance `W`, metres.
    pub max_walk_m: f64,
    /// Bound for the cluster-distance table; distances beyond it are
    /// stored as unreachable. Should be at least the largest detour
    /// limit plus the largest cluster diameter the system will see.
    pub cluster_distance_bound_m: f64,
}

impl Default for RegionConfig {
    fn default() -> Self {
        Self {
            grid_cell_m: 100.0,
            landmark_separation_m: 200.0,
            cluster_goal: ClusterGoal::Delta(250.0),
            assoc_drive_m: 1_000.0,
            max_walk_m: 1_000.0,
            cluster_distance_bound_m: 8_000.0,
        }
    }
}

/// The frozen pre-processing output: the three-tier discretization plus
/// every derived table the runtime consults.
pub struct RegionIndex {
    pub(crate) graph: Arc<RoadGraph>,
    pub(crate) grid: GridSpec,
    /// Tier 1 as the paper stores it: the way-point each grid cell
    /// stands for (nearest to its centroid), at `row * cols + col` — a
    /// constant of the cell, so [`Self::snap`] is one read. Derived from
    /// the graph and the grid: rebuilt on load, not persisted.
    pub(crate) cell_node: Vec<NodeId>,
    pub(crate) locator: NodeLocator,
    /// Point-to-point router over `graph` for ride creation and
    /// booking. Derived from the graph alone, so it is rebuilt on load
    /// (like `grid` and `locator`) instead of being persisted.
    pub(crate) router: Router,
    pub(crate) landmarks: Vec<Landmark>,
    pub(crate) cluster_of: Vec<ClusterId>,
    pub(crate) members: Vec<Vec<LandmarkId>>,
    pub(crate) assoc: NodeAssociation,
    pub(crate) cluster_dist: ClusterDistances,
    /// Achieved maximum intra-cluster (symmetrized driving) diameter —
    /// the realised ε of the deployment.
    pub(crate) epsilon_m: f64,
    pub(crate) config: RegionConfig,
}

impl RegionIndex {
    /// Run the full pipeline.
    ///
    /// # Panics
    ///
    /// Panics if the graph is empty or no landmark survives filtering.
    pub fn build(graph: Arc<RoadGraph>, pois: &[Poi], config: RegionConfig) -> Self {
        assert!(graph.node_count() > 0, "empty road graph");
        let bbox = BoundingBox::from_points(graph.node_ids().map(|n| graph.point(n)))
            .expect("non-empty graph")
            .expanded(1e-3);
        let grid = GridSpec::new(bbox, config.grid_cell_m);
        let locator = NodeLocator::new(&graph, config.grid_cell_m);
        let router = Router::new(Arc::clone(&graph));

        let landmarks = filter_landmarks(&graph, pois, config.landmark_separation_m);
        assert!(!landmarks.is_empty(), "no landmarks survived filtering");

        let metric = LandmarkMetric::compute(&graph, &landmarks);
        let clustering: Clustering = match config.cluster_goal {
            ClusterGoal::Delta(delta) => greedy_search(&metric, delta).clustering,
            ClusterGoal::FixedCount(k) => cluster_with_k(&metric, k),
        };
        let k = clustering.k;
        let cluster_of: Vec<ClusterId> = clustering
            .assignment
            .iter()
            .map(|&a| ClusterId(a as u32))
            .collect();
        let mut members = vec![Vec::new(); k];
        for (l, &c) in cluster_of.iter().enumerate() {
            members[c.index()].push(LandmarkId(l as u32));
        }
        let epsilon_m = clustering.max_diameter(&metric);

        let assoc = NodeAssociation::build(
            &graph,
            &landmarks,
            &cluster_of,
            config.assoc_drive_m,
            config.max_walk_m,
        );
        let cluster_dist =
            ClusterDistances::from_metric(&metric, &cluster_of, k, config.cluster_distance_bound_m);

        // Last: beneath the build's temporaries it would pin their memory.
        let cell_node = cell_nodes(&grid, &locator, &graph);
        Self {
            graph,
            grid,
            cell_node,
            locator,
            router,
            landmarks,
            cluster_of,
            members,
            assoc,
            cluster_dist,
            epsilon_m,
            config,
        }
    }

    /// The road graph the index was built over.
    #[inline]
    pub fn graph(&self) -> &Arc<RoadGraph> {
        &self.graph
    }

    /// The exact point-to-point driving router over [`Self::graph`] —
    /// what ride creation and booking compute their shortest paths
    /// with. Search never touches it.
    #[inline]
    pub fn router(&self) -> &Router {
        &self.router
    }

    /// The implicit grid.
    #[inline]
    pub fn grid(&self) -> &GridSpec {
        &self.grid
    }

    /// The pre-processing configuration.
    #[inline]
    pub fn config(&self) -> &RegionConfig {
        &self.config
    }

    /// Number of clusters `C`.
    #[inline]
    pub fn cluster_count(&self) -> usize {
        self.members.len()
    }

    /// Number of landmarks.
    #[inline]
    pub fn landmark_count(&self) -> usize {
        self.landmarks.len()
    }

    /// The achieved worst-case intra-cluster driving distance ε — the
    /// quantity the Figure 3 trade-off plots sweep.
    #[inline]
    pub fn epsilon_m(&self) -> f64 {
        self.epsilon_m
    }

    /// All landmarks.
    #[inline]
    pub fn landmarks(&self) -> &[Landmark] {
        &self.landmarks
    }

    /// The landmark with id `l`.
    #[inline]
    pub fn landmark(&self, l: LandmarkId) -> &Landmark {
        &self.landmarks[l.index()]
    }

    /// The cluster a landmark belongs to.
    #[inline]
    pub fn cluster_of_landmark(&self, l: LandmarkId) -> ClusterId {
        self.cluster_of[l.index()]
    }

    /// The member landmarks of a cluster.
    #[inline]
    pub fn cluster_members(&self, c: ClusterId) -> &[LandmarkId] {
        &self.members[c.index()]
    }

    /// Map a point location to its grid cell (Definition 1's unique
    /// total mapping).
    #[inline]
    pub fn grid_of(&self, p: &GeoPoint) -> GridId {
        self.grid.grid_of(p)
    }

    /// Snap a point location to the road network: nearest way-point to
    /// the centroid of the point's grid cell (grids are identified by
    /// their centroids, §IV) — "identify the grid", then one table
    /// read. Total: `grid_of` clamps any point, NaN included, to a cell.
    #[inline]
    pub fn snap(&self, p: &GeoPoint) -> NodeId {
        let cell = self.grid.grid_of(p);
        self.cell_node[cell.row as usize * self.grid.cols() as usize + cell.col as usize]
    }

    /// Snap a point directly to the nearest way-point (no grid
    /// quantization) — used where exact endpoints matter (ride offers).
    pub fn snap_exact(&self, p: &GeoPoint) -> NodeId {
        self.locator.nearest(&self.graph, p).0
    }

    /// The landmark associated with a node (within `Δ`), with the
    /// driving distance to it.
    #[inline]
    pub fn landmark_of_node(&self, n: NodeId) -> Option<(LandmarkId, f32)> {
        self.assoc.landmark_of[n.index()]
    }

    /// The cluster a node belongs to via its associated landmark.
    #[inline]
    pub fn cluster_of_node(&self, n: NodeId) -> Option<ClusterId> {
        self.landmark_of_node(n)
            .map(|(l, _)| self.cluster_of_landmark(l))
    }

    /// Walkable clusters of a node, pruned to a per-request walking
    /// limit (sorted by walking distance).
    #[inline]
    pub fn walkable_within(&self, n: NodeId, walk_limit_m: f64) -> &[WalkEntry] {
        self.assoc.walkable_within(n, walk_limit_m)
    }

    /// Directed cluster-to-cluster driving distance (closest landmark
    /// pair); `INFINITY` when unknown/beyond the configured bound.
    #[inline]
    pub fn cluster_distance(&self, a: ClusterId, b: ClusterId) -> f64 {
        self.cluster_dist.dist(a, b)
    }

    /// [`Self::cluster_distance`] from `a` to every cluster, indexed by
    /// destination cluster id: one contiguous row of the table, for
    /// callers that sweep all clusters (the reachable-cluster scan).
    #[inline]
    pub fn cluster_distances_from(&self, a: ClusterId) -> &[f32] {
        self.cluster_dist.row(a)
    }

    /// [`Self::cluster_distance`] from every cluster to `b`, in
    /// source-cluster-id order (a strided column: copy it once when it
    /// is swept repeatedly).
    #[inline]
    pub fn cluster_distances_to(&self, b: ClusterId) -> impl Iterator<Item = f32> + '_ {
        self.cluster_dist.column(b)
    }

    /// Heap bytes of the discretization tables (grid table, landmarks,
    /// associations, cluster distances) — the static part of Figure
    /// 3c's index size. The routing substrate is not part of that index
    /// and is not counted here: neither the road graph and its node
    /// locator nor the router's landmark table ([`Router::heap_bytes`]).
    pub fn heap_bytes(&self) -> usize {
        self.cell_node.capacity() * std::mem::size_of::<NodeId>()
            + self.landmarks.capacity() * std::mem::size_of::<Landmark>()
            + self.cluster_of.capacity() * std::mem::size_of::<ClusterId>()
            + self.members.capacity() * std::mem::size_of::<Vec<LandmarkId>>()
            + self
                .members
                .iter()
                .map(|m| m.capacity() * std::mem::size_of::<LandmarkId>())
                .sum::<usize>()
            + self.assoc.heap_bytes()
            + self.cluster_dist.heap_bytes()
    }
}

/// The grid → way-point table: for every cell, row-major, the way-point
/// nearest to its centroid. Sized exactly (4 B per cell).
pub(crate) fn cell_nodes(grid: &GridSpec, locator: &NodeLocator, graph: &RoadGraph) -> Vec<NodeId> {
    let mut table = Vec::with_capacity(grid.cell_count() as usize);
    table.extend(
        grid.iter_cells()
            .map(|cell| locator.nearest(graph, &grid.centroid(cell)).0),
    );
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use xar_roadnet::{sample_pois, CityConfig, PoiConfig};

    fn build_region(goal: ClusterGoal) -> RegionIndex {
        let graph = Arc::new(CityConfig::test_city(21).generate());
        let pois = sample_pois(
            &graph,
            &PoiConfig {
                count: 500,
                ..Default::default()
            },
        );
        let config = RegionConfig {
            landmark_separation_m: 250.0,
            cluster_goal: goal,
            ..Default::default()
        };
        RegionIndex::build(graph, &pois, config)
    }

    #[test]
    fn pipeline_produces_consistent_tiers() {
        let r = build_region(ClusterGoal::Delta(300.0));
        assert!(r.landmark_count() > 5);
        assert!(r.cluster_count() >= 1);
        assert!(r.cluster_count() <= r.landmark_count());
        // Every landmark in exactly one cluster; members lists agree.
        let mut seen = vec![false; r.landmark_count()];
        for c in 0..r.cluster_count() {
            for &l in r.cluster_members(ClusterId(c as u32)) {
                assert!(!seen[l.index()], "landmark {l:?} in two clusters");
                seen[l.index()] = true;
                assert_eq!(r.cluster_of_landmark(l), ClusterId(c as u32));
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn epsilon_respects_theorem6() {
        let delta = 300.0;
        let r = build_region(ClusterGoal::Delta(delta));
        assert!(
            r.epsilon_m() <= 4.0 * delta + 1e-6,
            "epsilon {} exceeds 4δ = {}",
            r.epsilon_m(),
            4.0 * delta
        );
    }

    #[test]
    fn fixed_count_goal_is_respected() {
        let r = build_region(ClusterGoal::FixedCount(4));
        assert_eq!(r.cluster_count(), 4);
    }

    #[test]
    fn snapping_is_total() {
        let r = build_region(ClusterGoal::Delta(300.0));
        let bbox = *r.grid().bbox();
        let p = bbox.center();
        let n = r.snap(&p);
        assert!(n.index() < r.graph().node_count());
        let n2 = r.snap_exact(&p);
        assert!(n2.index() < r.graph().node_count());
    }

    #[test]
    fn landmark_nodes_map_to_own_cluster() {
        let r = build_region(ClusterGoal::Delta(300.0));
        for lm in r.landmarks() {
            let c = r
                .cluster_of_node(lm.node)
                .expect("landmark node associated");
            // The node association may pick a co-located closer
            // landmark, but at distance 0 it must be a landmark of some
            // cluster; for the landmark's own node its distance is 0 so
            // the cluster is that of a 0-distance landmark.
            let (l, d) = r.landmark_of_node(lm.node).unwrap();
            assert_eq!(d, 0.0);
            assert_eq!(c, r.cluster_of_landmark(l));
        }
    }

    #[test]
    fn cluster_distance_diagonal_zero() {
        let r = build_region(ClusterGoal::Delta(300.0));
        for c in 0..r.cluster_count() as u32 {
            assert_eq!(r.cluster_distance(ClusterId(c), ClusterId(c)), 0.0);
        }
    }

    #[test]
    fn more_clusters_means_smaller_epsilon() {
        // The Figure 3b relationship: C up, ε down (weakly).
        let few = build_region(ClusterGoal::FixedCount(3));
        let many = build_region(ClusterGoal::FixedCount(12));
        assert!(
            many.epsilon_m() <= few.epsilon_m() + 1e-6,
            "C=12 ε {} > C=3 ε {}",
            many.epsilon_m(),
            few.epsilon_m()
        );
    }

    #[test]
    fn heap_bytes_positive_and_grows_with_clusters() {
        let few = build_region(ClusterGoal::FixedCount(3));
        let many = build_region(ClusterGoal::FixedCount(12));
        assert!(few.heap_bytes() > 0);
        // Cluster-distance table is k^2: more clusters, more bytes there.
        assert!(many.heap_bytes() + 1000 > few.heap_bytes());
    }
}
