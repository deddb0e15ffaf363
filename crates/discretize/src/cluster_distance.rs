//! Cluster-to-cluster distance table (paper §VI).
//!
//! > *"Note that the distance between clusters is determined by the
//! > distance between the closest pair of landmarks belonging to the two
//! > clusters, respectively."*
//!
//! The table is the workhorse of the search-time detour check
//! (`d(C,C') + d(C',v) − d(C,v) ≤ detour`), which is what lets XAR avoid
//! shortest-path computation entirely during search. It is computed with
//! one *multi-source* forward Dijkstra per cluster (all the cluster's
//! landmark way-points seeded at distance 0), parallelised across
//! clusters. Driving distances over one-way streets are asymmetric, so
//! the table is stored directed.

use std::collections::BinaryHeap;

use crate::landmarks::Landmark;
use crate::region::ClusterId;
use xar_roadnet::{HeapEntry, RoadGraph};

/// Dense directed cluster-to-cluster driving distances, metres.
#[derive(Debug, Clone)]
pub struct ClusterDistances {
    k: usize,
    /// Row-major `k x k`; `f32::INFINITY` when unreachable or beyond the
    /// computation bound.
    dist: Vec<f32>,
}

impl ClusterDistances {
    /// Compute the table.
    ///
    /// * `cluster_of[l]` maps landmark index → cluster.
    /// * `k` is the number of clusters.
    /// * `max_dist_m` bounds each search; distances beyond it are
    ///   recorded as `INFINITY`. Pass `f64::INFINITY` for the full
    ///   table (the ride logic only ever consults distances up to the
    ///   maximum detour, so a finite bound saves pre-processing time
    ///   without changing behaviour).
    pub fn compute(
        graph: &RoadGraph,
        landmarks: &[Landmark],
        cluster_of: &[ClusterId],
        k: usize,
        max_dist_m: f64,
    ) -> Self {
        assert_eq!(
            landmarks.len(),
            cluster_of.len(),
            "one cluster per landmark"
        );
        let n_nodes = graph.node_count();
        // node -> cluster of the landmark snapped there (for target
        // detection); a node can host landmarks of several clusters if
        // snaps collide, so keep a small list.
        let mut clusters_at_node: Vec<Vec<u32>> = vec![Vec::new(); n_nodes];
        for lm in landmarks {
            let c = cluster_of[lm.id.index()].0;
            if !clusters_at_node[lm.node.index()].contains(&c) {
                clusters_at_node[lm.node.index()].push(c);
            }
        }
        // Sources per cluster.
        let mut sources: Vec<Vec<u32>> = vec![Vec::new(); k];
        for lm in landmarks {
            sources[cluster_of[lm.id.index()].index()].push(lm.node.0);
        }

        let mut dist = vec![f32::INFINITY; k * k];
        if k == 0 {
            return Self { k, dist };
        }
        let threads = std::thread::available_parallelism()
            .map_or(4, |p| p.get())
            .min(k);
        let chunk = k.div_ceil(threads);
        std::thread::scope(|scope| {
            for (t, rows) in dist.chunks_mut(chunk * k).enumerate() {
                let sources = &sources;
                let clusters_at_node = &clusters_at_node;
                scope.spawn(move || {
                    let mut node_dist = vec![f64::INFINITY; n_nodes];
                    let mut touched: Vec<u32> = Vec::new();
                    for (local, row) in rows.chunks_mut(k).enumerate() {
                        let c = t * chunk + local;
                        multi_source_dijkstra(
                            graph,
                            &sources[c],
                            max_dist_m,
                            &mut node_dist,
                            &mut touched,
                            |node, d| {
                                for &other in &clusters_at_node[node as usize] {
                                    let cell = &mut row[other as usize];
                                    if (d as f32) < *cell {
                                        *cell = d as f32;
                                    }
                                }
                            },
                        );
                        // Reset only the touched entries for the next row.
                        for &n in &touched {
                            node_dist[n as usize] = f64::INFINITY;
                        }
                        touched.clear();
                    }
                });
            }
        });
        Self { k, dist }
    }

    /// Number of clusters.
    #[inline]
    pub fn len(&self) -> usize {
        self.k
    }

    /// Whether the table is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.k == 0
    }

    /// Directed driving distance from cluster `a` to cluster `b`
    /// (closest landmark pair); `INFINITY` when unknown.
    #[inline]
    pub fn dist(&self, a: ClusterId, b: ClusterId) -> f64 {
        f64::from(self.dist[a.index() * self.k + b.index()])
    }

    /// Distances from `a` to every cluster, indexed by destination
    /// cluster id — one contiguous row of the table.
    #[inline]
    pub(crate) fn row(&self, a: ClusterId) -> &[f32] {
        &self.dist[a.index() * self.k..(a.index() + 1) * self.k]
    }

    /// Distances from every cluster to `b`, in source-cluster-id order
    /// — one strided column of the table.
    #[inline]
    pub(crate) fn column(&self, b: ClusterId) -> impl Iterator<Item = f32> + '_ {
        self.dist[b.index()..]
            .iter()
            .step_by(self.k.max(1))
            .copied()
    }

    /// Heap bytes held by the table (index-size accounting — this is
    /// the dominant term of Figure 3c's memory curve).
    pub fn heap_bytes(&self) -> usize {
        self.dist.capacity() * std::mem::size_of::<f32>()
    }

    /// The raw row-major distances (persistence).
    pub(crate) fn raw(&self) -> &[f32] {
        &self.dist
    }

    /// Rebuild from raw parts (persistence).
    ///
    /// # Panics
    ///
    /// Panics if `dist.len() != k * k`.
    pub(crate) fn from_raw(k: usize, dist: Vec<f32>) -> Self {
        assert_eq!(dist.len(), k * k, "cluster distance matrix must be k^2");
        Self { k, dist }
    }
}

/// Multi-source bounded Dijkstra (forward/driving), invoking `on_settle`
/// for every settled node. `node_dist` must be all-INFINITY on entry;
/// settled/visited node ids are appended to `touched`.
fn multi_source_dijkstra(
    graph: &RoadGraph,
    sources: &[u32],
    max_dist_m: f64,
    node_dist: &mut [f64],
    touched: &mut Vec<u32>,
    mut on_settle: impl FnMut(u32, f64),
) {
    let mut heap = BinaryHeap::new();
    for &s in sources {
        if node_dist[s as usize] > 0.0 {
            node_dist[s as usize] = 0.0;
            touched.push(s);
            heap.push(HeapEntry::new(0.0, s));
        }
    }
    while let Some(entry) = heap.pop() {
        let (cost, node) = (entry.cost(), entry.node());
        if cost > node_dist[node as usize] {
            continue;
        }
        on_settle(node, cost);
        for e in graph.out_edges(xar_roadnet::NodeId(node)) {
            let nd = cost + e.len_m;
            if nd <= max_dist_m && nd < node_dist[e.to.index()] {
                if node_dist[e.to.index()] == f64::INFINITY {
                    touched.push(e.to.0);
                }
                node_dist[e.to.index()] = nd;
                heap.push(HeapEntry::new(nd, e.to.0));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::landmarks::filter_landmarks;
    use xar_roadnet::{sample_pois, CityConfig, PoiConfig, ShortestPaths};

    fn setup() -> (RoadGraph, Vec<Landmark>, Vec<ClusterId>, usize) {
        let g = CityConfig::test_city(8).generate();
        let pois = sample_pois(
            &g,
            &PoiConfig {
                count: 300,
                ..Default::default()
            },
        );
        let lms = filter_landmarks(&g, &pois, 350.0);
        assert!(lms.len() >= 6);
        let k = 3;
        let cl: Vec<ClusterId> = lms.iter().map(|l| ClusterId(l.id.0 % k as u32)).collect();
        (g, lms, cl, k)
    }

    #[test]
    fn self_distance_is_zero() {
        let (g, lms, cl, k) = setup();
        let cd = ClusterDistances::compute(&g, &lms, &cl, k, f64::INFINITY);
        for c in 0..k as u32 {
            assert_eq!(cd.dist(ClusterId(c), ClusterId(c)), 0.0);
        }
    }

    #[test]
    fn row_and_column_agree_with_dist() {
        let (g, lms, cl, k) = setup();
        let cd = ClusterDistances::compute(&g, &lms, &cl, k, f64::INFINITY);
        for a in (0..k as u32).map(ClusterId) {
            let row: Vec<f64> = cd.row(a).iter().map(|&d| f64::from(d)).collect();
            let col: Vec<f64> = cd.column(a).map(f64::from).collect();
            let ids = || (0..k as u32).map(ClusterId);
            assert_eq!(row, ids().map(|b| cd.dist(a, b)).collect::<Vec<_>>());
            assert_eq!(col, ids().map(|b| cd.dist(b, a)).collect::<Vec<_>>());
        }
    }

    #[test]
    fn matches_brute_force_closest_pair() {
        let (g, lms, cl, k) = setup();
        let cd = ClusterDistances::compute(&g, &lms, &cl, k, f64::INFINITY);
        let sp = ShortestPaths::driving(&g);
        for a in 0..k as u32 {
            for b in 0..k as u32 {
                let mut best = f64::INFINITY;
                for la in lms.iter().filter(|l| cl[l.id.index()] == ClusterId(a)) {
                    for lb in lms.iter().filter(|l| cl[l.id.index()] == ClusterId(b)) {
                        if let Some(d) = sp.cost(la.node, lb.node) {
                            best = best.min(d);
                        }
                    }
                }
                let got = cd.dist(ClusterId(a), ClusterId(b));
                if best.is_infinite() {
                    assert!(got.is_infinite());
                } else {
                    assert!((got - best).abs() < 0.5, "{a}->{b}: {got} vs {best}");
                }
            }
        }
    }

    #[test]
    fn bound_truncates_far_distances() {
        let (g, lms, cl, k) = setup();
        let full = ClusterDistances::compute(&g, &lms, &cl, k, f64::INFINITY);
        let bounded = ClusterDistances::compute(&g, &lms, &cl, k, 300.0);
        for a in 0..k as u32 {
            for b in 0..k as u32 {
                let (fa, ba) = (
                    full.dist(ClusterId(a), ClusterId(b)),
                    bounded.dist(ClusterId(a), ClusterId(b)),
                );
                if fa <= 300.0 {
                    assert!((fa - ba).abs() < 0.5);
                } else {
                    assert!(ba.is_infinite());
                }
            }
        }
    }

    #[test]
    fn empty_is_empty() {
        let (g, _, _, _) = setup();
        let cd = ClusterDistances::compute(&g, &[], &[], 0, f64::INFINITY);
        assert!(cd.is_empty());
    }
}
