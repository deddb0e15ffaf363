//! Cluster-to-cluster distance table (paper §VI).
//!
//! > *"Note that the distance between clusters is determined by the
//! > distance between the closest pair of landmarks belonging to the two
//! > clusters, respectively."*
//!
//! The table is the workhorse of the search-time detour check
//! (`d(C,C') + d(C',v) − d(C,v) ≤ detour`), which is what lets XAR avoid
//! shortest-path computation entirely during search. It is a fold of the
//! [`LandmarkMetric`], which already holds every directed landmark pair,
//! so building it runs no search of its own. Driving distances over
//! one-way streets are asymmetric, so the table is stored directed.
//!
//! The bound is tested on the stored `f32`: a pair whose `f64` distance
//! lies within half an `f32` ulp above it (under 0.5 mm at 8 km) is kept
//! where a search cut at the bound would drop it. No cell of the
//! 140×140 benchmark city is such a pair.

use crate::landmarks::LandmarkId;
use crate::metric::LandmarkMetric;
use crate::region::ClusterId;

/// Dense directed cluster-to-cluster driving distances, metres.
#[derive(Debug, Clone)]
pub struct ClusterDistances {
    k: usize,
    /// Row-major `k x k`; `f32::INFINITY` when unreachable or beyond the
    /// computation bound.
    dist: Vec<f32>,
}

impl ClusterDistances {
    /// Fold the table out of the landmark metric: each cell is the `min`
    /// of `directed(a, b)` over the landmarks `a` of the source cluster
    /// and `b` of the destination cluster.
    ///
    /// * `cluster_of[l]` maps landmark index → cluster.
    /// * `k` is the number of clusters.
    /// * `bound_m` cuts the table: a distance beyond it is recorded as
    ///   `INFINITY`. Pass `f64::INFINITY` for the full table (the ride
    ///   logic only ever consults distances up to the maximum detour, so
    ///   a finite bound changes no behaviour).
    ///
    /// The loop runs row-major per source landmark, so its cluster's row
    /// stays in cache.
    ///
    /// # Panics
    ///
    /// Panics unless `cluster_of` has one entry per landmark of `metric`.
    pub fn from_metric(
        metric: &LandmarkMetric,
        cluster_of: &[ClusterId],
        k: usize,
        bound_m: f64,
    ) -> Self {
        assert_eq!(metric.len(), cluster_of.len(), "one cluster per landmark");
        let mut dist = vec![f32::INFINITY; k * k];
        for (a, &from) in cluster_of.iter().enumerate() {
            let row = &mut dist[from.index() * k..(from.index() + 1) * k];
            for (&d, &to) in metric.row(LandmarkId(a as u32)).iter().zip(cluster_of) {
                let cell = &mut row[to.index()];
                if d < *cell && f64::from(d) <= bound_m {
                    *cell = d;
                }
            }
        }
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::landmarks::filter_landmarks;
    use xar_roadnet::{sample_pois, CityConfig, PoiConfig, ShortestPaths};

    const K: usize = 3;

    /// The landmarks of `city` dealt round-robin into `K` clusters, and
    /// the table folded with `bound_m`; with each landmark's node and
    /// cluster for the brute force.
    fn build(
        city: CityConfig,
        bound_m: f64,
    ) -> (
        xar_roadnet::RoadGraph,
        Vec<(xar_roadnet::NodeId, u32)>,
        ClusterDistances,
    ) {
        let g = city.generate();
        let pois = sample_pois(
            &g,
            &PoiConfig {
                count: 300,
                ..Default::default()
            },
        );
        let lms = filter_landmarks(&g, &pois, 350.0);
        assert!(lms.len() >= 6);
        let cl: Vec<ClusterId> = lms.iter().map(|l| ClusterId(l.id.0 % K as u32)).collect();
        let cd = ClusterDistances::from_metric(&LandmarkMetric::compute(&g, &lms), &cl, K, bound_m);
        let at = lms.iter().zip(&cl).map(|(l, c)| (l.node, c.0)).collect();
        (g, at, cd)
    }

    #[test]
    fn row_and_column_agree_with_dist() {
        let (_, _, cd) = build(CityConfig::test_city(8), f64::INFINITY);
        for a in (0..K as u32).map(ClusterId) {
            let row: Vec<f64> = cd.row(a).iter().map(|&d| f64::from(d)).collect();
            let col: Vec<f64> = cd.column(a).map(f64::from).collect();
            let ids = || (0..K as u32).map(ClusterId);
            assert_eq!(row, ids().map(|b| cd.dist(a, b)).collect::<Vec<_>>());
            assert_eq!(col, ids().map(|b| cd.dist(b, a)).collect::<Vec<_>>());
        }
    }

    /// Every cell, bit for bit, is the closest landmark pair by the
    /// textbook Dijkstra, rounded to `f32` and cut at the bound: on all
    /// three topologies, with and without a bound.
    #[test]
    fn matches_brute_force_closest_pair_bit_for_bit() {
        let mut cut = 0;
        for seed in [8, 9] {
            for city in [
                CityConfig::test_city(seed),
                CityConfig::radial(6, 10, seed),
                CityConfig::random_geometric(150, seed),
            ] {
                for bound_m in [f64::INFINITY, 400.0] {
                    let (g, at, cd) = build(city.clone(), bound_m);
                    let sp = ShortestPaths::driving(&g);
                    for a in 0..K as u32 {
                        for b in 0..K as u32 {
                            let of = |c| at.iter().filter(move |l| l.1 == c).map(|l| l.0);
                            let best = of(a)
                                .flat_map(|la| of(b).filter_map(move |lb| sp.cost(la, lb)))
                                .fold(f64::INFINITY, f64::min);
                            let want = if best <= bound_m {
                                best as f32
                            } else {
                                f32::INFINITY
                            };
                            cut += usize::from(best.is_finite() && best > bound_m);
                            let got = cd.dist(ClusterId(a), ClusterId(b)) as f32;
                            assert_eq!(got.to_bits(), want.to_bits(), "{a}->{b} <= {bound_m}");
                        }
                    }
                }
            }
        }
        assert!(cut > 0, "the bound must cut some reachable pair");
    }

    #[test]
    fn empty_is_empty() {
        let empty = LandmarkMetric::from_matrix(0, vec![]);
        assert!(ClusterDistances::from_metric(&empty, &[], 0, 1.0).is_empty());
    }

    #[test]
    #[should_panic(expected = "one cluster per landmark")]
    fn cluster_of_must_cover_every_landmark() {
        let metric = LandmarkMetric::from_matrix(2, vec![0.0, 5.0, 7.0, 0.0]);
        let _ = ClusterDistances::from_metric(&metric, &[ClusterId(0)], 1, 1.0);
    }
}
