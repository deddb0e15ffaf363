//! Inter-landmark driving-distance table.
//!
//! The XAR in-memory index "stores information about the discretization
//! of the city such as grids, landmarks, clusters, **distances between
//! landmarks**, etc." (§III). This module computes that table: one
//! Dijkstra per landmark over the road graph (parallelised with scoped
//! threads), stored as a dense `n x n` matrix of `f32` metres.
//!
//! One-way streets make raw driving distance a *quasi*-metric
//! (asymmetric). The clustering theory (metric k-center, Theorem 6's
//! triangle-inequality argument) needs a true metric, so the table also
//! exposes the **max-symmetrization** `d_sym(a,b) = max(d(a,b), d(b,a))`,
//! which provably preserves the triangle inequality and upper-bounds the
//! driving distance in both directions — a cluster with symmetrized
//! diameter ≤ ε therefore satisfies the paper's guarantee for every
//! pickup/drop-off direction.

use crate::landmarks::{Landmark, LandmarkId};
use xar_roadnet::{CostMetric, Direction, RoadGraph, ShortestPaths};

/// Dense pairwise driving-distance table over a landmark set.
#[derive(Debug, Clone)]
pub struct LandmarkMetric {
    n: usize,
    /// Row-major directed distances in metres; `f32::INFINITY` when
    /// unreachable.
    dist: Vec<f32>,
}

impl LandmarkMetric {
    /// Compute the table with one Dijkstra per landmark, in parallel.
    ///
    /// # Panics
    ///
    /// Panics if any landmark's node is out of range for `graph`.
    pub fn compute(graph: &RoadGraph, landmarks: &[Landmark]) -> Self {
        let n = landmarks.len();
        let nodes: Vec<_> = landmarks.iter().map(|l| l.node).collect();
        let mut dist = vec![f32::INFINITY; n * n];
        if n == 0 {
            return Self { n, dist };
        }
        let threads = std::thread::available_parallelism()
            .map_or(4, |p| p.get())
            .min(n);
        let chunk = n.div_ceil(threads);
        std::thread::scope(|scope| {
            for (t, rows) in dist.chunks_mut(chunk * n).enumerate() {
                let nodes = &nodes;
                scope.spawn(move || {
                    let sp = ShortestPaths::new(graph, CostMetric::Distance, Direction::Forward);
                    for (local, row) in rows.chunks_mut(n).enumerate() {
                        let i = t * chunk + local;
                        // The landmarks cover the whole graph, so a
                        // search that stops once all are settled is a
                        // full one anyway.
                        let costs = sp.one_to_all(nodes[i]);
                        for (j, t) in nodes.iter().enumerate() {
                            row[j] = costs[t.index()] as f32;
                        }
                    }
                });
            }
        });
        Self { n, dist }
    }

    /// Build directly from a row-major directed distance matrix
    /// (mostly for tests and synthetic metrics).
    ///
    /// # Panics
    ///
    /// Panics if `dist.len() != n * n`.
    pub fn from_matrix(n: usize, dist: Vec<f32>) -> Self {
        assert_eq!(dist.len(), n * n, "matrix must be n^2");
        Self { n, dist }
    }

    /// Number of landmarks.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the table is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Directed driving distance `a -> b` in metres.
    #[inline]
    pub fn directed(&self, a: LandmarkId, b: LandmarkId) -> f64 {
        f64::from(self.dist[a.index() * self.n + b.index()])
    }

    /// Max-symmetrized distance: `max(d(a,b), d(b,a))`. This is the
    /// metric the clustering algorithms run on.
    #[inline]
    pub fn sym(&self, a: LandmarkId, b: LandmarkId) -> f64 {
        self.directed(a, b).max(self.directed(b, a))
    }

    /// Heap bytes held by the table (index-size accounting).
    pub fn heap_bytes(&self) -> usize {
        self.dist.capacity() * std::mem::size_of::<f32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::landmarks::filter_landmarks;
    use xar_roadnet::{sample_pois, CityConfig, PoiConfig, ShortestPaths};

    fn setup() -> (RoadGraph, Vec<Landmark>) {
        let g = CityConfig::test_city(2).generate();
        let pois = sample_pois(
            &g,
            &PoiConfig {
                count: 300,
                ..Default::default()
            },
        );
        let lms = filter_landmarks(&g, &pois, 250.0);
        (g, lms)
    }

    #[test]
    fn diagonal_is_zero() {
        let (g, lms) = setup();
        let m = LandmarkMetric::compute(&g, &lms);
        for l in &lms {
            assert_eq!(m.directed(l.id, l.id), 0.0);
        }
    }

    #[test]
    fn matches_individual_dijkstra() {
        let (g, lms) = setup();
        let m = LandmarkMetric::compute(&g, &lms);
        let sp = ShortestPaths::driving(&g);
        // Spot-check a handful of pairs against one-off Dijkstra.
        for (i, j) in [(0usize, 1usize), (1, 3), (2, 0)] {
            if i >= lms.len() || j >= lms.len() {
                continue;
            }
            let expect = sp.cost(lms[i].node, lms[j].node).unwrap();
            let got = m.directed(lms[i].id, lms[j].id);
            assert!(
                (got - expect).abs() < 0.5,
                "pair ({i},{j}): {got} vs {expect}"
            );
        }
    }

    #[test]
    fn sym_is_symmetric_and_dominates_directed() {
        let (g, lms) = setup();
        let m = LandmarkMetric::compute(&g, &lms);
        for i in 0..lms.len().min(10) {
            for j in 0..lms.len().min(10) {
                let (a, b) = (LandmarkId(i as u32), LandmarkId(j as u32));
                assert_eq!(m.sym(a, b), m.sym(b, a));
                assert!(m.sym(a, b) >= m.directed(a, b));
                assert!(m.sym(a, b) >= m.directed(b, a));
            }
        }
    }

    #[test]
    fn sym_satisfies_triangle_inequality() {
        let (g, lms) = setup();
        let m = LandmarkMetric::compute(&g, &lms);
        let k = lms.len().min(8);
        for a in 0..k {
            for b in 0..k {
                for c in 0..k {
                    let (a, b, c) = (
                        LandmarkId(a as u32),
                        LandmarkId(b as u32),
                        LandmarkId(c as u32),
                    );
                    assert!(
                        m.sym(a, c) <= m.sym(a, b) + m.sym(b, c) + 0.5,
                        "triangle violated: {:?} {:?} {:?}",
                        a,
                        b,
                        c
                    );
                }
            }
        }
    }

    #[test]
    fn empty_landmark_set() {
        let (g, _) = setup();
        let m = LandmarkMetric::compute(&g, &[]);
        assert!(m.is_empty());
        assert_eq!(m.len(), 0);
    }

    #[test]
    fn from_matrix_round_trip() {
        let m = LandmarkMetric::from_matrix(2, vec![0.0, 5.0, 7.0, 0.0]);
        assert_eq!(m.directed(LandmarkId(0), LandmarkId(1)), 5.0);
        assert_eq!(m.directed(LandmarkId(1), LandmarkId(0)), 7.0);
        assert_eq!(m.sym(LandmarkId(0), LandmarkId(1)), 7.0);
    }

    #[test]
    #[should_panic(expected = "n^2")]
    fn bad_matrix_panics() {
        let _ = LandmarkMetric::from_matrix(2, vec![0.0; 3]);
    }
}
