//! GREEDYSEARCH: the bicriteria approximation for CLUSTERMINIMIZATION
//! (paper §V, Theorem 6).
//!
//! The algorithm binary-searches the number of centers `k` over
//! `[1, n]`, invoking the GREEDY k-center subroutine each iteration.
//! If some landmark ends up farther than `2δ` from its center, the
//! search moves to the upper half of the range; otherwise to the lower
//! half. After `log2(n)` iterations it returns the minimum `k'` whose
//! covering radius was `≤ 2δ`.
//!
//! **Theorem 6.** If the optimal solution is `(k_OPT, δ)`, GREEDYSEARCH
//! returns `(k_ALG, 4δ)` with `k_ALG ≤ k_OPT`: no more clusters than
//! optimal, with the pairwise intra-cluster distance stretched by at
//! most a factor 4 (radius ≤ 2δ, so diameter ≤ 4δ by the triangle
//! inequality). The property tests in this module's test suite and in
//! `tests/` verify both halves of the guarantee against the exact
//! solver.

use crate::kcenter::{greedy_k_center, PointMetric};

/// A clustering of a landmark set: the output of GREEDYSEARCH (or of
/// the exact solver, converted).
#[derive(Debug, Clone)]
pub struct Clustering {
    /// Number of clusters `k`.
    pub k: usize,
    /// Center point indices, one per cluster (GREEDY's chosen centers;
    /// for converted exact solutions an arbitrary member).
    pub centers: Vec<usize>,
    /// For each point, the cluster index in `0..k` it belongs to.
    pub assignment: Vec<usize>,
    /// Maximum distance of any point to its cluster's center.
    pub radius: f64,
}

impl Clustering {
    /// The member point indices of cluster `c`.
    pub fn members_of(&self, c: usize) -> Vec<usize> {
        self.assignment
            .iter()
            .enumerate()
            .filter_map(|(p, &a)| (a == c).then_some(p))
            .collect()
    }

    /// All clusters as vectors of member indices.
    pub fn clusters(&self) -> Vec<Vec<usize>> {
        let mut out = vec![Vec::new(); self.k];
        for (p, &a) in self.assignment.iter().enumerate() {
            out[a].push(p);
        }
        out
    }

    /// Exact maximum intra-cluster pairwise distance (the achieved
    /// "ε" of the discretization).
    pub fn max_diameter<M: PointMetric>(&self, metric: &M) -> f64 {
        let mut best = 0.0f64;
        for members in self.clusters() {
            for (i, &a) in members.iter().enumerate() {
                for &b in &members[i + 1..] {
                    best = best.max(metric.dist(a, b));
                }
            }
        }
        best
    }

    /// Check the Definition 3 feasibility: every intra-cluster pair
    /// within `delta`.
    pub fn is_feasible<M: PointMetric>(&self, metric: &M, delta: f64) -> bool {
        self.max_diameter(metric) <= delta + 1e-9
    }
}

/// One probe of the binary search: the `(k, radius)` pair the paper's
/// algorithm records ("the algorithm returns log2(n) tuples of the form
/// (k', δ_k')").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SearchProbe {
    /// Number of centers probed.
    pub k: usize,
    /// GREEDY covering radius achieved for that `k`.
    pub radius: f64,
}

/// The full outcome of GREEDYSEARCH: the chosen clustering plus the
/// probe trace.
#[derive(Debug, Clone)]
pub struct GreedySearchOutcome {
    /// The clustering at the selected `k_ALG`.
    pub clustering: Clustering,
    /// All `(k', δ_k')` probes, in probe order.
    pub trace: Vec<SearchProbe>,
}

/// Run GREEDYSEARCH for inter-landmark threshold `delta` (the paper's
/// δ). Returns the minimum `k` probed whose covering radius is `≤ 2δ`,
/// together with its clustering.
///
/// ```
/// use xar_discretize::greedy_search::greedy_search;
/// use xar_discretize::kcenter::FnMetric;
/// // Three tight groups on a line, 100 apart.
/// let xs: [f64; 6] = [0.0, 1.0, 100.0, 101.0, 200.0, 201.0];
/// let metric = FnMetric::new(6, move |i, j| (xs[i] - xs[j]).abs());
/// let out = greedy_search(&metric, 2.0);
/// assert_eq!(out.clustering.k, 3);
/// // Theorem 6: intra-cluster diameter within 4 delta.
/// assert!(out.clustering.max_diameter(&metric) <= 8.0);
/// ```
///
/// # Panics
///
/// Panics if the metric is empty or `delta` is negative/not finite.
pub fn greedy_search<M: PointMetric>(metric: &M, delta: f64) -> GreedySearchOutcome {
    assert!(!metric.is_empty(), "cannot cluster an empty landmark set");
    assert!(
        delta.is_finite() && delta >= 0.0,
        "delta must be non-negative, got {delta}"
    );
    let n = metric.len();
    let threshold = 2.0 * delta;

    let mut lo = 1usize;
    let mut hi = n;
    let mut trace = Vec::new();
    let mut best: Option<Clustering> = None;
    // Binary search: GREEDY's radius is monotone non-increasing in k,
    // so the standard invariant applies. k = n always achieves radius 0,
    // guaranteeing a feasible endpoint.
    while lo < hi {
        let k = lo + (hi - lo) / 2;
        let r = greedy_k_center(metric, k);
        trace.push(SearchProbe {
            k,
            radius: r.radius,
        });
        if r.radius > threshold {
            lo = k + 1;
        } else {
            hi = k;
            let better = best.as_ref().is_none_or(|b| k < b.k);
            if better {
                best = Some(Clustering {
                    k: r.centers.len(),
                    centers: r.centers,
                    assignment: r.assignment,
                    radius: r.radius,
                });
            }
        }
    }
    // `lo == hi` is the minimal feasible k; make sure we actually hold
    // its clustering (the loop may have converged from above).
    let clustering = match best {
        Some(b) if b.k == lo => b,
        _ => {
            let r = greedy_k_center(metric, lo);
            trace.push(SearchProbe {
                k: lo,
                radius: r.radius,
            });
            Clustering {
                k: r.centers.len(),
                centers: r.centers,
                assignment: r.assignment,
                radius: r.radius,
            }
        }
    };
    GreedySearchOutcome { clustering, trace }
}

/// Run GREEDY for a *fixed* cluster count (used by the Figure 3
/// trade-off sweeps, where the paper picks `C = 500 … 5000` directly).
pub fn cluster_with_k<M: PointMetric>(metric: &M, k: usize) -> Clustering {
    let r = greedy_k_center(metric, k);
    Clustering {
        k: r.centers.len(),
        centers: r.centers,
        assignment: r.assignment,
        radius: r.radius,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::exact_min_clusters;
    use crate::kcenter::FnMetric;

    fn line(coords: &'static [f64]) -> FnMetric<impl Fn(usize, usize) -> f64> {
        FnMetric::new(coords.len(), move |i, j| (coords[i] - coords[j]).abs())
    }

    #[test]
    fn tight_group_is_one_cluster() {
        let m = line(&[0.0, 1.0, 2.0, 3.0]);
        let out = greedy_search(&m, 5.0);
        assert_eq!(out.clustering.k, 1);
        assert!(out.clustering.radius <= 10.0);
    }

    #[test]
    fn separated_groups_split() {
        let m = line(&[0.0, 1.0, 100.0, 101.0, 200.0, 201.0]);
        let out = greedy_search(&m, 2.0);
        assert_eq!(out.clustering.k, 3);
        // Each group must be intact and diameter tiny.
        assert!(out.clustering.max_diameter(&m) <= 2.0);
    }

    #[test]
    fn theorem6_k_alg_le_k_opt() {
        // Several small instances where the exact optimum is computable.
        let instances: &[&[f64]] = &[
            &[0.0, 1.0, 2.0, 10.0, 11.0, 20.0],
            &[0.0, 4.0, 8.0, 12.0, 16.0],
            &[0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0],
            &[0.0, 9.0, 18.0, 27.0],
        ];
        for coords in instances {
            let c2: &'static [f64] = Box::leak(coords.to_vec().into_boxed_slice());
            let m = FnMetric::new(c2.len(), move |i, j| (c2[i] - c2[j]).abs());
            for delta in [1.0, 2.0, 5.0, 10.0] {
                let exact = exact_min_clusters(&m, delta);
                let out = greedy_search(&m, delta);
                assert!(
                    out.clustering.k <= exact.k,
                    "delta={delta}, coords={coords:?}: k_ALG {} > k_OPT {}",
                    out.clustering.k,
                    exact.k
                );
                // Diameter within 4 delta.
                assert!(
                    out.clustering.max_diameter(&m) <= 4.0 * delta + 1e-9,
                    "delta={delta}: diameter {} > 4δ",
                    out.clustering.max_diameter(&m)
                );
            }
        }
    }

    #[test]
    fn radius_bound_2delta_holds() {
        let m = line(&[0.0, 3.0, 6.0, 9.0, 30.0, 33.0, 36.0]);
        let delta = 6.0;
        let out = greedy_search(&m, delta);
        assert!(out.clustering.radius <= 2.0 * delta + 1e-9);
    }

    #[test]
    fn trace_is_at_most_logarithmic_plus_one() {
        let coords: Vec<f64> = (0..64).map(|i| i as f64 * 5.0).collect();
        let c: &'static [f64] = Box::leak(coords.into_boxed_slice());
        let m = FnMetric::new(c.len(), move |i, j| (c[i] - c[j]).abs());
        let out = greedy_search(&m, 7.0);
        assert!(
            out.trace.len() <= 64usize.ilog2() as usize + 1,
            "trace {:?}",
            out.trace.len()
        );
    }

    #[test]
    fn zero_delta_gives_singletons_unless_coincident() {
        let m = line(&[0.0, 5.0, 9.0]);
        let out = greedy_search(&m, 0.0);
        assert_eq!(out.clustering.k, 3);
        assert_eq!(out.clustering.radius, 0.0);
    }

    #[test]
    fn coincident_points_collapse() {
        let m = line(&[4.0, 4.0, 4.0]);
        let out = greedy_search(&m, 0.0);
        assert_eq!(out.clustering.k, 1);
    }

    #[test]
    fn cluster_with_k_matches_greedy() {
        let m = line(&[0.0, 10.0, 20.0, 30.0]);
        let c = cluster_with_k(&m, 2);
        assert_eq!(c.k, 2);
        let mut all: Vec<_> = c.clusters().into_iter().flatten().collect();
        all.sort_unstable();
        assert_eq!(all, vec![0, 1, 2, 3]);
    }

    #[test]
    fn feasibility_check() {
        let m = line(&[0.0, 1.0, 2.0]);
        let c = cluster_with_k(&m, 1);
        assert!(c.is_feasible(&m, 2.0));
        assert!(!c.is_feasible(&m, 1.0));
    }
}
