//! The CLUSTERMINIMIZATION integer linear program (paper §V).
//!
//! The paper formulates the problem as:
//!
//! ```text
//! minimize  m
//! s.t.      Σ_j y_j ≤ m
//!           x_{i,j} ≤ y_j                        ∀ i ∈ V, j ∈ [n]
//!           Σ_j x_{i,j} = 1                      ∀ i ∈ V
//!           d_{i,i'} (x_{i,j} + x_{i',j} − 1) ≤ δ   ∀ i,i' ∈ V, ∀ j
//!           x, y ∈ {0,1}
//! ```
//!
//! Solving the ILP is NP-complete (Theorem 4) and `(1−ε)·ln n` hard to
//! approximate for some metrics (Theorem 5), which is why XAR uses the
//! GREEDYSEARCH bicriteria algorithm instead. This module materialises
//! the ILP as a checkable object: it validates candidate solutions
//! against every constraint, counts the constraints (making the ILP's
//! size concrete), and computes combinatorial lower bounds on the
//! optimum that the test-suite uses to sandwich the approximation
//! algorithms.

use crate::greedy_search::Clustering;
use crate::kcenter::PointMetric;

/// A materialised CLUSTERMINIMIZATION instance.
pub struct ClusterIlp<'m, M: PointMetric> {
    metric: &'m M,
    delta: f64,
}

/// Why a candidate solution violates the ILP.
#[derive(Debug, Clone, PartialEq)]
pub enum IlpViolation {
    /// A landmark is assigned to a cluster index `≥ m` (uses an unused
    /// cluster — violates `x_{i,j} ≤ y_j`).
    UnusedCluster {
        /// The offending landmark.
        landmark: usize,
        /// Its (out-of-range) cluster index.
        cluster: usize,
    },
    /// A landmark has no cluster assignment (violates `Σ_j x_{i,j} = 1`;
    /// over-assignment is impossible in the vector encoding).
    Unassigned {
        /// The offending landmark.
        landmark: usize,
    },
    /// Two co-clustered landmarks are farther than δ apart (violates
    /// the pairwise distance constraint).
    PairTooFar {
        /// First landmark.
        a: usize,
        /// Second landmark.
        b: usize,
        /// Their distance.
        distance: f64,
    },
}

impl<'m, M: PointMetric> ClusterIlp<'m, M> {
    /// Wrap a metric and threshold as an ILP instance.
    pub fn new(metric: &'m M, delta: f64) -> Self {
        assert!(delta >= 0.0, "delta must be non-negative");
        Self { metric, delta }
    }

    /// Number of binary variables in the paper's formulation:
    /// `n^2` x-variables plus `n` y-variables (and the integer `m`).
    pub fn variable_count(&self) -> usize {
        let n = self.metric.len();
        n * n + n + 1
    }

    /// Number of constraints: `1 + n^2 + n + n^2·n` (the pairwise
    /// constraint is stated per cluster index j).
    pub fn constraint_count(&self) -> usize {
        let n = self.metric.len();
        1 + n * n + n + n * n * n
    }

    /// Check a candidate assignment (`assignment[i]` = cluster of
    /// landmark `i`, clusters `0..m`) against every ILP constraint.
    /// Returns all violations (empty = feasible).
    pub fn check(&self, assignment: &[usize], m: usize) -> Vec<IlpViolation> {
        let n = self.metric.len();
        let mut out = Vec::new();
        if assignment.len() != n {
            for landmark in assignment.len()..n {
                out.push(IlpViolation::Unassigned { landmark });
            }
        }
        for (i, &a) in assignment.iter().enumerate() {
            if a >= m {
                out.push(IlpViolation::UnusedCluster {
                    landmark: i,
                    cluster: a,
                });
            }
        }
        for i in 0..assignment.len() {
            for j in (i + 1)..assignment.len() {
                if assignment[i] == assignment[j] {
                    let d = self.metric.dist(i, j);
                    if d > self.delta + 1e-9 {
                        out.push(IlpViolation::PairTooFar {
                            a: i,
                            b: j,
                            distance: d,
                        });
                    }
                }
            }
        }
        out
    }

    /// Whether a [`Clustering`] is ILP-feasible.
    pub fn is_feasible(&self, c: &Clustering) -> bool {
        self.check(&c.assignment, c.k).is_empty()
    }

    /// A lower bound on the optimal number of clusters: the size of a
    /// greedily grown *independent set* in the δ-threshold graph. Any
    /// two landmarks more than δ apart can never share a cluster, so
    /// every member of such a set needs its own cluster.
    pub fn independent_set_lower_bound(&self) -> usize {
        let n = self.metric.len();
        let mut chosen: Vec<usize> = Vec::new();
        for v in 0..n {
            if chosen
                .iter()
                .all(|&u| self.metric.dist(u, v) > self.delta + 1e-9)
            {
                chosen.push(v);
            }
        }
        chosen.len().max(usize::from(n > 0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::exact_min_clusters;
    use crate::greedy_search::greedy_search;
    use crate::kcenter::FnMetric;

    fn line(coords: &'static [f64]) -> FnMetric<impl Fn(usize, usize) -> f64> {
        FnMetric::new(coords.len(), move |i, j| (coords[i] - coords[j]).abs())
    }

    #[test]
    fn sizes_match_formulation() {
        let m = line(&[0.0, 1.0, 2.0]);
        let ilp = ClusterIlp::new(&m, 1.0);
        assert_eq!(ilp.variable_count(), 9 + 3 + 1);
        assert_eq!(ilp.constraint_count(), 1 + 9 + 3 + 27);
    }

    #[test]
    fn feasible_assignment_passes() {
        let m = line(&[0.0, 1.0, 10.0]);
        let ilp = ClusterIlp::new(&m, 2.0);
        assert!(ilp.check(&[0, 0, 1], 2).is_empty());
    }

    #[test]
    fn pair_too_far_is_caught() {
        let m = line(&[0.0, 1.0, 10.0]);
        let ilp = ClusterIlp::new(&m, 2.0);
        let v = ilp.check(&[0, 0, 0], 1);
        assert!(v
            .iter()
            .any(|x| matches!(x, IlpViolation::PairTooFar { a: 0, b: 2, .. })));
        assert!(v
            .iter()
            .any(|x| matches!(x, IlpViolation::PairTooFar { a: 1, b: 2, .. })));
    }

    #[test]
    fn unused_cluster_is_caught() {
        let m = line(&[0.0, 1.0]);
        let ilp = ClusterIlp::new(&m, 5.0);
        let v = ilp.check(&[0, 3], 2);
        assert_eq!(
            v,
            vec![IlpViolation::UnusedCluster {
                landmark: 1,
                cluster: 3
            }]
        );
    }

    #[test]
    fn missing_assignment_is_caught() {
        let m = line(&[0.0, 1.0, 2.0]);
        let ilp = ClusterIlp::new(&m, 5.0);
        let v = ilp.check(&[0, 0], 1);
        assert_eq!(v, vec![IlpViolation::Unassigned { landmark: 2 }]);
    }

    #[test]
    fn exact_solution_is_ilp_feasible() {
        let m = line(&[0.0, 2.0, 4.0, 6.0, 20.0, 22.0]);
        let delta = 4.0;
        let ilp = ClusterIlp::new(&m, delta);
        let c = exact_min_clusters(&m, delta);
        assert!(ilp.is_feasible(&c));
    }

    #[test]
    fn lower_bound_sandwiches_optimum() {
        let m = line(&[0.0, 2.0, 4.0, 6.0, 20.0, 22.0, 40.0]);
        let delta = 4.0;
        let ilp = ClusterIlp::new(&m, delta);
        let exact = exact_min_clusters(&m, delta);
        let lb = ilp.independent_set_lower_bound();
        assert!(lb <= exact.k, "LB {lb} > OPT {}", exact.k);
        assert!(lb >= 1);
    }

    #[test]
    fn greedy_search_feasible_at_stretched_delta() {
        // GREEDYSEARCH output is NOT necessarily feasible at δ, but must
        // be feasible at the bicriteria 4δ — exactly Theorem 6.
        let m = line(&[0.0, 3.0, 6.0, 9.0, 12.0, 30.0, 33.0]);
        let delta = 3.0;
        let out = greedy_search(&m, delta);
        let relaxed = ClusterIlp::new(&m, 4.0 * delta);
        assert!(relaxed.is_feasible(&out.clustering));
    }
}
