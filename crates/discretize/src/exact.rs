//! Exact CLUSTERMINIMIZATION by branch-and-bound clique cover.
//!
//! Theorem 4 of the paper shows CLUSTERMINIMIZATION is equivalent to
//! *minimum clique cover* on the unweighted threshold graph where
//! "landmarks are vertices, and an edge between any two vertices exists
//! if and only if the distance between the corresponding landmarks is
//! ≤ δ" — and therefore NP-complete. This module solves small instances
//! (n ≲ 25) exactly, serving as the ground truth the GREEDYSEARCH
//! bicriteria guarantee is property-tested against, and as the direct
//! optimal solver the ILP of §V would compute.

use crate::greedy_search::Clustering;
use crate::kcenter::PointMetric;

/// Exact minimum number of clusters with pairwise intra-cluster
/// distance `≤ delta`, via branch-and-bound over vertex-to-clique
/// assignments.
///
/// Complexity is exponential; intended for test instances. The returned
/// [`Clustering`] uses the first member of each clique as its "center"
/// and reports the exact covering radius relative to those centers.
///
/// # Panics
///
/// Panics if the metric is empty or `delta` is negative.
pub fn exact_min_clusters<M: PointMetric>(metric: &M, delta: f64) -> Clustering {
    let n = metric.len();
    assert!(n > 0, "cannot cluster an empty set");
    assert!(delta >= 0.0, "delta must be non-negative");
    // Adjacency: compatible[i][j] = can share a cluster.
    let mut compatible = vec![vec![false; n]; n];
    #[allow(clippy::needless_range_loop)] // symmetric fill over (i, j)
    for i in 0..n {
        for j in 0..n {
            compatible[i][j] = i == j || metric.dist(i, j) <= delta + 1e-9;
        }
    }

    // Greedy first-fit gives an initial upper bound.
    let mut best_assignment = first_fit(&compatible);
    let mut best_k = best_assignment.iter().max().map_or(0, |&m| m + 1);

    // Branch and bound: assign vertices in order; vertex v may join any
    // open clique whose members are all compatible, or open clique
    // `used` (canonical order prunes symmetric branches).
    let mut assignment = vec![usize::MAX; n];
    let mut cliques: Vec<Vec<usize>> = Vec::new();

    fn rec(
        v: usize,
        n: usize,
        compatible: &[Vec<bool>],
        assignment: &mut Vec<usize>,
        cliques: &mut Vec<Vec<usize>>,
        best_k: &mut usize,
        best_assignment: &mut Vec<usize>,
    ) {
        if cliques.len() >= *best_k {
            return; // cannot improve
        }
        if v == n {
            *best_k = cliques.len();
            *best_assignment = assignment.clone();
            return;
        }
        for c in 0..cliques.len() {
            if cliques[c].iter().all(|&u| compatible[u][v]) {
                cliques[c].push(v);
                assignment[v] = c;
                rec(
                    v + 1,
                    n,
                    compatible,
                    assignment,
                    cliques,
                    best_k,
                    best_assignment,
                );
                cliques[c].pop();
            }
        }
        // Open a new clique (only if it can still beat the best).
        if cliques.len() + 1 < *best_k {
            cliques.push(vec![v]);
            assignment[v] = cliques.len() - 1;
            rec(
                v + 1,
                n,
                compatible,
                assignment,
                cliques,
                best_k,
                best_assignment,
            );
            cliques.pop();
        }
        assignment[v] = usize::MAX;
    }
    rec(
        0,
        n,
        &compatible,
        &mut assignment,
        &mut cliques,
        &mut best_k,
        &mut best_assignment,
    );

    clustering_from_assignment(metric, best_assignment, best_k)
}

/// Greedy first-fit clique cover (upper bound and fallback).
fn first_fit(compatible: &[Vec<bool>]) -> Vec<usize> {
    let n = compatible.len();
    let mut cliques: Vec<Vec<usize>> = Vec::new();
    let mut assignment = vec![0usize; n];
    for v in 0..n {
        let slot = cliques
            .iter()
            .position(|c| c.iter().all(|&u| compatible[u][v]));
        match slot {
            Some(c) => {
                cliques[c].push(v);
                assignment[v] = c;
            }
            None => {
                cliques.push(vec![v]);
                assignment[v] = cliques.len() - 1;
            }
        }
    }
    assignment
}

fn clustering_from_assignment<M: PointMetric>(
    metric: &M,
    assignment: Vec<usize>,
    k: usize,
) -> Clustering {
    // Center = first member of each cluster; radius relative to it.
    let mut centers = vec![usize::MAX; k];
    for (p, &a) in assignment.iter().enumerate() {
        if centers[a] == usize::MAX {
            centers[a] = p;
        }
    }
    let mut radius = 0.0f64;
    for (p, &a) in assignment.iter().enumerate() {
        radius = radius.max(metric.dist(p, centers[a]));
    }
    Clustering {
        k,
        centers,
        assignment,
        radius,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kcenter::FnMetric;

    fn line(coords: &'static [f64]) -> FnMetric<impl Fn(usize, usize) -> f64> {
        FnMetric::new(coords.len(), move |i, j| (coords[i] - coords[j]).abs())
    }

    #[test]
    fn all_within_delta_is_one_cluster() {
        let m = line(&[0.0, 1.0, 2.0]);
        let c = exact_min_clusters(&m, 2.0);
        assert_eq!(c.k, 1);
    }

    #[test]
    fn all_far_apart_is_singletons() {
        let m = line(&[0.0, 10.0, 20.0, 30.0]);
        let c = exact_min_clusters(&m, 5.0);
        assert_eq!(c.k, 4);
    }

    #[test]
    fn line_interval_cover() {
        // Points 0..9 spaced by 1, delta 3 => cliques of 4 consecutive
        // points => ceil(10/4) = 3 clusters.
        let coords: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let c2: &'static [f64] = Box::leak(coords.into_boxed_slice());
        let m = FnMetric::new(c2.len(), move |i, j| (c2[i] - c2[j]).abs());
        let c = exact_min_clusters(&m, 3.0);
        assert_eq!(c.k, 3);
        assert!(c.is_feasible(&m, 3.0));
    }

    #[test]
    fn solution_is_always_feasible() {
        let m = line(&[0.0, 2.5, 5.0, 7.5, 10.0, 12.5]);
        for delta in [1.0, 2.5, 5.0, 100.0] {
            let c = exact_min_clusters(&m, delta);
            assert!(c.is_feasible(&m, delta), "delta={delta}");
            // Every point assigned exactly once to a valid cluster id.
            assert!(c.assignment.iter().all(|&a| a < c.k));
        }
    }

    #[test]
    fn non_interval_metric() {
        // Star metric: center point near everyone, leaves far apart.
        // 0 is within 2 of each leaf; leaves are 4 apart pairwise.
        let m = FnMetric::new(4, |i, j| {
            if i == j {
                0.0
            } else if i == 0 || j == 0 {
                2.0
            } else {
                4.0
            }
        });
        // delta=2: {0, one leaf} + two singleton leaves = 3 clusters.
        let c = exact_min_clusters(&m, 2.0);
        assert_eq!(c.k, 3);
        // delta=4: everything fits together.
        let c = exact_min_clusters(&m, 4.0);
        assert_eq!(c.k, 1);
    }

    #[test]
    fn matches_brute_force_on_random_instances() {
        // Random symmetric metrics (not necessarily triangle-satisfying
        // — clique cover doesn't need it) vs exhaustive partition search.
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(99);
        for trial in 0..10 {
            let n = 6;
            let mut d = vec![vec![0.0f64; n]; n];
            #[allow(clippy::needless_range_loop)]
            for i in 0..n {
                for j in (i + 1)..n {
                    let v = rng.random::<f64>() * 10.0;
                    d[i][j] = v;
                    d[j][i] = v;
                }
            }
            let dd = d.clone();
            let m = FnMetric::new(n, move |i, j| dd[i][j]);
            let delta = 4.0;
            let exact = exact_min_clusters(&m, delta);
            let brute = brute_force_min(&d, delta);
            assert_eq!(exact.k, brute, "trial {trial}");
        }
    }

    /// Exhaustive minimum clique cover via set-partition enumeration
    /// (restricted growth strings).
    fn brute_force_min(d: &[Vec<f64>], delta: f64) -> usize {
        let n = d.len();
        let mut best = n;
        let mut rgs = vec![0usize; n];
        loop {
            // Validate partition.
            let k = rgs.iter().max().unwrap() + 1;
            if k < best {
                let mut ok = true;
                #[allow(clippy::needless_range_loop)]
                'outer: for i in 0..n {
                    for j in (i + 1)..n {
                        if rgs[i] == rgs[j] && d[i][j] > delta + 1e-9 {
                            ok = false;
                            break 'outer;
                        }
                    }
                }
                if ok {
                    best = k;
                }
            }
            // Next restricted growth string.
            let mut i = n - 1;
            loop {
                let max_prefix = rgs[..i].iter().max().copied().unwrap_or(0);
                if i > 0 && rgs[i] <= max_prefix {
                    rgs[i] += 1;
                    for x in rgs[i + 1..].iter_mut() {
                        *x = 0;
                    }
                    break;
                }
                if i == 0 {
                    return best;
                }
                i -= 1;
            }
        }
    }
}
