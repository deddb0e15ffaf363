//! GREEDY: Gonzalez's 2-approximation for metric k-center.
//!
//! > *"We use the well-known 2-approximate greedy algorithm \[Gonzalez
//! > 1985\] for METRIC K-CENTER as a subroutine for getting an
//! > approximation to the CLUSTERMINIMIZATION problem (henceforth we
//! > refer to this subroutine as GREEDY)."* (§V)
//!
//! Farthest-point traversal: start from a fixed point, repeatedly add
//! the point farthest from the chosen centers, then assign every point
//! to its nearest center. The covering radius is at most twice the
//! optimal k-center radius.

use crate::metric::LandmarkMetric;

/// A finite point set with pairwise distances — the abstraction the
/// clustering algorithms run on. Implementations must be metrics
/// (symmetric, triangle inequality) for the approximation guarantees to
/// hold.
pub trait PointMetric {
    /// Number of points.
    fn len(&self) -> usize;
    /// Distance between points `i` and `j`.
    fn dist(&self, i: usize, j: usize) -> f64;
    /// Whether the point set is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl PointMetric for LandmarkMetric {
    fn len(&self) -> usize {
        self.len()
    }
    fn dist(&self, i: usize, j: usize) -> f64 {
        self.sym(crate::LandmarkId(i as u32), crate::LandmarkId(j as u32))
    }
}

/// A metric given by an explicit symmetric closure (used in tests and
/// by the exact solver harness).
pub struct FnMetric<F: Fn(usize, usize) -> f64> {
    n: usize,
    f: F,
}

impl<F: Fn(usize, usize) -> f64> FnMetric<F> {
    /// Wrap a closure as a metric over `n` points.
    pub fn new(n: usize, f: F) -> Self {
        Self { n, f }
    }
}

impl<F: Fn(usize, usize) -> f64> PointMetric for FnMetric<F> {
    fn len(&self) -> usize {
        self.n
    }
    fn dist(&self, i: usize, j: usize) -> f64 {
        (self.f)(i, j)
    }
}

/// Result of the GREEDY k-center subroutine.
#[derive(Debug, Clone)]
pub struct KCenterResult {
    /// Chosen center point indices, in selection order.
    pub centers: Vec<usize>,
    /// For each point, the index *into `centers`* of its nearest center.
    pub assignment: Vec<usize>,
    /// Maximum distance of any point to its assigned center.
    pub radius: f64,
}

impl KCenterResult {
    /// The points assigned to center slot `c` (an index into
    /// `self.centers`).
    pub fn members_of(&self, c: usize) -> Vec<usize> {
        self.assignment
            .iter()
            .enumerate()
            .filter_map(|(p, &a)| (a == c).then_some(p))
            .collect()
    }
}

/// Run Gonzalez's farthest-point greedy for `k` centers.
///
/// Deterministic: the first center is point 0, and ties in the
/// farthest-point choice break towards the lower index.
///
/// # Panics
///
/// Panics if `k == 0` or the metric is empty.
pub fn greedy_k_center<M: PointMetric>(metric: &M, k: usize) -> KCenterResult {
    let n = metric.len();
    assert!(n > 0, "k-center needs at least one point");
    assert!(k > 0, "k must be positive");
    let k = k.min(n);

    let mut centers = Vec::with_capacity(k);
    // dist_to_centers[p] = distance of p to its currently nearest center.
    let mut dist_to_center = vec![f64::INFINITY; n];
    let mut assignment = vec![0usize; n];

    let mut next = 0usize; // first center: point 0
    for slot in 0..k {
        centers.push(next);
        #[allow(clippy::needless_range_loop)] // p indexes two parallel arrays
        for p in 0..n {
            let d = metric.dist(p, next);
            if d < dist_to_center[p] {
                dist_to_center[p] = d;
                assignment[p] = slot;
            }
        }
        // Farthest point becomes the next center.
        let (mut far, mut far_d) = (0usize, -1.0f64);
        #[allow(clippy::needless_range_loop)] // want the index, not the value
        for p in 0..n {
            if dist_to_center[p] > far_d {
                far_d = dist_to_center[p];
                far = p;
            }
        }
        next = far;
    }
    let radius = dist_to_center.iter().fold(0.0f64, |a, &b| a.max(b));
    KCenterResult {
        centers,
        assignment,
        radius,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Points on a line at the given coordinates.
    fn line_metric(coords: &'static [f64]) -> FnMetric<impl Fn(usize, usize) -> f64> {
        FnMetric::new(coords.len(), move |i, j| (coords[i] - coords[j]).abs())
    }

    #[test]
    fn k_equals_n_gives_zero_radius() {
        let m = line_metric(&[0.0, 10.0, 25.0]);
        let r = greedy_k_center(&m, 3);
        assert_eq!(r.radius, 0.0);
        let mut c = r.centers.clone();
        c.sort_unstable();
        assert_eq!(c, vec![0, 1, 2]);
    }

    #[test]
    fn single_center_covers_all() {
        let m = line_metric(&[0.0, 10.0, 25.0]);
        let r = greedy_k_center(&m, 1);
        assert_eq!(r.centers, vec![0]);
        assert_eq!(r.radius, 25.0);
        assert_eq!(r.assignment, vec![0, 0, 0]);
    }

    #[test]
    fn two_clusters_on_a_line() {
        // Two tight groups far apart: greedy must put one center in each.
        let m = line_metric(&[0.0, 1.0, 2.0, 100.0, 101.0, 102.0]);
        let r = greedy_k_center(&m, 2);
        assert!(r.radius <= 2.0, "radius {}", r.radius);
        // All of 0,1,2 share a center; all of 3,4,5 share the other.
        assert_eq!(r.assignment[0], r.assignment[1]);
        assert_eq!(r.assignment[1], r.assignment[2]);
        assert_eq!(r.assignment[3], r.assignment[4]);
        assert_ne!(r.assignment[0], r.assignment[3]);
    }

    #[test]
    fn radius_never_increases_with_k() {
        let coords: &[f64] = &[0.0, 3.0, 7.0, 12.0, 20.0, 33.0, 34.0, 50.0];
        let m = FnMetric::new(coords.len(), move |i, j| (coords[i] - coords[j]).abs());
        let mut prev = f64::INFINITY;
        for k in 1..=coords.len() {
            let r = greedy_k_center(&m, k);
            assert!(r.radius <= prev + 1e-12, "k={k}: {} > {prev}", r.radius);
            prev = r.radius;
        }
    }

    #[test]
    fn two_approximation_on_line_instances() {
        // On a line, optimal k-center radius is easy to compute by
        // brute force over center subsets for small n.
        let coords: &[f64] = &[0.0, 2.0, 3.0, 9.0, 10.0, 15.0];
        let n = coords.len();
        let m = FnMetric::new(n, move |i, j| (coords[i] - coords[j]).abs());
        for k in 1..=3usize {
            let greedy = greedy_k_center(&m, k);
            // Brute-force optimum.
            let mut best = f64::INFINITY;
            let combos = combinations(n, k);
            for centers in combos {
                let mut radius = 0.0f64;
                for p in 0..n {
                    let d = centers
                        .iter()
                        .map(|&c| (coords[p] - coords[c]).abs())
                        .fold(f64::INFINITY, f64::min);
                    radius = radius.max(d);
                }
                best = best.min(radius);
            }
            assert!(
                greedy.radius <= 2.0 * best + 1e-9,
                "k={k}: greedy {} > 2 * OPT {}",
                greedy.radius,
                best
            );
        }
    }

    #[test]
    fn members_of_partitions_points() {
        let m = line_metric(&[0.0, 1.0, 50.0, 51.0, 100.0]);
        let r = greedy_k_center(&m, 3);
        let mut all: Vec<usize> = (0..r.centers.len()).flat_map(|c| r.members_of(c)).collect();
        all.sort_unstable();
        assert_eq!(all, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn k_larger_than_n_is_clamped() {
        let m = line_metric(&[0.0, 5.0]);
        let r = greedy_k_center(&m, 10);
        assert_eq!(r.centers.len(), 2);
        assert_eq!(r.radius, 0.0);
    }

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn zero_k_panics() {
        let m = line_metric(&[0.0]);
        let _ = greedy_k_center(&m, 0);
    }

    /// All k-subsets of 0..n (test helper).
    fn combinations(n: usize, k: usize) -> Vec<Vec<usize>> {
        let mut out = vec![];
        let mut cur = vec![];
        fn rec(start: usize, n: usize, k: usize, cur: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
            if cur.len() == k {
                out.push(cur.clone());
                return;
            }
            for i in start..n {
                cur.push(i);
                rec(i + 1, n, k, cur, out);
                cur.pop();
            }
        }
        rec(0, n, k, &mut cur, &mut out);
        out
    }
}
