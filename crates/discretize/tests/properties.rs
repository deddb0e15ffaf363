//! Property-based tests of the discretization algorithms on random
//! metric instances.

use proptest::prelude::*;
use xar_discretize::exact::exact_min_clusters;
use xar_discretize::greedy_search::{cluster_with_k, greedy_search};
use xar_discretize::ilp::ClusterIlp;
use xar_discretize::kcenter::{greedy_k_center, FnMetric, PointMetric};

/// Random points in the plane — always a genuine metric.
fn planar_points(max_n: usize) -> impl Strategy<Value = Vec<(f64, f64)>> {
    proptest::collection::vec((0.0f64..1_000.0, 0.0f64..1_000.0), 2..max_n)
}

fn metric_of(points: Vec<(f64, f64)>) -> FnMetric<impl Fn(usize, usize) -> f64> {
    FnMetric::new(points.len(), move |i, j| {
        let (dx, dy) = (points[i].0 - points[j].0, points[i].1 - points[j].1);
        (dx * dx + dy * dy).sqrt()
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Gonzalez GREEDY covers all points, never increases radius with
    /// k, and stays within 2x of any sampled center set (a necessary
    /// consequence of the 2-approximation).
    #[test]
    fn kcenter_basic_properties(points in planar_points(20), k in 1usize..8) {
        let n = points.len();
        let m = metric_of(points);
        let r = greedy_k_center(&m, k);
        prop_assert_eq!(r.assignment.len(), n);
        let k_eff = k.min(n);
        prop_assert_eq!(r.centers.len(), k_eff);
        // Radius consistent with the assignment.
        let mut radius = 0.0f64;
        for (p, &slot) in r.assignment.iter().enumerate() {
            radius = radius.max(m.dist(p, r.centers[slot]));
        }
        prop_assert!((radius - r.radius).abs() < 1e-9);
        // Monotone in k.
        if k_eff < n {
            let r2 = greedy_k_center(&m, k_eff + 1);
            prop_assert!(r2.radius <= r.radius + 1e-9);
        }
    }

    /// Theorem 6 bicriteria on random planar instances, checked against
    /// the exact branch-and-bound optimum.
    #[test]
    fn greedy_search_bicriteria(points in planar_points(12), delta in 50.0f64..600.0) {
        let m = metric_of(points);
        let exact = exact_min_clusters(&m, delta);
        let out = greedy_search(&m, delta);
        prop_assert!(
            out.clustering.k <= exact.k,
            "k_ALG {} > k_OPT {}", out.clustering.k, exact.k
        );
        prop_assert!(
            out.clustering.max_diameter(&m) <= 4.0 * delta + 1e-6,
            "diameter {} > 4 delta {}", out.clustering.max_diameter(&m), 4.0 * delta
        );
        prop_assert!(out.clustering.radius <= 2.0 * delta + 1e-6);
    }

    /// The exact solution is ILP-feasible and at least the
    /// independent-set lower bound.
    #[test]
    fn exact_is_sandwiched(points in planar_points(10), delta in 50.0f64..600.0) {
        let m = metric_of(points);
        let exact = exact_min_clusters(&m, delta);
        let ilp = ClusterIlp::new(&m, delta);
        prop_assert!(ilp.is_feasible(&exact));
        prop_assert!(ilp.independent_set_lower_bound() <= exact.k);
        // Exact is minimal among feasible solutions we can generate:
        // merging any two clusters must violate feasibility (otherwise
        // exact wasn't minimal — a weaker but useful local check).
        if exact.k >= 2 {
            let clusters = exact.clusters();
            let mut can_merge = false;
            'outer: for a in 0..clusters.len() {
                for b in (a + 1)..clusters.len() {
                    let ok = clusters[a].iter().all(|&x| {
                        clusters[b].iter().all(|&y| m.dist(x, y) <= delta + 1e-9)
                    });
                    if ok {
                        can_merge = true;
                        break 'outer;
                    }
                }
            }
            prop_assert!(!can_merge, "two clusters of the optimum could be merged");
        }
    }

    /// cluster_with_k partitions all points into exactly k groups.
    #[test]
    fn fixed_k_partitions(points in planar_points(16), k in 1usize..6) {
        let n = points.len();
        let m = metric_of(points);
        let c = cluster_with_k(&m, k);
        prop_assert_eq!(c.k, k.min(n));
        let mut seen: Vec<usize> = c.clusters().into_iter().flatten().collect();
        seen.sort_unstable();
        prop_assert_eq!(seen, (0..n).collect::<Vec<_>>());
    }
}

mod persist_fuzz {
    use proptest::prelude::*;
    use std::sync::Arc;
    use xar_discretize::{ClusterGoal, RegionConfig, RegionIndex};
    use xar_roadnet::{sample_pois, CityConfig, PoiConfig};

    fn serialized_region() -> &'static Vec<u8> {
        use std::sync::OnceLock;
        static BUF: OnceLock<Vec<u8>> = OnceLock::new();
        BUF.get_or_init(|| {
            let graph = Arc::new(CityConfig::manhattan(10, 10, 6).generate());
            let pois = sample_pois(
                &graph,
                &PoiConfig {
                    count: 150,
                    ..Default::default()
                },
            );
            let region = RegionIndex::build(
                graph,
                &pois,
                RegionConfig {
                    cluster_goal: ClusterGoal::Delta(200.0),
                    ..Default::default()
                },
            );
            let mut buf = Vec::new();
            region.write_to(&mut buf).unwrap();
            buf
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        /// Corrupting any single byte of a region file must produce a
        /// clean error or a successfully loaded (possibly semantically
        /// different) region — never a panic or a runaway allocation.
        #[test]
        fn single_byte_corruption_never_panics(pos in 0usize..16_384, val in any::<u8>()) {
            let mut buf = serialized_region().clone();
            let idx = pos % buf.len();
            buf[idx] = val;
            let _ = RegionIndex::read_from(&mut buf.as_slice()); // Ok or Err, both fine
        }

        /// Random garbage never panics the reader.
        #[test]
        fn random_bytes_never_panic(data in proptest::collection::vec(any::<u8>(), 0..512)) {
            prop_assert!(RegionIndex::read_from(&mut data.as_slice()).is_err() || data.len() > 64);
        }

        /// Truncation at any point is a clean error.
        #[test]
        fn truncation_is_clean_error(frac in 0.0f64..0.999) {
            let buf = serialized_region();
            let cut = (buf.len() as f64 * frac) as usize;
            prop_assert!(RegionIndex::read_from(&mut &buf[..cut]).is_err());
        }
    }
}
