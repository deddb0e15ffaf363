//! The Theorem 4 reduction, executable: CLUSTERMINIMIZATION on a
//! threshold metric is exactly *minimum clique cover* on the graph
//! whose edges join landmark pairs at distance ≤ δ. These tests encode
//! classic graphs as CLUSTERMINIMIZATION instances and check the exact
//! solver recovers their known clique-cover numbers — and that the
//! GREEDYSEARCH bicriteria guarantee holds relative to those optima.

use xar_discretize::exact::exact_min_clusters;
use xar_discretize::greedy_search::greedy_search;
use xar_discretize::ilp::ClusterIlp;
use xar_discretize::kcenter::FnMetric;

/// Encode a graph as a {1, 3}-threshold metric: adjacent vertices are
/// at distance 1, non-adjacent at 3 (a valid metric: 1+1 ≥ 3 fails —
/// so use 2 for non-adjacent? 1+1 = 2 ≥ 2 ✓). With δ = 1, a cluster is
/// precisely a clique.
fn graph_metric(n: usize, edges: &[(usize, usize)]) -> FnMetric<impl Fn(usize, usize) -> f64> {
    let mut adj = vec![vec![false; n]; n];
    for &(a, b) in edges {
        adj[a][b] = true;
        adj[b][a] = true;
    }
    FnMetric::new(n, move |i, j| {
        if i == j {
            0.0
        } else if adj[i][j] {
            1.0
        } else {
            2.0
        }
    })
}

#[test]
fn five_cycle_needs_three_cliques() {
    // C5: largest clique is an edge; cover number = ceil(5/2) = 3.
    let edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)];
    let m = graph_metric(5, &edges);
    let exact = exact_min_clusters(&m, 1.0);
    assert_eq!(exact.k, 3);
    // GREEDYSEARCH: no more clusters than optimal, diameter ≤ 4δ.
    let out = greedy_search(&m, 1.0);
    assert!(out.clustering.k <= 3);
    assert!(out.clustering.max_diameter(&m) <= 4.0);
}

#[test]
fn complete_graph_is_one_clique() {
    let n = 6;
    let edges: Vec<(usize, usize)> = (0..n)
        .flat_map(|i| ((i + 1)..n).map(move |j| (i, j)))
        .collect();
    let m = graph_metric(n, &edges);
    assert_eq!(exact_min_clusters(&m, 1.0).k, 1);
}

#[test]
fn empty_graph_needs_n_cliques() {
    let m = graph_metric(5, &[]);
    assert_eq!(exact_min_clusters(&m, 1.0).k, 5);
    // The independent-set lower bound is tight here.
    assert_eq!(ClusterIlp::new(&m, 1.0).independent_set_lower_bound(), 5);
}

#[test]
fn petersen_graph_cover_number() {
    // The Petersen graph is triangle-free: cliques are edges or
    // vertices; a perfect matching (5 edges) covers all 10 vertices, so
    // the clique cover number is 5.
    let edges = [
        // outer 5-cycle
        (0, 1),
        (1, 2),
        (2, 3),
        (3, 4),
        (4, 0),
        // spokes
        (0, 5),
        (1, 6),
        (2, 7),
        (3, 8),
        (4, 9),
        // inner pentagram
        (5, 7),
        (7, 9),
        (9, 6),
        (6, 8),
        (8, 5),
    ];
    let m = graph_metric(10, &edges);
    let exact = exact_min_clusters(&m, 1.0);
    assert_eq!(exact.k, 5);
    let ilp = ClusterIlp::new(&m, 1.0);
    assert!(ilp.is_feasible(&exact));
}

#[test]
fn bipartite_complete_k33() {
    // K_{3,3} is triangle-free: cliques are edges; perfect matching of
    // size 3 covers it.
    let edges = [
        (0, 3),
        (0, 4),
        (0, 5),
        (1, 3),
        (1, 4),
        (1, 5),
        (2, 3),
        (2, 4),
        (2, 5),
    ];
    let m = graph_metric(6, &edges);
    assert_eq!(exact_min_clusters(&m, 1.0).k, 3);
}

#[test]
fn two_triangles_sharing_a_vertex() {
    // Bowtie: {0,1,2} and {2,3,4} triangles → 2 cliques.
    let edges = [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)];
    let m = graph_metric(5, &edges);
    assert_eq!(exact_min_clusters(&m, 1.0).k, 2);
}

#[test]
fn greedy_search_respects_theorem6_on_all_reduction_instances() {
    let instances: Vec<(usize, Vec<(usize, usize)>)> = vec![
        (5, vec![(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]),
        (
            6,
            vec![
                (0, 3),
                (0, 4),
                (0, 5),
                (1, 3),
                (1, 4),
                (1, 5),
                (2, 3),
                (2, 4),
                (2, 5),
            ],
        ),
        (5, vec![(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)]),
        (4, vec![(0, 1), (2, 3)]),
    ];
    for (n, edges) in instances {
        let m = graph_metric(n, &edges);
        let exact = exact_min_clusters(&m, 1.0);
        let out = greedy_search(&m, 1.0);
        assert!(
            out.clustering.k <= exact.k,
            "n={n}: k_ALG {} > k_OPT {}",
            out.clustering.k,
            exact.k
        );
        assert!(out.clustering.max_diameter(&m) <= 4.0 + 1e-9);
    }
}
