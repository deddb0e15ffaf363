//! The pre-processing pipeline in slow motion: landmark filtering, the
//! CLUSTERMINIMIZATION approximation (GREEDYSEARCH) with its probe
//! trace, and the Theorem 6 guarantee checked against the instance.
//!
//! ```sh
//! cargo run --release --example discretize_region
//! ```

use xhare_a_ride::discretize::greedy_search::greedy_search;
use xhare_a_ride::discretize::ilp::ClusterIlp;
use xhare_a_ride::discretize::landmarks::filter_landmarks;
use xhare_a_ride::discretize::LandmarkMetric;
use xhare_a_ride::roadnet::{prune_insignificant, sample_pois, CityConfig, PoiConfig};

fn main() {
    let graph = CityConfig::manhattan(45, 45, 31).generate();
    println!(
        "road network: {} way-points, {} segments",
        graph.node_count(),
        graph.edge_count()
    );

    // POIs: the Google-Places stand-in, then the paper's two filters.
    let pois = sample_pois(
        &graph,
        &PoiConfig {
            count: 2_500,
            ..Default::default()
        },
    );
    let significant = prune_insignificant(&pois);
    println!(
        "POIs: {} sampled -> {} significant (minor amenities pruned, as in §X.A.3)",
        pois.len(),
        significant.len()
    );
    let f = 220.0;
    let landmarks = filter_landmarks(&graph, &pois, f);
    println!(
        "landmark filter (f = {f} m): {} landmarks survive",
        landmarks.len()
    );

    // Pairwise driving distances (parallel Dijkstra per landmark).
    let metric = LandmarkMetric::compute(&graph, &landmarks);
    println!(
        "inter-landmark distance table: {} x {} ({:.1} MiB)",
        metric.len(),
        metric.len(),
        metric.heap_bytes() as f64 / (1024.0 * 1024.0)
    );

    // GREEDYSEARCH for several deltas, with the probe trace the paper's
    // pseudo-code records.
    for delta in [150.0, 250.0, 500.0] {
        let out = greedy_search(&metric, delta);
        println!("\nGREEDYSEARCH(delta = {delta} m):");
        for probe in &out.trace {
            println!(
                "  probe k = {:>4} -> GREEDY radius {:>7.0} m  ({})",
                probe.k,
                probe.radius,
                if probe.radius <= 2.0 * delta {
                    "feasible, go lower"
                } else {
                    "> 2 delta, go higher"
                }
            );
        }
        let c = &out.clustering;
        let diameter = c.max_diameter(&metric);
        println!(
            "  k_ALG = {} clusters | radius {:.0} m (≤ 2 delta = {:.0}) | diameter {:.0} m (≤ 4 delta = {:.0})",
            c.k,
            c.radius,
            2.0 * delta,
            diameter,
            4.0 * delta
        );
        assert!(
            c.radius <= 2.0 * delta + 1e-9,
            "Theorem 6 radius bound violated"
        );
        assert!(
            diameter <= 4.0 * delta + 1e-9,
            "Theorem 6 diameter bound violated"
        );

        // ILP view of the same instance.
        let ilp = ClusterIlp::new(&metric, 4.0 * delta);
        println!(
            "  ILP at the stretched threshold: {} variables, {} constraints, feasible = {}",
            ilp.variable_count(),
            ilp.constraint_count(),
            ilp.is_feasible(c)
        );
        println!(
            "  independent-set lower bound at delta: >= {} clusters needed",
            ClusterIlp::new(&metric, delta).independent_set_lower_bound()
        );
    }
}
