//! The paper's headline invariant, asserted from the trace itself:
//! **XAR never computes a shortest path while searching** (§V — search
//! is pure table lookups; shortest paths happen only at ride-creation
//! and booking time).
//!
//! The engine instruments every shortest-path computation with a
//! `shortest_path` span, so the invariant has an observable form: in a
//! trace of a search-only workload, no `search` span tree contains a
//! `shortest_path` child. The same trace shows `create` trees *do*
//! contain them, proving the instrumentation would catch a violation —
//! the assertion is not vacuous.
//!
//! The same trace pins the **shape** of a search: `search →
//! {enumerate_src, enumerate_dst}`, one `enumerate_src` per servable
//! search, and no other child.
//!
//! Own integration binary: this test enables the process-global
//! recorder, which must stay disabled for every other test.

use std::sync::Arc;

use xar_core::{EngineConfig, RideOffer, RideRequest, XarEngine};
use xar_discretize::{ClusterGoal, RegionConfig, RegionIndex};
use xar_obs::chrome::{export_chrome, parse_chrome, SpanNode, Timeline};
use xar_obs::TraceConfig;
use xar_roadnet::{sample_pois, CityConfig, NodeId, PoiConfig};

/// Count spans named `name` anywhere in the tree.
fn count_named(node: &SpanNode, name: &str) -> usize {
    usize::from(node.name == name)
        + node
            .children
            .iter()
            .map(|c| count_named(c, name))
            .sum::<usize>()
}

/// Every span named `name` in the tree.
fn find_named<'a>(node: &'a SpanNode, name: &str, out: &mut Vec<&'a SpanNode>) {
    if node.name == name {
        out.push(node);
    }
    for c in &node.children {
        find_named(c, name, out);
    }
}

#[test]
fn search_trees_have_one_shape_and_no_shortest_path_spans() {
    let graph = Arc::new(CityConfig::test_city(31).generate());
    let pois = sample_pois(
        &graph,
        &PoiConfig {
            count: 400,
            ..Default::default()
        },
    );
    let region = Arc::new(RegionIndex::build(
        Arc::clone(&graph),
        &pois,
        RegionConfig {
            cluster_goal: ClusterGoal::Delta(200.0),
            ..Default::default()
        },
    ));
    let mut eng = XarEngine::new(region, EngineConfig::default());
    let n = graph.node_count() as u32;
    let counts = |eng: &XarEngine| {
        let s = eng.metrics().counts();
        (s.searches, s.shortest_paths)
    };

    // Keep every trace: the invariant must hold for all of them, not a
    // sample.
    let rec = xar_obs::trace::recorder();
    rec.clear();
    rec.configure(TraceConfig::keep_all());
    rec.set_enabled(true);

    // Phase 1 (traced): create rides. These trees SHOULD contain
    // shortest_path spans — they prove the tracer sees them.
    for i in 0..20u32 {
        let _root = rec.start_root("create_request");
        let _ = eng.create_ride(&RideOffer::simple(
            graph.point(NodeId((i * 37) % n)),
            graph.point(NodeId((i * 61 + n / 2) % n)),
            8.0 * 3600.0 + f64::from(i) * 60.0,
            3,
            3_000.0,
        ));
    }

    // Phase 2 (traced): a search-only workload.
    let (_, sps_before) = counts(&eng);
    for i in 0..50u32 {
        let _root = rec.start_root("search_request");
        let req = RideRequest {
            source: graph.point(NodeId((i * 13) % n)),
            destination: graph.point(NodeId((i * 29 + n / 3) % n)),
            window_start_s: 7.5 * 3600.0,
            window_end_s: 9.5 * 3600.0,
            walk_limit_m: 800.0,
        };
        let _ = eng.search(&req, usize::MAX);
    }
    let (searches, sps_after) = counts(&eng);

    rec.set_enabled(false);
    let json = export_chrome(&rec.snapshot());
    rec.clear();

    // The counter view of the invariant: 50 searches, zero new
    // shortest paths.
    assert!(searches >= 50);
    assert_eq!(
        sps_before, sps_after,
        "search advanced the shortest-path counter"
    );

    // The trace view: every search tree is shortest-path-free...
    let parsed = parse_chrome(&json).expect("export must parse");
    let timelines = Timeline::build(&parsed);
    let search_trees: Vec<&Timeline> = timelines
        .iter()
        .filter(|t| t.root.name == "search_request")
        .collect();
    assert_eq!(search_trees.len(), 50, "expected one kept trace per search");
    let mut full_pairs = 0usize;
    for t in &search_trees {
        let mut spans = Vec::new();
        find_named(&t.root, "search", &mut spans);
        assert_eq!(spans.len(), 1, "search tree lost its engine span");
        assert_eq!(
            count_named(&t.root, "shortest_path"),
            0,
            "shortest_path span inside a search tree (trace {})",
            t.trace
        );

        // ...and has the one shape: an `enumerate_src` if the search
        // was servable, an `enumerate_dst` if it also found a
        // source-side candidate, nothing else.
        let search = spans[0];
        let src = search
            .children
            .iter()
            .filter(|c| c.name == "enumerate_src")
            .count();
        let dst = search
            .children
            .iter()
            .filter(|c| c.name == "enumerate_dst")
            .count();
        assert_eq!(
            src + dst,
            search.children.len(),
            "unexpected child under search"
        );
        // `candidates` is set once candidate collection ran, i.e. on
        // servable requests.
        let servable = search.attrs.iter().any(|(k, _)| k == "candidates");
        assert_eq!(
            src,
            usize::from(servable),
            "one enumerate_src per servable search"
        );
        assert!(dst <= src, "{src} src / {dst} dst spans");
        full_pairs += dst;
    }
    assert!(
        full_pairs > 0,
        "no search reached enumerate_dst — shape check vacuous"
    );

    // ...while create trees do contain them, so the absence above is
    // meaningful.
    let create_sp: usize = timelines
        .iter()
        .filter(|t| t.root.name == "create_request")
        .map(|t| count_named(&t.root, "shortest_path"))
        .sum();
    assert!(
        create_sp > 0,
        "create trees show no shortest_path spans — tracer blind?"
    );
}
