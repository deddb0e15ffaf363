//! Routing is exact: the region's ALT router returns plain Dijkstra's
//! path.
//!
//! Ride creation and booking compute every shortest path through
//! `RegionIndex::router()` (§VI, §VIII.B). The generated cities jitter
//! their edge lengths, so shortest paths are unique, and the router
//! must return the node sequence, length and driving time of the
//! textbook Dijkstra in `ShortestPaths::path` bit for bit. Any speed-up
//! of the router that changes a pop order or a key shows up here as a
//! different path or a different last bit.

use std::sync::Arc;

use xhare_a_ride::discretize::{ClusterGoal, RegionConfig, RegionIndex};
use xhare_a_ride::roadnet::{sample_pois, CityConfig, NodeId, PoiConfig, ShortestPaths};

/// Pairs compared on the 40×40 city, every `SELF_EVERY`-th of them a
/// self pair.
const PAIRS: usize = 480;
/// Pairs compared on the 140×140 city of the `metro` workload.
const METRO_PAIRS: usize = 1_200;
const SELF_EVERY: usize = 16;

/// splitmix64: a seeded stream of pair end-points.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Build the region of a `side`×`side` lattice city and hold its
/// router to plain Dijkstra on `pairs` seeded pairs.
fn router_equals_dijkstra_on(side: usize, pois: usize, pairs: usize) {
    let graph = Arc::new(CityConfig::manhattan(side, side, 0xC17).generate());
    let pois = sample_pois(
        &graph,
        &PoiConfig {
            count: pois,
            ..Default::default()
        },
    );
    let region = RegionIndex::build(
        Arc::clone(&graph),
        &pois,
        RegionConfig {
            landmark_separation_m: 220.0,
            cluster_goal: ClusterGoal::Delta(250.0),
            max_walk_m: 1_000.0,
            ..Default::default()
        },
    );
    let router = region.router();
    let oracle = ShortestPaths::driving(&graph);
    let n = graph.node_count() as u64;
    let mut state = 0xC17;
    let mut self_pairs = 0;
    for k in 0..pairs {
        let a = NodeId((next(&mut state) % n) as u32);
        let b = if k % SELF_EVERY == 0 {
            a
        } else {
            NodeId((next(&mut state) % n) as u32)
        };
        self_pairs += usize::from(a == b);
        let want = oracle
            .path(a, b)
            .expect("the lattice is strongly connected");
        let got = router
            .path(a, b)
            .expect("the router reaches what Dijkstra reaches");
        assert_eq!(got.nodes, want.nodes, "{a:?} -> {b:?}: node sequence");
        assert_eq!(
            got.dist_m.to_bits(),
            want.dist_m.to_bits(),
            "{a:?} -> {b:?}: dist_m"
        );
        assert_eq!(
            got.time_s.to_bits(),
            want.time_s.to_bits(),
            "{a:?} -> {b:?}: time_s"
        );
        if a == b {
            assert_eq!((got.nodes.as_slice(), got.dist_m), ([a].as_slice(), 0.0));
        }
    }
    assert!(self_pairs >= pairs / SELF_EVERY, "self pairs are covered");
}

#[test]
fn region_router_returns_dijkstras_path_bit_for_bit() {
    router_equals_dijkstra_on(40, 800, PAIRS);
}

/// The largest benchmark city, where the distances are longest and so
/// the router's `f32` table rounds most. Slow in a debug build: CI runs
/// it in release with `--ignored`.
#[test]
#[ignore = "metro-sized; run in release: cargo test --release --test routing_exact -- --ignored"]
fn region_router_returns_dijkstras_path_on_the_metro_city() {
    router_equals_dijkstra_on(140, 9_800, METRO_PAIRS);
}
