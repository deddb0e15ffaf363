//! Property-based tests of the road-network substrate.

use std::sync::Arc;

use proptest::prelude::*;
use xar_geo::GeoPoint;
use xar_roadnet::{
    CityConfig, CostMetric, Direction, NodeId, NodeLocator, RoadClass, RoadGraph, RoadGraphBuilder,
    Route, Router, ShortestPaths,
};

fn graph() -> &'static RoadGraph {
    use std::sync::OnceLock;
    static G: OnceLock<RoadGraph> = OnceLock::new();
    G.get_or_init(|| CityConfig::test_city(2718).generate())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 40, ..ProptestConfig::default() })]

    /// Driving distance is a quasi-metric: non-negative, zero iff the
    /// endpoints coincide (on a strongly connected city), and satisfies
    /// the directed triangle inequality.
    #[test]
    fn driving_distance_is_a_quasi_metric(a in 0u32..380, b in 0u32..380, c in 0u32..380) {
        let g = graph();
        let n = g.node_count() as u32;
        let (a, b, c) = (NodeId(a % n), NodeId(b % n), NodeId(c % n));
        let sp = ShortestPaths::driving(g);
        let dab = sp.cost(a, b).expect("strongly connected");
        let dbc = sp.cost(b, c).expect("strongly connected");
        let dac = sp.cost(a, c).expect("strongly connected");
        prop_assert!(dab >= 0.0);
        prop_assert_eq!(dab == 0.0, a == b);
        prop_assert!(dac <= dab + dbc + 1e-6, "triangle violated: {} > {} + {}", dac, dab, dbc);
    }

    /// Walking (undirected) distance is symmetric and never exceeds the
    /// driving distance.
    #[test]
    fn walking_le_driving_and_symmetric(a in 0u32..380, b in 0u32..380) {
        let g = graph();
        let n = g.node_count() as u32;
        let (a, b) = (NodeId(a % n), NodeId(b % n));
        let walk = ShortestPaths::walking(g);
        let drive = ShortestPaths::driving(g);
        let wab = walk.cost(a, b).expect("connected");
        let wba = walk.cost(b, a).expect("connected");
        prop_assert!((wab - wba).abs() < 1e-6, "walking asymmetric: {} vs {}", wab, wba);
        let dab = drive.cost(a, b).expect("connected");
        prop_assert!(wab <= dab + 1e-6, "walking {} beats driving {}", wab, dab);
    }

    /// Any shortest-path distance dominates the crow-flies distance.
    #[test]
    fn road_distance_dominates_haversine(a in 0u32..380, b in 0u32..380) {
        let g = graph();
        let n = g.node_count() as u32;
        let (a, b) = (NodeId(a % n), NodeId(b % n));
        let sp = ShortestPaths::driving(g);
        let d = sp.cost(a, b).expect("connected");
        let crow = g.point(a).haversine_m(&g.point(b));
        prop_assert!(d >= crow - 1.0, "road {} < crow {}", d, crow);
    }

    /// `bounded_from` agrees exactly with full Dijkstra inside the
    /// bound and never reports nodes beyond it.
    #[test]
    fn bounded_matches_one_to_all(src in 0u32..380, bound in 100.0f64..2_500.0) {
        let g = graph();
        let n = g.node_count() as u32;
        let src = NodeId(src % n);
        let sp = ShortestPaths::driving(g);
        let all = sp.one_to_all(src);
        let bounded = sp.bounded_from(src, bound);
        let map: std::collections::HashMap<u32, f64> =
            bounded.iter().map(|&(n, d)| (n.0, d)).collect();
        for (node, &d) in all.iter().enumerate() {
            if d <= bound {
                let got = map.get(&(node as u32)).copied();
                prop_assert_eq!(got, Some(d), "node {} missing or wrong in bounded", node);
            } else {
                prop_assert!(!map.contains_key(&(node as u32)));
            }
        }
    }

    /// `Router::path` is the Dijkstra oracle, exactly: same reachability,
    /// bit-identical `dist_m`, same node sequence — on random cities of
    /// all three topologies (the Manhattan ones with half their streets
    /// one-way). Edge lengths are haversines of jittered or random
    /// coordinates, so shortest paths are unique and the sequences
    /// must agree.
    #[test]
    fn router_equals_dijkstra(
        kind in 0usize..3,
        seed in 0u64..10_000,
        a in 0u32..100_000,
        b in 0u32..100_000,
    ) {
        let config = match kind {
            0 => CityConfig::manhattan(12, 14, seed),
            1 => CityConfig::radial(6, 10, seed),
            _ => CityConfig::random_geometric(150, seed),
        };
        let g = Arc::new(config.generate());
        let router = Router::new(Arc::clone(&g));
        let oracle = ShortestPaths::driving(&g);
        let n = g.node_count() as u32;
        for k in 0..16u32 {
            let (src, dst) = (NodeId((a + k * 7_919) % n), NodeId((b + k * 104_729) % n));
            match (oracle.path(src, dst), router.path(src, dst)) {
                (Some(want), Some(got)) => {
                    prop_assert_eq!(want.dist_m.to_bits(), got.dist_m.to_bits());
                    prop_assert_eq!(want.nodes, got.nodes);
                }
                (None, None) => {}
                (want, got) => prop_assert!(
                    false,
                    "{:?}->{:?}: reachability differs: {:?} vs {:?}", src, dst, want, got
                ),
            }
        }
    }

    /// The bucket-ring `one_to_all` is heap Dijkstra to the last bit:
    /// every node's label equals `ShortestPaths::path`'s cost, for both
    /// metrics and all three directions, on all three topologies.
    #[test]
    fn one_to_all_equals_path_bit_for_bit(
        kind in 0usize..3,
        seed in 0u64..10_000,
        metric in 0usize..2,
        direction in 0usize..3,
        src in 0u32..100_000,
    ) {
        let config = match kind {
            0 => CityConfig::manhattan(12, 14, seed),
            1 => CityConfig::radial(6, 10, seed),
            _ => CityConfig::random_geometric(150, seed),
        };
        let g = config.generate();
        let src = NodeId(src % g.node_count() as u32);
        let sp = ShortestPaths::new(&g, METRICS[metric], DIRECTIONS[direction]);
        if let Some(diff) = one_to_all_differs_from_path(&sp, src) {
            prop_assert!(false, "{}", diff);
        }
    }

    /// `NodeLocator::nearest` is `argmin (haversine, id)` over the whole
    /// graph — for every bucket size, on all three topologies, for
    /// queries inside the city, on its edge and well outside its
    /// bounding box (where the query is clamped to a boundary cell).
    #[test]
    fn nearest_equals_brute_force(
        kind in 0usize..3,
        seed in 0u64..10_000,
        cell_m in 40.0f64..900.0,
        queries in proptest::collection::vec((-0.6f64..1.6, -0.6f64..1.6), 1..24),
    ) {
        let config = match kind {
            0 => CityConfig::manhattan(12, 14, seed),
            1 => CityConfig::radial(6, 10, seed),
            _ => CityConfig::random_geometric(150, seed),
        };
        let g = config.generate();
        let locator = NodeLocator::new(&g, cell_m);
        let (mut lo, mut hi) = (g.point(NodeId(0)), g.point(NodeId(0)));
        for n in g.node_ids() {
            let p = g.point(n);
            lo = GeoPoint::new(lo.lat.min(p.lat), lo.lon.min(p.lon));
            hi = GeoPoint::new(hi.lat.max(p.lat), hi.lon.max(p.lon));
        }
        for (fy, fx) in queries {
            let q = GeoPoint::new(lo.lat + fy * (hi.lat - lo.lat), lo.lon + fx * (hi.lon - lo.lon));
            let want = g
                .node_ids()
                .map(|n| (n, g.point(n).haversine_m(&q)))
                .min_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)))
                .unwrap();
            prop_assert_eq!(locator.nearest(&g, &q), want, "query {:?}, cells {} m", q, cell_m);
        }
    }

    /// Splicing a route with the exact segment it already contains is
    /// the identity; splicing with a detour adds exactly the detour's
    /// extra length.
    #[test]
    fn splice_length_accounting(a in 0u32..380, b in 0u32..380, via in 0u32..380) {
        let g = graph();
        let n = g.node_count() as u32;
        let (a, b, via) = (NodeId(a % n), NodeId(b % n), NodeId(via % n));
        prop_assume!(a != b);
        let sp = ShortestPaths::driving(g);
        let base = Route::from_path_result(g, &sp.path(a, b).expect("connected")).unwrap();
        let last = base.len() - 1;

        // Identity splice over the full span.
        let same = base.splice(0, last, &base);
        prop_assert_eq!(&same, &base);

        // Detour splice: a -> via -> b over the full span.
        let leg1 = Route::from_path_result(g, &sp.path(a, via).expect("connected")).unwrap();
        let leg2 = Route::from_path_result(g, &sp.path(via, b).expect("connected")).unwrap();
        let detour = leg1.concat(&leg2);
        let spliced = base.splice(0, last, &detour);
        prop_assert!((spliced.dist_m() - detour.dist_m()).abs() < 1e-6);
        prop_assert!(spliced.dist_m() >= base.dist_m() - 1e-6, "splice shortened a shortest path");
        // Cumulative arrays stay monotone.
        for i in 1..spliced.len() {
            prop_assert!(spliced.dist_at(i) >= spliced.dist_at(i - 1));
            prop_assert!(spliced.time_at(i) >= spliced.time_at(i - 1));
        }
    }

    /// position_at_time is monotone along the route (points advance).
    #[test]
    fn route_position_monotone(a in 0u32..380, b in 0u32..380) {
        let g = graph();
        let n = g.node_count() as u32;
        let (a, b) = (NodeId(a % n), NodeId(b % n));
        prop_assume!(a != b);
        let sp = ShortestPaths::driving_time(g);
        let route = Route::from_path_result(g, &sp.path(a, b).expect("connected")).unwrap();
        let total = route.duration_s();
        let mut prev_idx = 0usize;
        for step in 0..=10 {
            let t = total * step as f64 / 10.0;
            let idx = route.index_at_time(t);
            prop_assert!(idx >= prev_idx, "index went backwards");
            prev_idx = idx;
        }
        prop_assert_eq!(route.index_at_time(total + 1.0), route.len() - 1);
    }
}

const METRICS: [CostMetric; 2] = [CostMetric::Distance, CostMetric::Time];
const DIRECTIONS: [Direction; 3] = [
    Direction::Forward,
    Direction::Reverse,
    Direction::Undirected,
];

/// The first node whose `one_to_all` label from `src` differs in its
/// bits from `path`'s cost (`INFINITY` where `path` finds none).
fn one_to_all_differs_from_path(sp: &ShortestPaths<'_>, src: NodeId) -> Option<String> {
    let all = sp.one_to_all(src);
    sp.graph().node_ids().find_map(|dst| {
        let want = sp.cost(src, dst).unwrap_or(f64::INFINITY);
        let got = all[dst.index()];
        (got.to_bits() != want.to_bits()).then(|| format!("{src:?} -> {dst:?}: {got} vs {want}"))
    })
}

/// `one_to_all` ≡ `path` from every source of `g`, under both metrics
/// and all three directions.
fn assert_one_to_all_is_path_everywhere(g: &RoadGraph) {
    for metric in METRICS {
        for direction in DIRECTIONS {
            let sp = ShortestPaths::new(g, metric, direction);
            for src in g.node_ids() {
                if let Some(diff) = one_to_all_differs_from_path(&sp, src) {
                    panic!("{metric:?} {direction:?}: {diff}");
                }
            }
        }
    }
}

/// The shortest edge a graph can hold: 5e-324 m. It is a zero-length
/// edge in every sum but the first (`x + 5e-324 == x` for any label
/// `x` above 1e-307), and its free-flow time underflows to exactly 0 s.
const VANISHING_M: f64 = 5e-324;

/// Zero-cost edges and chains of them, beside 100–200 m streets: under
/// `Time` they cost exactly 0, so a relaxation over one re-enters the
/// bucket being drained. A graph of nothing but such edges has no
/// invertible bucket width and runs as one bucket.
#[test]
fn one_to_all_is_exact_over_zero_length_chains() {
    let mut b = RoadGraphBuilder::new();
    let ids: Vec<NodeId> = (0..16)
        .map(|i| b.add_node(GeoPoint::new(40.70, -74.0 + 0.001 * f64::from(i))))
        .collect();
    for i in 0..11 {
        let m = 100.0 + 9.0 * i as f64;
        if i % 3 == 0 {
            b.add_edge(ids[i], ids[i + 1], RoadClass::Street, Some(m));
        } else {
            b.add_two_way(ids[i], ids[i + 1], RoadClass::Avenue, Some(m));
        }
    }
    // A chain 0 -> 12 -> 13 -> 14 -> 6 of vanishing edges, a two-way
    // one across 3 <-> 15 <-> 9, and a vanishing one-way 10 -> 2.
    for (from, to) in [(0, 12), (12, 13), (13, 14), (14, 6), (10, 2)] {
        b.add_edge(ids[from], ids[to], RoadClass::Street, Some(VANISHING_M));
    }
    for (x, y) in [(3, 15), (15, 9)] {
        b.add_two_way(ids[x], ids[y], RoadClass::Street, Some(VANISHING_M));
    }
    assert_one_to_all_is_path_everywhere(&b.build());

    let mut b = RoadGraphBuilder::new();
    let ids: Vec<NodeId> = (0..6)
        .map(|i| b.add_node(GeoPoint::new(40.70, -74.0 + 0.001 * f64::from(i))))
        .collect();
    for w in ids.windows(2) {
        b.add_edge(w[0], w[1], RoadClass::Street, Some(VANISHING_M));
    }
    b.add_edge(ids[5], ids[0], RoadClass::Street, Some(VANISHING_M));
    assert_one_to_all_is_path_everywhere(&b.build());
}

/// 1 m streets beside 5 km highways: the lightest edge is below
/// `5000 / 4096`, so the bucket width is floored there and a 1 m
/// relaxation lands in the bucket being drained, relabelling nodes it
/// has already processed.
#[test]
fn one_to_all_is_exact_with_1_m_and_5_km_edges() {
    const SIDE: usize = 9;
    let mut b = RoadGraphBuilder::new();
    let ids: Vec<NodeId> = (0..SIDE * SIDE)
        .map(|i| {
            b.add_node(GeoPoint::new(
                40.70 + 0.009 * (i / SIDE) as f64,
                -74.0 + 0.012 * (i % SIDE) as f64,
            ))
        })
        .collect();
    let length = |i: usize| match i % 7 {
        0 | 4 => 5_000.0 - 0.25 * (i % 5) as f64,
        _ => 1.0 + 0.13 * (i % 11) as f64,
    };
    for r in 0..SIDE {
        for c in 0..SIDE {
            let v = r * SIDE + c;
            if c + 1 < SIDE {
                b.add_two_way(ids[v], ids[v + 1], RoadClass::Street, Some(length(3 * v)));
            }
            if r + 1 < SIDE {
                b.add_edge(
                    ids[v],
                    ids[v + SIDE],
                    RoadClass::Street,
                    Some(length(3 * v + 1)),
                );
                b.add_edge(
                    ids[v + SIDE],
                    ids[v],
                    RoadClass::Highway,
                    Some(length(3 * v + 2)),
                );
            }
        }
    }
    assert_one_to_all_is_path_everywhere(&b.build());
}

/// Unreachable nodes keep `INFINITY`: ring B is reached from ring A
/// over a one-way bridge but does not reach back, ring C is an island,
/// and one node has no edge at all.
#[test]
fn one_to_all_leaves_unreachable_nodes_infinite() {
    let mut b = RoadGraphBuilder::new();
    let ring_a = add_ring(&mut b, 7, 40.70, 100.0);
    let ring_b = add_ring(&mut b, 6, 40.71, 140.0);
    add_ring(&mut b, 5, 40.72, 90.0);
    b.add_edge(ring_a[3], ring_b[0], RoadClass::Street, Some(55.0));
    let lone = b.add_node(GeoPoint::new(40.73, -74.0));
    let g = b.build();
    assert_one_to_all_is_path_everywhere(&g);
    let all = ShortestPaths::driving(&g).one_to_all(ring_b[2]);
    assert!(all[ring_a[0].index()].is_infinite() && all[lone.index()].is_infinite());
}

/// Router ≡ oracle over every ordered pair of `g` (full equality:
/// reachability, cost bits, node sequence).
fn assert_router_is_oracle_on_all_pairs(g: RoadGraph) {
    let g = Arc::new(g);
    let router = Router::new(Arc::clone(&g));
    let oracle = ShortestPaths::driving(&g);
    for src in g.node_ids() {
        for dst in g.node_ids() {
            assert_eq!(
                router.path(src, dst),
                oracle.path(src, dst),
                "{src:?} -> {dst:?}"
            );
        }
    }
}

/// A two-way ring of `len` nodes with distinct edge lengths, returned
/// as its node ids.
fn add_ring(b: &mut RoadGraphBuilder, len: usize, lat: f64, base_m: f64) -> Vec<NodeId> {
    let ids: Vec<NodeId> = (0..len)
        .map(|i| b.add_node(GeoPoint::new(lat, -74.0 + 0.001 * i as f64)))
        .collect();
    for i in 0..len {
        let m = base_m + 13.0 * i as f64 + 0.37 * (i * i) as f64;
        b.add_two_way(ids[i], ids[(i + 1) % len], RoadClass::Street, Some(m));
    }
    ids
}

#[test]
fn router_path_to_self_is_the_single_node() {
    let g = Arc::new(CityConfig::test_city(11).generate());
    let router = Router::new(Arc::clone(&g));
    let p = router
        .path(NodeId(9), NodeId(9))
        .expect("a node reaches itself");
    assert_eq!((p.nodes, p.dist_m, p.time_s), (vec![NodeId(9)], 0.0, 0.0));
}

#[test]
fn router_returns_none_for_an_unreachable_pair() {
    let mut b = RoadGraphBuilder::new();
    let a = b.add_node(GeoPoint::new(40.70, -74.00));
    let c = b.add_node(GeoPoint::new(40.71, -74.00));
    b.add_edge(a, c, RoadClass::Street, Some(10.0));
    let g = Arc::new(b.build());
    let router = Router::new(Arc::clone(&g));
    assert!(router.path(c, a).is_none());
    assert_eq!(router.path(a, c).map(|p| p.dist_m), Some(10.0));
}

/// Landmarks cut off from part of the graph put ∞ into the table.
/// Ring A reaches ring B over a one-way bridge but not back, and ring C
/// is an island, so wherever the landmarks fall some rows hold ∞ on
/// one side and C's hold it on both: the bound meets `∞ − ∞` (NaN,
/// must be ignored), `finite − ∞` (−∞, ignored) and `∞ − finite` (∞:
/// the target really is unreachable). None of it may turn into
/// NaN-driven pruning or a wrong `None`.
#[test]
fn router_is_exact_when_landmarks_are_cut_off() {
    let mut b = RoadGraphBuilder::new();
    let ring_a = add_ring(&mut b, 7, 40.70, 100.0);
    let ring_b = add_ring(&mut b, 6, 40.71, 140.0);
    add_ring(&mut b, 5, 40.72, 90.0);
    b.add_edge(ring_a[3], ring_b[0], RoadClass::Street, Some(55.0));
    assert_router_is_oracle_on_all_pairs(b.build());
}

/// An un-jittered lattice of 1 km blocks: most pairs have many shortest
/// paths of exactly equal cost (sums of 1000.0 are exact in `f64`), so
/// the router may return a different one than Dijkstra — only the cost
/// is pinned, and it must be equal to the last bit.
#[test]
fn router_cost_is_exact_on_a_lattice_of_ties() {
    const SIDE: usize = 6;
    let mut b = RoadGraphBuilder::new();
    let ids: Vec<NodeId> = (0..SIDE * SIDE)
        .map(|i| {
            b.add_node(GeoPoint::new(
                40.70 + 0.009 * (i / SIDE) as f64,
                -74.0 + 0.012 * (i % SIDE) as f64,
            ))
        })
        .collect();
    for r in 0..SIDE {
        for c in 0..SIDE {
            if c + 1 < SIDE {
                b.add_two_way(
                    ids[r * SIDE + c],
                    ids[r * SIDE + c + 1],
                    RoadClass::Street,
                    Some(1000.0),
                );
            }
            if r + 1 < SIDE {
                b.add_two_way(
                    ids[r * SIDE + c],
                    ids[(r + 1) * SIDE + c],
                    RoadClass::Street,
                    Some(1000.0),
                );
            }
        }
    }
    let g = Arc::new(b.build());
    let router = Router::new(Arc::clone(&g));
    let oracle = ShortestPaths::driving(&g);
    for src in g.node_ids() {
        for dst in g.node_ids() {
            let want = oracle.path(src, dst).expect("lattice is connected").dist_m;
            let got = router.path(src, dst).expect("lattice is connected");
            assert_eq!(got.dist_m, want, "{src:?} -> {dst:?}");
            assert_eq!(
                (got.nodes.first(), got.nodes.last()),
                (Some(&src), Some(&dst))
            );
        }
    }
}
