//! Property-based tests of the runtime unit: search results are always
//! feasible and complete w.r.t. an index oracle, arbitrary operation
//! sequences preserve the engine invariants, and the search's rejection
//! attribution obeys one law on every storage layout.

use std::sync::Arc;

use proptest::prelude::*;
use xar_core::{
    EngineConfig, RideMatch, RideOffer, RideRequest, SearchExplain, ShardedXarEngine, XarEngine,
};
use xar_discretize::{ClusterGoal, ClusterId, RegionConfig, RegionIndex};
use xar_roadnet::{sample_pois, CityConfig, NodeId, PoiConfig, RoadGraph};

/// One shared region per test binary: building it is the expensive part
/// and it is immutable.
fn region() -> &'static Arc<RegionIndex> {
    use std::sync::OnceLock;
    static REGION: OnceLock<Arc<RegionIndex>> = OnceLock::new();
    REGION.get_or_init(|| {
        let graph = Arc::new(CityConfig::manhattan(25, 25, 1234).generate());
        let pois = sample_pois(&graph, &PoiConfig { count: 600, ..Default::default() });
        Arc::new(RegionIndex::build(
            graph,
            &pois,
            RegionConfig { cluster_goal: ClusterGoal::Delta(200.0), ..Default::default() },
        ))
    })
}

fn graph() -> &'static Arc<RoadGraph> {
    region().graph()
}

/// Random operation in a simulated session.
#[derive(Debug, Clone)]
enum Op {
    Create { src: u32, dst: u32, depart_min: u16, seats: u8, detour_km: u8 },
    SearchAndMaybeBook { src: u32, dst: u32, at_min: u16, walk_m: u16, book: bool },
    Track { at_min: u16 },
}

fn op_strategy(n_nodes: u32) -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (0..n_nodes, 0..n_nodes, 400u16..900, 1u8..=3, 1u8..=5).prop_map(
            |(src, dst, depart_min, seats, detour_km)| Op::Create {
                src,
                dst,
                depart_min,
                seats,
                detour_km
            }
        ),
        4 => (0..n_nodes, 0..n_nodes, 400u16..900, 100u16..900, any::<bool>()).prop_map(
            |(src, dst, at_min, walk_m, book)| Op::SearchAndMaybeBook { src, dst, at_min, walk_m, book }
        ),
        1 => (400u16..1000).prop_map(|at_min| Op::Track { at_min }),
    ]
}

/// The serial engine or a sharded one, behind the four calls a random
/// session makes — so one schedule can drive every storage layout.
enum AnyEngine {
    Serial(Box<XarEngine>),
    Sharded(ShardedXarEngine),
}

impl AnyEngine {
    fn create(&mut self, offer: &RideOffer) -> Option<u64> {
        match self {
            AnyEngine::Serial(e) => e.create_ride(offer),
            AnyEngine::Sharded(e) => e.create_ride(offer),
        }
        .ok()
        .map(|id| id.0)
    }

    /// All matches plus the attribution; an erroring search has no
    /// matches and carries its hard reason in the explain.
    fn search(&self, req: &RideRequest) -> (Vec<RideMatch>, SearchExplain) {
        let mut explain = SearchExplain::default();
        let mut out = Vec::new();
        match self {
            AnyEngine::Serial(e) => {
                out = e.search_explained(req, usize::MAX, &mut explain).unwrap_or_default();
            }
            AnyEngine::Sharded(e) => {
                let _ = e.search_into_explained(req, usize::MAX, &mut out, &mut explain);
            }
        }
        (out, explain)
    }

    fn book(&mut self, m: &RideMatch) -> bool {
        match self {
            AnyEngine::Serial(e) => e.book(m).is_ok(),
            AnyEngine::Sharded(e) => e.book(m).is_ok(),
        }
    }

    fn track(&mut self, now_s: f64) -> usize {
        match self {
            AnyEngine::Serial(e) => e.track_all(now_s),
            AnyEngine::Sharded(e) => e.track_all(now_s),
        }
    }
}

/// Check every cross-structure invariant of the engine.
fn assert_invariants(eng: &XarEngine) {
    // Ride-side state.
    for ride in eng.rides() {
        assert!(
            ride.seats_available as usize + ride.bookings.len() <= 255,
            "seat accounting overflow"
        );
        let total: f64 = ride.bookings.iter().map(|b| b.detour_m).sum();
        assert!((total - ride.detour_used_m).abs() < 1e-6, "detour ledger drifted");
        for w in ride.via_points.windows(2) {
            assert!(w[0].route_idx <= w[1].route_idx, "via-points out of order");
        }
        for v in &ride.via_points {
            assert_eq!(ride.route.nodes()[v.route_idx], v.node, "via node off route");
        }
        for p in &ride.pass_clusters {
            assert!(p.route_idx <= p.exit_idx);
            assert!(p.exit_idx < ride.route.len());
        }
    }
    // Index <-> ride-state agreement.
    let mut expected = std::collections::HashSet::new();
    for ride in eng.rides() {
        for p in &ride.pass_clusters {
            expected.insert((p.cluster, ride.id));
            for &(c, _, _) in &p.reachable {
                expected.insert((c, ride.id));
            }
        }
    }
    let mut actual = std::collections::HashSet::new();
    for c in 0..eng.region().cluster_count() as u32 {
        for e in eng.index().entries_of(ClusterId(c)) {
            actual.insert((ClusterId(c), e.ride));
            assert!(e.detour_m >= 0.0);
        }
    }
    assert_eq!(actual, expected, "cluster index diverged from ride state");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Every match returned by search is feasible against the engine's
    /// own state (walks, window, ordering, seats, detour budget).
    #[test]
    fn search_results_are_feasible(
        seeds in proptest::collection::vec((0u32..625, 0u32..625, 420u16..540), 1..12),
        q_src in 0u32..625,
        q_dst in 0u32..625,
        walk in 200u16..900,
    ) {
        let g = graph();
        let n = g.node_count() as u32;
        let mut eng = XarEngine::new(Arc::clone(region()), EngineConfig::default());
        for (s, d, m) in seeds {
            let _ = eng.create_ride(&RideOffer {
                source: g.point(NodeId(s % n)),
                destination: g.point(NodeId(d % n)),
                departure_s: f64::from(m) * 60.0,
                seats: 3,
                detour_limit_m: 3_000.0, driver: None, via: Vec::new(),
            });
        }
        let req = RideRequest {
            source: g.point(NodeId(q_src % n)),
            destination: g.point(NodeId(q_dst % n)),
            window_start_s: 420.0 * 60.0,
            window_end_s: 560.0 * 60.0,
            walk_limit_m: f64::from(walk),
        };
        let Ok(matches) = eng.search(&req, usize::MAX) else { return Ok(()) };
        for m in &matches {
            prop_assert!(m.walk_total_m() <= req.walk_limit_m + 1e-9);
            prop_assert!(m.eta_pickup_s >= req.window_start_s - 1e-9);
            prop_assert!(m.eta_pickup_s <= req.window_end_s + 1e-9);
            prop_assert!(m.eta_pickup_s < m.eta_dropoff_s);
            prop_assert!(m.pickup_cluster != m.dropoff_cluster);
            let ride = eng.ride(m.ride).expect("matched ride exists");
            prop_assert!(ride.seats_available > 0);
            prop_assert!(m.detour_est_m <= ride.detour_remaining_m() + 1e-9);
        }
        // Determinism: searching twice yields identical results.
        let again = eng.search(&req, usize::MAX).unwrap();
        prop_assert_eq!(matches, again);
    }

    /// Search is complete w.r.t. the index oracle: any ride with a
    /// window-compatible entry in a walkable source cluster AND a later
    /// entry in a walkable destination cluster that passes the final
    /// checks must be returned.
    #[test]
    fn search_is_complete_against_oracle(
        seeds in proptest::collection::vec((0u32..625, 0u32..625, 430u16..520), 1..10),
        q_src in 0u32..625,
        q_dst in 0u32..625,
    ) {
        let g = graph();
        let n = g.node_count() as u32;
        let reg = region();
        let mut eng = XarEngine::new(Arc::clone(reg), EngineConfig::default());
        for (s, d, m) in seeds {
            let _ = eng.create_ride(&RideOffer {
                source: g.point(NodeId(s % n)),
                destination: g.point(NodeId(d % n)),
                departure_s: f64::from(m) * 60.0,
                seats: 3,
                detour_limit_m: 3_000.0, driver: None, via: Vec::new(),
            });
        }
        let req = RideRequest {
            source: g.point(NodeId(q_src % n)),
            destination: g.point(NodeId(q_dst % n)),
            window_start_s: 430.0 * 60.0,
            window_end_s: 540.0 * 60.0,
            walk_limit_m: 700.0,
        };
        let Ok(matches) = eng.search(&req, usize::MAX) else { return Ok(()) };
        let returned: std::collections::HashSet<_> = matches.iter().map(|m| m.ride).collect();

        // Oracle: brute-force over (src walkable cluster, dst walkable
        // cluster, ride) triples.
        let src_node = reg.snap(&req.source);
        let dst_node = reg.snap(&req.destination);
        for ride in eng.rides() {
            let mut feasible = false;
            'outer: for ws in reg.walkable_within(src_node, req.walk_limit_m) {
                let Some(se) = eng.index().get(ws.cluster, ride.id) else { continue };
                if se.eta_s < req.window_start_s || se.eta_s > req.window_end_s {
                    continue;
                }
                for wd in reg.walkable_within(dst_node, req.walk_limit_m) {
                    if wd.cluster == ws.cluster {
                        continue;
                    }
                    let Some(de) = eng.index().get(wd.cluster, ride.id) else { continue };
                    if de.eta_s <= se.eta_s
                        || de.eta_s < req.window_start_s
                        || de.seg < se.seg
                        || de.pass_route_idx < se.pass_route_idx
                    {
                        continue;
                    }
                    if f64::from(ws.walk_m) + f64::from(wd.walk_m) > req.walk_limit_m {
                        continue;
                    }
                    if se.detour_m + de.detour_m > ride.detour_remaining_m() {
                        continue;
                    }
                    feasible = true;
                    break 'outer;
                }
            }
            if feasible {
                prop_assert!(
                    returned.contains(&ride.id),
                    "oracle says ride {:?} is feasible but search missed it",
                    ride.id
                );
            }
        }
    }

    /// Arbitrary create/search-book/track sequences preserve every
    /// engine invariant.
    #[test]
    fn random_sessions_preserve_invariants(
        ops in proptest::collection::vec(op_strategy(625), 1..30)
    ) {
        let g = graph();
        let n = g.node_count() as u32;
        let mut eng = XarEngine::new(Arc::clone(region()), EngineConfig::default());
        for op in ops {
            match op {
                Op::Create { src, dst, depart_min, seats, detour_km } => {
                    let _ = eng.create_ride(&RideOffer {
                        source: g.point(NodeId(src % n)),
                        destination: g.point(NodeId(dst % n)),
                        departure_s: f64::from(depart_min) * 60.0,
                        seats,
                        detour_limit_m: f64::from(detour_km) * 1_000.0, driver: None, via: Vec::new(),
                    });
                }
                Op::SearchAndMaybeBook { src, dst, at_min, walk_m, book } => {
                    let req = RideRequest {
                        source: g.point(NodeId(src % n)),
                        destination: g.point(NodeId(dst % n)),
                        window_start_s: f64::from(at_min) * 60.0,
                        window_end_s: f64::from(at_min) * 60.0 + 3_600.0,
                        walk_limit_m: f64::from(walk_m),
                    };
                    if let Ok(ms) = eng.search(&req, 3) {
                        if book {
                            for m in &ms {
                                if eng.book(m).is_ok() {
                                    break;
                                }
                            }
                        }
                    }
                }
                Op::Track { at_min } => {
                    eng.track_all(f64::from(at_min) * 60.0);
                }
            }
            assert_invariants(&eng);
        }
    }
    /// One explain law on every layout: over random create / book /
    /// track / search schedules, each `R1` ride lands in exactly one
    /// [`SearchExplain`] class, and the serial engine, a 1-shard and a
    /// 4-shard sharded engine attribute every search identically.
    #[test]
    fn explain_conserves_and_agrees_across_layouts(
        ops in proptest::collection::vec(op_strategy(625), 1..30)
    ) {
        let g = graph();
        let n = g.node_count() as u32;
        let cfg = EngineConfig::default;
        let mut engines = [
            AnyEngine::Serial(Box::new(XarEngine::new(Arc::clone(region()), cfg()))),
            AnyEngine::Sharded(ShardedXarEngine::new(Arc::clone(region()), cfg(), 1)),
            AnyEngine::Sharded(ShardedXarEngine::new(Arc::clone(region()), cfg(), 4)),
        ];
        // Per engine: its ride id → creation ordinal (id sequences
        // differ between layouts by design).
        let mut ords = [(); 3].map(|_| std::collections::HashMap::new());
        let mut created = 0usize;
        for op in ops {
            match op {
                Op::Create { src, dst, depart_min, seats, detour_km } => {
                    let offer = RideOffer {
                        source: g.point(NodeId(src % n)),
                        destination: g.point(NodeId(dst % n)),
                        departure_s: f64::from(depart_min) * 60.0,
                        seats,
                        detour_limit_m: f64::from(detour_km) * 1_000.0,
                        driver: None,
                        via: Vec::new(),
                    };
                    let ids = engines.each_mut().map(|e| e.create(&offer));
                    prop_assert!(ids.iter().all(|id| id.is_some() == ids[0].is_some()));
                    if ids[0].is_some() {
                        for (ord, id) in ords.iter_mut().zip(ids) {
                            ord.insert(id.unwrap(), created);
                        }
                        created += 1;
                    }
                }
                Op::SearchAndMaybeBook { src, dst, at_min, walk_m, book } => {
                    let req = RideRequest {
                        source: g.point(NodeId(src % n)),
                        destination: g.point(NodeId(dst % n)),
                        window_start_s: f64::from(at_min) * 60.0,
                        window_end_s: f64::from(at_min) * 60.0 + 3_600.0,
                        walk_limit_m: f64::from(walk_m),
                    };
                    let results = engines.each_ref().map(|e| e.search(&req));
                    for (ms, ex) in &results {
                        prop_assert_eq!(
                            ms.len() as u32
                                + ex.seat_rejected
                                + ex.unpaired
                                + ex.ordering_rejected
                                + ex.walk_rejected
                                + ex.detour_rejected,
                            ex.candidates,
                            "an R1 ride left unclassified or counted twice: {:?}", ex
                        );
                        prop_assert_eq!(ex, &results[0].1, "layouts attribute differently");
                        prop_assert_eq!(
                            ex.dominant_reason(ms.len()),
                            results[0].1.dominant_reason(results[0].0.len())
                        );
                    }
                    // Book the serial engine's best match in all three,
                    // locating each twin by creation ordinal.
                    if let (true, Some(best)) = (book, results[0].0.first()) {
                        let ord = ords[0][&best.ride.0];
                        let mut booked = [false; 3];
                        for i in 0..3 {
                            let twin = results[i].0.iter().find(|m| ords[i][&m.ride.0] == ord);
                            prop_assert!(twin.is_some(), "layout {} lost the serial best ride", i);
                            booked[i] = engines[i].book(twin.unwrap());
                        }
                        prop_assert!(booked.iter().all(|&b| b == booked[0]));
                    }
                }
                Op::Track { at_min } => {
                    let retired = engines.each_mut().map(|e| e.track(f64::from(at_min) * 60.0));
                    prop_assert!(retired.iter().all(|&r| r == retired[0]));
                }
            }
        }
    }
}
