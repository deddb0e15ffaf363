//! Property-based tests of the runtime unit: search results are always
//! feasible, search equals a brute-force reference — every match field
//! and every attribution counter, which classifies every candidate
//! exactly once — and arbitrary operation sequences preserve the engine
//! invariants.

use std::sync::Arc;

use proptest::prelude::*;
use xar_core::{
    EngineConfig, EngineMetrics, Reason, RideMatch, RideOffer, RideRequest, SearchExplain,
    XarEngine,
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
        let pois = sample_pois(
            &graph,
            &PoiConfig {
                count: 600,
                ..Default::default()
            },
        );
        Arc::new(RegionIndex::build(
            graph,
            &pois,
            RegionConfig {
                cluster_goal: ClusterGoal::Delta(200.0),
                ..Default::default()
            },
        ))
    })
}

fn graph() -> &'static Arc<RoadGraph> {
    region().graph()
}

/// Random operation in a simulated session.
#[derive(Debug, Clone)]
enum Op {
    Create {
        src: u32,
        dst: u32,
        depart_min: u16,
        seats: u8,
        detour_km: u8,
    },
    SearchAndMaybeBook {
        src: u32,
        dst: u32,
        at_min: u16,
        walk_m: u16,
        book: bool,
    },
    Track {
        at_min: u16,
    },
}

fn op_strategy(n_nodes: u32) -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (0..n_nodes, 0..n_nodes, 400u16..900, 0u8..=3, 1u8..=5).prop_map(
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

/// Drive one engine through `ops`. `check` sees every search: the
/// request, the engine and what it answered (all matches plus the
/// attribution). A booking op then books the best match. The engine
/// passes [`assert_invariants`] after every operation.
fn run_schedule(
    ops: Vec<Op>,
    mut check: impl FnMut(
        &RideRequest,
        &XarEngine,
        &[RideMatch],
        &SearchExplain,
    ) -> Result<(), TestCaseError>,
) -> Result<(), TestCaseError> {
    let g = graph();
    let n = g.node_count() as u32;
    let mut eng = XarEngine::new(Arc::clone(region()), EngineConfig::default());
    for op in ops {
        match op {
            Op::Create {
                src,
                dst,
                depart_min,
                seats,
                detour_km,
            } => {
                let _ = eng.create_ride(&RideOffer {
                    source: g.point(NodeId(src % n)),
                    destination: g.point(NodeId(dst % n)),
                    departure_s: f64::from(depart_min) * 60.0,
                    seats,
                    detour_limit_m: f64::from(detour_km) * 1_000.0,
                    driver: None,
                    via: Vec::new(),
                });
            }
            Op::SearchAndMaybeBook {
                src,
                dst,
                at_min,
                walk_m,
                book,
            } => {
                let req = RideRequest {
                    source: g.point(NodeId(src % n)),
                    destination: g.point(NodeId(dst % n)),
                    window_start_s: f64::from(at_min) * 60.0,
                    window_end_s: f64::from(at_min) * 60.0 + 3_600.0,
                    walk_limit_m: f64::from(walk_m),
                };
                let mut explain = SearchExplain::default();
                let matches = eng
                    .search_explained(&req, usize::MAX, &mut explain)
                    .unwrap_or_default();
                check(&req, &eng, &matches, &explain)?;
                if let (true, Some(best)) = (book, matches.first()) {
                    let _ = eng.book_checked(best);
                }
            }
            Op::Track { at_min } => {
                eng.track_all(f64::from(at_min) * 60.0);
            }
        }
        assert_invariants(&eng);
    }
    Ok(())
}

/// The reference search — the algorithm `core::search` replaced, kept
/// as the oracle: a brute-force loop over (source walkable cluster,
/// destination walkable cluster, ride) triples run **source-major**, a
/// strictly better (walk, detour) displacing the pairing held, so the
/// first of equals wins. It reads the index one `(cluster, ride)` entry
/// at a time and shares no code with the search. `None` when an
/// end-point has no walkable cluster.
fn reference_search(eng: &XarEngine, req: &RideRequest) -> Option<(Vec<RideMatch>, SearchExplain)> {
    let reg = region();
    let src_w = reg.walkable_within(reg.snap(&req.source), req.walk_limit_m);
    let dst_w = reg.walkable_within(reg.snap(&req.destination), req.walk_limit_m);
    if src_w.is_empty() || dst_w.is_empty() {
        return None;
    }
    let mut ex = SearchExplain {
        tier: EngineMetrics::tier_index(src_w.len()) as u8 + 1,
        ..Default::default()
    };
    let mut out = Vec::new();
    for ride in eng.rides() {
        let entry = |c| eng.index().get(c, ride.id);
        let srcs: Vec<_> = src_w
            .iter()
            .filter_map(|w| Some((w, entry(w.cluster)?)))
            .filter(|(_, e)| req.window_start_s <= e.eta_s && e.eta_s <= req.window_end_s)
            .collect();
        if srcs.is_empty() {
            continue;
        }
        // No seat check: a full ride is listed nowhere.
        assert_ne!(ride.seats_available, 0, "a full ride is listed");
        ex.candidates += 1;
        let dsts: Vec<_> = dst_w
            .iter()
            .filter_map(|w| Some((w, entry(w.cluster)?)))
            .filter(|(_, e)| req.window_start_s <= e.eta_s)
            .collect();
        if dsts.is_empty() {
            ex.unpaired += 1;
            continue;
        }
        let mut best: Option<RideMatch> = None;
        let mut deepest = 1;
        for (ws, se) in &srcs {
            for (wd, de) in &dsts {
                if ws.cluster == wd.cluster
                    || de.eta_s <= se.eta_s
                    || de.seg < se.seg
                    || de.pass_route_idx < se.pass_route_idx
                {
                    continue;
                }
                let (walk_s, walk_d) = (f64::from(ws.walk_m), f64::from(wd.walk_m));
                if walk_s + walk_d > req.walk_limit_m {
                    deepest = deepest.max(2);
                    continue;
                }
                let detour = se.detour_m + de.detour_m;
                if detour > ride.detour_remaining_m() {
                    deepest = deepest.max(3);
                    continue;
                }
                let key = (walk_s + walk_d, detour);
                if best
                    .as_ref()
                    .is_none_or(|b| key < (b.walk_total_m(), b.detour_est_m))
                {
                    best = Some(RideMatch {
                        ride: ride.id,
                        pickup_cluster: ws.cluster,
                        pickup_landmark: ws.landmark,
                        dropoff_cluster: wd.cluster,
                        dropoff_landmark: wd.landmark,
                        walk_pickup_m: walk_s,
                        walk_dropoff_m: walk_d,
                        eta_pickup_s: se.eta_s,
                        eta_dropoff_s: de.eta_s,
                        detour_est_m: detour,
                        pickup_seg: se.seg as usize,
                        dropoff_seg: de.seg as usize,
                    });
                }
            }
        }
        match (best, deepest) {
            (Some(m), _) => out.push(m),
            (None, 1) => ex.ordering_rejected += 1,
            (None, 2) => ex.walk_rejected += 1,
            (None, _) => ex.detour_rejected += 1,
        }
    }
    out.sort_by(|a, b| {
        (a.walk_total_m(), a.detour_est_m, a.ride)
            .partial_cmp(&(b.walk_total_m(), b.detour_est_m, b.ride))
            .expect("no NaN in a match")
    });
    Some((out, ex))
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
        assert!(
            (total - ride.detour_used_m).abs() < 1e-6,
            "detour ledger drifted"
        );
        for w in ride.via_points.windows(2) {
            assert!(w[0].route_idx <= w[1].route_idx, "via-points out of order");
        }
        for v in &ride.via_points {
            assert_eq!(
                ride.route.nodes()[v.route_idx],
                v.node,
                "via node off route"
            );
        }
        for p in &ride.pass_clusters {
            assert!(p.route_idx <= p.exit_idx);
            assert!(p.exit_idx < ride.route.len());
        }
        // A ride is listed only while it has a free seat; the row check
        // follows from the index <-> ride-state agreement below.
        if ride.seats_available == 0 {
            assert!(ride.pass_clusters.is_empty(), "full ride listed");
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

    /// Search **is** the reference: over random create / book / track /
    /// search schedules, every field of every returned `RideMatch`, their
    /// order, and every `SearchExplain` field equal what the brute-force
    /// source-major loop computes from the same engine's state, and the
    /// attribution files each `R1` ride in exactly one class.
    #[test]
    fn search_is_complete_against_oracle(
        ops in proptest::collection::vec(op_strategy(625), 1..40)
    ) {
        run_schedule(ops, |req, eng, matches, explain| {
            match reference_search(eng, req) {
                Some((want, want_explain)) => {
                    prop_assert_eq!(matches, &want[..], "matches differ");
                    prop_assert_eq!(explain, &want_explain, "attribution differs");
                }
                None => {
                    prop_assert!(matches.is_empty());
                    prop_assert_eq!(explain.hard, Some(Reason::NotServable));
                }
            }
            prop_assert_eq!(
                matches.len() as u32
                    + explain.unpaired
                    + explain.ordering_rejected
                    + explain.walk_rejected
                    + explain.detour_rejected,
                explain.candidates,
                "an R1 ride left unclassified or counted twice: {:?}",
                explain
            );
            Ok(())
        })?;
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
                                if eng.book_checked(m).is_ok() {
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
}

/// A fixed case: one short ride in one corner of the city and a request
/// from that corner to the far one. The ride is in `R1` but lists
/// nothing near the destination, so search files it as `unpaired`.
#[test]
fn a_ride_listed_near_the_source_only_is_unpaired() {
    let ops = vec![
        Op::Create {
            src: 0,
            dst: 3,
            depart_min: 480,
            seats: 3,
            detour_km: 1,
        },
        Op::SearchAndMaybeBook {
            src: 0,
            dst: 624,
            at_min: 470,
            walk_m: 500,
            book: false,
        },
    ];
    let mut searches = 0;
    run_schedule(ops, |_, _, matches, explain| {
        searches += 1;
        prop_assert!(matches.is_empty());
        prop_assert_eq!((explain.candidates, explain.unpaired), (1, 1));
        Ok(())
    })
    .unwrap();
    assert_eq!(searches, 1);
}
