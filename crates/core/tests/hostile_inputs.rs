//! Hostile requests and offers end in a typed error or are served,
//! never in a panic — through the bare engine and through the handle.
//!
//! Coordinates are drawn finite inside the city, finite far outside
//! it, NaN or ±∞; windows, departures and walk / detour limits finite,
//! negative, NaN or ±∞ (so windows come inverted too); seats from 0.
//! A non-finite coordinate must give `InvalidRequest` before anything
//! is snapped: snapping one lands on a border grid cell, which would
//! otherwise be served. The two engines must also answer alike.

use std::sync::Arc;

use proptest::prelude::*;
use xar_core::{
    EngineConfig, Reason, RideOffer, RideRequest, SearchExplain, ShardedXarEngine, XarEngine,
    XarError,
};
use xar_discretize::{ClusterGoal, RegionConfig, RegionIndex};
use xar_geo::GeoPoint;
use xar_roadnet::{sample_pois, CityConfig, NodeId, PoiConfig, RoadGraph};

fn region() -> &'static Arc<RegionIndex> {
    use std::sync::OnceLock;
    static REGION: OnceLock<Arc<RegionIndex>> = OnceLock::new();
    REGION.get_or_init(|| {
        let graph = Arc::new(CityConfig::manhattan(16, 16, 5150).generate());
        let pois = sample_pois(
            &graph,
            &PoiConfig {
                count: 250,
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

/// A number as hostile input: ordinary, negative, NaN or ±∞.
fn number(ordinary: std::ops::Range<f64>) -> impl Strategy<Value = f64> {
    prop_oneof![
        16 => ordinary.clone(),
        1 => ordinary.prop_map(|x| -x),
        1 => Just(f64::NAN),
        1 => Just(f64::INFINITY),
        1 => Just(f64::NEG_INFINITY),
    ]
}

/// A point as hostile input. Built field by field: `GeoPoint::new`
/// rejects non-finite coordinates in debug builds, and the engine must
/// not rely on every caller using it.
fn point() -> impl Strategy<Value = GeoPoint> {
    let n = graph().node_count() as u32;
    let bad = || prop_oneof![Just(f64::NAN), Just(f64::INFINITY), Just(f64::NEG_INFINITY)];
    prop_oneof![
        16 => (0..n).prop_map(|i| graph().point(NodeId(i))),
        1 => (0..n, -0.5f64..0.5, -0.5f64..0.5).prop_map(|(i, dlat, dlon)| {
            let p = graph().point(NodeId(i));
            GeoPoint { lat: p.lat + dlat, lon: p.lon + dlon }
        }),
        1 => (0..n, bad()).prop_map(|(i, lat)| GeoPoint { lat, ..graph().point(NodeId(i)) }),
        1 => (0..n, bad()).prop_map(|(i, lon)| GeoPoint { lon, ..graph().point(NodeId(i)) }),
    ]
}

fn finite(p: &GeoPoint) -> bool {
    p.lat.is_finite() && p.lon.is_finite()
}

fn request() -> impl Strategy<Value = RideRequest> {
    (
        point(),
        point(),
        number(6.0 * 3600.0..11.0 * 3600.0),
        number(0.0..7_200.0),
        number(0.0..1_200.0),
    )
        .prop_map(
            |(source, destination, window_start_s, width_s, walk_limit_m)| RideRequest {
                source,
                destination,
                window_start_s,
                window_end_s: window_start_s + width_s,
                walk_limit_m,
            },
        )
}

fn offer() -> impl Strategy<Value = RideOffer> {
    (
        point(),
        point(),
        proptest::collection::vec(point(), 0..3),
        number(7.0 * 3600.0..10.0 * 3600.0),
        0u8..=4,
        number(0.0..4_000.0),
    )
        .prop_map(
            |(source, destination, via, departure_s, seats, detour_limit_m)| RideOffer {
                source,
                destination,
                departure_s,
                seats,
                detour_limit_m,
                driver: None,
                via,
            },
        )
}

#[derive(Debug, Clone)]
enum Op {
    Create(RideOffer),
    /// Search, then book the best match if there is one.
    SearchAndBook(RideRequest),
    Track(u16),
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => offer().prop_map(Op::Create),
        4 => request().prop_map(Op::SearchAndBook),
        1 => (420u16..700).prop_map(Op::Track),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn hostile_inputs_get_a_typed_error_or_are_served(
        ops in proptest::collection::vec(op(), 1..40),
    ) {
        let handle = ShardedXarEngine::new(Arc::clone(region()), EngineConfig::default(), 1);
        let mut engine = XarEngine::new(Arc::clone(region()), EngineConfig::default());
        for op in ops {
            match op {
                Op::Create(o) => {
                    let (a, b) = (handle.create_ride(&o), engine.create_ride(&o));
                    prop_assert_eq!(&a, &b);
                    let all_finite = finite(&o.source)
                        && finite(&o.destination)
                        && o.via.iter().all(finite);
                    if !all_finite {
                        prop_assert!(matches!(a, Err(XarError::InvalidRequest(_))), "{:?}", a);
                    }
                }
                Op::SearchAndBook(req) => {
                    let mut found = Vec::new();
                    let a = handle.search_into(&req, usize::MAX, &mut found);
                    let mut explain = SearchExplain::default();
                    let b = engine.search_explained(&req, usize::MAX, &mut explain);
                    prop_assert_eq!(a.clone().map(|()| found.clone()), b);
                    if !(finite(&req.source) && finite(&req.destination)) {
                        prop_assert!(matches!(a, Err(XarError::InvalidRequest(_))), "{:?}", a);
                        prop_assert_eq!(explain.hard, Some(Reason::InvalidRequest));
                    }
                    if let Some(best) = found.first() {
                        prop_assert_eq!(handle.book_checked(best), engine.book_checked(best));
                    }
                }
                Op::Track(minutes) => {
                    let now = f64::from(minutes) * 60.0;
                    prop_assert_eq!(handle.track_all(now), engine.track_all(now));
                }
            }
        }
    }
}
