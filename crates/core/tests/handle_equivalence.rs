//! The engine handle decides exactly as the bare engine does.
//!
//! [`ShardedXarEngine`] is one [`XarEngine`] behind one `RwLock`, so
//! for any schedule of create / search / book / track operations driven
//! from one thread, the handle and a bare engine fed the same inputs
//! must agree operation by operation — on ride ids, on every field and
//! the order of every match, on the search's attribution, on every
//! booking outcome, on retirements and on `heap_bytes()` — with no
//! anonymising: ids are dense on both, and the ride table's fixed
//! hasher makes the heap account repeat.

use std::sync::Arc;

use proptest::prelude::*;
use xar_core::{
    EngineConfig, RideMatch, RideOffer, RideRequest, SearchExplain, ShardedXarEngine, XarEngine,
};
use xar_discretize::{ClusterGoal, RegionConfig, RegionIndex};
use xar_roadnet::{sample_pois, CityConfig, NodeId, PoiConfig, RoadGraph};

fn region() -> &'static Arc<RegionIndex> {
    use std::sync::OnceLock;
    static REGION: OnceLock<Arc<RegionIndex>> = OnceLock::new();
    REGION.get_or_init(|| {
        let graph = Arc::new(CityConfig::manhattan(25, 25, 1717).generate());
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

fn offer(i: u32, seats: u8) -> RideOffer {
    let g = graph();
    let n = g.node_count() as u32;
    RideOffer::simple(
        g.point(NodeId((i * 97) % n)),
        g.point(NodeId((i * 181 + n / 2) % n)),
        8.0 * 3600.0 + f64::from(i % 40) * 45.0,
        seats,
        3_500.0,
    )
}

fn request(i: u32) -> RideRequest {
    let g = graph();
    let n = g.node_count() as u32;
    RideRequest {
        source: g.point(NodeId((i * 53) % n)),
        destination: g.point(NodeId((i * 131 + n / 3) % n)),
        window_start_s: 7.5 * 3600.0,
        window_end_s: 10.0 * 3600.0,
        walk_limit_m: 900.0,
    }
}

/// One step of a schedule.
#[derive(Debug, Clone)]
enum Op {
    /// Create the offer derived from this seed, with this many seats.
    Create(u32, u8),
    /// Search both and compare everything a search returns.
    Search(u32),
    /// Search both, then book the best match in both.
    BookBest(u32),
    /// Advance both engines' clocks to this many minutes.
    Track(u16),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (0u32..10_000, 0u8..=3).prop_map(|(seed, seats)| Op::Create(seed, seats)),
        4 => (0u32..10_000).prop_map(Op::Search),
        3 => (0u32..10_000).prop_map(Op::BookBest),
        1 => (480u16..660).prop_map(Op::Track),
    ]
}

/// All matches of `req` and their attribution, from the handle and from
/// the engine; an erroring search carries its error instead of matches.
type Answer = (Result<Vec<RideMatch>, xar_core::XarError>, SearchExplain);

fn answers(handle: &ShardedXarEngine, engine: &XarEngine, req: &RideRequest) -> [Answer; 2] {
    let mut out = Vec::new();
    let found = handle.search_into(req, usize::MAX, &mut out).map(|()| out);
    let mut explain = SearchExplain::default();
    let _ = handle
        .read()
        .search_explained(req, usize::MAX, &mut explain);
    let mut engine_explain = SearchExplain::default();
    let engine_found = engine.search_explained(req, usize::MAX, &mut engine_explain);
    [(found, explain), (engine_found, engine_explain)]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    #[test]
    fn the_handle_decides_exactly_as_the_engine(
        ops in proptest::collection::vec(op_strategy(), 12..60),
    ) {
        let handle = ShardedXarEngine::new(Arc::clone(region()), EngineConfig::default(), 8);
        let mut engine = XarEngine::new(Arc::clone(region()), EngineConfig::default());
        for (step, op) in ops.iter().enumerate() {
            match *op {
                Op::Create(seed, seats) => {
                    let o = offer(seed, seats);
                    let ids = (handle.create_ride(&o), engine.create_ride(&o));
                    prop_assert_eq!(ids.0, ids.1, "ids at step {}", step);
                }
                Op::Search(seed) => {
                    let [a, b] = answers(&handle, &engine, &request(seed));
                    prop_assert_eq!(a, b, "search at step {}", step);
                }
                Op::BookBest(seed) => {
                    let [(a, _), (b, _)] = answers(&handle, &engine, &request(seed));
                    prop_assert_eq!(&a, &b, "search at step {}", step);
                    let Some(best) = b.ok().and_then(|ms| ms.first().copied()) else {
                        continue;
                    };
                    let outcomes = (handle.book_checked(&best), engine.book_checked(&best));
                    prop_assert_eq!(outcomes.0, outcomes.1, "booking at step {}", step);
                }
                Op::Track(minutes) => {
                    let now = f64::from(minutes) * 60.0;
                    prop_assert_eq!(
                        handle.track_all(now),
                        engine.track_all(now),
                        "retirements at step {}",
                        step
                    );
                }
            }
            prop_assert_eq!(handle.ride_count(), engine.ride_count(), "rides at step {}", step);
            prop_assert_eq!(handle.heap_bytes(), engine.heap_bytes(), "heap at step {}", step);
        }
    }
}
