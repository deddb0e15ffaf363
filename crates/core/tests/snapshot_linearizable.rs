//! Linearizability of the sharded read path.
//!
//! The sharded engine answers a search by reading each shard's live
//! [`xar_core::ClusterIndex`] under that shard's read lock, while every
//! write changes its shard under the write lock. The property that
//! makes that correct is *linearizable equivalence*: for any
//! interleaved schedule of create / search / book / track operations,
//! every search observes exactly the state some serial execution of the
//! preceding writes would produce — never a torn or stale view. A
//! single-threaded schedule must therefore make the sharded engine
//! agree with the plain serial [`XarEngine`] *operation by operation*
//! (modulo ride-id assignment, which the sharded engine stripes —
//! results are compared by creation order).
//!
//! `tests/sharded_hammer` drives the same comparison with a fixed
//! create-then-search phase structure; this test samples *arbitrary*
//! orderings, so searches land between every kind of neighbouring
//! write (search right after create, book right after track, two books
//! back to back, …).

use std::collections::HashMap;
use std::sync::Arc;

use proptest::prelude::*;
use xar_core::{EngineConfig, RideMatch, RideOffer, RideRequest, ShardedXarEngine, XarEngine};
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

fn offer(i: u32) -> RideOffer {
    let g = graph();
    let n = g.node_count() as u32;
    RideOffer::simple(
        g.point(NodeId((i * 97) % n)),
        g.point(NodeId((i * 181 + n / 2) % n)),
        8.0 * 3600.0 + f64::from(i % 40) * 45.0,
        2,
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

/// Strip engine-assigned ride ids (the id sequences differ by design)
/// so result sets compare structurally by offer creation order.
fn anonymize(ms: &[RideMatch], ride_ord: impl Fn(u64) -> usize) -> Vec<(usize, String)> {
    ms.iter()
        .map(|m| {
            (
                ride_ord(m.ride.0),
                format!(
                    "p{}.{} d{}.{} w{:.3}/{:.3} t{:.1}/{:.1} det{:.3} s{}/{}",
                    m.pickup_cluster.0,
                    m.pickup_landmark.0,
                    m.dropoff_cluster.0,
                    m.dropoff_landmark.0,
                    m.walk_pickup_m,
                    m.walk_dropoff_m,
                    m.eta_pickup_s,
                    m.eta_dropoff_s,
                    m.detour_est_m,
                    m.pickup_seg,
                    m.dropoff_seg
                ),
            )
        })
        .collect()
}

/// One step of an interleaved schedule.
#[derive(Debug, Clone)]
enum Op {
    /// Create the offer derived from this seed in both engines.
    Create(u32),
    /// Search both engines and require identical match sets.
    Search(u32),
    /// Search both, then book the serial engine's best match in both.
    BookBest(u32),
    /// Advance both engines' clocks to this many minutes.
    Track(u16),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (0u32..10_000).prop_map(Op::Create),
        4 => (0u32..10_000).prop_map(Op::Search),
        2 => (0u32..10_000).prop_map(Op::BookBest),
        1 => (480u16..660).prop_map(Op::Track),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 10, ..ProptestConfig::default() })]

    #[test]
    fn interleaved_schedules_match_the_serial_engine(
        ops in proptest::collection::vec(op_strategy(), 12..60),
    ) {
        let mut serial = XarEngine::new(Arc::clone(region()), EngineConfig::default());
        let sharded = ShardedXarEngine::new(Arc::clone(region()), EngineConfig::default(), 4);
        // Creation-order maps: engine id → offer ordinal.
        let mut serial_ids: HashMap<u64, usize> = HashMap::new();
        let mut sharded_ids: HashMap<u64, usize> = HashMap::new();
        let mut ord = 0usize;

        for (step, op) in ops.iter().enumerate() {
            match op {
                Op::Create(seed) => {
                    let o = offer(*seed);
                    let a = serial.create_ride(&o);
                    let b = sharded.create_ride(&o);
                    prop_assert_eq!(a.is_ok(), b.is_ok(), "create divergence at step {}", step);
                    if let (Ok(a), Ok(b)) = (a, b) {
                        serial_ids.insert(a.0, ord);
                        sharded_ids.insert(b.0, ord);
                    }
                    ord += 1;
                }
                Op::Search(seed) => {
                    let req = request(*seed);
                    let a = serial.search(&req, usize::MAX);
                    let b = sharded.search(&req, usize::MAX);
                    prop_assert_eq!(a.is_err(), b.is_err(), "search errs at step {}", step);
                    let (Ok(a), Ok(b)) = (a, b) else { continue };
                    let mut an = anonymize(&a, |id| serial_ids[&id]);
                    let mut bn = anonymize(&b, |id| sharded_ids[&id]);
                    an.sort();
                    bn.sort();
                    prop_assert_eq!(an, bn, "match sets diverge at step {}", step);
                }
                Op::BookBest(seed) => {
                    let req = request(*seed);
                    let (Ok(a), Ok(b)) =
                        (serial.search(&req, usize::MAX), sharded.search(&req, usize::MAX))
                    else {
                        continue;
                    };
                    let Some(ma) = a.first() else { continue };
                    let want = serial_ids[&ma.ride.0];
                    let mb = b.iter().find(|m| sharded_ids[&m.ride.0] == want);
                    prop_assert!(
                        mb.is_some(),
                        "serial best ride missing from sharded results at step {}",
                        step
                    );
                    let ra = serial.book_checked(ma);
                    let rb = sharded.book_checked(mb.unwrap());
                    prop_assert_eq!(ra.is_ok(), rb.is_ok(), "book divergence at step {}", step);
                    if let (Ok(ra), Ok(rb)) = (ra, rb) {
                        prop_assert!((ra.actual_detour_m - rb.actual_detour_m).abs() < 1e-6);
                        prop_assert!((ra.walk_total_m - rb.walk_total_m).abs() < 1e-6);
                    }
                }
                Op::Track(minutes) => {
                    let now = f64::from(*minutes) * 60.0;
                    prop_assert_eq!(
                        serial.track_all(now),
                        sharded.track_all(now),
                        "retirement divergence at step {}",
                        step
                    );
                }
            }
        }
        prop_assert_eq!(serial.ride_count(), sharded.ride_count());
    }
}
