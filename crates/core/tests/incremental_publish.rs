//! Copy-on-write publication: what a shard publishes is what it holds.
//!
//! A shard publishes a clone of its [`xar_core::ClusterIndex`] whenever
//! a write changed a list, and skips the publish when none changed; the
//! changed clusters come from a pointer diff against the published
//! clone, which also flips the shard's occupancy bits (DESIGN.md §5f).
//! The property that makes the skip and the bits sound: for any
//! interleaved schedule of create / book / track operations, after
//! **every** write each shard's published index reads what its live
//! index holds, cluster by cluster, and every occupancy bit says
//! whether that published list is non-empty
//! ([`xar_core::ShardedXarEngine::snapshots_consistent`]).
//!
//! The expiry half of the story (ROADMAP item 5's memory bound) is
//! pinned by `heap_stays_bounded_under_expiry_churn`: a ride retired by
//! tracking leaves every list, and the publish of that write drops it
//! from the published index, so a long run of create → book → expire cycles
//! holds `heap_bytes()` flat instead of accreting a day's worth of dead
//! rides.

use std::sync::Arc;

use proptest::prelude::*;
use xar_core::{EngineConfig, RideOffer, RideRequest, ShardedXarEngine};
use xar_discretize::{ClusterGoal, RegionConfig, RegionIndex};
use xar_roadnet::{sample_pois, CityConfig, NodeId, PoiConfig, RoadGraph};

fn region() -> &'static Arc<RegionIndex> {
    use std::sync::OnceLock;
    static REGION: OnceLock<Arc<RegionIndex>> = OnceLock::new();
    REGION.get_or_init(|| {
        let graph = Arc::new(CityConfig::manhattan(25, 25, 2626).generate());
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

/// Offers use a *small* detour budget so each write changes a handful
/// of clusters and most of every published index is shared with its
/// predecessor.
fn offer(i: u32, depart_s: f64) -> RideOffer {
    let g = graph();
    let n = g.node_count() as u32;
    RideOffer::simple(
        g.point(NodeId((i * 97) % n)),
        g.point(NodeId((i * 181 + n / 2) % n)),
        depart_s,
        3,
        700.0,
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

#[derive(Debug, Clone)]
enum Op {
    Create(u32),
    BookBest(u32),
    Track(u16),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0u32..10_000).prop_map(Op::Create),
        3 => (0u32..10_000).prop_map(Op::BookBest),
        1 => (480u16..660).prop_map(Op::Track),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 10, ..ProptestConfig::default() })]

    #[test]
    fn every_write_publishes_what_its_index_holds_on_any_schedule(
        ops in proptest::collection::vec(op_strategy(), 12..50),
    ) {
        let eng = ShardedXarEngine::new(Arc::clone(region()), EngineConfig::default(), 4);
        for (step, op) in ops.iter().enumerate() {
            match op {
                Op::Create(seed) => {
                    let depart = 8.0 * 3600.0 + f64::from(seed % 40) * 45.0;
                    let _ = eng.create_ride(&offer(*seed, depart));
                }
                Op::BookBest(seed) => {
                    let Ok(ms) = eng.search(&request(*seed), 1) else { continue };
                    let Some(m) = ms.first() else { continue };
                    let _ = eng.book_checked(m);
                }
                Op::Track(minutes) => {
                    eng.track_all(f64::from(*minutes) * 60.0);
                }
            }
            prop_assert!(
                eng.snapshots_consistent(),
                "published index or occupancy diverged from the live index after step {} ({:?})",
                step,
                op
            );
        }
    }
}

/// ROADMAP item 5, memory half: expired rides are retired *and leave
/// the published indexes*, so a long expiry-churn run holds runtime
/// memory flat. Each cycle creates a batch of rides,
/// books a few, then advances the clock far enough to complete the
/// previous batch; by mid-run the engine reaches a steady state whose
/// `heap_bytes()` later cycles must not exceed.
#[test]
fn heap_stays_bounded_under_expiry_churn() {
    const CYCLES: u32 = 30;
    const BATCH: u32 = 24;
    const WARMUP: u32 = 8;
    let eng = ShardedXarEngine::new(Arc::clone(region()), EngineConfig::default(), 4);
    let mut high_water = 0usize;
    for cycle in 0..CYCLES {
        let base_s = 8.0 * 3600.0 + f64::from(cycle) * 900.0;
        for i in 0..BATCH {
            let _ = eng.create_ride(&offer(cycle * BATCH + i, base_s + f64::from(i) * 10.0));
        }
        for i in 0..6u32 {
            if let Ok(ms) = eng.search(&request(cycle * 31 + i), 4) {
                if let Some(mm) = ms.first() {
                    let _ = eng.book_checked(mm);
                }
            }
        }
        // Everything departing before this cycle has long arrived:
        // track retires it, and its publish drops the ride's rows.
        eng.track_all(base_s + 900.0 * 2.0);

        let heap = eng.heap_bytes();
        if cycle < WARMUP {
            high_water = high_water.max(heap);
        } else {
            assert!(
                heap <= high_water * 3 / 2,
                "cycle {cycle}: heap {heap} B exceeded 1.5x the warm-up high water \
                 {high_water} B — retired rides are accreting"
            );
        }
        let live = eng.ride_count();
        assert!(
            live <= 3 * BATCH as usize,
            "cycle {cycle}: {live} live rides — expiry is not retiring"
        );
    }
    assert!(eng.snapshots_consistent());
}
