//! Hot-path guards for search through the engine handle.
//!
//! Two contracts from DESIGN.md §5f, made hard tests:
//!
//! 1. **Zero allocations per search.** Once the thread-local scratch
//!    and the caller's result buffer are warm,
//!    [`xar_core::ShardedXarEngine::search_into`] must not touch the
//!    allocator at all — the grid-table read, the read lock, the list
//!    range queries, the scratch-table join and the unstable sort of
//!    the matches all run in place. A counting
//!    global allocator (same idiom as `xar-obs/tests/overhead.rs`)
//!    turns that into an exact `== 0` assertion.
//! 2. **No torn reads under write pressure.** While 8 writer threads
//!    create, book and track, a reader hammers `search_into` and checks
//!    every match against invariants that hold in *every* consistent
//!    state of the engine (walk within limit, drop-off strictly after
//!    pick-up, segments ordered, finite non-negative detour). A reader
//!    that ever observed a half-written list would trip one of them.
//!
//! Both phases share one test function so the test thread's warmed
//! state carries over; the counter is per-thread so neither the libtest
//! harness's main thread nor the phase-2 writers pollute the
//! zero-allocation window.
//!
//! A second test takes contract 1 past the scratch table's initial
//! size: a search with more `R1` rides than the table starts with room
//! for grows it while warming up, and never again.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use xar_core::{EngineConfig, RideMatch, RideOffer, RideRequest, SearchExplain, ShardedXarEngine};
use xar_discretize::{ClusterGoal, RegionConfig, RegionIndex};
use xar_roadnet::{sample_pois, CityConfig, NodeId, PoiConfig, RoadGraph};

thread_local! {
    /// Allocations made by *this* thread. Per-thread because the
    /// libtest harness's main thread allocates concurrently with the
    /// test thread; a process-global count is flaky by construction.
    /// `Cell<u64>` is const-initialised with no destructor, so the
    /// hook never allocates or touches TLS teardown.
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn thread_allocs() -> u64 {
    THREAD_ALLOCS.with(Cell::get)
}

/// System allocator with a per-thread allocation counter bolted on.
struct CountingAlloc;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        THREAD_ALLOCS.with(|c| c.set(c.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

fn region() -> Arc<RegionIndex> {
    let graph = Arc::new(CityConfig::manhattan(25, 25, 909).generate());
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
}

fn offer(g: &RoadGraph, i: u32, seats: u8) -> RideOffer {
    let n = g.node_count() as u32;
    RideOffer::simple(
        g.point(NodeId((i * 97) % n)),
        g.point(NodeId((i * 181 + n / 2) % n)),
        8.0 * 3600.0 + f64::from(i % 40) * 45.0,
        seats,
        3_500.0,
    )
}

fn request(g: &RoadGraph, i: u32) -> RideRequest {
    let n = g.node_count() as u32;
    RideRequest {
        source: g.point(NodeId((i * 53) % n)),
        destination: g.point(NodeId((i * 131 + n / 3) % n)),
        window_start_s: 7.5 * 3600.0,
        window_end_s: 10.0 * 3600.0,
        walk_limit_m: 900.0,
    }
}

/// Invariants every match must satisfy in any consistent state — a
/// torn read (a half-written list, mismatched offsets) would violate
/// at least one.
fn assert_match_sane(m: &RideMatch, req: &RideRequest) {
    assert!(
        m.walk_total_m() <= req.walk_limit_m + 1e-9,
        "walk {} exceeds limit {}",
        m.walk_total_m(),
        req.walk_limit_m
    );
    assert!(m.walk_pickup_m >= 0.0 && m.walk_dropoff_m >= 0.0);
    assert!(
        m.eta_dropoff_s > m.eta_pickup_s,
        "drop-off ETA {} not after pick-up ETA {}",
        m.eta_dropoff_s,
        m.eta_pickup_s
    );
    assert!(
        m.dropoff_seg >= m.pickup_seg,
        "segment order torn: pickup {} dropoff {}",
        m.pickup_seg,
        m.dropoff_seg
    );
    assert!(m.detour_est_m.is_finite() && m.detour_est_m >= 0.0);
    assert!(
        m.pickup_cluster != m.dropoff_cluster || m.pickup_landmark != m.dropoff_landmark,
        "degenerate pickup == dropoff match"
    );
}

#[test]
fn search_path_is_allocation_free_and_tear_free() {
    let region = region();
    let graph = Arc::clone(region.graph());
    let eng = ShardedXarEngine::new(Arc::clone(&region), EngineConfig::default(), 1);
    for i in 0..120u32 {
        let _ = eng.create_ride(&offer(&graph, i, 4));
    }
    assert!(eng.ride_count() > 50, "seed population failed");

    // ---- Phase 1: zero allocations per warmed search ----------------

    // A rotation of servable requests: warming with exactly the set we
    // measure means the scratch vectors and the result buffer reach
    // their high-water marks before the counting window opens.
    let rotation: Vec<RideRequest> = (0..64u32).map(|i| request(&graph, i * 7 + 1)).collect();
    let mut out: Vec<RideMatch> = Vec::new();
    let mut warm_hits = 0usize;
    for _ in 0..2 {
        warm_hits = 0;
        for req in &rotation {
            if eng.search_into(req, usize::MAX, &mut out).is_ok() {
                warm_hits += out.len();
            }
        }
    }
    assert!(
        warm_hits > 0,
        "rotation found no matches; phase 1 would be vacuous"
    );

    let before = thread_allocs();
    let mut measured_hits = 0usize;
    for round in 0..100u32 {
        for req in &rotation {
            if eng.search_into(req, usize::MAX, &mut out).is_ok() {
                measured_hits += out.len();
            }
            black_box(&out);
        }
        black_box(round);
    }
    let delta = thread_allocs() - before;
    assert_eq!(
        delta, 0,
        "warmed search_into allocated {delta} times over 6 400 searches \
         ({measured_hits} matches returned)"
    );
    assert_eq!(
        measured_hits,
        warm_hits * 100,
        "quiescent engine answered inconsistently"
    );

    // ---- Phase 2: no torn reads under 8 writer threads --------------

    let done = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for t in 0..8u32 {
            let eng = &eng;
            let graph = &graph;
            let done = &done;
            scope.spawn(move || {
                for k in 0..40u32 {
                    let seed = 1_000 + t * 1_000 + k;
                    let _ = eng.create_ride(&offer(graph, seed, 2));
                    if k % 3 == 0 {
                        let mut ms = Vec::new();
                        if eng.search_into(&request(graph, seed), 4, &mut ms).is_ok() {
                            if let Some(m) = ms.first() {
                                // Booking may lose the race for the last
                                // seat or hit a just-retired ride; both
                                // errors are expected under contention.
                                let _ = eng.book_checked(m);
                            }
                        }
                    }
                    if k % 8 == 7 {
                        eng.track_all(8.0 * 3600.0 + f64::from(t * 60 + k) * 20.0);
                    }
                }
                done.fetch_add(1, Ordering::Release);
            });
        }
        // Reader: hammer the search path until every writer exits,
        // validating each match against the tear detectors.
        let mut spins = 0u64;
        while done.load(Ordering::Acquire) < 8 {
            for req in &rotation {
                if eng.search_into(req, usize::MAX, &mut out).is_ok() {
                    for m in &out {
                        assert_match_sane(m, req);
                    }
                }
            }
            spins += 1;
        }
        assert!(spins > 0);
    });

    // The structure survived the storm: ride iteration agrees with the
    // count, and the op counters are coherent.
    let mut iterated = 0usize;
    eng.for_each_ride(|_| iterated += 1);
    assert_eq!(iterated, eng.ride_count());
    let stats = eng.read().metrics().counts();
    assert!(stats.creates >= 120);
    assert!(stats.searches > 0);
}

/// Its own test, so its own thread and a scratch table still at its
/// initial size (`INITIAL_SLOTS / 2` = 32 rides in `core::search`).
#[test]
fn a_search_wider_than_the_scratch_table_grows_it_only_while_warming() {
    let region = region();
    let graph = Arc::clone(region.graph());
    let eng = ShardedXarEngine::new(Arc::clone(&region), EngineConfig::default(), 1);
    for i in 0..400u32 {
        let _ = eng.create_ride(&offer(&graph, i, 4));
    }
    let candidates_of = |req: &RideRequest| {
        let mut explain = SearchExplain::default();
        let _ = eng.read().search_explained(req, usize::MAX, &mut explain);
        explain.candidates
    };
    let widest = (0..64u32)
        .map(|i| request(&graph, i * 7 + 1))
        .max_by_key(candidates_of)
        .expect("64 requests");
    let candidates = candidates_of(&widest);
    assert!(
        candidates > 32,
        "widest search has |R1| = {candidates}: the table never grew"
    );
    let mut out: Vec<RideMatch> = Vec::new();
    eng.search_into(&widest, usize::MAX, &mut out).unwrap();
    let matches = out.len();

    let before = thread_allocs();
    for _ in 0..1_000 {
        let _ = eng.search_into(&widest, usize::MAX, &mut out);
        black_box(&out);
    }
    assert_eq!(thread_allocs() - before, 0, "warmed wide search allocated");
    assert_eq!(out.len(), matches);
}
