//! Zero allocations per search through the simulation's XAR backend.
//!
//! [`run_simulation`] hands every search of a run one result buffer,
//! and [`XarBackend`] searches into it in place. So once that buffer
//! and the engine's thread-local scratch are warm, a search that
//! returns matches must not touch the allocator at all — the same
//! contract `xar-core/tests/snapshot_alloc.rs` holds the engine handle
//! to, here for the path the `xar` binary and the figure harnesses
//! take. A counting global allocator makes it an exact `== 0`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use xar_core::{EngineConfig, XarEngine};
use xar_discretize::{ClusterGoal, RegionConfig, RegionIndex};
use xar_roadnet::{sample_pois, CityConfig, PoiConfig};
use xar_workload::{
    generate_trips, run_simulation, RideBackend, SimConfig, TripGenConfig, XarBackend,
};

thread_local! {
    // Per-thread, because the libtest harness allocates concurrently
    // on its own thread; a const-initialised `Cell` has no destructor,
    // so the hook itself never allocates.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        // SAFETY: forwarded unchanged to the system allocator.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

#[test]
fn a_warm_search_through_the_xar_backend_allocates_nothing() {
    let graph = Arc::new(CityConfig::manhattan(25, 25, 77).generate());
    let pois = sample_pois(
        &graph,
        &PoiConfig {
            count: 600,
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
    let trips = generate_trips(
        &graph,
        &TripGenConfig {
            count: 500,
            ..Default::default()
        },
    );
    // Re-posed after the run, the last trips find the rides they made
    // or joined.
    let (history, probes) = (&trips[..], &trips[400..]);
    // No tracking, so the rides of the history stay listed.
    let cfg = SimConfig {
        track_every_s: None,
        ..Default::default()
    };
    let mut backend = XarBackend::new(XarEngine::new(region, EngineConfig::default()));
    run_simulation(&mut backend, history, &cfg);

    // Warm-up: the same searches as are counted grow the buffer and the
    // engine's scratch to their high-water marks.
    let mut matches = Vec::new();
    for trip in probes {
        backend.search(trip, &cfg, &mut matches);
    }
    let (mut searches, mut found) = (0, 0);
    let before = allocs();
    for trip in probes {
        backend.search(trip, &cfg, &mut matches);
        searches += 1;
        found += usize::from(!matches.is_empty());
    }
    let made = allocs() - before;
    assert!(
        found * 4 >= searches,
        "too few searches matched to test anything: {found} of {searches}"
    );
    assert_eq!(made, 0, "{made} allocations over {searches} warm searches");
}
