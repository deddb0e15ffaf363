//! Allocation guards for the write path's index edits.
//!
//! A shard of the sharded engine is a serial `XarEngine` behind a
//! `RwLock`, and a write edits its live lists in place and publishes
//! nothing (DESIGN.md §5f), so three cost claims can be made hard tests
//! with a counting global allocator (same idiom as
//! `tests/snapshot_alloc.rs`; one `#[global_allocator]` per test binary,
//! hence this file):
//!
//! 1. **The shard layer allocates nothing.** A serial `XarEngine` twin
//!    is driven through the same schedule as a one-shard
//!    `ShardedXarEngine` and makes the same bookings, so
//!    `allocs(sharded book_checked) − allocs(serial book_checked)` is
//!    what sharding costs a booking: exactly 0 allocations and 0 bytes,
//!    whatever the rows per list, the cluster count or the ride count.
//! 2. **Editing a list is in place.** 1 000 remove/insert edits of a
//!    4 000-row list allocate nothing; growing it allocates O(1)
//!    amortised.
//! 3. **A serial-engine booking allocates nothing proportional to list
//!    length**: its allocation count and bytes do not follow the
//!    population.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use xar_core::index::PotentialRide;
use xar_core::{
    ClusterIndex, EngineConfig, RideId, RideOffer, RideRequest, ShardedXarEngine, XarEngine,
};
use xar_discretize::{ClusterGoal, ClusterId, RegionConfig, RegionIndex};
use xar_roadnet::{sample_pois, CityConfig, NodeId, PoiConfig, RoadGraph};

thread_local! {
    /// Per-thread allocation `(count, bytes)` (the libtest harness's
    /// main thread allocates concurrently; a process-global count would
    /// be flaky).
    static THREAD_ALLOCS: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

/// `(allocations, bytes)` this thread made while running `f`.
fn allocs_of<R>(f: impl FnOnce() -> R) -> (R, u64, u64) {
    let before = THREAD_ALLOCS.with(Cell::get);
    let out = f();
    let after = THREAD_ALLOCS.with(Cell::get);
    (out, after.0 - before.0, after.1 - before.1)
}

struct CountingAlloc;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        THREAD_ALLOCS.with(|c| c.set((c.get().0 + 1, c.get().1 + layout.size() as u64)));
        unsafe { System.alloc(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        THREAD_ALLOCS.with(|c| c.set((c.get().0 + 1, c.get().1 + new_size as u64)));
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

fn region(side: usize, seed: u64) -> Arc<RegionIndex> {
    let graph = Arc::new(CityConfig::manhattan(side, side, seed).generate());
    let pois = sample_pois(
        &graph,
        &PoiConfig {
            count: side * side / 2,
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

/// Small detour budgets keep each write to a handful of clusters.
fn offer(g: &RoadGraph, i: u32) -> RideOffer {
    let n = g.node_count() as u32;
    RideOffer::simple(
        g.point(NodeId((i * 97) % n)),
        g.point(NodeId((i * 181 + n / 2) % n)),
        8.0 * 3600.0 + f64::from(i % 40) * 45.0,
        4,
        700.0,
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

/// One shard holding `rides` offers, and a serial twin holding the
/// same rides under the same ids.
fn populated(region: &Arc<RegionIndex>, rides: u32) -> (ShardedXarEngine, XarEngine) {
    let eng = ShardedXarEngine::new(Arc::clone(region), EngineConfig::default(), 1);
    let mut twin = XarEngine::new(Arc::clone(region), EngineConfig::default());
    let g = region.graph();
    for i in 0..rides {
        assert_eq!(
            eng.create_ride(&offer(g, i)).ok(),
            twin.create_ride(&offer(g, i)).ok()
        );
    }
    (eng, twin)
}

/// Book `bookings` matches on both engines; returns the largest gap,
/// in allocations and in bytes, between a booking on the sharded side
/// and the same booking on the serial twin, and the mean rows per
/// non-empty cluster list.
fn booking_alloc_gap(
    (eng, twin): &mut (ShardedXarEngine, XarEngine),
    bookings: u32,
) -> (u64, u64, f64) {
    let g = eng.region().graph();
    let (mut count_gap, mut bytes_gap, mut done, mut seed) = (0, 0, 0, 0);
    while done < bookings {
        seed += 1;
        assert!(
            seed < 40_000,
            "ran out of bookable matches after {done} bookings"
        );
        let Ok(ms) = eng.search(&request(g, seed), 4) else {
            continue;
        };
        for m in &ms {
            let (sharded, count, bytes) = allocs_of(|| eng.book_checked(m));
            let (serial, twin_count, twin_bytes) = allocs_of(|| twin.book_checked(m));
            assert_eq!(
                sharded.is_ok(),
                serial.is_ok(),
                "the twins diverged on {m:?}"
            );
            if sharded.is_ok() {
                count_gap = count_gap.max(count.abs_diff(twin_count));
                bytes_gap = bytes_gap.max(bytes.abs_diff(twin_bytes));
                done += 1;
                break;
            }
        }
    }
    let (rows, lists) = eng.with_shard_read(0, |e| {
        let idx = e.index();
        let lens = (0..idx.cluster_count() as u32).map(|c| idx.cluster_len(ClusterId(c)));
        (idx.len(), lens.filter(|&n| n > 0).count())
    });
    (count_gap, bytes_gap, rows as f64 / lists as f64)
}

#[test]
fn a_sharded_booking_allocates_exactly_what_its_serial_twin_does() {
    const BOOKINGS: u32 = 12;
    let small = region(14, 31);
    let large = region(40, 31);
    assert!(large.cluster_count() >= small.cluster_count() * 3);
    // Same region, 4x the rides: longer lists, same directory.
    let mut sparse = populated(&large, 350);
    let mut dense = populated(&large, 1_400);
    let mut tiny = populated(&small, 220);
    for twins in [&mut sparse, &mut dense, &mut tiny] {
        let _ = booking_alloc_gap(twins, 2); // warm scratch vectors and histograms
    }
    let (sparse_count, sparse_bytes, sparse_rows) = booking_alloc_gap(&mut sparse, BOOKINGS);
    let (dense_count, dense_bytes, dense_rows) = booking_alloc_gap(&mut dense, BOOKINGS);
    let (tiny_count, tiny_bytes, _) = booking_alloc_gap(&mut tiny, BOOKINGS);
    let ctx = format!(
        "largest gap per booking: {sparse_count} allocations / {sparse_bytes} B at \
         {sparse_rows:.1} rows/list, {dense_count} / {dense_bytes} B at {dense_rows:.1} rows/list \
         ({} clusters); {tiny_count} / {tiny_bytes} B on {} clusters",
        large.cluster_count(),
        small.cluster_count()
    );
    eprintln!("{ctx}");
    assert!(
        dense_rows > sparse_rows * 2.0,
        "fixture lost its contrast: {ctx}"
    );
    for gap in [
        sparse_count,
        sparse_bytes,
        dense_count,
        dense_bytes,
        tiny_count,
        tiny_bytes,
    ] {
        assert_eq!(gap, 0, "the shard layer allocated on a booking: {ctx}");
    }
}

#[test]
fn edits_of_an_unshared_long_list_allocate_nothing() {
    const ROWS: u64 = 4_000;
    let row = |ride: u64, eta_s: f64| PotentialRide {
        ride: RideId(ride),
        eta_s,
        detour_m: 0.0,
        budget_m: 0.0,
        seg: 0,
        pass_route_idx: 0,
    };
    let mut idx = ClusterIndex::new(1);
    for r in 0..ROWS {
        idx.insert(ClusterId(0), row(r, r as f64));
    }
    // 1 000 edits that move a row: remove it, insert it elsewhere.
    let ((), count, _) = allocs_of(|| {
        for k in 0..500 {
            let ride = (k * 7) % ROWS;
            idx.remove(ClusterId(0), RideId(ride)).expect("listed");
            idx.insert(ClusterId(0), row(ride, ((k * 13) % ROWS) as f64 + 0.5));
        }
    });
    assert_eq!(count, 0, "an in-place edit of an unshared list allocated");
    assert_eq!(idx.cluster_len(ClusterId(0)), ROWS as usize);
    // 1 000 inserts that grow it: amortised O(1), i.e. a doubling or two.
    let ((), count, bytes) = allocs_of(|| {
        for r in ROWS..ROWS + 1_000 {
            idx.insert(ClusterId(0), row(r, r as f64));
        }
    });
    let row_bytes = std::mem::size_of::<PotentialRide>() as u64;
    assert!(
        count <= 2 && bytes <= 4 * ROWS * row_bytes,
        "growth allocated per edit: {count} allocations, {bytes} B"
    );
}

/// Mean `(allocations, bytes)` of one successful serial-engine booking
/// on a region holding `rides` offers, and the mean rows per list.
fn serial_booking_allocs(region: &Arc<RegionIndex>, rides: u32, bookings: u32) -> (f64, f64, f64) {
    let mut eng = XarEngine::new(Arc::clone(region), EngineConfig::default());
    let g = Arc::clone(region.graph());
    for i in 0..rides {
        let _ = eng.create_ride(&offer(&g, i));
    }
    let (mut count, mut bytes, mut done, mut seed) = (0, 0, 0, 0);
    while done < bookings + 2 {
        seed += 1;
        assert!(
            seed < 40_000,
            "ran out of bookable matches after {done} bookings"
        );
        let Ok(ms) = eng.search(&request(&g, seed), 1) else {
            continue;
        };
        let Some(m) = ms.first() else { continue };
        let (res, c, b) = allocs_of(|| eng.book_checked(m));
        if res.is_ok() {
            done += 1;
            if done > 2 {
                // the first two warm the thread's scratch
                count += c;
                bytes += b;
            }
        }
    }
    let lists = (0..region.cluster_count() as u32)
        .filter(|&c| eng.index().cluster_len(ClusterId(c)) > 0)
        .count();
    let n = f64::from(bookings);
    (
        count as f64 / n,
        bytes as f64 / n,
        eng.index().len() as f64 / lists as f64,
    )
}

#[test]
fn a_serial_booking_allocates_nothing_proportional_to_list_length() {
    let region = region(40, 31);
    let (sparse_count, sparse_bytes, sparse_rows) = serial_booking_allocs(&region, 350, 24);
    let (dense_count, dense_bytes, dense_rows) = serial_booking_allocs(&region, 2_800, 24);
    let ctx = format!(
        "allocs/booking {sparse_count:.1} ({sparse_bytes:.0} B) at {sparse_rows:.1} rows/list, \
         {dense_count:.1} ({dense_bytes:.0} B) at {dense_rows:.1} rows/list"
    );
    eprintln!("{ctx}");
    assert!(
        dense_rows > sparse_rows * 4.0,
        "fixture lost its contrast: {ctx}"
    );
    // Routes, via-points and reachable sets are what a booking
    // allocates; none of it grows with the lists it edits.
    assert!(
        dense_count < sparse_count * 1.5,
        "allocation count followed list length: {ctx}"
    );
    assert!(
        dense_bytes < sparse_bytes * 1.5,
        "allocated bytes followed list length: {ctx}"
    );
}
