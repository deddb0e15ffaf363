//! Allocation guard for the scratch-backed traversals.
//!
//! The point of the router's thread-local scratch is that a query pays
//! for the nodes it reaches, not for the size of the graph. A counting
//! global allocator (the idiom of `xar-core/tests/snapshot_alloc.rs`)
//! makes that a hard contract: once the scratch is warm, a
//! [`Router::path`] call makes exactly one allocation — the node vector
//! of the path it returns, sized to the hop count — and nothing a
//! traversal allocates is as large as a `node_count()`-sized array.
//!
//! The generation wrap-around of the scratch (`u32::MAX → 1`) cannot be
//! reached from here in reasonable time; it is pinned by the unit tests
//! of `scratch.rs`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;
use std::sync::Arc;

use xar_roadnet::{CityConfig, HeapEntry, NodeId, RadixHeap, Router, ShortestPaths};

thread_local! {
    // Per-thread, because the libtest harness allocates concurrently
    // on its own thread; `Cell`s are const-initialised with no
    // destructor, so the hook itself never allocates.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

struct CountingAlloc;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        BYTES.with(|c| c.set(c.get() + layout.size() as u64));
        LARGEST.with(|c| c.set(c.get().max(layout.size())));
        // SAFETY: forwarded unchanged to the system allocator.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

fn reset_counters() {
    ALLOCS.with(|c| c.set(0));
    BYTES.with(|c| c.set(0));
    LARGEST.with(|c| c.set(0));
}

#[test]
fn warm_queries_allocate_only_what_they_return() {
    let graph = Arc::new(CityConfig::manhattan(40, 40, 606).generate());
    let router = Router::new(Arc::clone(&graph));
    let n = graph.node_count() as u32;
    let graph_sized = graph.node_count() * std::mem::size_of::<u32>();
    let pair = |i: u32| (NodeId((i * 97) % n), NodeId((i * 389 + n / 2) % n));

    // Warm-up: size the scratch for this graph and let the heap reach
    // its high-water capacity on the same queries that are counted.
    for i in 0..1_000 {
        let (a, b) = pair(i);
        black_box(router.path(a, b));
    }

    reset_counters();
    let mut path_bytes = 0u64;
    for i in 0..1_000 {
        let (a, b) = pair(i);
        let path = router.path(a, b).expect("city is strongly connected");
        path_bytes += (path.nodes.capacity() * std::mem::size_of::<NodeId>()) as u64;
        assert_eq!(
            path.nodes.capacity(),
            path.nodes.len(),
            "path vector is sized to the hop count"
        );
        black_box(path);
    }
    assert_eq!(
        ALLOCS.with(Cell::get),
        1_000,
        "one allocation per query: the returned path"
    );
    assert_eq!(
        BYTES.with(Cell::get),
        path_bytes,
        "every allocated byte is in a returned path"
    );
    assert!(LARGEST.with(Cell::get) < graph_sized);

    // The bounded traversals run on the same scratch: a small ball
    // allocates its (growing) output vector and nothing graph-sized.
    let driving = ShortestPaths::driving(&graph);
    // (First calls register their latency histograms.)
    black_box(driving.bounded_from(NodeId(n / 2), 600.0));
    black_box(driving.to_targets(NodeId(n / 2), &[NodeId(0)], 600.0));
    reset_counters();
    for i in 0..200 {
        black_box(driving.bounded_from(NodeId((i * 131) % n), 600.0));
        black_box(driving.to_targets(NodeId((i * 131) % n), &[NodeId((i * 131 + 3) % n)], 600.0));
    }
    assert!(
        LARGEST.with(Cell::get) < graph_sized,
        "a bounded traversal allocated {} bytes on a {}-node graph",
        LARGEST.with(Cell::get),
        n
    );
}

/// A radix heap that has seen a sequence of pushes and pops once runs
/// it again without allocating: re-filing moves entries between
/// buckets that keep their capacity, and `clear` frees nothing.
#[test]
fn a_warmed_radix_heap_allocates_nothing() {
    let mut heap = RadixHeap::new();
    let round = |heap: &mut RadixHeap| {
        heap.clear();
        for i in 0..2_000u32 {
            heap.push(HeapEntry::new(f64::from(i * 7_919 % 1_000) + 0.5, i));
            if i % 3 == 0 {
                let floor = heap.pop().expect("just pushed").cost();
                // One push below the floor per round of three.
                heap.push(HeapEntry::new(floor / 2.0, i));
            }
        }
        while heap.pop().is_some() {}
    };
    round(&mut heap);
    reset_counters();
    round(&mut heap);
    assert_eq!(ALLOCS.with(Cell::get), 0, "a warmed heap allocated");
}
