//! Overhead guard for labeled-metric lookup after setup.
//!
//! The label contract (DESIGN.md §5b): once a series exists, a
//! `histogram_with` / `counter_with` call with an equal label set is a
//! read-lock lookup that performs **zero allocations** — comparisons
//! run against the borrowed query pairs, and the returned handle is an
//! `Arc` clone. Recording through a held handle is the same wait-free
//! path as an unlabeled metric. A counting global allocator turns both
//! claims into hard tests (in its own integration binary so no other
//! test's allocations are counted).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

thread_local! {
    /// Allocations made by *this* thread. The counter must be
    /// per-thread: the libtest harness's main thread allocates
    /// concurrently with the test thread (timers, bookkeeping), so a
    /// process-global count is flaky by construction. `Cell<u64>` is
    /// const-initialised and has no destructor, so the hook itself
    /// never allocates or touches TLS teardown.
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn thread_allocs() -> u64 {
    THREAD_ALLOCS.with(Cell::get)
}

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

const ITERS: u64 = 100_000;

#[test]
fn labeled_lookup_after_setup_is_allocation_free() {
    let reg = xar_obs::Registry::new();
    // Setup: creating the series allocates (interning, map entry).
    let handle = reg.histogram_with("ops.search_ns", &[("tier", "t2"), ("cluster", "b5")]);
    let counter = reg.counter_with("ops.requests", &[("outcome", "booked")]);
    handle.record(1);
    counter.inc();

    // Steady state: lookups with an equal label set (either pair
    // order) and recording through held handles never allocate.
    let before = thread_allocs();
    for i in 0..ITERS {
        let h = if i % 2 == 0 {
            reg.histogram_with("ops.search_ns", &[("tier", "t2"), ("cluster", "b5")])
        } else {
            reg.histogram_with("ops.search_ns", &[("cluster", "b5"), ("tier", "t2")])
        };
        h.record(i);
        black_box(&h);
        let c = reg.counter_with("ops.requests", &[("outcome", "booked")]);
        c.inc();
        black_box(&c);
    }
    for i in 0..ITERS {
        handle.record(i);
        counter.inc();
    }
    let after = thread_allocs();
    assert_eq!(
        after - before,
        0,
        "labeled lookup-after-setup allocated {} times over {} iterations",
        after - before,
        2 * ITERS,
    );
    assert_eq!(handle.count(), 1 + 2 * ITERS);
    assert_eq!(counter.get(), 1 + 2 * ITERS);
}
