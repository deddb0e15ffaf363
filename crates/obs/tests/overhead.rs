//! Overhead guard for the recorder's disabled path — the one path every
//! span and every request's wide event takes when no file is requested.
//!
//! The contract (DESIGN.md §5c): with the global recorder disabled —
//! its startup state — every `trace::span()` / `trace::root()` call,
//! and handing a root its `EventRecord`, is one relaxed atomic load
//! plus a branch.
//! In particular it must never allocate, or the "free when off"
//! promise silently rots. A counting global allocator makes that
//! claim a hard test, and a coarse wall-clock bound keeps the cost
//! within a small multiple of an empty `black_box` loop — and, in
//! release builds, under 50 ns per span or per request.
//!
//! This lives in its own integration binary because the
//! `#[global_allocator]` would otherwise count every other test's
//! allocations, and because the global recorder must stay untouched
//! (unit tests elsewhere enable private recorders only).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;
use std::time::Instant;

use xar_obs::events::EventRecord;

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

const ITERS: u64 = 1_000_000;

#[test]
fn disabled_path_is_allocation_free_and_cheap() {
    // The global recorder starts disabled; this test never enables it.
    assert!(!xar_obs::trace::recorder().enabled());

    // Warm up: the first call initialises the recorder OnceLock and the
    // thread-locals, which may allocate once.
    {
        let _s = xar_obs::trace::span("warmup");
        let _r = xar_obs::trace::root("warmup");
    }

    // Baseline: empty black_box loop.
    let t0 = Instant::now();
    for i in 0..ITERS {
        black_box(i);
    }
    let empty_ns = t0.elapsed().as_nanos().max(1) as u64;

    // 1M disabled spans, then 1M disabled roots handed a wide event:
    // zero allocations.
    let before = thread_allocs();
    let t0 = Instant::now();
    for i in 0..ITERS {
        let s = xar_obs::trace::span("bench");
        black_box(&s);
        black_box(i);
    }
    let span_ns = t0.elapsed().as_nanos().max(1) as u64;
    let t0 = Instant::now();
    for i in 0..ITERS {
        let mut root = xar_obs::trace::root("request");
        root.event(black_box(EventRecord {
            outcome: "created",
            ..EventRecord::new(i)
        }));
        black_box(&root);
    }
    let root_ns = t0.elapsed().as_nanos().max(1) as u64;
    let after = thread_allocs();
    assert_eq!(
        after - before,
        0,
        "disabled trace::span/root allocated {} times over {} iterations",
        after - before,
        2 * ITERS,
    );

    // Timing guard, deliberately loose (CI machines are noisy; debug
    // builds do not inline the disabled check). The point is to catch a
    // regression that makes the disabled path do real work — a lock, a
    // syscall, a clock read — not to benchmark it; the request-path
    // benchmark's `obs.span_disabled.ns` is the precise measurement.
    let factor = if cfg!(debug_assertions) { 400 } else { 50 };
    for (what, ns) in [("span", span_ns), ("root + event", root_ns)] {
        assert!(
            ns < empty_ns.saturating_mul(factor),
            "disabled {what} loop took {ns} ns vs empty loop {empty_ns} ns (> {factor}x)",
        );
        // The absolute acceptance bound is a release-build property (CI
        // runs this binary with `--release` for it).
        if !cfg!(debug_assertions) {
            let per = ns / ITERS;
            assert!(
                per < 50,
                "disabled {what} costs {per} ns, acceptance bound is 50 ns"
            );
        }
    }

    // And nothing was recorded.
    let stats = xar_obs::trace::recorder().stats();
    assert_eq!(stats.started_traces, 0);
    assert_eq!(stats.emitted_records, 0);
}
