//! Overhead guard for the wide-event sink (ISSUE 9 acceptance).
//!
//! The contract mirrors the flight recorder's: with the sink **off** —
//! the startup state — [`xar_obs::events::emit`] is one relaxed atomic
//! load plus a branch, so an emit-heavy loop performs **zero** heap
//! allocations and costs under 50 ns per event in release builds. With
//! the sink **on**, emits stay lock-free per event (thread-local
//! buffering) and the accounting stays conserved.
//!
//! Own integration binary: the `#[global_allocator]` must not leak
//! into other tests.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;
use std::sync::Mutex;
use std::time::Instant;

use xar_obs::events::{self, EventRecord};

thread_local! {
    /// Allocations made by *this* thread (the libtest main thread
    /// allocates concurrently; a process-global count is flaky).
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

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        THREAD_ALLOCS.with(|c| c.set(c.get() + 1));
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Tests share the process-global sink.
static GATE: Mutex<()> = Mutex::new(());

const ITERS: u64 = 1_000_000;

fn record(i: u64) -> EventRecord {
    EventRecord { outcome: "created", reason: "capacity_full", ..EventRecord::new(i) }
}

#[test]
fn disabled_emit_adds_zero_allocations_and_stays_cheap() {
    let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
    // Force the sink's lazy init before measuring, then assert the
    // startup state.
    assert!(!events::is_enabled(), "event sink must start disabled");

    // Baseline: empty black_box loop.
    let t0 = Instant::now();
    for i in 0..ITERS {
        black_box(i);
    }
    let empty_ns = t0.elapsed().as_nanos().max(1) as u64;

    let before = thread_allocs();
    let t0 = Instant::now();
    for i in 0..ITERS {
        events::emit(black_box(record(i)));
    }
    let emit_ns = t0.elapsed().as_nanos().max(1) as u64;
    let after = thread_allocs();
    assert_eq!(
        after - before,
        0,
        "disabled emit loop allocated {} times over {ITERS} events",
        after - before,
    );

    let per_emit = emit_ns / ITERS;
    // The 50 ns acceptance bound is a release-build property; debug
    // builds don't inline the disabled check, so there the guard is a
    // loose multiple of the empty loop (same shape as tests/overhead.rs).
    if cfg!(debug_assertions) {
        assert!(
            emit_ns < empty_ns.saturating_mul(400),
            "disabled emit loop took {emit_ns} ns vs empty loop {empty_ns} ns (> 400x)",
        );
    } else {
        assert!(per_emit < 50, "disabled emit costs {per_emit} ns, acceptance bound is 50 ns");
    }
}

#[test]
fn enabled_emits_conserve_accounting_across_threads() {
    let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
    events::configure(1024);
    events::set_enabled(true);
    let threads = 4u64;
    let per_thread = 1000u64;
    std::thread::scope(|s| {
        for t in 0..threads {
            s.spawn(move || {
                for i in 0..per_thread {
                    events::emit(record(t * per_thread + i));
                }
                events::flush_thread();
            });
        }
    });
    events::set_enabled(false);
    let snap = events::snapshot();
    assert_eq!(snap.emitted, threads * per_thread);
    assert_eq!(snap.kept() + snap.dropped, snap.emitted, "drop accounting must conserve");
    assert_eq!(snap.kept(), 1024, "ring holds exactly its capacity");
    events::configure(events::DEFAULT_CAPACITY);
}
