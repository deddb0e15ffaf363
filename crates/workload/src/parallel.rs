//! Multi-threaded closed-loop simulation driver.
//!
//! The serial driver ([`crate::sim::run_simulation`]) replays trips
//! from one thread. This module runs the same replay loop from `N`
//! closed-loop worker threads at once, so that concurrent searches,
//! bookings and sweeps meet on one engine. It is a correctness mode,
//! not a throughput one: on two cores a second worker adds no
//! throughput (EXPERIMENTS.md, "Engine scaling"), and what it checks —
//! no ride overbooked, every request resolved exactly once — is pinned
//! by `tests/parallel.rs`.
//!
//! * Every worker drives its own **clone** of the backend, so the one
//!   [`RideBackend`] trait serves both drivers. The clones must share
//!   the system under test — [`crate::ShardedXarBackend`] clones an
//!   engine *handle* — or the workers would replay into `N` separate
//!   worlds.
//! * Trips are dealt **round-robin** (thread `t` replays trips
//!   `t, t+N, t+2N, …`), so each thread's private stream stays sorted
//!   by request time and the interleaving across threads approximates
//!   the serial arrival order — no thread runs ahead into "the future"
//!   by more than its stride.
//! * Each thread runs the §X.A.2 protocol (request tracing, wide events
//!   and all) against the shared engine and accumulates a private
//!   [`SimReport`]; the partial reports are merged after the join.
//!   Outcome counters (`sim.requests{outcome=…}`, `sim.requests_total`)
//!   are recorded into the shared registry as the run progresses, so
//!   the `--metrics-out` file reads a parallel run like a serial one.
//! * Thread 0 doubles as the **tracker**: it advances simulated time
//!   and runs the periodic tracking sweeps, mirroring a deployment
//!   where tracking is one background task competing with foreground
//!   request traffic.

use std::sync::Arc;

use xar_obs::Registry;

use crate::report::SimReport;
use crate::sim::{RideBackend, SimConfig};
use crate::trips::Trip;

/// Replay `trips` through clones of `backend` from `threads`
/// closed-loop workers (clamped to ≥ 1), each over its private trip
/// slice against the shared engine. Returns the merged report. Thread
/// `t` replays every `threads`-th trip starting at `t`; thread 0
/// additionally runs the tracking sweeps at `cfg.track_every_s`
/// intervals of simulated time.
///
/// With `threads == 1` this is exactly the serial driver on one clone.
pub fn run_parallel_dispatch<B: RideBackend + Clone + Send>(
    backend: &B,
    trips: &[Trip],
    cfg: &SimConfig,
    threads: usize,
) -> SimReport {
    let threads = threads.max(1);
    let registry = backend.registry().unwrap_or_else(|| Arc::new(Registry::new()));
    // Thread 0 doubles as the tracker; the rest never run sweeps.
    let untracked = SimConfig { track_every_s: None, ..cfg.clone() };
    let mut partials: Vec<SimReport> = Vec::with_capacity(threads);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let registry = Arc::clone(&registry);
                let mut worker = backend.clone();
                let cfg = if t == 0 { cfg } else { &untracked };
                scope.spawn(move || {
                    let slice: Vec<Trip> =
                        trips.iter().skip(t).step_by(threads).copied().collect();
                    crate::dispatch::run_dispatch(&mut worker, &slice, cfg, registry)
                })
            })
            .collect();
        for h in handles {
            // A worker panic is a test/bench failure; propagate it.
            partials.push(h.join().expect("simulation worker panicked"));
        }
    });
    let mut report = SimReport::default();
    for p in partials {
        report.merge(p);
    }
    report.registry = Some(registry);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trips::{generate_trips, TripGenConfig};
    use std::sync::atomic::{AtomicU64, Ordering};
    use xar_core::Reason;

    use crate::sim::BookResult;

    /// A scripted backend to validate driver mechanics without an
    /// engine: clones share the counters, as clones of a real backend
    /// share the engine.
    #[derive(Clone, Default)]
    struct CountingBackend {
        searches: Arc<AtomicU64>,
        creates: Arc<AtomicU64>,
        tracks: Arc<AtomicU64>,
    }

    impl RideBackend for CountingBackend {
        type Match = ();
        fn search(&mut self, _: &Trip, _: &SimConfig) -> Vec<()> {
            self.searches.fetch_add(1, Ordering::Relaxed);
            Vec::new()
        }
        fn book(&mut self, _: &(), _: &SimConfig) -> BookResult {
            BookResult::Failed(Reason::StaleCommit)
        }
        fn create(&mut self, _: &Trip, _: &SimConfig) -> Result<(), Reason> {
            self.creates.fetch_add(1, Ordering::Relaxed);
            Ok(())
        }
        fn track(&mut self, _: f64) {
            self.tracks.fetch_add(1, Ordering::Relaxed);
        }
    }

    #[test]
    fn every_trip_is_replayed_exactly_once() {
        let g = xar_roadnet::CityConfig::test_city(9).generate();
        let trips = generate_trips(&g, &TripGenConfig { count: 101, ..Default::default() });
        let b = CountingBackend::default();
        let cfg = SimConfig { track_every_s: Some(600.0), ..Default::default() };
        let r = run_parallel_dispatch(&b, &trips, &cfg, 4);
        assert_eq!(b.searches.load(Ordering::Relaxed), 101);
        assert_eq!(b.creates.load(Ordering::Relaxed), 101);
        assert!(b.tracks.load(Ordering::Relaxed) > 0, "thread 0 must run sweeps");
        assert_eq!(r.looks, 101);
        assert_eq!(r.created, 101);
        assert_eq!(r.booked + r.created + r.unservable, 101);
        // Registry counters agree with the merged report.
        let reg = r.registry.as_ref().unwrap();
        assert_eq!(reg.counter("sim.requests_total").get(), 101);
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        let g = xar_roadnet::CityConfig::test_city(9).generate();
        let trips = generate_trips(&g, &TripGenConfig { count: 10, ..Default::default() });
        let cfg = SimConfig { track_every_s: None, ..Default::default() };
        let b = CountingBackend::default();
        let r = run_parallel_dispatch(&b, &trips, &cfg, 0);
        assert_eq!(r.looks, 10);
    }

    #[test]
    fn per_thread_slices_stay_time_sorted() {
        let g = xar_roadnet::CityConfig::test_city(11).generate();
        let trips = generate_trips(&g, &TripGenConfig { count: 40, ..Default::default() });
        for t in 0..4 {
            let slice: Vec<&Trip> = trips.iter().skip(t).step_by(4).collect();
            assert!(slice.windows(2).all(|w| w[0].pickup_s <= w[1].pickup_s));
        }
    }
}
