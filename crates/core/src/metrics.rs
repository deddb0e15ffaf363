//! Per-engine telemetry: cached metric handles over an `xar-obs`
//! registry.
//!
//! Every [`crate::engine::XarEngine`] owns one [`EngineMetrics`]. The
//! handles are `Arc`s resolved once at engine construction, so the hot
//! paths never touch the registry's lock — recording is a few relaxed
//! atomic operations.
//!
//! Metric names (all under the engine's own registry):
//!
//! | name | type | unit |
//! |------|------|------|
//! | `engine.sp_ns` | histogram | ns per shortest-path computation (create/book only) |
//! | `engine.shortest_paths` | counter | shortest-path computations (create/book — never search) |
//! | `engine.searches` / `creates` / `bookings` / `tracks` | counter | valid searches, rides created, bookings confirmed, `track_ride` calls |
//! | `lock.write_hold_ns` | histogram | ns the write lock of [`crate::ShardedXarEngine`] is held per create / book / track |
//!
//! An operation's latency is not recorded here: the replay driver
//! times every search, create and booking once, for XAR and T-Share
//! alike (`xar_workload::SimReport`). Which request was slow is
//! answered from files: `xar trace --top` over a `--trace-out` file and
//! `xar logs --slower-than` over an `--events-out` file.

use std::sync::Arc;

use xar_obs::{Counter, Histogram, Registry};

/// Cached metric handles for one engine instance.
#[derive(Clone)]
pub struct EngineMetrics {
    registry: Arc<Registry>,
    /// Per shortest-path computation latency during create/book,
    /// nanoseconds (`engine.sp_ns`).
    pub sp_ns: Arc<Histogram>,
    /// Shortest-path computations performed (creation + booking —
    /// never search); `engine.shortest_paths`.
    pub shortest_paths: Arc<Counter>,
    /// Searches of a valid request (`engine.searches`).
    pub searches: Arc<Counter>,
    /// Rides created (`engine.creates`).
    pub creates: Arc<Counter>,
    /// Bookings confirmed (`engine.bookings`).
    pub bookings: Arc<Counter>,
    /// `track_ride` calls (`engine.tracks`).
    pub tracks: Arc<Counter>,
}

/// A point-in-time reading of the [`EngineMetrics`] counters, with
/// named fields so callers never depend on positional tuple order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EngineCounts {
    /// Searches of a valid request.
    pub searches: u64,
    /// Rides created.
    pub creates: u64,
    /// Bookings confirmed.
    pub bookings: u64,
    /// `track_ride` calls.
    pub tracks: u64,
    /// Shortest-path computations performed (creation + booking —
    /// never search).
    pub shortest_paths: u64,
}

impl EngineMetrics {
    /// Fresh metrics over a new private registry.
    pub fn new() -> Self {
        Self::with_registry(Arc::new(Registry::new()))
    }

    /// Metrics recording into an existing registry (get-or-create, so
    /// engines sharing a registry share the series).
    pub fn with_registry(registry: Arc<Registry>) -> Self {
        Self {
            sp_ns: registry.histogram("engine.sp_ns"),
            shortest_paths: registry.counter("engine.shortest_paths"),
            searches: registry.counter("engine.searches"),
            creates: registry.counter("engine.creates"),
            bookings: registry.counter("engine.bookings"),
            tracks: registry.counter("engine.tracks"),
            registry,
        }
    }

    /// The registry backing these handles (snapshot / JSON export).
    pub fn registry(&self) -> Arc<Registry> {
        Arc::clone(&self.registry)
    }

    /// Read every counter at once.
    pub fn counts(&self) -> EngineCounts {
        EngineCounts {
            searches: self.searches.get(),
            creates: self.creates.get(),
            bookings: self.bookings.get(),
            tracks: self.tracks.get(),
            shortest_paths: self.shortest_paths.get(),
        }
    }
}

impl Default for EngineMetrics {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_share_the_registry() {
        let m = EngineMetrics::new();
        m.sp_ns.record(1_000);
        m.bookings.inc();
        let json = m.registry().snapshot_json();
        assert!(json.contains("\"engine.sp_ns\""), "{json}");
        assert!(json.contains("\"engine.bookings\":1"), "{json}");
        assert_eq!(m.counts().bookings, 1);
    }

    #[test]
    fn shared_registry_merges_metrics() {
        let reg = Arc::new(Registry::new());
        let a = EngineMetrics::with_registry(Arc::clone(&reg));
        let b = EngineMetrics::with_registry(Arc::clone(&reg));
        a.sp_ns.record(10);
        b.sp_ns.record(20);
        a.searches.inc();
        b.searches.inc();
        assert_eq!(reg.histogram("engine.sp_ns").count(), 2);
        assert_eq!(b.counts().searches, 2);
    }
}
