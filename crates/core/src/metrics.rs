//! Per-engine telemetry: cached metric handles over an `xar-obs`
//! registry.
//!
//! Every [`crate::engine::XarEngine`] owns one [`EngineMetrics`]. The
//! handles are `Arc`s resolved once at engine construction, so the hot
//! paths (search / create / book / track) never touch the registry's
//! lock — recording is a handful of relaxed atomic operations.
//!
//! Metric names (all under the engine's own registry):
//!
//! | name | type | unit |
//! |------|------|------|
//! | `engine.search_ns` | histogram | ns per search call |
//! | `engine.create_ns` | histogram | ns per ride creation |
//! | `engine.book_ns` | histogram | ns per booking |
//! | `engine.track_ns` | histogram | ns per tracking advance |
//! | `engine.search_candidates` | histogram | rides in the R1 candidate set per search |
//! | `engine.sp_ns` | histogram | ns per shortest-path computation (create/book only) |
//! | `lock.write_hold_ns` | histogram | ns the write lock of [`crate::ShardedXarEngine`] is held per create / book / track |
//! | `engine.searches` / `creates` / `bookings` / `tracks` | counter | operation counts ([`crate::engine::EngineStats`]) |
//! | `engine.shortest_paths` | counter | shortest-path computations (create/book — never search) |
//!
//! Labeled series (low-cardinality, pre-resolved into the arrays
//! below so the hot paths never re-intern):
//!
//! | series | type | meaning |
//! |--------|------|---------|
//! | `engine.search_ns{tier="t1\|t2\|t3"}` | histogram | search latency by source fan-out: t1 ≤ 2 walkable clusters, t2 3–6, t3 ≥ 7 (unservable searches carry no tier) |
//!
//! Which request was slow is answered from files, not from these
//! series: `xar trace --top` over a `--trace-out` file and `xar logs
//! --slower-than` over an `--events-out` file.

use std::sync::Arc;

use xar_obs::{Histogram, Registry};

/// The `tier` label values for search fan-out (source walkable-cluster
/// count: t1 ≤ 2, t2 3–6, t3 ≥ 7).
pub const SEARCH_TIERS: [&str; 3] = ["t1", "t2", "t3"];

/// Cached metric handles for one engine instance.
#[derive(Clone)]
pub struct EngineMetrics {
    registry: Arc<Registry>,
    /// End-to-end search latency, nanoseconds.
    pub search_ns: Arc<Histogram>,
    /// End-to-end ride-creation latency, nanoseconds.
    pub create_ns: Arc<Histogram>,
    /// End-to-end booking latency, nanoseconds.
    pub book_ns: Arc<Histogram>,
    /// End-to-end tracking-advance latency, nanoseconds.
    pub track_ns: Arc<Histogram>,
    /// Candidate-set size (distinct rides surviving the R1 source-side
    /// range queries) per search.
    pub search_candidates: Arc<Histogram>,
    /// Per shortest-path computation latency during create/book,
    /// nanoseconds.
    pub sp_ns: Arc<Histogram>,
    /// `engine.search_ns{tier=…}` — search latency by source fan-out,
    /// index-aligned with [`SEARCH_TIERS`].
    pub search_ns_tier: [Arc<Histogram>; 3],
}

impl EngineMetrics {
    /// Fresh metrics over a new private registry.
    pub fn new() -> Self {
        Self::with_registry(Arc::new(Registry::new()))
    }

    /// Metrics recording into an existing registry (so several engines,
    /// or an engine plus its baseline, can share one snapshot).
    pub fn with_registry(registry: Arc<Registry>) -> Self {
        let search_ns = registry.histogram("engine.search_ns");
        let create_ns = registry.histogram("engine.create_ns");
        let book_ns = registry.histogram("engine.book_ns");
        let track_ns = registry.histogram("engine.track_ns");
        let search_candidates = registry.histogram("engine.search_candidates");
        let sp_ns = registry.histogram("engine.sp_ns");
        let search_ns_tier =
            SEARCH_TIERS.map(|t| registry.histogram_with("engine.search_ns", &[("tier", t)]));
        Self {
            registry,
            search_ns,
            create_ns,
            book_ns,
            track_ns,
            search_candidates,
            sp_ns,
            search_ns_tier,
        }
    }

    /// The registry backing these handles (snapshot / JSON export).
    pub fn registry(&self) -> Arc<Registry> {
        Arc::clone(&self.registry)
    }

    /// Index into [`SEARCH_TIERS`] / `search_ns_tier` for a search whose
    /// source has `walkable` walkable clusters.
    #[inline]
    pub fn tier_index(walkable: usize) -> usize {
        match walkable {
            0..=2 => 0,
            3..=6 => 1,
            _ => 2,
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
        m.search_ns.record(1_000);
        let json = m.registry().snapshot_json();
        assert!(json.contains("\"engine.search_ns\""), "{json}");
        assert!(json.contains("\"engine.book_ns\""), "{json}");
    }

    #[test]
    fn labeled_handles_are_distinct_series() {
        let m = EngineMetrics::new();
        m.search_ns_tier[0].record(10);
        m.search_ns_tier[2].record(99);
        // Series keys carry their labels; the inner quotes arrive
        // JSON-escaped in the document text.
        let json = m.registry().snapshot_json();
        assert!(json.contains("engine.search_ns{tier=\\\"t1\\\"}"), "{json}");
        assert!(json.contains("engine.search_ns{tier=\\\"t3\\\"}"), "{json}");
        // The unlabeled aggregate family still coexists.
        m.search_ns.record(7);
        assert!(m
            .registry()
            .snapshot_json()
            .contains("\"engine.search_ns\""));
    }

    #[test]
    fn tier_and_bucket_mapping() {
        assert_eq!(EngineMetrics::tier_index(0), 0);
        assert_eq!(EngineMetrics::tier_index(2), 0);
        assert_eq!(EngineMetrics::tier_index(3), 1);
        assert_eq!(EngineMetrics::tier_index(6), 1);
        assert_eq!(EngineMetrics::tier_index(7), 2);
        assert_eq!(EngineMetrics::tier_index(1_000), 2);
    }

    #[test]
    fn shared_registry_merges_metrics() {
        let reg = Arc::new(Registry::new());
        let a = EngineMetrics::with_registry(Arc::clone(&reg));
        let b = EngineMetrics::with_registry(Arc::clone(&reg));
        a.search_ns.record(10);
        b.search_ns.record(20);
        assert_eq!(reg.histogram("engine.search_ns").count(), 2);
    }
}
