//! Per-engine telemetry for the T-Share baseline, symmetric with
//! `xar_core::EngineMetrics` so the two systems' latency distributions
//! can be compared from one registry snapshot.
//!
//! | name | type | unit |
//! |------|------|------|
//! | `tshare.search_ns` | histogram | ns per search call |
//! | `tshare.create_ns` | histogram | ns per taxi creation |
//! | `tshare.book_ns` | histogram | ns per booking |
//! | `tshare.track_ns` | histogram | ns per tracking sweep |
//! | `tshare.search_candidates` | histogram | taxis feasibility-checked per search |
//! | `tshare.search_ns{outcome="hit"\|"miss"}` | histogram | search latency split by whether any match was found (misses pay the full ring expansion, so their latency profile differs) |

use std::sync::Arc;

use xar_obs::{Histogram, Registry};

/// Cached metric handles for one T-Share engine instance.
#[derive(Clone)]
pub struct TShareMetrics {
    registry: Arc<Registry>,
    /// End-to-end search latency, nanoseconds.
    pub search_ns: Arc<Histogram>,
    /// End-to-end taxi-creation latency, nanoseconds.
    pub create_ns: Arc<Histogram>,
    /// End-to-end booking latency, nanoseconds.
    pub book_ns: Arc<Histogram>,
    /// End-to-end tracking-sweep latency, nanoseconds.
    pub track_ns: Arc<Histogram>,
    /// Candidate taxis put through the lazy insertion feasibility check
    /// per search — each costs up to 4 shortest paths, which is the
    /// cost XAR's index avoids.
    pub search_candidates: Arc<Histogram>,
    /// `tshare.search_ns{outcome=…}` — search latency by outcome,
    /// index-aligned with [`SEARCH_OUTCOMES`] (`hit` = at least one
    /// match returned, `miss` = none).
    pub search_ns_outcome: [Arc<Histogram>; 2],
}

/// The `outcome` label values for [`TShareMetrics::search_ns_outcome`].
pub const SEARCH_OUTCOMES: [&str; 2] = ["hit", "miss"];

impl TShareMetrics {
    /// Fresh metrics over a new private registry.
    pub fn new() -> Self {
        Self::with_registry(Arc::new(Registry::new()))
    }

    /// Metrics recording into an existing registry (so the baseline and
    /// the XAR engine can share one snapshot).
    pub fn with_registry(registry: Arc<Registry>) -> Self {
        let search_ns = registry.histogram("tshare.search_ns");
        let create_ns = registry.histogram("tshare.create_ns");
        let book_ns = registry.histogram("tshare.book_ns");
        let track_ns = registry.histogram("tshare.track_ns");
        let search_candidates = registry.histogram("tshare.search_candidates");
        let search_ns_outcome =
            SEARCH_OUTCOMES.map(|o| registry.histogram_with("tshare.search_ns", &[("outcome", o)]));
        Self {
            registry,
            search_ns,
            create_ns,
            book_ns,
            track_ns,
            search_candidates,
            search_ns_outcome,
        }
    }

    /// The registry backing these handles.
    pub fn registry(&self) -> Arc<Registry> {
        Arc::clone(&self.registry)
    }
}

impl Default for TShareMetrics {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_prefixed() {
        let m = TShareMetrics::new();
        m.search_ns.record(5);
        assert!(m
            .registry()
            .snapshot_json()
            .contains("\"tshare.search_ns\""));
    }

    #[test]
    fn outcome_series_are_distinct() {
        let m = TShareMetrics::new();
        m.search_ns_outcome[0].record(10);
        m.search_ns_outcome[1].record(20);
        let json = m.registry().snapshot_json();
        assert!(
            json.contains("tshare.search_ns{outcome=\\\"hit\\\"}"),
            "{json}"
        );
        assert!(
            json.contains("tshare.search_ns{outcome=\\\"miss\\\"}"),
            "{json}"
        );
    }
}
