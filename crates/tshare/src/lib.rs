//! T-Share baseline (Ma, Zheng & Wolfson, ICDE 2013) — the
//! state-of-the-art system the XAR paper benchmarks against.
//!
//! The original implementation is not public; like the paper's authors
//! ("we implemented T-Share to resemble the description in \[6\]"), we
//! re-implement it from the published description, with the same
//! adaptations the XAR paper applied for the comparison:
//!
//! * the region is partitioned into a **flat grid** (1 km cells in the
//!   paper's experiments — "equivalent to the cluster size of XAR");
//! * each cell keeps a **temporally-ordered taxi list** (taxis that will
//!   pass the cell, sorted by estimated arrival);
//! * search runs a **dual-side expanding grid scan** around the pick-up
//!   and drop-off cells, in increasing ring distance, capped at a
//!   configurable number of cells (80 in the paper ≈ a 4 km detour
//!   bound);
//! * every candidate taxi then undergoes a **lazy shortest-path
//!   insertion check** — the cost the XAR index exists to avoid. An
//!   alternative [`DistanceMode::Haversine`] replaces the shortest
//!   paths with the haversine formula, reproducing the paper's second
//!   comparison setting (Figure 5a);
//! * the matching loop is modified, as in the paper, to keep searching
//!   until **all** (or the first `k`) matches are found rather than
//!   stopping at the first.
//!
//! ```
//! use std::sync::Arc;
//! use xar_roadnet::{CityConfig, NodeId};
//! use xar_tshare::engine::TShareRequest;
//! use xar_tshare::{TShareConfig, TShareEngine};
//!
//! let graph = Arc::new(CityConfig::test_city(5).generate());
//! let n = graph.node_count() as u32;
//! let mut engine = TShareEngine::new(Arc::clone(&graph), TShareConfig::default());
//! let taxi = engine
//!     .create_taxi(graph.point(NodeId(0)), graph.point(NodeId(n - 1)), 8.0 * 3600.0, 3)
//!     .expect("route exists");
//! let matches = engine.search(
//!     &TShareRequest {
//!         pickup: graph.point(NodeId(0)),
//!         dropoff: graph.point(NodeId(n - 1)),
//!         window_start_s: 7.5 * 3600.0,
//!         window_end_s: 9.0 * 3600.0,
//!     },
//!     5,
//! );
//! assert!(matches.iter().any(|m| m.taxi == taxi));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod index;
pub mod metrics;
pub mod taxi;

pub use engine::{DistanceMode, TShareConfig, TShareEngine, TShareMatch};
pub use index::GridTaxiIndex;
pub use metrics::TShareMetrics;
pub use taxi::{Taxi, TaxiId};
