//! XAR runtime unit: the cluster-based in-memory ride index and the
//! four runtime operations of the paper.
//!
//! * **Create** (operation O2, §VI) — register a ride offer: compute its
//!   route, derive its pass-through clusters and, per segment, the
//!   reachable clusters within the detour limit, and insert the ride
//!   into every such cluster's *potential rides* lists. A ride is
//!   listed only while it has a free seat.
//! * **Search** (operation O1, §VII) — the two-step candidate
//!   generation (walkable clusters at the source and destination,
//!   logarithmic ETA range queries on the per-cluster lists, set
//!   intersection) followed by the combined walking and detour checks.
//!   **No shortest path is computed** — the defining property of XAR.
//! * **Book** (§VIII.B) — confirm a match: insert pick-up/drop-off
//!   via-points, recompute at most 4 shortest paths, update the route,
//!   seats and detour budget, and refresh the index.
//! * **Track** (operation O3, §VIII.A) — advance a ride along its
//!   route, marking crossed pass-through clusters (and reachable
//!   clusters that are no longer servable) obsolete, and removing the
//!   ride from the potential lists of clusters it can no longer serve.
//!
//! The entry point is [`engine::XarEngine`];
//! [`sharded::ShardedXarEngine`] is the same engine as a clonable,
//! thread-safe handle behind one `RwLock`: search reads the live
//! [`index::ClusterIndex`] under the read lock, and every write takes
//! the write lock. All four operations are instrumented through
//! [`metrics::EngineMetrics`] (an `xar-obs` registry), so latency
//! percentiles come for free:
//!
//! ```
//! use std::sync::Arc;
//! use xar_core::{EngineConfig, RideOffer, XarEngine};
//! use xar_discretize::{ClusterGoal, RegionConfig, RegionIndex};
//! use xar_roadnet::{sample_pois, CityConfig, NodeId, PoiConfig};
//!
//! let graph = Arc::new(CityConfig::test_city(3).generate());
//! let pois = sample_pois(&graph, &PoiConfig { count: 200, ..Default::default() });
//! let region = Arc::new(RegionIndex::build(
//!     Arc::clone(&graph),
//!     &pois,
//!     RegionConfig { cluster_goal: ClusterGoal::Delta(250.0), ..Default::default() },
//! ));
//!
//! let mut engine = XarEngine::new(region, EngineConfig::default());
//! let n = graph.node_count() as u32;
//! engine
//!     .create_ride(&RideOffer::simple(
//!         graph.point(NodeId(0)),
//!         graph.point(NodeId(n - 1)),
//!         8.0 * 3600.0,
//!         3,
//!         2_500.0,
//!     ))
//!     .unwrap();
//! // The create was timed into the engine's metrics registry.
//! let reg = engine.metrics().registry();
//! assert_eq!(reg.histogram("engine.create_ns").count(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod booking;
pub mod engine;
pub mod error;
mod footprint;
pub mod index;
pub mod metrics;
pub mod request;
pub mod ride;
pub mod search;
pub mod sharded;
pub mod social;
pub mod tracking;

pub use booking::BookingOutcome;
pub use engine::{EngineConfig, EngineStats, EngineStatsSnapshot, XarEngine};
pub use error::{Reason, XarError};
pub use index::ClusterIndex;
pub use metrics::EngineMetrics;
pub use request::RideRequest;
pub use ride::{Ride, RideId, RideOffer, RideStatus, RiderId};
pub use search::{RideMatch, SearchExplain};
pub use sharded::ShardedXarEngine;
pub use social::SocialGraph;
