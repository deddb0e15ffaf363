//! GTFS-like public-transport substrate and multi-modal router.
//!
//! The paper integrates XAR with OpenTripPlanner fed by the New York
//! GTFS feed (§X.B.3). This crate supplies both halves from scratch:
//!
//! * [`model`] — stops, lines (headway-based schedules, the common GTFS
//!   `frequencies.txt` pattern) and the transit network;
//! * [`generate`] — a synthetic feed generator: subway trunk corridors
//!   and a bus grid over any road network, with realistic stop spacing
//!   and headways;
//! * [`plan`] — multi-leg trip plans (walk / wait / transit legs) with
//!   the quality metrics Figure 6 reports: end-to-end travel time,
//!   walking time, waiting time, and hop count;
//! * [`router`] — an earliest-arrival multi-modal router (walk +
//!   transit with transfers), the role OpenTripPlanner plays for the
//!   paper.
//!
//! ```
//! use xar_roadnet::{CityConfig, NodeId};
//! use xar_transit::generate::generate_transit;
//! use xar_transit::{TransitGenConfig, TransitRouter, WalkParams};
//!
//! let graph = CityConfig::test_city(11).generate();
//! let net = generate_transit(&graph, &TransitGenConfig::default());
//! assert!(net.stop_count() > 0);
//!
//! let router = TransitRouter::new(&graph, &net, WalkParams::default());
//! let n = graph.node_count() as u32;
//! let plan = router
//!     .plan(&graph.point(NodeId(0)), &graph.point(NodeId(n - 1)), 8.0 * 3600.0)
//!     .expect("connected city has a plan");
//! // A plan's quality metrics (Figure 6) are internally consistent.
//! assert!(plan.is_consistent());
//! assert!(plan.walk_time_s() + plan.wait_time_s() <= plan.travel_time_s() + 1e-9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod generate;
pub mod model;
pub mod plan;
pub mod router;

pub use generate::TransitGenConfig;
pub use model::{Line, LineId, LineKind, Schedule, Stop, StopId, TransitNetwork};
pub use plan::{Leg, TripPlan};
pub use router::{TransitRouter, WalkParams};
