//! Workload generation and the ride-sharing simulation framework.
//!
//! The paper evaluates on the public NYC taxi trip dataset ("we
//! randomly selected a day ... approximately 350,000 taxi trips",
//! §X.A.1). This crate substitutes a seeded synthetic generator that
//! reproduces the properties the evaluation depends on — rush-hour
//! temporal peaks and Zipf-skewed spatial hotspots — plus the exact
//! simulation protocol of §X.A.2:
//!
//! > *"we iterate through the requests and for each request, we first
//! > try to search for an existing ride which could be matched with
//! > this ride request. If a ride is found, this request is matched
//! > with the ride found, thus, booking it. If multiple potential rides
//! > are found, the ride that incurs least walking for the requester is
//! > matched and booked. If no such rides are found, a new ride is
//! > created from this request and made available to be shared. Taxi
//! > capacity is assumed to be 4 (including the driver)."*
//!
//! The simulation is generic over a [`sim::RideBackend`], so the same
//! driver measures XAR and the T-Share baseline under identical
//! workloads — the setup behind Figures 4 and 5.
//!
//! ```
//! use xar_roadnet::CityConfig;
//! use xar_workload::{generate_trips, TripGenConfig};
//!
//! let graph = CityConfig::test_city(42).generate();
//! let trips = generate_trips(&graph, &TripGenConfig { count: 500, ..Default::default() });
//! assert_eq!(trips.len(), 500);
//! // Trips arrive time-sorted, ready for the replay protocol.
//! assert!(trips.windows(2).all(|w| w[0].pickup_s <= w[1].pickup_s));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
mod dispatch;
pub mod report;
pub mod sim;
pub mod trips;

pub use backend::{TShareBackend, XarBackend};
pub use report::{percentile, percentile_ns, Decision, DecisionOutcome, SimReport};
pub use sim::{run_simulation, BookResult, RideBackend, SimConfig};
pub use trips::{generate_trips, Trip, TripGenConfig};
