//! Road-network substrate for the XAR system.
//!
//! The paper obtains its road network from OpenStreetMap and its
//! shortest paths from OpenTripPlanner. This crate replaces both with a
//! from-scratch implementation:
//!
//! * [`graph`] — a compact directed road graph (CSR adjacency) whose
//!   vertices are way-points with geographic coordinates, exactly the
//!   representation the paper assumes ("OpenStreetMaps represent the
//!   underlying road network as a graph where the vertices correspond to
//!   waypoints", §VI fn. 2).
//! * [`spatial`] — grid-bucketed nearest-node lookup for snapping
//!   point locations onto the network.
//! * [`shortest_path`] — Dijkstra and its bounded, multi-target and
//!   one-to-all variants, over driving time, driving distance, or
//!   undirected walking distance (walking ignores one-way restrictions,
//!   which is why the paper keeps separate walking and driving
//!   distances).
//! * [`router`] — the exact goal-directed point-to-point router (ALT
//!   landmark bounds on a reusable per-thread scratch) that ride
//!   creation and booking route through.
//! * [`route`] — a concrete route: node sequence + cumulative
//!   distance/time, supporting position-at-time queries for tracking.
//! * [`generators`] — synthetic city generators (Manhattan lattice with
//!   avenues/streets/one-ways, radial, random) standing in for the NYC
//!   OSM extract, plus strong-connectivity repair.
//! * [`poi`] — a seeded point-of-interest sampler standing in for the
//!   Google Places landmark source.
//!
//! ```
//! use xar_roadnet::{CityConfig, CostMetric, Direction, NodeId, ShortestPaths};
//!
//! let graph = CityConfig::test_city(7).generate();
//! let sp = ShortestPaths::new(&graph, CostMetric::Distance, Direction::Forward);
//! let n = graph.node_count() as u32;
//! let path = sp.path(NodeId(0), NodeId(n - 1)).expect("city is strongly connected");
//! // A road path is never shorter than the great-circle distance.
//! let crow = graph.point(NodeId(0)).haversine_m(&graph.point(NodeId(n - 1)));
//! assert!(path.dist_m >= crow - 1.0);
//! assert_eq!(path.nodes.first(), Some(&NodeId(0)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod generators;
pub mod graph;
pub mod io;
pub mod poi;
pub mod route;
pub mod router;
pub mod scc;
mod scratch;
pub mod shortest_path;
pub mod spatial;
pub mod travel_time;

pub use generators::{CityConfig, CityKind};
pub use graph::{Edge, EdgeId, Node, NodeId, RoadClass, RoadGraph, RoadGraphBuilder};
pub use poi::{prune_insignificant, sample_pois, Poi, PoiConfig, PoiKind};
pub use route::Route;
pub use router::Router;
pub use scratch::{HeapEntry, RadixHeap};
pub use shortest_path::{CostMetric, Direction, PathResult, ShortestPaths, WALK_SPEED_MPS};
pub use spatial::NodeLocator;
pub use travel_time::HistoricalSpeeds;
