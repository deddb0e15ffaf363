//! Three-tiered hierarchical region discretization (paper §IV–§V).
//!
//! The region hierarchy is *region → clusters → landmarks → grids →
//! point locations*, with the cross-level association of grids directly
//! to clusters through the walkable-cluster lists. This crate implements
//! the entire pre-processing unit of the XAR architecture (Figure 1):
//!
//! * [`landmarks`] — landmark extraction: the minimum-separation filter
//!   (`f`) over significant POIs (Definition 2);
//! * [`metric`] — the pairwise inter-landmark driving-distance table
//!   ("distances between landmarks" stored by the in-memory index,
//!   §III), with max-symmetrization so the clustering algorithms work on
//!   a true metric even over one-way streets;
//! * [`ilp`] — the CLUSTERMINIMIZATION integer program of §V: feasibility
//!   validation and combinatorial lower bounds;
//! * [`exact`] — exact minimum clique cover by branch-and-bound, the
//!   ground truth the approximation algorithms are property-tested
//!   against (Theorem 4 reduces CLUSTERMINIMIZATION to clique cover);
//! * [`kcenter`] — Gonzalez's 2-approximate GREEDY for metric k-center;
//! * [`greedy_search`] — GREEDYSEARCH: binary search over k invoking
//!   GREEDY, with the Theorem 6 bicriteria guarantee
//!   `(k_ALG ≤ k_OPT, diameter ≤ 4δ)`;
//! * [`assoc`] — grid/node → landmark association within `Δ` driving
//!   distance, and the walkable-cluster lists within `W` walking
//!   distance, sorted by non-decreasing walking distance;
//! * [`cluster_distance`] — the cluster-to-cluster distance table
//!   (closest landmark pair, §VI);
//! * [`region`] — the [`region::RegionIndex`]: the one-shot
//!   pre-processing pipeline producing everything the runtime needs.
//!
//! ```
//! use xar_discretize::greedy_search::greedy_search;
//! use xar_discretize::kcenter::FnMetric;
//!
//! // Ten landmarks on a line, 1.0 apart; inter-landmark threshold δ = 2.
//! let metric = FnMetric::new(10, |i, j| (i as f64 - j as f64).abs());
//! let out = greedy_search(&metric, 2.0);
//! // Theorem 6 bicriteria guarantee: no more clusters than OPT needs,
//! // with every cluster diameter at most 4δ.
//! assert!(out.clustering.k <= 10);
//! assert!(out.clustering.max_diameter(&metric) <= 4.0 * 2.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod assoc;
pub mod cluster_distance;
pub mod exact;
pub mod greedy_search;
pub mod ilp;
pub mod kcenter;
pub mod landmarks;
pub mod metric;
pub mod persist;
pub mod region;

pub use assoc::{NodeAssociation, WalkEntry};
pub use greedy_search::{Clustering, GreedySearchOutcome};
pub use kcenter::KCenterResult;
pub use landmarks::{Landmark, LandmarkId};
pub use metric::LandmarkMetric;
pub use region::{ClusterGoal, ClusterId, RegionConfig, RegionIndex};
