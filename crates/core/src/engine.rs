//! The XAR run-time unit (Figure 1): ride creation and the shared
//! engine state the search / booking / tracking operations act on.
//!
//! Search reads the engine's cluster index and nothing else: each row
//! carries its ride's remaining detour budget ([`crate::index`]), so
//! search never touches the ride records.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::sync::Arc;

use xar_discretize::{ClusterId, RegionIndex};
use xar_obs::{Counter, Registry};
use xar_roadnet::Route;

use crate::error::XarError;
use crate::index::{ClusterIndex, PotentialRide};
use crate::metrics::EngineMetrics;
use crate::ride::{PassCluster, Ride, RideId, RideOffer, RideStatus};

/// Tunables of the runtime unit.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Historical average driving speed used to estimate arrival times
    /// at reachable clusters ("the time of arrival is estimated from
    /// historical travel times", §VI), m/s.
    pub historical_speed_mps: f64,
    /// Whether rides are indexed into their *reachable* clusters in
    /// addition to the pass-through clusters. Disabling this is an
    /// ablation of the §VI design: searches then only find rides whose
    /// route passes a walkable cluster directly, so recall drops — the
    /// experiment `ablation_index` quantifies how much the reachable
    /// sets buy.
    pub index_reachable: bool,
    /// Optional diurnal congestion profile: rides departing in rush
    /// hour get proportionally later ETAs ("estimated from historical
    /// travel times", §VI). `None` means free flow.
    pub historical: Option<xar_roadnet::HistoricalSpeeds>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            historical_speed_mps: 8.0,
            index_reachable: true,
            historical: None,
        }
    }
}

/// Operation counters (searches, creations, bookings, tracking calls).
///
/// These are handles into the engine's metric registry (names
/// `engine.searches` … `engine.shortest_paths`), so the counts appear
/// in every registry snapshot / `--metrics-out` dump with no second
/// bookkeeping path; [`EngineStats::snapshot`] is a thin reader over
/// the same atomics.
#[derive(Debug, Clone)]
pub struct EngineStats {
    /// Number of search operations served (`engine.searches`).
    pub searches: Arc<Counter>,
    /// Number of rides created (`engine.creates`).
    pub creates: Arc<Counter>,
    /// Number of bookings confirmed (`engine.bookings`).
    pub bookings: Arc<Counter>,
    /// Number of tracking advances applied (`engine.tracks`).
    pub tracks: Arc<Counter>,
    /// Total shortest-path computations performed (creation + booking —
    /// never search); `engine.shortest_paths`.
    pub shortest_paths: Arc<Counter>,
}

/// A point-in-time reading of [`EngineStats`], with named fields so
/// callers never depend on positional tuple order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EngineStatsSnapshot {
    /// Search operations served.
    pub searches: u64,
    /// Rides created.
    pub creates: u64,
    /// Bookings confirmed.
    pub bookings: u64,
    /// Tracking advances applied.
    pub tracks: u64,
    /// Shortest-path computations performed (creation + booking —
    /// never search).
    pub shortest_paths: u64,
}

impl EngineStats {
    /// Resolve the counter handles from `registry` (get-or-create, so
    /// engines sharing a registry share the counts).
    pub fn from_registry(registry: &Registry) -> Self {
        Self {
            searches: registry.counter("engine.searches"),
            creates: registry.counter("engine.creates"),
            bookings: registry.counter("engine.bookings"),
            tracks: registry.counter("engine.tracks"),
            shortest_paths: registry.counter("engine.shortest_paths"),
        }
    }

    /// Read every counter at once.
    pub fn snapshot(&self) -> EngineStatsSnapshot {
        EngineStatsSnapshot {
            searches: self.searches.get(),
            creates: self.creates.get(),
            bookings: self.bookings.get(),
            tracks: self.tracks.get(),
            shortest_paths: self.shortest_paths.get(),
        }
    }
}

/// The XAR engine: region discretization + live ride state + the
/// cluster-based in-memory index.
///
/// ```
/// use std::sync::Arc;
/// use xar_core::{EngineConfig, RideOffer, RideRequest, XarEngine};
/// use xar_discretize::{ClusterGoal, RegionConfig, RegionIndex};
/// use xar_roadnet::{sample_pois, CityConfig, NodeId, PoiConfig};
///
/// // Pre-process a (small synthetic) region once.
/// let graph = Arc::new(CityConfig::test_city(7).generate());
/// let pois = sample_pois(&graph, &PoiConfig { count: 300, ..Default::default() });
/// let region = Arc::new(RegionIndex::build(
///     Arc::clone(&graph),
///     &pois,
///     RegionConfig { cluster_goal: ClusterGoal::Delta(200.0), ..Default::default() },
/// ));
///
/// // Offer a cross-town ride, then search for it — no shortest path
/// // is computed by the search.
/// let mut engine = XarEngine::new(region, EngineConfig::default());
/// let n = graph.node_count() as u32;
/// let ride = engine
///     .create_ride(&RideOffer::simple(
///         graph.point(NodeId(0)),
///         graph.point(NodeId(n - 1)),
///         8.0 * 3600.0, // 08:00
///         3,            // seats
///         2_500.0,      // detour budget, metres
///     ))
///     .unwrap();
/// let matches = engine
///     .search(
///         &RideRequest {
///             source: graph.point(NodeId(n / 2)),
///             destination: graph.point(NodeId(n - 1)),
///             window_start_s: 7.5 * 3600.0,
///             window_end_s: 9.0 * 3600.0,
///             walk_limit_m: 800.0,
///         },
///         5,
///     )
///     .unwrap();
/// assert!(matches.iter().any(|m| m.ride == ride));
/// ```
pub struct XarEngine {
    region: Arc<RegionIndex>,
    config: EngineConfig,
    rides: RideMap,
    index: ClusterIndex,
    next_id: u64,
    pub(crate) stats: EngineStats,
    pub(crate) metrics: EngineMetrics,
}

/// The ride table. The engine assigns every key, so nothing outside
/// the program picks them, and a fixed hasher makes the table's layout,
/// its capacity and the order tracking visits the rides in repeat from
/// run to run — and with them [`XarEngine::heap_bytes`].
type RideMap = HashMap<RideId, Ride, BuildHasherDefault<DefaultHasher>>;

impl XarEngine {
    /// Create an engine over a pre-processed region. Ride ids are
    /// dense: 1, 2, 3, … in creation order.
    pub fn new(region: Arc<RegionIndex>, config: EngineConfig) -> Self {
        let metrics = EngineMetrics::new();
        Self {
            index: ClusterIndex::new(region.cluster_count()),
            stats: EngineStats::from_registry(&metrics.registry()),
            region,
            config,
            rides: RideMap::default(),
            next_id: 1,
            metrics,
        }
    }

    /// The region discretization the engine runs on.
    #[inline]
    pub fn region(&self) -> &Arc<RegionIndex> {
        &self.region
    }

    /// The engine configuration.
    #[inline]
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The per-cluster potential-rides index (read-only view).
    #[inline]
    pub fn index(&self) -> &ClusterIndex {
        &self.index
    }

    /// Operation counters.
    #[inline]
    pub fn stats(&self) -> &EngineStats {
        &self.stats
    }

    /// Latency and candidate-set telemetry (see [`EngineMetrics`] for
    /// the metric names).
    #[inline]
    pub fn metrics(&self) -> &EngineMetrics {
        &self.metrics
    }

    /// The ride with id `id`, if it exists and has not been retired.
    #[inline]
    pub fn ride(&self, id: RideId) -> Option<&Ride> {
        self.rides.get(&id)
    }

    /// Number of live rides.
    #[inline]
    pub fn ride_count(&self) -> usize {
        self.rides.len()
    }

    /// Iterate over all live rides.
    pub fn rides(&self) -> impl Iterator<Item = &Ride> {
        self.rides.values()
    }

    /// **Create** (operation O2): register a ride offer.
    ///
    /// Computes the driving route (one shortest-path computation — this
    /// is creation, not search), derives the pass-through clusters of
    /// its single initial segment and the reachable clusters within the
    /// detour limit, and inserts the ride into every such cluster's
    /// potential-rides lists — none when the offer has no seat.
    pub fn create_ride(&mut self, offer: &RideOffer) -> Result<RideId, XarError> {
        let _span = xar_obs::SpanTimer::new(Arc::clone(&self.metrics.create_ns));
        let mut tspan = xar_obs::trace::span("create");
        if !(offer.detour_limit_m.is_finite() && offer.detour_limit_m >= 0.0) {
            return Err(XarError::InvalidRequest(
                "detour limit must be non-negative",
            ));
        }
        if !offer.departure_s.is_finite() {
            return Err(XarError::InvalidRequest("departure time must be finite"));
        }
        let mut stops = std::iter::once(&offer.source)
            .chain(&offer.via)
            .chain([&offer.destination]);
        if !stops.all(crate::request::finite) {
            return Err(XarError::InvalidRequest("coordinates must be finite"));
        }
        // The stop sequence: source, any driver-declared alternate-route
        // points ("unless the user has explicitly specified an alternate
        // route", §VI), destination. The route is the concatenation of
        // shortest paths between consecutive stops, and every stop is a
        // via-point.
        let mut stop_nodes = Vec::with_capacity(offer.via.len() + 2);
        stop_nodes.push(self.region.snap_exact(&offer.source));
        for p in &offer.via {
            stop_nodes.push(self.region.snap_exact(p));
        }
        stop_nodes.push(self.region.snap_exact(&offer.destination));
        stop_nodes.dedup();
        if stop_nodes.len() < 2 {
            return Err(XarError::InvalidRequest("source and destination coincide"));
        }

        let (route, via_points) = Route::through(&stop_nodes, |a, b| {
            self.stats.shortest_paths.inc();
            let path = {
                let _sp_span = xar_obs::SpanTimer::new(Arc::clone(&self.metrics.sp_ns));
                let _sp_trace = xar_obs::trace::span("shortest_path");
                self.region.router().path(a, b)
            }?;
            Route::from_path_result(self.region.graph(), &path)
        })
        .ok_or(XarError::NoRoute)?;

        let id = RideId(self.next_id);
        self.next_id += 1;
        let mut ride = Ride {
            id,
            source: offer.source,
            destination: offer.destination,
            departure_s: offer.departure_s,
            seats_available: offer.seats,
            via_points,
            route,
            detour_limit_m: offer.detour_limit_m,
            detour_used_m: 0.0,
            pass_clusters: Vec::new(),
            bookings: Vec::new(),
            driver: offer.driver,
            time_scale: self
                .config
                .historical
                .as_ref()
                .map_or(1.0, |h| h.multiplier_at(offer.departure_s)),
            status: RideStatus::Active,
            progress_idx: 0,
        };
        Self::index_ride(&self.region, &self.config, &mut ride, &mut self.index, 0);
        self.rides.insert(id, ride);
        self.stats.creates.inc();
        tspan.attr("ride", id.0);
        tspan.attr("legs", stop_nodes.len() as u64 - 1);
        Ok(id)
    }

    /// (Re)compute a ride's pass-through clusters and reachable clusters
    /// from way-point `from_idx` onward, inserting the corresponding
    /// entries into the cluster index. The ride's `pass_clusters` is
    /// replaced.
    ///
    /// A ride is listed only while it has a free seat (§VII's last
    /// check): a full ride gets an empty footprint, so search never
    /// meets it and tracking only advances its progress.
    ///
    /// Shared by creation (whole route) and booking (route changed;
    /// re-index from current progress).
    pub(crate) fn index_ride(
        region: &RegionIndex,
        config: &EngineConfig,
        ride: &mut Ride,
        index: &mut ClusterIndex,
        from_idx: usize,
    ) {
        if ride.seats_available == 0 {
            // A new `Vec`, not `clear()`: the old footprint's capacity
            // goes back to the allocator.
            ride.pass_clusters = Vec::new();
            return;
        }
        let _tspan = xar_obs::trace::span("index_ride");
        let nodes = ride.route.nodes();
        // Run-length scan: maximal runs of way-points mapping to the
        // same cluster become pass-through clusters.
        let mut pass: Vec<PassCluster> = Vec::new();
        let mut cur: Option<(ClusterId, usize)> = None; // (cluster, entry idx)
        #[allow(clippy::needless_range_loop)] // idx is also the run boundary marker
        for idx in from_idx..nodes.len() {
            let cluster = region.cluster_of_node(nodes[idx]);
            if let (Some((c, _)), Some(nc)) = (cur, cluster) {
                if nc == c {
                    continue; // run continues
                }
            }
            if let Some((c, entry)) = cur {
                pass.push(Self::make_pass_cluster(ride, c, entry, idx - 1));
            }
            cur = cluster.map(|nc| (nc, idx));
        }
        if let Some((c, entry)) = cur {
            pass.push(Self::make_pass_cluster(ride, c, entry, nodes.len() - 1));
        }

        // Reachable clusters per pass-through cluster (§VI): the
        // clusters within the remaining detour of the pass cluster,
        // refined by the triangle detour test against the segment's end
        // via-point (`Footprint::reachable`). Candidates go to the
        // footprint in route order: per cluster the smaller detour wins,
        // then the earlier ETA, else the first.
        let budget = if config.index_reachable {
            ride.detour_remaining_m()
        } else {
            0.0
        };
        crate::footprint::with(region.cluster_count(), |fp| {
            // The end cluster whose distance column `fp.column` holds.
            let mut column_of = None;
            for p in &mut pass {
                let end_via = ride.via_points[(p.seg + 1).min(ride.via_points.len() - 1)];
                let end_cluster = region.cluster_of_node(nodes[end_via]);
                // d(p, ·) is a contiguous row; d(·, v) to the segment's end
                // cluster v a strided column, copied out once per segment.
                let row = region.cluster_distances_from(p.cluster);
                if column_of != Some(end_cluster) {
                    fp.column.clear();
                    match end_cluster {
                        Some(cv) => fp.column.extend(region.cluster_distances_to(cv)),
                        None => fp.column.resize(row.len(), f32::INFINITY),
                    }
                    column_of = Some(end_cluster);
                }
                let d_pv = end_cluster.map_or(f64::INFINITY, |cv| f64::from(row[cv.index()]));
                let speed = config.historical_speed_mps;
                // One allocation, sized exactly.
                p.reachable = fp
                    .reachable(row, p.cluster.index(), d_pv, budget, p.eta_s, speed)
                    .to_vec();

                fp.offer(
                    p.cluster,
                    p.entry(ride, p.eta_s, 0.0),
                    PotentialRide::better_than,
                );
                for &(c, detour, eta) in &p.reachable {
                    fp.offer(c, p.entry(ride, eta, detour), PotentialRide::better_than);
                }
            }
            // One insert per distinct cluster.
            for &(c, entry) in fp.entries() {
                index.insert(c, entry);
            }
        });
        ride.pass_clusters = pass;
    }

    fn make_pass_cluster(
        ride: &Ride,
        cluster: ClusterId,
        entry_idx: usize,
        exit_idx: usize,
    ) -> PassCluster {
        PassCluster {
            cluster,
            seg: xar_roadnet::route::segment_of(&ride.via_points, entry_idx),
            route_idx: entry_idx,
            eta_s: ride.eta_at_route_idx(entry_idx),
            reachable: Vec::new(),
            exit_idx,
        }
    }

    /// Mutable access to the ride table (crate-internal: booking and
    /// tracking).
    pub(crate) fn rides_mut(&mut self) -> &mut RideMap {
        &mut self.rides
    }

    /// Run `f` with simultaneous mutable access to one ride and the
    /// cluster index (split borrow helper for booking/tracking).
    pub(crate) fn with_index_and_ride(
        &mut self,
        id: RideId,
        f: impl FnOnce(&mut Ride, &mut ClusterIndex),
    ) {
        if let Some(ride) = self.rides.get_mut(&id) {
            f(ride, &mut self.index);
        }
    }

    /// Remove every index entry belonging to `ride` (pass-through and
    /// reachable clusters alike), one removal per distinct cluster.
    /// `traced` says whether the caller's span records; only then is a
    /// `deindex_ride` span opened beneath it.
    pub(crate) fn deindex_ride(ride: &Ride, index: &mut ClusterIndex, traced: bool) {
        let _tspan = traced.then(|| xar_obs::trace::span("deindex_ride"));
        crate::footprint::with(index.cluster_count(), |fp| {
            for c in ride.pass_clusters.iter().flat_map(PassCluster::clusters) {
                if fp.first_visit(c) {
                    index.remove(c, ride.id);
                }
            }
        });
    }

    /// Total heap bytes of the runtime state: region discretization
    /// tables + cluster index + all ride records. This is the quantity
    /// Figure 3c reports (the paper measured it with the Classmexer JVM
    /// agent; we account our own structures exactly).
    pub fn heap_bytes(&self) -> usize {
        let rides: usize = self.rides.values().map(|r| r.heap_bytes()).sum();
        let ride_map = (self.rides.capacity() as f64 * 1.1) as usize
            * (std::mem::size_of::<(RideId, Ride)>() + 8);
        self.region.heap_bytes() + self.index.heap_bytes() + rides + ride_map
    }
}
