//! The T-Share engine: create / dual-side search / book / track.
//!
//! The search path is deliberately faithful to the baseline's cost
//! profile: an expanding ring scan over grid cells followed by a *lazy
//! shortest-path* feasibility check per candidate taxi. Those
//! per-candidate shortest paths are exactly what makes T-Share's search
//! slow relative to XAR (Figure 4a), and make its search time grow
//! linearly with the number of requested matches `k` (Figure 5a) — in
//! [`DistanceMode::Haversine`] the shortest paths are replaced by the
//! haversine formula and the growth in `k` remains, reproducing the
//! paper's finding that "higher search time of T-Share is not just
//! because of shortest path calculation, but also due to the way rides
//! are indexed".

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use xar_geo::{BoundingBox, GeoPoint, GridSpec};
use xar_roadnet::route::segment_of;
use xar_roadnet::{NodeId, NodeLocator, RoadGraph, Route, Router};

use crate::index::{CellEntry, GridTaxiIndex};
use crate::metrics::TShareMetrics;
use crate::taxi::{CellVisit, Taxi, TaxiId};

/// How the feasibility check measures distances.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DistanceMode {
    /// Real shortest paths over the road graph (the baseline's "lazy
    /// shortest path calculation").
    ShortestPath,
    /// Haversine distance with a circuity factor — "negligible constant
    /// time" (§X.B.2's alternate setting).
    Haversine,
}

/// T-Share configuration. Defaults follow the XAR paper's comparison
/// setup: 1 km grid cells and an 80-cell search cap ≈ 4 km max detour.
#[derive(Debug, Clone)]
pub struct TShareConfig {
    /// Grid cell side, metres.
    pub grid_cell_m: f64,
    /// Maximum number of neighbouring cells explored per search side.
    pub max_search_cells: usize,
    /// Maximum detour a taxi accepts for one match, metres.
    pub max_detour_m: f64,
    /// Distance mode of the feasibility check.
    pub distance_mode: DistanceMode,
    /// Historical average speed for ETA compensation, m/s.
    pub historical_speed_mps: f64,
    /// Circuity factor applied to haversine distances (road distance ≈
    /// haversine × factor).
    pub haversine_circuity: f64,
}

impl Default for TShareConfig {
    fn default() -> Self {
        Self {
            grid_cell_m: 1_000.0,
            max_search_cells: 80,
            max_detour_m: 4_000.0,
            distance_mode: DistanceMode::ShortestPath,
            historical_speed_mps: 8.0,
            haversine_circuity: 1.3,
        }
    }
}

/// A rider request in the T-Share model: the taxi detours to the exact
/// pick-up / drop-off points (no walking).
#[derive(Debug, Clone, Copy)]
pub struct TShareRequest {
    /// Pick-up location.
    pub pickup: GeoPoint,
    /// Drop-off location.
    pub dropoff: GeoPoint,
    /// Earliest pick-up, absolute seconds.
    pub window_start_s: f64,
    /// Latest pick-up, absolute seconds.
    pub window_end_s: f64,
}

/// A feasible match produced by the T-Share search.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TShareMatch {
    /// The matched taxi.
    pub taxi: TaxiId,
    /// Snapped pick-up way-point.
    pub pickup_node: NodeId,
    /// Snapped drop-off way-point.
    pub dropoff_node: NodeId,
    /// Route way-point after which the pick-up is inserted.
    pub pickup_route_idx: usize,
    /// Route way-point after which the drop-off is inserted.
    pub dropoff_route_idx: usize,
    /// Estimated pick-up time, absolute seconds.
    pub pickup_eta_s: f64,
    /// Estimated total detour of the insertion, metres.
    pub detour_m: f64,
}

/// Operation counters.
#[derive(Debug, Default)]
pub struct TShareStats {
    /// Search operations served.
    pub searches: AtomicU64,
    /// Taxis created.
    pub creates: AtomicU64,
    /// Bookings confirmed.
    pub bookings: AtomicU64,
    /// Shortest-path computations (creation + booking + *search* — the
    /// baseline, unlike XAR, pays them at search time).
    pub shortest_paths: AtomicU64,
}

/// The T-Share baseline engine.
pub struct TShareEngine {
    graph: Arc<RoadGraph>,
    /// Exact driving-distance router for every shortest path T-Share
    /// computes: the same paths as plain Dijkstra, bit for bit.
    router: Router,
    grid: GridSpec,
    locator: NodeLocator,
    config: TShareConfig,
    taxis: HashMap<TaxiId, Taxi>,
    index: GridTaxiIndex,
    next_id: u64,
    stats: TShareStats,
    metrics: TShareMetrics,
}

impl TShareEngine {
    /// Create an engine over a road graph.
    pub fn new(graph: Arc<RoadGraph>, config: TShareConfig) -> Self {
        Self::with_metrics(graph, config, TShareMetrics::new())
    }

    /// Create an engine recording into caller-supplied metrics (for
    /// sharing one registry with the XAR engine under comparison).
    pub fn with_metrics(
        graph: Arc<RoadGraph>,
        config: TShareConfig,
        metrics: TShareMetrics,
    ) -> Self {
        let bbox = BoundingBox::from_points(graph.node_ids().map(|n| graph.point(n)))
            .expect("non-empty graph")
            .expanded(1e-3);
        let grid = GridSpec::new(bbox, config.grid_cell_m);
        let locator = NodeLocator::new(&graph, 250.0);
        let router = Router::new(Arc::clone(&graph));
        Self {
            graph,
            router,
            grid,
            locator,
            config,
            taxis: HashMap::new(),
            index: GridTaxiIndex::new(),
            next_id: 1,
            stats: TShareStats::default(),
            metrics,
        }
    }

    /// Latency and candidate-set telemetry.
    pub fn metrics(&self) -> &TShareMetrics {
        &self.metrics
    }

    /// The underlying road graph.
    pub fn graph(&self) -> &Arc<RoadGraph> {
        &self.graph
    }

    /// Operation counters.
    pub fn stats(&self) -> &TShareStats {
        &self.stats
    }

    /// The taxi with id `id`.
    pub fn taxi(&self, id: TaxiId) -> Option<&Taxi> {
        self.taxis.get(&id)
    }

    /// Number of live taxis.
    pub fn taxi_count(&self) -> usize {
        self.taxis.len()
    }

    /// Distance between two way-points under the configured mode.
    fn check_distance(&self, a: NodeId, b: NodeId) -> Option<f64> {
        match self.config.distance_mode {
            DistanceMode::ShortestPath => {
                self.stats.shortest_paths.fetch_add(1, Ordering::Relaxed);
                let _sp_trace = xar_obs::trace::span("shortest_path");
                self.router.path(a, b).map(|p| p.dist_m)
            }
            DistanceMode::Haversine => Some(
                self.graph.point(a).haversine_m(&self.graph.point(b))
                    * self.config.haversine_circuity,
            ),
        }
    }

    /// Register a taxi (ride offer): one shortest path for the route,
    /// then cheap grid-cell list insertions.
    pub fn create_taxi(
        &mut self,
        source: GeoPoint,
        destination: GeoPoint,
        departure_s: f64,
        seats: u8,
    ) -> Option<TaxiId> {
        let _span = xar_obs::SpanTimer::new(Arc::clone(&self.metrics.create_ns));
        let _tspan = xar_obs::trace::span("create");
        let src = self.locator.nearest(&self.graph, &source).0;
        let dst = self.locator.nearest(&self.graph, &destination).0;
        self.stats.shortest_paths.fetch_add(1, Ordering::Relaxed);
        let path = {
            let _sp_trace = xar_obs::trace::span("shortest_path");
            self.router.path(src, dst)?
        };
        let route = Route::from_path_result(&self.graph, &path)?;
        let id = TaxiId(self.next_id);
        self.next_id += 1;
        let last = route.len() - 1;
        let mut taxi = Taxi {
            id,
            source,
            destination,
            departure_s,
            seats_available: seats,
            via_points: vec![0, last],
            route,
            cells: Vec::new(),
            detour_used_m: 0.0,
            progress_idx: 0,
        };
        Self::index_taxi(&self.grid, &self.graph, &mut taxi, &mut self.index, 0);
        self.taxis.insert(id, taxi);
        self.stats.creates.fetch_add(1, Ordering::Relaxed);
        Some(id)
    }

    /// (Re)compute the cell visits of a taxi from way-point `from_idx`
    /// and insert them into the grid index.
    fn index_taxi(
        grid: &GridSpec,
        graph: &RoadGraph,
        taxi: &mut Taxi,
        index: &mut GridTaxiIndex,
        from_idx: usize,
    ) {
        let mut cells: Vec<CellVisit> = Vec::new();
        let nodes = taxi.route.nodes();
        let mut cur: Option<xar_geo::GridId> = None;
        for (idx, &n) in nodes.iter().enumerate().skip(from_idx) {
            let cell = grid.grid_of(&graph.point(n));
            if cur == Some(cell) {
                continue;
            }
            cur = Some(cell);
            cells.push(CellVisit {
                cell,
                route_idx: idx,
                eta_s: taxi.eta_at(idx),
            });
        }
        for v in &cells {
            index.insert(
                v.cell,
                CellEntry {
                    taxi: taxi.id,
                    eta_s: v.eta_s,
                    route_idx: v.route_idx,
                },
            );
        }
        taxi.cells = cells;
    }

    /// Remove every index entry of `taxi`.
    fn deindex_taxi(taxi: &Taxi, index: &mut GridTaxiIndex) {
        let mut seen = std::collections::HashSet::new();
        for v in &taxi.cells {
            if seen.insert(v.cell.packed()) {
                index.remove_taxi(v.cell, taxi.id);
            }
        }
    }

    /// **Search**: dual-side *incrementally* expanding scan with a lazy
    /// shortest-path feasibility check per candidate. Rings around the
    /// pick-up and drop-off cells grow in lockstep; a taxi becomes a
    /// candidate once it has been seen on both sides, and the expansion
    /// stops as soon as `k` feasible matches are confirmed (the paper's
    /// modification: "search the region until it finds all the taxis
    /// ... which can be matched" — with `k = usize::MAX` the whole
    /// 80-cell region is scanned). This incremental structure is what
    /// makes T-Share's search cost grow with `k` (Figure 5a).
    pub fn search(&self, req: &TShareRequest, k: usize) -> Vec<TShareMatch> {
        self.stats.searches.fetch_add(1, Ordering::Relaxed);
        let t0 = std::time::Instant::now();
        let _span = xar_obs::SpanTimer::new(Arc::clone(&self.metrics.search_ns));
        let mut tspan = xar_obs::trace::span("search");
        if k == 0 {
            return vec![];
        }
        // Outcome-labeled latency: misses scan the full ring budget, so
        // their distribution is the interesting one in the metrics.
        let outcome_hist = |hit: bool| &self.metrics.search_ns_outcome[usize::from(!hit)];
        let pickup_node = self.locator.nearest(&self.graph, &req.pickup).0;
        let dropoff_node = self.locator.nearest(&self.graph, &req.dropoff).0;
        let p_center = self.grid.grid_of(&req.pickup);
        let d_center = self.grid.grid_of(&req.dropoff);

        let mut p_seen: HashMap<TaxiId, CellEntry> = HashMap::new();
        let mut d_seen: HashMap<TaxiId, CellEntry> = HashMap::new();
        let mut checked: std::collections::HashSet<TaxiId> = Default::default();
        let mut out = Vec::new();
        let (mut scanned_p, mut scanned_d) = (0usize, 0usize);
        let max_cells = self.config.max_search_cells;
        let max_radius = self.grid.cols().max(self.grid.rows());

        let merge = |map: &mut HashMap<TaxiId, CellEntry>, e: &CellEntry| {
            map.entry(e.taxi)
                .and_modify(|cur| {
                    if e.eta_s < cur.eta_s {
                        *cur = *e;
                    }
                })
                .or_insert(*e);
        };

        for radius in 0..=max_radius {
            if scanned_p >= max_cells && scanned_d >= max_cells {
                break;
            }
            let slack =
                f64::from(radius) * self.config.grid_cell_m / self.config.historical_speed_mps;
            if scanned_p < max_cells {
                for cell in self.grid.ring(p_center, radius) {
                    scanned_p += 1;
                    for e in self.index.range_eta(
                        cell,
                        req.window_start_s - slack,
                        req.window_end_s + slack,
                    ) {
                        merge(&mut p_seen, e);
                    }
                    if scanned_p >= max_cells {
                        break;
                    }
                }
            }
            if scanned_d < max_cells {
                for cell in self.grid.ring(d_center, radius) {
                    scanned_d += 1;
                    for e in self
                        .index
                        .range_eta(cell, req.window_start_s - slack, f64::INFINITY)
                    {
                        merge(&mut d_seen, e);
                    }
                    if scanned_d >= max_cells {
                        break;
                    }
                }
            }
            // Feasibility-check every taxi now present on both sides,
            // in temporal order of pick-up arrival.
            let mut ready: Vec<(TaxiId, CellEntry)> = p_seen
                .iter()
                .filter(|(t, _)| d_seen.contains_key(t) && !checked.contains(t))
                .map(|(t, e)| (*t, *e))
                .collect();
            ready.sort_by(|a, b| a.1.eta_s.total_cmp(&b.1.eta_s).then(a.0.cmp(&b.0)));
            for (tid, p_entry) in ready {
                checked.insert(tid);
                if let Some(m) = self.feasibility_check(
                    &tid,
                    &p_entry,
                    &d_seen[&tid],
                    pickup_node,
                    dropoff_node,
                    req,
                ) {
                    out.push(m);
                    if out.len() >= k {
                        self.metrics.search_candidates.record(checked.len() as u64);
                        outcome_hist(true).record(t0.elapsed().as_nanos() as u64);
                        tspan.attr("candidates", checked.len());
                        tspan.attr("matches", out.len());
                        return out;
                    }
                }
            }
        }
        self.metrics.search_candidates.record(checked.len() as u64);
        outcome_hist(!out.is_empty()).record(t0.elapsed().as_nanos() as u64);
        tspan.attr("candidates", checked.len());
        tspan.attr("matches", out.len());
        out
    }

    /// The lazy insertion feasibility check: up to four shortest-path
    /// (or haversine) distance computations per candidate taxi.
    fn feasibility_check(
        &self,
        tid: &TaxiId,
        p_entry: &CellEntry,
        d_entry: &CellEntry,
        pickup_node: NodeId,
        dropoff_node: NodeId,
        req: &TShareRequest,
    ) -> Option<TShareMatch> {
        let _tspan = xar_obs::trace::span("feasibility_check");
        let taxi = self.taxis.get(tid)?;
        if taxi.seats_available == 0 {
            return None;
        }
        if d_entry.route_idx < p_entry.route_idx {
            return None; // drop-off side met the route before the pick-up side
        }
        let nodes = taxi.route.nodes();
        let p_anchor = nodes[p_entry.route_idx];
        let d_anchor = nodes[d_entry.route_idx];
        let p_seg_end = taxi.via_points[segment_of(&taxi.via_points, p_entry.route_idx) + 1];
        let d_seg_end = taxi.via_points[segment_of(&taxi.via_points, d_entry.route_idx) + 1];
        let d1 = self.check_distance(p_anchor, pickup_node)?;
        let d2 = self.check_distance(pickup_node, nodes[p_seg_end])?;
        let pickup_detour =
            (d1 + d2 - taxi.route.dist_between(p_entry.route_idx, p_seg_end)).max(0.0);
        let d3 = self.check_distance(d_anchor, dropoff_node)?;
        let d4 = self.check_distance(dropoff_node, nodes[d_seg_end])?;
        let dropoff_detour =
            (d3 + d4 - taxi.route.dist_between(d_entry.route_idx, d_seg_end)).max(0.0);
        let detour = pickup_detour + dropoff_detour;
        if detour > self.config.max_detour_m {
            return None;
        }
        let pickup_eta = p_entry.eta_s + d1 / self.config.historical_speed_mps;
        if pickup_eta < req.window_start_s || pickup_eta > req.window_end_s {
            return None;
        }
        Some(TShareMatch {
            taxi: *tid,
            pickup_node,
            dropoff_node,
            pickup_route_idx: p_entry.route_idx,
            dropoff_route_idx: d_entry.route_idx,
            pickup_eta_s: pickup_eta,
            detour_m: detour,
        })
    }

    /// **Book** a match: insert the pick-up and drop-off into the
    /// schedule with [`Route::insert_stops`] — the same §VIII.B
    /// insertion XAR books with, so only the changed legs are routed —
    /// and refresh the grid lists.
    pub fn book(&mut self, m: &TShareMatch) -> Option<f64> {
        let _span = xar_obs::SpanTimer::new(Arc::clone(&self.metrics.book_ns));
        let mut tspan = xar_obs::trace::span("book");
        let taxi = self.taxis.get(&m.taxi)?;
        if taxi.seats_available == 0 {
            return None;
        }
        let mut n_sp = 0u64;
        let mut leg = |a: NodeId, b: NodeId| -> Option<Route> {
            n_sp += 1;
            let _sp_trace = xar_obs::trace::span("shortest_path");
            Route::from_path_result(&self.graph, &self.router.path(a, b)?)
        };

        let p_seg = segment_of(&taxi.via_points, m.pickup_route_idx);
        let d_seg = segment_of(
            &taxi.via_points,
            m.dropoff_route_idx.max(m.pickup_route_idx),
        );
        let old_len = taxi.route.dist_m();
        let (route, vias) = (&taxi.route, &taxi.via_points);
        let (new_route, new_vias) = if p_seg == d_seg {
            route.insert_stops(vias, p_seg, &[m.pickup_node, m.dropoff_node], &mut leg)?
        } else {
            let (mid, vias) = route.insert_stops(vias, p_seg, &[m.pickup_node], &mut leg)?;
            mid.insert_stops(&vias, d_seg + 1, &[m.dropoff_node], &mut leg)?
        };
        self.stats.shortest_paths.fetch_add(n_sp, Ordering::Relaxed);
        let detour = (new_route.dist_m() - old_len).max(0.0);

        let taxi = self.taxis.get_mut(&m.taxi).expect("checked above");
        Self::deindex_taxi(taxi, &mut self.index);
        taxi.route = new_route;
        taxi.via_points = new_vias;
        taxi.seats_available -= 1;
        taxi.detour_used_m += detour;
        let from = taxi.progress_idx;
        // Split borrow: take the taxi out, index, put back.
        let mut owned = self.taxis.remove(&m.taxi).expect("present");
        Self::index_taxi(&self.grid, &self.graph, &mut owned, &mut self.index, from);
        self.taxis.insert(m.taxi, owned);
        self.stats.bookings.fetch_add(1, Ordering::Relaxed);
        tspan.attr("taxi", m.taxi.0);
        tspan.attr("shortest_paths", n_sp);
        tspan.attr("detour_m", detour);
        Some(detour)
    }

    /// Advance every taxi to `now_s`: drop passed cell entries, retire
    /// finished taxis. Returns the number retired.
    pub fn track_all(&mut self, now_s: f64) -> usize {
        let _span = xar_obs::SpanTimer::new(Arc::clone(&self.metrics.track_ns));
        let mut tspan = xar_obs::trace::span("track");
        let ids: Vec<TaxiId> = self.taxis.keys().copied().collect();
        let mut retired = 0usize;
        for id in ids {
            let taxi = self.taxis.get_mut(&id).expect("present");
            if now_s <= taxi.departure_s {
                continue;
            }
            let idx = taxi.route.index_at_time(now_s - taxi.departure_s);
            if idx + 1 >= taxi.route.len() {
                let owned = self.taxis.remove(&id).expect("present");
                Self::deindex_taxi(&owned, &mut self.index);
                retired += 1;
                continue;
            }
            taxi.progress_idx = idx;
            // Remove visits the taxi has fully passed.
            let (passed, kept): (Vec<CellVisit>, Vec<CellVisit>) =
                taxi.cells.iter().copied().partition(|v| v.route_idx < idx);
            let still: std::collections::HashSet<u64> =
                kept.iter().map(|v| v.cell.packed()).collect();
            for v in passed {
                if !still.contains(&v.cell.packed()) {
                    self.index.remove_taxi(v.cell, id);
                }
            }
            taxi.cells = kept;
        }
        tspan.attr("retired", retired);
        retired
    }

    /// Approximate heap bytes of the runtime state.
    pub fn heap_bytes(&self) -> usize {
        let taxis: usize = self.taxis.values().map(|t| t.heap_bytes()).sum();
        self.index.heap_bytes() + taxis
    }
}
