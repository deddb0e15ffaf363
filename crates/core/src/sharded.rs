//! The engine as a shared, thread-safe handle: one [`XarEngine`]
//! behind one `RwLock`.
//!
//! Search takes the read lock, so searches run side by side; create,
//! book and track take the write lock, so a search sees the engine
//! either before or after each write, never during one (DESIGN.md
//! §5e). A writer that panics mid-write poisons the lock; the engine is
//! read and written through the poison, so one failed request does not
//! take the service down.
//!
//! Every write-lock hold is timed into the `lock.write_hold_ns`
//! histogram, and every acquisition is a `lock.write_acquire` span, so
//! the `--metrics-out` file and a trace show how long writes keep
//! searches waiting. Read locks are not timed: it would add two
//! histogram records to every search.
//!
//! The name and the ignored `shards` argument of
//! [`ShardedXarEngine::new`] remain from an earlier design that split
//! the rides over several engines.

use std::sync::{Arc, RwLock, RwLockReadGuard};
use std::time::Instant;

use xar_discretize::RegionIndex;
use xar_obs::{Histogram, Registry};

use crate::booking::BookingOutcome;
use crate::engine::{EngineConfig, XarEngine};
use crate::error::XarError;
use crate::request::RideRequest;
use crate::ride::{Ride, RideId, RideOffer};
use crate::search::{RideMatch, SearchExplain};

/// A clonable, thread-safe XAR engine (module docs for the locking).
/// It is driven like [`XarEngine`] (see its example), through `&self`.
#[derive(Clone)]
pub struct ShardedXarEngine {
    engine: Arc<RwLock<XarEngine>>,
    write_hold_ns: Arc<Histogram>,
}

impl ShardedXarEngine {
    /// The engine over a pre-processed region with fresh metrics.
    /// `_shards` is ignored: there is one engine behind one lock.
    pub fn new(region: Arc<RegionIndex>, config: EngineConfig, _shards: usize) -> Self {
        let engine = XarEngine::new(region, config);
        let write_hold_ns = engine.metrics().registry().histogram("lock.write_hold_ns");
        Self {
            engine: Arc::new(RwLock::new(engine)),
            write_hold_ns,
        }
    }

    /// The engine under the read lock: inspection, stats and tests.
    pub fn read(&self) -> RwLockReadGuard<'_, XarEngine> {
        self.engine.read().unwrap_or_else(|e| e.into_inner())
    }

    /// Run `f` on the engine under the write lock, timing the hold.
    fn write<R>(&self, f: impl FnOnce(&mut XarEngine) -> R) -> R {
        let mut engine = {
            let _acq = xar_obs::trace::span("lock.write_acquire");
            self.engine.write().unwrap_or_else(|e| e.into_inner())
        };
        let t0 = Instant::now();
        let out = f(&mut engine);
        self.write_hold_ns.record(t0.elapsed().as_nanos() as u64);
        out
    }

    /// The registry the engine records into.
    pub fn registry(&self) -> Arc<Registry> {
        self.read().metrics().registry()
    }

    /// **Search** (operation O1) under the read lock into a
    /// caller-owned buffer (cleared first): up to `limit` matches,
    /// least combined walking first, as [`XarEngine::search`] returns
    /// them. With a warmed buffer this performs **zero heap
    /// allocations** (asserted by `tests/snapshot_alloc`).
    pub fn search_into(
        &self,
        req: &RideRequest,
        limit: usize,
        out: &mut Vec<RideMatch>,
    ) -> Result<(), XarError> {
        let mut explain = SearchExplain::default();
        self.read()
            .search_into_explained(req, limit, out, &mut explain)
    }

    /// **Create** (operation O2) under the write lock. The new ride is
    /// findable by the next search.
    pub fn create_ride(&self, offer: &RideOffer) -> Result<RideId, XarError> {
        self.write(|e| e.create_ride(offer))
    }

    /// **Book** under the write lock, [`XarEngine::book_checked`]. Seats,
    /// progress *and* detour budget are checked against the live ride
    /// under the lock, so the check and the booking are one atomic
    /// step: a match that another booking made stale since the search
    /// that found it is refused.
    pub fn book_checked(&self, m: &RideMatch) -> Result<BookingOutcome, XarError> {
        self.write(|e| e.book_checked(m))
    }

    /// **Track** every live ride to `now_s` under the write lock.
    /// Returns the number of rides retired.
    pub fn track_all(&self, now_s: f64) -> usize {
        self.write(|e| e.track_all(now_s))
    }

    /// Number of live rides.
    pub fn ride_count(&self) -> usize {
        self.read().ride_count()
    }

    /// Visit every live ride under the read lock: audits and invariant
    /// checks.
    pub fn for_each_ride(&self, f: impl FnMut(&Ride)) {
        self.read().rides().for_each(f);
    }

    /// Total heap bytes: region tables, index and rides
    /// ([`XarEngine::heap_bytes`]).
    pub fn heap_bytes(&self) -> usize {
        self.read().heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xar_discretize::{ClusterGoal, ClusterId, RegionConfig};
    use xar_roadnet::{sample_pois, CityConfig, NodeId, PoiConfig, RoadGraph};

    fn region(seed: u64) -> Arc<RegionIndex> {
        let graph = Arc::new(CityConfig::test_city(seed).generate());
        let pois = sample_pois(
            &graph,
            &PoiConfig {
                count: 400,
                ..Default::default()
            },
        );
        Arc::new(RegionIndex::build(
            graph,
            &pois,
            RegionConfig {
                cluster_goal: ClusterGoal::Delta(200.0),
                ..Default::default()
            },
        ))
    }

    fn offer(graph: &Arc<RoadGraph>, i: u32) -> RideOffer {
        let n = graph.node_count() as u32;
        RideOffer::simple(
            graph.point(NodeId((i * 37) % n)),
            graph.point(NodeId((i * 61 + n / 2) % n)),
            8.0 * 3600.0 + f64::from(i) * 60.0,
            3,
            3_000.0,
        )
    }

    /// A request from the middle of the city to its far corner.
    fn request(graph: &Arc<RoadGraph>) -> RideRequest {
        let n = graph.node_count() as u32;
        RideRequest {
            source: graph.point(NodeId(n / 2)),
            destination: graph.point(NodeId(n - 1)),
            window_start_s: 7.5 * 3600.0,
            window_end_s: 9.5 * 3600.0,
            walk_limit_m: 800.0,
        }
    }

    fn search(eng: &ShardedXarEngine, req: &RideRequest) -> Result<Vec<RideMatch>, XarError> {
        let mut out = Vec::new();
        eng.search_into(req, usize::MAX, &mut out).map(|()| out)
    }

    #[test]
    fn search_finds_created_rides_and_matches_are_bookable() {
        let region = region(31);
        let graph = Arc::clone(region.graph());
        let eng = ShardedXarEngine::new(region, EngineConfig::default(), 4);
        for i in 0..30 {
            let _ = eng.create_ride(&offer(&graph, i));
        }
        let matches = search(&eng, &request(&graph)).unwrap();
        assert!(!matches.is_empty(), "cross-town rides must be findable");
        // Matches come back sorted by combined walking.
        for w in matches.windows(2) {
            assert!(w[0].walk_total_m() <= w[1].walk_total_m() + 1e-9);
        }
        let booked = eng.book_checked(&matches[0]).expect("best match books");
        assert_eq!(booked.ride, matches[0].ride);
        let s = eng.read().stats().snapshot();
        assert_eq!((s.bookings, s.searches), (1, 1));
    }

    #[test]
    fn writes_are_immediately_visible_to_search() {
        let region = region(31);
        let graph = Arc::clone(region.graph());
        let eng = ShardedXarEngine::new(region, EngineConfig::default(), 4);
        let req = request(&graph);
        // Empty engine: nothing findable.
        assert!(
            matches!(search(&eng, &req), Ok(v) if v.is_empty())
                || matches!(search(&eng, &req), Err(XarError::NotServable))
        );
        for i in 0..30 {
            let _ = eng.create_ride(&offer(&graph, i));
        }
        // Matches appear with no intervening write.
        let matches = search(&eng, &req).unwrap();
        assert!(
            !matches.is_empty(),
            "created rides must be searchable immediately"
        );
        // Booking a single-seat ride out makes it vanish from search.
        let single = RideOffer {
            seats: 1,
            ..offer(&graph, 77)
        };
        let id = eng.create_ride(&single).unwrap();
        let ms = search(&eng, &req).unwrap();
        if let Some(m) = ms.iter().find(|m| m.ride == id) {
            eng.book_checked(m).unwrap();
            let after = search(&eng, &req).unwrap();
            assert!(
                after.iter().all(|m| m.ride != id),
                "a booked-out ride must leave search immediately"
            );
        }
        // Retiring everything drains search results.
        eng.track_all(f64::INFINITY);
        assert_eq!(eng.ride_count(), 0);
        let drained = search(&eng, &req).unwrap();
        assert!(drained.is_empty(), "retired rides must leave search");
    }

    #[test]
    fn search_into_reuses_the_buffer() {
        let region = region(31);
        let graph = Arc::clone(region.graph());
        let eng = ShardedXarEngine::new(region, EngineConfig::default(), 2);
        for i in 0..20 {
            let _ = eng.create_ride(&offer(&graph, i));
        }
        let req = request(&graph);
        let mut out = Vec::new();
        eng.search_into(&req, usize::MAX, &mut out).unwrap();
        let first: Vec<_> = out.clone();
        assert!(!first.is_empty(), "workload must produce matches");
        // Stale contents are cleared, results are identical run to run.
        out.push(first[0]);
        eng.search_into(&req, usize::MAX, &mut out).unwrap();
        assert_eq!(out, first);
        assert_eq!(eng.read().search(&req, usize::MAX).unwrap(), first);
    }

    /// The distinct clusters `id` is listed in, and its
    /// `(pass, reachable)` pair count.
    fn footprint_of(
        eng: &ShardedXarEngine,
        id: RideId,
    ) -> (std::collections::BTreeSet<ClusterId>, usize) {
        let e = eng.read();
        let pass = &e.ride(id).expect("live ride").pass_clusters;
        let pairs = pass.iter().map(|p| 1 + p.reachable.len()).sum();
        (
            pass.iter()
                .flat_map(crate::ride::PassCluster::clusters)
                .collect(),
            pairs,
        )
    }

    #[test]
    fn a_write_edits_each_distinct_cluster_once() {
        let region = region(31);
        let graph = Arc::clone(region.graph());
        let n = graph.node_count() as u32;
        let eng = ShardedXarEngine::new(region, EngineConfig::default(), 1);
        let calls = || eng.read().index().edit_calls;

        // Create: one insert per distinct cluster, far fewer than pairs.
        let o = RideOffer::simple(
            graph.point(NodeId(0)),
            graph.point(NodeId(n - 1)),
            8.0 * 3600.0,
            3,
            3_000.0,
        );
        let id = eng.create_ride(&o).unwrap();
        let (created, pairs) = footprint_of(&eng, id);
        assert!(
            pairs > 2 * created.len(),
            "fixture lost its overlap: {pairs} pairs, {} clusters",
            created.len()
        );
        assert_eq!(calls(), created.len());

        // Book: one remove per old cluster, one insert per new one.
        let mut best = Vec::new();
        eng.search_into(&request(&graph), 1, &mut best).unwrap();
        let before = calls();
        eng.book_checked(&best[0]).unwrap();
        let (booked, _) = footprint_of(&eng, id);
        assert_eq!(calls() - before, created.len() + booked.len());

        // Track (the one ride): one remove per obsolete cluster, one
        // insert for each that a surviving pass-through cluster still
        // serves.
        let (pass, depart, total_s) = {
            let e = eng.read();
            let r = e.ride(id).unwrap();
            (r.pass_clusters.clone(), r.departure_s, r.route.duration_s())
        };
        let before = calls();
        assert_eq!(eng.track_all(depart + 0.5 * total_s), 0);
        let progress = eng.read().ride(id).unwrap().progress_idx;
        let obsolete: std::collections::BTreeSet<ClusterId> = pass
            .iter()
            .filter(|p| p.exit_idx < progress)
            .flat_map(crate::ride::PassCluster::clusters)
            .collect();
        assert!(
            !obsolete.is_empty(),
            "half-way tracking must cross clusters"
        );
        let (tracked, _) = footprint_of(&eng, id);
        assert_eq!(
            calls() - before,
            obsolete.len() + obsolete.intersection(&tracked).count()
        );
    }

    #[test]
    fn a_writer_that_panics_leaves_the_engine_serving() {
        let region = region(31);
        let graph = Arc::clone(region.graph());
        let eng = ShardedXarEngine::new(region, EngineConfig::default(), 1);
        let req = request(&graph);
        assert!(
            (0..30)
                .filter(|&i| eng.create_ride(&offer(&graph, i)).is_ok())
                .count()
                > 10
        );
        let writer = {
            let eng = eng.clone();
            std::thread::spawn(move || {
                let _engine = eng.engine.write().unwrap();
                panic!("dies holding the engine's write lock");
            })
        };
        assert!(writer.join().is_err());
        assert!(eng.engine.is_poisoned());
        // Reads and writes go through the poison.
        let matches = search(&eng, &req).unwrap();
        assert!(!matches.is_empty());
        eng.book_checked(&matches[0]).unwrap();
        eng.create_ride(&offer(&graph, 77)).unwrap();
        assert!(eng.ride_count() > 10);
        eng.track_all(f64::INFINITY);
        assert_eq!(eng.ride_count(), 0);
        assert!(search(&eng, &req).unwrap().is_empty());
    }
}
