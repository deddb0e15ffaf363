//! Cluster-sharded concurrent engine.
//!
//! XAR's workload is ~480 searches per booking (§X.B.2), so funnelling
//! every operation through one global `RwLock<XarEngine>` lets a single
//! writer stall all readers, and serializes writes with each other even
//! when they touch rides on opposite sides of the city.
//! [`ShardedXarEngine`] has no global lock:
//!
//! * The ride state is split into `N` **shards**. A ride lives wholly
//!   in one shard — its record *and* every one of its potential-rides
//!   index entries — chosen by hashing the cluster of its pick-up
//!   point. Each shard is a complete [`XarEngine`] behind its own
//!   `RwLock`, so `create_ride` / `book_checked` / `track_ride` lock
//!   exactly one shard and concurrent writes to different shards never
//!   contend.
//! * Immutable state (the road graph, the region discretization, the
//!   landmark and cluster-distance tables) is shared behind a plain
//!   `Arc` with no lock at all — searches resolve their walkable
//!   clusters before touching any shard.
//! * **Search reads the live index under the shard's read lock.** It
//!   derives its candidate cluster fan-out up front (the tier-1/2/3
//!   region tables need no lock), then visits the shards one at a time:
//!   under a shard's read lock it probes that shard's
//!   [`ClusterIndex`](crate::ClusterIndex) only if the shard lists a
//!   ride in some source-side *and* some destination-side walkable
//!   cluster. A write holds its shard's write lock for the whole change
//!   and publishes nothing, so a search waits for a writer of the shard
//!   it reads and sees each shard either before or after a write
//!   (DESIGN.md §5f). Because a ride's
//!   entries never span shards, per-shard candidate collection followed
//!   by one global sort is *equivalent* to the single-engine search:
//!   every candidate cluster is still examined, so the paper's
//!   approximation guarantee is untouched (DESIGN.md §5e).
//! * **`track_all`** becomes a per-shard sweep: each shard is locked
//!   (write) on its own, and empty shards are skipped after a cheap
//!   read-locked `ride_count` probe — the sweep never stops the world.
//!
//! Every write-lock acquisition records its **hold time** both into the
//! aggregate `lock.write_hold_ns` histogram and into a per-shard
//! labeled series `lock.write_hold_ns{shard="sK"}`, so shard imbalance
//! is visible in the `--metrics-out` file without a profiler. Read
//! locks are not timed: search takes one per shard, so timing them
//! would add two histogram records per shard to every search.

use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::Instant;

use xar_discretize::{ClusterId, RegionIndex, WalkEntry};
use xar_obs::{Histogram, Registry};

use crate::booking::BookingOutcome;
use crate::engine::{EngineConfig, EngineStats, XarEngine};
use crate::error::XarError;
use crate::metrics::EngineMetrics;
use crate::request::RideRequest;
use crate::ride::{Ride, RideId, RideOffer, RideStatus};
use crate::search::{run_search, RideMatch, SearchExplain};

/// Hard cap on the shard count: the per-shard label cardinality must
/// stay far below the registry's 64-series-per-family overflow cap.
pub const MAX_SHARDS: usize = 32;

/// Default shard count for deployments that do not tune it.
pub const DEFAULT_SHARDS: usize = 8;

/// One shard: a complete engine over its slice of the rides, plus its
/// pre-resolved labeled write-lock hold histogram.
struct Shard {
    lock: RwLock<XarEngine>,
    write_hold_ns: Arc<Histogram>,
}

impl Shard {
    /// The shard's engine for reading. A writer that panics mid-write
    /// poisons the lock; the engine is read through the poison, as it
    /// is written through it.
    fn read(&self) -> RwLockReadGuard<'_, XarEngine> {
        self.lock.read().unwrap_or_else(|e| e.into_inner())
    }
}

/// Records a write-lock hold time into both the aggregate and the
/// per-shard labeled histogram when dropped.
struct HoldTimer<'a> {
    t0: Instant,
    aggregate: &'a Histogram,
    labeled: &'a Histogram,
}

impl Drop for HoldTimer<'_> {
    fn drop(&mut self) {
        let ns = self.t0.elapsed().as_nanos() as u64;
        self.aggregate.record(ns);
        self.labeled.record(ns);
    }
}

struct Inner {
    region: Arc<RegionIndex>,
    shards: Vec<Shard>,
    stats: EngineStats,
    metrics: EngineMetrics,
    write_hold_ns: Arc<Histogram>,
}

/// A clonable, thread-safe, cluster-sharded XAR engine (module docs
/// for the locking design).
///
/// ```
/// use std::sync::Arc;
/// use xar_core::{EngineConfig, RideOffer, RideRequest, ShardedXarEngine};
/// use xar_discretize::{ClusterGoal, RegionConfig, RegionIndex};
/// use xar_roadnet::{sample_pois, CityConfig, NodeId, PoiConfig};
///
/// let graph = Arc::new(CityConfig::test_city(7).generate());
/// let pois = sample_pois(&graph, &PoiConfig { count: 300, ..Default::default() });
/// let region = Arc::new(RegionIndex::build(
///     Arc::clone(&graph),
///     &pois,
///     RegionConfig { cluster_goal: ClusterGoal::Delta(200.0), ..Default::default() },
/// ));
/// let engine = ShardedXarEngine::new(region, EngineConfig::default(), 4);
/// let n = graph.node_count() as u32;
/// let ride = engine
///     .create_ride(&RideOffer::simple(
///         graph.point(NodeId(0)),
///         graph.point(NodeId(n - 1)),
///         8.0 * 3600.0,
///         3,
///         2_500.0,
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
#[derive(Clone)]
pub struct ShardedXarEngine {
    inner: Arc<Inner>,
}

impl ShardedXarEngine {
    /// A sharded engine over a pre-processed region with fresh metrics.
    pub fn new(region: Arc<RegionIndex>, config: EngineConfig, shards: usize) -> Self {
        Self::with_metrics(region, config, EngineMetrics::new(), shards)
    }

    /// A sharded engine recording into caller-supplied metrics. The
    /// shard count is clamped to `1..=`[`MAX_SHARDS`].
    pub fn with_metrics(
        region: Arc<RegionIndex>,
        config: EngineConfig,
        metrics: EngineMetrics,
        shards: usize,
    ) -> Self {
        let n = shards.clamp(1, MAX_SHARDS);
        let registry = metrics.registry();
        let shards = (0..n)
            .map(|i| {
                let mut engine = XarEngine::with_metrics(
                    Arc::clone(&region),
                    config.clone(),
                    EngineMetrics::with_registry(Arc::clone(&registry)),
                );
                engine.set_id_sequence(i as u64 + 1, n as u64);
                let name = format!("s{i}");
                let label = [("shard", name.as_str())];
                Shard {
                    lock: RwLock::new(engine),
                    write_hold_ns: registry.histogram_with("lock.write_hold_ns", &label),
                }
            })
            .collect();
        Self {
            inner: Arc::new(Inner {
                region,
                shards,
                stats: EngineStats::from_registry(&registry),
                write_hold_ns: registry.histogram("lock.write_hold_ns"),
                metrics,
            }),
        }
    }

    /// Number of shards.
    #[inline]
    pub fn shard_count(&self) -> usize {
        self.inner.shards.len()
    }

    /// The region discretization the engine runs on (lock-free).
    #[inline]
    pub fn region(&self) -> &Arc<RegionIndex> {
        &self.inner.region
    }

    /// Shared operation counters (all shards record into these).
    #[inline]
    pub fn stats(&self) -> &EngineStats {
        &self.inner.stats
    }

    /// Shared latency / candidate-set telemetry.
    #[inline]
    pub fn metrics(&self) -> &EngineMetrics {
        &self.inner.metrics
    }

    /// The registry every shard and the sharding layer record into.
    pub fn registry(&self) -> Arc<Registry> {
        self.inner.metrics.registry()
    }

    /// The shard owning cluster `c`: a Fibonacci hash of the cluster id
    /// so spatially adjacent clusters (consecutive ids) spread across
    /// shards instead of piling hotspots onto one lock.
    #[inline]
    pub fn shard_of_cluster(&self, c: ClusterId) -> usize {
        let h = (u64::from(c.0)).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32;
        (h as usize) % self.inner.shards.len()
    }

    /// The shard owning ride `id`. Shard `i` hands out ids from the
    /// progression `i+1, i+1+n, …`, so the owner is recoverable from
    /// the id alone — booking never probes shards.
    #[inline]
    pub fn shard_of_ride(&self, id: RideId) -> usize {
        ((id.0.saturating_sub(1)) % self.inner.shards.len() as u64) as usize
    }

    fn write_shard(&self, i: usize) -> (RwLockWriteGuard<'_, XarEngine>, HoldTimer<'_>) {
        let shard = &self.inner.shards[i];
        let guard = {
            let _acq = xar_obs::trace::span("lock.write_acquire");
            shard.lock.write().unwrap_or_else(|e| e.into_inner())
        };
        let hold = HoldTimer {
            t0: Instant::now(),
            aggregate: &self.inner.write_hold_ns,
            labeled: &shard.write_hold_ns,
        };
        (guard, hold)
    }

    /// **Search** (operation O1) across shards: walkable-cluster
    /// fan-out from the lock-free region tables, then each shard's live
    /// index under its read lock, then one global sort. Returns up to
    /// `limit` matches, least combined walking first — identical
    /// results to [`XarEngine::search`] over the union of the shards
    /// (property-tested in `tests/sharded_hammer` and
    /// `tests/snapshot_linearizable`).
    ///
    /// Allocates only the returned `Vec`; latency-critical callers
    /// reuse a buffer through [`ShardedXarEngine::search_into`].
    pub fn search(&self, req: &RideRequest, limit: usize) -> Result<Vec<RideMatch>, XarError> {
        let mut out = Vec::new();
        self.search_into(req, limit, &mut out)?;
        Ok(out)
    }

    /// [`ShardedXarEngine::search`] into a caller-owned buffer (cleared
    /// first). With a warmed buffer this path performs **zero heap
    /// allocations** (asserted by `tests/snapshot_alloc`): candidate
    /// scratch lives in a thread-local, the lists are read in place,
    /// and the final sort is unstable (no merge buffer).
    ///
    /// Each shard is read under its read lock, one shard at a time, so
    /// a search waits for a writer of the shard it is reading and sees
    /// every shard either before or after each write.
    pub fn search_into(
        &self,
        req: &RideRequest,
        limit: usize,
        out: &mut Vec<RideMatch>,
    ) -> Result<(), XarError> {
        let mut explain = SearchExplain::default();
        self.search_into_explained(req, limit, out, &mut explain)
    }

    /// [`ShardedXarEngine::search_into`], also filling `explain` with
    /// per-check rejection attribution accumulated across the probed
    /// shards. `explain` is a stack-only `Copy` struct, so this path
    /// keeps the zero-allocation guarantee of `search_into`.
    pub fn search_into_explained(
        &self,
        req: &RideRequest,
        limit: usize,
        out: &mut Vec<RideMatch>,
        explain: &mut SearchExplain,
    ) -> Result<(), XarError> {
        let inner = &*self.inner;
        run_search(
            &inner.region,
            &inner.stats,
            &inner.metrics,
            req,
            limit,
            out,
            explain,
            |run| {
                for shard in &inner.shards {
                    let engine = shard.read();
                    let index = engine.index();
                    // A shard can only contribute a match if it lists a ride
                    // in at least one source-side AND one destination-side
                    // cluster (the candidate set is R1 ∩ R2, and a ride's
                    // entries never leave its shard); any other is skipped
                    // unprobed.
                    let listed = |w: &WalkEntry| !index.rows(w.cluster).is_empty();
                    if run.src_walkable.iter().any(listed) && run.dst_walkable.iter().any(listed) {
                        run.collect_matches(index);
                    }
                }
            },
        )
    }

    /// **Create** (operation O2): one write lock on the shard owning
    /// the offer's pick-up cluster. The new ride is findable by the
    /// next search that reads the shard.
    pub fn create_ride(&self, offer: &RideOffer) -> Result<RideId, XarError> {
        let region = &self.inner.region;
        let shard = region
            .cluster_of_node(region.snap_exact(&offer.source))
            .map_or(0, |c| self.shard_of_cluster(c));
        let (mut guard, _hold) = self.write_shard(shard);
        guard.create_ride(offer)
    }

    /// **Book**: one write lock on the ride's owning shard (recovered
    /// from the id — no probing), [`XarEngine::book_checked`] under it.
    /// The rewritten rows — carrying the reduced budget — or, for the
    /// last seat, the de-listed ride are what the next search of the
    /// shard reads. Seats, progress *and* detour budget are checked
    /// against the live ride state under the lock, so the check and the
    /// booking are one atomic step: a match that a concurrent booking
    /// made stale behind the searcher's back is refused.
    pub fn book_checked(&self, m: &RideMatch) -> Result<BookingOutcome, XarError> {
        let shard = self.shard_of_ride(m.ride);
        let (mut guard, _hold) = self.write_shard(shard);
        guard.book_checked(m)
    }

    /// **Track** one ride: one write lock on its owning shard.
    pub fn track_ride(&self, id: RideId, now_s: f64) -> Result<RideStatus, XarError> {
        let shard = self.shard_of_ride(id);
        let (mut guard, _hold) = self.write_shard(shard);
        guard.track_ride(id, now_s)
    }

    /// **Track** every live ride to `now_s`: a per-shard sweep that
    /// write-locks one shard at a time — searches on other shards are
    /// never stalled. Shards with zero rides are skipped after a
    /// read-locked probe (no write lock taken at all). Returns the
    /// number of rides retired.
    pub fn track_all(&self, now_s: f64) -> usize {
        let mut retired = 0;
        for (i, shard) in self.inner.shards.iter().enumerate() {
            if shard.read().ride_count() == 0 {
                continue;
            }
            let (mut guard, _hold) = self.write_shard(i);
            retired += guard.track_all(now_s);
        }
        retired
    }

    /// Total live rides across all shards.
    pub fn ride_count(&self) -> usize {
        self.inner
            .shards
            .iter()
            .map(|s| s.read().ride_count())
            .sum()
    }

    /// Run a read-only closure against one shard's engine (shared
    /// lock) — stats, inspection, tests.
    pub fn with_shard_read<R>(&self, shard: usize, f: impl FnOnce(&XarEngine) -> R) -> R {
        f(&self.inner.shards[shard].read())
    }

    /// Visit every live ride across all shards (shards read-locked one
    /// at a time) — audits and invariant checks.
    pub fn for_each_ride(&self, mut f: impl FnMut(&Ride)) {
        for shard in &self.inner.shards {
            shard.read().rides().for_each(&mut f);
        }
    }

    /// Total heap bytes: the shared region tables once, plus every
    /// shard's private runtime state (index + rides).
    pub fn heap_bytes(&self) -> usize {
        let shards: usize = self
            .inner
            .shards
            .iter()
            .map(|s| s.read().heap_bytes_runtime())
            .sum();
        self.inner.region.heap_bytes() + shards
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xar_discretize::{ClusterGoal, RegionConfig};
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

    #[test]
    fn ride_ids_are_unique_and_map_back_to_their_shard() {
        let region = region(31);
        let graph = Arc::clone(region.graph());
        let eng = ShardedXarEngine::new(region, EngineConfig::default(), 4);
        let mut ids = Vec::new();
        for i in 0..40 {
            if let Ok(id) = eng.create_ride(&offer(&graph, i)) {
                ids.push(id);
            }
        }
        assert!(ids.len() > 10, "most creates must succeed");
        let mut dedup = ids.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), ids.len(), "ids globally unique across shards");
        // Every id's computed shard actually holds the ride.
        for id in &ids {
            let s = eng.shard_of_ride(*id);
            assert!(
                eng.with_shard_read(s, |e| e.ride(*id).is_some()),
                "ride {id:?} in shard {s}"
            );
        }
        assert_eq!(eng.ride_count(), ids.len());
    }

    #[test]
    fn search_spans_shards_and_matches_are_bookable() {
        let region = region(31);
        let graph = Arc::clone(region.graph());
        let n = graph.node_count() as u32;
        let eng = ShardedXarEngine::new(region, EngineConfig::default(), 4);
        for i in 0..30 {
            let _ = eng.create_ride(&offer(&graph, i));
        }
        let req = RideRequest {
            source: graph.point(NodeId(n / 2)),
            destination: graph.point(NodeId(n - 1)),
            window_start_s: 7.5 * 3600.0,
            window_end_s: 9.5 * 3600.0,
            walk_limit_m: 800.0,
        };
        let matches = eng.search(&req, usize::MAX).unwrap();
        assert!(!matches.is_empty(), "cross-town rides must be findable");
        // Matches come back globally sorted by combined walking.
        for w in matches.windows(2) {
            assert!(w[0].walk_total_m() <= w[1].walk_total_m() + 1e-9);
        }
        let booked = eng.book_checked(&matches[0]).expect("best match books");
        assert_eq!(booked.ride, matches[0].ride);
        let s = eng.stats().snapshot();
        assert_eq!(s.bookings, 1);
        assert_eq!(s.searches, 1);
    }

    #[test]
    fn a_shard_listing_one_side_only_is_not_probed() {
        let region = region(31);
        let graph = Arc::clone(region.graph());
        let eng = ShardedXarEngine::new(Arc::clone(&region), EngineConfig::default(), 8);
        // A small detour budget keeps the ride's footprint to a strip
        // along its route.
        let offer = RideOffer {
            detour_limit_m: 200.0,
            ..offer(&graph, 3)
        };
        let id = eng.create_ride(&offer).unwrap();
        let (listed, _) = footprint_of(&eng, id);
        // The clusters walkable from `p`, and whether the ride lists any.
        let walkable = |p: &xar_geo::GeoPoint| -> Vec<ClusterId> {
            region
                .walkable_within(region.snap(p), 500.0)
                .iter()
                .map(|w| w.cluster)
                .collect()
        };
        let on_route = |p: &xar_geo::GeoPoint| walkable(p).iter().any(|c| listed.contains(c));
        let candidates = |destination| {
            let req = RideRequest {
                source: offer.source,
                destination,
                window_start_s: 7.5 * 3600.0,
                window_end_s: 9.5 * 3600.0,
                walk_limit_m: 500.0,
            };
            let mut explain = SearchExplain::default();
            let _ = eng.search_into_explained(&req, usize::MAX, &mut Vec::new(), &mut explain);
            explain.candidates
        };
        assert!(on_route(&offer.source));
        // Both sides listed: the owning shard is probed and finds the
        // ride among its source-side candidates.
        assert_eq!(candidates(offer.destination), 1);
        // A destination no listed cluster is walkable from: the shard
        // lists the ride on the source side only, so it is skipped and
        // the ride never enters R1.
        let off_route = (0..graph.node_count() as u32)
            .map(|n| graph.point(NodeId(n)))
            .find(|p| !walkable(p).is_empty() && !on_route(p))
            .expect("a destination off the ride's footprint");
        assert_eq!(candidates(off_route), 0);
    }

    #[test]
    fn track_all_skips_empty_shards_without_write_locks() {
        let region = region(31);
        let eng = ShardedXarEngine::new(region, EngineConfig::default(), 4);
        let writes_before = eng.registry().histogram("lock.write_hold_ns").count();
        assert_eq!(eng.track_all(9.0 * 3600.0), 0);
        let writes_after = eng.registry().histogram("lock.write_hold_ns").count();
        assert_eq!(
            writes_before, writes_after,
            "empty sweep must not take write locks"
        );
    }

    #[test]
    fn per_shard_lock_series_are_labeled() {
        let region = region(31);
        let graph = Arc::clone(region.graph());
        let eng = ShardedXarEngine::new(region, EngineConfig::default(), 2);
        let _ = eng.create_ride(&offer(&graph, 1));
        let json = eng.registry().snapshot_json();
        assert!(
            json.contains("lock.write_hold_ns{shard=\\\"s0\\\"}")
                || json.contains("lock.write_hold_ns{shard=\\\"s1\\\"}"),
            "{json}"
        );
    }

    #[test]
    fn writes_are_immediately_visible_to_search() {
        let region = region(31);
        let graph = Arc::clone(region.graph());
        let n = graph.node_count() as u32;
        let eng = ShardedXarEngine::new(region, EngineConfig::default(), 4);
        let req = RideRequest {
            source: graph.point(NodeId(n / 2)),
            destination: graph.point(NodeId(n - 1)),
            window_start_s: 7.5 * 3600.0,
            window_end_s: 9.5 * 3600.0,
            walk_limit_m: 800.0,
        };
        // Empty engine: nothing findable.
        assert!(
            matches!(eng.search(&req, usize::MAX), Ok(v) if v.is_empty())
                || matches!(eng.search(&req, usize::MAX), Err(XarError::NotServable))
        );
        for i in 0..30 {
            let _ = eng.create_ride(&offer(&graph, i));
        }
        // Matches appear with no intervening write.
        let matches = eng.search(&req, usize::MAX).unwrap();
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
        let ms = eng.search(&req, usize::MAX).unwrap();
        if let Some(m) = ms.iter().find(|m| m.ride == id) {
            eng.book_checked(m).unwrap();
            let after = eng.search(&req, usize::MAX).unwrap();
            assert!(
                after.iter().all(|m| m.ride != id),
                "a booked-out ride must leave search immediately"
            );
        }
        // Retiring everything drains search results.
        eng.track_all(f64::INFINITY);
        assert_eq!(eng.ride_count(), 0);
        let drained = eng.search(&req, usize::MAX).unwrap();
        assert!(drained.is_empty(), "retired rides must leave search");
    }

    #[test]
    fn search_into_reuses_the_buffer() {
        let region = region(31);
        let graph = Arc::clone(region.graph());
        let n = graph.node_count() as u32;
        let eng = ShardedXarEngine::new(region, EngineConfig::default(), 2);
        for i in 0..20 {
            let _ = eng.create_ride(&offer(&graph, i));
        }
        let req = RideRequest {
            source: graph.point(NodeId(n / 2)),
            destination: graph.point(NodeId(n - 1)),
            window_start_s: 7.5 * 3600.0,
            window_end_s: 9.5 * 3600.0,
            walk_limit_m: 800.0,
        };
        let mut out = Vec::new();
        eng.search_into(&req, usize::MAX, &mut out).unwrap();
        let first: Vec<_> = out.clone();
        assert!(!first.is_empty(), "workload must produce matches");
        // Stale contents are cleared, results are identical run to run.
        out.push(first[0]);
        eng.search_into(&req, usize::MAX, &mut out).unwrap();
        assert_eq!(out, first);
        assert_eq!(eng.search(&req, usize::MAX).unwrap(), first);
    }

    /// The distinct clusters `id` is listed in, and its
    /// `(pass, reachable)` pair count.
    fn footprint_of(
        eng: &ShardedXarEngine,
        id: RideId,
    ) -> (std::collections::BTreeSet<ClusterId>, usize) {
        eng.with_shard_read(eng.shard_of_ride(id), |e| {
            let pass = &e.ride(id).expect("live ride").pass_clusters;
            let pairs = pass.iter().map(|p| 1 + p.reachable.len()).sum();
            (
                pass.iter()
                    .flat_map(crate::ride::PassCluster::clusters)
                    .collect(),
                pairs,
            )
        })
    }

    #[test]
    fn a_write_edits_each_distinct_cluster_once() {
        let region = region(31);
        let graph = Arc::clone(region.graph());
        let n = graph.node_count() as u32;
        let eng = ShardedXarEngine::new(region, EngineConfig::default(), 1);
        let calls = || eng.with_shard_read(0, |e| e.index().edit_calls);

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
        let req = RideRequest {
            source: graph.point(NodeId(n / 2)),
            destination: graph.point(NodeId(n - 1)),
            window_start_s: 7.5 * 3600.0,
            window_end_s: 9.5 * 3600.0,
            walk_limit_m: 800.0,
        };
        let before = calls();
        eng.book_checked(&eng.search(&req, 1).unwrap()[0]).unwrap();
        let (booked, _) = footprint_of(&eng, id);
        assert_eq!(calls() - before, created.len() + booked.len());

        // Track: one remove per obsolete cluster, one insert for each
        // that a surviving pass-through cluster still serves.
        let (pass, depart, total_s) = eng.with_shard_read(0, |e| {
            let r = e.ride(id).unwrap();
            (r.pass_clusters.clone(), r.departure_s, r.route.duration_s())
        });
        let before = calls();
        eng.track_ride(id, depart + 0.5 * total_s).unwrap();
        let progress = eng.with_shard_read(0, |e| e.ride(id).unwrap().progress_idx);
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
        let n = graph.node_count() as u32;
        let eng = ShardedXarEngine::new(region, EngineConfig::default(), 1);
        let req = RideRequest {
            source: graph.point(NodeId(n / 2)),
            destination: graph.point(NodeId(n - 1)),
            window_start_s: 7.5 * 3600.0,
            window_end_s: 9.5 * 3600.0,
            walk_limit_m: 800.0,
        };
        assert!(
            (0..30)
                .filter(|&i| eng.create_ride(&offer(&graph, i)).is_ok())
                .count()
                > 10
        );
        let writer = {
            let eng = eng.clone();
            std::thread::spawn(move || {
                let _engine = eng.inner.shards[0].lock.write().unwrap();
                panic!("dies holding the shard's write lock");
            })
        };
        assert!(writer.join().is_err());
        assert!(eng.inner.shards[0].lock.is_poisoned());
        // Reads and writes go through the poison.
        let matches = eng.search(&req, usize::MAX).unwrap();
        assert!(!matches.is_empty());
        eng.book_checked(&matches[0]).unwrap();
        eng.create_ride(&offer(&graph, 77)).unwrap();
        assert!(eng.ride_count() > 10);
        eng.track_all(f64::INFINITY);
        assert_eq!(eng.ride_count(), 0);
        assert!(eng.search(&req, usize::MAX).unwrap().is_empty());
    }

    #[test]
    fn shard_count_is_clamped() {
        let region = region(31);
        let eng = ShardedXarEngine::new(Arc::clone(&region), EngineConfig::default(), 0);
        assert_eq!(eng.shard_count(), 1);
        let eng = ShardedXarEngine::new(region, EngineConfig::default(), 1_000);
        assert_eq!(eng.shard_count(), MAX_SHARDS);
    }
}
