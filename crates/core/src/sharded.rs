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
//! * **Search never takes a shard's engine lock.** Each write path,
//!   while still holding its shard's write lock, publishes a clone of
//!   the shard's [`ClusterIndex`] — one `Arc` bump per 64-cluster
//!   block, every list shared — into the shard's
//!   `RwLock<Arc<ClusterIndex>>`. Search derives its candidate cluster
//!   fan-out up front (the tier-1/2/3 region tables need no lock),
//!   consults the lock-free [`ShardOccupancy`] bitmask to find which
//!   shards could hold candidates, and clones each such shard's current
//!   `Arc` — the cell's lock is held for that clone or for the writer's
//!   pointer swap only, never while an index is cloned, searched or
//!   freed (DESIGN.md §5f). Because a ride's entries
//!   never span shards, per-shard candidate collection followed by one
//!   global sort is *equivalent* to the single-engine search: every
//!   candidate cluster is still examined, so the paper's approximation
//!   guarantee is untouched (DESIGN.md §5e).
//! * **`track_all`** becomes a per-shard sweep: each shard is locked
//!   (write) on its own, and empty shards are skipped after a cheap
//!   read-locked `ride_count` probe — the sweep never stops the world.
//!
//! Every lock acquisition records its **hold time** both into the
//! aggregate `lock.read_hold_ns` / `lock.write_hold_ns` histograms
//! (PR-1 names, preserved) and into a per-shard labeled series
//! `lock.read_hold_ns{shard="sK"}` / `lock.write_hold_ns{shard="sK"}`
//! (PR-3 label machinery), so shard imbalance is visible in the
//! `--metrics-out` file without a profiler. Search takes no engine lock, so
//! `lock.read_hold_ns` records only maintenance reads (the `track_all`
//! emptiness probes, audits, memory accounting).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::Instant;

use xar_discretize::{ClusterId, RegionIndex};
use xar_obs::{Histogram, Registry};

use crate::booking::BookingOutcome;
use crate::engine::{EngineConfig, EngineStats, XarEngine};
use crate::error::XarError;
use crate::index::ClusterIndex;
use crate::metrics::EngineMetrics;
use crate::request::RideRequest;
use crate::ride::{Ride, RideId, RideOffer, RideStatus};
use crate::search::{run_search, RideMatch, SearchExplain};

/// Hard cap on the shard count: the occupancy bitmask is one `u64` per
/// cluster, and the per-shard label cardinality must stay far below the
/// registry's 64-series-per-family overflow cap.
pub const MAX_SHARDS: usize = 32;

/// Default shard count for deployments that do not tune it.
pub const DEFAULT_SHARDS: usize = 8;

/// Lock-free map from cluster to the set of shards holding at least one
/// potential-rides entry for it: one atomic `u64` bitmask per cluster.
///
/// Bit `s` of `masks[c]` is set iff shard `s`'s published
/// [`ClusterIndex`] has a non-empty list for cluster `c`. Each bit is
/// only ever flipped by its own shard's publish, from the diff that
/// decides it, *while holding that shard's write lock*, so transitions
/// are exact; readers use relaxed loads — a search that races a create
/// may miss the brand new ride or probe a just-emptied shard, which is
/// indistinguishable from the operations serializing in the other
/// order.
#[derive(Debug)]
pub struct ShardOccupancy {
    masks: Vec<AtomicU64>,
}

impl ShardOccupancy {
    /// An empty occupancy map over `cluster_count` clusters.
    pub fn new(cluster_count: usize) -> Self {
        Self { masks: (0..cluster_count).map(|_| AtomicU64::new(0)).collect() }
    }

    /// Record whether shard `shard` holds entries for `cluster`.
    fn mark(&self, cluster: usize, shard: usize, listed: bool) {
        if listed {
            self.masks[cluster].fetch_or(1 << shard, Ordering::Relaxed);
        } else {
            self.masks[cluster].fetch_and(!(1 << shard), Ordering::Relaxed);
        }
    }

    /// The shard bitmask of one cluster.
    pub fn cluster_mask(&self, cluster: usize) -> u64 {
        self.masks[cluster].load(Ordering::Relaxed)
    }

    /// Union of the shard bitmasks of `clusters` — the shards a search
    /// with this cluster fan-out could find candidates in.
    pub fn mask_for(&self, clusters: impl IntoIterator<Item = usize>) -> u64 {
        clusters.into_iter().fold(0u64, |m, c| m | self.cluster_mask(c))
    }
}

/// One shard: a complete engine over its slice of the rides, the
/// published clone of its index, plus the pre-resolved labeled
/// lock-hold histograms.
struct Shard {
    lock: RwLock<XarEngine>,
    /// The published, immutable index search reads. Swapped by every
    /// write path that changed a list, while it still holds `lock` in
    /// write mode; this cell's own lock covers one `Arc` clone or one
    /// swap.
    snapshot: RwLock<Arc<ClusterIndex>>,
    read_hold_ns: Arc<Histogram>,
    write_hold_ns: Arc<Histogram>,
}

impl Shard {
    /// The currently published index. A panic cannot leave the cell
    /// half-written (it holds one pointer), so a poisoned lock is read
    /// through, as the engine lock is.
    fn load(&self) -> Arc<ClusterIndex> {
        Arc::clone(&self.snapshot.read().unwrap_or_else(|e| e.into_inner()))
    }

    /// Swap `next` in; the previous index's `Arc` is dropped after the
    /// cell's lock is released, so readers never wait on a free.
    fn store(&self, next: ClusterIndex) {
        let next = Arc::new(next);
        let mut cell = self.snapshot.write().unwrap_or_else(|e| e.into_inner());
        let prev = std::mem::replace(&mut *cell, next);
        drop(cell);
        drop(prev);
    }
}

/// Records a lock hold time into both the aggregate and the per-shard
/// labeled histogram when dropped.
struct HoldTimer {
    t0: Instant,
    aggregate: Arc<Histogram>,
    labeled: Arc<Histogram>,
}

impl HoldTimer {
    fn new(aggregate: Arc<Histogram>, labeled: Arc<Histogram>) -> Self {
        Self { t0: Instant::now(), aggregate, labeled }
    }
}

impl Drop for HoldTimer {
    fn drop(&mut self) {
        let ns = self.t0.elapsed().as_nanos() as u64;
        self.aggregate.record(ns);
        self.labeled.record(ns);
    }
}

struct Inner {
    region: Arc<RegionIndex>,
    shards: Vec<Shard>,
    occupancy: Arc<ShardOccupancy>,
    stats: EngineStats,
    metrics: EngineMetrics,
    read_hold_ns: Arc<Histogram>,
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
        let occupancy = Arc::new(ShardOccupancy::new(region.cluster_count()));
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
                    snapshot: RwLock::new(Arc::new(engine.index().clone())),
                    lock: RwLock::new(engine),
                    read_hold_ns: registry.histogram_with("lock.read_hold_ns", &label),
                    write_hold_ns: registry.histogram_with("lock.write_hold_ns", &label),
                }
            })
            .collect();
        Self {
            inner: Arc::new(Inner {
                region,
                shards,
                occupancy,
                stats: EngineStats::from_registry(&registry),
                read_hold_ns: registry.histogram("lock.read_hold_ns"),
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

    /// The occupancy bitmask (exposed for tests and diagnostics).
    pub fn occupancy(&self) -> &Arc<ShardOccupancy> {
        &self.inner.occupancy
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

    fn read_shard(&self, i: usize) -> (RwLockReadGuard<'_, XarEngine>, HoldTimer) {
        let shard = &self.inner.shards[i];
        let guard = {
            let _acq = xar_obs::trace::span("lock.read_acquire");
            shard.lock.read().unwrap_or_else(|e| e.into_inner())
        };
        let hold = HoldTimer::new(
            Arc::clone(&self.inner.read_hold_ns),
            Arc::clone(&shard.read_hold_ns),
        );
        (guard, hold)
    }

    fn write_shard(&self, i: usize) -> (RwLockWriteGuard<'_, XarEngine>, HoldTimer) {
        let shard = &self.inner.shards[i];
        let guard = {
            let _acq = xar_obs::trace::span("lock.write_acquire");
            shard.lock.write().unwrap_or_else(|e| e.into_inner())
        };
        let hold = HoldTimer::new(
            Arc::clone(&self.inner.write_hold_ns),
            Arc::clone(&shard.write_hold_ns),
        );
        (guard, hold)
    }

    /// **Search** (operation O1) across shards: walkable-cluster
    /// fan-out from the lock-free region tables, occupancy-pruned
    /// snapshot reads, one global sort. Returns up to `limit`
    /// matches, least combined walking first — identical results to
    /// [`XarEngine::search`] over the union of the shards
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
    /// scratch lives in a thread-local, snapshots are read in place,
    /// and the final sort is unstable (no merge buffer).
    ///
    /// It takes **no engine lock**: each probed shard's published
    /// [`ClusterIndex`] is an `Arc` clone, so a writer is waited on for
    /// the length of its pointer swap at most. The view is the
    /// serializable point-in-time state as of each shard's latest
    /// publish.
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
    /// keeps the zero-allocation and no-engine-lock guarantees of
    /// `search_into`.
    pub fn search_into_explained(
        &self,
        req: &RideRequest,
        limit: usize,
        out: &mut Vec<RideMatch>,
        explain: &mut SearchExplain,
    ) -> Result<(), XarError> {
        let inner = &*self.inner;
        run_search(&inner.region, &inner.stats, &inner.metrics, req, limit, out, explain, |run| {
            // A shard can only contribute a match if it holds entries
            // for at least one source-side AND one destination-side
            // cluster (the candidate set is R1 ∩ R2, and a ride's
            // entries never leave its shard) — everything else is
            // skipped without loading its published index.
            let occ = &inner.occupancy;
            let mask = occ.mask_for(run.src_walkable.iter().map(|w| w.cluster.index()))
                & occ.mask_for(run.dst_walkable.iter().map(|w| w.cluster.index()));
            for (i, shard) in inner.shards.iter().enumerate() {
                if mask & (1u64 << i) != 0 {
                    run.collect_matches(&*shard.load());
                }
            }
        })
    }

    /// Publish shard `i`'s index if a list changed since the last
    /// publish. [`ClusterIndex::diff`] against the published clone finds
    /// the changed clusters by pointer and flips their occupancy bits;
    /// none means the published index is still exact (failed writes,
    /// no-progress tracks, offers listed nowhere), and nothing is
    /// published. Otherwise the next published index is a clone of the
    /// engine's: one `Arc` bump per block, every list shared.
    ///
    /// Called by every write path while it still holds the shard write
    /// lock, so publishes serialize per shard and each published index
    /// is a consistent point-in-time view.
    fn publish_shard(&self, i: usize, engine: &XarEngine) {
        let shard = &self.inner.shards[i];
        let occ = &self.inner.occupancy;
        let changed = engine.index().diff(&shard.load(), |c, listed| occ.mark(c.index(), i, listed));
        if changed == 0 {
            return;
        }
        let t0 = Instant::now();
        let mut tspan = xar_obs::trace::span("snapshot.publish");
        tspan.attr("shard", i);
        let m = &self.inner.metrics;
        shard.store(engine.index().clone());
        m.snapshot_publish_ns.record(t0.elapsed().as_nanos() as u64);
        m.snapshot_publishes.inc();
        m.snapshot_dirty_clusters.record(changed as u64);
    }

    /// **Create** (operation O2): one write lock on the shard owning
    /// the offer's pick-up cluster; publishes the shard's refreshed
    /// search snapshot before releasing it, so the new ride is
    /// immediately findable by searches.
    pub fn create_ride(&self, offer: &RideOffer) -> Result<RideId, XarError> {
        let region = &self.inner.region;
        let shard = region
            .cluster_of_node(region.snap_exact(&offer.source))
            .map_or(0, |c| self.shard_of_cluster(c));
        let (mut guard, _hold) = self.write_shard(shard);
        let res = guard.create_ride(offer);
        self.publish_shard(shard, &guard);
        res
    }

    /// **Book**: one write lock on the ride's owning shard (recovered
    /// from the id — no probing), [`XarEngine::book_checked`] under it,
    /// then a snapshot republish so the rewritten rows — carrying the
    /// reduced budget — or, for the last seat, the de-listed ride are
    /// visible to searches at once. Seats, progress *and* detour budget
    /// are checked against the live ride state under the lock, so the
    /// check and the booking are one atomic step: a match that a
    /// concurrent booking made stale behind the searcher's back is
    /// refused.
    pub fn book_checked(&self, m: &RideMatch) -> Result<BookingOutcome, XarError> {
        let shard = self.shard_of_ride(m.ride);
        let (mut guard, _hold) = self.write_shard(shard);
        let res = guard.book_checked(m);
        self.publish_shard(shard, &guard);
        res
    }

    /// **Track** one ride: one write lock on its owning shard, plus a
    /// snapshot republish when the track retired the ride or rewrote
    /// index entries (pure progress advances skip it).
    pub fn track_ride(&self, id: RideId, now_s: f64) -> Result<RideStatus, XarError> {
        let shard = self.shard_of_ride(id);
        let (mut guard, _hold) = self.write_shard(shard);
        let res = guard.track_ride(id, now_s);
        self.publish_shard(shard, &guard);
        res
    }

    /// **Track** every live ride to `now_s`: a per-shard sweep that
    /// write-locks one shard at a time — searches on other shards are
    /// never stalled. Shards with zero rides are skipped after a
    /// read-locked probe (no write lock taken at all). Returns the
    /// number of rides retired.
    pub fn track_all(&self, now_s: f64) -> usize {
        let mut retired = 0;
        for i in 0..self.inner.shards.len() {
            {
                let (guard, _hold) = self.read_shard(i);
                if guard.ride_count() == 0 {
                    continue;
                }
            }
            let (mut guard, _hold) = self.write_shard(i);
            retired += guard.track_all(now_s);
            self.publish_shard(i, &guard);
        }
        retired
    }

    /// Whether every shard's published index reads what its live index
    /// holds — the same entry count and, cluster by cluster, the same
    /// rows — and every occupancy bit agrees with it: bit `s` of a
    /// cluster's mask is set iff shard `s`'s published list for it is
    /// non-empty. Exposed for tests and audits; takes each shard's read
    /// lock briefly.
    pub fn snapshots_consistent(&self) -> bool {
        (0..self.inner.shards.len()).all(|i| {
            let (eng, _hold) = self.read_shard(i);
            let (live, published) = (eng.index(), self.inner.shards[i].load());
            live.len() == published.len()
                && (0..live.cluster_count() as u32).map(ClusterId).all(|c| {
                    let rows = published.rows(c);
                    let listed = !rows.is_empty();
                    let bit = (self.inner.occupancy.cluster_mask(c.index()) >> i) & 1 == 1;
                    rows == live.rows(c) && bit == listed
                })
        })
    }

    /// Total live rides across all shards.
    pub fn ride_count(&self) -> usize {
        (0..self.inner.shards.len())
            .map(|i| {
                let (guard, _hold) = self.read_shard(i);
                guard.ride_count()
            })
            .sum()
    }

    /// Run a read-only closure against one shard's engine (shared
    /// lock) — stats, inspection, tests.
    pub fn with_shard_read<R>(&self, shard: usize, f: impl FnOnce(&XarEngine) -> R) -> R {
        let (guard, _hold) = self.read_shard(shard);
        f(&guard)
    }

    /// Visit every live ride across all shards (shards read-locked one
    /// at a time) — audits and invariant checks.
    pub fn for_each_ride(&self, mut f: impl FnMut(&Ride)) {
        for i in 0..self.inner.shards.len() {
            let (guard, _hold) = self.read_shard(i);
            for ride in guard.rides() {
                f(ride);
            }
        }
    }

    /// Total heap bytes: the shared region tables once, plus every
    /// shard's private runtime state (index + rides) and the block
    /// vector of its published index. Every write publishes before it
    /// releases the shard lock, so under the read lock the published
    /// index's blocks and lists are the live index's own and are
    /// counted once, with the live index.
    pub fn heap_bytes(&self) -> usize {
        let shards: usize = (0..self.inner.shards.len())
            .map(|i| {
                let (guard, _hold) = self.read_shard(i);
                guard.heap_bytes_runtime() + self.inner.shards[i].load().spine_bytes()
            })
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
        let pois = sample_pois(&graph, &PoiConfig { count: 400, ..Default::default() });
        Arc::new(RegionIndex::build(
            graph,
            &pois,
            RegionConfig { cluster_goal: ClusterGoal::Delta(200.0), ..Default::default() },
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
            assert!(eng.with_shard_read(s, |e| e.ride(*id).is_some()), "ride {id:?} in shard {s}");
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
    fn occupancy_prunes_empty_shards() {
        let region = region(31);
        let clusters = region.cluster_count();
        let graph = Arc::clone(region.graph());
        let eng = ShardedXarEngine::new(region, EngineConfig::default(), 8);
        // Empty engine: no cluster maps to any shard.
        assert_eq!(eng.occupancy().mask_for(0..clusters), 0);
        let id = eng.create_ride(&offer(&graph, 3)).unwrap();
        let mask = eng.occupancy().mask_for(0..clusters);
        assert_eq!(mask, 1 << eng.shard_of_ride(id), "exactly the owning shard is occupied");
        // Drive the ride to completion: occupancy drains back to zero.
        eng.track_all(f64::INFINITY);
        assert_eq!(eng.ride_count(), 0);
        assert_eq!(eng.occupancy().mask_for(0..clusters), 0);
    }

    #[test]
    fn track_all_skips_empty_shards_without_write_locks() {
        let region = region(31);
        let eng = ShardedXarEngine::new(region, EngineConfig::default(), 4);
        let writes_before = eng.registry().histogram("lock.write_hold_ns").count();
        assert_eq!(eng.track_all(9.0 * 3600.0), 0);
        let writes_after = eng.registry().histogram("lock.write_hold_ns").count();
        assert_eq!(writes_before, writes_after, "empty sweep must not take write locks");
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
    fn search_takes_no_engine_lock() {
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
        let reads_before = eng.registry().histogram("lock.read_hold_ns").count();
        let mut found = 0usize;
        for _ in 0..50 {
            found += eng.search(&req, usize::MAX).unwrap().len();
        }
        assert!(found > 0, "searches must still find the rides");
        let reads_after = eng.registry().histogram("lock.read_hold_ns").count();
        assert_eq!(reads_before, reads_after, "search must not take read locks");
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
        assert!(matches!(eng.search(&req, usize::MAX), Ok(v) if v.is_empty())
            || matches!(eng.search(&req, usize::MAX), Err(XarError::NotServable)));
        for i in 0..30 {
            let _ = eng.create_ride(&offer(&graph, i));
        }
        // Creates published their snapshots: matches appear with no
        // intervening write.
        let matches = eng.search(&req, usize::MAX).unwrap();
        assert!(!matches.is_empty(), "created rides must be searchable immediately");
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
                "a booked-out ride must leave the snapshot immediately"
            );
        }
        // Retiring everything drains search results.
        eng.track_all(f64::INFINITY);
        assert_eq!(eng.ride_count(), 0);
        let drained = eng.search(&req, usize::MAX).unwrap();
        assert!(drained.is_empty(), "retired rides must leave the snapshot");
    }

    #[test]
    fn snapshot_publishes_are_metered_and_skipped_without_dirt() {
        let region = region(31);
        let graph = Arc::clone(region.graph());
        let eng = ShardedXarEngine::new(region, EngineConfig::default(), 4);
        let _ = eng.create_ride(&offer(&graph, 1)).unwrap();
        let m = eng.metrics();
        let after_create = m.snapshot_publishes.get();
        assert!(after_create >= 1, "create must publish a snapshot");
        assert!(m.snapshot_publish_ns.count() >= 1);
        // A sweep that advances nothing (before departure) must not
        // republish: no list changed.
        eng.track_all(0.0);
        assert_eq!(m.snapshot_publishes.get(), after_create, "no-op track must skip publish");
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

    #[test]
    fn noop_skip_never_hides_a_pending_rebuild() {
        // `publish_shard` skips a publish when no list changed, which
        // is sound only if the published index then already reads
        // what the live one holds. Interleave real mutations with
        // no-op sweeps and verify after every step that it does — a
        // skipped-but-pending publish would diverge here.
        let region = region(31);
        let graph = Arc::clone(region.graph());
        let n = graph.node_count() as u32;
        let eng = ShardedXarEngine::new(region, EngineConfig::default(), 4);
        for i in 0..25 {
            let _ = eng.create_ride(&offer(&graph, i));
            eng.track_all(0.0); // no-op: must skip, but skip must be sound
            assert!(eng.snapshots_consistent(), "after create {i} + no-op sweep");
        }
        let req = RideRequest {
            source: graph.point(NodeId(n / 2)),
            destination: graph.point(NodeId(n - 1)),
            window_start_s: 7.5 * 3600.0,
            window_end_s: 9.5 * 3600.0,
            walk_limit_m: 800.0,
        };
        for m in eng.search(&req, 5).unwrap() {
            let _ = eng.book_checked(&m);
            eng.track_all(0.0);
            assert!(eng.snapshots_consistent(), "after booking + no-op sweep");
        }
        eng.track_all(f64::INFINITY);
        assert!(eng.snapshots_consistent(), "after retiring everything");
    }

    #[test]
    fn every_publish_records_its_dirty_set() {
        let region = region(31);
        let graph = Arc::clone(region.graph());
        let eng = ShardedXarEngine::new(region, EngineConfig::default(), 4);
        for i in 0..30 {
            let _ = eng.create_ride(&offer(&graph, i));
        }
        let m = eng.metrics();
        assert!(m.snapshot_publishes.get() > 0);
        assert_eq!(m.snapshot_dirty_clusters.count(), m.snapshot_publishes.get());
        assert!(eng.snapshots_consistent());
    }

    /// The distinct clusters `id` is listed in, and its
    /// `(pass, reachable)` pair count.
    fn footprint_of(eng: &ShardedXarEngine, id: RideId) -> (std::collections::BTreeSet<ClusterId>, usize) {
        eng.with_shard_read(0, |e| {
            let pass = &e.ride(id).expect("live ride").pass_clusters;
            let pairs = pass.iter().map(|p| 1 + p.reachable.len()).sum();
            (pass.iter().flat_map(crate::ride::PassCluster::clusters).collect(), pairs)
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
        let o = RideOffer::simple(graph.point(NodeId(0)), graph.point(NodeId(n - 1)), 8.0 * 3600.0, 3, 3_000.0);
        let id = eng.create_ride(&o).unwrap();
        let (created, pairs) = footprint_of(&eng, id);
        assert!(pairs > 2 * created.len(), "fixture lost its overlap: {pairs} pairs, {} clusters", created.len());
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
        assert!(!obsolete.is_empty(), "half-way tracking must cross clusters");
        let (tracked, _) = footprint_of(&eng, id);
        assert_eq!(calls() - before, obsolete.len() + obsolete.intersection(&tracked).count());
        assert!(eng.snapshots_consistent());
    }

    #[test]
    fn a_held_snapshot_stays_frozen_under_copy_on_write() {
        let region = region(31);
        let graph = Arc::clone(region.graph());
        let n = graph.node_count() as u32;
        let clusters = || (0..region.cluster_count() as u32).map(ClusterId);
        let eng = ShardedXarEngine::new(Arc::clone(&region), EngineConfig::default(), 1);
        for i in 0..30 {
            let _ = eng.create_ride(&offer(&graph, i));
        }
        // Hold the published view: every list's address and rows.
        let snap = eng.inner.shards[0].load();
        let frozen: Vec<_> = clusters().map(|c| (snap.rows(c).as_ptr(), snap.rows(c).to_vec())).collect();
        assert!(frozen.iter().filter(|(_, rows)| !rows.is_empty()).count() > 10);
        // 200 writes over the same clusters: creates, bookings, and
        // sweeps that expel crossed clusters and retire rides.
        let req = RideRequest {
            source: graph.point(NodeId(n / 2)),
            destination: graph.point(NodeId(n - 1)),
            window_start_s: 7.5 * 3600.0,
            window_end_s: 10.5 * 3600.0,
            walk_limit_m: 800.0,
        };
        for i in 0..200u32 {
            match i % 4 {
                0 | 1 => drop(eng.create_ride(&offer(&graph, 30 + i))),
                2 => drop(eng.search(&req, 1).map(|ms| ms.first().map(|m| eng.book_checked(m)))),
                _ => drop(eng.track_all(8.0 * 3600.0 + f64::from(i) * 30.0)),
            }
        }
        // The writes did edit those lists...
        let live = eng.inner.shards[0].load();
        let moved = clusters().filter(|&c| live.rows(c).as_ptr() != snap.rows(c).as_ptr()).count();
        assert!(moved > 10, "only {moved} lists were edited");
        // ...and the held view never saw it: same addresses, same rows.
        for (c, (ptr, rows)) in clusters().zip(&frozen) {
            assert_eq!(snap.rows(c).as_ptr(), *ptr, "cluster {c:?} moved under a reader");
            assert_eq!(snap.rows(c), &rows[..], "cluster {c:?} changed under a reader");
        }
        // The reader held the last reference: dropping it frees the view.
        let weak = Arc::downgrade(&snap);
        drop(snap);
        assert!(weak.upgrade().is_none(), "a superseded snapshot must die with its last reader");
        assert!(eng.snapshots_consistent());
    }

    #[test]
    fn a_reader_that_panics_leaves_the_engine_serving() {
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
        let fill = |base: u32| (0..30).filter(|i| eng.create_ride(&offer(&graph, base + i)).is_ok()).count();
        // Index plus snapshot in full: what a reader that never let go
        // would keep growing. (`heap_bytes()` adds the ride map, whose
        // reported capacity moves with the tombstones removals leave —
        // hash-seed dependent — so it is held to 10 %, not to the byte.)
        let lists = || {
            eng.with_shard_read(0, |e| e.index().heap_bytes()) + eng.inner.shards[0].load().heap_bytes()
        };
        // One fill-and-sweep cycle sizes every buffer the second reuses.
        assert!(fill(0) > 10);
        eng.track_all(f64::INFINITY);
        let (settled_lists, settled) = (lists(), eng.heap_bytes());

        fill(0);
        let (weak_tx, weak_rx) = std::sync::mpsc::channel();
        let reader = {
            let eng = eng.clone();
            std::thread::spawn(move || {
                let snap = eng.inner.shards[0].load();
                weak_tx.send(Arc::downgrade(&snap)).unwrap();
                panic!("reader dies holding {} rows", snap.len());
            })
        };
        let weak = weak_rx.recv().unwrap();
        assert!(reader.join().is_err());
        // A panic under the cell's own lock poisons it; the cell holds
        // one pointer, so the next reader and writer go through.
        let poisoner = {
            let eng = eng.clone();
            std::thread::spawn(move || {
                let _cell = eng.inner.shards[0].snapshot.write().unwrap();
                panic!("dies inside the swap");
            })
        };
        assert!(poisoner.join().is_err());
        assert!(eng.inner.shards[0].snapshot.is_poisoned());

        assert!(!eng.search(&req, usize::MAX).unwrap().is_empty());
        eng.create_ride(&offer(&graph, 77)).unwrap();
        assert!(weak.upgrade().is_none(), "the dead reader's snapshot was freed by its unwind");
        assert!(eng.snapshots_consistent());
        eng.track_all(f64::INFINITY);
        assert!(eng.search(&req, usize::MAX).unwrap().is_empty());
        assert_eq!(lists(), settled_lists, "nothing the dead reader held is still counted");
        assert!(eng.heap_bytes().abs_diff(settled) * 10 <= settled, "{} vs {settled}", eng.heap_bytes());
    }

    #[test]
    fn heap_bytes_counts_a_list_shared_with_the_snapshot_once() {
        let region = region(31);
        let graph = Arc::clone(region.graph());
        let eng = ShardedXarEngine::new(Arc::clone(&region), EngineConfig::default(), 2);
        // (index + rides, published index in full, engine total) over
        // both shards.
        let parts = || {
            let (mut runtime, mut snap) = (0, 0);
            for (i, shard) in eng.inner.shards.iter().enumerate() {
                runtime += eng.with_shard_read(i, |e| e.heap_bytes_runtime());
                snap += shard.load().heap_bytes();
            }
            (runtime, snap, eng.heap_bytes() - region.heap_bytes())
        };
        let lists = || -> usize {
            (0..eng.shard_count())
                .map(|i| eng.with_shard_read(i, |e| {
                    let idx = e.index();
                    (0..idx.cluster_count() as u32)
                        .filter_map(|c| idx.segment(ClusterId(c)))
                        .map(|s| s.heap_bytes())
                        .sum::<usize>()
                }))
                .sum()
        };
        // Every shard's blocks hold one 8-byte slot per cluster.
        let blocks = eng.shard_count() * region.cluster_count() * 8;
        // Right after a publish — after every write — each published
        // block and list is the live index's own.
        for i in 0..60u32 {
            let _ = eng.create_ride(&offer(&graph, i));
            if i % 11 == 5 {
                eng.track_all(8.0 * 3600.0 + f64::from(i) * 90.0);
            }
            let (runtime, snap, counted) = parts();
            assert_eq!(counted, runtime + snap - blocks - lists(), "shared parts must be counted exactly once");
        }
        assert!(lists() > 0);
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
