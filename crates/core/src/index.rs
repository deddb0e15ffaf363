//! The per-cluster *potential rides* lists (§VI).
//!
//! > *"Additionally, each cluster has a list of rides associated with it
//! > as potential rides. With each cluster C, this information is
//! > maintained as a list of tuples of the form ⟨r, t⟩, where r denotes
//! > a ride in the system, and t is the estimated time of arrival of the
//! > ride in the cluster C. We maintain the tuples in two different
//! > lists, one sorted in non-decreasing order by the time of arrival,
//! > and the other sorted by the unique ride identification numbers."*
//!
//! **Substitution.** The two lists are kept here as *one* vector of
//! 40-byte rows per cluster, sorted by `(eta, ride)`, behind an `Arc`
//! that published [`crate::ShardSnapshot`]s clone by pointer. The
//! ETA-sorted list's job — the departure-window range query of search
//! Step 1 — is two binary searches on it. The id-sorted list had two
//! jobs: membership for the `R1 ∩ R2` intersection, which search does
//! in one pass per side over a per-thread `ride → candidate` table
//! emptied by bumping a generation stamp, with no sort
//! (`search::SearchRun::collect_matches`), and locating a ride's entry
//! to delete it, which is a linear scan of the rows' ride field — 3
//! rows on average per shard list on the benchmark day (p99 20), 47 on
//! the serial engine at twice NYC density (p99 470), where it still
//! beats the `BTreeMap` + `HashMap` pair it replaced (DESIGN.md §5f,
//! "One layout": measurements, copy-on-write rule, stated limit).
//!
//! **A row carries everything search reads.** Besides `⟨r, t⟩` a row
//! holds the estimated detour of serving its cluster, the position on
//! the route that orders pick-up before drop-off, and the ride's
//! remaining detour budget when the row was written. A booking — the
//! only write that moves a budget — rewrites every row of its ride, so
//! all of a ride's rows always agree on it, and search needs no
//! per-ride table beside the lists.
//!
//! **Listing rule.** A ride is listed only while it has a free seat:
//! `XarEngine::index_ride` gives a full ride an empty footprint, so no
//! list carries a row that search's free-seat check would reject.

use std::sync::Arc;

use xar_discretize::ClusterId;

use crate::ride::RideId;

/// One row of a cluster's potential-rides list: the paper's `⟨r, t⟩`
/// tuple, extended with what the final search checks need so that no
/// shortest path is ever computed at search time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PotentialRide {
    /// Estimated time of arrival of the ride in this cluster, absolute
    /// seconds.
    pub eta_s: f64,
    /// The ride.
    pub ride: RideId,
    /// Estimated extra driving distance the ride incurs to serve this
    /// cluster (0 for a pass-through cluster), metres.
    pub detour_m: f64,
    /// The ride's remaining detour budget
    /// ([`crate::Ride::detour_remaining_m`]) when the row was written,
    /// metres: what search holds a pairing's combined detour against.
    pub budget_m: f64,
    /// The segment of the ride this entry belongs to.
    pub seg: u32,
    /// Route way-point index where the ride enters the pass-through
    /// cluster this entry is served from — used by search to enforce
    /// that pick-up precedes drop-off *along the route*, not merely in
    /// estimated time.
    pub pass_route_idx: u32,
}

const ROW_BYTES: usize = std::mem::size_of::<PotentialRide>();
const _: () = assert!(ROW_BYTES == 40);

impl PotentialRide {
    /// Whether `self` displaces `other` as the same ride's entry for one
    /// cluster: smaller estimated detour, then earlier ETA; on a full
    /// tie the entry already there stays.
    #[inline]
    pub(crate) fn better_than(&self, other: &Self) -> bool {
        self.detour_m < other.detour_m
            || (self.detour_m == other.detour_m && self.eta_s < other.eta_s)
    }
}

/// The rows of `rows` (sorted by `(eta, ride)`) whose ETA lies in
/// `[from_s, to_s]`, both ends inclusive.
#[inline]
pub(crate) fn eta_range(rows: &[PotentialRide], from_s: f64, to_s: f64) -> &[PotentialRide] {
    let a = rows.partition_point(|r| r.eta_s < from_s);
    let b = a + rows[a..].partition_point(|r| r.eta_s <= to_s);
    &rows[a..b]
}

/// One cluster's non-empty list, sorted by `(eta, ride)`.
#[derive(Debug)]
pub(crate) struct Segment {
    rows: Vec<PotentialRide>,
}

impl Clone for Segment {
    /// The copy [`Arc::make_mut`] takes when a snapshot shares the
    /// list: sized for the one insert that usually follows, so a write
    /// costs one allocation and one `memcpy` per shared list it edits.
    fn clone(&self) -> Self {
        let mut rows = Vec::with_capacity(self.rows.len() + 1);
        rows.extend_from_slice(&self.rows);
        Self { rows }
    }
}

impl Segment {
    /// The rows, sorted by `(eta, ride)`.
    #[inline]
    pub(crate) fn rows(&self) -> &[PotentialRide] {
        &self.rows
    }

    /// Exact heap bytes of one `Arc<Segment>`: the reference counts,
    /// the vector header and the row buffer.
    pub(crate) fn heap_bytes(&self) -> usize {
        2 * std::mem::size_of::<usize>() + std::mem::size_of::<Self>() + self.rows.capacity() * ROW_BYTES
    }
}

/// The in-memory index: one potential-rides list per cluster.
#[derive(Debug, Clone)]
pub struct ClusterIndex {
    /// `None` while a cluster lists no ride (most clusters of a shard,
    /// most of the time).
    lists: Vec<Option<Arc<Segment>>>,
    entries: usize,
    /// Clusters whose lists changed since the last [`Self::drain_dirty`]
    /// — the working set of an incremental snapshot publish. Kept
    /// duplicate-free by `dirty_mark`.
    dirty: Vec<u32>,
    /// Per-cluster membership bit for `dirty` (O(1) dedup on mark).
    dirty_mark: Vec<bool>,
    /// When this index is one shard of a
    /// [`crate::sharded::ShardedXarEngine`]: the shared occupancy map
    /// and this shard's bit, kept in sync on every empty↔non-empty
    /// transition of a cluster list so searches can skip shards that
    /// hold nothing for their cluster fan-out.
    occupancy: Option<(Arc<crate::sharded::ShardOccupancy>, u32)>,
    /// `insert` + `remove` calls so far: lets the engine's unit test
    /// assert one call per distinct cluster a write touches.
    #[cfg(test)]
    pub(crate) edit_calls: usize,
}

impl ClusterIndex {
    /// Create an index over `cluster_count` clusters.
    pub fn new(cluster_count: usize) -> Self {
        Self {
            lists: vec![None; cluster_count],
            entries: 0,
            dirty: Vec::new(),
            dirty_mark: vec![false; cluster_count],
            occupancy: None,
            #[cfg(test)]
            edit_calls: 0,
        }
    }

    /// Record that `cluster`'s list mutated. Only actual mutations mark
    /// — an `insert` that loses its better-detour race leaves the list,
    /// and therefore the dirty set, untouched.
    #[inline]
    fn mark_dirty(&mut self, cluster: ClusterId) {
        let c = cluster.index();
        if !self.dirty_mark[c] {
            self.dirty_mark[c] = true;
            self.dirty.push(c as u32);
        }
    }

    /// Take the set of clusters whose lists changed since the last
    /// drain (duplicate-free, unordered) and reset the marks. Called by
    /// snapshot publication under the shard write lock.
    pub fn drain_dirty(&mut self) -> Vec<u32> {
        for &c in &self.dirty {
            self.dirty_mark[c as usize] = false;
        }
        std::mem::take(&mut self.dirty)
    }

    /// Whether some list changed since the last [`Self::drain_dirty`].
    #[inline]
    pub(crate) fn has_dirt(&self) -> bool {
        !self.dirty.is_empty()
    }

    /// Publish this index's per-cluster emptiness into `occupancy` as
    /// shard `shard`: from here on `insert`/`remove` keep the map in
    /// sync incrementally. Attached while the index is still empty.
    pub(crate) fn attach_occupancy(
        &mut self,
        occupancy: Arc<crate::sharded::ShardOccupancy>,
        shard: u32,
    ) {
        debug_assert!(self.is_empty(), "occupancy must be attached before any entry exists");
        self.occupancy = Some((occupancy, shard));
    }

    /// Number of clusters.
    #[inline]
    pub fn cluster_count(&self) -> usize {
        self.lists.len()
    }

    /// Total `⟨r, t⟩` entries across all clusters.
    #[inline]
    pub fn len(&self) -> usize {
        self.entries
    }

    /// Whether the index holds no entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }

    /// `cluster`'s list as snapshots share it; `None` while it is empty.
    #[inline]
    pub(crate) fn segment(&self, cluster: ClusterId) -> Option<&Arc<Segment>> {
        self.lists[cluster.index()].as_ref()
    }

    /// `cluster`'s rows in `(eta, ride)` order.
    #[inline]
    pub(crate) fn rows(&self, cluster: ClusterId) -> &[PotentialRide] {
        self.segment(cluster).map_or(&[], |s| s.rows())
    }

    /// Insert (or improve) the entry for `entry.ride` in `cluster`'s
    /// list. If the ride is already listed, the entry with the smaller
    /// estimated detour wins (ties: earlier ETA).
    pub fn insert(&mut self, cluster: ClusterId, entry: PotentialRide) {
        #[cfg(test)]
        {
            self.edit_calls += 1;
        }
        let slot = &mut self.lists[cluster.index()];
        let was_empty = slot.is_none();
        let seg = slot.get_or_insert_with(|| Arc::new(Segment { rows: Vec::new() }));
        let listed = seg.rows.iter().position(|r| r.ride == entry.ride);
        if listed.is_some_and(|i| !entry.better_than(&seg.rows[i])) {
            return;
        }
        let rows = &mut Arc::make_mut(seg).rows;
        if let Some(i) = listed {
            rows.remove(i);
            self.entries -= 1;
        }
        let at = rows.partition_point(|r| {
            r.eta_s.total_cmp(&entry.eta_s).then(r.ride.cmp(&entry.ride)).is_lt()
        });
        rows.insert(at, entry);
        self.entries += 1;
        if was_empty {
            if let Some((occ, shard)) = &self.occupancy {
                occ.set(cluster.index(), *shard);
            }
        }
        self.mark_dirty(cluster);
    }

    /// Remove `ride` from `cluster`'s list. Returns the removed entry.
    pub fn remove(&mut self, cluster: ClusterId, ride: RideId) -> Option<PotentialRide> {
        #[cfg(test)]
        {
            self.edit_calls += 1;
        }
        let slot = &mut self.lists[cluster.index()];
        let seg = slot.as_mut()?;
        let i = seg.rows.iter().position(|r| r.ride == ride)?;
        let rows = &mut Arc::make_mut(seg).rows;
        let removed = rows.remove(i);
        if rows.is_empty() {
            *slot = None;
            if let Some((occ, shard)) = &self.occupancy {
                occ.clear(cluster.index(), *shard);
            }
        } else if rows.len() * 4 < rows.capacity() {
            // Give back what a past peak left behind (amortised O(1):
            // the list must halve again before the next shrink).
            rows.shrink_to(rows.len() * 2);
        }
        self.entries -= 1;
        self.mark_dirty(cluster);
        Some(removed)
    }

    /// The entry for `ride` in `cluster`, if present.
    pub fn get(&self, cluster: ClusterId, ride: RideId) -> Option<PotentialRide> {
        self.rows(cluster).iter().find(|r| r.ride == ride).copied()
    }

    /// Rides whose ETA in `cluster` lies in `[from_s, to_s]`, in ETA
    /// order — the logarithmic range query of search Step 1.
    pub fn range_eta(
        &self,
        cluster: ClusterId,
        from_s: f64,
        to_s: f64,
    ) -> impl Iterator<Item = PotentialRide> + '_ {
        eta_range(self.rows(cluster), from_s, to_s).iter().copied()
    }

    /// All entries of `cluster` in ETA order.
    pub fn entries_of(&self, cluster: ClusterId) -> impl Iterator<Item = PotentialRide> + '_ {
        self.rows(cluster).iter().copied()
    }

    /// Number of rides listed in `cluster`.
    pub fn cluster_len(&self, cluster: ClusterId) -> usize {
        self.rows(cluster).len()
    }

    /// Exact heap bytes (index-size accounting, Figure 3c): directory,
    /// dirty set, and every list's `Arc` header and row buffer at its
    /// capacity — in full even where a snapshot shares the list.
    pub fn heap_bytes(&self) -> usize {
        self.lists.capacity() * std::mem::size_of::<Option<Arc<Segment>>>()
            + self.dirty.capacity() * std::mem::size_of::<u32>()
            + self.dirty_mark.capacity()
            + self.lists.iter().flatten().map(|s| s.heap_bytes()).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(ride: u64, eta: f64, detour: f64) -> PotentialRide {
        PotentialRide { ride: RideId(ride), eta_s: eta, detour_m: detour, budget_m: 0.0, seg: 0, pass_route_idx: 0 }
    }

    #[test]
    fn insert_and_get() {
        let mut idx = ClusterIndex::new(3);
        idx.insert(ClusterId(1), entry(7, 100.0, 0.0));
        assert_eq!(idx.len(), 1);
        let e = idx.get(ClusterId(1), RideId(7)).unwrap();
        assert_eq!(e.eta_s, 100.0);
        assert!(idx.get(ClusterId(0), RideId(7)).is_none());
        assert!(idx.get(ClusterId(1), RideId(8)).is_none());
    }

    #[test]
    fn range_query_is_eta_ordered_and_inclusive() {
        let mut idx = ClusterIndex::new(1);
        for (r, t) in [(4u64, 200.0), (1, 50.0), (3, 150.0), (2, 100.0), (5, 100.0)] {
            idx.insert(ClusterId(0), entry(r, t, 0.0));
        }
        let got = |from, to| idx.range_eta(ClusterId(0), from, to).map(|e| e.ride.0).collect::<Vec<_>>();
        assert_eq!(got(100.0, 200.0), vec![2, 5, 3, 4]);
        assert_eq!(got(100.0, 150.0), vec![2, 5, 3]);
        assert_eq!(got(0.0, 49.0), Vec::<u64>::new());
        assert_eq!(got(300.0, 400.0), Vec::<u64>::new());
        assert_eq!(got(f64::NEG_INFINITY, f64::INFINITY), vec![1, 2, 5, 3, 4]);
    }

    #[test]
    fn equal_etas_are_kept_per_ride() {
        let mut idx = ClusterIndex::new(1);
        idx.insert(ClusterId(0), entry(2, 100.0, 0.0));
        idx.insert(ClusterId(0), entry(1, 100.0, 0.0));
        assert_eq!(idx.cluster_len(ClusterId(0)), 2);
        let got: Vec<u64> = idx.range_eta(ClusterId(0), 100.0, 100.0).map(|e| e.ride.0).collect();
        assert_eq!(got, vec![1, 2]);
    }

    #[test]
    fn reinsert_keeps_smaller_detour() {
        let mut idx = ClusterIndex::new(1);
        idx.insert(ClusterId(0), entry(1, 100.0, 500.0));
        idx.insert(ClusterId(0), entry(1, 120.0, 200.0)); // better detour wins
        assert_eq!(idx.len(), 1);
        let e = idx.get(ClusterId(0), RideId(1)).unwrap();
        assert_eq!(e.detour_m, 200.0);
        assert_eq!(e.eta_s, 120.0);
        // Worse detour does not displace.
        idx.insert(ClusterId(0), entry(1, 90.0, 300.0));
        assert_eq!(idx.get(ClusterId(0), RideId(1)).unwrap().detour_m, 200.0);
    }

    #[test]
    fn remove_keeps_the_list_sorted_and_counted() {
        let mut idx = ClusterIndex::new(2);
        idx.insert(ClusterId(0), entry(1, 100.0, 0.0));
        idx.insert(ClusterId(0), entry(2, 200.0, 0.0));
        idx.insert(ClusterId(1), entry(1, 300.0, 0.0));
        let removed = idx.remove(ClusterId(0), RideId(1)).unwrap();
        assert_eq!(removed.eta_s, 100.0);
        assert_eq!(idx.len(), 2);
        assert!(idx.get(ClusterId(0), RideId(1)).is_none());
        assert!(idx.get(ClusterId(1), RideId(1)).is_some());
        assert!(idx.remove(ClusterId(0), RideId(1)).is_none(), "double remove is None");
        // Emptying a list frees it.
        idx.remove(ClusterId(0), RideId(2)).unwrap();
        assert!(idx.segment(ClusterId(0)).is_none());
        assert_eq!(idx.cluster_len(ClusterId(0)), 0);
    }

    #[test]
    fn negative_and_zero_etas_order_correctly() {
        let mut idx = ClusterIndex::new(1);
        idx.insert(ClusterId(0), entry(2, 0.0, 0.0));
        idx.insert(ClusterId(0), entry(1, -50.0, 0.0));
        let got: Vec<u64> = idx.range_eta(ClusterId(0), f64::NEG_INFINITY, 0.0).map(|e| e.ride.0).collect();
        assert_eq!(got, vec![1, 2]);
    }

    #[test]
    fn dirty_set_tracks_mutations_only_and_drains_clean() {
        let mut idx = ClusterIndex::new(4);
        assert!(idx.drain_dirty().is_empty());
        idx.insert(ClusterId(1), entry(1, 100.0, 500.0));
        idx.insert(ClusterId(1), entry(2, 110.0, 0.0));
        idx.insert(ClusterId(3), entry(1, 200.0, 0.0));
        // A losing better-detour insert is a no-op: no dirt.
        idx.insert(ClusterId(3), entry(1, 90.0, 300.0));
        let mut d = idx.drain_dirty();
        d.sort_unstable();
        assert_eq!(d, vec![1, 3]);
        assert!(idx.drain_dirty().is_empty());
        // Post-drain mutations mark afresh; duplicates collapse.
        idx.remove(ClusterId(1), RideId(1));
        idx.remove(ClusterId(1), RideId(2));
        assert!(idx.remove(ClusterId(2), RideId(9)).is_none(), "miss leaves no dirt");
        assert_eq!(idx.drain_dirty(), vec![1]);
    }

    #[test]
    fn edits_leave_a_shared_list_untouched_and_reuse_an_unshared_one() {
        let mut idx = ClusterIndex::new(1);
        for r in 0..10 {
            idx.insert(ClusterId(0), entry(r, r as f64, 0.0));
        }
        // Unshared: the edit happens in the same allocation.
        let before = Arc::as_ptr(idx.segment(ClusterId(0)).unwrap());
        idx.remove(ClusterId(0), RideId(3));
        idx.insert(ClusterId(0), entry(3, 3.5, 0.0));
        assert_eq!(Arc::as_ptr(idx.segment(ClusterId(0)).unwrap()), before);
        // Shared (what a published snapshot does): the holder's view is
        // frozen, the index moves to a copy, and a losing insert or a
        // missing remove copies nothing.
        let pinned = Arc::clone(idx.segment(ClusterId(0)).unwrap());
        let frozen = pinned.rows().to_vec();
        idx.insert(ClusterId(0), entry(3, 1.0, 9.0));
        assert!(idx.remove(ClusterId(0), RideId(77)).is_none());
        assert!(Arc::ptr_eq(&pinned, idx.segment(ClusterId(0)).unwrap()));
        idx.remove(ClusterId(0), RideId(4));
        assert!(!Arc::ptr_eq(&pinned, idx.segment(ClusterId(0)).unwrap()));
        assert_eq!(pinned.rows(), &frozen[..]);
        assert_eq!(idx.cluster_len(ClusterId(0)), 9);
    }

    #[test]
    fn heap_bytes_is_capacity_exact() {
        let mut idx = ClusterIndex::new(4);
        let empty = idx.heap_bytes();
        assert_eq!(empty, 4 * 8 + 4);
        for r in 0..100 {
            idx.insert(ClusterId((r % 4) as u32), entry(r, r as f64, 0.0));
        }
        let rows: usize = (0..4).map(|c| idx.segment(ClusterId(c)).unwrap().rows.capacity()).sum();
        assert!(rows >= 100);
        let dirt = idx.dirty.capacity() * 4;
        assert_eq!(idx.heap_bytes(), empty + dirt + 4 * (16 + 24) + rows * 40);
    }
}
