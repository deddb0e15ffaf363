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
//! The ETA-ordered list is a `BTreeMap` keyed by `(eta, ride)` — range
//! queries over a departure window are logarithmic, exactly the search
//! cost the paper claims. The id-ordered list is a `HashMap` from ride
//! id to its ETA key — constant-time membership tests for the search
//! intersection step, and constant-time location of the entry to delete
//! during tracking and booking updates.

use std::collections::{BTreeMap, HashMap};

use xar_discretize::ClusterId;

use crate::ride::RideId;

/// Total-ordered `f64` wrapper so ETAs can key a `BTreeMap`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OrdF64(pub f64);

impl Eq for OrdF64 {}
impl PartialOrd for OrdF64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for OrdF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// One entry of a cluster's potential-rides list: the paper's `⟨r, t⟩`
/// tuple, extended with what the final search checks need so that no
/// shortest path is ever computed at search time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PotentialRide {
    /// The ride.
    pub ride: RideId,
    /// Estimated time of arrival of the ride in this cluster, absolute
    /// seconds.
    pub eta_s: f64,
    /// Estimated extra driving distance the ride incurs to serve this
    /// cluster (0 for a pass-through cluster), metres.
    pub detour_m: f64,
    /// The segment of the ride this entry belongs to.
    pub seg: usize,
    /// The pass-through cluster this entry is reachable from (equals
    /// the cluster itself for pass-through entries).
    pub via_pass: ClusterId,
    /// Route way-point index where the ride enters `via_pass` — used by
    /// search to enforce that pick-up precedes drop-off *along the
    /// route*, not merely in estimated time.
    pub pass_route_idx: usize,
}

#[derive(Debug, Default, Clone)]
struct ClusterList {
    by_eta: BTreeMap<(OrdF64, RideId), PotentialRide>,
    by_ride: HashMap<RideId, OrdF64>,
}

/// The in-memory index: one dual-sorted potential-rides list per
/// cluster.
#[derive(Debug, Clone)]
pub struct ClusterIndex {
    lists: Vec<ClusterList>,
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
    occupancy: Option<(std::sync::Arc<crate::sharded::ShardOccupancy>, u32)>,
}

impl ClusterIndex {
    /// Create an index over `cluster_count` clusters.
    pub fn new(cluster_count: usize) -> Self {
        Self {
            lists: vec![ClusterList::default(); cluster_count],
            entries: 0,
            dirty: Vec::new(),
            dirty_mark: vec![false; cluster_count],
            occupancy: None,
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

    /// Number of clusters currently marked dirty.
    #[inline]
    pub fn dirty_len(&self) -> usize {
        self.dirty.len()
    }

    /// Publish this index's per-cluster emptiness into `occupancy` as
    /// shard `shard`: from here on `insert`/`remove` keep the map in
    /// sync incrementally. Attached while the index is still empty.
    pub(crate) fn attach_occupancy(
        &mut self,
        occupancy: std::sync::Arc<crate::sharded::ShardOccupancy>,
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

    /// Insert (or improve) the entry for `entry.ride` in `cluster`'s
    /// list. If the ride is already listed, the entry with the smaller
    /// estimated detour wins (ties: earlier ETA).
    pub fn insert(&mut self, cluster: ClusterId, entry: PotentialRide) {
        let list = &mut self.lists[cluster.index()];
        let was_empty = list.by_ride.is_empty();
        if let Some(&old_eta) = list.by_ride.get(&entry.ride) {
            let old = list.by_eta[&(old_eta, entry.ride)];
            let better = entry.detour_m < old.detour_m
                || (entry.detour_m == old.detour_m && entry.eta_s < old.eta_s);
            if !better {
                return;
            }
            list.by_eta.remove(&(old_eta, entry.ride));
            self.entries -= 1;
        }
        list.by_ride.insert(entry.ride, OrdF64(entry.eta_s));
        list.by_eta.insert((OrdF64(entry.eta_s), entry.ride), entry);
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
        let list = &mut self.lists[cluster.index()];
        let eta = list.by_ride.remove(&ride)?;
        let removed = list.by_eta.remove(&(eta, ride));
        debug_assert!(removed.is_some(), "dual lists out of sync");
        self.entries -= 1;
        if list.by_ride.is_empty() {
            if let Some((occ, shard)) = &self.occupancy {
                occ.clear(cluster.index(), *shard);
            }
        }
        self.mark_dirty(cluster);
        removed
    }

    /// The entry for `ride` in `cluster`, if present (the id-sorted
    /// list's constant-time lookup).
    pub fn get(&self, cluster: ClusterId, ride: RideId) -> Option<&PotentialRide> {
        let list = &self.lists[cluster.index()];
        let eta = list.by_ride.get(&ride)?;
        list.by_eta.get(&(*eta, ride))
    }

    /// Rides whose ETA in `cluster` lies in `[from_s, to_s]`, in ETA
    /// order — the logarithmic range query of search Step 1.
    pub fn range_eta(
        &self,
        cluster: ClusterId,
        from_s: f64,
        to_s: f64,
    ) -> impl Iterator<Item = &PotentialRide> {
        let lo = (OrdF64(from_s), RideId(0));
        let hi = (OrdF64(to_s), RideId(u64::MAX));
        self.lists[cluster.index()].by_eta.range(lo..=hi).map(|(_, v)| v)
    }

    /// All entries of `cluster` in ETA order.
    pub fn entries_of(&self, cluster: ClusterId) -> impl Iterator<Item = &PotentialRide> {
        self.lists[cluster.index()].by_eta.values()
    }

    /// Number of rides listed in `cluster`.
    pub fn cluster_len(&self, cluster: ClusterId) -> usize {
        self.lists[cluster.index()].by_ride.len()
    }

    /// Approximate heap bytes (index-size accounting, Figure 3c).
    pub fn heap_bytes(&self) -> usize {
        // BTreeMap nodes amortize to roughly key+value+overhead per
        // entry; HashMap to key+value over its load factor.
        let per_btree_entry = std::mem::size_of::<((OrdF64, RideId), PotentialRide)>() + 16;
        let per_hash_entry =
            (std::mem::size_of::<(RideId, OrdF64)>() as f64 / 0.85) as usize + 8;
        self.lists.capacity() * std::mem::size_of::<ClusterList>()
            + self.entries * (per_btree_entry + per_hash_entry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(ride: u64, eta: f64, detour: f64) -> PotentialRide {
        PotentialRide {
            ride: RideId(ride),
            eta_s: eta,
            detour_m: detour,
            seg: 0,
            via_pass: ClusterId(0),
            pass_route_idx: 0,
        }
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
        for (r, t) in [(1u64, 50.0), (2, 100.0), (3, 150.0), (4, 200.0)] {
            idx.insert(ClusterId(0), entry(r, t, 0.0));
        }
        let got: Vec<u64> = idx.range_eta(ClusterId(0), 100.0, 200.0).map(|e| e.ride.0).collect();
        assert_eq!(got, vec![2, 3, 4]);
        let empty: Vec<_> = idx.range_eta(ClusterId(0), 300.0, 400.0).collect();
        assert!(empty.is_empty());
    }

    #[test]
    fn equal_etas_are_kept_per_ride() {
        let mut idx = ClusterIndex::new(1);
        idx.insert(ClusterId(0), entry(1, 100.0, 0.0));
        idx.insert(ClusterId(0), entry(2, 100.0, 0.0));
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
    fn remove_keeps_lists_in_sync() {
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
    }

    #[test]
    fn negative_and_zero_etas_order_correctly() {
        let mut idx = ClusterIndex::new(1);
        idx.insert(ClusterId(0), entry(1, -50.0, 0.0));
        idx.insert(ClusterId(0), entry(2, 0.0, 0.0));
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
        assert_eq!(idx.dirty_len(), 0);
        // Post-drain mutations mark afresh; duplicates collapse.
        idx.remove(ClusterId(1), RideId(1));
        idx.remove(ClusterId(1), RideId(2));
        assert!(idx.remove(ClusterId(2), RideId(9)).is_none(), "miss leaves no dirt");
        assert_eq!(idx.drain_dirty(), vec![1]);
    }

    #[test]
    fn heap_bytes_scales_with_entries() {
        let mut idx = ClusterIndex::new(4);
        let empty = idx.heap_bytes();
        for r in 0..100 {
            idx.insert(ClusterId((r % 4) as u32), entry(r, r as f64, 0.0));
        }
        assert!(idx.heap_bytes() > empty);
    }
}
