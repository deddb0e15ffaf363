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
//! 40-byte rows per cluster, sorted by `(eta, ride)`. The ETA-sorted
//! list's job — the departure-window range query of search Step 1 — is
//! two binary searches on it. The id-sorted list had two
//! jobs: membership for the `R1 ∩ R2` intersection, which search does
//! in one pass per side over a per-thread `ride → candidate` table
//! emptied by bumping a generation stamp, with no sort
//! (`search::SearchRun::collect_matches`), and locating a ride's entry
//! to delete it, which is a linear scan of the rows' ride field — 3
//! rows on average per shard list on the benchmark day (p99 20), 47 on
//! the serial engine at twice NYC density (p99 470), where it still
//! beats the `BTreeMap` + `HashMap` pair it replaced (DESIGN.md §5f,
//! "One layout": measurements, stated limit).
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

/// The in-memory index: one potential-rides list per cluster, each
/// sorted by `(eta, ride)`.
#[derive(Debug)]
pub struct ClusterIndex {
    /// Empty, and holding no buffer, while a cluster lists no ride
    /// (most clusters of a shard, most of the time).
    lists: Vec<Vec<PotentialRide>>,
    entries: usize,
    /// `insert` + `remove` calls so far: lets the engine's unit test
    /// assert one call per distinct cluster a write touches.
    #[cfg(test)]
    pub(crate) edit_calls: usize,
}

impl ClusterIndex {
    /// Create an index over `cluster_count` clusters.
    pub fn new(cluster_count: usize) -> Self {
        Self {
            lists: (0..cluster_count).map(|_| Vec::new()).collect(),
            entries: 0,
            #[cfg(test)]
            edit_calls: 0,
        }
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

    /// `cluster`'s rows in `(eta, ride)` order.
    #[inline]
    pub(crate) fn rows(&self, cluster: ClusterId) -> &[PotentialRide] {
        &self.lists[cluster.index()]
    }

    /// Insert the entry for `entry.ride`, which `cluster` must not list
    /// yet: every write removes a ride's rows before it lists them anew
    /// (creation lists a ride no list holds), and its footprint already
    /// picked one winner per cluster. Debug builds assert it.
    pub fn insert(&mut self, cluster: ClusterId, entry: PotentialRide) {
        #[cfg(test)]
        {
            self.edit_calls += 1;
        }
        let rows = &mut self.lists[cluster.index()];
        debug_assert!(
            rows.iter().all(|r| r.ride != entry.ride),
            "{:?} is already listed in {cluster:?}",
            entry.ride
        );
        let at = rows.partition_point(|r| {
            r.eta_s
                .total_cmp(&entry.eta_s)
                .then(r.ride.cmp(&entry.ride))
                .is_lt()
        });
        rows.insert(at, entry);
        self.entries += 1;
    }

    /// Remove `ride` from `cluster`'s list. Returns the removed entry.
    pub fn remove(&mut self, cluster: ClusterId, ride: RideId) -> Option<PotentialRide> {
        #[cfg(test)]
        {
            self.edit_calls += 1;
        }
        let rows = &mut self.lists[cluster.index()];
        let i = rows.iter().position(|r| r.ride == ride)?;
        let removed = rows.remove(i);
        self.entries -= 1;
        if rows.len() * 4 < rows.capacity() {
            // Give back what a past peak left behind (amortised O(1):
            // the list must halve again before the next shrink); an
            // emptied list frees its buffer.
            rows.shrink_to(rows.len() * 2);
        }
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

    /// Exact heap bytes (index-size accounting, Figure 3c): the list
    /// directory and every list's row buffer at its capacity.
    pub fn heap_bytes(&self) -> usize {
        self.lists.capacity() * std::mem::size_of::<Vec<PotentialRide>>()
            + self
                .lists
                .iter()
                .map(|l| l.capacity() * ROW_BYTES)
                .sum::<usize>()
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
            budget_m: 0.0,
            seg: 0,
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
        for (r, t) in [(4u64, 200.0), (1, 50.0), (3, 150.0), (2, 100.0), (5, 100.0)] {
            idx.insert(ClusterId(0), entry(r, t, 0.0));
        }
        let got = |from, to| {
            idx.range_eta(ClusterId(0), from, to)
                .map(|e| e.ride.0)
                .collect::<Vec<_>>()
        };
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
        let got: Vec<u64> = idx
            .range_eta(ClusterId(0), 100.0, 100.0)
            .map(|e| e.ride.0)
            .collect();
        assert_eq!(got, vec![1, 2]);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "already listed")]
    fn inserting_a_listed_ride_again_is_a_bug() {
        let mut idx = ClusterIndex::new(1);
        idx.insert(ClusterId(0), entry(1, 100.0, 500.0));
        idx.insert(ClusterId(0), entry(1, 120.0, 200.0));
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
        assert!(
            idx.remove(ClusterId(0), RideId(1)).is_none(),
            "double remove is None"
        );
        // Emptying a list frees its buffer.
        idx.remove(ClusterId(0), RideId(2)).unwrap();
        assert_eq!(idx.lists[0].capacity(), 0);
        assert_eq!(idx.cluster_len(ClusterId(0)), 0);
    }

    #[test]
    fn negative_and_zero_etas_order_correctly() {
        let mut idx = ClusterIndex::new(1);
        idx.insert(ClusterId(0), entry(2, 0.0, 0.0));
        idx.insert(ClusterId(0), entry(1, -50.0, 0.0));
        let got: Vec<u64> = idx
            .range_eta(ClusterId(0), f64::NEG_INFINITY, 0.0)
            .map(|e| e.ride.0)
            .collect();
        assert_eq!(got, vec![1, 2]);
    }

    #[test]
    fn heap_bytes_is_capacity_exact() {
        let mut idx = ClusterIndex::new(4);
        let empty = idx.heap_bytes();
        assert_eq!(empty, 4 * 24, "one empty list header per cluster");
        for r in 0..100 {
            idx.insert(ClusterId((r % 4) as u32), entry(r, r as f64, 0.0));
        }
        let rows: usize = idx.lists.iter().map(Vec::capacity).sum();
        assert!(rows >= 100);
        assert_eq!(idx.heap_bytes(), empty + rows * 40);
    }
}
