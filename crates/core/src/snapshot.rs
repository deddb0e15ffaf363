//! Published snapshots of a shard's searchable state.
//!
//! A [`ShardSnapshot`] is an immutable, point-in-time view of what
//! search reads from one shard: the per-cluster potential-rides lists,
//! whose rows carry each ride's remaining detour budget, so there is no
//! per-ride table beside them. The sharded engine keeps each
//! shard's current one in an `Arc` ([`crate::sharded`]): a reader
//! clones the `Arc` and searches the frozen view, a writer — already
//! serialized per shard by the shard write lock — builds the successor
//! and swaps it in. An old view is freed when the last clone of its
//! `Arc` drops; there is no other reclamation.
//!
//! A snapshot's per-cluster lists are the live index's own
//! row vectors, held by `Arc`: the same `(eta, ride)`-sorted 40-byte
//! rows, read by the one search in [`crate::search`]. Publishing a
//! dirty cluster is a pointer clone of the index's current list;
//! the writer's next edit of a list a snapshot still shares copies it
//! first (`Arc::make_mut` in [`crate::index`]), so a published list
//! never changes under a reader. Successive snapshots share unchanged
//! lists the same way: [`ShardSnapshot::build_incremental`] re-points
//! only the clusters whose entries changed since the previous publish,
//! which makes the write-path publish cost proportional to the
//! *touched* clusters, not the shard size (DESIGN.md §5f).

use std::sync::Arc;

use xar_discretize::ClusterId;

use crate::engine::XarEngine;
use crate::index::{PotentialRide, Segment};
use crate::search::IndexView;

/// An immutable, point-in-time copy of everything search reads from one
/// shard: the per-cluster potential-rides lists, `Arc`-shared with the
/// live index.
///
/// Built either from scratch ([`ShardSnapshot::build`]) or by patching
/// the previous snapshot ([`ShardSnapshot::build_incremental`]), which
/// re-points only the segments of dirty clusters and structurally
/// shares everything else. The two constructions are content-equal by
/// construction — a property the `incremental_publish` test pins.
pub struct ShardSnapshot {
    /// Per-cluster entry segments, stored in fixed-size `Arc`'d
    /// **blocks** of [`SEG_BLOCK`] slots: cloning the snapshot costs
    /// one `Arc` bump per *block* (⌈clusters / 64⌉), not one per
    /// cluster, and an incremental publish copies only the blocks a
    /// dirty cluster lands in. `None` means the cluster currently
    /// holds no entries (most clusters, most of the time — an empty
    /// segment costs neither an allocation nor an `Arc` bump).
    clusters: Vec<Arc<SegBlock>>,
    /// Clusters covered (the last block may be partially filled).
    cluster_count: usize,
    /// Total `⟨ride, eta⟩` entries across all segments.
    entries: usize,
}

/// Block size of the segment directory: large enough that the
/// per-block `Arc` overhead vanishes, small enough that copying the
/// block a dirty cluster lands in stays far below copying the whole
/// directory. Publishing with k dirty clusters touches at most k
/// blocks (fewer when the dirty set is spatially coherent, which
/// detour-bounded bookings are).
const SEG_BLOCK: usize = 64;

/// One directory block: up to [`SEG_BLOCK`] per-cluster segment slots.
type SegBlock = Vec<Option<Arc<Segment>>>;

impl ShardSnapshot {
    /// A snapshot with `cluster_count` clusters and no rides (the state
    /// of a freshly created shard).
    pub fn empty(cluster_count: usize) -> Self {
        Self {
            clusters: (0..cluster_count.div_ceil(SEG_BLOCK))
                .map(|b| Arc::new(vec![None; SEG_BLOCK.min(cluster_count - b * SEG_BLOCK)]))
                .collect(),
            cluster_count,
            entries: 0,
        }
    }

    /// Freeze `engine`'s searchable state from scratch: a walk over the
    /// index that clones every list pointer. Called by shard writers
    /// while holding the shard write lock, so the view is consistent.
    pub fn build(engine: &XarEngine) -> Self {
        let index = engine.index();
        let clusters = index.cluster_count();
        let block = |first: usize| {
            let ids = first..(first + SEG_BLOCK).min(clusters);
            Arc::new(ids.map(|c| index.segment(ClusterId(c as u32)).cloned()).collect())
        };
        Self {
            clusters: (0..clusters).step_by(SEG_BLOCK).map(block).collect(),
            cluster_count: clusters,
            entries: index.len(),
        }
    }

    /// Patch `prev` into `engine`'s current state: re-point only the
    /// segments of `dirty` clusters at the index's current lists and
    /// clone every clean segment by pointer. The caller must hold the
    /// shard write lock and pass the exact dirt accumulated since `prev`
    /// was built; allocation count is then O(dirty blocks), not
    /// O(clusters), and independent of both the shard's ride count and
    /// the rows per cluster.
    pub fn build_incremental(engine: &XarEngine, prev: &ShardSnapshot, dirty: &[u32]) -> Self {
        let index = engine.index();
        debug_assert_eq!(prev.cluster_count, index.cluster_count());
        let mut snap = Self {
            // One Arc bump per *block*, not per cluster.
            clusters: prev.clusters.clone(),
            cluster_count: prev.cluster_count,
            entries: index.len(),
        };
        for &c in dirty {
            let (b, i) = (c as usize / SEG_BLOCK, c as usize % SEG_BLOCK);
            // The first dirty cluster in a still-shared block copies
            // that block's slots; later dirty clusters in the same
            // block mutate the copy in place.
            Arc::make_mut(&mut snap.clusters[b])[i] = index.segment(ClusterId(c)).cloned();
        }
        snap
    }

    /// Whether `self` and `other` carry identical logical content —
    /// every cluster's rows. The oracle behind the `incremental publish
    /// ≡ full rebuild` property test (`f64` fields compare by value;
    /// none hold NaN).
    pub fn content_eq(&self, other: &Self) -> bool {
        self.entries == other.entries
            && self.cluster_count == other.cluster_count
            && (0..self.cluster_count as u32).all(|c| self.rows(ClusterId(c)) == other.rows(ClusterId(c)))
    }

    /// Number of `⟨ride, eta⟩` index entries in the snapshot.
    #[inline]
    pub fn entry_count(&self) -> usize {
        self.entries
    }

    /// Heap bytes held by the snapshot (index-size accounting). Lists
    /// shared with the live index or other snapshots are counted in
    /// full here — the number answers "what does this view keep alive",
    /// not "what is uniquely owned".
    pub fn heap_bytes(&self) -> usize {
        let lists = self.clusters.iter().flat_map(|block| block.iter().flatten());
        self.own_heap_bytes() + lists.map(|seg| seg.heap_bytes()).sum::<usize>()
    }

    /// Heap bytes of the directory alone — what the published snapshot
    /// of a shard adds to the shard's live index, whose lists it shares.
    pub(crate) fn own_heap_bytes(&self) -> usize {
        self.clusters.capacity() * std::mem::size_of::<Arc<SegBlock>>()
            + self
                .clusters
                .iter()
                .map(|block| block.capacity() * std::mem::size_of::<Option<Arc<Segment>>>())
                .sum::<usize>()
    }
}

impl IndexView for ShardSnapshot {
    #[inline]
    fn rows(&self, cluster: ClusterId) -> &[PotentialRide] {
        let c = cluster.index();
        self.clusters[c / SEG_BLOCK][c % SEG_BLOCK].as_ref().map_or(&[], |s| s.rows())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_snapshots_are_content_equal_and_sized() {
        let a = ShardSnapshot::empty(3);
        let b = ShardSnapshot::empty(3);
        assert!(a.content_eq(&b));
        assert!(!a.content_eq(&ShardSnapshot::empty(4)), "cluster counts must match");
        assert_eq!(a.entry_count(), 0);
    }
}
