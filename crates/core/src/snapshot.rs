//! Lock-free published snapshots of a shard's searchable state.
//!
//! The sharded engine's searches used to take each shard's `RwLock` in
//! read mode, which serializes readers against writers (and, under the
//! std `RwLock`, against each other's cache-line traffic): the engine
//! scaling bench showed search p99 exploding ~186× from 1 to 8 threads.
//! This module removes the read-side lock entirely:
//!
//! * Writers (create / book / track) — already serialized per shard by
//!   the shard write lock — build an immutable [`ShardSnapshot`] of the
//!   shard's cluster index and ride feasibility state and *publish* it
//!   with a single atomic pointer swap into a [`SnapshotCell`].
//! * Readers [`pin`] the global epoch [`ReadGuard`], load the snapshot
//!   pointer once per shard, and search a frozen, point-in-time view.
//!   No lock, no retry loop, no writer can block them.
//! * Retired snapshots are reclaimed with a hand-rolled epoch scheme
//!   (crates.io is unreachable, so no `crossbeam-epoch`/`arc-swap`):
//!   each reader announces the global epoch in a cache-padded slot
//!   while pinned; a writer tags the snapshot it unlinked with the
//!   post-publication epoch and frees it only once every announced
//!   epoch has passed that tag.
//!
//! # Why no reader can observe a freed snapshot
//!
//! All epoch/slot/pointer operations use `SeqCst`, so they embed in a
//! single total order `S`. Label the reader's pin sequence
//! `R1: load epoch → e`, `R2: store slot ← e`, `R3: load ptr`, and the
//! writer's publish sequence `W1: ptr.swap(new)`,
//! `W2: tag = epoch.fetch_add(1) + 1`, `W3: scan slots`. The writer
//! frees a retired snapshot (tag `T`) only when the scan observes every
//! slot as unclaimed/idle or announcing an epoch `≥ T`. Three cases for
//! a reader that is still running at scan time:
//!
//! 1. **Scan saw the slot idle/unclaimed** — the reader's `R2` came
//!    after `W3` in `S`, hence after `W1`; its `R3` follows and loads
//!    the *new* pointer. It never held the retired one.
//! 2. **Scan saw an announcement `≥ T`** — `R1` read an epoch `≥ T`,
//!    which `W2` (or a later advance) produced, so `R1` is after `W2`
//!    in `S`, hence `R3` is after `W1`: again the new pointer.
//! 3. **Scan saw an announcement `< T`** — the reader may hold the
//!    retired snapshot; the writer defers the free (the snapshot stays
//!    on the retired list until a later publish re-scans).
//!
//! The unpin store (slot ← idle) is also `SeqCst`, so every read the
//! guard performed is ordered before any writer scan that observes the
//! slot idle — the free cannot race ahead of in-flight loads. Finally,
//! [`SnapshotCell::load`] borrows the cell (`&'a self`), so dropping a
//! cell (which frees the current and all retired snapshots eagerly) is
//! only possible once no reference derived from it exists — enforced at
//! compile time, no epoch argument needed.
//!
//! A snapshot's per-cluster lists are the live index's own
//! row vectors, held by `Arc`: the same `(eta, ride)`-sorted 32-byte
//! rows, read by the one search in [`crate::search`]. Publishing a
//! dirty cluster is a pointer clone of the index's current list;
//! the writer's next edit of a list a snapshot still shares copies it
//! first (`Arc::make_mut` in [`crate::index`]), so a published list
//! never changes under a reader. Successive snapshots share unchanged
//! lists the same way: [`ShardSnapshot::build_incremental`] re-points
//! only the clusters whose entries changed since the previous publish,
//! which makes the write-path publish cost proportional to the
//! *touched* clusters, not the shard size (DESIGN.md §5f).

use std::cell::Cell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicPtr, AtomicU64, Ordering::SeqCst};
use std::sync::{Arc, Mutex};

use xar_discretize::ClusterId;

use crate::engine::{RideDirt, XarEngine};
use crate::index::{ClusterIndex, PotentialRide, Segment};
use crate::ride::RideId;
use crate::search::IndexView;

/// Slot value: unclaimed, available for any thread to take.
const SLOT_FREE: u64 = u64::MAX;
/// Slot value: owned by a thread that is not currently pinned.
const SLOT_IDLE: u64 = u64::MAX - 1;
/// Number of reader slots. Readers beyond this many *concurrent
/// threads* spin-wait for a slot; threads release their slot on exit.
const SLOT_COUNT: usize = 64;

/// One reader-announcement slot, padded to its own cache line pair so
/// concurrent readers on different cores never false-share.
#[repr(align(128))]
struct Slot(AtomicU64);

/// The process-wide epoch domain: the global epoch counter and the
/// reader announcement slots. Shared by every [`SnapshotCell`] — the
/// reclamation condition is conservative across cells, which costs at
/// most a briefly longer retired list, never a use-after-free.
struct EpochDomain {
    epoch: AtomicU64,
    slots: [Slot; SLOT_COUNT],
}

static DOMAIN: EpochDomain = EpochDomain {
    // Start at 1 so a tag of 0 can never be confused with "no tag".
    epoch: AtomicU64::new(1),
    slots: [const { Slot(AtomicU64::new(SLOT_FREE)) }; SLOT_COUNT],
};

impl EpochDomain {
    /// The smallest epoch announced by any pinned reader, or `u64::MAX`
    /// when no reader is pinned. A retired snapshot tagged `T` is free
    /// to drop once `min_active() >= T`.
    fn min_active(&self) -> u64 {
        let mut min = u64::MAX;
        for s in &self.slots {
            let v = s.0.load(SeqCst);
            if v < SLOT_IDLE && v < min {
                min = v;
            }
        }
        min
    }
}

/// The state of one reader announcement slot, for introspection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotState {
    /// Unclaimed.
    Free,
    /// Claimed by a thread that is not currently pinned.
    Idle,
    /// Pinned at the contained epoch.
    Pinned(u64),
}

/// A point-in-time view of the process-wide epoch domain — the
/// `/debug/epoch` payload. Built by [`epoch_debug`].
#[derive(Debug, Clone)]
pub struct EpochDebug {
    /// The current global epoch.
    pub epoch: u64,
    /// Every claimed slot, as `(slot index, state)`; free slots are
    /// omitted (the domain has 64 in total).
    pub slots: Vec<(usize, SlotState)>,
    /// Number of slots currently pinned.
    pub pinned: usize,
    /// The smallest pinned epoch, if any reader is pinned.
    pub min_active: Option<u64>,
    /// Number of pinned readers announcing an epoch strictly older than
    /// the current one — each is delaying reclamation of anything
    /// retired since it pinned. Persistently non-zero with a growing
    /// retire backlog means a reader is stuck (a reclamation stall).
    pub stalled: usize,
}

impl EpochDebug {
    /// Render as a JSON document (the `/debug/epoch` body).
    pub fn to_json(&self) -> String {
        let mut w = xar_obs::json::JsonWriter::new();
        w.begin_object();
        w.key("epoch");
        w.number_u64(self.epoch);
        w.key("pinned");
        w.number_u64(self.pinned as u64);
        w.key("min_active");
        match self.min_active {
            Some(v) => w.number_u64(v),
            None => w.null(),
        }
        w.key("stalled");
        w.number_u64(self.stalled as u64);
        w.key("slots");
        w.begin_array();
        for &(idx, state) in &self.slots {
            w.begin_object();
            w.key("slot");
            w.number_u64(idx as u64);
            w.key("state");
            match state {
                SlotState::Free => w.string("free"),
                SlotState::Idle => w.string("idle"),
                SlotState::Pinned(e) => {
                    w.string("pinned");
                    w.key("epoch");
                    w.number_u64(e);
                }
            }
            w.end_object();
        }
        w.end_array();
        w.end_object();
        w.finish()
    }
}

/// Snapshot the epoch domain: current epoch, claimed slots and their
/// announced epochs, and how many pinned readers lag the epoch. Reads
/// are individually `SeqCst` but the scan as a whole is unsynchronized
/// — values may be mutually torn, which is fine for introspection.
pub fn epoch_debug() -> EpochDebug {
    let epoch = DOMAIN.epoch.load(SeqCst);
    let mut slots = Vec::new();
    let mut pinned = 0;
    let mut min_active = u64::MAX;
    let mut stalled = 0;
    for (idx, s) in DOMAIN.slots.iter().enumerate() {
        let v = s.0.load(SeqCst);
        let state = match v {
            SLOT_FREE => continue,
            SLOT_IDLE => SlotState::Idle,
            e => {
                pinned += 1;
                min_active = min_active.min(e);
                if e < epoch {
                    stalled += 1;
                }
                SlotState::Pinned(e)
            }
        };
        slots.push((idx, state));
    }
    EpochDebug {
        epoch,
        slots,
        pinned,
        min_active: (min_active != u64::MAX).then_some(min_active),
        stalled,
    }
}

/// A thread's claim on one announcement slot, released (set back to
/// [`SLOT_FREE`]) when the thread exits.
struct ThreadSlot {
    idx: usize,
    /// Pin nesting depth: only the outermost [`pin`] announces, only
    /// the outermost drop goes back to idle.
    depth: Cell<u32>,
}

impl ThreadSlot {
    fn claim() -> Self {
        loop {
            for (idx, s) in DOMAIN.slots.iter().enumerate() {
                if s.0.compare_exchange(SLOT_FREE, SLOT_IDLE, SeqCst, SeqCst).is_ok() {
                    return Self { idx, depth: Cell::new(0) };
                }
            }
            // More than SLOT_COUNT live reader threads: wait for one to
            // exit. The engine's thread pools are far below this bound.
            std::thread::yield_now();
        }
    }
}

impl Drop for ThreadSlot {
    fn drop(&mut self) {
        DOMAIN.slots[self.idx].0.store(SLOT_FREE, SeqCst);
    }
}

thread_local! {
    static THREAD_SLOT: ThreadSlot = ThreadSlot::claim();
}

/// Proof that the current thread has announced itself to the epoch
/// domain: [`SnapshotCell::load`] requires one, and the reference it
/// returns cannot outlive it. Not `Send` — the announcement is bound
/// to this thread's slot.
///
/// ```
/// use xar_core::{snapshot, ShardSnapshot, SnapshotCell};
/// let cell = SnapshotCell::new(ShardSnapshot::empty(4));
/// let guard = snapshot::pin();
/// let snap = cell.load(&guard);
/// assert_eq!(snap.ride_count(), 0);
/// ```
pub struct ReadGuard {
    slot: usize,
    _not_send: PhantomData<*const ()>,
}

/// Announce this thread as an active reader and return the guard that
/// keeps the announcement alive. Cheap (two `SeqCst` atomics on the
/// outermost pin, a counter bump when nested) and allocation-free after
/// the thread's first call.
pub fn pin() -> ReadGuard {
    let slot = THREAD_SLOT.with(|s| {
        let depth = s.depth.get();
        if depth == 0 {
            let e = DOMAIN.epoch.load(SeqCst);
            DOMAIN.slots[s.idx].0.store(e, SeqCst);
        }
        s.depth.set(depth + 1);
        s.idx
    });
    ReadGuard { slot, _not_send: PhantomData }
}

impl Drop for ReadGuard {
    fn drop(&mut self) {
        // `try_with`: thread-local teardown order is unspecified; if the
        // slot is already gone the thread is exiting and the slot's own
        // Drop has (or will have) freed it.
        let slot = self.slot;
        let _ = THREAD_SLOT.try_with(|s| {
            debug_assert_eq!(s.idx, slot);
            let depth = s.depth.get() - 1;
            s.depth.set(depth);
            if depth == 0 {
                DOMAIN.slots[s.idx].0.store(SLOT_IDLE, SeqCst);
            }
        });
    }
}

/// What one [`SnapshotCell::publish`] did, for the observability layer.
#[derive(Debug, Clone, Copy)]
pub struct PublishOutcome {
    /// Retired snapshots actually freed by this publish (the previous
    /// current snapshot is always *retired*; it is *freed* only once no
    /// reader can hold it).
    pub freed: usize,
    /// Retired snapshots still waiting for readers to move past them.
    pub backlog: usize,
}

/// An atomically publishable snapshot pointer with epoch-based
/// reclamation of retired snapshots.
///
/// Writers call [`SnapshotCell::publish`] (serialized externally — in
/// the engine, by the shard write lock — though concurrent publishes
/// are memory-safe too); readers call [`SnapshotCell::load`] under a
/// [`pin`] guard and never block.
pub struct SnapshotCell {
    ptr: AtomicPtr<ShardSnapshot>,
    /// Unlinked-but-possibly-still-read snapshots, each tagged with the
    /// epoch after whose passing it is unreachable.
    retired: Mutex<Vec<(u64, *mut ShardSnapshot)>>,
}

// Raw pointers make these !Send/!Sync by default; the cell owns the
// snapshots exclusively (readers only borrow under the epoch protocol).
unsafe impl Send for SnapshotCell {}
unsafe impl Sync for SnapshotCell {}

impl SnapshotCell {
    /// Create a cell currently publishing `snapshot`.
    pub fn new(snapshot: ShardSnapshot) -> Self {
        Self {
            ptr: AtomicPtr::new(Box::into_raw(Box::new(snapshot))),
            retired: Mutex::new(Vec::new()),
        }
    }

    /// The currently published snapshot. Requires a [`pin`] guard; the
    /// returned reference lives no longer than the guard *or* the cell,
    /// which is exactly what makes reclamation sound (see the module
    /// docs).
    #[inline]
    pub fn load<'a>(&'a self, _guard: &'a ReadGuard) -> &'a ShardSnapshot {
        // Safety: the pointer is always a live Box::into_raw product;
        // publish() never frees a snapshot while any pinned reader may
        // still hold it (module-level argument), and Drop requires
        // exclusive access to the cell.
        unsafe { &*self.ptr.load(SeqCst) }
    }

    /// Retired snapshots currently awaiting reclamation (the
    /// `/debug/shards` backlog column). Takes the retired-list lock.
    pub fn retired_len(&self) -> usize {
        self.retired.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// Atomically replace the published snapshot, retire the previous
    /// one, and opportunistically free retired snapshots no reader can
    /// still observe.
    pub fn publish(&self, snapshot: ShardSnapshot) -> PublishOutcome {
        let mut tspan = xar_obs::trace::span("epoch.retire_scan");
        let new = Box::into_raw(Box::new(snapshot));
        let old = self.ptr.swap(new, SeqCst);
        // Tag with the *post*-advance epoch: any reader announcing an
        // epoch >= tag pinned after the swap and thus sees `new`.
        let tag = DOMAIN.epoch.fetch_add(1, SeqCst) + 1;
        let mut retired = self.retired.lock().unwrap_or_else(|e| e.into_inner());
        retired.push((tag, old));
        let before = retired.len();
        let min_active = DOMAIN.min_active();
        retired.retain(|&(t, p)| {
            if t <= min_active {
                // Safety: every pinned reader announced an epoch >= t,
                // so (case 2 of the module argument) it loaded the
                // successor pointer; unpinned readers' accesses are
                // ordered before our SeqCst scan.
                drop(unsafe { Box::from_raw(p) });
                false
            } else {
                true
            }
        });
        let outcome = PublishOutcome { freed: before - retired.len(), backlog: retired.len() };
        tspan.attr("freed", outcome.freed);
        tspan.attr("backlog", outcome.backlog);
        outcome
    }
}

impl Drop for SnapshotCell {
    fn drop(&mut self) {
        // `&mut self`: no outstanding `load` borrows can exist, so the
        // current and all retired snapshots are unreachable.
        drop(unsafe { Box::from_raw(*self.ptr.get_mut()) });
        let retired = self.retired.get_mut().unwrap_or_else(|e| e.into_inner());
        for &(_, p) in retired.iter() {
            drop(unsafe { Box::from_raw(p) });
        }
        retired.clear();
    }
}

/// The per-ride feasibility columns, sorted by ride id for binary
/// search. `Arc`-shared with the previous snapshot when a publish
/// changed no ride's seats / budget / liveness (tracking-only
/// publishes).
struct RideTable {
    ids: Vec<RideId>,
    seats: Vec<u8>,
    budget_m: Vec<f64>,
}

impl RideTable {
    fn build(engine: &XarEngine) -> Self {
        let mut rides: Vec<_> =
            engine.rides().map(|r| (r.id, r.seats_available, r.detour_remaining_m())).collect();
        rides.sort_unstable_by_key(|&(id, _, _)| id);
        let mut t = Self {
            ids: Vec::with_capacity(rides.len()),
            seats: Vec::with_capacity(rides.len()),
            budget_m: Vec::with_capacity(rides.len()),
        };
        for (id, seats, budget) in rides {
            t.ids.push(id);
            t.seats.push(seats);
            t.budget_m.push(budget);
        }
        t
    }

    /// Copy `prev` and overwrite the seats / budget rows of `updated`
    /// rides with the engine's current values. Valid only when the ride
    /// *set* is unchanged since `prev` was built — [`RideDirt`] tracking
    /// guarantees any create / retire escalates to `Structural` before
    /// this path is taken, so every updated id resolves in both the
    /// previous table and the live engine. Three column memcpys plus a
    /// binary search per updated ride: allocation count and lookup work
    /// are independent of the shard's ride count.
    fn patch(prev: &RideTable, engine: &XarEngine, updated: &[RideId]) -> Self {
        let mut t = Self {
            ids: prev.ids.clone(),
            seats: prev.seats.clone(),
            budget_m: prev.budget_m.clone(),
        };
        for &id in updated {
            let i = t
                .ids
                .binary_search(&id)
                .expect("updated ride missing from previous snapshot despite non-structural dirt");
            let r = engine
                .ride(id)
                .expect("updated ride missing from engine despite non-structural dirt");
            t.seats[i] = r.seats_available;
            t.budget_m[i] = r.detour_remaining_m();
        }
        t
    }

    fn heap_bytes(&self) -> usize {
        self.ids.capacity() * std::mem::size_of::<RideId>()
            + self.seats.capacity()
            + self.budget_m.capacity() * std::mem::size_of::<f64>()
    }
}

/// An immutable, point-in-time copy of everything search reads from one
/// shard: the per-cluster potential-rides lists, `Arc`-shared with the
/// live index, plus the per-ride feasibility table (free seats,
/// remaining detour budget).
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
    /// Ride feasibility table, sorted by ride id for binary search.
    rides: Arc<RideTable>,
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
            rides: Arc::new(RideTable { ids: Vec::new(), seats: Vec::new(), budget_m: Vec::new() }),
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
            rides: Arc::new(RideTable::build(engine)),
            entries: index.len(),
        }
    }

    /// Patch `prev` into `engine`'s current state: re-point only the
    /// segments of `dirty` clusters at the index's current lists, clone
    /// every clean segment by pointer, and produce the ride table the
    /// cheapest valid way `ride_dirt` allows — `Arc`-share it
    /// (tracking-only publish), patch the updated rows in place
    /// (bookings), or rebuild it from scratch (create / retire changed
    /// the ride set). The caller must hold the shard write lock and
    /// pass the exact dirt accumulated since `prev` was built;
    /// allocation count is then O(dirty blocks), not O(clusters), and
    /// independent of both the shard's ride count and the rows per
    /// cluster.
    pub fn build_incremental(
        engine: &XarEngine,
        prev: &ShardSnapshot,
        dirty: &[u32],
        ride_dirt: &RideDirt,
    ) -> Self {
        let index = engine.index();
        debug_assert_eq!(prev.cluster_count, index.cluster_count());
        let mut snap = Self {
            // One Arc bump per *block*, not per cluster.
            clusters: prev.clusters.clone(),
            cluster_count: prev.cluster_count,
            rides: match ride_dirt {
                RideDirt::Clean => Arc::clone(&prev.rides),
                RideDirt::Updated(ids) => Arc::new(RideTable::patch(&prev.rides, engine, ids)),
                RideDirt::Structural => Arc::new(RideTable::build(engine)),
            },
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
    /// every cluster's rows and the full ride table. The oracle behind
    /// the `incremental publish ≡ full rebuild` property test (`f64`
    /// fields compare by value; none hold NaN).
    pub fn content_eq(&self, other: &Self) -> bool {
        self.entries == other.entries
            && self.cluster_count == other.cluster_count
            && self.rides.ids == other.rides.ids
            && self.rides.seats == other.rides.seats
            && self.rides.budget_m == other.rides.budget_m
            && (0..self.cluster_count as u32).all(|c| self.rows(ClusterId(c)) == other.rows(ClusterId(c)))
    }

    /// Number of `⟨ride, eta⟩` index entries in the snapshot.
    #[inline]
    pub fn entry_count(&self) -> usize {
        self.entries
    }

    /// Number of clusters the snapshot covers.
    #[inline]
    pub fn cluster_count(&self) -> usize {
        self.cluster_count
    }

    /// Number of rides in the feasibility table.
    #[inline]
    pub fn ride_count(&self) -> usize {
        self.rides.ids.len()
    }

    /// Heap bytes held by the snapshot (index-size accounting). Lists
    /// shared with the live index or other snapshots are counted in
    /// full here — the number answers "what does this view keep alive",
    /// not "what is uniquely owned".
    pub fn heap_bytes(&self) -> usize {
        self.heap_bytes_beyond(None)
    }

    /// Heap bytes this snapshot keeps alive *beyond* what `index`
    /// holds: its directory and ride table, plus every list the index
    /// does not point at (pointer identity). Right after a publish that
    /// is the directory and the table alone.
    pub(crate) fn heap_bytes_beyond(&self, index: Option<&ClusterIndex>) -> usize {
        let live = |c: usize| index.and_then(|i| i.segment(ClusterId(c as u32)));
        let slots = self.clusters.iter().flat_map(|block| block.iter()).enumerate();
        self.clusters.capacity() * std::mem::size_of::<Arc<SegBlock>>()
            + self
                .clusters
                .iter()
                .map(|block| block.capacity() * std::mem::size_of::<Option<Arc<Segment>>>())
                .sum::<usize>()
            + slots
                .filter_map(|(c, slot)| slot.as_ref().filter(|seg| !live(c).is_some_and(|l| Arc::ptr_eq(l, seg))))
                .map(|seg| seg.heap_bytes())
                .sum::<usize>()
            + self.rides.heap_bytes()
            + std::mem::size_of::<RideTable>()
    }
}

impl IndexView for ShardSnapshot {
    #[inline]
    fn rows(&self, cluster: ClusterId) -> &[PotentialRide] {
        let c = cluster.index();
        self.clusters[c / SEG_BLOCK][c % SEG_BLOCK].as_ref().map_or(&[], |s| s.rows())
    }

    #[inline]
    fn ride_state(&self, ride: RideId) -> Option<(u8, f64)> {
        self.rides
            .ids
            .binary_search(&ride)
            .ok()
            .map(|i| (self.rides.seats[i], self.rides.budget_m[i]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::channel;
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    #[test]
    fn pin_is_reentrant_and_slot_returns_to_idle() {
        let g1 = pin();
        let slot = g1.slot;
        let announced = DOMAIN.slots[slot].0.load(SeqCst);
        assert!(announced < SLOT_IDLE, "pinned slot must announce an epoch");
        {
            let g2 = pin();
            assert_eq!(g2.slot, slot, "nested pin reuses the slot");
            // Nested pin must not re-announce a newer epoch.
            assert_eq!(DOMAIN.slots[slot].0.load(SeqCst), announced);
        }
        assert_eq!(DOMAIN.slots[slot].0.load(SeqCst), announced, "inner unpin keeps announcement");
        drop(g1);
        assert_eq!(DOMAIN.slots[slot].0.load(SeqCst), SLOT_IDLE);
    }

    #[test]
    fn publish_defers_free_while_pinned_elsewhere() {
        let cell = Arc::new(SnapshotCell::new(ShardSnapshot::empty(1)));
        let (pinned_tx, pinned_rx) = channel();
        let (release_tx, release_rx) = channel::<()>();
        let reader_cell = Arc::clone(&cell);
        let reader = std::thread::spawn(move || {
            let guard = pin();
            let snap = reader_cell.load(&guard);
            let before = snap.entry_count();
            pinned_tx.send(()).unwrap();
            release_rx.recv().unwrap();
            // The pinned view must still be intact after publishes.
            assert_eq!(snap.entry_count(), before);
        });
        pinned_rx.recv().unwrap();
        let out1 = cell.publish(ShardSnapshot::empty(2));
        assert!(out1.backlog >= 1, "old snapshot must stay retired while the reader pins");
        release_tx.send(()).unwrap();
        reader.join().unwrap();
        // With the reader gone, a publish reclaims everything — once its
        // scan meets no pin at all. The epoch domain is process-global
        // and the other unit tests of this binary pin it for the length
        // of a search, so publish until one scan finds it clear; a pin
        // leaked by *this* reader would never clear.
        let deadline = Instant::now() + Duration::from_secs(30);
        let mut freed = 0;
        loop {
            let out = cell.publish(ShardSnapshot::empty(3));
            freed += out.freed;
            if out.backlog == 0 {
                break;
            }
            assert!(Instant::now() < deadline, "unpinned readers must not block reclamation");
            std::thread::yield_now();
        }
        assert!(freed >= 2, "the pinned-over snapshot and its successor are both freed");
        assert_eq!(cell.retired_len(), 0);
    }

    #[test]
    fn load_tracks_latest_publish() {
        let cell = SnapshotCell::new(ShardSnapshot::empty(1));
        let guard = pin();
        assert_eq!(cell.load(&guard).cluster_count(), 1);
        cell.publish(ShardSnapshot::empty(7));
        assert_eq!(cell.load(&guard).cluster_count(), 7, "load always sees the newest snapshot");
    }

    #[test]
    fn empty_snapshots_are_content_equal_and_sized() {
        let a = ShardSnapshot::empty(3);
        let b = ShardSnapshot::empty(3);
        assert!(a.content_eq(&b));
        assert!(!a.content_eq(&ShardSnapshot::empty(4)), "cluster counts must match");
        assert_eq!(a.entry_count(), 0);
        assert_eq!(a.ride_count(), 0);
    }
}
