//! Reusable per-thread search state for the label-setting traversals.
//!
//! A query that settles a few hundred nodes should not pay for
//! allocating and filling `node_count()`-sized arrays first. Every
//! traversal that returns less than a full distance vector — the
//! [`crate::Router`]'s point-to-point search and the bounded /
//! multi-target searches of [`crate::ShortestPaths`] — therefore runs
//! on one thread-local [`Scratch`]: a slot per node whose contents
//! count only when its `stamp` equals the current generation, so
//! starting a query is one counter increment instead of an O(|V|)
//! fill, plus a [`RadixHeap`] that keeps its high-water capacity.
//!
//! **The radix heap.** Every key these traversals push is a
//! [`HeapEntry`]: `cost.to_bits() << 32 | node`, 96 significant bits
//! whose integer order is the `(cost, node)` order. The heap keeps a
//! *floor*, the key of the last entry it took from above, and files an
//! entry in bucket `b` = the position of the highest bit in which its
//! key differs from the floor (bucket 0: equal to it). Every key in
//! bucket `b ≥ 1` exceeds the floor and is below every key of bucket
//! `b + 1`. A pop takes from bucket 0 while it holds anything; when it
//! is empty, the lowest occupied bucket's least key becomes the floor,
//! and the bucket's entries are re-filed against it — each into a lower
//! bucket, so an entry moves at most 96 times over its life, and a push
//! or a pop is a `xor`, a leading-zero count and a `Vec` push or pop.
//!
//! *Monotone pushes pop in exact key order.* If no key pushed is below
//! the floor, bucket 0 holds only copies of the floor, the floor is
//! always the least key in the heap, and the heap pops exactly the
//! sequence a `BinaryHeap<HeapEntry>` pops — ties by node id included.
//! Dijkstra's pushes are monotone: a push `fl(c + w)` after a pop at
//! `c` is never below `c`, and only an edge that adds nothing to `c`
//! (zero length) can land below the floor, on the floor's cost with a
//! lower node id. So wherever every edge adds to a label,
//! `bounded_from` and `to_targets` pop exactly the sequence they popped
//! from a binary heap.
//!
//! *Below the floor.* A key below the floor is filed in bucket 0; it
//! is popped before the floor can rise, in last-in-first-out order
//! with the other entries of bucket 0. A Dijkstra that pushes one (a
//! zero-length edge) loses nothing: all of bucket 0 then has the
//! floor's cost, and equal-cost labels are final in any order. The
//! router's A* pushes them all the time — its bound is admissible but
//! not consistent — and `router.rs` proves that it may still stop at
//! the target's first pop.

use std::cell::RefCell;
use std::cmp::Ordering;

/// Min-heap entry of every label-setting traversal: a cost and a node,
/// ordered by cost, then node id (for determinism), as one integer key
/// `cost.to_bits() << 32 | node`.
///
/// Every cost a traversal pushes is a sum of non-negative lengths and
/// bounds: never negative, never `-0.0`, never NaN. For such values
/// the IEEE-754 bit pattern, read as an unsigned integer, orders
/// exactly as the value does, with `+inf` last. So one `u128` compare
/// gives the same total order as `(cost.total_cmp, node)`, ties by node
/// id included, and the traversals pop the same sequence as with a
/// float compare. The [`RadixHeap`] files entries by the same integer;
/// `ShortestPaths::path`, the textbook oracle, keeps a `BinaryHeap` of
/// them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeapEntry {
    key: u128,
}

impl HeapEntry {
    /// The entry for `node` at `cost`.
    ///
    /// `cost` must be non-negative and not NaN (`+0.0` and `+inf` are
    /// fine); debug builds assert it.
    #[inline]
    pub fn new(cost: f64, node: u32) -> Self {
        debug_assert!(
            cost.is_sign_positive() && !cost.is_nan(),
            "heap cost {cost} must be +0.0, positive or +inf"
        );
        Self {
            key: (u128::from(cost.to_bits()) << 32) | u128::from(node),
        }
    }

    /// The cost the entry was pushed with.
    #[inline]
    pub fn cost(self) -> f64 {
        f64::from_bits((self.key >> 32) as u64)
    }

    /// The node the entry was pushed for.
    #[inline]
    pub fn node(self) -> u32 {
        self.key as u32
    }
}

impl Ord for HeapEntry {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse ordering: BinaryHeap is a max-heap.
        other.key.cmp(&self.key)
    }
}
impl PartialOrd for HeapEntry {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Significant bits of a [`HeapEntry`] key: 64 of cost, 32 of node.
const KEY_BITS: usize = 96;

/// A monotone min-heap of [`HeapEntry`] keyed by their integer keys
/// (the module docs give the layout and the order it pops in).
///
/// ```
/// use xar_roadnet::{HeapEntry, RadixHeap};
///
/// let mut heap = RadixHeap::new();
/// heap.push(HeapEntry::new(5.0, 1));
/// heap.push(HeapEntry::new(2.0, 7));
/// assert_eq!(heap.pop(), Some(HeapEntry::new(2.0, 7)));
/// assert_eq!(heap.floor(), 2.0);
/// // Below the floor: popped before anything else, the floor unmoved.
/// heap.push(HeapEntry::new(1.0, 3));
/// assert_eq!(heap.pop(), Some(HeapEntry::new(1.0, 3)));
/// assert_eq!(heap.floor(), 2.0);
/// assert_eq!(heap.pop(), Some(HeapEntry::new(5.0, 1)));
/// assert_eq!(heap.pop(), None);
/// ```
#[derive(Debug)]
pub struct RadixHeap {
    /// Bucket `b` holds the entries whose key differs from `floor`
    /// first in bit `b − 1`; bucket 0 the floor's copies and every entry
    /// pushed below it.
    buckets: [Vec<HeapEntry>; KEY_BITS + 1],
    /// Bit `b` is set exactly when bucket `b` is non-empty.
    occupied: u128,
    /// Key of the last entry taken from above bucket 0 (0 when none).
    floor: u128,
}

impl Default for RadixHeap {
    fn default() -> Self {
        Self::new()
    }
}

impl RadixHeap {
    /// An empty heap with floor 0. Allocates nothing until a push.
    pub const fn new() -> Self {
        Self {
            buckets: [const { Vec::new() }; KEY_BITS + 1],
            occupied: 0,
            floor: 0,
        }
    }

    /// The bucket of `key` against the floor `floor ≤ key`.
    #[inline]
    fn bucket(key: u128, floor: u128) -> usize {
        (u128::BITS - (key ^ floor).leading_zeros()) as usize
    }

    /// Add `entry`. A key below the floor goes to bucket 0.
    #[inline]
    pub fn push(&mut self, entry: HeapEntry) {
        let b = if entry.key < self.floor {
            0
        } else {
            Self::bucket(entry.key, self.floor)
        };
        self.buckets[b].push(entry);
        self.occupied |= 1 << b;
    }

    /// Remove the next entry: the last one pushed into bucket 0 while it
    /// holds any, else the least key in the heap, which becomes the new
    /// floor. `None` when the heap is empty.
    #[inline]
    pub fn pop(&mut self) -> Option<HeapEntry> {
        if self.occupied & 1 != 0 {
            let entry = self.buckets[0].pop();
            if self.buckets[0].is_empty() {
                self.occupied &= !1;
            }
            return entry;
        }
        if self.occupied == 0 {
            return None;
        }
        Some(self.raise_floor())
    }

    /// Bucket 0 is empty: take the least key of the lowest occupied
    /// bucket out as the new floor, and re-file the rest of that bucket
    /// against it, each into a lower bucket.
    fn raise_floor(&mut self) -> HeapEntry {
        let b = self.occupied.trailing_zeros() as usize;
        let mut bucket = std::mem::take(&mut self.buckets[b]);
        self.occupied &= !(1 << b);
        let (at, _) = bucket
            .iter()
            .enumerate()
            .min_by_key(|(_, e)| e.key)
            .expect("occupied");
        let least = bucket.swap_remove(at);
        self.floor = least.key;
        for entry in bucket.drain(..) {
            let to = Self::bucket(entry.key, self.floor);
            self.buckets[to].push(entry);
            self.occupied |= 1 << to;
        }
        // Hand the emptied vector back, so its capacity is kept.
        self.buckets[b] = bucket;
        least
    }

    /// The cost of the floor: every entry above bucket 0 costs at
    /// least this much.
    #[inline]
    pub fn floor(&self) -> f64 {
        f64::from_bits((self.floor >> 32) as u64)
    }

    /// Remove every entry and lower the floor to 0, keeping every
    /// bucket's capacity.
    pub fn clear(&mut self) {
        while self.occupied != 0 {
            let b = self.occupied.trailing_zeros() as usize;
            self.buckets[b].clear();
            self.occupied &= !(1 << b);
        }
        self.floor = 0;
    }
}

/// The mark of a node that carries none (and of every unreached node).
pub(crate) const NO_MARK: u32 = u32::MAX;

/// This thread's reusable buffers. `dist[v]`, `mark[v]` and `bound[v]`
/// are live only while `stamp[v]` equals `generation`. They are
/// separate arrays so that a failed relaxation — the common case in a
/// near-full traversal such as the landmark-metric build — reads 12
/// bytes per node, as a plain `dist` array would, not a whole record;
/// only the router's A* reads `bound`.
struct Scratch {
    dist: Vec<f64>,
    mark: Vec<u32>,
    bound: Vec<f64>,
    stamp: Vec<u32>,
    generation: u32,
    heap: RadixHeap,
}

impl Scratch {
    const fn new() -> Self {
        Self {
            dist: Vec::new(),
            mark: Vec::new(),
            bound: Vec::new(),
            stamp: Vec::new(),
            generation: 0,
            heap: RadixHeap::new(),
        }
    }

    /// Start a query over a graph of `n` nodes: every label reads as
    /// unreached and the heap is empty, with floor 0. Touches memory
    /// only when the graph is larger than any seen before on this
    /// thread, or when the 32-bit generation wraps (then stamps left by
    /// generation 1, 2, … of the previous cycle must not read as live
    /// again).
    fn begin(&mut self, n: usize) -> (Labels<'_>, &mut RadixHeap) {
        if self.stamp.len() < n {
            self.dist.resize(n, f64::INFINITY);
            self.mark.resize(n, NO_MARK);
            self.bound.resize(n, 0.0);
            self.stamp.resize(n, 0);
        }
        if self.generation == u32::MAX {
            self.stamp.fill(0);
            self.generation = 0;
        }
        self.generation += 1;
        self.heap.clear();
        let labels = Labels {
            dist: &mut self.dist[..n],
            mark: &mut self.mark[..n],
            bound: &mut self.bound[..n],
            stamp: &mut self.stamp[..n],
            generation: self.generation,
        };
        (labels, &mut self.heap)
    }
}

/// The per-node labels of one query: a view of the scratch arrays cut
/// to the graph's size. Held by value in the traversal, so the slice
/// pointers stay in registers across heap operations, as the local
/// vectors of a plain Dijkstra do.
pub(crate) struct Labels<'s> {
    dist: &'s mut [f64],
    /// Predecessor on the best known path, or — in the multi-target
    /// search, which reconstructs nothing — the wanted-target mark.
    mark: &'s mut [u32],
    /// The A* lower bound of a labelled node, computed once per query.
    bound: &'s mut [f64],
    stamp: &'s mut [u32],
    generation: u32,
}

impl Labels<'_> {
    /// Best known cost of `node` (`INFINITY` when unreached).
    #[inline]
    pub(crate) fn dist(&self, node: usize) -> f64 {
        if self.stamp[node] == self.generation {
            self.dist[node]
        } else {
            f64::INFINITY
        }
    }

    /// The mark of `node` ([`NO_MARK`] when it was never labelled in
    /// this query).
    #[inline]
    pub(crate) fn mark(&self, node: usize) -> u32 {
        if self.stamp[node] == self.generation {
            self.mark[node]
        } else {
            NO_MARK
        }
    }

    /// Label `node` with cost `dist` and mark `mark`.
    #[inline]
    pub(crate) fn set(&mut self, node: usize, dist: f64, mark: u32) {
        self.dist[node] = dist;
        self.mark[node] = mark;
        self.stamp[node] = self.generation;
    }

    /// The lower bound cached for `node` by [`Self::relax_bounded`].
    /// Meaningful only for a node labelled that way in this query.
    #[inline]
    pub(crate) fn bound(&self, node: usize) -> f64 {
        debug_assert_eq!(
            self.stamp[node], self.generation,
            "node {node} is unlabelled"
        );
        self.bound[node]
    }

    /// Relax `node` to cost `dist` with predecessor `mark`. If that
    /// beats the best known cost, labels the node and returns its lower
    /// bound: computed by `h` when the node is first labelled in this
    /// query, read back from the cache on every later relabel, so every
    /// key pushed for the node uses the same value.
    #[inline]
    pub(crate) fn relax_bounded(
        &mut self,
        node: usize,
        dist: f64,
        mark: u32,
        h: impl FnOnce() -> f64,
    ) -> Option<f64> {
        if dist >= self.dist(node) {
            return None;
        }
        if self.stamp[node] != self.generation {
            self.bound[node] = h();
        }
        self.set(node, dist, mark);
        Some(self.bound[node])
    }

    /// Relax `node` to cost `dist`, keeping its mark: stores `dist` and
    /// returns `true` if it beats the best known cost.
    #[inline]
    pub(crate) fn lower(&mut self, node: usize, dist: f64) -> bool {
        if self.stamp[node] != self.generation {
            self.set(node, dist, NO_MARK);
            true
        } else if dist < self.dist[node] {
            self.dist[node] = dist;
            true
        } else {
            false
        }
    }
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = const { RefCell::new(Scratch::new()) };
}

/// Run `query` on this thread's scratch — fresh labels for a graph of
/// `n` nodes and an empty heap with floor 0. Traversals never nest, so
/// the `RefCell` borrow cannot fail.
pub(crate) fn with_scratch<R>(n: usize, query: impl FnOnce(Labels<'_>, &mut RadixHeap) -> R) -> R {
    SCRATCH.with(|s| {
        let mut s = s.borrow_mut();
        let (labels, heap) = s.begin(n);
        query(labels, heap)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    #[test]
    fn new_generation_forgets_every_label() {
        let mut s = Scratch::new();
        let (mut labels, _) = s.begin(4);
        labels.set(2, 7.0, 1);
        assert_eq!((labels.dist(2), labels.mark(2)), (7.0, 1));
        assert_eq!((labels.dist(3), labels.mark(3)), (f64::INFINITY, NO_MARK));
        let (labels, _) = s.begin(4);
        assert_eq!((labels.dist(2), labels.mark(2)), (f64::INFINITY, NO_MARK));
    }

    #[test]
    fn lower_keeps_the_mark_and_only_improves() {
        let mut s = Scratch::new();
        let (mut labels, _) = s.begin(2);
        labels.set(0, f64::INFINITY, 1);
        assert!(labels.lower(0, 9.0));
        assert!(!labels.lower(0, 9.0));
        assert!(labels.lower(0, 4.0));
        assert_eq!((labels.dist(0), labels.mark(0)), (4.0, 1));
        assert!(labels.lower(1, 2.0));
        assert_eq!((labels.dist(1), labels.mark(1)), (2.0, NO_MARK));
    }

    #[test]
    fn generation_wraps_to_one_and_resets_stamps() {
        let mut s = Scratch::new();
        // A label left by generation 1 of the previous cycle …
        let (mut labels, _) = s.begin(3);
        labels.set(0, 5.0, 9);
        assert_eq!(s.generation, 1);
        // … must not come back to life when the counter wraps to 1.
        s.generation = u32::MAX - 1;
        let (mut labels, _) = s.begin(3);
        labels.set(1, 6.0, 8);
        assert_eq!(s.generation, u32::MAX);
        let (mut labels, _) = s.begin(3);
        for node in 0..3 {
            assert_eq!(
                (labels.dist(node), labels.mark(node)),
                (f64::INFINITY, NO_MARK)
            );
        }
        labels.set(2, 1.0, 0);
        assert_eq!(labels.dist(2), 1.0);
        assert_eq!(s.generation, 1);
    }

    #[test]
    fn integer_key_orders_as_total_cmp_then_node() {
        let costs = [
            0.0,
            f64::from_bits(1), // smallest subnormal
            1.0,
            f64::from_bits(1.0f64.to_bits() + 1), // 1.0.next_up()
            1e300,
            f64::MAX,
            f64::INFINITY,
        ];
        let nodes = [0, 1, u32::MAX];
        let entries: Vec<(f64, u32)> = costs
            .iter()
            .flat_map(|&c| nodes.iter().map(move |&n| (c, n)))
            .collect();
        for &(ca, na) in &entries {
            let a = HeapEntry::new(ca, na);
            assert_eq!((a.cost().to_bits(), a.node()), (ca.to_bits(), na));
            for &(cb, nb) in &entries {
                let float = cb.total_cmp(&ca).then_with(|| nb.cmp(&na));
                assert_eq!(
                    a.cmp(&HeapEntry::new(cb, nb)),
                    float,
                    "({ca}, {na}) vs ({cb}, {nb})"
                );
            }
        }
    }

    /// Pop everything left in `heap`.
    fn drain(heap: &mut RadixHeap) -> Vec<(f64, u32)> {
        std::iter::from_fn(|| heap.pop().map(|e| (e.cost(), e.node()))).collect()
    }

    #[test]
    fn monotone_pushes_pop_in_cost_then_node_order() {
        let costs = [0.0, f64::from_bits(1), 1.0, 1.0, 2.5, 1e300, f64::INFINITY];
        let mut want: Vec<(f64, u32)> = costs
            .iter()
            .flat_map(|&c| [(c, 9), (c, 0), (c, u32::MAX), (c, 4)])
            .collect();
        let mut heap = RadixHeap::new();
        // Pushed in reverse order, all at or above the floor of 0.
        for &(c, n) in want.iter().rev() {
            heap.push(HeapEntry::new(c, n));
        }
        want.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        assert_eq!(drain(&mut heap), want);
        assert_eq!(heap.floor(), f64::INFINITY);

        // Interleaved: each push is at or above the last pop, ties on
        // the floor's cost with a higher node id included.
        heap.clear();
        heap.push(HeapEntry::new(3.0, 5));
        heap.push(HeapEntry::new(1.0, 2));
        assert_eq!(heap.pop(), Some(HeapEntry::new(1.0, 2)));
        heap.push(HeapEntry::new(1.0, 3));
        heap.push(HeapEntry::new(2.0, 1));
        heap.push(HeapEntry::new(3.0, 4));
        assert_eq!(drain(&mut heap), [(1.0, 3), (2.0, 1), (3.0, 4), (3.0, 5)]);
    }

    #[test]
    fn a_push_below_the_floor_is_popped_before_the_floor_rises() {
        let mut heap = RadixHeap::new();
        heap.push(HeapEntry::new(5.0, 1));
        heap.push(HeapEntry::new(2.0, 7));
        heap.push(HeapEntry::new(9.0, 0));
        assert_eq!(heap.pop(), Some(HeapEntry::new(2.0, 7)));
        assert_eq!(heap.floor(), 2.0);
        // Below the floor: a lower cost, and the floor's cost with a
        // lower node id. They pop last in, first out.
        heap.push(HeapEntry::new(1.0, 3));
        heap.push(HeapEntry::new(2.0, 6));
        heap.push(HeapEntry::new(0.0, 8));
        for want in [(0.0, 8), (2.0, 6), (1.0, 3)] {
            assert_eq!(heap.pop(), Some(HeapEntry::new(want.0, want.1)));
            assert_eq!(heap.floor(), 2.0);
        }
        assert_eq!(heap.pop(), Some(HeapEntry::new(5.0, 1)));
        assert_eq!(heap.floor(), 5.0);
        assert_eq!(heap.pop(), Some(HeapEntry::new(9.0, 0)));
        assert_eq!(heap.pop(), None);
        heap.clear();
        assert_eq!(heap.floor(), 0.0);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "heap cost")]
    fn negative_zero_cost_is_rejected() {
        let _ = HeapEntry::new(-0.0, 0);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "heap cost")]
    fn negative_cost_is_rejected() {
        let _ = HeapEntry::new(-1.0, 0);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "heap cost")]
    fn nan_cost_is_rejected() {
        let _ = HeapEntry::new(f64::NAN, 0);
    }

    #[test]
    fn relax_bounded_computes_the_bound_once_per_query() {
        let mut s = Scratch::new();
        let calls = Cell::new(0);
        let h = || {
            calls.set(calls.get() + 1);
            5.0
        };
        let (mut labels, _) = s.begin(2);
        assert_eq!(labels.relax_bounded(1, 9.0, 0, h), Some(5.0));
        assert_eq!(labels.relax_bounded(1, 9.0, 0, h), None);
        assert_eq!(labels.relax_bounded(1, 4.0, 0, h), Some(5.0));
        assert_eq!(
            (labels.dist(1), labels.bound(1), calls.get()),
            (4.0, 5.0, 1)
        );
        let (mut labels, _) = s.begin(2);
        assert_eq!(labels.relax_bounded(1, 9.0, 0, h), Some(5.0));
        assert_eq!(calls.get(), 2);
    }

    #[test]
    fn grows_for_a_larger_graph_without_reviving_labels() {
        let mut s = Scratch::new();
        let (mut labels, _) = s.begin(2);
        labels.set(1, 3.0, 0);
        let (labels, _) = s.begin(5);
        for node in 0..5 {
            assert_eq!(labels.dist(node), f64::INFINITY);
        }
    }
}
