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
//! fill, plus a heap that keeps its high-water capacity.

use std::cell::RefCell;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

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
/// float compare.
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
    heap: BinaryHeap<HeapEntry>,
}

impl Scratch {
    const fn new() -> Self {
        Self {
            dist: Vec::new(),
            mark: Vec::new(),
            bound: Vec::new(),
            stamp: Vec::new(),
            generation: 0,
            heap: BinaryHeap::new(),
        }
    }

    /// Start a query over a graph of `n` nodes: every label reads as
    /// unreached and the heap is empty. Touches memory only when the
    /// graph is larger than any seen before on this thread, or when the
    /// 32-bit generation wraps (then stamps left by generation 1, 2, …
    /// of the previous cycle must not read as live again).
    fn begin(&mut self, n: usize) -> (Labels<'_>, &mut BinaryHeap<HeapEntry>) {
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
/// `n` nodes and an empty heap. Traversals never nest, so the `RefCell`
/// borrow cannot fail.
pub(crate) fn with_scratch<R>(
    n: usize,
    query: impl FnOnce(Labels<'_>, &mut BinaryHeap<HeapEntry>) -> R,
) -> R {
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
