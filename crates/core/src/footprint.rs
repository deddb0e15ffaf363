//! A ride's *footprint*: the distinct clusters it is listed in, each
//! with the one entry that wins there.
//!
//! A ride reaches the same cluster from many of its pass-through
//! clusters (on the benchmark day ~450 `(pass, reachable)` pairs for 68
//! distinct clusters). Create, book and track offer every pair to a
//! [`Footprint`] — a slot per cluster id, live only while its stamp
//! equals the current generation (like `xar_roadnet`'s routing scratch),
//! so starting one is a counter increment — then touch the index once
//! per distinct cluster. One thread-local instance serves every write
//! of a thread; the reachable scan's buffers ride along in it.

use std::cell::RefCell;

use xar_discretize::ClusterId;

use crate::index::PotentialRide;

/// This thread's reusable write-path buffers.
#[derive(Default)]
pub(crate) struct Footprint {
    /// Per cluster `(stamp, position in entries)`, live only while the
    /// stamp equals `generation`.
    cell: Vec<(u32, u32)>,
    generation: u32,
    /// The distinct clusters offered so far, in first-offered order,
    /// each with its current winner.
    entries: Vec<(ClusterId, PotentialRide)>,
    /// `index_ride`: the distance column of a segment's end cluster,
    /// copied out once per segment.
    pub(crate) column: Vec<f32>,
    /// `index_ride`: the clusters within the detour budget of one
    /// pass-through cluster, before the triangle test.
    pub(crate) candidates: Vec<u32>,
    /// `index_ride`: one pass-through cluster's reachable set while it
    /// is being collected.
    pub(crate) reach: Vec<(ClusterId, f64, f64)>,
}

thread_local! {
    static FOOTPRINT: RefCell<Footprint> = RefCell::default();
}

/// Run `f` on this thread's footprint, emptied for a region of
/// `clusters` clusters. Writes do not nest, so the borrow never does.
pub(crate) fn with<R>(clusters: usize, f: impl FnOnce(&mut Footprint) -> R) -> R {
    FOOTPRINT.with(|fp| {
        let fp = &mut *fp.borrow_mut();
        fp.begin(clusters);
        f(fp)
    })
}

impl Footprint {
    /// Forget every cluster. Touches memory only for a region larger
    /// than any seen on this thread, or when the generation wraps (then
    /// stamps of the previous cycle must not read as live again).
    fn begin(&mut self, clusters: usize) {
        if self.cell.len() < clusters {
            self.cell.resize(clusters, (0, 0));
        }
        if self.generation == u32::MAX {
            self.cell.fill((0, 0));
            self.generation = 0;
        }
        self.generation += 1;
        self.entries.clear();
    }

    /// Whether this is the first visit of `c`. For callers that only
    /// need the distinct clusters (de-indexing); not to be mixed with
    /// [`Self::offer`] between two `begin`s.
    #[inline]
    pub(crate) fn first_visit(&mut self, c: ClusterId) -> bool {
        let cell = &mut self.cell[c.index()];
        let first = cell.0 != self.generation;
        cell.0 = self.generation;
        first
    }

    /// Offer `entry` for cluster `c`: the first offer is kept, a later
    /// one replaces it only when `displaces(later, kept)`.
    #[inline]
    pub(crate) fn offer(
        &mut self,
        c: ClusterId,
        entry: PotentialRide,
        displaces: impl FnOnce(&PotentialRide, &PotentialRide) -> bool,
    ) {
        let cell = &mut self.cell[c.index()];
        if cell.0 == self.generation {
            let kept = &mut self.entries[cell.1 as usize].1;
            if displaces(&entry, kept) {
                *kept = entry;
            }
        } else {
            *cell = (self.generation, self.entries.len() as u32);
            self.entries.push((c, entry));
        }
    }

    /// The winner offered for `c`, if any was.
    #[inline]
    pub(crate) fn get(&self, c: ClusterId) -> Option<PotentialRide> {
        let (stamp, at) = self.cell[c.index()];
        (stamp == self.generation).then(|| self.entries[at as usize].1)
    }

    /// Every distinct cluster offered, in first-offered order, with its
    /// winner.
    #[inline]
    pub(crate) fn entries(&self) -> &[(ClusterId, PotentialRide)] {
        &self.entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ride::RideId;

    fn entry(eta: f64, detour: f64) -> PotentialRide {
        PotentialRide {
            ride: RideId(1),
            eta_s: eta,
            detour_m: detour,
            budget_m: 0.0,
            seg: 0,
            pass_route_idx: 0,
        }
    }

    #[test]
    fn keeps_the_first_offer_unless_displaced_and_forgets_on_begin() {
        with(4, |fp| {
            fp.offer(ClusterId(2), entry(10.0, 5.0), PotentialRide::better_than);
            fp.offer(ClusterId(0), entry(20.0, 0.0), PotentialRide::better_than);
            fp.offer(ClusterId(2), entry(30.0, 5.0), PotentialRide::better_than); // tie on detour, later: stays
            fp.offer(ClusterId(2), entry(5.0, 5.0), PotentialRide::better_than); // earlier ETA wins the tie
            fp.offer(ClusterId(0), entry(1.0, 0.0), |new, kept| {
                new.detour_m < kept.detour_m
            }); // strict: stays
            let got: Vec<_> = fp.entries().iter().map(|&(c, e)| (c.0, e.eta_s)).collect();
            assert_eq!(got, vec![(2, 5.0), (0, 20.0)]);
            assert_eq!(fp.get(ClusterId(2)).unwrap().eta_s, 5.0);
            assert!(fp.get(ClusterId(1)).is_none());
        });
        with(4, |fp| {
            assert!(fp.entries().is_empty());
            assert!(fp.get(ClusterId(2)).is_none());
            assert!(fp.first_visit(ClusterId(3)));
            assert!(!fp.first_visit(ClusterId(3)));
        });
    }

    #[test]
    fn generation_wrap_clears_stale_stamps() {
        with(2, |fp| {
            fp.offer(ClusterId(1), entry(1.0, 0.0), PotentialRide::better_than);
            // A stamp from generation 1 of this cycle must not read as
            // live in generation 1 of the next.
            fp.cell[1].0 = 1;
            fp.generation = u32::MAX;
            fp.begin(2);
            assert_eq!(fp.generation, 1);
            assert!(fp.get(ClusterId(1)).is_none());
            assert!(fp.first_visit(ClusterId(1)));
        });
    }
}
