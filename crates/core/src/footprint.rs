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
//! of a thread; the reachable scan ([`Footprint::reachable`]) and its
//! buffers ride along in it.

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
    /// [`Self::reachable`]'s output, one slot per cluster: written
    /// unconditionally, kept by advancing the count.
    reach: Vec<(ClusterId, f64, f64)>,
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

    /// The reachable clusters of pass-through cluster `pass` (§VI), in
    /// cluster-id order, as `(cluster, estimated detour m, ETA s)`:
    /// every cluster `c ≠ pass` with `d(pass, c) ≤ budget` whose triangle
    /// detour estimate `d(pass, c) + d(c, v) − d(pass, v)` (or the
    /// out-and-back `2·d(pass, c)` where a distance to `v` is unknown)
    /// is within `budget` too. `row` is `d(pass, ·)`, [`Self::column`]
    /// holds `d(·, v)` for the segment's end cluster `v`, `d_pv` is
    /// `d(pass, v)` and `eta_s` the ride's ETA at `pass`.
    ///
    /// The budget test runs as one comparison pass over the row against
    /// the budget rounded down to `f32`, which for an `f32` distance `d`
    /// is exactly `f64::from(d) <= budget`. It yields a bit mask per 64
    /// clusters, and only the set bits — the few clusters inside the
    /// budget — take the triangle test.
    pub(crate) fn reachable(
        &mut self,
        row: &[f32],
        pass: usize,
        d_pv: f64,
        budget: f64,
        eta_s: f64,
        speed_mps: f64,
    ) -> &[(ClusterId, f64, f64)] {
        let bf = f32_at_most(budget);
        if self.reach.len() < row.len() {
            self.reach.resize(row.len(), (ClusterId(0), 0.0, 0.0));
        }
        let mut n = 0;
        for (base, chunk) in (0..).step_by(64).zip(row.chunks(64)) {
            let mut mask = mask_within(chunk, bf);
            while mask != 0 {
                let c = base + mask.trailing_zeros() as usize;
                mask &= mask - 1;
                let (d_pc, d_cv) = (f64::from(row[c]), f64::from(self.column[c]));
                let detour_est = if d_cv.is_finite() && d_pv.is_finite() {
                    (d_pc + d_cv - d_pv).max(0.0)
                } else {
                    2.0 * d_pc // conservative out-and-back bound
                };
                self.reach[n] = (ClusterId(c as u32), detour_est, eta_s + d_pc / speed_mps);
                n += usize::from((detour_est <= budget) & (c != pass));
            }
        }
        &self.reach[..n]
    }
}

/// The largest `f32` at most `x` (`NaN` for `NaN`), so that for every
/// `f32` `d`, `d <= f32_at_most(x)` exactly when `f64::from(d) <= x`.
fn f32_at_most(x: f64) -> f32 {
    let r = x as f32; // nearest, so at most one step above `x`
    if r.is_nan() || f64::from(r) <= x {
        r
    } else if r == 0.0 {
        -f32::from_bits(1)
    } else if r > 0.0 {
        f32::from_bits(r.to_bits() - 1)
    } else {
        f32::from_bits(r.to_bits() + 1)
    }
}

/// Bit `j` set iff `chunk[j] <= bf`, for a chunk of at most 64: one
/// byte per comparison, then eight bytes at a time packed into eight
/// bits by a multiply (bit `k` of the product's top byte is byte `k`).
#[inline]
fn mask_within(chunk: &[f32], bf: f32) -> u64 {
    let mut within = [0u8; 64];
    for (b, &d) in within.iter_mut().zip(chunk) {
        *b = u8::from(d <= bf);
    }
    within
        .chunks_exact(8)
        .enumerate()
        .fold(0, |mask, (k, eight)| {
            let bytes = u64::from_le_bytes(eight.try_into().expect("eight bytes"));
            mask | (bytes.wrapping_mul(0x0102_0408_1020_4080) >> 56) << (8 * k)
        })
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

    /// The scan `Footprint::reachable` replaced: one `f64` budget test
    /// per cluster, then the triangle test on the survivors.
    fn scalar_reachable(
        row: &[f32],
        column: &[f32],
        pass: usize,
        d_pv: f64,
        budget: f64,
        eta_s: f64,
        speed_mps: f64,
    ) -> Vec<(ClusterId, f64, f64)> {
        let mut out = Vec::new();
        for (c, (&d_pc, &d_cv)) in row.iter().zip(column).enumerate() {
            let (d_pc, d_cv) = (f64::from(d_pc), f64::from(d_cv));
            if d_pc > budget {
                continue;
            }
            let detour_est = if d_cv.is_finite() && d_pv.is_finite() {
                (d_pc + d_cv - d_pv).max(0.0)
            } else {
                2.0 * d_pc
            };
            if detour_est > budget || c == pass {
                continue;
            }
            out.push((ClusterId(c as u32), detour_est, eta_s + d_pc / speed_mps));
        }
        out
    }

    #[test]
    fn masked_scan_equals_the_scalar_scan() {
        // splitmix64: seeded rows and columns.
        let mut state = 0x5eed_u64;
        let mut next = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let mut dist = || match next() % 16 {
            0 => f32::INFINITY,
            // A distance no f32 rounding hides: not a short decimal.
            _ => (next() % 8_000_000) as f32 / 1_000.0 + 0.000_123,
        };
        let lens = [1usize, 63, 64, 65, 150, 829];
        for (case, &len) in lens.iter().enumerate() {
            let pass = case * 37 % len;
            let mut row: Vec<f32> = (0..len).map(|_| dist()).collect();
            row[pass] = 0.0;
            let column: Vec<f32> = (0..len).map(|_| dist()).collect();
            let probe = f64::from(row[len / 2]);
            let budgets = [
                0.0,
                2_000.0,
                probe,
                probe + 1e-9, // rounds to probe in f32: must stay in
                probe - 1e-9, // rounds to probe in f32: must drop out
                f64::from(f32::MAX) * 2.0,
                f64::INFINITY,
                -1.0,
            ];
            for d_pv in [f64::from(column[pass]), 1_500.0, f64::INFINITY] {
                for budget in budgets {
                    with(len, |fp| {
                        fp.column.clear();
                        fp.column.extend_from_slice(&column);
                        let got = fp.reachable(&row, pass, d_pv, budget, 60.0, 8.0).to_vec();
                        let want = scalar_reachable(&row, &column, pass, d_pv, budget, 60.0, 8.0);
                        assert_eq!(got, want, "len {len}, budget {budget}, d_pv {d_pv}");
                    });
                }
            }
        }
    }

    #[test]
    fn f32_at_most_rounds_down() {
        for x in [
            0.0,
            -0.0,
            1e-50,
            -1e-50,
            0.1,
            -0.1,
            1_234.567_891,
            3.0e38,
            4.0e38,
            -4.0e38,
        ] {
            let r = f32_at_most(x);
            assert!(f64::from(r) <= x, "{x}: {r}");
            let up = if r == 0.0 {
                f32::from_bits(1)
            } else if r > 0.0 {
                f32::from_bits(r.to_bits() + 1)
            } else {
                f32::from_bits(r.to_bits() - 1)
            };
            assert!(f64::from(up) > x, "{x}: {r} is not the largest");
        }
        assert_eq!(f32_at_most(f64::INFINITY), f32::INFINITY);
        assert_eq!(f32_at_most(f64::NEG_INFINITY), f32::NEG_INFINITY);
        assert!(f32_at_most(f64::NAN).is_nan());
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
