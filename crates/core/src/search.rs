//! The optimized ride search operation (§VII) — operation O1.
//!
//! Two-step procedure, verbatim from the paper:
//!
//! * **Step 1** — identify the grid of the request's source, take its
//!   walkable clusters pruned to the rider's walking limit (linear in
//!   the sorted list), and for each such cluster run a logarithmic ETA
//!   range query on its potential-rides list. The union is `R1`.
//! * **Step 2** — the same from the destination, giving `R2`; the
//!   candidate set is `R' = R1 ∩ R2`.
//!
//! Finally, each candidate is checked for (a) combined walking at both
//! ends within the rider's limit, and (b) combined estimated detour at
//! both ends within the ride's remaining detour limit — plus pick-up
//! strictly preceding drop-off. The paper's last check, a free seat, is
//! a listing rule here: a full ride is in no list
//! (`XarEngine::index_ride`), so search never meets one. **No shortest
//! paths are computed anywhere on this path.**
//!
//! **How the two steps run here.** "Identify the grid" is
//! [`RegionIndex::snap`](xar_discretize::RegionIndex::snap), one read
//! of the grid → way-point table; the
//! walkable clusters are one read of that way-point's list; and the
//! intersection is one pass per side over a per-thread hash table keyed
//! by ride — no id-sorted list, no tuples, no sort (DESIGN.md §5f). The
//! lists are all search reads: the remaining budget of check (b) is a
//! field of every row ([`crate::index::PotentialRide::budget_m`]).

use std::cell::RefCell;

use xar_discretize::{ClusterId, LandmarkId, WalkEntry};

use crate::engine::XarEngine;
use crate::error::{Reason, XarError};
use crate::index::{eta_range, ClusterIndex, PotentialRide};
use crate::request::RideRequest;
use crate::ride::RideId;

/// Per-search rejection attribution, filled alongside candidate
/// generation: how many candidate rides each feasibility check turned
/// away, plus the search tier. A plain `Copy` stack struct so the
/// explained search path stays allocation-free (the zero-alloc
/// guarantee covers it — see `tests/snapshot_alloc`).
///
/// Each candidate ride in `R1` is classified exactly once: matched,
/// or attributed to the *deepest* check any of its (source,
/// destination) pairings reached — checks run ordering → walk →
/// detour, so e.g. `detour_rejected` means some pairing passed
/// ordering and walking and failed only on the detour budget. Rides
/// never seen on the destination side count as `unpaired`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchExplain {
    /// Search tier (1-based fan-out bucket; 0 when the search never
    /// reached candidate generation).
    pub tier: u8,
    /// `|R1|` — candidate rides on the source side.
    pub candidates: u32,
    /// Candidates whose every viable pairing failed only the
    /// detour-budget check.
    pub detour_rejected: u32,
    /// Candidates whose pairings passed ordering but exceeded the
    /// rider's combined walking limit.
    pub walk_rejected: u32,
    /// Candidates where no pairing had pick-up strictly before
    /// drop-off.
    pub ordering_rejected: u32,
    /// Candidates in `R1` that never appeared on the destination side
    /// (`R1 \ R2`).
    pub unpaired: u32,
    /// A failure that pre-empted candidate generation entirely
    /// (invalid request, unservable end-point).
    pub hard: Option<Reason>,
}

impl SearchExplain {
    /// The search tier of a source with `walkable` walkable clusters:
    /// its fan-out, the main cost driver of a search — 1 for ≤ 2
    /// clusters, 2 for 3–6, 3 for ≥ 7.
    #[inline]
    pub fn tier_of(walkable: usize) -> u8 {
        match walkable {
            0..=2 => 1,
            3..=6 => 2,
            _ => 3,
        }
    }

    /// The single [`Reason`] that best summarises this search, given
    /// how many matches it returned. Never [`Reason::Unknown`]: a
    /// matchless search with candidates has every candidate classified
    /// by exactly one counter.
    pub fn dominant_reason(&self, matches: usize) -> Reason {
        if matches > 0 {
            return Reason::Served;
        }
        if let Some(hard) = self.hard {
            return hard;
        }
        if self.candidates == 0 {
            return Reason::NoClusterCandidates;
        }
        // Largest class wins; ties break toward the scarcer resource
        // (the detour budget) so the answer is deterministic.
        let classes = [
            (self.detour_rejected, Reason::DetourBudgetExceeded),
            (self.walk_rejected, Reason::WalkLimitExceeded),
            (self.ordering_rejected, Reason::OrderingInfeasible),
            (self.unpaired, Reason::NoClusterCandidates),
        ];
        let mut best = (0u32, Reason::NoClusterCandidates);
        for (n, r) in classes {
            if n > best.0 {
                best = (n, r);
            }
        }
        best.1
    }

    /// Record that one candidate ride was rejected at pairing depth
    /// `deepest` (1 = ordering, 2 = walking, 3 = detour).
    #[inline]
    fn reject_at_depth(&mut self, deepest: u8) {
        match deepest {
            1 => self.ordering_rejected += 1,
            2 => self.walk_rejected += 1,
            _ => self.detour_rejected += 1,
        }
    }
}

/// A feasible match returned by search: everything booking needs,
/// carried forward so that booking does not repeat the search work.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RideMatch {
    /// The matched ride.
    pub ride: RideId,
    /// Cluster the rider walks to for pick-up.
    pub pickup_cluster: ClusterId,
    /// Concrete landmark within the pick-up cluster (nearest to the
    /// rider).
    pub pickup_landmark: LandmarkId,
    /// Cluster the rider is dropped off in.
    pub dropoff_cluster: ClusterId,
    /// Concrete drop-off landmark.
    pub dropoff_landmark: LandmarkId,
    /// Walking distance to the pick-up landmark, metres.
    pub walk_pickup_m: f64,
    /// Walking distance from the drop-off landmark, metres.
    pub walk_dropoff_m: f64,
    /// Estimated ride arrival at the pick-up cluster, absolute seconds.
    pub eta_pickup_s: f64,
    /// Estimated ride arrival at the drop-off cluster.
    pub eta_dropoff_s: f64,
    /// Combined estimated detour the ride incurs (pick-up + drop-off),
    /// metres.
    pub detour_est_m: f64,
    /// Ride segment the pick-up belongs to.
    pub pickup_seg: usize,
    /// Ride segment the drop-off belongs to.
    pub dropoff_seg: usize,
}

impl RideMatch {
    /// Total walking the rider incurs, metres.
    #[inline]
    pub fn walk_total_m(&self) -> f64 {
        self.walk_pickup_m + self.walk_dropoff_m
    }
}

impl XarEngine {
    /// Search for rides that can serve `req`, returning up to `limit`
    /// matches (`usize::MAX` for all), best (least combined walking)
    /// first.
    ///
    /// Errors with [`XarError::NotServable`] when either end-point has
    /// no walkable cluster within the rider's limit — "if a grid is
    /// neither in the driving distance of a landmark ... nor within the
    /// walking distance of any landmarks/cluster, then requests from it
    /// will not be served" (§IV).
    pub fn search(&self, req: &RideRequest, limit: usize) -> Result<Vec<RideMatch>, XarError> {
        let mut explain = SearchExplain::default();
        self.search_explained(req, limit, &mut explain)
    }

    /// [`XarEngine::search`], also filling `explain` with per-check
    /// rejection attribution for the event plane. `explain` is reset
    /// first; on error it carries the corresponding hard
    /// [`Reason`].
    pub fn search_explained(
        &self,
        req: &RideRequest,
        limit: usize,
        explain: &mut SearchExplain,
    ) -> Result<Vec<RideMatch>, XarError> {
        let mut out = Vec::new();
        self.search_into_explained(req, limit, &mut out, explain)?;
        Ok(out)
    }

    /// The one search: validate, resolve both end-points' walkable
    /// clusters from the region tables (no shortest path), pick the
    /// latency tier, run `SearchRun::collect_matches` over the index,
    /// then sort, truncate and record. `out` and `explain` are reset
    /// first; on error `out` stays empty and `explain` carries the hard
    /// [`Reason`]. It is [`XarEngine::search_explained`] writing into
    /// the caller's buffer: once `out` and this thread's scratch are
    /// warm, a search allocates nothing.
    pub fn search_into_explained(
        &self,
        req: &RideRequest,
        limit: usize,
        out: &mut Vec<RideMatch>,
        explain: &mut SearchExplain,
    ) -> Result<(), XarError> {
        out.clear();
        *explain = SearchExplain::default();
        if let Err(e) = req.validate() {
            explain.hard = Some(e.reason());
            return Err(e);
        }
        self.metrics.searches.inc();
        let region = self.region();
        let mut tspan = xar_obs::trace::span("search");
        let src_walkable = region.walkable_within(region.snap(&req.source), req.walk_limit_m);
        let dst_walkable = region.walkable_within(region.snap(&req.destination), req.walk_limit_m);
        if src_walkable.is_empty() || dst_walkable.is_empty() {
            explain.hard = Some(Reason::NotServable);
            return Err(XarError::NotServable);
        }
        // Unservable searches (above) carry no tier.
        explain.tier = SearchExplain::tier_of(src_walkable.len());

        // One search runs at a time per thread, so the borrow never nests.
        SCRATCH.with(|scratch| {
            SearchRun {
                src_walkable,
                dst_walkable,
                req,
                scratch: &mut scratch.borrow_mut(),
                out,
                explain,
                traced: tspan.is_recording(),
            }
            .collect_matches(self.index());
        });
        tspan.attr("candidates", u64::from(explain.candidates));

        sort_matches(out);
        out.truncate(limit);
        tspan.attr("matches", out.len());
        Ok(())
    }
}

/// "the ride that incurs least walking for the requester is matched"
/// (§X.A.2): least walking first, deterministic ties. Each ride yields
/// at most one match, so the ride-id tiebreak makes the comparator a
/// total order and `sort_unstable` (no temp allocation — the search
/// path must stay allocation-free) produces the same permutation a
/// stable sort would.
fn sort_matches(out: &mut [RideMatch]) {
    out.sort_unstable_by(|a, b| {
        a.walk_total_m()
            .total_cmp(&b.walk_total_m())
            .then(a.detour_est_m.total_cmp(&b.detour_est_m))
            .then(a.ride.cmp(&b.ride))
    });
}

/// What the one search algorithm reads from an index: the engine's
/// [`ClusterIndex`], or a hand-built list set in this module's tests.
///
/// The contract that makes results bit-identical across views: a list
/// is in **`(eta, ride)` order**, so a row's rank (walkable order × list
/// order) — which decides between equally good pairings — is the same
/// everywhere.
pub(crate) trait IndexView {
    /// `cluster`'s potential-rides list (empty when it lists no ride).
    fn rows(&self, cluster: ClusterId) -> &[PotentialRide];
}

impl IndexView for ClusterIndex {
    #[inline]
    fn rows(&self, cluster: ClusterId) -> &[PotentialRide] {
        ClusterIndex::rows(self, cluster)
    }
}

/// One source-side hit. A ride's hits are chained through `next` in
/// discovery order (walkable order × ETA order); a hit's position in
/// the scratch vector is its *source rank*.
#[derive(Debug, Clone, Copy)]
struct SrcHit {
    row: PotentialRide,
    /// Index of the walkable cluster in `src_walkable`.
    walk: u32,
    /// The ride's next hit, or [`NIL`].
    next: u32,
}

/// End of a hit chain.
const NIL: u32 = u32::MAX;

/// One ride of `R1`.
#[derive(Debug, Clone, Copy)]
struct Candidate {
    /// First and last hit of the ride's source chain.
    head: u32,
    tail: u32,
    /// Deepest check any pairing reached: 0 while no destination row
    /// has been seen (`R1 \ R2`), then 1 ordering, 2 walk, 3 detour
    /// (checks run in that order).
    deepest: u8,
    /// The best feasible pairing so far and its source rank.
    best: Option<(RideMatch, u32)>,
}

/// One `ride → candidate` slot, live while its stamp is the generation.
#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    stamp: u32,
    cand: u32,
    ride: u64,
}

/// Slots the table starts with; it doubles when half are live.
const INITIAL_SLOTS: usize = 64;

/// Reusable per-thread search state: an open-addressed, linearly probed
/// `ride → candidate` table emptied by a counter increment (the stamp
/// idiom of `xar_roadnet`'s scratch and [`crate::footprint`]), the
/// candidates and the source hits. All grow to their high-water mark on
/// a thread's first searches and are allocation-free after.
#[derive(Default)]
struct SearchScratch {
    /// Power-of-two sized, at most half live.
    slots: Vec<Slot>,
    generation: u32,
    cands: Vec<Candidate>,
    hits: Vec<SrcHit>,
}

impl SearchScratch {
    /// Forget every ride. Touches the slots only on first use and when
    /// the 32-bit generation wraps (then stamps of the previous cycle
    /// must not read as live again).
    fn begin(&mut self) {
        if self.slots.is_empty() {
            self.slots.resize(INITIAL_SLOTS, Slot::default());
        }
        if self.generation == u32::MAX {
            self.slots.iter_mut().for_each(|s| s.stamp = 0);
            self.generation = 0;
        }
        self.generation += 1;
        self.cands.clear();
        self.hits.clear();
    }

    /// The slot holding `ride`, or the stale slot that ends its probe
    /// sequence (one always exists: at most half the slots are live).
    /// The multiplicative hash spreads ids that share low bits over the
    /// slots.
    #[inline]
    fn probe(&self, ride: RideId) -> usize {
        let mask = self.slots.len() - 1;
        let bits = self.slots.len().trailing_zeros();
        let mut i = (ride.0.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - bits)) as usize;
        while self.slots[i].stamp == self.generation && self.slots[i].ride != ride.0 {
            i = (i + 1) & mask;
        }
        i
    }

    /// The candidate index of `ride`, if it is in `R1`.
    #[inline]
    fn find(&self, ride: RideId) -> Option<usize> {
        let slot = self.slots[self.probe(ride)];
        (slot.stamp == self.generation).then_some(slot.cand as usize)
    }

    /// Chain one source hit to its ride's candidate, creating the
    /// candidate on the ride's first hit.
    #[inline]
    fn add_source(&mut self, row: &PotentialRide, walk: u32) {
        let hit = self.hits.len() as u32;
        self.hits.push(SrcHit {
            row: *row,
            walk,
            next: NIL,
        });
        let mut i = self.probe(row.ride);
        if self.slots[i].stamp == self.generation {
            let cand = &mut self.cands[self.slots[i].cand as usize];
            self.hits[cand.tail as usize].next = hit;
            cand.tail = hit;
            return;
        }
        if (self.cands.len() + 1) * 2 > self.slots.len() {
            self.grow();
            i = self.probe(row.ride);
        }
        self.slots[i] = Slot {
            stamp: self.generation,
            cand: self.cands.len() as u32,
            ride: row.ride.0,
        };
        let fresh = Candidate {
            head: hit,
            tail: hit,
            deepest: 0,
            best: None,
        };
        self.cands.push(fresh);
    }

    /// Double the table and re-seat its live slots (warm-up only).
    fn grow(&mut self) {
        let old = std::mem::take(&mut self.slots);
        self.slots.resize(old.len() * 2, Slot::default());
        for slot in old.into_iter().filter(|s| s.stamp == self.generation) {
            let i = self.probe(RideId(slot.ride));
            self.slots[i] = slot;
        }
    }
}

thread_local! {
    static SCRATCH: RefCell<SearchScratch> = RefCell::new(SearchScratch::default());
}

/// One search in flight: the request's resolved walkable clusters plus
/// the buffers matches and attribution accumulate into.
struct SearchRun<'a> {
    /// Walkable clusters of the request's source, nearest first.
    src_walkable: &'a [WalkEntry],
    /// Walkable clusters of the request's destination.
    dst_walkable: &'a [WalkEntry],
    req: &'a RideRequest,
    scratch: &'a mut SearchScratch,
    out: &'a mut Vec<RideMatch>,
    explain: &'a mut SearchExplain,
    /// Whether the enclosing `search` span records: the enumerate
    /// spans are opened only then, so a search with tracing off does no
    /// span work.
    traced: bool,
}

impl SearchRun<'_> {
    /// The candidate-generation and feasibility core of search over one
    /// index, one pass per side. **Step 1**: every source-side row in
    /// the departure window finds or creates its ride's candidate and is
    /// chained to it — the candidates are `R1`. **Step 2**: every
    /// destination-side row at or after the window's start looks its
    /// ride up; a hit is a ride of `R1 ∩ R2`, and the row is paired at
    /// once against the ride's source chain (ordering, then walking,
    /// then detour against the budget the row carries). A
    /// walk over the candidates then emits each ride's best pairing or
    /// files it under exactly one explain class — the conservation the
    /// reason taxonomy depends on.
    ///
    /// A ride's best pairing is the least under the total order
    /// *(combined walk, combined detour, source rank, destination
    /// rank)*, rank being discovery order (walkable order × ETA order):
    /// what a source-major loop that keeps the first of equals returns
    /// (`tests/properties.rs` holds that loop as the oracle), whatever
    /// order the pairings are evaluated in.
    ///
    /// Allocation-free in steady state: the scratch is reused and `out`
    /// is the caller's.
    fn collect_matches<V: IndexView>(self, view: &V) {
        let req = self.req;
        let scratch = &mut *self.scratch;
        scratch.begin();

        let span = self.traced.then(|| xar_obs::trace::span("enumerate_src"));
        for (walk, w) in self.src_walkable.iter().enumerate() {
            for row in eta_range(view.rows(w.cluster), req.window_start_s, req.window_end_s) {
                scratch.add_source(row, walk as u32);
            }
        }
        if let Some(mut span) = span {
            span.attr("clusters", self.src_walkable.len());
            span.attr("candidates", scratch.cands.len());
        }
        if scratch.cands.is_empty() {
            return;
        }
        self.explain.candidates += scratch.cands.len() as u32;

        // Drop-off can happen any time after the window opens; that
        // pick-up precedes it is checked per pairing.
        let span = self.traced.then(|| xar_obs::trace::span("enumerate_dst"));
        let mut paired = 0usize;
        for wd in self.dst_walkable {
            for dst in eta_range(view.rows(wd.cluster), req.window_start_s, f64::INFINITY) {
                let Some(c) = scratch.find(dst.ride) else {
                    continue;
                };
                let cand = &mut scratch.cands[c];
                if cand.deepest == 0 {
                    paired += 1;
                    cand.deepest = 1;
                }
                let mut at = cand.head;
                while at != NIL {
                    let rank = at;
                    let SrcHit {
                        row: src,
                        walk,
                        next,
                    } = scratch.hits[at as usize];
                    at = next;
                    let ws = &self.src_walkable[walk as usize];
                    // Pick-up must strictly precede drop-off along the
                    // ride: different clusters, increasing ETA and
                    // segment, and non-decreasing position of the
                    // serving pass-through point along the route
                    // (estimated times alone can mis-order detours
                    // hanging off nearby pass points, which would force
                    // the ride to backtrack at booking time).
                    if ws.cluster == wd.cluster
                        || dst.eta_s <= src.eta_s
                        || dst.seg < src.seg
                        || dst.pass_route_idx < src.pass_route_idx
                    {
                        continue;
                    }
                    // (a) combined walking within the rider's limit.
                    let (walk_src, walk_dst) = (f64::from(ws.walk_m), f64::from(wd.walk_m));
                    let walk_total = walk_src + walk_dst;
                    if walk_total > req.walk_limit_m {
                        cand.deepest = cand.deepest.max(2);
                        continue;
                    }
                    // (b) combined detour within the ride's budget.
                    let detour_total = src.detour_m + dst.detour_m;
                    if detour_total > dst.budget_m {
                        cand.deepest = cand.deepest.max(3);
                        continue;
                    }
                    // Destination rows arrive in rank order, so among
                    // equals only a lower source rank displaces.
                    let better = cand.best.as_ref().is_none_or(|(b, b_rank)| {
                        let (b_walk, b_detour) = (b.walk_total_m(), b.detour_est_m);
                        walk_total < b_walk
                            || (walk_total == b_walk
                                && (detour_total < b_detour
                                    || (detour_total == b_detour && rank < *b_rank)))
                    });
                    if better {
                        let m = RideMatch {
                            ride: dst.ride,
                            pickup_cluster: ws.cluster,
                            pickup_landmark: ws.landmark,
                            dropoff_cluster: wd.cluster,
                            dropoff_landmark: wd.landmark,
                            walk_pickup_m: walk_src,
                            walk_dropoff_m: walk_dst,
                            eta_pickup_s: src.eta_s,
                            eta_dropoff_s: dst.eta_s,
                            detour_est_m: detour_total,
                            pickup_seg: src.seg as usize,
                            dropoff_seg: dst.seg as usize,
                        };
                        cand.best = Some((m, rank));
                    }
                }
            }
        }
        if let Some(mut span) = span {
            span.attr("clusters", self.dst_walkable.len());
            span.attr("candidates", paired);
        }

        for cand in &scratch.cands {
            match (cand.deepest, &cand.best) {
                (_, Some((m, _))) => self.out.push(*m),
                (0, None) => self.explain.unpaired += 1,
                (deepest, None) => self.explain.reject_at_depth(deepest),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xar_geo::GeoPoint;

    /// Hand-built lists.
    struct FakeView {
        lists: Vec<Vec<PotentialRide>>,
    }

    impl IndexView for FakeView {
        fn rows(&self, cluster: ClusterId) -> &[PotentialRide] {
            &self.lists[cluster.index()]
        }
    }

    /// A row of a ride whose remaining detour budget is `budget_m`.
    fn budget_row(ride: u64, eta_s: f64, detour_m: f64, budget_m: f64) -> PotentialRide {
        PotentialRide {
            ride: RideId(ride),
            eta_s,
            detour_m,
            budget_m,
            seg: 0,
            pass_route_idx: 0,
        }
    }

    fn row(ride: u64, eta_s: f64, detour_m: f64) -> PotentialRide {
        budget_row(ride, eta_s, detour_m, 0.0)
    }

    fn walk(cluster: u32, walk_m: f32) -> WalkEntry {
        WalkEntry {
            cluster: ClusterId(cluster),
            landmark: LandmarkId(cluster + 10),
            walk_m,
        }
    }

    /// One `collect_matches` over `view` on a fresh scratch.
    fn collect(
        view: &FakeView,
        src: &[WalkEntry],
        dst: &[WalkEntry],
    ) -> (Vec<RideMatch>, SearchExplain) {
        let origin = GeoPoint::new(0.0, 0.0);
        let req = RideRequest {
            source: origin,
            destination: origin,
            window_start_s: 0.0,
            window_end_s: 1_000.0,
            walk_limit_m: 350.0,
        };
        let (mut out, mut explain) = (Vec::new(), SearchExplain::default());
        let run = SearchRun {
            src_walkable: src,
            dst_walkable: dst,
            req: &req,
            scratch: &mut SearchScratch::default(),
            out: &mut out,
            explain: &mut explain,
            traced: false,
        };
        run.collect_matches(view);
        (out, explain)
    }

    /// Two pairings of one ride tie exactly on (walk, detour): source 0
    /// with destination 3, and source 1 with destination 2. Source rank
    /// decides — the source-major loop's "first of equals" — although
    /// the destination-side pass meets the other pairing first.
    #[test]
    fn an_exact_tie_goes_to_the_lower_source_rank() {
        // Ride 7 has 30 m of detour budget left.
        let r7 = |eta_s, detour_m| budget_row(7, eta_s, detour_m, 30.0);
        let view = FakeView {
            lists: vec![
                vec![r7(50.0, 10.0)],
                vec![r7(10.0, 20.0)],
                // Before source 0's ETA: pairs with source 1 only.
                vec![r7(30.0, 10.0)],
                vec![r7(100.0, 20.0)],
            ],
        };
        let src = [walk(0, 100.0), walk(1, 200.0)];
        let dst = [walk(2, 100.0), walk(3, 200.0)];
        let (out, explain) = collect(&view, &src, &dst);
        let want = RideMatch {
            ride: RideId(7),
            pickup_cluster: ClusterId(0),
            pickup_landmark: LandmarkId(10),
            dropoff_cluster: ClusterId(3),
            dropoff_landmark: LandmarkId(13),
            walk_pickup_m: 100.0,
            walk_dropoff_m: 200.0,
            eta_pickup_s: 50.0,
            eta_dropoff_s: 100.0,
            detour_est_m: 30.0,
            pickup_seg: 0,
            dropoff_seg: 0,
        };
        assert_eq!(out, vec![want]);
        assert_eq!(
            explain,
            SearchExplain {
                candidates: 1,
                ..Default::default()
            }
        );

        // The mirror image: the tie is between (0, 2) and (1, 3) — the
        // closer (0, 3) is over budget — and the pass meets the winner
        // first; a later equal must not displace it.
        let view = FakeView {
            lists: vec![
                vec![r7(10.0, 10.0)],
                vec![r7(20.0, 5.0)],
                vec![r7(100.0, 20.0)],
                vec![r7(110.0, 25.0)],
            ],
        };
        let dst = [walk(2, 200.0), walk(3, 100.0)];
        let (out, _) = collect(&view, &src, &dst);
        assert_eq!(out.len(), 1);
        assert_eq!(
            (out[0].pickup_cluster, out[0].dropoff_cluster),
            (ClusterId(0), ClusterId(2))
        );
        assert_eq!((out[0].walk_total_m(), out[0].detour_est_m), (300.0, 30.0));

        // One source, two equal destinations: destination rank decides.
        let dst = [walk(2, 200.0), walk(3, 200.0)];
        let view = FakeView {
            lists: vec![
                vec![r7(10.0, 0.0)],
                vec![],
                vec![r7(90.0, 5.0)],
                vec![r7(80.0, 5.0)],
            ],
        };
        let (out, _) = collect(&view, &src, &dst);
        assert_eq!(
            (out[0].dropoff_cluster, out[0].eta_dropoff_s),
            (ClusterId(2), 90.0)
        );
    }

    #[test]
    fn every_candidate_lands_in_exactly_one_class() {
        // Rides 4, 5 and 6 have 100 m of detour budget left.
        let open = |ride, eta_s, detour_m| budget_row(ride, eta_s, detour_m, 100.0);
        let view = FakeView {
            lists: vec![
                // Source cluster: four rides in the window, one outside it.
                vec![
                    row(1, 10.0, 0.0),
                    open(4, 13.0, 0.0),
                    open(5, 14.0, 0.0),
                    open(6, 15.0, 500.0),
                    row(9, 2_000.0, 0.0),
                ],
                // Destination cluster: ride 1 is never listed, ride 4
                // arrives before its pick-up, ride 5 matches, ride 6
                // exceeds its budget.
                vec![
                    open(4, 5.0, 0.0),
                    open(5, 52.0, 0.0),
                    open(6, 53.0, 0.0),
                    row(9, 3_000.0, 0.0),
                ],
            ],
        };
        let (out, explain) = collect(&view, &[walk(0, 100.0)], &[walk(1, 100.0)]);
        assert_eq!(out.iter().map(|m| m.ride.0).collect::<Vec<_>>(), vec![5]);
        let want = SearchExplain {
            candidates: 4,
            unpaired: 1,
            ordering_rejected: 1,
            detour_rejected: 1,
            ..Default::default()
        };
        assert_eq!(explain, want);
        // A walk limit below the only pairing's walk: every paired ride
        // is turned away at the walk check.
        let (out, explain) = collect(&view, &[walk(0, 100.0)], &[walk(1, 300.0)]);
        assert!(out.is_empty());
        assert_eq!((explain.walk_rejected, explain.ordering_rejected), (2, 1));
    }

    #[test]
    fn table_doubles_under_load_and_finds_only_what_it_holds() {
        let mut s = SearchScratch::default();
        s.begin();
        // Ride ids as the engine hands them out: 1, 2, 3, …
        let ids = |n: u64| (1..=n).map(RideId);
        for (k, ride) in ids(INITIAL_SLOTS as u64 / 2).enumerate() {
            s.add_source(&row(ride.0, k as f64, 0.0), 0);
        }
        // At the load limit: half the slots live, not yet doubled. An
        // absent ride's probe still ends at a stale slot.
        assert_eq!(
            (s.slots.len(), s.cands.len()),
            (INITIAL_SLOTS, INITIAL_SLOTS / 2)
        );
        for absent in [0u64, 33, 1_000, u64::MAX] {
            assert_eq!(s.find(RideId(absent)), None);
        }
        // One more ride doubles it; every ride keeps its candidate, and
        // a second hit of a ride extends its chain.
        for ride in ids(200) {
            s.add_source(&row(ride.0, 0.0, 0.0), 1);
        }
        assert_eq!(s.cands.len(), 200);
        assert!(s.slots.len() >= 400 && s.slots.len().is_power_of_two());
        for (k, ride) in ids(200).enumerate() {
            assert_eq!(s.find(ride), Some(k));
            let cand = s.cands[k];
            assert_eq!(s.hits[cand.head as usize].row.ride, ride);
            assert_eq!(cand.head == cand.tail, k >= INITIAL_SLOTS / 2);
        }
        assert_eq!(s.find(RideId(201)), None);
        // The next search starts empty at the grown size.
        let slots = s.slots.len();
        s.begin();
        assert_eq!((s.slots.len(), s.cands.len(), s.hits.len()), (slots, 0, 0));
        assert!(ids(200).all(|ride| s.find(ride).is_none()));
    }

    #[test]
    fn generation_wraps_to_one_and_clears_the_stamps() {
        let mut s = SearchScratch::default();
        // A slot stamped by generation 1 of this cycle …
        s.begin();
        s.add_source(&row(42, 0.0, 0.0), 0);
        assert_eq!((s.generation, s.find(RideId(42))), (1, Some(0)));
        // … must not read as live in generation 1 of the next.
        s.generation = u32::MAX - 1;
        s.begin();
        assert_eq!(s.generation, u32::MAX);
        s.add_source(&row(43, 0.0, 0.0), 0);
        s.begin();
        assert_eq!(s.generation, 1);
        assert_eq!((s.find(RideId(42)), s.find(RideId(43))), (None, None));
        assert!(s.slots.iter().all(|slot| slot.stamp == 0));
    }

    #[test]
    fn tier_buckets_the_source_fan_out() {
        let tiers: Vec<u8> = [0, 2, 3, 6, 7, 1_000].map(SearchExplain::tier_of).into();
        assert_eq!(tiers, [1, 1, 2, 2, 3, 3]);
    }
}
