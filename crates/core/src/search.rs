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
//! strictly preceding drop-off and a free seat. **No shortest paths are
//! computed anywhere on this path.**

use std::cell::RefCell;
use std::sync::Arc;
use std::time::Instant;

use xar_discretize::{ClusterId, LandmarkId, RegionIndex, WalkEntry};

use crate::engine::{EngineStats, XarEngine};
use crate::error::{Reason, XarError};
use crate::index::{eta_range, PotentialRide};
use crate::metrics::EngineMetrics;
use crate::request::RideRequest;
use crate::ride::RideId;

/// Per-search rejection attribution, filled alongside candidate
/// generation: how many candidate rides each feasibility check turned
/// away, plus the search tier. A plain `Copy` stack struct so the
/// explained search path stays allocation-free (the sharded engine's
/// zero-alloc guarantee covers it — see `tests/snapshot_alloc`).
///
/// Each candidate ride in `R1` is classified exactly once: matched,
/// or attributed to the *deepest* check any of its (source,
/// destination) pairings reached — checks run ordering → walk →
/// detour, so e.g. `detour_rejected` means some pairing passed
/// ordering and walking and failed only on the detour budget. Rides
/// with no free seat count as `seat_rejected` before pairing; rides
/// never seen on the destination side count as `unpaired`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchExplain {
    /// Search tier (1-based fan-out bucket; 0 when the search never
    /// reached candidate generation).
    pub tier: u8,
    /// `|R1|` — candidate rides on the source side.
    pub candidates: u32,
    /// Candidates turned away because no seat was free.
    pub seat_rejected: u32,
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
        // (seats, then detour budget) so the answer is deterministic.
        let classes = [
            (self.seat_rejected, Reason::CapacityFull),
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
        run_search(self.region(), &self.stats, &self.metrics, req, limit, &mut out, explain, |run| {
            run.collect_matches(self)
        })?;
        Ok(out)
    }
}

/// Everything around candidate collection that every search does, once:
/// validate, resolve both end-points' walkable clusters from the region
/// tables (no lock, no shortest path), pick the latency tier, let
/// `probe` run [`SearchRun::collect_matches`] over whichever indexes the
/// engine keeps, then sort, truncate and record. `out` and `explain`
/// are reset first; on error `explain` carries the hard [`Reason`].
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_search(
    region: &RegionIndex,
    stats: &EngineStats,
    metrics: &EngineMetrics,
    req: &RideRequest,
    limit: usize,
    out: &mut Vec<RideMatch>,
    explain: &mut SearchExplain,
    probe: impl FnOnce(&mut SearchRun<'_>),
) -> Result<(), XarError> {
    out.clear();
    *explain = SearchExplain::default();
    if let Err(e) = req.validate() {
        explain.hard = Some(e.reason());
        return Err(e);
    }
    stats.searches.inc();
    let t0 = Instant::now();
    let _span = xar_obs::SpanTimer::new(Arc::clone(&metrics.search_ns));
    let mut tspan = xar_obs::trace::span("search");
    let src_walkable = region.walkable_within(region.snap(&req.source), req.walk_limit_m);
    let dst_walkable = region.walkable_within(region.snap(&req.destination), req.walk_limit_m);
    if src_walkable.is_empty() || dst_walkable.is_empty() {
        explain.hard = Some(Reason::NotServable);
        return Err(XarError::NotServable);
    }
    // Tiered latency series: fan-out (walkable clusters on the source
    // side) is the main cost driver, so the per-tier p99s separate
    // "cheap" from "wide" searches on a live dashboard. Unservable
    // searches (above) carry no tier.
    let tier = EngineMetrics::tier_index(src_walkable.len());
    explain.tier = tier as u8 + 1;

    // One search runs at a time per thread, so the borrow never nests.
    let probed = SCRATCH.with(|scratch| {
        let mut run = SearchRun {
            src_walkable,
            dst_walkable,
            req,
            scratch: &mut scratch.borrow_mut(),
            out,
            explain,
            traced: tspan.is_recording(),
            probed: 0,
        };
        probe(&mut run);
        run.probed
    });
    let candidates = u64::from(explain.candidates);
    metrics.search_candidates.record(candidates);
    tspan.attr("candidates", candidates);
    tspan.attr("shards", u64::from(probed));

    sort_matches(out);
    out.truncate(limit);
    tspan.attr("matches", out.len());
    let elapsed_ns = t0.elapsed().as_nanos() as u64;
    metrics.search_ns_tier[tier].record(elapsed_ns);
    // Latency exemplar per tier: retain the trace ids behind the
    // slowest recent searches (atomics only — the warmed search path
    // stays allocation-free; skipped when tracing is off).
    if let Some(ctx) = xar_obs::trace::current_ctx() {
        metrics.search_exemplar_tier[tier].offer(elapsed_ns, ctx.trace);
    }
    Ok(())
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

/// What the one search algorithm reads from an index: the live lists of
/// an [`XarEngine`] or the frozen ones of a [`crate::ShardSnapshot`].
/// Both hold the same [`crate::index`] rows, so the two views differ
/// only in where a list and a ride's state come from.
///
/// The contract that makes results bit-identical across views: a list
/// is in **`(eta, ride)` order**, so the per-ride hit lists — and
/// therefore which of several equally good pairings wins — are built
/// in the same order everywhere.
pub(crate) trait IndexView {
    /// `cluster`'s potential-rides list (empty when it lists no ride).
    fn rows(&self, cluster: ClusterId) -> &[PotentialRide];

    /// `(free seats, remaining detour budget)` of `ride`, if it is live
    /// in this view.
    fn ride_state(&self, ride: RideId) -> Option<(u8, f64)>;
}

impl IndexView for XarEngine {
    #[inline]
    fn rows(&self, cluster: ClusterId) -> &[PotentialRide] {
        self.index().rows(cluster)
    }

    fn ride_state(&self, ride: RideId) -> Option<(u8, f64)> {
        self.ride(ride).map(|r| (r.seats_available, r.detour_remaining_m()))
    }
}

/// One side-candidate: a walkable cluster paired with one
/// potential-ride entry found there.
#[derive(Debug, Clone, Copy)]
struct Hit {
    cluster: ClusterId,
    landmark: LandmarkId,
    walk_m: f64,
    eta_s: f64,
    detour_m: f64,
    seg: u32,
    pass_route_idx: u32,
}

/// One side's candidate list: `(ride, discovery order, hit)`, sorted by
/// `(ride, discovery order)`.
type Hits = Vec<(RideId, u32, Hit)>;

/// Reusable per-thread candidate buffers (source side, destination
/// side): grown on the first few searches, then allocation-free forever
/// after.
#[derive(Default)]
struct SearchScratch {
    r1: Hits,
    r2: Hits,
}

thread_local! {
    static SCRATCH: RefCell<SearchScratch> = RefCell::new(SearchScratch::default());
}

/// One enumeration step (`span` names it in the trace; `None` when the
/// search is not being traced): every entry of `walkable`'s clusters
/// with ETA in `[from_s, to_s]` (both ends inclusive) whose ride `keep`
/// admits, collected into `hits` and sorted by ride, then by discovery
/// order (walkable order × ETA order) so the per-ride pairing iterates
/// deterministically. A ride may be reachable through several walkable
/// clusters; all its hits are kept (the walkable lists are short) —
/// greedy per-side pruning can discard the only *jointly* feasible
/// combination.
fn enumerate<V: IndexView>(
    span: Option<&'static str>,
    view: &V,
    walkable: &[WalkEntry],
    (from_s, to_s): (f64, f64),
    keep: impl Fn(RideId) -> bool,
    hits: &mut Hits,
) {
    let mut espan = span.map(xar_obs::trace::span);
    hits.clear();
    let mut seq = 0u32;
    for w in walkable {
        for e in eta_range(view.rows(w.cluster), from_s, to_s) {
            if keep(e.ride) {
                let hit = Hit {
                    cluster: w.cluster,
                    landmark: w.landmark,
                    walk_m: f64::from(w.walk_m),
                    eta_s: e.eta_s,
                    detour_m: e.detour_m,
                    seg: e.seg,
                    pass_route_idx: e.pass_route_idx,
                };
                hits.push((e.ride, seq, hit));
                seq += 1;
            }
        }
    }
    hits.sort_unstable_by_key(|&(ride, seq, _)| (ride, seq));
    if let Some(espan) = &mut espan {
        espan.attr("clusters", walkable.len());
        espan.attr("candidates", hits.chunk_by(|a, b| a.0 == b.0).count());
    }
}

/// One search in flight: the request's resolved walkable clusters plus
/// the buffers matches and attribution accumulate into. [`run_search`]
/// builds it and hands it to the engine, which calls
/// [`SearchRun::collect_matches`] once per index it wants probed.
pub(crate) struct SearchRun<'a> {
    /// Walkable clusters of the request's source, nearest first.
    pub(crate) src_walkable: &'a [WalkEntry],
    /// Walkable clusters of the request's destination.
    pub(crate) dst_walkable: &'a [WalkEntry],
    req: &'a RideRequest,
    scratch: &'a mut SearchScratch,
    out: &'a mut Vec<RideMatch>,
    explain: &'a mut SearchExplain,
    /// Whether the enclosing `search` span records: the per-index
    /// enumerate spans are opened only then, so a search with tracing
    /// off does no span work per probed index.
    traced: bool,
    /// Indexes probed so far.
    probed: u32,
}

impl SearchRun<'_> {
    /// The candidate-generation and feasibility core of search over one
    /// index: Steps 1 and 2 (per-cluster ETA range queries on both
    /// sides), the `R1 ∩ R2` intersection, and the final ordering /
    /// walking / detour / seat checks, least-walk best per ride.
    /// Feasible matches are appended to the run's output buffer and
    /// `|R1|` is added to `explain.candidates`.
    ///
    /// A ride's index entries live wholly within one index (its owning
    /// shard), so probing several indexes and sorting once afterwards
    /// is equivalent to searching their union.
    ///
    /// Allocation-free in steady state: candidates go through the
    /// thread's scratch, grouping uses `sort_unstable` + merge-join
    /// instead of hash maps, and the output is the caller's buffer.
    pub(crate) fn collect_matches<V: IndexView>(&mut self, view: &V) {
        self.probed += 1;
        let req = self.req;
        let SearchScratch { r1, r2 } = &mut *self.scratch;

        // Step 1: R1 from the source side, ETA within the departure
        // window.
        let window = (req.window_start_s, req.window_end_s);
        let span = self.traced.then_some("enumerate_src");
        enumerate(span, view, self.src_walkable, window, |_| true, r1);
        if r1.is_empty() {
            return;
        }

        // Step 2: R2 from the destination side, pre-filtered to rides
        // present in R1 (binary search over the sorted R1). Drop-off
        // can happen any time after the window opens; the
        // pick-up-before-drop-off ordering is enforced per pair below.
        let in_r1 =
            |ride| r1.get(r1.partition_point(|e| e.0 < ride)).is_some_and(|e| e.0 == ride);
        let after = (req.window_start_s, f64::INFINITY);
        let span = self.traced.then_some("enumerate_dst");
        enumerate(span, view, self.dst_walkable, after, in_r1, r2);

        // Intersection + final feasibility: merge-join the two sorted
        // runs (R2 holds only rides of R1, so its groups arrive in R1's
        // order); per ride, the best (least-walk, then least-detour,
        // first-found) feasible (source, destination) pair wins. Each
        // R1 ride lands in exactly one explain class (matched, seat,
        // deepest pairing check, or unpaired) — the conservation the
        // reason taxonomy depends on.
        let mut j = 0usize;
        for srcs in r1.chunk_by(|a, b| a.0 == b.0) {
            let ride = srcs[0].0;
            self.explain.candidates += 1;
            let j0 = j;
            while j < r2.len() && r2[j].0 == ride {
                j += 1;
            }
            let dsts = &r2[j0..j];
            if dsts.is_empty() {
                self.explain.unpaired += 1;
                continue;
            }
            let Some((seats, budget)) = view.ride_state(ride) else {
                self.explain.unpaired += 1;
                continue;
            };
            if seats == 0 {
                self.explain.seat_rejected += 1;
                continue;
            }
            let mut best: Option<RideMatch> = None;
            // Deepest check any pairing reached: 1 ordering, 2 walk,
            // 3 detour (checks run in that order).
            let mut deepest = 1u8;
            for &(_, _, src) in srcs {
                for &(_, _, dst) in dsts {
                    // Pick-up must strictly precede drop-off along the
                    // ride: different clusters, increasing ETA and
                    // segment, and non-decreasing position of the
                    // serving pass-through point along the route
                    // (estimated times alone can mis-order detours
                    // hanging off nearby pass points, which would force
                    // the ride to backtrack at booking time).
                    if src.cluster == dst.cluster
                        || dst.eta_s <= src.eta_s
                        || dst.seg < src.seg
                        || dst.pass_route_idx < src.pass_route_idx
                    {
                        continue;
                    }
                    // (a) combined walking within the rider's limit.
                    let walk_total = src.walk_m + dst.walk_m;
                    if walk_total > req.walk_limit_m {
                        deepest = deepest.max(2);
                        continue;
                    }
                    // (b) combined detour within the ride's budget.
                    let detour_total = src.detour_m + dst.detour_m;
                    if detour_total > budget {
                        deepest = deepest.max(3);
                        continue;
                    }
                    let better = best.as_ref().is_none_or(|b| {
                        walk_total < b.walk_total_m()
                            || (walk_total == b.walk_total_m() && detour_total < b.detour_est_m)
                    });
                    if better {
                        best = Some(RideMatch {
                            ride,
                            pickup_cluster: src.cluster,
                            pickup_landmark: src.landmark,
                            dropoff_cluster: dst.cluster,
                            dropoff_landmark: dst.landmark,
                            walk_pickup_m: src.walk_m,
                            walk_dropoff_m: dst.walk_m,
                            eta_pickup_s: src.eta_s,
                            eta_dropoff_s: dst.eta_s,
                            detour_est_m: detour_total,
                            pickup_seg: src.seg as usize,
                            dropoff_seg: dst.seg as usize,
                        });
                    }
                }
            }
            if let Some(m) = best {
                self.out.push(m);
            } else {
                self.explain.reject_at_depth(deepest);
            }
        }
    }
}
