//! Footprint oracle: the live index against the pair-by-pair algorithm
//! it replaced.
//!
//! Create / book / track offer every `(pass-through, reachable)` pair of
//! a ride to a per-thread footprint and then touch the index once per
//! distinct cluster (DESIGN.md §5f). This test keeps the *old*
//! algorithm in test code as the oracle — every pair inserted one by
//! one into a per-cluster `BTreeMap` under the "smaller detour, then
//! earlier ETA, else first" rule, every pair removed one by one,
//! tracking's best-survivor map in a fresh `HashMap`, the reachable
//! sets recomputed through `RegionIndex::cluster_distance` — and
//! requires, after every operation of a random schedule on a real
//! region, that each cluster's list in the engine equals the oracle's
//! bit for bit, with and without reachable-cluster indexing. Every row
//! carries its ride's remaining detour budget, and after every operation
//! all of a ride's rows carry its *current* budget — also without
//! reachable-cluster indexing, where the reachable scan's threshold is
//! 0 but the budget is the ride's. A ride with
//! no free seat is listed nowhere, so the oracle gives it no pairs and
//! no list may hold it. That a write touches each distinct cluster once
//! is asserted where the edit counter is visible, in `sharded.rs`'s
//! unit tests. A second test holds `heap_bytes()` flat under a long
//! expiry churn: a retired ride leaves every list.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use proptest::prelude::*;
use xar_core::index::PotentialRide;
use xar_core::ride::PassCluster;
use xar_core::{EngineConfig, Ride, RideId, RideOffer, RideRequest, ShardedXarEngine, XarEngine};
use xar_discretize::{ClusterGoal, ClusterId, RegionConfig, RegionIndex};
use xar_roadnet::{sample_pois, CityConfig, NodeId, PoiConfig, RoadGraph};

fn region() -> &'static Arc<RegionIndex> {
    use std::sync::OnceLock;
    static REGION: OnceLock<Arc<RegionIndex>> = OnceLock::new();
    REGION.get_or_init(|| {
        let graph = Arc::new(CityConfig::manhattan(25, 25, 1515).generate());
        let pois = sample_pois(
            &graph,
            &PoiConfig {
                count: 600,
                ..Default::default()
            },
        );
        Arc::new(RegionIndex::build(
            graph,
            &pois,
            RegionConfig {
                cluster_goal: ClusterGoal::Delta(200.0),
                ..Default::default()
            },
        ))
    })
}

fn graph() -> &'static Arc<RoadGraph> {
    region().graph()
}

/// Offer `i`: 0 to 3 seats, so schedules meet unlisted offers and
/// bookings that sell the last seat.
fn offer(i: u32) -> RideOffer {
    let g = graph();
    let n = g.node_count() as u32;
    RideOffer::simple(
        g.point(NodeId((i * 97) % n)),
        g.point(NodeId((i * 181 + n / 2) % n)),
        8.0 * 3600.0 + f64::from(i % 40) * 45.0,
        (i % 4) as u8,
        2_500.0,
    )
}

fn request(i: u32) -> RideRequest {
    let g = graph();
    let n = g.node_count() as u32;
    RideRequest {
        source: g.point(NodeId((i * 53) % n)),
        destination: g.point(NodeId((i * 131 + n / 3) % n)),
        window_start_s: 7.5 * 3600.0,
        window_end_s: 10.0 * 3600.0,
        walk_limit_m: 900.0,
    }
}

fn better(new: &PotentialRide, old: &PotentialRide) -> bool {
    new.detour_m < old.detour_m || (new.detour_m == old.detour_m && new.eta_s < old.eta_s)
}

fn entry(ride: &Ride, p: &PassCluster, eta_s: f64, detour_m: f64) -> PotentialRide {
    PotentialRide {
        ride: ride.id,
        eta_s,
        detour_m,
        budget_m: ride.detour_remaining_m(),
        seg: p.seg as u32,
        pass_route_idx: p.route_idx as u32,
    }
}

/// The old index: one map per cluster, edited one pair at a time.
struct Oracle {
    lists: Vec<BTreeMap<RideId, PotentialRide>>,
    /// Each live ride's pass-through clusters as of its last operation.
    pass: HashMap<RideId, Vec<PassCluster>>,
}

impl Oracle {
    fn new() -> Self {
        Self {
            lists: vec![BTreeMap::new(); region().cluster_count()],
            pass: HashMap::new(),
        }
    }

    /// `ClusterIndex::insert` as it was: listed already → better wins.
    fn insert(&mut self, c: ClusterId, e: PotentialRide) {
        let list = &mut self.lists[c.index()];
        if list.get(&e.ride).is_none_or(|old| better(&e, old)) {
            list.insert(e.ride, e);
        }
    }

    /// The old reachable scan of one pass-through cluster.
    fn reachable(
        config: &EngineConfig,
        ride: &Ride,
        p: &PassCluster,
    ) -> Vec<(ClusterId, f64, f64)> {
        let reg = region();
        let budget = if config.index_reachable {
            ride.detour_remaining_m()
        } else {
            0.0
        };
        let end_via = ride.via_points[(p.seg + 1).min(ride.via_points.len() - 1)];
        let end_cluster = reg.cluster_of_node(end_via.node);
        let mut out = Vec::new();
        for c in (0..reg.cluster_count() as u32).map(ClusterId) {
            let d_pc = reg.cluster_distance(p.cluster, c);
            if c == p.cluster || !d_pc.is_finite() || d_pc > budget {
                continue;
            }
            let detour = match end_cluster {
                Some(cv) => {
                    let (d_cv, d_pv) = (
                        reg.cluster_distance(c, cv),
                        reg.cluster_distance(p.cluster, cv),
                    );
                    if d_cv.is_finite() && d_pv.is_finite() {
                        (d_pc + d_cv - d_pv).max(0.0)
                    } else {
                        2.0 * d_pc
                    }
                }
                None => 2.0 * d_pc,
            };
            if detour <= budget {
                out.push((c, detour, p.eta_s + d_pc / config.historical_speed_mps));
            }
        }
        out
    }

    /// Old `deindex_ride` + `index_ride` after a create or a booking:
    /// drop the ride's previous pairs, then insert its current ones
    /// (with the reachable sets recomputed the old way and required to
    /// equal the engine's) — none for a ride with no free seat, which is
    /// listed nowhere.
    fn reindex(&mut self, config: &EngineConfig, ride: &Ride) {
        for p in self.pass.remove(&ride.id).unwrap_or_default() {
            self.lists[p.cluster.index()].remove(&ride.id);
            for (c, _, _) in p.reachable {
                self.lists[c.index()].remove(&ride.id);
            }
        }
        if ride.seats_available == 0 {
            self.pass.insert(ride.id, Vec::new());
            return;
        }
        for p in &ride.pass_clusters {
            assert_eq!(
                p.reachable,
                Self::reachable(config, ride, p),
                "reachable set of {:?}",
                p.cluster
            );
            self.insert(p.cluster, entry(ride, p, p.eta_s, 0.0));
            for &(c, detour, eta) in &p.reachable {
                self.insert(c, entry(ride, p, eta, detour));
            }
        }
        self.pass.insert(ride.id, ride.pass_clusters.clone());
    }

    /// Old `track_ride` after the engine advanced the ride (`None`: it
    /// was retired).
    fn track(&mut self, id: RideId, after: Option<&Ride>) {
        let before = self.pass.remove(&id).expect("tracked ride is known");
        let Some(ride) = after else {
            for list in &mut self.lists {
                list.remove(&id);
            }
            return;
        };
        let (crossed, kept): (Vec<_>, Vec<_>) = before
            .into_iter()
            .partition(|p| p.exit_idx < ride.progress_idx);
        let mut obsolete: Vec<ClusterId> = crossed
            .iter()
            .flat_map(|p| std::iter::once(p.cluster).chain(p.reachable.iter().map(|r| r.0)))
            .collect();
        obsolete.sort_unstable();
        obsolete.dedup();
        let mut best: HashMap<ClusterId, PotentialRide> = HashMap::new();
        for p in &kept {
            let own = entry(ride, p, p.eta_s, 0.0);
            best.entry(p.cluster)
                .and_modify(|cur| {
                    if own.detour_m < cur.detour_m {
                        *cur = own;
                    }
                })
                .or_insert(own);
            for &(c, detour, eta) in &p.reachable {
                let e = entry(ride, p, eta, detour);
                best.entry(c)
                    .and_modify(|cur| {
                        if better(&e, cur) {
                            *cur = e;
                        }
                    })
                    .or_insert(e);
            }
        }
        for c in obsolete {
            self.lists[c.index()].remove(&id);
            if let Some(e) = best.get(&c) {
                self.insert(c, *e);
            }
        }
        self.pass.insert(id, kept);
    }

    /// Every cluster's list, `(eta, ride)`-sorted, equals the engine's
    /// bit for bit, and every row carries its ride's current budget.
    fn assert_matches(&self, eng: &XarEngine, what: &str) {
        let bits = |e: &PotentialRide| {
            (
                e.eta_s.to_bits(),
                e.ride,
                e.detour_m.to_bits(),
                e.budget_m.to_bits(),
                e.seg,
                e.pass_route_idx,
            )
        };
        for (c, list) in self.lists.iter().enumerate() {
            let mut want: Vec<_> = list.values().map(bits).collect();
            want.sort_unstable(); // non-negative ETAs: bit order is numeric order
            let got: Vec<_> = eng
                .index()
                .entries_of(ClusterId(c as u32))
                .map(|e| bits(&e))
                .collect();
            assert_eq!(got, want, "cluster {c} after {what}");
            for e in eng.index().entries_of(ClusterId(c as u32)) {
                let ride = eng
                    .ride(e.ride)
                    .unwrap_or_else(|| panic!("retired ride in {c}, {what}"));
                assert!(ride.seats_available > 0, "full ride in {c}, {what}");
                assert_eq!(
                    e.budget_m,
                    ride.detour_remaining_m(),
                    "stale budget of {:?} in {c}, {what}",
                    e.ride
                );
            }
        }
        for (id, pass) in &self.pass {
            let live = &eng.ride(*id).expect("oracle ride is live").pass_clusters;
            assert_eq!(
                live.len(),
                pass.len(),
                "pass-through clusters of {id:?} after {what}"
            );
        }
    }
}

#[derive(Debug, Clone)]
enum Op {
    Create(u32),
    Book(u32),
    Track(u16),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u32..10_000).prop_map(Op::Create),
        (0u32..10_000).prop_map(Op::Book),
        (480u16..640).prop_map(Op::Track),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn index_equals_the_pair_by_pair_oracle(
        ops in proptest::collection::vec(op_strategy(), 10..40),
        index_reachable in any::<bool>(),
    ) {
        let config = EngineConfig { index_reachable, ..EngineConfig::default() };
        let mut eng = XarEngine::new(Arc::clone(region()), config.clone());
        let mut oracle = Oracle::new();
        // A populated index first, so edits land in lists that hold
        // other rides' rows on both sides of them.
        for (step, op) in (0..12).map(Op::Create).chain(ops).enumerate() {
            match op {
                Op::Create(i) => {
                    if let Ok(id) = eng.create_ride(&offer(i)) {
                        oracle.reindex(&config, eng.ride(id).unwrap());
                    }
                }
                Op::Book(i) => {
                    let Ok(ms) = eng.search(&request(i), 1) else { continue };
                    let Some(m) = ms.first() else { continue };
                    if eng.book_checked(m).is_ok() {
                        oracle.reindex(&config, eng.ride(m.ride).unwrap());
                    }
                }
                Op::Track(minute) => {
                    let ids: Vec<RideId> = eng.rides().map(|r| r.id).collect();
                    eng.track_all(f64::from(minute) * 60.0);
                    for id in ids {
                        oracle.track(id, eng.ride(id));
                    }
                }
            }
            oracle.assert_matches(&eng, &format!("step {step}"));
        }
    }
}

/// Offer `i` departing at `depart_s`, with 3 seats and a small detour
/// budget, for the expiry churn.
fn expiring_offer(i: u32, depart_s: f64) -> RideOffer {
    let g = graph();
    let n = g.node_count() as u32;
    RideOffer::simple(
        g.point(NodeId((i * 97) % n)),
        g.point(NodeId((i * 181 + n / 2) % n)),
        depart_s,
        3,
        700.0,
    )
}

/// ROADMAP item 5, memory half: expired rides are retired *and leave
/// every list*, so a long expiry-churn run holds runtime memory flat.
/// Each cycle creates a batch of rides, books a few, then advances the
/// clock far enough to complete the previous batch; by mid-run the
/// engine reaches a steady state whose `heap_bytes()` later cycles must
/// not exceed.
#[test]
fn heap_stays_bounded_under_expiry_churn() {
    const CYCLES: u32 = 30;
    const BATCH: u32 = 24;
    const WARMUP: u32 = 8;
    let eng = ShardedXarEngine::new(Arc::clone(region()), EngineConfig::default(), 4);
    let mut high_water = 0usize;
    for cycle in 0..CYCLES {
        let base_s = 8.0 * 3600.0 + f64::from(cycle) * 900.0;
        for i in 0..BATCH {
            let _ = eng.create_ride(&expiring_offer(
                cycle * BATCH + i,
                base_s + f64::from(i) * 10.0,
            ));
        }
        for i in 0..6u32 {
            let mut ms = Vec::new();
            if eng
                .search_into(&request(cycle * 31 + i), 4, &mut ms)
                .is_ok()
            {
                if let Some(mm) = ms.first() {
                    let _ = eng.book_checked(mm);
                }
            }
        }
        // Everything departing before this cycle has long arrived:
        // track retires it and drops the ride's rows.
        eng.track_all(base_s + 900.0 * 2.0);

        let heap = eng.heap_bytes();
        if cycle < WARMUP {
            high_water = high_water.max(heap);
        } else {
            assert!(
                heap <= high_water * 3 / 2,
                "cycle {cycle}: heap {heap} B exceeded 1.5x the warm-up high water \
                 {high_water} B — retired rides are accreting"
            );
        }
        let live = eng.ride_count();
        assert!(
            live <= 3 * BATCH as usize,
            "cycle {cycle}: {live} live rides — expiry is not retiring"
        );
    }
}
