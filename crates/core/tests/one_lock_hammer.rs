//! Concurrency hammers for the engine handle: one [`XarEngine`] behind
//! one `RwLock`, shared by many threads.
//!
//! * 8 threads of mixed search/book must never overbook a ride (seats
//!   booked ≤ capacity) and must never lose an update (the shared
//!   `engine.bookings` counter equals the number of successful
//!   `book_checked` calls observed by the threads).
//! * 8 threads of create/book beside an expiry churn conserve rides and
//!   never serve an expired one.
//! * 80 readers beside one writer all finish.
//!
//! That the handle decides exactly as the bare engine does is
//! `tests/handle_equivalence.rs`.
//!
//! [`XarEngine`]: xar_core::XarEngine

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use xar_core::{EngineConfig, RideMatch, RideOffer, RideRequest, ShardedXarEngine, XarError};
use xar_discretize::{ClusterGoal, RegionConfig, RegionIndex};
use xar_roadnet::{sample_pois, CityConfig, NodeId, PoiConfig, RoadGraph};

/// One shared region per test binary: building it is the expensive part
/// and it is immutable.
fn region() -> &'static Arc<RegionIndex> {
    use std::sync::OnceLock;
    static REGION: OnceLock<Arc<RegionIndex>> = OnceLock::new();
    REGION.get_or_init(|| {
        let graph = Arc::new(CityConfig::manhattan(25, 25, 4242).generate());
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

fn offer(i: u32, seats: u8) -> RideOffer {
    let g = graph();
    let n = g.node_count() as u32;
    RideOffer::simple(
        g.point(NodeId((i * 97) % n)),
        g.point(NodeId((i * 181 + n / 2) % n)),
        8.0 * 3600.0 + f64::from(i % 40) * 45.0,
        seats,
        3_500.0,
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

/// Up to `limit` matches of `req` through the handle.
fn search(
    eng: &ShardedXarEngine,
    req: &RideRequest,
    limit: usize,
) -> Result<Vec<RideMatch>, XarError> {
    let mut out = Vec::new();
    eng.search_into(req, limit, &mut out).map(|()| out)
}

/// 8 threads of mixed search/book: no overbooking, no lost updates.
#[test]
fn hammer_never_overbooks_and_loses_no_updates() {
    const THREADS: u32 = 8;
    const SEATS: u8 = 2;
    let eng = ShardedXarEngine::new(Arc::clone(region()), EngineConfig::default(), 4);
    let mut created = 0u32;
    for i in 0..48 {
        if eng.create_ride(&offer(i, SEATS)).is_ok() {
            created += 1;
        }
    }
    assert!(
        created >= 20,
        "seed must produce a populated engine, got {created}"
    );

    // Every thread searches and books aggressively; successful books
    // are tallied on the side so the engine's counter can be audited
    // against ground truth.
    let booked_ok = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let eng = eng.clone();
            let booked_ok = &booked_ok;
            scope.spawn(move || {
                for j in 0..60u32 {
                    let req = request(t * 1_000 + j);
                    let Ok(matches) = search(&eng, &req, 4) else {
                        continue;
                    };
                    for m in &matches {
                        if eng.book_checked(m).is_ok() {
                            booked_ok.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            });
        }
    });

    // No overbooking: every ride's bookings + free seats equals its
    // offered capacity, and bookings never exceed it.
    let mut rides_seen = 0usize;
    eng.for_each_ride(|r| {
        rides_seen += 1;
        assert!(
            r.bookings.len() <= usize::from(SEATS),
            "ride {:?} overbooked: {} bookings on {SEATS} seats",
            r.id,
            r.bookings.len()
        );
        assert_eq!(
            r.bookings.len() + usize::from(r.seats_available),
            usize::from(SEATS),
            "ride {:?} seat accounting drifted",
            r.id
        );
    });
    assert_eq!(rides_seen, created as usize, "no rides lost or duplicated");

    // No lost updates: the shared counter saw exactly the successful
    // books, and search traffic was all counted.
    let s = eng.read().stats().snapshot();
    assert_eq!(s.bookings, booked_ok.load(Ordering::Relaxed));
    assert_eq!(s.searches, u64::from(THREADS) * 60);
    assert!(
        booked_ok.load(Ordering::Relaxed) > 0,
        "hammer must actually book"
    );
}

/// 8 threads of create/book under concurrent expiry churn: ride
/// accounting must conserve (creates − retirements = live rides) and
/// search must never serve an expired ride — once a
/// `track_all(now)` has returned (every retirement done), no
/// later search may produce a match whose pickup ETA lies behind
/// `now`. A shared watermark, advanced only *after* `track_all`
/// returns, turns that into a per-match assertion; the slack absorbs
/// entries inside a not-yet-crossed cluster (bounded by the cluster
/// traversal time, far below the 600 s granularity of the churn).
#[test]
fn booking_storm_with_expiry_churn_conserves_rides() {
    const THREADS: u32 = 8;
    const ROUNDS: u32 = 50;
    const SLACK_S: f64 = 300.0;
    let eng = ShardedXarEngine::new(Arc::clone(region()), EngineConfig::default(), 4);
    let created = AtomicU64::new(0);
    let retired = AtomicU64::new(0);
    let booked = AtomicU64::new(0);
    // Highest time the engine is *known* tracked to (f64 seconds as
    // bits; times are non-negative so the bit pattern orders like the
    // float). Starts one churn period before the first sweep (round 4,
    // 08:06), so the first advance is no longer than any other.
    let watermark = AtomicU64::new((8.0 * 3600.0 + 4.0 * 90.0 - 450.0f64).to_bits());
    // Orders watermark advances against in-flight creates (see below).
    let gate = std::sync::RwLock::new(());

    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let eng = eng.clone();
            let (created, retired, booked, watermark, gate) =
                (&created, &retired, &booked, &watermark, &gate);
            scope.spawn(move || {
                for j in 0..ROUNDS {
                    let seed = t * 10_000 + j;
                    // Departures advance with the rounds AND stay ahead
                    // of the current watermark: a thread lagging behind
                    // the churn must not create a ride that departs in
                    // the already-tracked past — such a ride is
                    // legitimately live, yet its pickup ETAs would sit
                    // behind the floor the assertion below checks. The
                    // create holds the gate's read side from loading
                    // the watermark to its return, so the watermark can
                    // advance at most once under it (the sweep of that
                    // advance may already be running and miss the new
                    // ride); the +900 s headroom exceeds that one churn
                    // period (450 s), and every later sweep starts
                    // after the create returned and tracks the ride.
                    let g = graph();
                    let n = g.node_count() as u32;
                    let create = {
                        let _in_flight = gate.read().unwrap();
                        let floor_now = f64::from_bits(watermark.load(Ordering::Acquire));
                        let depart = (8.0 * 3600.0 + f64::from(j) * 90.0).max(floor_now + 900.0)
                            + f64::from(t) * 7.0;
                        eng.create_ride(&RideOffer::simple(
                            g.point(NodeId((seed * 97) % n)),
                            g.point(NodeId((seed * 181 + n / 2) % n)),
                            depart,
                            2,
                            3_500.0,
                        ))
                    };
                    if create.is_ok() {
                        created.fetch_add(1, Ordering::Relaxed);
                    }

                    let floor = f64::from_bits(watermark.load(Ordering::Acquire));
                    if let Ok(ms) = search(&eng, &request(seed), 4) {
                        for m in &ms {
                            assert!(
                                m.eta_pickup_s >= floor - SLACK_S,
                                "expired ride served: pickup ETA {:.0} s behind the \
                                 {floor:.0} s tracking watermark",
                                m.eta_pickup_s,
                            );
                            if eng.book_checked(m).is_ok() {
                                booked.fetch_add(1, Ordering::Relaxed);
                                break;
                            }
                        }
                    }

                    // One thread churns expiry; watermark moves only
                    // after track_all has retired, and
                    // only while no create is in flight. The sweep
                    // itself runs outside the gate: writers are never
                    // serialised against it.
                    if t == 0 && j % 5 == 4 {
                        let now = 8.0 * 3600.0 + f64::from(j) * 90.0;
                        retired.fetch_add(eng.track_all(now) as u64, Ordering::Relaxed);
                        let _advance = gate.write().unwrap();
                        watermark.fetch_max(now.to_bits(), Ordering::Release);
                    }
                }
            });
        }
    });

    // Conservation: every created ride is either still live or was
    // retired by the churn — none lost, none duplicated.
    let final_retired = retired.load(Ordering::Relaxed) + eng.track_all(12.0 * 3600.0) as u64;
    let mut live = 0u64;
    eng.for_each_ride(|_| live += 1);
    assert_eq!(
        created.load(Ordering::Relaxed),
        final_retired + live,
        "ride conservation broke: {} created, {} retired, {} live",
        created.load(Ordering::Relaxed),
        final_retired,
        live
    );
    assert_eq!(live as usize, eng.ride_count());
    assert!(
        booked.load(Ordering::Relaxed) > 0,
        "storm must actually book"
    );
}

/// 80 reader threads search at once while one writer creates, books
/// and tracks: every reader finishes (readers share the read lock, and
/// the writer takes the write lock between them), every match
/// it saw is well-formed, and rides are conserved.
#[test]
fn eighty_concurrent_readers_all_finish_beside_a_writer() {
    const READERS: u32 = 80;
    const SEARCHES: u32 = 40;
    const WRITES: u32 = 120;
    let eng = ShardedXarEngine::new(Arc::clone(region()), EngineConfig::default(), 4);
    for i in 0..24 {
        let _ = eng.create_ride(&offer(i, 3));
    }
    let all_started = std::sync::Barrier::new(READERS as usize + 1);
    let searched = AtomicU64::new(0);
    let (mut created, mut retired) = (eng.ride_count() as u64, 0u64);
    std::thread::scope(|scope| {
        for t in 0..READERS {
            let eng = eng.clone();
            let (all_started, searched) = (&all_started, &searched);
            scope.spawn(move || {
                all_started.wait();
                let mut out = Vec::new();
                for j in 0..SEARCHES {
                    let req = request(t * 1_000 + j);
                    if eng.search_into(&req, 8, &mut out).is_ok() {
                        for m in &out {
                            assert!(m.walk_total_m() <= 2.0 * req.walk_limit_m + 1e-6);
                            assert!(m.eta_dropoff_s > m.eta_pickup_s);
                        }
                    }
                    searched.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
        all_started.wait();
        for j in 0..WRITES {
            match j % 3 {
                0 => created += u64::from(eng.create_ride(&offer(100 + j, 3)).is_ok()),
                1 => {
                    if let Ok(ms) = search(&eng, &request(j), 1) {
                        let _ = ms.first().map(|m| eng.book_checked(m));
                    }
                }
                _ => retired += eng.track_all(8.0 * 3600.0 + f64::from(j) * 20.0) as u64,
            }
        }
    });
    assert_eq!(
        searched.load(Ordering::Relaxed),
        u64::from(READERS * SEARCHES)
    );
    assert!(
        retired > 0,
        "the writer's sweeps must retire rides under the readers"
    );
    assert_eq!(
        created,
        retired + eng.ride_count() as u64,
        "ride conservation broke"
    );
}
