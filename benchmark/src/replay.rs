//! The closed-loop driver: one client thread replays the paper's
//! §X.A.2 protocol against the engine's public API, issuing the next
//! trip when the previous one has its outcome.

use std::time::Instant;

use crate::adapter::{Engine, RideMatch, Series, Trip, MAX_SP_PER_BOOKING};
use crate::spec::TRACK_EVERY_S;
use crate::trace::{Layer, Span, NO_PARENT};

/// Searches of the closing block that must compute no shortest path.
const CLOSING_SEARCHES: usize = 1_000;

pub struct Inputs<'a> {
    /// The day's trips in pick-up-time order.
    pub trips: &'a [Trip],
    /// Extra searches per request.
    pub looks: usize,
    /// `looks` trip indices per request: whose pick-up each look uses.
    pub look_from: &'a [u32],
    /// Leading requests excluded from samples and the throughput clock.
    pub warmup: usize,
}

/// The engine's public series the per-layer metrics read.
#[derive(Clone, Copy, Default)]
pub struct EngineSeries {
    pub sp: Series,
    pub publish: Series,
    pub dirty_clusters: Series,
    pub write_hold: Series,
}

impl EngineSeries {
    fn read(engine: &Engine) -> Self {
        Self {
            sp: engine.series("engine.sp_ns"),
            publish: engine.series("engine.snapshot_publish_ns"),
            dirty_clusters: engine.series("snapshot.dirty_clusters"),
            write_hold: engine.series("lock.write_hold_ns"),
        }
    }

    fn since(self, earlier: Self) -> Self {
        Self {
            sp: self.sp.since(earlier.sp),
            publish: self.publish.since(earlier.publish),
            dirty_clusters: self.dirty_clusters.since(earlier.dirty_clusters),
            write_hold: self.write_hold.since(earlier.write_hold),
        }
    }
}

/// Everything one pass over the trips measured. Latency samples, call
/// counts and `series` cover the timed section (after the warm-up);
/// outcomes, quality sums and the digest cover the whole replay.
#[derive(Default)]
pub struct Pass {
    pub wall_ns: u64,
    pub request_ns: Vec<u64>,
    pub search_ns: Vec<u64>,
    /// Matches returned by each timed search, parallel to `search_ns`.
    pub search_matches: Vec<u32>,
    pub book_ns: Vec<u64>,
    pub create_ns: Vec<u64>,
    pub track_ns: Vec<u64>,
    pub book_failed: u64,
    pub create_failed: u64,
    pub retired: u64,
    /// Live rides at each timed tracking sweep.
    pub live_rides: Vec<usize>,
    /// `heap_bytes()` at each timed tracking sweep.
    pub index_heap_bytes: Vec<usize>,
    pub series: EngineSeries,

    pub requests: u64,
    pub booked: u64,
    pub created: u64,
    /// Requests that ended neither booked nor created.
    pub failed: u64,
    pub walk_sum_m: f64,
    pub detour_sum_m: f64,
    pub booking_sp_sum: u64,
    /// Bookings that reported more shortest paths than the paper allows.
    pub booking_sp_over_limit: u64,
    /// FNV-1a over (trip id, outcome, ride id) in replay order.
    pub decisions_digest: u64,

    /// `engine.sp_ns` samples recorded during the closing search block.
    pub sp_calls_in_search: u64,
    pub overbooked_rides: usize,
    /// One span per call into a layer (traced passes only).
    pub spans: Vec<Span>,
}

struct Digest(u64);

impl Digest {
    fn push(&mut self, word: u64) {
        for b in word.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Replay `inputs` through a fresh `engine`. With `traced`, every call
/// into a layer is also recorded as a span; the two kinds of pass read
/// the clock at the same places.
pub fn replay(engine: &Engine, inputs: &Inputs, traced: bool) -> Pass {
    let Inputs {
        trips,
        looks,
        look_from,
        warmup,
    } = *inputs;
    assert_eq!(look_from.len(), trips.len() * looks);
    let timed_requests = trips.len() - warmup;
    let mut p = Pass {
        request_ns: Vec::with_capacity(timed_requests),
        search_ns: Vec::with_capacity(timed_requests * (looks + 1)),
        search_matches: Vec::with_capacity(timed_requests * (looks + 1)),
        book_ns: Vec::with_capacity(timed_requests),
        create_ns: Vec::with_capacity(timed_requests),
        spans: Vec::with_capacity(if traced { trips.len() * (looks + 3) } else { 0 }),
        ..Pass::default()
    };
    let mut digest = Digest(0xcbf2_9ce4_8422_2325);
    let mut matches: Vec<RideMatch> = Vec::with_capacity(256);
    let mut next_track = trips.first().map_or(0.0, |t| t.pickup_s);
    let mut series_at_warmup = EngineSeries::default();
    let mut timed_from_ns = 0;

    let clock = Instant::now();
    let now = || clock.elapsed().as_nanos() as u64;
    for (i, trip) in trips.iter().enumerate() {
        let timed = i >= warmup;
        if i == warmup {
            series_at_warmup = EngineSeries::read(engine);
            timed_from_ns = now();
        }
        let request = i as u32;
        let root = p.spans.len() as u32;
        let request_start = now();
        if traced {
            p.spans.push(Span {
                layer: Layer::Request,
                start_ns: request_start,
                end_ns: request_start,
                parent: NO_PARENT,
                request,
            });
        }
        let call = |p: &mut Pass, layer: Layer, start_ns: u64, end_ns: u64| {
            if traced {
                p.spans.push(Span {
                    layer,
                    start_ns,
                    end_ns,
                    parent: root,
                    request,
                });
            }
            if timed {
                let ns = end_ns - start_ns;
                match layer {
                    Layer::Track => p.track_ns.push(ns),
                    Layer::Search => p.search_ns.push(ns),
                    Layer::Book => p.book_ns.push(ns),
                    Layer::Create => p.create_ns.push(ns),
                    Layer::Request => unreachable!("the loop closes request spans itself"),
                }
            }
        };

        while trip.pickup_s >= next_track {
            let t0 = now();
            let retired = engine.track(next_track);
            call(&mut p, Layer::Track, t0, now());
            if timed {
                p.retired += retired as u64;
                p.live_rides.push(engine.ride_count());
                p.index_heap_bytes.push(engine.heap_bytes());
            }
            next_track += TRACK_EVERY_S;
        }

        for &from in &look_from[i * looks..(i + 1) * looks] {
            let t0 = now();
            engine.search(&trips[from as usize], trip, &mut matches);
            call(&mut p, Layer::Search, t0, now());
            if timed {
                p.search_matches.push(matches.len() as u32);
            }
        }
        let t0 = now();
        engine.search(trip, trip, &mut matches);
        call(&mut p, Layer::Search, t0, now());
        if timed {
            p.search_matches.push(matches.len() as u32);
        }

        // Outcome codes of the digest: 1 booked, 2 created, 3 failed.
        let mut outcome = (3u64, 0u64);
        for m in &matches {
            let t0 = now();
            let booked = engine.book(m);
            call(&mut p, Layer::Book, t0, now());
            match booked {
                Some(b) => {
                    p.booked += 1;
                    p.walk_sum_m += b.walk_m;
                    p.detour_sum_m += b.detour_m;
                    p.booking_sp_sum += b.shortest_paths as u64;
                    p.booking_sp_over_limit += u64::from(b.shortest_paths > MAX_SP_PER_BOOKING);
                    outcome = (1, b.ride);
                    break;
                }
                None => p.book_failed += u64::from(timed),
            }
        }
        if outcome.0 == 3 {
            let t0 = now();
            let created = engine.create(trip);
            call(&mut p, Layer::Create, t0, now());
            match created {
                Some(ride) => {
                    p.created += 1;
                    outcome = (2, ride);
                }
                None => {
                    p.failed += 1;
                    p.create_failed += u64::from(timed);
                }
            }
        }
        let request_end = now();
        if traced {
            p.spans[root as usize].end_ns = request_end;
        }
        if timed {
            p.request_ns.push(request_end - request_start);
        }
        p.requests += 1;
        digest.push(trip.id);
        digest.push(outcome.0);
        digest.push(outcome.1);
    }
    p.wall_ns = now() - timed_from_ns;
    p.series = EngineSeries::read(engine).since(series_at_warmup);
    p.decisions_digest = digest.0;

    // The paper's defining property, checked from outside: a block of
    // searches leaves the shortest-path series where it was.
    let sp_before = engine.series("engine.sp_ns").count;
    for trip in &trips[trips.len().saturating_sub(CLOSING_SEARCHES)..] {
        engine.search(trip, trip, &mut matches);
    }
    p.sp_calls_in_search = engine.series("engine.sp_ns").count - sp_before;
    p.overbooked_rides = engine.overbooked_rides();
    p
}
