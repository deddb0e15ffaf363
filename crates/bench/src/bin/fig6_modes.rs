//! Figure 6 — comparing four transport modes on the same request set:
//! Taxi, Ride Sharing (RS), Public Transport (PT), and Ride Sharing +
//! Public Transport (RS+PT, aider mode).
//!
//! Metrics per mode: average end-to-end travel time, walking time,
//! waiting time, and the number of cars needed to serve the requests.
//! Mode protocols:
//!
//! * **Taxi** — every trip is an individual car driving the shortest
//!   route (metrics read straight off the routing engine, as the paper
//!   reads them "trivially from the data set").
//! * **RS** — the §X.A.2 ride-share simulation on XAR: booked riders
//!   walk to the pick-up landmark, wait for the ride, ride (with the
//!   shared detour), walk from the drop-off; unmatched riders drive
//!   (and offer their seats). Cars = rides created.
//! * **PT** — every trip planned on the transit network.
//! * **RS+PT** — aider mode (§IX.A): PT plans whose individual legs
//!   walk > 1 km or wait > 10 min are repaired with shared rides from
//!   the concurrently running RS pool; commuters whose plan stays
//!   infeasible drive.

use xar_bench::{header, row, scale_arg, BenchCity};
use xar_core::{EngineConfig, RideOffer, RideRequest, XarEngine};
use xar_mmtp::{aid_plan, AiderConfig, ModeQuality};
use xar_roadnet::{ShortestPaths, WALK_SPEED_MPS};
use xar_transit::{generate::generate_transit, TransitGenConfig, TransitRouter, WalkParams};
use xar_workload::Trip;

const WALK_LIMIT_M: f64 = 800.0;
const WINDOW_S: f64 = 1_200.0;
const DETOUR_M: f64 = 4_000.0;

fn minutes(s: f64) -> String {
    format!("{:.1} min", s / 60.0)
}

/// RS protocol: search → book best → else create. Returns quality +
/// cars. Also returns the populated engine when `keep_engine`.
fn run_rs(city: &BenchCity, trips: &[Trip]) -> (ModeQuality, usize) {
    let region = city.region_delta(250.0);
    let mut eng = XarEngine::new(region, EngineConfig::default());
    let sp = ShortestPaths::driving_time(&city.graph);
    let mut q = ModeQuality::default();
    let mut cars = 0usize;
    for trip in trips {
        eng.track_all(trip.pickup_s);
        let req = RideRequest {
            source: trip.pickup,
            destination: trip.dropoff,
            window_start_s: trip.pickup_s,
            window_end_s: trip.pickup_s + WINDOW_S,
            walk_limit_m: WALK_LIMIT_M,
        };
        let booked = eng.search(&req, usize::MAX).ok().and_then(|ms| {
            ms.into_iter()
                .find_map(|m| eng.book_checked(&m).ok().map(|o| (m, o)))
        });
        if let Some((m, out)) = booked {
            let walk_in = m.walk_pickup_m / WALK_SPEED_MPS;
            let walk_out = m.walk_dropoff_m / WALK_SPEED_MPS;
            let arrive_at_pickup = trip.pickup_s + walk_in;
            let wait = (out.pickup_eta_s - arrive_at_pickup).max(0.0);
            let travel = (out.dropoff_eta_s - trip.pickup_s).max(0.0) + walk_out;
            q.trips += 1;
            q.travel_time_s += travel;
            q.walk_time_s += walk_in + walk_out;
            q.wait_time_s += wait;
        } else {
            // Unmatched: drive own car and offer the seats.
            let offer = RideOffer {
                source: trip.pickup,
                destination: trip.dropoff,
                departure_s: trip.pickup_s,
                seats: 3,
                detour_limit_m: DETOUR_M,
                driver: None,
                via: Vec::new(),
            };
            if eng.create_ride(&offer).is_ok() {
                cars += 1;
                let src = eng.region().snap_exact(&trip.pickup);
                let dst = eng.region().snap_exact(&trip.dropoff);
                let drive = sp.path(src, dst).map_or(0.0, |p| p.time_s);
                q.trips += 1;
                q.travel_time_s += drive;
            }
        }
    }
    q.cars_used = cars;
    (q, cars)
}

fn main() {
    let scale = scale_arg();
    println!("# Figure 6 — Taxi vs RS vs PT vs RS+PT (scale {scale})\n");
    let city = BenchCity::standard();
    let trips = city.trips(4_000, scale);
    println!("workload: {} requests\n", trips.len());

    let sp = ShortestPaths::driving_time(&city.graph);
    let net = generate_transit(&city.graph, &TransitGenConfig::default());
    let router = TransitRouter::new(&city.graph, &net, WalkParams::default());

    // ---- Taxi ----
    let locator = xar_roadnet::NodeLocator::new(&city.graph, 250.0);
    let mut taxi = ModeQuality::default();
    for trip in &trips {
        let src = locator.nearest(&city.graph, &trip.pickup).0;
        let dst = locator.nearest(&city.graph, &trip.dropoff).0;
        if let Some(p) = sp.path(src, dst) {
            taxi.trips += 1;
            taxi.travel_time_s += p.time_s;
        }
    }
    taxi.cars_used = taxi.trips;

    // ---- RS ----
    let (rs, rs_cars) = run_rs(&city, &trips);

    // ---- PT ----
    let mut pt = ModeQuality::default();
    for trip in &trips {
        if let Some(plan) = router.plan(&trip.pickup, &trip.dropoff, trip.pickup_s) {
            pt.add_plan(&plan);
        }
    }

    // ---- RS+PT (aider) ----
    let region = city.region_delta(250.0);
    let mut eng = XarEngine::new(region, EngineConfig::default());
    let aider_cfg = AiderConfig {
        max_leg_walk_m: 1_000.0,
        max_leg_wait_s: 600.0,
        ride_walk_limit_m: WALK_LIMIT_M,
        window_s: WINDOW_S,
        book: true,
        max_replacements: 3,
    };
    let mut rspt = ModeQuality::default();
    let mut rspt_cars = 0usize;
    for trip in &trips {
        eng.track_all(trip.pickup_s);
        let base = router.plan(&trip.pickup, &trip.dropoff, trip.pickup_s);
        let plan = base.map(|b| aid_plan(&b, trip.dropoff, &net, &router, &mut eng, &aider_cfg));
        let still_bad = plan
            .as_ref()
            .map(|a| {
                !a.plan
                    .infeasible_legs(aider_cfg.max_leg_walk_m, aider_cfg.max_leg_wait_s)
                    .is_empty()
            })
            .unwrap_or(true);
        if let (Some(aided), false) = (&plan, still_bad) {
            rspt.add_plan(&aided.plan);
        } else {
            // Plan stayed infeasible: the commuter drives and offers
            // seats to the RS+PT pool.
            let offer = RideOffer {
                source: trip.pickup,
                destination: trip.dropoff,
                departure_s: trip.pickup_s,
                seats: 3,
                detour_limit_m: DETOUR_M,
                driver: None,
                via: Vec::new(),
            };
            if eng.create_ride(&offer).is_ok() {
                rspt_cars += 1;
                let src = eng.region().snap_exact(&trip.pickup);
                let dst = eng.region().snap_exact(&trip.dropoff);
                let drive = sp.path(src, dst).map_or(0.0, |p| p.time_s);
                rspt.trips += 1;
                rspt.travel_time_s += drive;
            }
        }
    }
    rspt.cars_used = rspt_cars;

    header(&[
        "mode",
        "trips",
        "avg travel",
        "avg walk",
        "avg wait",
        "cars",
        "cars vs taxi",
    ]);
    for (name, q) in [("Taxi", &taxi), ("RS", &rs), ("PT", &pt), ("RS+PT", &rspt)] {
        row(&[
            name.to_string(),
            q.trips.to_string(),
            minutes(q.avg_travel_time_s()),
            minutes(q.avg_walk_time_s()),
            minutes(q.avg_wait_time_s()),
            q.cars_used.to_string(),
            format!(
                "{:.0}%",
                q.cars_used as f64 / taxi.cars_used.max(1) as f64 * 100.0
            ),
        ]);
    }

    println!(
        "\nshape check (paper): taxi best on time but one car per trip; RS ≈ +30% travel, \
         −64% cars; RS+PT beats PT on walk/travel and uses ~half the cars of RS."
    );
    println!(
        "measured: RS travel/taxi = {:.2}, RS cars/taxi = {:.2}, RS+PT walk/PT = {:.2}, \
         RS+PT travel/PT = {:.2}, RS+PT cars/RS = {:.2}",
        rs.avg_travel_time_s() / taxi.avg_travel_time_s().max(1e-9),
        rs_cars as f64 / taxi.cars_used.max(1) as f64,
        rspt.avg_walk_time_s() / pt.avg_walk_time_s().max(1e-9),
        rspt.avg_travel_time_s() / pt.avg_travel_time_s().max(1e-9),
        rspt_cars as f64 / rs_cars.max(1) as f64,
    );
}
