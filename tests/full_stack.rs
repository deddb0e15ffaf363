//! Full-stack integration tests spanning every crate: pre-processing →
//! runtime → baseline → simulation → MMTP integration.

use std::sync::Arc;

use xhare_a_ride::core::{EngineConfig, XarEngine};
use xhare_a_ride::discretize::{ClusterGoal, ClusterId, RegionConfig, RegionIndex};
use xhare_a_ride::roadnet::{sample_pois, CityConfig, PoiConfig};
use xhare_a_ride::tshare::{TShareConfig, TShareEngine};
use xhare_a_ride::workload::{
    generate_trips, run_simulation, SimConfig, TShareBackend, TripGenConfig, XarBackend,
};

fn city() -> Arc<xhare_a_ride::roadnet::RoadGraph> {
    Arc::new(CityConfig::manhattan(35, 35, 4242).generate())
}

fn region(graph: &Arc<xhare_a_ride::roadnet::RoadGraph>) -> Arc<RegionIndex> {
    let pois = sample_pois(
        graph,
        &PoiConfig {
            count: 900,
            ..Default::default()
        },
    );
    Arc::new(RegionIndex::build(
        Arc::clone(graph),
        &pois,
        RegionConfig {
            cluster_goal: ClusterGoal::Delta(200.0),
            ..Default::default()
        },
    ))
}

#[test]
fn end_to_end_day_preserves_every_invariant() {
    let graph = city();
    let reg = region(&graph);
    let trips = generate_trips(
        &graph,
        &TripGenConfig {
            count: 800,
            ..Default::default()
        },
    );
    let mut backend = XarBackend::new(XarEngine::new(Arc::clone(&reg), EngineConfig::default()));
    let report = run_simulation(&mut backend, &trips, &SimConfig::default());

    // Conservation: every trip is accounted for.
    assert_eq!(
        report.booked + report.created + report.unservable,
        trips.len() as u64
    );

    let eng = &backend.engine;
    // Invariant 1: seats never negative, bookings per ride <= offered seats.
    for ride in eng.rides() {
        assert!(ride.bookings.len() <= 3);
        assert_eq!(ride.seats_available as usize + ride.bookings.len(), 3);
        // Invariant 2: detour accounting is exact.
        let total: f64 = ride.bookings.iter().map(|b| b.detour_m).sum();
        assert!((total - ride.detour_used_m).abs() < 1e-6);
        // Invariant 3: via-points ordered and on the route.
        for w in ride.via_points.windows(2) {
            assert!(w[0] <= w[1]);
        }
        assert_eq!(ride.via_points.last(), Some(&(ride.route.len() - 1)));
    }

    // Invariant 4: the cluster index is exactly the union of the rides'
    // pass-through + reachable cluster sets.
    let mut expected = std::collections::HashSet::new();
    for ride in eng.rides() {
        for p in &ride.pass_clusters {
            expected.insert((p.cluster, ride.id));
            for &(c, _, _) in &p.reachable {
                expected.insert((c, ride.id));
            }
        }
    }
    let mut actual = std::collections::HashSet::new();
    for c in 0..eng.region().cluster_count() as u32 {
        for e in eng.index().entries_of(ClusterId(c)) {
            actual.insert((ClusterId(c), e.ride));
        }
    }
    assert_eq!(actual, expected, "index diverged from ride state");

    // Invariant 5: walking limits were honoured for every booking.
    for w in &report.walk_m {
        assert!(*w <= 800.0 + 1e-9);
    }
}

#[test]
fn quality_guarantee_holds_across_a_day() {
    let graph = city();
    let reg = region(&graph);
    let eps = reg.epsilon_m();
    let trips = generate_trips(
        &graph,
        &TripGenConfig {
            count: 600,
            seed: 5,
            ..Default::default()
        },
    );
    let mut backend = XarBackend::new(XarEngine::new(reg, EngineConfig::default()));
    let report = run_simulation(&mut backend, &trips, &SimConfig::default());
    assert!(
        report.booked > 20,
        "not enough bookings to evaluate quality"
    );
    // The limit-excess distribution must be overwhelmingly within the
    // theorem's neighbourhood: median 0, majority below eps.
    let excess = &report.detour_excess_m;
    let zero = excess.iter().filter(|&&e| e == 0.0).count() as f64 / excess.len() as f64;
    let within_eps = excess.iter().filter(|&&e| e <= eps).count() as f64 / excess.len() as f64;
    assert!(
        zero >= 0.5,
        "limit held for only {:.0}% of bookings",
        zero * 100.0
    );
    assert!(
        within_eps >= 0.8,
        "only {:.0}% within eps",
        within_eps * 100.0
    );
}

#[test]
fn xar_and_tshare_find_overlapping_supply() {
    // Consistency: the two systems, fed the same offers, should agree
    // that supply exists; XAR must not hallucinate matches where the
    // grid baseline finds dozens, nor vice versa.
    let graph = city();
    let reg = region(&graph);
    let trips = generate_trips(
        &graph,
        &TripGenConfig {
            count: 500,
            seed: 6,
            ..Default::default()
        },
    );

    let mut xar = XarBackend::new(XarEngine::new(reg, EngineConfig::default()));
    let rx = run_simulation(&mut xar, &trips, &SimConfig::default());
    let mut ts = TShareBackend::new(TShareEngine::new(
        Arc::clone(&graph),
        TShareConfig {
            grid_cell_m: 500.0,
            ..Default::default()
        },
    ));
    let rt = run_simulation(&mut ts, &trips, &SimConfig::default());

    let (sx, st) = (rx.share_rate(), rt.share_rate());
    assert!(
        sx > 0.05 && st > 0.05,
        "share rates collapsed: XAR {sx:.2}, T-Share {st:.2}"
    );
    assert!(
        (sx - st).abs() < 0.5,
        "systems disagree wildly on supply: XAR {sx:.2} vs T-Share {st:.2}"
    );
}

#[test]
fn search_latency_dominates_baseline_by_an_order_of_magnitude() {
    // The headline claim, as a coarse integration-level check (exact
    // numbers live in the bench harnesses): XAR total search time must
    // be at least 10x cheaper than T-Share's on the same workload.
    let graph = city();
    let reg = region(&graph);
    let trips = generate_trips(
        &graph,
        &TripGenConfig {
            count: 400,
            seed: 7,
            ..Default::default()
        },
    );
    let mut xar = XarBackend::new(XarEngine::new(reg, EngineConfig::default()));
    let rx = run_simulation(&mut xar, &trips, &SimConfig::default());
    let mut ts = TShareBackend::new(TShareEngine::new(
        Arc::clone(&graph),
        TShareConfig::default(),
    ));
    let rt = run_simulation(&mut ts, &trips, &SimConfig::default());
    assert!(
        rt.total_search_s() > 10.0 * rx.total_search_s(),
        "XAR search {:.4}s vs T-Share {:.4}s — advantage below 10x",
        rx.total_search_s(),
        rt.total_search_s()
    );
}

#[test]
fn tracking_keeps_index_bounded_over_the_day() {
    let graph = city();
    let reg = region(&graph);
    let trips = generate_trips(
        &graph,
        &TripGenConfig {
            count: 700,
            seed: 8,
            ..Default::default()
        },
    );
    let mut backend = XarBackend::new(XarEngine::new(reg, EngineConfig::default()));
    let _ = run_simulation(&mut backend, &trips, &SimConfig::default());
    // Sweep far past the last arrival: everything must retire.
    backend.engine.track_all(86_400.0 * 2.0);
    assert_eq!(
        backend.engine.ride_count(),
        0,
        "rides outlived their routes"
    );
    assert_eq!(backend.engine.index().len(), 0, "index entries leaked");
}
