//! Golden decisions: the booked / created / unservable decision of every
//! request of two small fixed runs, pinned as one digest per engine.
//!
//! A refactor of search, booking, the index or the driver must leave
//! these digests as they are. A change that means to move a decision
//! (an estimator fix, a new booking constraint) updates the constant in
//! the same change and says why.
//!
//! The digest is FNV-1a over `(trip id, outcome code, ride id)` in
//! replay order, with the request-path benchmark's outcome codes:
//! 1 booked, 2 created, 3 neither. `SimReport` does not keep the id of
//! a created ride, so created and unservable requests hash ride id 0.

use std::sync::Arc;

use xhare_a_ride::core::{EngineConfig, ShardedXarEngine, XarEngine};
use xhare_a_ride::discretize::{ClusterGoal, RegionConfig, RegionIndex};
use xhare_a_ride::roadnet::{sample_pois, CityConfig, PoiConfig};
use xhare_a_ride::workload::{
    generate_trips, run_simulation, DecisionOutcome, ShardedXarBackend, SimConfig, SimReport,
    TripGenConfig, XarBackend,
};

fn digest(report: &SimReport) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for d in &report.decisions {
        let (code, ride) = match d.outcome {
            DecisionOutcome::Booked { ride } => (1, ride),
            DecisionOutcome::Created => (2, 0),
            DecisionOutcome::Unservable => (3, 0),
        };
        for word in [d.trip_id, code, ride] {
            for b in word.to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    h
}

/// Replay `trips` trips on a `side × side` city, built the way the
/// request-path benchmark builds its cities, through the serial engine
/// and through a 2-shard engine. Returns the two digests.
fn digests(side: usize, trips: usize) -> [u64; 2] {
    let graph = Arc::new(CityConfig::manhattan(side, side, 1).generate());
    let pois = sample_pois(
        &graph,
        &PoiConfig {
            count: side * side / 2,
            ..Default::default()
        },
    );
    let region = Arc::new(RegionIndex::build(
        Arc::clone(&graph),
        &pois,
        RegionConfig {
            landmark_separation_m: 220.0,
            cluster_goal: ClusterGoal::Delta(250.0),
            max_walk_m: 1_000.0,
            ..Default::default()
        },
    ));
    let trips = generate_trips(
        &graph,
        &TripGenConfig {
            count: trips,
            seed: 7,
            ..Default::default()
        },
    );
    let cfg = SimConfig::default();

    let mut serial = XarBackend::new(XarEngine::new(Arc::clone(&region), EngineConfig::default()));
    let serial = run_simulation(&mut serial, &trips, &cfg);
    let mut sharded =
        ShardedXarBackend::new(ShardedXarEngine::new(region, EngineConfig::default(), 2));
    let sharded = run_simulation(&mut sharded, &trips, &cfg);

    [&serial, &sharded].map(|r| {
        assert_eq!(r.decisions.len(), trips.len(), "one decision per request");
        assert!(
            r.booked > 0 && r.created > 0,
            "the run pins both kinds of decision"
        );
        digest(r)
    })
}

fn assert_pinned(got: [u64; 2], want: [u64; 2]) {
    assert_eq!(
        got.map(|d| format!("{d:#018x}")),
        want.map(|d| format!("{d:#018x}")),
        "[serial, 2-shard sharded] decision digests moved"
    );
}

/// Dense demand on a small city, as in the `day` workload.
#[test]
fn day_shaped_decisions_are_pinned() {
    assert_pinned(
        digests(24, 3_000),
        [0x1219_0c57_780b_5474, 0x087f_c2eb_95fd_761e],
    );
}

/// Sparse demand with long routes on a city twice as wide, as in the
/// `metro` workload.
#[test]
fn metro_shaped_decisions_are_pinned() {
    assert_pinned(
        digests(48, 1_500),
        [0xfe24_441a_223a_a41f, 0x9812_89d0_002d_844d],
    );
}
