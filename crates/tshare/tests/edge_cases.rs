//! Edge-case tests for the T-Share baseline: degenerate requests,
//! expansion caps, haversine-mode consistency.

use std::sync::Arc;

use xar_roadnet::{CityConfig, NodeId, RoadGraph};
use xar_tshare::engine::TShareRequest;
use xar_tshare::{DistanceMode, TShareConfig, TShareEngine};

fn graph() -> Arc<RoadGraph> {
    Arc::new(CityConfig::manhattan(30, 30, 77).generate())
}

#[test]
fn search_with_no_taxis_is_empty_and_cheap() {
    let eng = TShareEngine::new(graph(), TShareConfig::default());
    let g = eng.graph();
    let req = TShareRequest {
        pickup: g.point(NodeId(0)),
        dropoff: g.point(NodeId(10)),
        window_start_s: 0.0,
        window_end_s: 3_600.0,
    };
    assert!(eng.search(&req, usize::MAX).is_empty());
    // No shortest paths wasted when there is nothing to check.
    assert_eq!(
        eng.stats()
            .shortest_paths
            .load(std::sync::atomic::Ordering::Relaxed),
        0
    );
}

#[test]
fn expansion_cap_limits_match_radius() {
    // A tiny cap must prevent matching a taxi whose route stays far
    // from the pick-up point.
    let g = graph();
    let n = g.node_count() as u32;
    let tight = TShareConfig {
        grid_cell_m: 300.0,
        max_search_cells: 1,
        ..Default::default()
    };
    let mut eng = TShareEngine::new(Arc::clone(&g), tight);
    // Taxi along the east edge; request from the west edge.
    let east_lo = g.point(NodeId(n - 2));
    let east_hi = g.point(NodeId(n / 2 + 28));
    eng.create_taxi(east_lo, east_hi, 8.0 * 3600.0, 3).unwrap();
    let req = TShareRequest {
        pickup: g.point(NodeId(0)),
        dropoff: g.point(NodeId(30)),
        window_start_s: 7.5 * 3600.0,
        window_end_s: 9.0 * 3600.0,
    };
    assert!(
        eng.search(&req, usize::MAX).is_empty(),
        "1-cell cap cannot reach a taxi across the city"
    );
}

#[test]
fn k_zero_returns_nothing() {
    let g = graph();
    let n = g.node_count() as u32;
    let mut eng = TShareEngine::new(Arc::clone(&g), TShareConfig::default());
    eng.create_taxi(g.point(NodeId(0)), g.point(NodeId(n - 1)), 8.0 * 3600.0, 3)
        .unwrap();
    let req = TShareRequest {
        pickup: g.point(NodeId(n / 2)),
        dropoff: g.point(NodeId(n - 1)),
        window_start_s: 7.5 * 3600.0,
        window_end_s: 9.0 * 3600.0,
    };
    assert!(eng.search(&req, 0).is_empty());
}

#[test]
fn haversine_and_sp_modes_agree_on_match_existence() {
    // Haversine underestimates road distances, so it may admit a few
    // more matches — but a match found under shortest paths should
    // almost always be found under haversine too (same candidate
    // generation, looser feasibility).
    let g = graph();
    let n = g.node_count() as u32;
    let mk = |mode| {
        let mut eng = TShareEngine::new(
            Arc::clone(&g),
            TShareConfig {
                distance_mode: mode,
                ..Default::default()
            },
        );
        for i in 0..20u32 {
            eng.create_taxi(
                g.point(NodeId((i * 97) % n)),
                g.point(NodeId((i * 41 + n / 2) % n)),
                8.0 * 3600.0 + f64::from(i) * 60.0,
                3,
            );
        }
        eng
    };
    let sp_eng = mk(DistanceMode::ShortestPath);
    let hv_eng = mk(DistanceMode::Haversine);
    let mut agree = 0;
    let mut total = 0;
    for i in 0..30u32 {
        let req = TShareRequest {
            pickup: g.point(NodeId((i * 53) % n)),
            dropoff: g.point(NodeId((i * 149 + n / 3) % n)),
            window_start_s: 7.5 * 3600.0,
            window_end_s: 9.5 * 3600.0,
        };
        let sp_found: std::collections::HashSet<_> = sp_eng
            .search(&req, usize::MAX)
            .iter()
            .map(|m| m.taxi)
            .collect();
        let hv_found: std::collections::HashSet<_> = hv_eng
            .search(&req, usize::MAX)
            .iter()
            .map(|m| m.taxi)
            .collect();
        total += sp_found.len();
        agree += sp_found.intersection(&hv_found).count();
    }
    assert!(total > 0, "fixture produced no matches at all");
    assert!(
        agree as f64 >= total as f64 * 0.8,
        "haversine mode lost too many SP matches: {agree}/{total}"
    );
}

#[test]
fn departed_taxi_cells_shrink_monotonically() {
    let g = graph();
    let n = g.node_count() as u32;
    let mut eng = TShareEngine::new(
        Arc::clone(&g),
        TShareConfig {
            grid_cell_m: 300.0,
            ..Default::default()
        },
    );
    let id = eng
        .create_taxi(g.point(NodeId(0)), g.point(NodeId(n - 1)), 8.0 * 3600.0, 3)
        .unwrap();
    let dur = eng.taxi(id).unwrap().route.duration_s();
    let mut prev = eng.taxi(id).unwrap().cells.len();
    for frac in [0.2, 0.4, 0.6, 0.8] {
        eng.track_all(8.0 * 3600.0 + dur * frac);
        let now = eng.taxi(id).unwrap().cells.len();
        assert!(now <= prev, "cells grew during tracking: {now} > {prev}");
        prev = now;
    }
    eng.track_all(8.0 * 3600.0 + dur + 1.0);
    assert!(eng.taxi(id).is_none());
}
