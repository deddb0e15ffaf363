//! Figure 5a — search time vs the number of requested matches `k`,
//! with T-Share's shortest paths replaced by the haversine formula.
//!
//! The paper's point: even with "negligible constant time" distance
//! computation, T-Share's search time grows linearly in `k` while XAR
//! is flat — "higher search time of T-Share is not just because of
//! shortest path calculation, but also due to the way rides are
//! indexed".
//!
//! Protocol: both systems are loaded with the *same frozen pool* of
//! ride offers (no bookings, so the state is identical across all `k`),
//! then the same request set is searched at each `k`. Per-query
//! latencies are recorded into an `xar-obs` registry (one fresh
//! registry per `k`, so the distributions don't mix), and the table
//! reports the registry's p50/p99 instead of a single hand-rolled mean.

use std::sync::Arc;
use std::time::Instant;

use xar_bench::{fmt_time_s, header, row, scale_arg, trace_finish, trace_setup, BenchCity};
use xar_core::{RideOffer, RideRequest};
use xar_obs::Registry;
use xar_tshare::engine::TShareRequest;
use xar_tshare::{DistanceMode, TShareConfig, TShareEngine};

fn main() {
    let scale = scale_arg();
    let trace = trace_setup();
    println!("# Figure 5a — search time vs k (T-Share in haversine mode, scale {scale})\n");
    println!("protocol: frozen 7-9am ride pool, identical for every k; p50/p99 from registry histograms\n");
    let city = BenchCity::standard();
    // A realistic live snapshot: the pool is the 7-9 am departure band
    // (tracking would have retired everything older), queried inside
    // the same band.
    // ~1.5k concurrent rides matches what the tracked simulations keep
    // live on this city; an untracked multi-hour dump would overstate
    // per-cluster density far beyond the paper's setup.
    let offers =
        xar_workload::trips::time_slice(&city.trips(5_000, scale), 7.0 * 3600.0, 9.0 * 3600.0);
    let queries: Vec<_> =
        xar_workload::trips::time_slice(&city.trips(6_000, scale), 7.5 * 3600.0, 8.5 * 3600.0)
            .into_iter()
            .take(2_000)
            .collect();

    // Frozen XAR pool.
    let region = city.region_delta(250.0);
    let mut xar = city.xar(Arc::clone(&region));
    let mut created = 0usize;
    for t in &offers {
        created += usize::from(
            xar.create_ride(&RideOffer::simple(
                t.pickup, t.dropoff, t.pickup_s, 3, 2_000.0,
            ))
            .is_ok(),
        );
    }

    // Frozen T-Share pool (haversine mode).
    // Detour caps scaled to the city: the paper's 4 km on NYC is
    // proportionally ~2 km on this 7 km test region.
    let ts_cfg = TShareConfig {
        grid_cell_m: 1_000.0,
        max_search_cells: 80,
        max_detour_m: 2_000.0,
        distance_mode: DistanceMode::Haversine,
        ..Default::default()
    };
    let mut tshare = TShareEngine::new(Arc::clone(&city.graph), ts_cfg);
    for t in &offers {
        tshare.create_taxi(t.pickup, t.dropoff, t.pickup_s, 3);
    }
    println!(
        "frozen pool: {created} rides; {} queries per k\n",
        queries.len()
    );

    header(&[
        "k",
        "XAR p50",
        "XAR p99",
        "T-Share p50",
        "T-Share p99",
        "T-Share / XAR (mean)",
        "avg matches (T-Share)",
    ]);
    let mut series = Vec::new();
    for k in [1usize, 2, 5, 10, 15, 20, 25] {
        // Fresh registry per k so the per-k latency distributions stay
        // separate.
        let reg = Registry::new();
        let x_hist = reg.histogram("fig5a.xar_search_ns");
        let t_hist = reg.histogram("fig5a.tshare_search_ns");

        // XAR.
        let mut x_matches = 0usize;
        for q in &queries {
            let req = RideRequest {
                source: q.pickup,
                destination: q.dropoff,
                window_start_s: q.pickup_s,
                window_end_s: q.pickup_s + 1_200.0,
                walk_limit_m: 800.0,
            };
            let mut troot = xar_obs::trace::root("request");
            troot.attr("system", "xar");
            troot.attr("k", k as u64);
            let t0 = Instant::now();
            let m = xar.search(&req, k);
            x_hist.record(t0.elapsed().as_nanos() as u64);
            x_matches += m.map_or(0, |m| m.len());
        }

        // T-Share.
        let mut t_matches = 0usize;
        for q in &queries {
            let req = TShareRequest {
                pickup: q.pickup,
                dropoff: q.dropoff,
                window_start_s: q.pickup_s,
                window_end_s: q.pickup_s + 1_200.0,
            };
            let mut troot = xar_obs::trace::root("request");
            troot.attr("system", "tshare");
            troot.attr("k", k as u64);
            let t0 = Instant::now();
            let m = tshare.search(&req, k);
            t_hist.record(t0.elapsed().as_nanos() as u64);
            t_matches += m.len();
        }

        let xs = x_hist.snapshot();
        let ts = t_hist.snapshot();
        series.push((k, xs.mean, ts.mean));
        row(&[
            k.to_string(),
            fmt_time_s(xs.p50 as f64 / 1e9),
            fmt_time_s(xs.p99 as f64 / 1e9),
            fmt_time_s(ts.p50 as f64 / 1e9),
            fmt_time_s(ts.p99 as f64 / 1e9),
            format!("{:.1}x", ts.mean / xs.mean.max(1e-3)),
            format!("{:.1}", t_matches as f64 / queries.len() as f64),
        ]);
        let _ = x_matches;
    }

    let (_, x1, t1) = series[0];
    let (_, xk, tk) = *series.last().expect("non-empty sweep");
    println!(
        "\nshape check: T-Share k=25 / k=1 = {:.1}x (grows with k); XAR k=25 / k=1 = {:.1}x (flat).",
        tk / t1.max(1e-3),
        xk / x1.max(1e-3)
    );
    trace_finish(trace);
}
