//! Figure 5b — total processing time vs the look-to-book ratio `r`.
//!
//! Each booked request is preceded by `r` search operations (the MMTP
//! integration generates many looks per booking, §IX; the Go-LA data
//! puts the realistic ratio near 480). The paper's result: T-Share
//! wins at r = 1 but degrades much faster — at r = 1000 it takes ~42 s
//! where XAR takes ~1 s.
//!
//! Per-search p50/p99 come from the simulator's `sim.search_ns`
//! histogram in the run's metrics registry (fresh backends per `r`, so
//! each run has its own registry).

use std::sync::Arc;

use xar_bench::{fmt_time_s, header, row, scale_arg, trace_finish, trace_setup, BenchCity};
use xar_tshare::{TShareConfig, TShareEngine};
use xar_workload::{run_simulation, SimConfig, TShareBackend, XarBackend};

fn main() {
    let scale = scale_arg();
    let trace = trace_setup();
    println!("# Figure 5b — total query time vs look-to-book ratio r (scale {scale})\n");
    let city = BenchCity::standard();
    // Few requests: total work is requests * r searches.
    let trips = city.trips(300, scale);

    // Per-search percentiles from the run's `sim.search_ns` histogram.
    let search_pcts = |report: &xar_workload::SimReport| -> (u64, u64) {
        let reg = report
            .registry
            .as_ref()
            .expect("simulation attaches a registry");
        let s = reg.histogram("sim.search_ns").snapshot();
        (s.p50, s.p99)
    };

    header(&[
        "r",
        "XAR total",
        "XAR search p50/p99",
        "T-Share total",
        "T-Share search p50/p99",
        "T-Share / XAR",
    ]);
    let mut first_ratio = None;
    let mut last_ratio = None;
    for r in [1usize, 5, 10, 50, 100, 500, 1000] {
        // One booking per request: each look needs a single match
        // (k = 1), so T-Share's expanding search can stop early — its
        // best case, which is what makes it competitive at r = 1.
        let cfg = SimConfig {
            lookups_per_request: r - 1,
            k: 1,
            ..Default::default()
        };

        let region = city.region_delta(250.0);
        let mut xar = XarBackend::new(city.xar(region));
        let rx = run_simulation(&mut xar, &trips, &cfg);
        let x_total = rx.total_search_s() + rx.total_create_s() + rx.total_book_s();
        let (xp50, xp99) = search_pcts(&rx);

        let ts_cfg = TShareConfig {
            grid_cell_m: 1_000.0,
            max_search_cells: 80,
            ..Default::default()
        };
        let mut ts = TShareBackend::new(TShareEngine::new(Arc::clone(&city.graph), ts_cfg));
        let rt = run_simulation(&mut ts, &trips, &cfg);
        let t_total = rt.total_search_s() + rt.total_create_s() + rt.total_book_s();
        let (tp50, tp99) = search_pcts(&rt);

        let ratio = t_total / x_total.max(1e-12);
        if first_ratio.is_none() {
            first_ratio = Some(ratio);
        }
        last_ratio = Some(ratio);
        row(&[
            r.to_string(),
            fmt_time_s(x_total),
            format!(
                "{}/{}",
                fmt_time_s(xp50 as f64 / 1e9),
                fmt_time_s(xp99 as f64 / 1e9)
            ),
            fmt_time_s(t_total),
            format!(
                "{}/{}",
                fmt_time_s(tp50 as f64 / 1e9),
                fmt_time_s(tp99 as f64 / 1e9)
            ),
            format!("{ratio:.1}x"),
        ]);
    }
    println!(
        "\nshape check: the T-Share/XAR gap grows with r — {:.1}x at r=1 vs {:.1}x at r=1000 \
         (paper: T-Share faster at r=1, ~40x slower at r=1000).",
        first_ratio.unwrap_or(f64::NAN),
        last_ratio.unwrap_or(f64::NAN)
    );
    trace_finish(trace);
}
