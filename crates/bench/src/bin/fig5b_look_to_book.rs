//! Figure 5b — total processing time vs the look-to-book ratio `r`.
//!
//! Each booked request is preceded by `r` search operations (the MMTP
//! integration generates many looks per booking, §IX; the Go-LA data
//! puts the realistic ratio near 480). The paper's result: T-Share
//! wins at r = 1 but degrades much faster — at r = 1000 it takes ~42 s
//! where XAR takes ~1 s.
//!
//! Per-search p50/p99 are exact percentiles of the run's per-search
//! samples (`SimReport::search_ns`), the same samples whose sums make
//! the totals (fresh backends per `r`, so each run has its own). The
//! binary exits 1 when the T-Share ÷ XAR ratio at r = 1000 is not above
//! the ratio at r = 1.

use std::process::ExitCode;
use std::sync::Arc;

use xar_bench::{fmt_time_s, header, row, scale_arg, trace_finish, trace_setup, BenchCity};
use xar_tshare::{TShareConfig, TShareEngine};
use xar_workload::{percentile_ns, run_simulation, SimConfig, TShareBackend, XarBackend};

fn main() -> ExitCode {
    let scale = scale_arg();
    let trace = trace_setup();
    println!("# Figure 5b — total query time vs look-to-book ratio r (scale {scale})\n");
    let city = BenchCity::standard();
    // Few requests: total work is requests * r searches.
    let trips = city.trips(300, scale);

    // Per-search p50/p99 as one table cell.
    let search_pcts = |report: &xar_workload::SimReport| -> String {
        let pct = |p| fmt_time_s(percentile_ns(&report.search_ns, p) / 1e9);
        format!("{}/{}", pct(50.0), pct(99.0))
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

        let ts_cfg = TShareConfig {
            grid_cell_m: 1_000.0,
            max_search_cells: 80,
            ..Default::default()
        };
        let mut ts = TShareBackend::new(TShareEngine::new(Arc::clone(&city.graph), ts_cfg));
        let rt = run_simulation(&mut ts, &trips, &cfg);
        let t_total = rt.total_search_s() + rt.total_create_s() + rt.total_book_s();

        let ratio = t_total / x_total.max(1e-12);
        if first_ratio.is_none() {
            first_ratio = Some(ratio);
        }
        last_ratio = Some(ratio);
        row(&[
            r.to_string(),
            fmt_time_s(x_total),
            search_pcts(&rx),
            fmt_time_s(t_total),
            search_pcts(&rt),
            format!("{ratio:.1}x"),
        ]);
    }
    let (first, last) = (
        first_ratio.unwrap_or(f64::NAN),
        last_ratio.unwrap_or(f64::NAN),
    );
    println!(
        "\nshape check: the T-Share/XAR gap grows with r — {first:.1}x at r=1 vs {last:.1}x at r=1000 \
         (paper: T-Share faster at r=1, ~40x slower at r=1000)."
    );
    trace_finish(trace);
    // A NaN ratio (no work timed) fails too.
    if last > first {
        println!("shape check passed: the ratio at r=1000 is above the ratio at r=1");
        return ExitCode::SUCCESS;
    }
    eprintln!("shape check failed: the ratio at r=1000 ({last:.1}x) is not above the ratio at r=1 ({first:.1}x)");
    ExitCode::FAILURE
}
