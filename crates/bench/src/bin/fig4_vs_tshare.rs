//! Figures 4a, 4b, 4c — XAR vs T-Share on time taken to search,
//! create and book rides, as percentile curves over a shared workload.
//!
//! Paper setup: 20 000 rides / 100 000 requests from the 6am–12pm
//! slice, T-Share on a 1 km grid with the 80-cell (~4 km detour) search
//! cap, matching modified to return *all* matches. We run the same
//! protocol at a configurable scale and print the percentile rows of
//! all three sub-figures.

use std::sync::Arc;

use xar_bench::{fmt_time_s, header, row, scale_arg, BenchCity};
use xar_tshare::{TShareConfig, TShareEngine};
use xar_workload::{
    percentile_ns, run_simulation, SimConfig, SimReport, TShareBackend, XarBackend,
};

fn print_percentiles(op: &str, xar: &[u64], tshare: &[u64]) {
    println!(
        "\n## Fig 4{} — {op} time percentiles\n",
        match op {
            "search" => 'a',
            "create" => 'b',
            _ => 'c',
        }
    );
    header(&["percentile", "XAR", "T-Share", "T-Share / XAR"]);
    for p in [50.0, 75.0, 90.0, 95.0, 99.0, 100.0] {
        let x = percentile_ns(xar, p) / 1e9;
        let t = percentile_ns(tshare, p) / 1e9;
        let ratio = if x > 0.0 { t / x } else { f64::NAN };
        row(&[
            format!("p{p}"),
            fmt_time_s(x),
            fmt_time_s(t),
            format!("{ratio:.1}x"),
        ]);
    }
}

/// Which system's `op` is faster at p50, and by what ratio.
fn faster_at_p50(op: &str, xar: &[u64], tshare: &[u64]) -> String {
    let (x, t) = (percentile_ns(xar, 50.0), percentile_ns(tshare, 50.0));
    if x <= t {
        format!("XAR {op} is {:.1}x faster", t / x)
    } else {
        format!("T-Share {op} is {:.1}x faster", x / t)
    }
}

fn main() {
    let scale = scale_arg();
    println!("# Figure 4 — XAR vs T-Share: search / create / book (scale {scale})\n");
    let city = BenchCity::standard();
    let trips_all = city.trips(20_000, scale);
    let trips = xar_workload::trips::time_slice(&trips_all, 6.0 * 3600.0, 12.0 * 3600.0);
    println!(
        "workload: {} requests (6am-12pm slice of {})\n",
        trips.len(),
        trips_all.len()
    );

    let cfg = SimConfig::default();

    // XAR.
    let region = city.region_delta(250.0);
    println!(
        "XAR region: {} clusters, eps = {:.0} m",
        region.cluster_count(),
        region.epsilon_m()
    );
    let mut xar = XarBackend::new(city.xar(region));
    let rx: SimReport = run_simulation(&mut xar, &trips, &cfg);

    // T-Share: 1 km grid ("equivalent to the cluster size of XAR"),
    // 80-cell cap, real shortest paths.
    let ts_cfg = TShareConfig {
        grid_cell_m: 1_000.0,
        max_search_cells: 80,
        ..Default::default()
    };
    let mut tshare = TShareBackend::new(TShareEngine::new(Arc::clone(&city.graph), ts_cfg));
    let rt: SimReport = run_simulation(&mut tshare, &trips, &cfg);

    println!(
        "\noutcomes: XAR booked {} / created {}; T-Share booked {} / created {}",
        rx.booked, rx.created, rt.booked, rt.created
    );

    print_percentiles("search", &rx.search_ns, &rt.search_ns);
    print_percentiles("create", &rx.create_ns, &rt.create_ns);
    print_percentiles("book", &rx.book_ns, &rt.book_ns);

    println!(
        "\nshape check (p50): {} (4a); {} (4b); {} (4c).",
        faster_at_p50("search", &rx.search_ns, &rt.search_ns),
        faster_at_p50("create", &rx.create_ns, &rt.create_ns),
        faster_at_p50("book", &rx.book_ns, &rt.book_ns),
    );
    println!(
        "totals: XAR search {} vs T-Share search {}; XAR create {} vs T-Share create {}; \
         XAR book {} vs T-Share book {}",
        fmt_time_s(rx.total_search_s()),
        fmt_time_s(rt.total_search_s()),
        fmt_time_s(rx.total_create_s()),
        fmt_time_s(rt.total_create_s()),
        fmt_time_s(rx.total_book_s()),
        fmt_time_s(rt.total_book_s()),
    );
}
