//! Figures 3b, 3c, 3d — the performance vs approximation trade-off.
//!
//! * 3b: the number of clusters `C` produced by GREEDYSEARCH as the
//!   target ε changes (inverse relationship);
//! * 3c: the size of the in-memory index as `C` grows (the paper loads
//!   120k offers / 350k requests; we load a scaled stress workload);
//! * 3d: the ride-search time as `C` grows.
//!
//! Exits non-zero when the deterministic part of the figure loses its
//! shape: `C` must fall strictly as ε grows (3b), and the index bytes
//! must grow strictly with `C` (3c). Search time (3d) is wall-clock
//! and is printed, not checked.

use std::process::ExitCode;
use std::time::Instant;

use xar_bench::{fmt_bytes, fmt_time_s, header, row, scale_arg, BenchCity};
use xar_workload::{run_simulation, SimConfig, XarBackend};

fn main() -> ExitCode {
    let scale = scale_arg();
    println!("# Figure 3b/3c/3d — performance vs approximation trade-off (scale {scale})\n");
    let city = BenchCity::standard();

    // ---- Figure 3b: epsilon -> cluster count (GREEDYSEARCH) ----
    println!("## Fig 3b — number of clusters as epsilon changes\n");
    header(&[
        "target eps = 4*delta (m)",
        "delta (m)",
        "clusters C",
        "realised eps (m)",
    ]);
    let mut clusters_by_eps = Vec::new();
    for eps_target in [400.0, 700.0, 1_000.0, 1_600.0, 2_400.0, 4_000.0] {
        let delta = eps_target / 4.0;
        let region = city.region_delta(delta);
        row(&[
            format!("{eps_target:.0}"),
            format!("{delta:.0}"),
            region.cluster_count().to_string(),
            format!("{:.0}", region.epsilon_m()),
        ]);
        clusters_by_eps.push(region.cluster_count());
    }

    // ---- Figures 3c/3d: C -> index size and search time ----
    // The paper fixes cluster counts C = 500..5000 on 16k landmarks;
    // our standard city carries ~1-2k landmarks, so the sweep scales to
    // C = 25..400 while preserving the C / landmarks ratio.
    println!("\n## Fig 3c/3d — index size and search time vs cluster count\n");
    header(&[
        "clusters C",
        "realised eps (m)",
        "index size",
        "region tables",
        "avg search",
        "p95 search",
    ]);
    let trips = city.trips(12_000, scale);
    let mut bytes_by_c = Vec::new();
    for c in [25usize, 50, 100, 200, 400] {
        let region = city.region_clusters(c);
        let eps = region.epsilon_m();
        let mut backend = XarBackend::new(city.xar(std::sync::Arc::clone(&region)));
        let t0 = Instant::now();
        let report = run_simulation(&mut backend, &trips, &SimConfig::default());
        let _elapsed = t0.elapsed();
        let mem = backend.engine.heap_bytes();
        bytes_by_c.push(mem);
        let region_mem = region.heap_bytes();
        row(&[
            c.to_string(),
            format!("{eps:.0}"),
            fmt_bytes(mem),
            fmt_bytes(region_mem),
            fmt_time_s(report.mean_search_ms() / 1e3),
            fmt_time_s(xar_workload::percentile_ns(&report.search_ns, 95.0) / 1e9),
        ]);
    }
    println!(
        "\nshape check: C strictly decreasing in eps (3b); index bytes strictly increasing \
         in C (3c); search time (3d) is wall-clock, reported and not checked."
    );
    let mut failed = Vec::new();
    if !clusters_by_eps.windows(2).all(|w| w[0] > w[1]) {
        failed.push("3b: C is not strictly decreasing in eps");
    }
    if !bytes_by_c.windows(2).all(|w| w[0] < w[1]) {
        failed.push("3c: index bytes are not strictly increasing in C");
    }
    if failed.is_empty() {
        println!("shape check passed");
        return ExitCode::SUCCESS;
    }
    for f in &failed {
        eprintln!("shape check failed: {f}");
    }
    ExitCode::FAILURE
}
