//! Figure 7 — dispatch policies: first-match vs batch-window
//! assignment at 0 / 20 / 50 / 200 ms windows.
//!
//! One standard 20 000-trip day (fig 4's city and region), compressed
//! to ~200 requests/s of simulated time so millisecond windows hold
//! real batches — at the raw synthetic-day rate (~0.23 req/s) every
//! window would be a batch of one and the comparison vacuous. Every
//! policy replays the same trips against a fresh serial engine; the
//! table and `results/BENCH_dispatch.json` compare service rate
//! (pooled fraction — what joint assignment tries to raise), mean
//! realised detour, mean scheduled pick-up wait, and the p99
//! *amortized* dispatch cost (window wall-time / batch size per
//! request; plain p99 search latency for first-match).
//!
//! All runs are single-threaded; the recorded `"cores"` field matters
//! only for comparing the amortized-cost column across machines
//! (EXPERIMENTS.md).
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p xar-bench --bin fig7_dispatch [-- out.json] [--scale F]
//! ```

use xar_bench::{header, row, scale_arg, BenchCity};
use xar_workload::{run_dispatch, DispatchSpec, SimConfig, SimReport, Trip, XarBackend};

const BASE_TRIPS: usize = 20_000;
/// Simulated seconds the trip day is compressed onto: 20 000 trips
/// over 100 s ≈ 200 req/s, so 20/50/200 ms windows carry ~4/10/40
/// requests.
const COMPRESSED_DAY_S: f64 = 100.0;
const WINDOWS_MS: [u64; 4] = [0, 20, 50, 200];

fn compress(trips: &mut [Trip], span_s: f64) {
    let Some(first) = trips.first().map(|t| t.pickup_s) else { return };
    let last = trips.last().map(|t| t.pickup_s).unwrap_or(first);
    let span = (last - first).max(f64::MIN_POSITIVE);
    for t in trips.iter_mut() {
        t.pickup_s = (t.pickup_s - first) / span * span_s;
    }
}

struct PolicyRun {
    spec: DispatchSpec,
    window_ms: u64,
    report: SimReport,
    wall_s: f64,
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .filter(|a| !a.starts_with("--"))
        .unwrap_or_else(|| "results/BENCH_dispatch.json".to_string());
    let scale = scale_arg();

    println!("# Figure 7 — dispatch: first-match vs batch-window assignment (scale {scale})\n");
    let city = BenchCity::standard();
    let region = city.region_delta(250.0);
    let mut trips = city.trips(BASE_TRIPS, scale);
    compress(&mut trips, COMPRESSED_DAY_S);
    let trips = trips;
    let cfg = SimConfig::default();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "workload: {} trips compressed onto {COMPRESSED_DAY_S} s ({:.0} req/s), {} clusters\n",
        trips.len(),
        trips.len() as f64 / COMPRESSED_DAY_S,
        region.cluster_count(),
    );

    let specs: Vec<DispatchSpec> = std::iter::once(DispatchSpec::First)
        .chain(WINDOWS_MS.iter().map(|&window_ms| DispatchSpec::Batch { window_ms }))
        .collect();
    let mut runs: Vec<PolicyRun> = Vec::new();
    for spec in specs {
        let mut backend = XarBackend::new(city.xar(std::sync::Arc::clone(&region)));
        let mut policy = spec.build(&cfg);
        let t0 = std::time::Instant::now();
        let report = run_dispatch(&mut backend, &trips, &cfg, policy.as_mut());
        let wall_s = t0.elapsed().as_secs_f64();
        eprintln!(
            "  {:<12} service {:.4}, stale commits {}, swaps {}, {:.1} s wall",
            spec.label(),
            report.service_rate(),
            report.stale_commits,
            report.swaps,
            wall_s,
        );
        let window_ms = match spec {
            DispatchSpec::First => 0,
            DispatchSpec::Batch { window_ms } => window_ms,
        };
        runs.push(PolicyRun { spec, window_ms, report, wall_s });
    }
    let first = &runs[0].report;

    println!("## Fig 7 — dispatch policy quality and amortized cost\n");
    header(&[
        "policy",
        "service rate",
        "vs first",
        "mean detour m",
        "mean wait s",
        "p99 amortized",
        "stale commits",
        "swaps",
    ]);
    for r in &runs {
        let d = r.report.deltas_vs(first);
        row(&[
            r.spec.label(),
            format!("{:.4}", r.report.service_rate()),
            format!("{:.3}x", d.service_rate_x),
            format!("{:.0}", r.report.mean_detour_m()),
            format!("{:.1}", r.report.mean_wait_s()),
            format!("{:.1} µs", r.report.amortized_dispatch_p99_ns() / 1e3),
            format!("{}", r.report.stale_commits),
            format!("{}", r.report.swaps),
        ]);
    }

    // Machine-readable curve for CI diffing.
    let mut w = xar_obs::json::JsonWriter::new();
    w.begin_object();
    w.key("bench");
    w.string("dispatch");
    w.key("cores");
    w.number_u64(cores as u64);
    w.key("trips");
    w.number_u64(trips.len() as u64);
    w.key("compressed_day_s");
    w.number_f64(COMPRESSED_DAY_S);
    w.key("scale");
    w.number_f64(scale);
    w.key("points");
    w.begin_array();
    for r in &runs {
        let d = r.report.deltas_vs(first);
        let mut p = xar_obs::json::JsonWriter::new();
        p.begin_object();
        p.key("policy");
        p.string(&r.spec.label());
        p.key("window_ms");
        p.number_u64(r.window_ms);
        p.key("service_rate");
        p.number_f64(r.report.service_rate());
        p.key("share_rate");
        p.number_f64(r.report.share_rate());
        p.key("booked");
        p.number_u64(r.report.booked);
        p.key("created");
        p.number_u64(r.report.created);
        p.key("unservable");
        p.number_u64(r.report.unservable);
        p.key("stale_commits");
        p.number_u64(r.report.stale_commits);
        p.key("swaps");
        p.number_u64(r.report.swaps);
        p.key("windows");
        p.number_u64(r.report.window_ns.len() as u64);
        p.key("mean_detour_m");
        p.number_f64(r.report.mean_detour_m());
        p.key("mean_wait_s");
        p.number_f64(r.report.mean_wait_s());
        p.key("p99_amortized_ns");
        p.number_f64(r.report.amortized_dispatch_p99_ns());
        p.key("wall_s");
        p.number_f64(r.wall_s);
        p.key("deltas_vs_first");
        p.raw(&d.to_json());
        p.end_object();
        w.raw(&p.finish());
    }
    w.end_array();
    w.end_object();
    let json = w.finish();

    if let Some(dir) = std::path::Path::new(&out_path).parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    std::fs::write(&out_path, &json).expect("write dispatch curve");
    println!("\n# written to {out_path}");

    // The acceptance bar: joint assignment over a window must not lose
    // service vs greedy first-match on the same workload.
    let batch50 = runs
        .iter()
        .find(|r| r.spec == DispatchSpec::Batch { window_ms: 50 })
        .expect("batch:50 ran");
    assert!(
        batch50.report.service_rate() >= first.service_rate(),
        "batch:50 service rate {:.4} fell below first-match {:.4}",
        batch50.report.service_rate(),
        first.service_rate(),
    );
    println!(
        "\nshape check: batch:50 serves {:.2}% vs first-match {:.2}% — windowed joint \
         assignment never loses service, and wider windows trade wait for pooling.",
        batch50.report.service_rate() * 100.0,
        first.service_rate() * 100.0,
    );
}
