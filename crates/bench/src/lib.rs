//! Shared fixtures and reporting helpers for the figure-regeneration
//! harnesses.
//!
//! Every table and figure of the paper's evaluation (§X) has a binary
//! in `src/bin/`:
//!
//! | binary | regenerates |
//! |---|---|
//! | `fig3a_detour_quality` | Fig. 3a — detour-error CDF vs ε |
//! | `fig3_tradeoff` | Fig. 3b/3c/3d — clusters vs ε, index size, search time |
//! | `fig4_vs_tshare` | Fig. 4a/4b/4c — search/create/book percentiles vs T-Share |
//! | `fig5a_topk` | Fig. 5a — search time vs k (haversine mode) |
//! | `fig5b_look_to_book` | Fig. 5b — total time vs look-to-book ratio |
//! | `fig6_modes` | Fig. 6 — Taxi / RS / PT / RS+PT quality |
//! | `ablation_index` | extra — value of the reachable-cluster index |
//!
//! All binaries accept `--scale <f64>` (default honours
//! `XAR_BENCH_SCALE`, then 1.0) multiplying the workload sizes, so CI
//! can smoke-run them cheaply while `--scale 10` approaches the paper's
//! volumes.

#![forbid(unsafe_code)]

use std::sync::Arc;

use xar_core::{EngineConfig, XarEngine};
use xar_discretize::{ClusterGoal, RegionConfig, RegionIndex};
use xar_roadnet::{sample_pois, CityConfig, Poi, PoiConfig, RoadGraph};
use xar_workload::{generate_trips, Trip, TripGenConfig};

/// Standard benchmark fixture: city + POIs (+ lazily built regions).
pub struct BenchCity {
    /// The road network.
    pub graph: Arc<RoadGraph>,
    /// Sampled POIs (landmark source).
    pub pois: Vec<Poi>,
}

impl BenchCity {
    /// The standard benchmark city: a 70x70-block Manhattan lattice
    /// (~7 km on a side, ≈ 4 900 intersections) — big enough that the
    /// index effects the paper measures are visible, small enough to
    /// build in seconds.
    pub fn standard() -> Self {
        Self::sized(70, 70)
    }

    /// A custom-size city.
    pub fn sized(rows: usize, cols: usize) -> Self {
        let graph = Arc::new(CityConfig::manhattan(rows, cols, 0xC17).generate());
        let pois = sample_pois(
            &graph,
            &PoiConfig {
                count: rows * cols / 2,
                ..Default::default()
            },
        );
        Self { graph, pois }
    }

    /// Build a region index with the paper's default guarantee
    /// (δ = 250 m ⇒ ε ≤ 1 km).
    pub fn region_delta(&self, delta_m: f64) -> Arc<RegionIndex> {
        Arc::new(RegionIndex::build(
            Arc::clone(&self.graph),
            &self.pois,
            RegionConfig {
                landmark_separation_m: 220.0,
                cluster_goal: ClusterGoal::Delta(delta_m),
                max_walk_m: 1_000.0,
                ..Default::default()
            },
        ))
    }

    /// Build a region index with a fixed cluster count (the Figure 3
    /// sweeps).
    pub fn region_clusters(&self, c: usize) -> Arc<RegionIndex> {
        Arc::new(RegionIndex::build(
            Arc::clone(&self.graph),
            &self.pois,
            RegionConfig {
                landmark_separation_m: 220.0,
                cluster_goal: ClusterGoal::FixedCount(c),
                max_walk_m: 1_000.0,
                ..Default::default()
            },
        ))
    }

    /// Fresh XAR engine over a region.
    pub fn xar(&self, region: Arc<RegionIndex>) -> XarEngine {
        XarEngine::new(region, EngineConfig::default())
    }

    /// A day of trips, scaled.
    pub fn trips(&self, base_count: usize, scale: f64) -> Vec<Trip> {
        let count = ((base_count as f64 * scale) as usize).max(50);
        generate_trips(
            &self.graph,
            &TripGenConfig {
                count,
                ..Default::default()
            },
        )
    }
}

/// Parse `--trace-out FILE` / `--trace-slow-ms F` / `--trace-sample P`
/// from the CLI (fallbacks: `XAR_TRACE_OUT` / `XAR_TRACE_SLOW_MS` /
/// `XAR_TRACE_SAMPLE`), configure and enable the global flight
/// recorder, and return the output path. With no path anywhere the
/// recorder stays disabled and `None` is returned — harnesses pay only
/// the one-branch disabled check.
pub fn trace_setup() -> Option<String> {
    fn flag(args: &[String], name: &str) -> Option<String> {
        let prefix = format!("{name}=");
        let mut found = None;
        let mut it = args.iter();
        while let Some(a) = it.next() {
            if a == name {
                found = it.next().cloned();
            } else if let Some(v) = a.strip_prefix(&prefix) {
                found = Some(v.to_string());
            }
        }
        found
    }
    fn parsed<T: std::str::FromStr>(cli: Option<String>, env: &str) -> Option<T> {
        cli.or_else(|| std::env::var(env).ok())
            .and_then(|v| v.parse().ok())
    }

    let args: Vec<String> = std::env::args().skip(1).collect();
    let out = flag(&args, "--trace-out").or_else(|| std::env::var("XAR_TRACE_OUT").ok())?;
    let slow_ms: f64 = parsed(flag(&args, "--trace-slow-ms"), "XAR_TRACE_SLOW_MS").unwrap_or(1.0);
    let sample: f64 = parsed(flag(&args, "--trace-sample"), "XAR_TRACE_SAMPLE").unwrap_or(0.01);
    let rec = xar_obs::trace::recorder();
    rec.configure(xar_obs::TraceConfig {
        slow_threshold_ns: (slow_ms * 1e6).max(0.0) as u64,
        sample_per_mille: (sample.clamp(0.0, 1.0) * 1000.0).round() as u32,
        ..Default::default()
    });
    rec.set_enabled(true);
    Some(out)
}

/// Counterpart of [`trace_setup`]: disable the recorder and write its
/// Chrome trace-event export to the returned path (no-op on `None`).
pub fn trace_finish(out: Option<String>) {
    let Some(path) = out else { return };
    let rec = xar_obs::trace::recorder();
    rec.set_enabled(false);
    let json = xar_obs::chrome::export_chrome(&rec.snapshot());
    match std::fs::write(&path, json) {
        Ok(()) => {
            let st = rec.stats();
            eprintln!(
                "trace: {path} ({} of {} traces kept, {} events dropped)",
                st.kept_traces, st.started_traces, st.dropped_events
            );
        }
        Err(e) => eprintln!("trace: cannot write {path}: {e}"),
    }
}

/// Parse `--scale <f>` from the CLI (fallback: `XAR_BENCH_SCALE`, then
/// 1.0).
pub fn scale_arg() -> f64 {
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--scale" {
            if let Some(v) = args.next().and_then(|v| v.parse().ok()) {
                return v;
            }
        } else if let Some(v) = a.strip_prefix("--scale=").and_then(|v| v.parse().ok()) {
            return v;
        }
    }
    std::env::var("XAR_BENCH_SCALE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1.0)
}

/// Print a Markdown-style table row.
pub fn row(cells: &[String]) {
    println!("| {} |", cells.join(" | "));
}

/// Print a Markdown-style table header (with separator line).
pub fn header(cells: &[&str]) {
    println!("| {} |", cells.join(" | "));
    println!(
        "|{}|",
        cells.iter().map(|_| "---").collect::<Vec<_>>().join("|")
    );
}

/// Format seconds as adaptive ms/µs text.
pub fn fmt_time_s(s: f64) -> String {
    if s >= 1.0 {
        format!("{s:.2} s")
    } else if s >= 1e-3 {
        format!("{:.2} ms", s * 1e3)
    } else {
        format!("{:.1} µs", s * 1e6)
    }
}

/// Format bytes as adaptive KiB/MiB text.
pub fn fmt_bytes(b: usize) -> String {
    const MB: f64 = 1024.0 * 1024.0;
    let b = b as f64;
    if b >= MB {
        format!("{:.1} MiB", b / MB)
    } else {
        format!("{:.1} KiB", b / 1024.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting() {
        assert_eq!(fmt_time_s(2.5), "2.50 s");
        assert_eq!(fmt_time_s(0.0021), "2.10 ms");
        assert_eq!(fmt_time_s(0.0000005), "0.5 µs");
        assert_eq!(fmt_bytes(512), "0.5 KiB");
        assert_eq!(fmt_bytes(3 * 1024 * 1024), "3.0 MiB");
    }

    #[test]
    fn fixture_builds() {
        let city = BenchCity::sized(15, 15);
        let region = city.region_delta(200.0);
        assert!(region.cluster_count() >= 1);
        let trips = city.trips(100, 1.0);
        assert_eq!(trips.len(), 100);
    }
}
