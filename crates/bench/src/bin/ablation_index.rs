//! Ablation study (beyond the paper's figures): which parts of the XAR
//! index design actually pay for themselves?
//!
//! 1. **Reachable clusters on/off** — §VI indexes each ride into the
//!    clusters it could *detour to*, not just the ones it passes
//!    through. Off ⇒ searches only match rides passing a walkable
//!    cluster directly: recall (share rate) collapses.
//! 2. **Cluster-level vs grid-level indexing** — the core §I claim:
//!    grid-only systems (T-Share) must recover feasibility with
//!    shortest paths at search time. We compare XAR's search cost
//!    against T-Share's on the same workload as a proxy for the
//!    "cluster hierarchy vs flat grid" decision.

use std::sync::Arc;

use xar_bench::{fmt_time_s, header, row, scale_arg, BenchCity};
use xar_core::{EngineConfig, XarEngine};
use xar_tshare::{TShareConfig, TShareEngine};
use xar_workload::{run_simulation, SimConfig, TShareBackend, XarBackend};

fn main() {
    let scale = scale_arg();
    println!("# Ablation — index design choices (scale {scale})\n");
    let city = BenchCity::standard();
    let trips = city.trips(8_000, scale);
    let sim_cfg = SimConfig::default();

    header(&[
        "variant",
        "share rate",
        "avg search",
        "booked",
        "index entries",
    ]);

    // Full XAR.
    let region = city.region_delta(250.0);
    let mut full = XarBackend::new(XarEngine::new(Arc::clone(&region), EngineConfig::default()));
    let r_full = run_simulation(&mut full, &trips, &sim_cfg);
    row(&[
        "XAR (full)".into(),
        format!("{:.1}%", r_full.share_rate() * 100.0),
        fmt_time_s(r_full.mean_search_ms() / 1e3),
        r_full.booked.to_string(),
        full.engine.index().len().to_string(),
    ]);

    // XAR without reachable clusters.
    let mut no_reach = XarBackend::new(XarEngine::new(
        Arc::clone(&region),
        EngineConfig {
            index_reachable: false,
            ..Default::default()
        },
    ));
    let r_nr = run_simulation(&mut no_reach, &trips, &sim_cfg);
    row(&[
        "XAR (no reachable clusters)".into(),
        format!("{:.1}%", r_nr.share_rate() * 100.0),
        fmt_time_s(r_nr.mean_search_ms() / 1e3),
        r_nr.booked.to_string(),
        no_reach.engine.index().len().to_string(),
    ]);

    // Grid-level baseline (T-Share) for the same workload.
    let ts_cfg = TShareConfig {
        grid_cell_m: 1_000.0,
        max_search_cells: 80,
        ..Default::default()
    };
    let mut grid = TShareBackend::new(TShareEngine::new(Arc::clone(&city.graph), ts_cfg));
    let r_grid = run_simulation(&mut grid, &trips, &sim_cfg);
    row(&[
        "grid-level index (T-Share)".into(),
        format!("{:.1}%", r_grid.share_rate() * 100.0),
        fmt_time_s(r_grid.mean_search_ms() / 1e3),
        r_grid.booked.to_string(),
        "-".into(),
    ]);

    println!(
        "\nshape check: dropping reachable clusters shrinks the index but costs recall \
         (share rate {:.1}% -> {:.1}%); the grid-level baseline pays ~{:.0}x the search time.",
        r_full.share_rate() * 100.0,
        r_nr.share_rate() * 100.0,
        r_grid.mean_search_ms() / r_full.mean_search_ms().max(1e-9),
    );
}
