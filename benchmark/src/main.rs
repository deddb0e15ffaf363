//! End-to-end benchmark of the XAR request path (see README.md).
//!
//! `xar-benchmark --workload NAME --seed N --seconds S --trace 0|1 [--smoke]`
//! prints every metric as `name value unit` and, as the last line, one
//! JSON object `{correct, attempted, failed, metrics}`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.

mod adapter;
mod cli;
mod inputs;
mod replay;
mod report;
mod spec;
mod stats;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use adapter::{Engine, Region, Xar};
use inputs::Setup;
use replay::{replay, Inputs, Pass};
use report::Probes;
use spec::{Metrics, Workload, FULL_SIZE_SECONDS, PATH_PROBE_TRIPS, WORKLOADS};

/// Set-ups per full-size untraced run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// Iterations of the two always-on telemetry cost loops.
const OBS_PROBE_ITERS: u64 = 2_000_000;
/// `snap_exact` calls timed together (one call is too short to time).
const SNAP_BATCH: usize = 64;

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let usage = "usage: xar-benchmark --workload day|look|metro|day_obs --seed N --seconds S --trace 0|1 [--smoke]";
    let (mut workload, mut seed, mut seconds, mut traced, mut smoke) =
        (None, None, None, None, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value\n{usage}"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    WORKLOADS
                        .iter()
                        .find(|w| w.name == name)
                        .ok_or(format!("unknown workload '{name}'\n{usage}"))?,
                );
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err(format!("--seconds must be in (0, 60], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                traced = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got '{other}'")),
                })
            }
            "--smoke" => smoke = true,
            other => return Err(format!("unknown argument '{other}'\n{usage}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or(format!("--workload is required\n{usage}"))?,
        seed: seed.ok_or(format!("--seed is required\n{usage}"))?,
        seconds: seconds.ok_or(format!("--seconds is required\n{usage}"))?,
        traced: traced.ok_or(format!("--trace is required\n{usage}"))?,
        smoke,
    })
}

/// The measurements the traced run makes outside the replay loop.
fn probe(setup: &Setup, scale: f64, region_file: &Path) -> Result<Probes, String> {
    let mut p = Probes {
        build_s: setup.build_s,
        tripgen_s: setup.tripgen_s,
        region_heap_mb: setup.region.heap_bytes() as f64 / 1e6,
        clusters: setup.region.clusters(),
        landmarks: setup.region.landmarks(),
        ..Probes::default()
    };

    let t0 = Instant::now();
    setup
        .region
        .save(region_file)
        .map_err(|e| format!("cannot save the region: {e}"))?;
    p.save_s = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    Region::load(region_file).map_err(|e| format!("cannot load the region: {e}"))?;
    p.load_s = t0.elapsed().as_secs_f64();
    p.file_mb = std::fs::metadata(region_file).map_or(0.0, |m| m.len() as f64 / 1e6);

    let probe_trips =
        ((PATH_PROBE_TRIPS as f64 * scale).round() as usize).clamp(1, setup.trips.len());
    let probe_trips = &setup.trips[..probe_trips];
    for batch in probe_trips.chunks(SNAP_BATCH / 2) {
        let t0 = Instant::now();
        for trip in batch {
            std::hint::black_box(setup.region.snap(trip));
        }
        p.snap_ns
            .push(t0.elapsed().as_nanos() as u64 / (2 * batch.len() as u64));
    }
    for trip in probe_trips {
        let (a, b) = setup.region.snap(trip);
        let t0 = Instant::now();
        let routed = std::hint::black_box(setup.city.path_m(a, b)).is_some();
        let ns = t0.elapsed().as_nanos() as u64;
        p.path_ns.push(ns);
        p.path_unroutable += u64::from(!routed);
        let crow_m = adapter::crow_m(trip);
        if crow_m < 1_500.0 {
            p.path_short_ns.push(ns);
        } else if crow_m > 4_000.0 {
            p.path_long_ns.push(ns);
        }
    }

    p.hist_record_ns = adapter::hist_record_ns(OBS_PROBE_ITERS);
    p.span_disabled_ns = adapter::span_disabled_ns(OBS_PROBE_ITERS);
    Ok(p)
}

/// `failed` counts the requests that ended neither booked nor created
/// plus every violated output check.
fn print_result(metrics: &Metrics, attempted: u64, failed_requests: u64, violations: &[String]) {
    let rows = metrics.finish();
    for (name, value, unit) in &rows {
        println!("{name} {value} {unit}");
    }
    for v in violations {
        println!("# CHECK FAILED: {v}");
    }
    let body: Vec<String> = rows
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    let failed = failed_requests + violations.len() as u64;
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    );
}

fn run(args: &Args) -> Result<(), String> {
    let w = args.workload;
    let scale = args.seconds / FULL_SIZE_SECONDS;
    let trips = w.trips(args.seconds, args.smoke);
    let warmup = spec::warmup(trips);
    let out_dir: PathBuf = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&out_dir)
        .map_err(|e| format!("cannot create {}: {e}", out_dir.display()))?;
    let region_file = out_dir.join(format!("{}.region.xarr", w.name));
    // Every workload builds the binary, so that the first run in a
    // fresh checkout pays for both builds.
    let xar_path = cli::ensure_xar()?;
    let xar = Xar(&xar_path);
    println!(
        "# workload {} seed {} scale {scale} trips {trips} warmup {warmup} looks {} city {}x{}",
        w.name, args.seed, w.looks, w.side, w.side
    );

    let repeats = if args.traced || args.smoke {
        1
    } else {
        SETUP_REPEATS
    };
    let mut setup_s = Vec::with_capacity(repeats);
    let mut setup = None;
    for _ in 0..repeats {
        drop(setup.take());
        let s = if w.cli {
            Setup::from_cli(w, &xar, &region_file, trips, args.seed)?
        } else {
            Setup::in_process(w, trips, args.seed)
        };
        setup_s.push(s.total_s);
        setup = Some(s);
    }
    let setup = setup.expect("at least one set-up ran");
    let setup_s = stats::median_f64(&mut setup_s);
    println!(
        "# region: {} clusters, {} landmarks, epsilon {:.0} m",
        setup.region.clusters(),
        setup.region.landmarks(),
        setup.region.epsilon_m()
    );

    let mut violations = Vec::new();
    let inputs = Inputs {
        trips: &setup.trips,
        looks: w.looks,
        look_from: &setup.look_from,
        warmup,
    };
    let pass = |traced: bool, violations: &mut Vec<String>| -> Pass {
        let p = replay(&Engine::new(&setup.region), &inputs, traced);
        violations.extend(report::check_pass(&p));
        println!(
            "# {} pass: {} requests, {} booked, {} created, {} failed, decisions_digest {:016x}",
            if traced { "traced" } else { "untraced" },
            p.requests,
            p.booked,
            p.created,
            p.failed,
            p.decisions_digest
        );
        p
    };
    let untraced = pass(false, &mut violations);
    let traced = args.traced.then(|| pass(true, &mut violations));
    let saved_file = out_dir.join(format!("{}.saved.xarr", w.name));
    let probes = args
        .traced
        .then(|| probe(&setup, scale, &saved_file))
        .transpose()?;
    // The binary runs after the replays: the kernel is still writing
    // back its trace and event files (tens of MB) while whatever
    // follows it runs.
    let obs = w
        .cli
        .then(|| cli::obs_alternation(&xar, &region_file, trips, &out_dir));
    violations.extend(obs.iter().flat_map(|o| o.violations.clone()));

    let Some(traced) = traced else {
        let mut m = report::end_to_end(&untraced, setup_s);
        if let Some(obs) = &obs {
            // The shipped binary's whole-run rate with every plane on.
            m.set("requests_per_s", trips as f64 / obs.mean_on_wall_s());
            println!(
                "# cli: off {:?} s, on {:?} s, overhead ratio {}",
                obs.off_wall_s,
                obs.on_wall_s,
                obs.overhead_ratio()
            );
        }
        print_result(&m, untraced.requests, untraced.failed, &violations);
        return Ok(());
    };

    let mut probes = probes.expect("--trace 1 ran the probes");
    if let Some(obs) = &obs {
        probes.trace_file_mb = obs.trace_file_mb;
        probes.events_file_mb = obs.events_file_mb;
        probes.cli_off_wall_s = obs.mean_off_wall_s();
        probes.cli_on_wall_s = obs.mean_on_wall_s();
        probes.obs_overhead_ratio = obs.overhead_ratio();
    }
    let (m, more) = report::per_layer(&untraced, &traced, warmup, &probes);
    violations.extend(more);
    let rows: Vec<(&str, f64)> = m.finish().iter().map(|(n, v, _)| (*n, *v)).collect();
    let trace_file = out_dir.join(format!("{}.trace.json", w.name));
    trace::write_json(&trace_file, w.name, args.seed, &traced.spans, &rows)
        .map_err(|e| format!("cannot write {}: {e}", trace_file.display()))?;
    println!(
        "# trace: {} spans in {}",
        traced.spans.len(),
        trace_file.display()
    );
    print_result(
        &m,
        untraced.requests + traced.requests,
        untraced.failed + traced.failed,
        &violations,
    );
    Ok(())
}

fn main() -> ExitCode {
    match parse_args().and_then(|args| run(&args)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("xar-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spec::{END_TO_END, PER_LAYER};

    /// A small replay through both kinds of pass: every output check
    /// holds, the two passes decide identically, and every metric of
    /// both tables gets a value (`finish` panics on a missing one).
    #[test]
    fn small_replay_passes_its_checks_and_emits_every_metric() {
        let w = Workload {
            name: "small",
            side: 20,
            full_trips: 300,
            looks: 2,
            cli: false,
        };
        let setup = Setup::in_process(&w, 300, 9);
        let inputs = Inputs {
            trips: &setup.trips,
            looks: w.looks,
            look_from: &setup.look_from,
            warmup: 60,
        };
        let untraced = replay(&Engine::new(&setup.region), &inputs, false);
        let traced = replay(&Engine::new(&setup.region), &inputs, true);
        assert_eq!(report::check_pass(&untraced), Vec::<String>::new());
        assert_eq!(report::check_pass(&traced), Vec::<String>::new());
        assert_eq!(untraced.requests, 300);
        assert_eq!(untraced.search_ns.len(), 240 * 3);
        assert!(untraced.spans.is_empty());
        // One request span per trip plus one per call into a layer.
        let calls =
            |p: &Pass| p.search_ns.len() + p.book_ns.len() + p.create_ns.len() + p.track_ns.len();
        assert!(traced.spans.len() >= 300 + calls(&traced));

        let e2e = report::end_to_end(&untraced, setup.total_s).finish();
        assert_eq!(e2e.len(), END_TO_END.len());
        let out_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        std::fs::create_dir_all(&out_dir).unwrap();
        let probes = probe(&setup, 0.02, &out_dir.join("small.region.xarr")).unwrap();
        let (m, violations) = report::per_layer(&untraced, &traced, 60, &probes);
        assert_eq!(violations, Vec::<String>::new());
        assert_eq!(m.finish().len(), PER_LAYER.len());
    }
}
