//! `xar` — command-line front-end to the Xhare-a-Ride system.
//!
//! ```text
//! xar build-region [--rows N] [--cols N] [--seed S] [--delta M]
//!                  [--clusters C] --out region.xarr
//!     Generate a synthetic city, run the pre-processing pipeline and
//!     persist the region index.
//!
//! xar inspect --region region.xarr
//!     Print the discretization summary of a persisted region.
//!
//! xar simulate --region region.xarr [--trips N] [--seed S] [--k N]
//!              [--walk M] [--window S] [--detour M] [--json FILE]
//!              [--metrics-out FILE] [--trace-out FILE]
//!              [--trace-slow-ms F] [--trace-sample P] [--trace-buffer N]
//!              [--events-out FILE] [--baseline tshare] [--threads N]
//!              [--shards N] [--serve ADDR] [--linger-s F]
//!     Run the paper's §X.A.2 ride-sharing simulation over a synthetic
//!     taxi day and report outcome + latency statistics. `--json` dumps
//!     the full report (counters, percentiles, metrics) as JSON;
//!     `--metrics-out` dumps just the metric-registry snapshot
//!     (schema in EXPERIMENTS.md). `--trace-out` enables the flight
//!     recorder and writes Chrome trace-event JSON (Perfetto-loadable;
//!     tail sampling keeps every request slower than `--trace-slow-ms`,
//!     default 1.0, plus a `--trace-sample` fraction of the rest,
//!     default 0.01). `--baseline tshare` replays the same trips
//!     through the T-Share baseline so the trace and metrics cover
//!     both systems. `--threads N` (default 1) drives the replay from
//!     N closed-loop workers against the cluster-sharded engine
//!     (`--shards`, default 8); an invalid `--threads` or `--shards`
//!     value exits with code 9. It is a concurrency-correctness mode:
//!     on two cores a second worker adds no throughput (EXPERIMENTS.md,
//!     "Engine scaling"), and the request-path benchmark in
//!     `benchmark/` is where performance is measured.
//!     `--events-out FILE` turns on the wide-event sink and writes one
//!     structured decision record per request (outcome, typed rejection
//!     reason, search tier, candidate count, latencies) as segmented
//!     JSONL — the input of `xar logs`.
//!
//! xar logs --in events.jsonl [--outcome X] [--reason Y]
//!          [--slower-than MS] [--request ID] [--top N]
//!     Forensics over a `--events-out` file: per-request decision
//!     records with outcome / rejection-reason / latency filters.
//!     Prints the outcome and rejection-reason histograms, then the
//!     matching records (slowest first, `--top N`, default 10, 0 =
//!     all). `--request ID` answers "why was request R rejected" with
//!     R's full record. Exit codes: 2 = unreadable / invalid file,
//!     3 = no events (or none matching the filters), 9 = invalid
//!     filter value.
//!
//! xar trace --in trace.json [--top N] [--check]
//!     Print the N slowest request timelines (per-span self-time,
//!     lifecycle milestones) from a `--trace-out` file — or, with
//!     `--check`, validate the file and exit with a distinct code per
//!     failure class: 2 = unreadable / invalid JSON, 3 = no complete
//!     request timeline, 4 = missing drop counter.
//!
//! xar profile --out FILE [--rows N] [--cols N] [--seed S] [--trips N]
//!             [--top N]
//!     Continuous-profiling artifact: run an in-process simulation with
//!     the flight recorder keeping every trace, fold the span trees
//!     into a hierarchical self/total-time profile, and write it as
//!     collapsed stacks (flamegraph.pl, inferno and speedscope load
//!     them). The written artifact is re-parsed with the in-repo reader
//!     before the command reports success. A top-N self-time summary is
//!     always printed.
//! ```
//!
//! Live operational flags on `simulate`: `--serve ADDR` starts the
//! embedded ops-plane HTTP server (`/metrics` with OpenMetrics latency
//! exemplars, `/snapshot`, `/debug/profile`, `/debug/shards`,
//! `/debug/events`; `ADDR` may use port 0 — the bound address is
//! printed); `--linger-s F` keeps the process (and server) alive after
//! the simulation so scrapers can observe the final state, and without
//! `--serve` exits with code 1 before any work.
//!
//! Every subcommand accepts only the flags listed for it here: any
//! other `--flag` exits with code 1 before the command does any work.

#![forbid(unsafe_code)]

use std::collections::HashMap;
use std::io::Write as _;
use std::process::ExitCode;
use std::sync::Arc;

use xar_obs::serve::OpsPlane;

use xar_obs::chrome::{export_chrome, parse_chrome, Attrs, Timeline};
use xar_obs::json::JsonValue;
use xar_obs::TraceConfig;
use xhare_a_ride::core::{
    EngineConfig, Reason, ShardedXarEngine, XarEngine, DEFAULT_SHARDS, MAX_SHARDS,
};
use xhare_a_ride::discretize::{ClusterGoal, RegionConfig, RegionIndex};
use xhare_a_ride::roadnet::{sample_pois, CityConfig, PoiConfig};
use xhare_a_ride::tshare::{TShareConfig, TShareEngine};
use xhare_a_ride::workload::{
    generate_trips, percentile_ns, run_parallel_dispatch, run_simulation, ShardedXarBackend,
    SimConfig, TShareBackend, TripGenConfig, XarBackend,
};

/// Flags that take no value (presence alone means `true`).
const SWITCHES: &[&str] = &["check"];

/// A command error carrying its process exit code, so callers (CI, the
/// smoke tests) can branch on the failure class.
struct CmdError {
    code: u8,
    msg: String,
}

impl CmdError {
    /// A generic failure (exit code 1).
    fn general(msg: impl Into<String>) -> Self {
        Self { code: 1, msg: msg.into() }
    }

    /// A failure with a specific exit code.
    fn coded(code: u8, msg: impl Into<String>) -> Self {
        Self { code, msg: msg.into() }
    }
}

impl From<String> for CmdError {
    fn from(msg: String) -> Self {
        CmdError::general(msg)
    }
}

/// Minimal `--key value` flag parser (with a fixed set of valueless
/// switches). A repeated flag keeps its last value.
struct Flags {
    values: HashMap<String, String>,
}

impl Flags {
    /// Parse `args` for `cmd`, which reads exactly the flags in
    /// `accepted`: any other flag is an error, so a typo or a removed
    /// option cannot silently run with defaults.
    fn parse(cmd: &str, accepted: &[&str], args: &[String]) -> Result<Self, String> {
        let mut values: HashMap<String, String> = HashMap::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            let Some(key) = a.strip_prefix("--") else {
                return Err(format!("unexpected positional argument '{a}'"));
            };
            if !accepted.contains(&key) {
                return Err(format!("unknown flag --{key} for `xar {cmd}`"));
            }
            if SWITCHES.contains(&key) {
                values.insert(key.to_string(), "true".to_string());
                continue;
            }
            let Some(v) = it.next() else {
                return Err(format!("flag --{key} is missing a value"));
            };
            values.insert(key.to_string(), v.clone());
        }
        Ok(Self { values })
    }

    fn switch(&self, key: &str) -> bool {
        self.values.contains_key(key)
    }

    fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get_opt(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("invalid value '{v}' for --{key}")),
        }
    }

    fn get_opt(&self, key: &str) -> Option<&str> {
        self.values.get(key).map(String::as_str)
    }

    fn require(&self, key: &str) -> Result<&str, String> {
        self.get_opt(key).ok_or_else(|| format!("missing required flag --{key}"))
    }
}

fn usage() -> &'static str {
    "usage:\n  xar build-region [--rows N] [--cols N] [--seed S] [--delta M | --clusters C] --out FILE\n  xar inspect --region FILE\n  xar simulate --region FILE [--trips N] [--seed S] [--k N] [--walk M] [--window S] [--detour M] [--threads N] [--shards N] [--json FILE] [--metrics-out FILE] [--trace-out FILE] [--trace-slow-ms F] [--trace-sample P] [--trace-buffer N] [--events-out FILE] [--baseline tshare] [--serve ADDR] [--linger-s F]\n  xar logs --in FILE [--outcome X] [--reason Y] [--slower-than MS] [--request ID] [--top N]\n  xar trace --in FILE [--top N] [--check]\n  xar profile --out FILE [--rows N] [--cols N] [--seed S] [--trips N] [--top N]"
}

fn build_region(flags: &Flags) -> Result<(), CmdError> {
    let rows: usize = flags.get("rows", 60)?;
    let cols: usize = flags.get("cols", 60)?;
    let seed: u64 = flags.get("seed", 1)?;
    let out = flags.require("out")?;
    let goal = if let Some(c) = flags.get_opt("clusters") {
        ClusterGoal::FixedCount(c.parse().map_err(|_| "invalid --clusters".to_string())?)
    } else {
        ClusterGoal::Delta(flags.get("delta", 250.0)?)
    };

    eprintln!("generating {rows}x{cols} city (seed {seed})...");
    let graph = Arc::new(CityConfig::manhattan(rows, cols, seed).generate());
    let pois = sample_pois(&graph, &PoiConfig { count: rows * cols / 2, ..Default::default() });
    eprintln!(
        "pre-processing: {} nodes, {} POIs -> landmarks -> clusters...",
        graph.node_count(),
        pois.len()
    );
    let region =
        RegionIndex::build(graph, &pois, RegionConfig { cluster_goal: goal, ..Default::default() });
    region.save(out).map_err(|e| format!("cannot write {out}: {e}"))?;
    println!(
        "region saved to {out}: {} landmarks, {} clusters, epsilon {:.0} m, tables {:.1} MiB",
        region.landmark_count(),
        region.cluster_count(),
        region.epsilon_m(),
        region.heap_bytes() as f64 / (1024.0 * 1024.0),
    );
    Ok(())
}

fn inspect(flags: &Flags) -> Result<(), CmdError> {
    let path = flags.require("region")?;
    let region = RegionIndex::load(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let g = region.graph();
    println!("region file    : {path}");
    println!("road network   : {} way-points, {} segments", g.node_count(), g.edge_count());
    println!("grid           : {} x {} cells of {:.0} m", region.grid().cols(), region.grid().rows(), region.grid().cell_m());
    println!("landmarks      : {}", region.landmark_count());
    println!("clusters       : {}", region.cluster_count());
    println!("epsilon        : {:.0} m (worst intra-cluster driving distance)", region.epsilon_m());
    println!("tables in RAM  : {:.1} MiB", region.heap_bytes() as f64 / (1024.0 * 1024.0));
    println!(
        "router table   : {:.1} MiB (rebuilt on load, not in the file)",
        region.router().heap_bytes() as f64 / (1024.0 * 1024.0)
    );
    let cells = region.grid().cell_count();
    let bytes = cells * std::mem::size_of::<xhare_a_ride::roadnet::NodeId>() as u64;
    println!("grid table     : {cells} cells, {bytes} B (tier 1 of the tables; rebuilt on load)");
    let sizes: Vec<usize> = (0..region.cluster_count() as u32)
        .map(|c| region.cluster_members(xhare_a_ride::discretize::ClusterId(c)).len())
        .collect();
    let max = sizes.iter().max().copied().unwrap_or(0);
    let avg = sizes.iter().sum::<usize>() as f64 / sizes.len().max(1) as f64;
    println!("cluster sizes  : avg {avg:.1} landmarks, max {max}");
    Ok(())
}

/// Parse `--threads` as a single worker count (default 1). Invalid
/// values — non-numeric, zero, out of range — exit with the distinct
/// code 9 so scripts can tell a bad invocation from a failed run.
fn parse_threads_flag(flags: &Flags) -> Result<usize, CmdError> {
    match flags.get_opt("threads") {
        None => Ok(1),
        Some(v) => match v.parse::<usize>() {
            Ok(n) if (1..=256).contains(&n) => Ok(n),
            _ => Err(CmdError::coded(
                9,
                format!(
                    "--threads must be an integer in 1..=256, got '{v}' \
                     (use --threads 1 for the serial driver)"
                ),
            )),
        },
    }
}

/// Parse `--shards` (default [`DEFAULT_SHARDS`]); out-of-range values
/// share the exit-code-9 contract.
fn parse_shards_flag(flags: &Flags) -> Result<usize, CmdError> {
    match flags.get_opt("shards") {
        None => Ok(DEFAULT_SHARDS),
        Some(v) => match v.parse::<usize>() {
            Ok(n) if (1..=MAX_SHARDS).contains(&n) => Ok(n),
            _ => Err(CmdError::coded(
                9,
                format!("--shards must be an integer in 1..={MAX_SHARDS}, got '{v}'"),
            )),
        },
    }
}

/// The simulation's system under test: the serial single-engine
/// backend (`--threads 1`, the default — no locks, no snapshot
/// publication) or the sharded engine driven by N closed-loop workers.
/// Both run the same replay loop behind the one `RideBackend` trait.
enum SimUnderTest {
    Serial(Box<XarBackend>),
    Parallel(ShardedXarBackend),
}

fn simulate(flags: &Flags) -> Result<(), CmdError> {
    // Validated before any heavy work so a bad value fails fast with
    // its distinct exit code.
    let threads = parse_threads_flag(flags)?;
    let shards = parse_shards_flag(flags)?;
    let serve_addr = flags.get_opt("serve");
    let linger_s: f64 = flags.get("linger-s", 0.0)?;
    if serve_addr.is_none() && flags.get_opt("linger-s").is_some() {
        return Err(CmdError::general(
            "--linger-s keeps the --serve ADDR server up after the run; without --serve it would do nothing",
        ));
    }
    let path = flags.require("region")?;
    let trips_n: usize = flags.get("trips", 10_000)?;
    let seed: u64 = flags.get("seed", 0x7A11)?;
    let k: usize = flags.get("k", usize::MAX)?;
    let walk: f64 = flags.get("walk", 800.0)?;
    let window: f64 = flags.get("window", 1_200.0)?;
    let detour: f64 = flags.get("detour", 4_000.0)?;

    let events_out = flags.get_opt("events-out").map(str::to_string);
    if events_out.is_some() {
        xar_obs::events::configure(xar_obs::events::DEFAULT_CAPACITY);
        xar_obs::events::set_enabled(true);
    }
    let trace_out = flags.get_opt("trace-out").map(str::to_string);
    if trace_out.is_some() {
        let slow_ms: f64 = flags.get("trace-slow-ms", 1.0)?;
        let sample: f64 = flags.get("trace-sample", 0.01)?;
        let buffer: usize = flags.get("trace-buffer", 262_144)?;
        if !(0.0..=1.0).contains(&sample) {
            return Err(CmdError::general("--trace-sample must be a probability in [0, 1]"));
        }
        let rec = xar_obs::trace::recorder();
        rec.configure(TraceConfig {
            slow_threshold_ns: (slow_ms * 1e6).max(0.0) as u64,
            sample_per_mille: (sample * 1000.0).round() as u32,
            capacity_events: buffer,
            ..TraceConfig::default()
        });
        rec.set_enabled(true);
    }

    let region =
        Arc::new(RegionIndex::load(path).map_err(|e| format!("cannot read {path}: {e}"))?);
    let trips = generate_trips(
        region.graph(),
        &TripGenConfig { count: trips_n, seed, ..Default::default() },
    );
    eprintln!("simulating {} trips on {} clusters...", trips.len(), region.cluster_count());
    let mut sim = if threads == 1 {
        // The serial engine is one index — nothing to shard, but say
        // so instead of silently ignoring the flag.
        if flags.get_opt("shards").is_some() {
            eprintln!("shards         : --shards ignored on the serial driver (use --threads > 1)");
        }
        SimUnderTest::Serial(Box::new(XarBackend::new(XarEngine::new(
            Arc::clone(&region),
            EngineConfig::default(),
        ))))
    } else {
        eprintln!("parallel driver: {threads} worker threads over {shards} shards");
        SimUnderTest::Parallel(ShardedXarBackend::new(ShardedXarEngine::new(
            Arc::clone(&region),
            EngineConfig::default(),
            shards,
        )))
    };
    let cfg = SimConfig { walk_limit_m: walk, window_s: window, detour_limit_m: detour, k, ..Default::default() };

    // Live operational plane: the embedded HTTP server over the
    // backend's own registry.
    let server = match serve_addr {
        None => None,
        Some(addr) => {
            let registry = match &sim {
                SimUnderTest::Serial(b) => b.engine.metrics().registry(),
                SimUnderTest::Parallel(b) => b.engine.registry(),
            };
            let mut plane = OpsPlane::new(registry);
            // Live debug introspection: the shard map exists only on the
            // parallel driver.
            if let SimUnderTest::Parallel(b) = &sim {
                let engine = b.engine.clone();
                plane.debug.shards = Some(Arc::new(move || engine.shard_debug_json()));
            }
            let s = xar_obs::serve::serve(addr, plane)
                .map_err(|e| format!("cannot serve on {addr}: {e}"))?;
            // The bound address line is machine-read (CI, scripts) —
            // keep its shape stable and flush it promptly.
            println!("ops plane      : http://{}", s.local_addr());
            std::io::stdout().flush().ok();
            Some(s)
        }
    };

    let report = match &mut sim {
        SimUnderTest::Serial(b) => run_simulation(b.as_mut(), &trips, &cfg),
        SimUnderTest::Parallel(b) => run_parallel_dispatch(&*b, &trips, &cfg, threads),
    };

    // Snapshot the wide-event plane before the baseline replay so the
    // file covers exactly the system under test.
    if let Some(path) = &events_out {
        xar_obs::events::set_enabled(false);
        let snap = xar_obs::events::snapshot();
        std::fs::write(path, xar_obs::events::to_jsonl(&snap))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        println!(
            "events         : {path} ({} of {} events kept, {} dropped)",
            snap.kept(),
            snap.emitted,
            snap.dropped,
        );
    }

    println!("trips          : {}", trips.len());
    println!("booked         : {} ({:.1}% share rate)", report.booked, report.share_rate() * 100.0);
    println!("created        : {}", report.created);
    println!("unservable     : {}", report.unservable);
    println!(
        "search latency : avg {:.1} µs, p95 {:.1} µs, p99 {:.1} µs",
        report.mean_search_ms() * 1e3,
        percentile_ns(&report.search_ns, 95.0) / 1e3,
        percentile_ns(&report.search_ns, 99.0) / 1e3,
    );
    println!(
        "create latency : p50 {:.1} µs   book latency: p50 {:.1} µs",
        percentile_ns(&report.create_ns, 50.0) / 1e3,
        percentile_ns(&report.book_ns, 50.0) / 1e3,
    );
    let (sps, heap_bytes) = match &sim {
        SimUnderTest::Serial(b) => {
            (b.engine.stats().snapshot().shortest_paths, b.engine.heap_bytes())
        }
        SimUnderTest::Parallel(b) => {
            (b.engine.stats().snapshot().shortest_paths, b.engine.heap_bytes())
        }
    };
    println!("shortest paths : {sps} (never during search)");
    println!("runtime memory : {:.1} MiB", heap_bytes as f64 / (1024.0 * 1024.0));
    for line in report.phase_summary() {
        println!("phase          : {line}");
    }
    if let Some(json) = flags.get_opt("json") {
        std::fs::write(json, report.to_json())
            .map_err(|e| format!("cannot write {json}: {e}"))?;
        println!("raw report     : {json}");
    }
    if let Some(path) = flags.get_opt("metrics-out") {
        let registry = report.registry.as_ref().expect("simulation attaches a registry");
        std::fs::write(path, registry.snapshot_json())
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("metrics        : {path}");
    }

    if let Some(baseline) = flags.get_opt("baseline") {
        if baseline != "tshare" {
            return Err(CmdError::general(format!(
                "unknown baseline '{baseline}' (only 'tshare' is supported)"
            )));
        }
        eprintln!("replaying {} trips through the T-Share baseline...", trips.len());
        let mut ts = TShareBackend::new(TShareEngine::new(
            Arc::clone(region.graph()),
            TShareConfig::default(),
        ));
        let tr = run_simulation(&mut ts, &trips, &cfg);
        println!(
            "baseline       : tshare booked {} ({:.1}% share rate), search p95 {:.1} µs",
            tr.booked,
            tr.share_rate() * 100.0,
            percentile_ns(&tr.search_ns, 95.0) / 1e3,
        );
    }

    if let Some(path) = trace_out {
        let rec = xar_obs::trace::recorder();
        rec.set_enabled(false);
        std::fs::write(&path, export_chrome(&rec.snapshot()))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        let st = rec.stats();
        println!(
            "trace          : {path} ({} of {} traces kept, {} sampled out, {} events dropped)",
            st.kept_traces, st.started_traces, st.sampled_out_traces, st.dropped_events,
        );
    }

    if let Some(mut server) = server {
        // Keep the process (and server) alive so scrapers can observe
        // the post-run state.
        if linger_s > 0.0 {
            eprintln!("lingering {linger_s} s for scrapers...");
            std::thread::sleep(std::time::Duration::from_secs_f64(linger_s));
        }
        server.shutdown();
    }
    Ok(())
}

/// Render one attribute value compactly (`3`, `2.5`, `booked`, ...).
fn attr_value(v: &JsonValue) -> String {
    match v {
        JsonValue::Null => "null".into(),
        JsonValue::Bool(b) => b.to_string(),
        JsonValue::Number(n) => format!("{n}"),
        JsonValue::String(s) => s.clone(),
        JsonValue::Array(_) | JsonValue::Object(_) => "...".into(),
    }
}

fn attr_line(attrs: &Attrs) -> String {
    let mut out = String::new();
    for (k, v) in attrs {
        out.push_str(&format!(" {k}={}", attr_value(v)));
    }
    out
}

/// Recursive span printer: duration, self-time, attrs, then nested
/// spans and the instants that fired while this span was innermost.
fn print_span(node: &xar_obs::chrome::SpanNode, root_start_us: f64, depth: usize) {
    let indent = "  ".repeat(depth);
    println!(
        "  {indent}{:<24} +{:9.1} µs  dur {:9.1} µs  self {:9.1} µs{}",
        node.name,
        node.start_us - root_start_us,
        node.dur_us,
        node.self_us,
        attr_line(&node.attrs),
    );
    for (name, ts_us, attrs) in &node.instants {
        println!(
            "  {indent}  * {:<20} +{:9.1} µs{}",
            name,
            ts_us - root_start_us,
            attr_line(attrs),
        );
    }
    for child in &node.children {
        print_span(child, root_start_us, depth + 1);
    }
}

/// `xar trace`: inspect (or, with `--check`, validate) a Chrome trace
/// file written by `xar simulate --trace-out`. Check failures exit
/// with a distinct code per class: 2 = unreadable / invalid JSON,
/// 3 = no complete request timeline, 4 = missing drop counter.
fn trace_cmd(flags: &Flags) -> Result<(), CmdError> {
    let path = flags.require("in")?;
    let top: usize = flags.get("top", 10)?;
    let text = std::fs::read_to_string(path)
        .map_err(|e| CmdError::coded(2, format!("cannot read {path}: {e}")))?;
    let parsed =
        parse_chrome(&text).map_err(|e| CmdError::coded(2, format!("{path}: {e}")))?;
    let timelines = Timeline::build(&parsed);
    let requests: Vec<&Timeline> =
        timelines.iter().filter(|t| t.root.name == "request").collect();

    if flags.switch("check") {
        // The in-tree CI validator: a trace file is healthy when it is
        // valid Chrome JSON (parse_chrome above), carries at least one
        // complete request timeline, and self-describes its drop
        // accounting.
        if requests.is_empty() {
            return Err(CmdError::coded(3, format!("{path}: no complete 'request' timeline")));
        }
        if !parsed.has_drop_counter {
            return Err(CmdError::coded(4, format!("{path}: missing 'xar' drop-counter block")));
        }
        println!(
            "ok: {} events, {} timelines ({} requests), {}/{} traces kept, {} events dropped",
            parsed.events.len(),
            timelines.len(),
            requests.len(),
            parsed.kept_traces,
            parsed.started_traces,
            parsed.dropped_events,
        );
        return Ok(());
    }

    println!(
        "{path}: {} events, {} traces kept of {} started ({} sampled out), {} events dropped",
        parsed.events.len(),
        parsed.kept_traces,
        parsed.started_traces,
        parsed.sampled_out_traces,
        parsed.dropped_events,
    );
    let mut slowest = requests;
    slowest.sort_by(|a, b| {
        b.root.dur_us.partial_cmp(&a.root.dur_us).unwrap_or(std::cmp::Ordering::Equal)
    });
    println!("{} request timelines; {} slowest:", slowest.len(), top.min(slowest.len()));
    for (i, t) in slowest.iter().take(top).enumerate() {
        println!(
            "\n#{:<2} trace {}  {:.1} µs  {} spans{}",
            i + 1,
            t.trace,
            t.root.dur_us,
            t.span_count(),
            attr_line(&t.root.attrs),
        );
        print_span(&t.root, t.root.start_us, 0);
        for (name, ts_us, attrs) in &t.lifecycle {
            println!(
                "    ~ {:<20} +{:9.1} µs{}",
                name,
                ts_us - t.root.start_us,
                attr_line(attrs),
            );
        }
    }
    Ok(())
}

/// Render one parsed wide event as a single forensics line.
fn event_line(e: &xar_obs::events::ParsedEvent) -> String {
    let mut line = format!(
        "req {:<8} t={:>8.1}s  {:<10} reason={:<24} tier={} cand={:<4} matches={:<3} \
         stale={:<2} search={:>8.1}µs book={:>7.1}µs",
        e.request_id,
        e.sim_t_s,
        e.outcome,
        e.reason,
        e.tier,
        e.candidates,
        e.matches,
        e.stale,
        e.search_ns as f64 / 1e3,
        e.book_ns as f64 / 1e3,
    );
    if let Some(ride) = e.ride {
        line.push_str(&format!(
            "  ride={ride} walk={:.0}m detour={:.0}m wait={:.0}s",
            e.walk_m, e.detour_m, e.wait_s
        ));
    }
    line
}

/// `xar logs`: query a `--events-out` JSONL file. Prints the outcome
/// and rejection-reason histograms plus the matching records, slowest
/// (search + book time) first. Exit codes: 2 = unreadable / invalid
/// file, 3 = no events (or none matching the filters), 9 = invalid
/// filter value.
fn logs_cmd(flags: &Flags) -> Result<(), CmdError> {
    let path = flags.require("in")?;

    // Validate filters before touching the file so a bad invocation
    // fails fast with its distinct code.
    let outcome = match flags.get_opt("outcome") {
        None => None,
        Some(v) if ["booked", "created", "unservable"].contains(&v) => Some(v.to_string()),
        Some(v) => {
            return Err(CmdError::coded(
                9,
                format!("--outcome must be booked|created|unservable, got '{v}'"),
            ))
        }
    };
    let reason = match flags.get_opt("reason") {
        None => None,
        // Accept exactly the closed taxonomy ("unknown" included — a
        // healthy file has none, which is precisely what one greps for).
        Some(v) if Reason::from_code(v).code() == v => Some(v.to_string()),
        Some(v) => {
            let all: Vec<&str> = Reason::ALL.iter().map(|r| r.code()).collect();
            return Err(CmdError::coded(
                9,
                format!("--reason '{v}' is not in the taxonomy ({})", all.join(", ")),
            ));
        }
    };
    let slower_than_ns = match flags.get_opt("slower-than") {
        None => None,
        Some(v) => match v.parse::<f64>() {
            Ok(ms) if ms.is_finite() && ms >= 0.0 => Some((ms * 1e6) as u64),
            _ => {
                return Err(CmdError::coded(
                    9,
                    format!("--slower-than must be a non-negative number of ms, got '{v}'"),
                ))
            }
        },
    };
    let request: Option<u64> = match flags.get_opt("request") {
        None => None,
        Some(v) => match v.parse() {
            Ok(id) => Some(id),
            Err(_) => {
                return Err(CmdError::coded(
                    9,
                    format!("--request must be a numeric request id, got '{v}'"),
                ))
            }
        },
    };
    let top: usize = flags
        .get_opt("top")
        .map_or(Ok(10), |v| {
            v.parse().map_err(|_| {
                CmdError::coded(9, format!("--top must be a non-negative integer, got '{v}'"))
            })
        })?;

    let text = std::fs::read_to_string(path)
        .map_err(|e| CmdError::coded(2, format!("cannot read {path}: {e}")))?;
    let log = xar_obs::events::parse_jsonl(&text)
        .map_err(|e| CmdError::coded(2, format!("{path}: {e}")))?;
    if log.events.is_empty() {
        return Err(CmdError::coded(3, format!("{path}: no events recorded")));
    }

    println!(
        "{path}: {} events kept of {} emitted ({} dropped)",
        log.events.len(),
        log.emitted,
        log.dropped,
    );
    let fmt_hist = |hist: &[(String, u64)]| {
        hist.iter().map(|(k, n)| format!("{k} {n}")).collect::<Vec<_>>().join("   ")
    };
    println!("outcomes       : {}", fmt_hist(&log.outcome_histogram()));
    let rejections: Vec<(String, u64)> = log
        .reason_histogram()
        .into_iter()
        .filter(|(r, _)| r != Reason::Served.code())
        .collect();
    if !rejections.is_empty() {
        println!("rejections     : {}", fmt_hist(&rejections));
    }

    let mut matched: Vec<&xar_obs::events::ParsedEvent> = log
        .events
        .iter()
        .filter(|e| outcome.as_deref().is_none_or(|o| e.outcome == o))
        .filter(|e| reason.as_deref().is_none_or(|r| e.reason == r))
        .filter(|e| slower_than_ns.is_none_or(|ns| e.search_ns + e.book_ns > ns))
        .filter(|e| request.is_none_or(|id| e.request_id == id))
        .collect();
    if matched.is_empty() {
        return Err(CmdError::coded(3, format!("{path}: no events match the filters")));
    }
    matched.sort_by_key(|e| std::cmp::Reverse(e.search_ns + e.book_ns));
    let shown = if top == 0 { matched.len() } else { top.min(matched.len()) };
    println!("matched        : {} event(s), showing {shown} (slowest first)", matched.len());
    for e in matched.iter().take(shown) {
        println!("  {}", event_line(e));
    }
    Ok(())
}

/// `xar profile`: run an in-process simulation with the flight recorder
/// keeping every trace, fold the recorded span trees into a
/// hierarchical self/total-time profile, and write it as collapsed
/// stacks. The written file is
/// re-parsed with the in-repo reader and its total self-time compared
/// against the in-memory profile before success is reported — CI greps
/// the `validated` line.
fn profile_cmd(flags: &Flags) -> Result<(), CmdError> {
    let out = flags.require("out")?.to_string();
    let rows: usize = flags.get("rows", 24)?;
    let cols: usize = flags.get("cols", 24)?;
    let seed: u64 = flags.get("seed", 0x9F0F)?;
    let trips_n: usize = flags.get("trips", 2_000)?;
    let top: usize = flags.get("top", 10)?;

    // Keep every trace: the profile wants the whole run, not the
    // tail-sampled slice the flight recorder defaults to.
    let rec = xar_obs::trace::recorder();
    rec.configure(TraceConfig::keep_all());
    rec.set_enabled(true);

    eprintln!("profile city: {rows}x{cols} (seed {seed}), {trips_n} trips");
    let graph = Arc::new(CityConfig::manhattan(rows, cols, seed).generate());
    let pois = sample_pois(&graph, &PoiConfig { count: rows * cols / 2, ..Default::default() });
    let region = Arc::new(RegionIndex::build(
        Arc::clone(&graph),
        &pois,
        RegionConfig { cluster_goal: ClusterGoal::Delta(200.0), ..Default::default() },
    ));
    let trips =
        generate_trips(&graph, &TripGenConfig { count: trips_n, seed, ..Default::default() });
    let mut backend =
        XarBackend::new(XarEngine::new(Arc::clone(&region), EngineConfig::default()));
    let report = run_simulation(&mut backend, &trips, &SimConfig::default());

    rec.set_enabled(false);
    let profile = xar_obs::profile::Profile::from_snapshot(&rec.snapshot());
    if profile.spans == 0 {
        return Err(CmdError::general("the run recorded no spans — nothing to profile"));
    }
    println!("simulated      : {} trips ({} booked, {} created)", trips.len(), report.booked, report.created);

    let doc = profile.to_collapsed();
    std::fs::write(&out, &doc).map_err(|e| format!("cannot write {out}: {e}"))?;
    println!(
        "profile        : {out} (collapsed, {} traces, {} spans, {:.1} ms total)",
        profile.traces,
        profile.spans,
        profile.total_ns() as f64 / 1e6,
    );

    // Self-validation: what we just wrote must round-trip through the
    // in-repo parser and reconstruct the same total self-time.
    let entries = xar_obs::profile::parse_collapsed(&doc).map_err(|e| {
        CmdError::general(format!("{out}: written artifact does not re-parse: {e}"))
    })?;
    let reparsed = xar_obs::profile::Profile::from_entries(&entries);
    if reparsed.total_ns() != profile.total_ns() {
        return Err(CmdError::general(format!(
            "{out}: re-parsed total {} ns != profiled total {} ns",
            reparsed.total_ns(),
            profile.total_ns(),
        )));
    }
    println!(
        "validated      : round-trip ok ({} stacks, {} ns total self-time)",
        reparsed.collapsed_entries().len(),
        reparsed.total_ns(),
    );

    println!("\n{:<28} {:>12} {:>10}", "span (self-time)", "self ms", "count");
    for (name, self_ns, count) in profile.top_self(top) {
        println!("{:<28} {:>12.2} {:>10}", name, self_ns as f64 / 1e6, count);
    }
    Ok(())
}

/// One subcommand: its name as typed, the flags it
/// reads and its entry point. The flag lists mirror `usage()`.
struct Command {
    name: &'static str,
    flags: &'static [&'static str],
    run: fn(&Flags) -> Result<(), CmdError>,
}

const COMMANDS: &[Command] = &[
    Command {
        name: "build-region",
        flags: &["rows", "cols", "seed", "delta", "clusters", "out"],
        run: build_region,
    },
    Command { name: "inspect", flags: &["region"], run: inspect },
    Command {
        name: "simulate",
        flags: &[
            "region", "trips", "seed", "k", "walk", "window", "detour", "threads", "shards",
            "json", "metrics-out", "trace-out", "trace-slow-ms", "trace-sample", "trace-buffer",
            "events-out", "baseline", "serve", "linger-s",
        ],
        run: simulate,
    },
    Command {
        name: "logs",
        flags: &["in", "outcome", "reason", "slower-than", "request", "top"],
        run: logs_cmd,
    },
    Command { name: "trace", flags: &["in", "top", "check"], run: trace_cmd },
    Command {
        name: "profile",
        flags: &["out", "rows", "cols", "seed", "trips", "top"],
        run: profile_cmd,
    },
];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("{}", usage());
        return ExitCode::FAILURE;
    };
    if matches!(cmd.as_str(), "help" | "--help" | "-h") {
        println!("{}", usage());
        return ExitCode::SUCCESS;
    }
    let Some(command) = COMMANDS.iter().find(|c| c.name == cmd) else {
        eprintln!("error: unknown command '{cmd}'\n{}", usage());
        return ExitCode::FAILURE;
    };
    let flags = match Flags::parse(command.name, command.flags, rest) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: {e}\n{}", usage());
            return ExitCode::FAILURE;
        }
    };
    match (command.run)(&flags) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {}", e.msg);
            ExitCode::from(e.code.max(1))
        }
    }
}
