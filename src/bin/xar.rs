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
//!              [--events-out FILE] [--baseline tshare] [--threads 1]
//!              [--shards N]
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
//!     both systems. The replay runs from one thread on the serial
//!     engine: `--threads` accepts only `1`, and `--shards` (1..=32) is
//!     validated and ignored. Any other value of either exits with code
//!     9; a `--threads` value other than 1 names the removed
//!     multi-worker mode (EXPERIMENTS.md, "One replay driver").
//!     `--events-out FILE` writes one structured decision record per
//!     request of the system under test (outcome, typed rejection
//!     reason, search tier, candidate count, latencies, promised ETAs,
//!     and the request's wall time split by layer) as segmented JSONL —
//!     the input of `xar logs`. Both files are exports of one recorder,
//!     which is on whenever either is requested: every request's record
//!     reaches the events file, and its spans reach the trace file when
//!     tail sampling keeps them.
//!
//! xar logs --in events.jsonl [--outcome X] [--reason Y]
//!          [--slower-than MS] [--request ID] [--top N]
//!     Forensics over a `--events-out` file: per-request decision
//!     records with outcome / rejection-reason / latency filters.
//!     Prints the outcome and rejection-reason histograms, the mean
//!     split of the matching records' wall time by layer (`layers :`),
//!     then the matching records (slowest first by wall time, `--top
//!     N`, default 10, 0 = all). `--request ID` answers "why was request
//!     R slow or rejected" with R's full record: its reason, its layer
//!     split and, when booked, its promised pick-up and drop-off ETAs.
//!     Exit codes: 2 = unreadable / invalid file,
//!     3 = no events (or none matching the filters), 9 = invalid
//!     filter value.
//!
//! xar trace --in trace.json [--top N] [--check] [--collapsed FILE]
//!     Print the N slowest request timelines (per-span self-time) from
//!     a `--trace-out` file. It prints no pick-up / drop-off milestones:
//!     a booking's promised ETAs are on its record, which `xar logs
//!     --request ID` shows. With
//!     `--check`, validate the file and exit with a distinct code per
//!     failure class: 2 = unreadable / invalid JSON, 3 = no complete
//!     request timeline, 4 = missing drop counter. `--collapsed FILE`
//!     also folds every complete timeline into collapsed stacks
//!     (`frame;frame;… self_ns`, the input of flamegraph.pl, inferno
//!     and speedscope): the trace file is the profile. Record one with
//!     `simulate --trace-out F --trace-sample 1 --trace-slow-ms 0`.
//! ```
//!
//! Every subcommand accepts only the flags listed for it here: any
//! other `--flag` exits with code 1 before the command does any work,
//! and so does a `simulate` value that cannot mean anything (a
//! negative or non-finite distance, window or time, `--k 0`,
//! `--trace-buffer 0`, a `--trace-sample` outside [0, 1], or a
//! `--baseline` other than `tshare`), whether or not the flag it
//! tunes is on.
//! Everything a command prints to stdout goes through one writer: when
//! its reader exits early (`xar logs … | head`), the command stops
//! quietly with exit 0.

#![forbid(unsafe_code)]

use std::collections::HashMap;
use std::io::{self, Write};
use std::process::ExitCode;
use std::sync::Arc;

use xar_obs::chrome::{collapse, export_chrome, parse_chrome, Attrs, Timeline};
use xar_obs::events::{ParsedEvent, LAYERS};
use xar_obs::json::JsonValue;
use xar_obs::TraceConfig;
use xhare_a_ride::core::{EngineConfig, Reason, XarEngine};
use xhare_a_ride::discretize::{ClusterGoal, RegionConfig, RegionIndex};
use xhare_a_ride::roadnet::{sample_pois, CityConfig, PoiConfig};
use xhare_a_ride::tshare::{TShareConfig, TShareEngine};
use xhare_a_ride::workload::{
    generate_trips, percentile_ns, run_simulation, SimConfig, TShareBackend, TripGenConfig,
    XarBackend,
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
        Self {
            code: 1,
            msg: msg.into(),
        }
    }

    /// A failure with a specific exit code.
    fn coded(code: u8, msg: impl Into<String>) -> Self {
        Self {
            code,
            msg: msg.into(),
        }
    }
}

impl From<String> for CmdError {
    fn from(msg: String) -> Self {
        CmdError::general(msg)
    }
}

/// A failed write to stdout. A closed pipe means the reader has all it
/// wanted, so it carries code 0 and no message; `main` exits quietly.
impl From<io::Error> for CmdError {
    fn from(e: io::Error) -> Self {
        match e.kind() {
            io::ErrorKind::BrokenPipe => Self {
                code: 0,
                msg: String::new(),
            },
            _ => CmdError::general(format!("cannot write to stdout: {e}")),
        }
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
            Some(v) => v
                .parse()
                .map_err(|_| format!("invalid value '{v}' for --{key}")),
        }
    }

    fn get_opt(&self, key: &str) -> Option<&str> {
        self.values.get(key).map(String::as_str)
    }

    fn require(&self, key: &str) -> Result<&str, String> {
        self.get_opt(key)
            .ok_or_else(|| format!("missing required flag --{key}"))
    }

    /// A distance, window or time: finite and non-negative.
    fn non_negative(&self, key: &str, default: f64) -> Result<f64, String> {
        match self.get(key, default)? {
            v if v.is_finite() && v >= 0.0 => Ok(v),
            v => Err(format!("--{key} must be a finite number >= 0, got '{v}'")),
        }
    }
}

fn usage() -> &'static str {
    "usage:\n  xar build-region [--rows N] [--cols N] [--seed S] [--delta M | --clusters C] --out FILE\n  xar inspect --region FILE\n  xar simulate --region FILE [--trips N] [--seed S] [--k N] [--walk M] [--window S] [--detour M] [--threads 1] [--shards N] [--json FILE] [--metrics-out FILE] [--trace-out FILE] [--trace-slow-ms F] [--trace-sample P] [--trace-buffer N] [--events-out FILE] [--baseline tshare]\n  xar logs --in FILE [--outcome X] [--reason Y] [--slower-than MS] [--request ID] [--top N]\n  xar trace --in FILE [--top N] [--check] [--collapsed FILE]"
}

fn build_region(flags: &Flags, out: &mut dyn Write) -> Result<(), CmdError> {
    let rows: usize = flags.get("rows", 60)?;
    let cols: usize = flags.get("cols", 60)?;
    for (key, n) in [("rows", rows), ("cols", cols)] {
        if n < 2 {
            return Err(format!("--{key} must be at least 2 (a 2x2 lattice), got {n}").into());
        }
    }
    let seed: u64 = flags.get("seed", 1)?;
    let file = flags.require("out")?;
    let goal = if let Some(c) = flags.get_opt("clusters") {
        match c.parse() {
            Ok(k) if k > 0 => ClusterGoal::FixedCount(k),
            _ => return Err(format!("--clusters must be a positive integer, got '{c}'").into()),
        }
    } else {
        ClusterGoal::Delta(flags.non_negative("delta", 250.0)?)
    };

    eprintln!("generating {rows}x{cols} city (seed {seed})...");
    let graph = Arc::new(CityConfig::manhattan(rows, cols, seed).generate());
    let pois = sample_pois(
        &graph,
        &PoiConfig {
            count: rows * cols / 2,
            ..Default::default()
        },
    );
    eprintln!(
        "pre-processing: {} nodes, {} POIs -> landmarks -> clusters...",
        graph.node_count(),
        pois.len()
    );
    let region = RegionIndex::build(
        graph,
        &pois,
        RegionConfig {
            cluster_goal: goal,
            ..Default::default()
        },
    );
    region
        .save(file)
        .map_err(|e| format!("cannot write {file}: {e}"))?;
    writeln!(
        out,
        "region saved to {file}: {} landmarks, {} clusters, epsilon {:.0} m, tables {:.1} MiB",
        region.landmark_count(),
        region.cluster_count(),
        region.epsilon_m(),
        region.heap_bytes() as f64 / (1024.0 * 1024.0),
    )?;
    Ok(())
}

fn inspect(flags: &Flags, out: &mut dyn Write) -> Result<(), CmdError> {
    let path = flags.require("region")?;
    let region = RegionIndex::load(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let g = region.graph();
    writeln!(out, "region file    : {path}")?;
    writeln!(
        out,
        "road network   : {} way-points, {} segments",
        g.node_count(),
        g.edge_count()
    )?;
    writeln!(
        out,
        "grid           : {} x {} cells of {:.0} m",
        region.grid().cols(),
        region.grid().rows(),
        region.grid().cell_m()
    )?;
    writeln!(out, "landmarks      : {}", region.landmark_count())?;
    writeln!(out, "clusters       : {}", region.cluster_count())?;
    writeln!(
        out,
        "epsilon        : {:.0} m (worst intra-cluster driving distance)",
        region.epsilon_m()
    )?;
    writeln!(
        out,
        "tables in RAM  : {:.1} MiB",
        region.heap_bytes() as f64 / (1024.0 * 1024.0)
    )?;
    writeln!(
        out,
        "router table   : {:.1} MiB (rebuilt on load, not in the file)",
        region.router().heap_bytes() as f64 / (1024.0 * 1024.0)
    )?;
    let cells = region.grid().cell_count();
    let bytes = cells * std::mem::size_of::<xhare_a_ride::roadnet::NodeId>() as u64;
    writeln!(
        out,
        "grid table     : {cells} cells, {bytes} B (tier 1 of the tables; rebuilt on load)"
    )?;
    let sizes: Vec<usize> = (0..region.cluster_count() as u32)
        .map(|c| {
            region
                .cluster_members(xhare_a_ride::discretize::ClusterId(c))
                .len()
        })
        .collect();
    let max = sizes.iter().max().copied().unwrap_or(0);
    let avg = sizes.iter().sum::<usize>() as f64 / sizes.len().max(1) as f64;
    writeln!(out, "cluster sizes  : avg {avg:.1} landmarks, max {max}")?;
    Ok(())
}

/// Validate `--threads`: the replay runs from one thread, so `1` (the
/// default) is the only value. Anything else exits with the distinct
/// code 9, so scripts can tell a bad invocation from a failed run.
fn check_threads_flag(flags: &Flags) -> Result<(), CmdError> {
    match flags.get_opt("threads") {
        None | Some("1") => Ok(()),
        Some(v) => Err(CmdError::coded(
            9,
            format!("--threads must be 1, got '{v}': the multi-worker replay was removed"),
        )),
    }
}

/// The largest `--shards` value accepted.
const MAX_SHARDS: usize = 32;

/// Validate `--shards` (1..=[`MAX_SHARDS`]); the serial engine does not
/// use it. Out-of-range values share the exit-code-9 contract.
fn check_shards_flag(flags: &Flags) -> Result<(), CmdError> {
    match flags.get_opt("shards") {
        Some(v) if !matches!(v.parse::<usize>(), Ok(1..=MAX_SHARDS)) => Err(CmdError::coded(
            9,
            format!("--shards must be an integer in 1..={MAX_SHARDS}, got '{v}'"),
        )),
        _ => Ok(()),
    }
}

fn simulate(flags: &Flags, out: &mut dyn Write) -> Result<(), CmdError> {
    // Validated before any heavy work so a bad value fails fast with
    // its distinct exit code.
    check_threads_flag(flags)?;
    check_shards_flag(flags)?;
    let path = flags.require("region")?;
    let trips_n: usize = flags.get("trips", 10_000)?;
    let seed: u64 = flags.get("seed", 0x7A11)?;
    let k: usize = flags.get("k", usize::MAX)?;
    if k == 0 {
        return Err(CmdError::general("--k must be at least 1, got '0'"));
    }
    let walk = flags.non_negative("walk", 800.0)?;
    let window = flags.non_negative("window", 1_200.0)?;
    let detour = flags.non_negative("detour", 4_000.0)?;
    let slow_ms = flags.non_negative("trace-slow-ms", 1.0)?;
    let sample: f64 = flags.get("trace-sample", 0.01)?;
    if !(0.0..=1.0).contains(&sample) {
        return Err(CmdError::general(
            "--trace-sample must be a probability in [0, 1]",
        ));
    }
    let buffer: usize = flags.get("trace-buffer", 262_144)?;
    if buffer == 0 {
        return Err(CmdError::general(
            "--trace-buffer must be at least 1 span event",
        ));
    }
    let baseline = flags.get_opt("baseline");
    if let Some(b) = baseline.filter(|&b| b != "tshare") {
        return Err(CmdError::general(format!(
            "--baseline must be 'tshare' (the only baseline), got '{b}'"
        )));
    }

    // One recorder serves both files: every request's wide event is
    // kept for `--events-out`, and tail sampling decides which spans
    // reach `--trace-out` (none, without it).
    let events_out = flags.get_opt("events-out").map(str::to_string);
    let trace_out = flags.get_opt("trace-out").map(str::to_string);
    let rec = xar_obs::trace::recorder();
    if trace_out.is_some() {
        rec.configure(TraceConfig {
            slow_threshold_ns: (slow_ms * 1e6) as u64,
            sample_per_mille: (sample * 1000.0).round() as u32,
            capacity_events: buffer,
            ..TraceConfig::default()
        });
    } else {
        rec.configure(TraceConfig::events_only());
    }
    rec.set_enabled(trace_out.is_some() || events_out.is_some());

    let region = Arc::new(RegionIndex::load(path).map_err(|e| format!("cannot read {path}: {e}"))?);
    let trips = generate_trips(
        region.graph(),
        &TripGenConfig {
            count: trips_n,
            seed,
            ..Default::default()
        },
    );
    eprintln!(
        "simulating {} trips on {} clusters...",
        trips.len(),
        region.cluster_count()
    );
    // The serial engine is one index — nothing to shard, but say so
    // instead of silently ignoring the flag.
    if flags.get_opt("shards").is_some() {
        eprintln!(
            "shards         : --shards ignored on the serial driver (the multi-worker replay was removed)"
        );
    }
    let mut sim = XarBackend::new(XarEngine::new(Arc::clone(&region), EngineConfig::default()));
    let cfg = SimConfig {
        walk_limit_m: walk,
        window_s: window,
        detour_limit_m: detour,
        k,
        ..Default::default()
    };
    let report = run_simulation(&mut sim, &trips, &cfg);

    // Write the events file before the baseline replay so it covers
    // exactly the system under test; the trace file covers both.
    if baseline.is_none() || trace_out.is_none() {
        rec.set_enabled(false);
    }
    let mut sut_snapshot = None;
    if let Some(path) = &events_out {
        let snap = rec.snapshot();
        std::fs::write(path, xar_obs::events::to_jsonl(&snap))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        let st = snap.stats;
        writeln!(
            out,
            "events         : {path} ({} of {} events kept, {} dropped)",
            st.emitted_records - st.dropped_records,
            st.emitted_records,
            st.dropped_records,
        )?;
        sut_snapshot = Some(snap);
    }

    writeln!(out, "trips          : {}", trips.len())?;
    writeln!(
        out,
        "booked         : {} ({:.1}% share rate)",
        report.booked,
        report.share_rate() * 100.0
    )?;
    writeln!(out, "created        : {}", report.created)?;
    writeln!(out, "unservable     : {}", report.unservable)?;
    writeln!(
        out,
        "search latency : avg {:.1} µs, p95 {:.1} µs, p99 {:.1} µs",
        report.mean_search_ms() * 1e3,
        percentile_ns(&report.search_ns, 95.0) / 1e3,
        percentile_ns(&report.search_ns, 99.0) / 1e3,
    )?;
    writeln!(
        out,
        "create latency : p50 {:.1} µs   book latency: p50 {:.1} µs",
        percentile_ns(&report.create_ns, 50.0) / 1e3,
        percentile_ns(&report.book_ns, 50.0) / 1e3,
    )?;
    let sps = sim.engine.stats().snapshot().shortest_paths;
    writeln!(out, "shortest paths : {sps} (never during search)")?;
    writeln!(
        out,
        "runtime memory : {:.1} MiB",
        sim.engine.heap_bytes() as f64 / (1024.0 * 1024.0)
    )?;
    for line in report.phase_summary() {
        writeln!(out, "phase          : {line}")?;
    }
    if let Some(json) = flags.get_opt("json") {
        std::fs::write(json, report.to_json()).map_err(|e| format!("cannot write {json}: {e}"))?;
        writeln!(out, "raw report     : {json}")?;
    }
    if let Some(path) = flags.get_opt("metrics-out") {
        let registry = report
            .registry
            .as_ref()
            .expect("simulation attaches a registry");
        std::fs::write(path, registry.snapshot_json())
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        writeln!(out, "metrics        : {path}")?;
    }

    if baseline.is_some() {
        eprintln!(
            "replaying {} trips through the T-Share baseline...",
            trips.len()
        );
        let mut ts = TShareBackend::new(TShareEngine::new(
            Arc::clone(region.graph()),
            TShareConfig::default(),
        ));
        let tr = run_simulation(&mut ts, &trips, &cfg);
        sut_snapshot = None;
        writeln!(
            out,
            "baseline       : tshare booked {} ({:.1}% share rate), search p95 {:.1} µs",
            tr.booked,
            tr.share_rate() * 100.0,
            percentile_ns(&tr.search_ns, 95.0) / 1e3,
        )?;
    }

    if let Some(path) = trace_out {
        rec.set_enabled(false);
        let snap = sut_snapshot.unwrap_or_else(|| rec.snapshot());
        std::fs::write(&path, export_chrome(&snap))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        let st = snap.stats;
        writeln!(
            out,
            "trace          : {path} ({} of {} traces kept, {} sampled out, {} events dropped)",
            st.kept_traces, st.started_traces, st.sampled_out_traces, st.dropped_events,
        )?;
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
/// spans.
fn print_span(
    out: &mut dyn Write,
    node: &xar_obs::chrome::SpanNode,
    root_start_us: f64,
    depth: usize,
) -> io::Result<()> {
    let indent = "  ".repeat(depth);
    writeln!(
        out,
        "  {indent}{:<24} +{:9.1} µs  dur {:9.1} µs  self {:9.1} µs{}",
        node.name,
        node.start_us - root_start_us,
        node.dur_us,
        node.self_us,
        attr_line(&node.attrs),
    )?;
    for child in &node.children {
        print_span(out, child, root_start_us, depth + 1)?;
    }
    Ok(())
}

/// `xar trace`: inspect (or, with `--check`, validate) a Chrome trace
/// file written by `xar simulate --trace-out`, and with `--collapsed`
/// also fold it into collapsed stacks. Failures exit with a distinct
/// code per class: 2 = unreadable / invalid JSON, 3 = no complete
/// request timeline (for `--collapsed`: no complete timeline at all),
/// 4 = missing drop counter.
fn trace_cmd(flags: &Flags, out: &mut dyn Write) -> Result<(), CmdError> {
    let path = flags.require("in")?;
    let top: usize = flags.get("top", 10)?;
    let text = std::fs::read_to_string(path)
        .map_err(|e| CmdError::coded(2, format!("cannot read {path}: {e}")))?;
    let parsed = parse_chrome(&text).map_err(|e| CmdError::coded(2, format!("{path}: {e}")))?;
    let timelines = Timeline::build(&parsed);

    if let Some(file) = flags.get_opt("collapsed") {
        if timelines.is_empty() {
            return Err(CmdError::coded(
                3,
                format!("{path}: no complete timeline to fold"),
            ));
        }
        let doc = collapse(&timelines);
        std::fs::write(file, &doc).map_err(|e| format!("cannot write {file}: {e}"))?;
        writeln!(
            out,
            "collapsed      : {file} ({} timelines, {} stacks)",
            timelines.len(),
            doc.lines().count(),
        )?;
    }

    let requests: Vec<&Timeline> = timelines
        .iter()
        .filter(|t| t.root.name == "request")
        .collect();

    if flags.switch("check") {
        // The in-tree CI validator: a trace file is healthy when it is
        // valid Chrome JSON (parse_chrome above), carries at least one
        // complete request timeline, and self-describes its drop
        // accounting.
        if requests.is_empty() {
            return Err(CmdError::coded(
                3,
                format!("{path}: no complete 'request' timeline"),
            ));
        }
        if !parsed.has_drop_counter {
            return Err(CmdError::coded(
                4,
                format!("{path}: missing 'xar' drop-counter block"),
            ));
        }
        writeln!(
            out,
            "ok: {} events, {} timelines ({} requests), {}/{} traces kept, {} events dropped",
            parsed.events.len(),
            timelines.len(),
            requests.len(),
            parsed.kept_traces,
            parsed.started_traces,
            parsed.dropped_events,
        )?;
        return Ok(());
    }

    writeln!(
        out,
        "{path}: {} events, {} traces kept of {} started ({} sampled out), {} events dropped",
        parsed.events.len(),
        parsed.kept_traces,
        parsed.started_traces,
        parsed.sampled_out_traces,
        parsed.dropped_events,
    )?;
    let mut slowest = requests;
    slowest.sort_by(|a, b| {
        b.root
            .dur_us
            .partial_cmp(&a.root.dur_us)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    writeln!(
        out,
        "{} request timelines; {} slowest:",
        slowest.len(),
        top.min(slowest.len())
    )?;
    for (i, t) in slowest.iter().take(top).enumerate() {
        writeln!(
            out,
            "\n#{:<2} trace {}  {:.1} µs  {} spans{}",
            i + 1,
            t.trace,
            t.root.dur_us,
            t.span_count(),
            attr_line(&t.root.attrs),
        )?;
        print_span(out, &t.root, t.root.start_us, 0)?;
    }
    Ok(())
}

/// Render one parsed wide event as a single forensics line.
fn event_line(e: &ParsedEvent) -> String {
    let mut line = format!(
        "req {:<8} t={:>8.1}s  {:<10} reason={:<24} tier={} cand={:<4} matches={:<3} \
         stale={:<2} dur={:>8.1}µs search={:>8.1}µs book={:>7.1}µs",
        e.request_id,
        e.sim_t_s,
        e.outcome,
        e.reason,
        e.tier,
        e.candidates,
        e.matches,
        e.stale,
        e.dur_ns as f64 / 1e3,
        e.search_ns as f64 / 1e3,
        e.book_ns as f64 / 1e3,
    );
    if let Some(ride) = e.ride {
        line.push_str(&format!(
            "  ride={ride} walk={:.0}m detour={:.0}m wait={:.0}s",
            e.walk_m, e.detour_m, e.wait_s
        ));
    }
    if let (Some(pickup), Some(dropoff)) = (e.pickup_eta_s, e.dropoff_eta_s) {
        line.push_str(&format!(
            " pickup_eta={pickup:.1}s dropoff_eta={dropoff:.1}s"
        ));
    }
    line
}

/// The mean split by layer of the records that carry one:
/// `search 8.1 µs (6%)  …  other 20.3 µs (15%)`, or `None` when no
/// record does (files written before the split existed).
fn layers_line(events: &[&ParsedEvent]) -> Option<String> {
    let splits: Vec<&[u64; LAYERS.len()]> =
        events.iter().filter_map(|e| e.layers.as_ref()).collect();
    if splits.is_empty() {
        return None;
    }
    let mean_us =
        |i: usize| splits.iter().map(|l| l[i] as f64).sum::<f64>() / splits.len() as f64 / 1e3;
    let total_us: f64 = (0..LAYERS.len()).map(mean_us).sum();
    let parts: Vec<String> = LAYERS
        .iter()
        .enumerate()
        .map(|(i, name)| {
            let us = mean_us(i);
            format!(
                "{name} {us:.1} µs ({:.0}%)",
                100.0 * us / total_us.max(f64::MIN_POSITIVE)
            )
        })
        .collect();
    Some(format!(
        "{}  = {total_us:.1} µs mean over {}",
        parts.join("  "),
        splits.len()
    ))
}

/// `xar logs`: query a `--events-out` JSONL file. Prints the outcome
/// and rejection-reason histograms, the matching records' mean layer
/// split, and the matching records, slowest (wall time) first. Exit codes: 2 = unreadable / invalid
/// file, 3 = no events (or none matching the filters), 9 = invalid
/// filter value.
fn logs_cmd(flags: &Flags, out: &mut dyn Write) -> Result<(), CmdError> {
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
    let top: usize = flags.get_opt("top").map_or(Ok(10), |v| {
        v.parse().map_err(|_| {
            CmdError::coded(
                9,
                format!("--top must be a non-negative integer, got '{v}'"),
            )
        })
    })?;

    let text = std::fs::read_to_string(path)
        .map_err(|e| CmdError::coded(2, format!("cannot read {path}: {e}")))?;
    let log = xar_obs::events::parse_jsonl(&text)
        .map_err(|e| CmdError::coded(2, format!("{path}: {e}")))?;
    if log.events.is_empty() {
        return Err(CmdError::coded(3, format!("{path}: no events recorded")));
    }

    writeln!(
        out,
        "{path}: {} events kept of {} emitted ({} dropped)",
        log.events.len(),
        log.emitted,
        log.dropped,
    )?;
    let fmt_hist = |hist: &[(String, u64)]| {
        hist.iter()
            .map(|(k, n)| format!("{k} {n}"))
            .collect::<Vec<_>>()
            .join("   ")
    };
    writeln!(
        out,
        "outcomes       : {}",
        fmt_hist(&log.outcome_histogram())
    )?;
    let rejections: Vec<(String, u64)> = log
        .reason_histogram()
        .into_iter()
        .filter(|(r, _)| r != Reason::Served.code())
        .collect();
    if !rejections.is_empty() {
        writeln!(out, "rejections     : {}", fmt_hist(&rejections))?;
    }

    let mut matched: Vec<&ParsedEvent> = log
        .events
        .iter()
        .filter(|e| outcome.as_deref().is_none_or(|o| e.outcome == o))
        .filter(|e| reason.as_deref().is_none_or(|r| e.reason == r))
        .filter(|e| slower_than_ns.is_none_or(|ns| e.dur_ns > ns))
        .filter(|e| request.is_none_or(|id| e.request_id == id))
        .collect();
    if matched.is_empty() {
        return Err(CmdError::coded(
            3,
            format!("{path}: no events match the filters"),
        ));
    }
    matched.sort_by_key(|e| std::cmp::Reverse(e.dur_ns));
    if let Some(line) = layers_line(&matched) {
        writeln!(out, "layers         : {line}")?;
    }
    let shown = if top == 0 {
        matched.len()
    } else {
        top.min(matched.len())
    };
    writeln!(
        out,
        "matched        : {} event(s), showing {shown} (slowest first)",
        matched.len()
    )?;
    for e in matched.iter().take(shown) {
        writeln!(out, "  {}", event_line(e))?;
    }
    Ok(())
}

/// One subcommand: its name as typed, the flags it
/// reads and its entry point. The flag lists mirror `usage()`.
struct Command {
    name: &'static str,
    flags: &'static [&'static str],
    run: fn(&Flags, &mut dyn Write) -> Result<(), CmdError>,
}

const COMMANDS: &[Command] = &[
    Command {
        name: "build-region",
        flags: &["rows", "cols", "seed", "delta", "clusters", "out"],
        run: build_region,
    },
    Command {
        name: "inspect",
        flags: &["region"],
        run: inspect,
    },
    Command {
        name: "simulate",
        flags: &[
            "region",
            "trips",
            "seed",
            "k",
            "walk",
            "window",
            "detour",
            "threads",
            "shards",
            "json",
            "metrics-out",
            "trace-out",
            "trace-slow-ms",
            "trace-sample",
            "trace-buffer",
            "events-out",
            "baseline",
        ],
        run: simulate,
    },
    Command {
        name: "logs",
        flags: &["in", "outcome", "reason", "slower-than", "request", "top"],
        run: logs_cmd,
    },
    Command {
        name: "trace",
        flags: &["in", "top", "check", "collapsed"],
        run: trace_cmd,
    },
];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("{}", usage());
        return ExitCode::FAILURE;
    };
    let mut out = io::stdout();
    if matches!(cmd.as_str(), "help" | "--help" | "-h") {
        let _ = writeln!(out, "{}", usage());
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
    let run = (command.run)(&flags, &mut out).and_then(|()| out.flush().map_err(CmdError::from));
    match run {
        Ok(()) => ExitCode::SUCCESS,
        // The reader of stdout exited: it has everything it asked for.
        Err(e) if e.code == 0 => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {}", e.msg);
            ExitCode::from(e.code)
        }
    }
}
