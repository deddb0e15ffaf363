//! Turns what the passes measured into the named metrics and runs the
//! output checks.

use crate::replay::Pass;
use crate::spec::{Metrics, END_TO_END, PER_LAYER};
use crate::stats::{mean, percentile, tail, us};
use crate::trace::{self_times, Layer};

fn sorted(samples: &[u64]) -> Vec<u64> {
    let mut s = samples.to_vec();
    s.sort_unstable();
    s
}

/// Median in µs; 0 for a split that holds no sample on this workload.
fn p50_us_or_zero(samples: &[u64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        us(percentile(&sorted(samples), 50.0))
    }
}

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// `VmHWM` of this process, MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

/// The end-to-end metrics of an untraced pass. Prints the sample count
/// behind every median.
pub fn end_to_end(pass: &Pass, setup_s: f64) -> Metrics {
    let mut m = Metrics::new(&END_TO_END);
    m.set("setup_s", setup_s);
    m.set(
        "requests_per_s",
        pass.request_ns.len() as f64 / secs(pass.wall_ns),
    );
    for (name, samples) in [
        ("request_p50_us", &pass.request_ns),
        ("search_p50_us", &pass.search_ns),
        ("book_p50_us", &pass.book_ns),
        ("create_p50_us", &pass.create_ns),
    ] {
        m.set(name, us(percentile(&sorted(samples), 50.0)));
        println!("# {name}: {} samples", samples.len());
    }
    let heap_mb: Vec<f64> = pass
        .index_heap_bytes
        .iter()
        .map(|&b| b as f64 / 1e6)
        .collect();
    m.set("index_heap_mb", mean(&heap_mb));
    m.set("peak_rss_mb", peak_rss_mb());
    m.set("share_rate", pass.booked as f64 / pass.requests as f64);
    m.set("mean_walk_m", ratio(pass.walk_sum_m, pass.booked as f64));
    m.set(
        "mean_detour_m",
        ratio(pass.detour_sum_m, pass.booked as f64),
    );
    m
}

/// Numbers the traced run measures outside the replay loop.
#[derive(Default)]
pub struct Probes {
    pub path_ns: Vec<u64>,
    pub path_short_ns: Vec<u64>,
    pub path_long_ns: Vec<u64>,
    pub path_unroutable: u64,
    pub snap_ns: Vec<u64>,
    pub build_s: f64,
    pub save_s: f64,
    pub load_s: f64,
    pub file_mb: f64,
    pub region_heap_mb: f64,
    pub clusters: usize,
    pub landmarks: usize,
    pub tripgen_s: f64,
    pub hist_record_ns: f64,
    pub span_disabled_ns: f64,
    /// Zero on the workloads that do not drive the `xar` binary.
    pub trace_file_mb: f64,
    pub events_file_mb: f64,
    pub cli_off_wall_s: f64,
    pub cli_on_wall_s: f64,
    pub obs_overhead_ratio: f64,
}

/// The per-layer metrics: busy time and counts from the traced pass's
/// spans, the rest from the engine's public series and the probes.
/// Returns the metrics and the check violations found on the way.
pub fn per_layer(
    untraced: &Pass,
    traced: &Pass,
    warmup: usize,
    probes: &Probes,
) -> (Metrics, Vec<String>) {
    let mut m = Metrics::new(&PER_LAYER);
    let wall_s = secs(traced.wall_ns);

    // Busy time per layer over the timed section, from the spans.
    let selfs = self_times(&traced.spans);
    let mut busy_ns = [0u64; Layer::ALL.len()];
    let mut calls = [0u64; Layer::ALL.len()];
    let mut request_self_ns = 0u64;
    for (s, self_ns) in traced.spans.iter().zip(&selfs) {
        if (s.request as usize) < warmup {
            continue;
        }
        busy_ns[s.layer as usize] += s.dur_ns();
        calls[s.layer as usize] += 1;
        if s.layer == Layer::Request {
            request_self_ns += self_ns;
        }
    }
    let busy_s = |l: Layer| secs(busy_ns[l as usize]);
    let n_calls = |l: Layer| calls[l as usize] as f64;

    let paths = sorted(&probes.path_ns);
    m.set("roadnet.path.p50_us", us(percentile(&paths, 50.0)));
    m.set("roadnet.path.p99_us", us(tail(&paths, 99.0).0));
    m.set(
        "roadnet.path_short.p50_us",
        p50_us_or_zero(&probes.path_short_ns),
    );
    m.set(
        "roadnet.path_long.p50_us",
        p50_us_or_zero(&probes.path_long_ns),
    );
    m.set("roadnet.path.unroutable", probes.path_unroutable as f64);
    m.set(
        "roadnet.sp.calls_per_booking",
        ratio(traced.booking_sp_sum as f64, traced.booked as f64),
    );
    m.set("roadnet.sp.calls", traced.series.sp.count as f64);
    m.set("roadnet.sp.busy_s", secs(traced.series.sp.sum));
    m.set("roadnet.sp.busy_share", secs(traced.series.sp.sum) / wall_s);
    m.set(
        "roadnet.sp.calls_in_search",
        traced.sp_calls_in_search as f64,
    );

    m.set("discretize.build_s", probes.build_s);
    m.set("discretize.save_s", probes.save_s);
    m.set("discretize.load_s", probes.load_s);
    m.set("discretize.file_mb", probes.file_mb);
    m.set("discretize.region_heap_mb", probes.region_heap_mb);
    m.set("discretize.clusters", probes.clusters as f64);
    m.set("discretize.landmarks", probes.landmarks as f64);
    m.set(
        "discretize.snap.p50_ns",
        percentile(&sorted(&probes.snap_ns), 50.0) as f64,
    );

    let (mut hit_ns, mut miss_ns) = (Vec::new(), Vec::new());
    for (&ns, &matches) in traced.search_ns.iter().zip(&traced.search_matches) {
        if matches > 0 {
            hit_ns.push(ns)
        } else {
            miss_ns.push(ns)
        }
    }
    let matches: f64 = traced.search_matches.iter().map(|&x| f64::from(x)).sum();
    m.set("core.search.calls", n_calls(Layer::Search));
    m.set("core.search.busy_s", busy_s(Layer::Search));
    m.set("core.search.busy_share", busy_s(Layer::Search) / wall_s);
    m.set(
        "core.search.matches_per_call",
        ratio(matches, n_calls(Layer::Search)),
    );
    m.set(
        "core.search.hit_rate",
        ratio(hit_ns.len() as f64, n_calls(Layer::Search)),
    );
    m.set("core.search.hit.p50_us", p50_us_or_zero(&hit_ns));
    m.set("core.search.miss.p50_us", p50_us_or_zero(&miss_ns));

    m.set("core.book.calls", n_calls(Layer::Book));
    m.set("core.book.busy_s", busy_s(Layer::Book));
    m.set("core.book.busy_share", busy_s(Layer::Book) / wall_s);
    m.set("core.book.failed", traced.book_failed as f64);
    m.set(
        "core.book.attempts_per_booking",
        ratio(
            n_calls(Layer::Book),
            n_calls(Layer::Book) - traced.book_failed as f64,
        ),
    );

    m.set("core.create.calls", n_calls(Layer::Create));
    m.set("core.create.busy_s", busy_s(Layer::Create));
    m.set("core.create.busy_share", busy_s(Layer::Create) / wall_s);
    m.set(
        "core.create.p99_us",
        us(tail(&sorted(&traced.create_ns), 99.0).0),
    );
    m.set("core.create.failed", traced.create_failed as f64);

    let track = sorted(&traced.track_ns);
    m.set("core.track.calls", n_calls(Layer::Track));
    m.set("core.track.busy_s", busy_s(Layer::Track));
    m.set("core.track.busy_share", busy_s(Layer::Track) / wall_s);
    m.set("core.track.p50_us", us(percentile(&track, 50.0)));
    m.set("core.track.max_us", us(percentile(&track, 100.0)));
    m.set("core.track.retired", traced.retired as f64);

    let series = &traced.series;
    m.set("core.publish.calls", series.publish.count as f64);
    m.set("core.publish.busy_s", secs(series.publish.sum));
    m.set(
        "core.publish.dirty_clusters_mean",
        ratio(
            series.dirty_clusters.sum as f64,
            series.dirty_clusters.count as f64,
        ),
    );
    m.set("core.lock.write_hold_s", secs(series.write_hold.sum));
    let live: Vec<f64> = traced.live_rides.iter().map(|&n| n as f64).collect();
    m.set("core.index.live_rides_mean", mean(&live));
    m.set(
        "core.index.live_rides_max",
        live.iter().copied().fold(0.0, f64::max),
    );

    m.set("workload.tripgen_s", probes.tripgen_s);
    m.set("obs.hist_record.ns", probes.hist_record_ns);
    m.set("obs.span_disabled.ns", probes.span_disabled_ns);
    m.set("obs.trace_file_mb", probes.trace_file_mb);
    m.set("obs.events_file_mb", probes.events_file_mb);
    m.set("cli.off.wall_s", probes.cli_off_wall_s);
    m.set("cli.on.wall_s", probes.cli_on_wall_s);
    m.set("driver.obs_overhead_ratio", probes.obs_overhead_ratio);

    // Driver overhead: the wall no request span covers, plus the
    // requests' self time (clock reads, sample pushes, request set-up).
    let outside_ns = traced.wall_ns - busy_ns[Layer::Request as usize];
    let overhead_share = secs(outside_ns + request_self_ns) / wall_s;
    m.set("driver.overhead_share", overhead_share);
    m.set(
        "driver.trace_overhead_ratio",
        traced.wall_ns as f64 / untraced.wall_ns as f64,
    );
    // Tail latencies spread too widely between runs to gate (see
    // README.md); like every end-to-end number they come from the
    // untraced pass.
    for (name, samples) in [
        ("driver.request_p99_us", &untraced.request_ns),
        ("driver.search_p99_us", &untraced.search_ns),
        ("driver.book_p99_us", &untraced.book_ns),
    ] {
        let (p99, used) = tail(&sorted(samples), 99.0);
        m.set(name, us(p99));
        println!(
            "# {name}: {} samples, tail percentile p{used:.2}",
            samples.len()
        );
    }

    let mut violations = Vec::new();
    let layers = [Layer::Search, Layer::Book, Layer::Create, Layer::Track];
    let shares: f64 = layers.iter().map(|&l| busy_s(l) / wall_s).sum::<f64>() + overhead_share;
    if (shares - 1.0).abs() > 0.001 {
        violations.push(format!(
            "busy shares + driver overhead sum to {shares}, not 1"
        ));
    }
    if traced.decisions_digest != untraced.decisions_digest {
        violations.push(format!(
            "two passes over the same seed decided differently: {:016x} vs {:016x}",
            untraced.decisions_digest, traced.decisions_digest
        ));
    }
    (m, violations)
}

/// The output checks every pass must hold; each violation is one line.
/// Requests that ended neither booked nor created are counted by the
/// caller, one failure each.
pub fn check_pass(pass: &Pass) -> Vec<String> {
    let mut v = Vec::new();
    if pass.booked + pass.created + pass.failed != pass.requests {
        v.push(format!(
            "booked {} + created {} + failed {} != requests {}",
            pass.booked, pass.created, pass.failed, pass.requests
        ));
    }
    if pass.overbooked_rides > 0 {
        v.push(format!(
            "{} rides hold more bookings than seats offered",
            pass.overbooked_rides
        ));
    }
    if pass.booking_sp_over_limit > 0 {
        v.push(format!(
            "{} bookings computed more than 4 shortest paths",
            pass.booking_sp_over_limit
        ));
    }
    if pass.sp_calls_in_search > 0 {
        v.push(format!(
            "{} shortest paths computed during search",
            pass.sp_calls_in_search
        ));
    }
    v
}
