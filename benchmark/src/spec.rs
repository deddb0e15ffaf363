//! The fixed workloads and the metric names the benchmark emits. The
//! tables here and the lists in `../BENCHMARK.json` must be equal; the
//! test at the bottom fails when one is edited without the other.

/// Wall seconds each workload's full size was calibrated to on the
/// reference container; `--seconds S` scales all trip counts by
/// `S / FULL_SIZE_SECONDS` (the common scale factor).
pub const FULL_SIZE_SECONDS: f64 = 30.0;
/// Requests that execute but are excluded from samples and from the
/// throughput clock (the index starts empty).
pub const WARMUP_REQUESTS: usize = 1_000;
/// Simulated seconds between tracking sweeps.
pub const TRACK_EVERY_S: f64 = 600.0;
/// Trips whose end-points feed the `roadnet.path.*` timings, at full size.
pub const PATH_PROBE_TRIPS: usize = 5_000;

pub struct Workload {
    pub name: &'static str,
    /// The city is `side × side` blocks.
    pub side: usize,
    /// Trips at full size (scale factor 1).
    pub full_trips: usize,
    /// Extra searches per request (look-to-book ratio − 1).
    pub looks: usize,
    /// Also drive the shipped `xar` binary, telemetry planes off and on.
    pub cli: bool,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "day",
        side: 70,
        full_trips: 60_000,
        looks: 0,
        cli: false,
    },
    Workload {
        name: "look",
        side: 70,
        full_trips: 15_000,
        looks: 80,
        cli: false,
    },
    Workload {
        name: "metro",
        side: 140,
        full_trips: 20_000,
        looks: 0,
        cli: false,
    },
    Workload {
        name: "day_obs",
        side: 70,
        full_trips: 15_000,
        looks: 0,
        cli: true,
    },
];

impl Workload {
    /// Trip count for a run of `seconds`; `smoke` divides it by 50.
    pub fn trips(&self, seconds: f64, smoke: bool) -> usize {
        let n = self.full_trips as f64 * seconds / FULL_SIZE_SECONDS;
        ((if smoke { n / 50.0 } else { n }).round() as usize).max(100)
    }
}

/// Warm-up for a replay of `trips` requests: the fixed 1 000, shrunk
/// only when a smoke run is too short to afford them.
pub fn warmup(trips: usize) -> usize {
    WARMUP_REQUESTS.min(trips / 5)
}

/// End-to-end metrics `(name, unit)`, measured with tracing off.
pub const END_TO_END: [(&str, &str); 11] = [
    ("setup_s", "s"),
    ("requests_per_s", "1/s"),
    ("request_p50_us", "us"),
    ("search_p50_us", "us"),
    ("book_p50_us", "us"),
    ("create_p50_us", "us"),
    ("index_heap_mb", "MB"),
    ("peak_rss_mb", "MB"),
    ("share_rate", "ratio"),
    ("mean_walk_m", "m"),
    ("mean_detour_m", "m"),
];

/// Per-layer metrics `(name, unit)`, from the traced run. The layer is
/// the part of the name before the last component.
pub const PER_LAYER: [(&str, &str); 60] = [
    ("roadnet.path.p50_us", "us"),
    ("roadnet.path.p99_us", "us"),
    ("roadnet.path_short.p50_us", "us"),
    ("roadnet.path_long.p50_us", "us"),
    ("roadnet.path.unroutable", "count"),
    ("roadnet.sp.calls_per_booking", "ratio"),
    ("roadnet.sp.calls", "count"),
    ("roadnet.sp.busy_s", "s"),
    ("roadnet.sp.busy_share", "ratio"),
    ("roadnet.sp.calls_in_search", "count"),
    ("discretize.build_s", "s"),
    ("discretize.save_s", "s"),
    ("discretize.load_s", "s"),
    ("discretize.file_mb", "MB"),
    ("discretize.region_heap_mb", "MB"),
    ("discretize.clusters", "count"),
    ("discretize.landmarks", "count"),
    ("discretize.snap.p50_ns", "ns"),
    ("core.search.calls", "count"),
    ("core.search.busy_s", "s"),
    ("core.search.busy_share", "ratio"),
    ("core.search.matches_per_call", "ratio"),
    ("core.search.hit_rate", "ratio"),
    ("core.search.hit.p50_us", "us"),
    ("core.search.miss.p50_us", "us"),
    ("core.book.calls", "count"),
    ("core.book.busy_s", "s"),
    ("core.book.busy_share", "ratio"),
    ("core.book.failed", "count"),
    ("core.book.attempts_per_booking", "ratio"),
    ("core.create.calls", "count"),
    ("core.create.busy_s", "s"),
    ("core.create.busy_share", "ratio"),
    ("core.create.p99_us", "us"),
    ("core.create.failed", "count"),
    ("core.track.calls", "count"),
    ("core.track.busy_s", "s"),
    ("core.track.busy_share", "ratio"),
    ("core.track.p50_us", "us"),
    ("core.track.max_us", "us"),
    ("core.track.retired", "count"),
    ("core.publish.calls", "count"),
    ("core.publish.busy_s", "s"),
    ("core.publish.dirty_clusters_mean", "count"),
    ("core.lock.write_hold_s", "s"),
    ("core.index.live_rides_mean", "count"),
    ("core.index.live_rides_max", "count"),
    ("workload.tripgen_s", "s"),
    ("obs.hist_record.ns", "ns"),
    ("obs.span_disabled.ns", "ns"),
    ("obs.trace_file_mb", "MB"),
    ("obs.events_file_mb", "MB"),
    ("cli.off.wall_s", "s"),
    ("cli.on.wall_s", "s"),
    ("driver.obs_overhead_ratio", "ratio"),
    ("driver.overhead_share", "ratio"),
    ("driver.trace_overhead_ratio", "ratio"),
    ("driver.request_p99_us", "us"),
    ("driver.search_p99_us", "us"),
    ("driver.book_p99_us", "us"),
];

/// Metric values keyed by the names of one of the tables above: a name
/// outside the table is a bug, and so is a name left without a value.
pub struct Metrics {
    table: &'static [(&'static str, &'static str)],
    values: Vec<Option<f64>>,
}

impl Metrics {
    pub fn new(table: &'static [(&'static str, &'static str)]) -> Self {
        Self {
            table,
            values: vec![None; table.len()],
        }
    }

    pub fn set(&mut self, name: &str, value: f64) {
        let i = self
            .table
            .iter()
            .position(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the table"));
        assert!(value.is_finite(), "metric {name} is not a number: {value}");
        self.values[i] = Some(value);
    }

    /// `(name, value, unit)` in table order.
    pub fn finish(&self) -> Vec<(&'static str, f64, &'static str)> {
        self.table
            .iter()
            .zip(&self.values)
            .map(|((name, unit), v)| {
                (
                    *name,
                    v.unwrap_or_else(|| panic!("metric {name} was never measured")),
                    *unit,
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

    /// The string field `field` of every object in the array under `key`.
    fn declared(key: &str, field: &str) -> Vec<String> {
        let start = BENCHMARK_JSON
            .find(&format!("\"{key}\""))
            .expect("key present");
        let body = &BENCHMARK_JSON[start..];
        let body = &body[..body.find(']').expect("array closes")];
        body.split('{')
            .skip(1)
            .map(|obj| {
                let at = obj.find(&format!("\"{field}\"")).expect("field present");
                let value = obj[at + field.len() + 2..].split('"').nth(1);
                value.expect("string value").to_string()
            })
            .collect()
    }

    fn column(table: &[(&str, &str)], unit: bool) -> Vec<String> {
        let pick = |(n, u): &(&str, &str)| if unit { u.to_string() } else { n.to_string() };
        table.iter().map(pick).collect()
    }

    #[test]
    fn emitted_names_equal_benchmark_json() {
        assert_eq!(declared("end_to_end", "name"), column(&END_TO_END, false));
        assert_eq!(declared("end_to_end", "unit"), column(&END_TO_END, true));
        assert_eq!(declared("per_layer", "name"), column(&PER_LAYER, false));
        assert_eq!(declared("per_layer", "unit"), column(&PER_LAYER, true));
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(declared("workloads", "name"), names);
    }

    #[test]
    fn names_and_units_stay_inside_the_contract_charset() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(name.len() <= 64 && unit.len() <= 16, "{name} {unit}");
            assert!(
                name.starts_with(|c: char| c.is_ascii_alphanumeric()),
                "{name}"
            );
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
            assert!(
                unit.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{unit}"
            );
            assert!(seen.insert(*name), "{name} is used twice");
        }
    }

    #[test]
    fn metrics_refuse_unknown_and_missing_names() {
        let mut m = Metrics::new(&END_TO_END);
        assert!(std::panic::catch_unwind(move || m.set("no_such_metric", 1.0)).is_err());
        let m = Metrics::new(&END_TO_END);
        assert!(std::panic::catch_unwind(move || m.finish()).is_err());
    }

    #[test]
    fn sizes_scale_with_seconds_and_smoke() {
        let day = &WORKLOADS[0];
        assert_eq!(day.trips(30.0, false), 60_000);
        assert_eq!(day.trips(15.0, false), 30_000);
        assert_eq!(day.trips(15.0, true), 600);
        assert_eq!(warmup(30_000), 1_000);
        assert_eq!(warmup(600), 120);
    }
}
