//! Simulation measurement reports.

use std::sync::Arc;

use xar_obs::json::JsonWriter;
use xar_obs::Registry;

/// The booking decision one request ended with — what the driver
/// equivalence properties compare: two runs are "decision-identical"
/// when their decision vectors are equal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Decision {
    /// The trip the decision is for.
    pub trip_id: u64,
    /// What happened to it.
    pub outcome: DecisionOutcome,
}

/// Outcome element of a [`Decision`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecisionOutcome {
    /// Pooled into an existing ride (the backend's opaque ride id).
    Booked {
        /// The ride that absorbed the request.
        ride: u64,
    },
    /// Put a new car on the road.
    Created,
    /// Could do neither.
    Unservable,
}

/// Everything one simulation run records: per-operation latencies,
/// outcome counters, and the metric registry the run recorded into.
/// The figure harnesses aggregate these into the paper's series.
#[derive(Debug, Default)]
pub struct SimReport {
    /// Wall-clock nanoseconds per search operation.
    pub search_ns: Vec<u64>,
    /// Wall-clock nanoseconds per ride-creation operation.
    pub create_ns: Vec<u64>,
    /// Wall-clock nanoseconds per booking attempt.
    pub book_ns: Vec<u64>,
    /// Searches issued (looks).
    pub looks: u64,
    /// Total matches returned across searches.
    pub matches_returned: u64,
    /// Requests served by booking an existing ride.
    pub booked: u64,
    /// Requests that created a new ride (a new car on the road).
    pub created: u64,
    /// Matches that went stale between search and booking.
    pub stale_matches: u64,
    /// Requests that could neither book nor create.
    pub unservable: u64,
    /// Realised booking detours, metres.
    pub detour_actual_m: Vec<f64>,
    /// Search-time detour estimates, metres.
    pub detour_estimated_m: Vec<f64>,
    /// Rider walking distances, metres.
    pub walk_m: Vec<f64>,
    /// Per booking: how far the realised detour exceeded the ride's
    /// remaining detour *limit* (0 when the limit held) — the paper's
    /// "detour limit exceeded by at most ..." quantity.
    pub detour_excess_m: Vec<f64>,
    /// Per booking: scheduled pick-up wait, seconds (pick-up ETA minus
    /// request time; only bookings with a finite ETA contribute).
    pub wait_s: Vec<f64>,
    /// Per-request booking decisions, in replay order.
    pub decisions: Vec<Decision>,
    /// The registry this run recorded into: per-phase `sim.*`
    /// histograms, plus the backend's own metrics (`engine.*` /
    /// `tshare.*` / `lock.*`) when the backend exposes its registry.
    pub registry: Option<Arc<Registry>>,
}

impl SimReport {
    /// Detour-approximation errors `actual − estimated` (clamped at 0),
    /// metres — the quantity Figure 3a plots against ε.
    pub fn detour_errors_m(&self) -> Vec<f64> {
        self.detour_actual_m
            .iter()
            .zip(&self.detour_estimated_m)
            .map(|(a, e)| (a - e).max(0.0))
            .collect()
    }

    /// Share of requests served by sharing (booked / (booked+created)).
    pub fn share_rate(&self) -> f64 {
        let total = self.booked + self.created;
        if total == 0 {
            0.0
        } else {
            self.booked as f64 / total as f64
        }
    }

    /// Total wall-clock seconds spent in searches.
    pub fn total_search_s(&self) -> f64 {
        self.search_ns.iter().sum::<u64>() as f64 / 1e9
    }

    /// Total wall-clock seconds spent in creations.
    pub fn total_create_s(&self) -> f64 {
        self.create_ns.iter().sum::<u64>() as f64 / 1e9
    }

    /// Total wall-clock seconds spent in bookings.
    pub fn total_book_s(&self) -> f64 {
        self.book_ns.iter().sum::<u64>() as f64 / 1e9
    }

    /// Mean search latency in milliseconds.
    pub fn mean_search_ms(&self) -> f64 {
        if self.search_ns.is_empty() {
            0.0
        } else {
            self.search_ns.iter().sum::<u64>() as f64 / self.search_ns.len() as f64 / 1e6
        }
    }

    /// One human-readable line per simulation phase with registry-backed
    /// percentiles, for operator-facing report output.
    pub fn phase_summary(&self) -> Vec<String> {
        let Some(reg) = &self.registry else {
            return Vec::new();
        };
        [
            "sim.search_ns",
            "sim.book_ns",
            "sim.create_ns",
            "sim.track_ns",
        ]
        .iter()
        .filter_map(|name| {
            let h = reg.histogram(name);
            (h.count() > 0).then(|| format!("{name}: {}", h.snapshot().format_ns()))
        })
        .collect()
    }

    /// The whole report as a JSON object (outcome counters, derived
    /// rates, latency percentiles, quality distributions, and — under
    /// `"metrics"` — the full registry snapshot when one is attached).
    ///
    /// The schema is documented in `EXPERIMENTS.md`.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        for (key, v) in [
            ("looks", self.looks),
            ("matches_returned", self.matches_returned),
            ("booked", self.booked),
            ("created", self.created),
            ("stale_matches", self.stale_matches),
            ("unservable", self.unservable),
        ] {
            w.key(key);
            w.number_u64(v);
        }
        w.key("share_rate");
        w.number_f64(self.share_rate());
        w.key("total_search_s");
        w.number_f64(self.total_search_s());
        w.key("total_create_s");
        w.number_f64(self.total_create_s());
        w.key("total_book_s");
        w.number_f64(self.total_book_s());

        let lat = |w: &mut JsonWriter, key: &str, ns: &[u64]| {
            w.key(key);
            w.begin_object();
            w.key("count");
            w.number_u64(ns.len() as u64);
            for (q, p) in [("p50", 50.0), ("p90", 90.0), ("p99", 99.0)] {
                w.key(q);
                w.number_f64(percentile_ns(ns, p));
            }
            w.key("max");
            w.number_u64(ns.iter().copied().max().unwrap_or(0));
            w.end_object();
        };
        lat(&mut w, "search_latency_ns", &self.search_ns);
        lat(&mut w, "create_latency_ns", &self.create_ns);
        lat(&mut w, "book_latency_ns", &self.book_ns);

        let dist = |w: &mut JsonWriter, key: &str, vals: &[f64]| {
            w.key(key);
            w.begin_object();
            w.key("count");
            w.number_u64(vals.len() as u64);
            for (q, p) in [("p50", 50.0), ("p90", 90.0), ("p99", 99.0), ("max", 100.0)] {
                w.key(q);
                w.number_f64(percentile(vals, p));
            }
            w.end_object();
        };
        dist(&mut w, "detour_actual_m", &self.detour_actual_m);
        dist(&mut w, "detour_excess_m", &self.detour_excess_m);
        dist(&mut w, "walk_m", &self.walk_m);
        dist(&mut w, "wait_s", &self.wait_s);

        if let Some(reg) = &self.registry {
            w.key("metrics");
            w.raw(&reg.snapshot_json());
        }
        w.end_object();
        w.finish()
    }
}

/// The `p`-th percentile (0–100) of nanosecond samples, in
/// nanoseconds (convenience wrapper over [`percentile`]).
pub fn percentile_ns(values: &[u64], p: f64) -> f64 {
    let v: Vec<f64> = values.iter().map(|&x| x as f64).collect();
    percentile(&v, p)
}

/// The `p`-th percentile (0–100) of `values`, by linear interpolation
/// on the sorted data. Returns 0 for an empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v: Vec<f64> = values.to_vec();
    v.sort_by(f64::total_cmp);
    let p = p.clamp(0.0, 100.0);
    let rank = p / 100.0 * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        v[lo]
    } else {
        let frac = rank - lo as f64;
        v[lo] * (1.0 - frac) + v[hi] * frac
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_ns_converts() {
        assert_eq!(percentile_ns(&[100u64, 200, 300], 100.0), 300.0);
    }

    #[test]
    fn percentiles() {
        let v: Vec<f64> = vec![10.0, 20.0, 30.0, 40.0];
        assert_eq!(percentile(&v, 0.0), 10.0);
        assert_eq!(percentile(&v, 100.0), 40.0);
        assert_eq!(percentile(&v, 50.0), 25.0);
        let empty: Vec<f64> = vec![];
        assert_eq!(percentile(&empty, 50.0), 0.0);
        let one = vec![7.0f64];
        assert_eq!(percentile(&one, 95.0), 7.0);
    }

    #[test]
    fn percentile_unsorted_input() {
        let v: Vec<f64> = vec![40.0, 10.0, 30.0, 20.0];
        assert_eq!(percentile(&v, 100.0), 40.0);
        assert_eq!(percentile(&v, 0.0), 10.0);
    }

    #[test]
    fn detour_errors_clamp() {
        let r = SimReport {
            detour_actual_m: vec![100.0, 50.0],
            detour_estimated_m: vec![80.0, 60.0],
            ..Default::default()
        };
        assert_eq!(r.detour_errors_m(), vec![20.0, 0.0]);
    }

    #[test]
    fn share_rate() {
        let r = SimReport {
            booked: 30,
            created: 70,
            ..Default::default()
        };
        assert!((r.share_rate() - 0.3).abs() < 1e-12);
        assert_eq!(SimReport::default().share_rate(), 0.0);
    }

    #[test]
    fn totals() {
        let r = SimReport {
            search_ns: vec![1_000_000, 3_000_000],
            ..Default::default()
        };
        assert!((r.total_search_s() - 0.004).abs() < 1e-12);
        assert!((r.mean_search_ms() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn json_has_counters_and_metrics() {
        let reg = Arc::new(Registry::new());
        reg.histogram("sim.search_ns").record(1_000);
        let r = SimReport {
            looks: 5,
            booked: 2,
            created: 3,
            search_ns: vec![500, 1_500],
            registry: Some(reg),
            ..Default::default()
        };
        let json = r.to_json();
        assert!(json.contains("\"looks\":5"), "{json}");
        assert!(json.contains("\"share_rate\":0.4"), "{json}");
        assert!(json.contains("\"metrics\":{"), "{json}");
        assert!(json.contains("\"sim.search_ns\""), "{json}");
        assert!(json.starts_with('{') && json.ends_with('}'));
    }

    #[test]
    fn phase_summary_lists_only_recorded_phases() {
        let reg = Arc::new(Registry::new());
        reg.histogram("sim.search_ns").record(2_000);
        let r = SimReport {
            registry: Some(reg),
            ..Default::default()
        };
        let lines = r.phase_summary();
        assert_eq!(lines.len(), 1, "{lines:?}");
        assert!(lines[0].starts_with("sim.search_ns:"));
        assert!(SimReport::default().phase_summary().is_empty());
    }
}
