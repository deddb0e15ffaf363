//! Figure 3a — quality of matching rides.
//!
//! The paper's guarantee (§V): "the detour limit of a ride will be
//! exceeded by at most a 4ε additive factor, while we show later
//! empirically, that for 98% of the cases, the detour limit is exceeded
//! by at most an additive ε distance". We run the §X.A.2 simulation
//! over the synthetic taxi day and print:
//!
//! 1. the paper's quantity — realised detour in excess of the ride's
//!    remaining detour *limit* at booking time;
//! 2. a stricter internal measure — realised detour in excess of the
//!    search-time *estimate* (the raw discretization error);
//! 3. the bookings beyond 4ε on either measure, split four ways: same
//!    or split segment, the booking's ordinal on its ride, how many of
//!    its two ends lie in one of the ride's pass-through clusters, and,
//!    for a same-segment booking, whether the pick-up lies farther by
//!    road from the segment's start than the drop-off (the ride doubles
//!    back).

use std::sync::Arc;

use xar_bench::{header, row, scale_arg, BenchCity};
use xar_core::{Reason, RideMatch, SearchExplain};
use xar_obs::Registry;
use xar_roadnet::ShortestPaths;
use xar_workload::{
    percentile, run_simulation, BookResult, RideBackend, SimConfig, Trip, XarBackend,
};

/// What the split tables need of one booking, read from its match and
/// from the ride just before it was booked.
struct Booked {
    same_segment: bool,
    /// Same segment, and `d(s1, src) > d(s1, dst)`: `s1` is the via-point
    /// that starts the segment, `src` / `dst` the match's landmark nodes.
    pickup_beyond_dropoff: bool,
    /// 1 for the ride's first booking.
    ordinal: usize,
    /// Ends (0–2) whose cluster is one of the ride's pass-through
    /// clusters.
    pass_ends: usize,
    limit_excess_m: f64,
    estimate_error_m: f64,
}

/// [`XarBackend`] that also records a [`Booked`] per booking; every
/// call is the wrapped backend's, so the run is unchanged.
struct Probe {
    inner: XarBackend,
    booked: Vec<Booked>,
}

impl RideBackend for Probe {
    type Match = RideMatch;

    fn search(&mut self, trip: &Trip, cfg: &SimConfig, out: &mut Vec<RideMatch>) -> SearchExplain {
        self.inner.search(trip, cfg, out)
    }

    fn book(&mut self, m: &RideMatch, cfg: &SimConfig) -> BookResult {
        let same_segment = m.pickup_seg == m.dropoff_seg;
        let region = self.inner.engine.region();
        let before = self.inner.engine.ride(m.ride).map(|r| {
            let pass = |c| usize::from(r.pass_clusters.iter().any(|p| p.cluster == c));
            let pass_ends = pass(m.pickup_cluster) + pass(m.dropoff_cluster);
            let beyond = same_segment && {
                let sp = ShortestPaths::driving(region.graph());
                let s1 = r.route.nodes()[r.via_points[m.pickup_seg]];
                let d = |l| {
                    sp.cost(s1, region.landmark(l).node)
                        .unwrap_or(f64::INFINITY)
                };
                d(m.pickup_landmark) > d(m.dropoff_landmark)
            };
            (r.bookings.len() + 1, pass_ends, beyond)
        });
        let res = self.inner.book(m, cfg);
        if let BookResult::Booked {
            actual_detour_m,
            estimated_detour_m,
            budget_before_m,
            ..
        } = res
        {
            let (ordinal, pass_ends, pickup_beyond_dropoff) =
                before.expect("a booked ride was live");
            self.booked.push(Booked {
                same_segment,
                pickup_beyond_dropoff,
                ordinal,
                pass_ends,
                limit_excess_m: (actual_detour_m - budget_before_m).max(0.0),
                estimate_error_m: actual_detour_m - estimated_detour_m,
            });
        }
        res
    }

    fn create(&mut self, trip: &Trip, cfg: &SimConfig) -> Result<(), Reason> {
        self.inner.create(trip, cfg)
    }

    fn track(&mut self, now_s: f64) {
        self.inner.track(now_s);
    }

    fn registry(&self) -> Option<Arc<Registry>> {
        self.inner.registry()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// The bookings beyond `bound` on each measure, per split.
fn beyond_table(booked: &[Booked], bound: f64) {
    println!("\n## bookings beyond 4 eps ({bound:.0} m), by split\n");
    header(&[
        "split",
        "bookings",
        "limit excess > 4 eps",
        "actual - estimate > 4 eps",
    ]);
    type Keep = fn(&Booked) -> bool;
    let splits: [(&str, Keep); 10] = [
        ("all", |_| true),
        ("same segment", |b| b.same_segment),
        ("same segment, pick-up beyond drop-off", |b| {
            b.pickup_beyond_dropoff
        }),
        ("split segment", |b| !b.same_segment),
        ("1st booking of its ride", |b| b.ordinal == 1),
        ("2nd booking", |b| b.ordinal == 2),
        ("3rd or later booking", |b| b.ordinal >= 3),
        ("both ends pass-through", |b| b.pass_ends == 2),
        ("one end pass-through", |b| b.pass_ends == 1),
        ("both ends reachable only", |b| b.pass_ends == 0),
    ];
    for (name, keep) in splits {
        let split: Vec<&Booked> = booked.iter().filter(|b| keep(b)).collect();
        let count = |v: fn(&Booked) -> f64| split.iter().filter(|b| v(b) > bound).count();
        row(&[
            name.to_string(),
            split.len().to_string(),
            count(|b| b.limit_excess_m).to_string(),
            count(|b| b.estimate_error_m).to_string(),
        ]);
    }
}

fn cdf_table(label: &str, values: &[f64], eps: f64) {
    println!("\n## {label}\n");
    let frac_within = |bound: f64| -> f64 {
        values.iter().filter(|&&e| e <= bound).count() as f64 / values.len() as f64 * 100.0
    };
    header(&["bound", "metres", "% of matches within"]);
    for (name, mult) in [
        ("0 (limit held)", 0.0),
        ("eps/2", 0.5),
        ("eps", 1.0),
        ("2 eps", 2.0),
        ("4 eps (theory)", 4.0),
    ] {
        row(&[
            name.to_string(),
            format!("{:.0}", eps * mult),
            format!("{:.2}%", frac_within(eps * mult)),
        ]);
    }
    header(&["percentile", "metres", "in eps units"]);
    for p in [50.0, 90.0, 95.0, 98.0, 99.0, 99.9, 100.0] {
        let v = percentile(values, p);
        row(&[
            format!("p{p}"),
            format!("{v:.0}"),
            format!("{:.2} eps", v / eps),
        ]);
    }
}

fn main() {
    let scale = scale_arg();
    println!("# Figure 3a — detour quality vs epsilon (scale {scale})\n");

    let city = BenchCity::standard();
    let region = city.region_delta(250.0);
    let eps = region.epsilon_m();
    println!(
        "region: {} landmarks, {} clusters, realised epsilon = {:.0} m (guarantee 4*delta = 1000 m)",
        region.landmark_count(),
        region.cluster_count(),
        eps
    );

    let trips = city.trips(35_000, scale);
    let mut backend = Probe {
        inner: XarBackend::new(city.xar(region)),
        booked: Vec::new(),
    };
    let report = run_simulation(&mut backend, &trips, &SimConfig::default());
    println!(
        "trips: {}   booked: {}   created: {}   share rate: {:.1}%",
        trips.len(),
        report.booked,
        report.created,
        report.share_rate() * 100.0
    );
    if report.booked == 0 {
        println!("no bookings — nothing to measure (increase --scale)");
        return;
    }

    // (1) The paper's measure.
    let excess = &report.detour_excess_m;
    cdf_table(
        "detour limit excess (paper's Figure 3a quantity)",
        excess,
        eps,
    );

    // (2) The stricter internal measure.
    let errors = report.detour_errors_m();
    cdf_table(
        "estimate error: actual - search-time estimate (stricter)",
        &errors,
        eps,
    );

    // (3) Where the bookings beyond 4 eps come from.
    beyond_table(&backend.booked, 4.0 * eps);

    let frac = |v: &[f64], bound: f64| {
        v.iter().filter(|&&e| e <= bound).count() as f64 / v.len() as f64 * 100.0
    };
    println!(
        "\nshape check (limit excess): within eps {:.1}% (paper: 98%), within 2eps {:.1}% \
         (paper: 99.9%), within 4eps {:.1}% (theorem: 100%)",
        frac(excess, eps),
        frac(excess, 2.0 * eps),
        frac(excess, 4.0 * eps),
    );
}
