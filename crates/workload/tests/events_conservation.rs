//! End-to-end conservation of the wide events: every request of a
//! replay publishes exactly one record, the records reconcile with the
//! run's `sim.requests{outcome}` / `sim.reject_reason{reason=...}`
//! counters, **no** rejection decodes to `Reason::Unknown` — the
//! taxonomy is closed over every real rejection path — and every
//! record's layer split sums exactly to its wall time.
//!
//! All tests share the process-global recorder, so they serialize on
//! one mutex and live in one integration binary.

use std::sync::{Arc, Mutex};

use xar_core::{EngineConfig, Reason, XarEngine};
use xar_discretize::{ClusterGoal, RegionConfig, RegionIndex};
use xar_obs::events::{self, EventRecord};
use xar_obs::trace::TraceSnapshot;
use xar_obs::TraceConfig;
use xar_roadnet::{sample_pois, CityConfig, PoiConfig};
use xar_tshare::{TShareConfig, TShareEngine};
use xar_workload::backend::{TShareBackend, XarBackend};
use xar_workload::report::SimReport;
use xar_workload::sim::{run_simulation, SimConfig};
use xar_workload::trips::{generate_trips, TripGenConfig};

/// The process-global recorder serializes the tests.
static GATE: Mutex<()> = Mutex::new(());

fn city(seed: u64) -> Arc<xar_roadnet::RoadGraph> {
    Arc::new(CityConfig::manhattan(22, 22, seed).generate())
}

fn region(graph: &Arc<xar_roadnet::RoadGraph>) -> Arc<RegionIndex> {
    let pois = sample_pois(
        graph,
        &PoiConfig {
            count: 600,
            ..Default::default()
        },
    );
    Arc::new(RegionIndex::build(
        Arc::clone(graph),
        &pois,
        RegionConfig {
            landmark_separation_m: 220.0,
            cluster_goal: ClusterGoal::Delta(150.0),
            max_walk_m: 900.0,
            ..Default::default()
        },
    ))
}

/// Run `replay` with the global recorder on under `config`, and
/// return its result plus the recorder's snapshot.
fn recorded<T>(config: TraceConfig, replay: impl FnOnce() -> T) -> (T, TraceSnapshot) {
    let rec = xar_obs::trace::recorder();
    rec.clear();
    rec.configure(config);
    rec.set_enabled(true);
    let out = replay();
    rec.set_enabled(false);
    let snap = rec.snapshot();
    rec.clear();
    (out, snap)
}

/// Run `trips` through a fresh XAR backend with both files' worth of
/// recording on (every span kept, like `--trace-sample 1`), and return
/// (report, recorder snapshot).
fn run_with_events(seed: u64, trips: usize, cfg: &SimConfig) -> (SimReport, TraceSnapshot) {
    let graph = city(seed);
    let reg = region(&graph);
    let ts = generate_trips(
        &graph,
        &TripGenConfig {
            count: trips,
            ..Default::default()
        },
    );
    let mut backend = XarBackend::new(XarEngine::new(reg, EngineConfig::default()));
    recorded(TraceConfig::keep_all(), || {
        run_simulation(&mut backend, &ts, cfg)
    })
}

fn wide_events(snap: &TraceSnapshot) -> Vec<EventRecord> {
    snap.records.iter().filter_map(|r| r.event).collect()
}

/// Events must reconcile *exactly* with the run's outcome counters:
/// one event per request, outcome histogram equal to the
/// `sim.requests{outcome}` counters, and
/// `booked + Σ reject_reason = total`.
fn assert_conserved(report: &SimReport, snap: &TraceSnapshot) {
    let total = report.booked + report.created + report.unservable;
    let events = wide_events(snap);
    let st = snap.stats;
    assert_eq!(st.emitted_records, total, "one event per request");
    assert_eq!(
        events.len() as u64 + st.dropped_records,
        st.emitted_records,
        "drop accounting conserves"
    );
    assert_eq!(
        st.dropped_records, 0,
        "default capacity must hold the whole run"
    );
    let kept_spans: u64 = snap.records.iter().map(|r| r.spans.len() as u64).sum();
    assert_eq!(
        kept_spans + st.dropped_events,
        st.recorded_events,
        "span accounting conserves"
    );

    let count = |outcome: &str| events.iter().filter(|e| e.outcome == outcome).count() as u64;
    assert_eq!(count("booked"), report.booked);
    assert_eq!(count("created"), report.created);
    assert_eq!(count("unservable"), report.unservable);

    // Registry reconciliation: served + each rejection reason = total.
    let reg = report.registry.as_ref().expect("registry attached");
    assert_eq!(reg.counter("sim.requests_total").get(), total);
    let booked = reg
        .counter_with("sim.requests", &[("outcome", "booked")])
        .get();
    let rejected: u64 = Reason::ALL
        .iter()
        .map(|r| {
            reg.counter_with("sim.reject_reason", &[("reason", r.code())])
                .get()
        })
        .sum();
    assert_eq!(
        booked + rejected,
        total,
        "booked + Σ reject_reason must equal total"
    );

    // Event-level reasons agree with the counters, reason by reason.
    for r in Reason::ALL {
        let ctr = reg
            .counter_with("sim.reject_reason", &[("reason", r.code())])
            .get();
        let evs = events
            .iter()
            .filter(|e| e.outcome != "booked" && e.reason == r.code())
            .count() as u64;
        assert_eq!(
            evs,
            ctr,
            "reason {} disagrees between events and counters",
            r.code()
        );
    }

    // The taxonomy is closed: no real rejection decodes to Unknown,
    // every event carries a reason, booked events say "served" and
    // carry their promised ETAs. The wall time splits exactly by layer.
    for e in &events {
        assert!(e.dur_ns > 0, "request {} has no wall time", e.request_id);
        assert_eq!(
            e.layers.iter().sum::<u64>(),
            e.dur_ns,
            "request {}",
            e.request_id
        );
        assert_eq!(
            e.outcome == "booked",
            e.pickup_eta_s.is_finite(),
            "request {}",
            e.request_id
        );
        assert_ne!(
            e.reason,
            Reason::Unknown.code(),
            "request {} hit Unknown",
            e.request_id
        );
        assert!(
            !e.reason.is_empty(),
            "request {} has no reason",
            e.request_id
        );
        if e.outcome == "booked" {
            assert_eq!(e.reason, Reason::Served.code());
        }
    }
}

#[test]
fn first_match_run_conserves_and_never_says_unknown() {
    let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
    let cfg = SimConfig {
        track_every_s: None,
        ..Default::default()
    };
    let (report, snap) = run_with_events(42, 500, &cfg);
    assert!(report.booked > 0, "workload must produce shares");
    assert_conserved(&report, &snap);
}

/// Property-style sweep (no external proptest dependency): randomized
/// hostile configurations — starved seats, tiny detour budgets, tight
/// walking limits, narrow windows — must keep the taxonomy closed and
/// the accounting conserved on every run. These configs are chosen to excite *every* rejection family:
/// CapacityFull, DetourBudgetExceeded, WalkLimitExceeded,
/// NoClusterCandidates, stale paths.
#[test]
fn hostile_config_sweep_emits_zero_unknown() {
    let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
    // xorshift64* so the sweep is deterministic yet covers varied space.
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move || {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        state = state.wrapping_mul(0x2545_F491_4F6C_DD1D);
        state
    };
    for round in 0..6u64 {
        let cfg = SimConfig {
            track_every_s: None,
            walk_limit_m: [60.0, 250.0, 800.0][(next() % 3) as usize],
            window_s: [90.0, 600.0, 1_200.0][(next() % 3) as usize],
            detour_limit_m: [150.0, 900.0, 4_000.0][(next() % 3) as usize],
            seats: [1, 2, 3][(next() % 3) as usize],
            ..Default::default()
        };
        let (report, snap) = run_with_events(100 + round, 250, &cfg);
        assert_conserved(&report, &snap);
    }
}

/// The T-Share baseline's search reports only `candidates = matches`;
/// that synthetic explain must still close the taxonomy (a matchless
/// search decodes to `no_cluster_candidates`, a stale booking to its
/// typed reason).
#[test]
fn tshare_default_explain_stays_closed() {
    let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
    let graph = city(7);
    let ts = generate_trips(
        &graph,
        &TripGenConfig {
            count: 300,
            ..Default::default()
        },
    );
    let mut backend = TShareBackend::new(TShareEngine::new(
        Arc::clone(&graph),
        TShareConfig {
            grid_cell_m: 400.0,
            ..Default::default()
        },
    ));
    let cfg = SimConfig {
        track_every_s: None,
        ..Default::default()
    };
    let (report, snap) = recorded(TraceConfig::events_only(), || {
        run_simulation(&mut backend, &ts, &cfg)
    });
    assert!(
        snap.records.iter().all(|r| r.spans.is_empty()),
        "no spans kept"
    );
    assert_conserved(&report, &snap);
}

/// The JSONL round trip survives a real run: serialize the snapshot,
/// parse it back, and the histograms reconcile with the outcome
/// counts (the `xar logs` contract, exercised library-side).
#[test]
fn jsonl_round_trip_reconciles_with_run() {
    let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
    let cfg = SimConfig {
        track_every_s: None,
        ..Default::default()
    };
    let (report, snap) = run_with_events(55, 300, &cfg);
    let text = events::to_jsonl(&snap);
    let log = events::parse_jsonl(&text).expect("run output must parse");
    assert_eq!(log.events.len(), wide_events(&snap).len());
    assert_eq!(log.emitted, snap.stats.emitted_records);
    assert!(log
        .events
        .iter()
        .all(|e| e.layers.is_some_and(|l| l.iter().sum::<u64>() == e.dur_ns)));
    let outcomes = log.outcome_histogram();
    let get = |k: &str| outcomes.iter().find(|(o, _)| o == k).map_or(0, |(_, n)| *n);
    assert_eq!(get("booked"), report.booked);
    assert_eq!(get("created"), report.created);
    assert_eq!(get("unservable"), report.unservable);
    let reasons = log.reason_histogram();
    assert!(reasons.iter().all(|(r, _)| r != "unknown"));
    let rejected: u64 = reasons
        .iter()
        .filter(|(r, _)| r != "served")
        .map(|(_, n)| *n)
        .sum();
    assert_eq!(rejected, report.created + report.unservable);
}

/// A file written before the batch policy was removed carries a
/// `"window"` key on every event and the `swap_ejected` reason (lines
/// below are from the parent commit's `results/events_snapshot.jsonl`).
/// It still parses: the extra key is ignored and the retired code
/// decodes to `Reason::Unknown`, the documented parse fallback.
#[test]
fn an_events_file_from_before_the_removal_still_parses() {
    let old = concat!(
        r#"{"type":"meta","version":1,"segment_len":4096}"#,
        "\n",
        r#"{"type":"segment","seq":0,"start":0,"len":4096}"#,
        "\n",
        r#"{"type":"event","id":10618,"t_s":0,"outcome":"created","reason":"no_cluster_candidates","tier":2,"candidates":0,"matches":0,"window":0,"searches":1,"stale":0,"ride":null,"search_ns":16842,"book_ns":0,"walk_m":0,"detour_m":0,"wait_s":0}"#,
        "\n",
        r#"{"type":"event","id":7428,"t_s":2.2868435047591134,"outcome":"created","reason":"swap_ejected","tier":2,"candidates":13,"matches":1,"window":32,"searches":2,"stale":0,"ride":null,"search_ns":20605,"book_ns":0,"walk_m":0,"detour_m":0,"wait_s":0}"#,
        "\n",
        r#"{"type":"drops","emitted":2,"dropped":0,"kept":2}"#,
        "\n",
    );
    let log = events::parse_jsonl(old).expect("a parent-format file must parse");
    assert_eq!(log.events.len(), 2);
    assert_eq!(log.events[1].request_id, 7428);
    assert_eq!(log.events[1].candidates, 13);
    assert_eq!(
        Reason::from_code(&log.events[0].reason),
        Reason::NoClusterCandidates
    );
    assert_eq!(Reason::from_code(&log.events[1].reason), Reason::Unknown);
}
