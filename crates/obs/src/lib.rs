//! `xar-obs` — zero-dependency telemetry for the XAR system.
//!
//! The paper's entire evaluation is latency curves (Fig. 3, Fig. 5a,
//! Fig. 5b), so the runtime needs latency *distributions*, not means.
//! This crate provides the measurement substrate every engine, bench
//! harness and simulation in the workspace records into:
//!
//! * [`Histogram`] — a lock-free, log-bucketed (HDR-style) histogram
//!   over `u64` samples. The record path is a handful of relaxed
//!   atomic operations (no locks, no allocation); relative bucket
//!   error is bounded by 1/16 ≈ 6.25 %.
//! * [`Counter`] — a relaxed atomic counter.
//! * [`Registry`] — a named-metric table handing out `Arc` handles, so
//!   hot paths never touch the registry lock after setup, with
//!   deterministic [`Registry::snapshot_json`] export.
//! * [`SpanTimer`] — RAII timers recording elapsed nanoseconds into a
//!   histogram on drop.
//! * [`json`] — the tiny JSON writer behind `snapshot_json` (and a
//!   matching reader for the trace tooling), public so sibling crates
//!   emit reports without a serde dependency.
//! * [`trace`] — the request recorder: one record per request, holding
//!   its wide event (always) and its causal span timeline (when tail
//!   sampling keeps it), in one bounded ring with one conserved drop
//!   account. It is free when disabled and takes no lock per span.
//! * [`chrome`] — the ring's spans as Perfetto-loadable Chrome
//!   trace-event JSON (`--trace-out`), read back into span trees and
//!   folded into collapsed stacks — the trace file is the profile.
//! * [`events`] — the wide event itself (outcome, typed rejection
//!   reason, tier, latencies, the request's duration split by layer)
//!   and the ring's wide events as segmented JSONL (`--events-out`),
//!   the input of the `xar logs` forensics CLI.
//!
//! ```
//! use xar_obs::Registry;
//!
//! let registry = Registry::new();
//! let hist = registry.histogram("search_ns");
//! for v in [120_u64, 450, 900, 4_000] {
//!     hist.record(v);
//! }
//! registry.counter("searches").add(4);
//! let snap = hist.snapshot();
//! assert_eq!(snap.count, 4);
//! assert_eq!(snap.max, 4_000);
//! assert!(snap.p50 >= 120 && snap.p50 <= 1_000);
//! assert!(registry.snapshot_json().contains("\"searches\""));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chrome;
pub mod events;
pub mod hist;
pub mod json;
pub mod registry;
pub mod span;
pub mod trace;

pub use hist::{Histogram, HistogramSnapshot};
pub use registry::{Counter, MetricSnapshot, Registry};
pub use span::SpanTimer;
pub use trace::{AttrList, AttrValue, Recorder, TraceConfig};
