//! Embedded operational-plane HTTP server (std `TcpListener` only).
//!
//! [`serve`] binds a plain HTTP/1.1 listener and exposes the live
//! process over a handful of GET routes:
//!
//! * `/metrics` — Prometheus text ([`crate::promtext::render`]) of
//!   every registry series — latency families carry OpenMetrics
//!   **exemplars** linking slow samples to flight-recorder trace ids
//!   ([`crate::profile::exemplar_snapshot`]) — plus `xar_rolling`
//!   gauges (rolling-window p50/p99/rates from the [`WindowStore`])
//!   and `xar_alert_*` gauges mirroring the SLO engine.
//! * `/snapshot` — the registry's cumulative JSON snapshot.
//! * `/health` — `200 ok` when no alert is firing, `503` naming the
//!   firing alerts otherwise (load-balancer / CI friendly).
//! * `/alerts` — the SLO engine's status array as JSON.
//! * `/debug/profile` — the aggregated span profile plus per-span
//!   allocation attribution ([`crate::profile::debug_profile_json`]).
//! * `/debug/events` — the wide-event sink's state and newest ring
//!   events ([`crate::events::debug_events_json`]).
//! * `/debug/shards` — live introspection JSON from the embedding
//!   process via [`DebugHooks`] (the `xar-core` shard map, without
//!   `xar-obs` depending on it).
//!
//! A background ticker thread advances the window store and
//! re-evaluates SLO rules every `window.tick_ms()` milliseconds, so
//! scrapes and health checks read pre-computed state. Requests are
//! served sequentially from the accept thread — scrape traffic, not a
//! web service. [`OpsServer::shutdown`] stops both threads (the accept
//! loop is woken by a self-connect).

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::promtext;
use crate::registry::Registry;
use crate::slo::SloEngine;
use crate::window::{RollingKind, WindowStore};

/// The rolling windows exported on `/metrics`, as `(label, millis)`.
pub const ROLLING_WINDOWS: &[(&str, u64)] = &[("1s", 1_000), ("10s", 10_000), ("60s", 60_000)];

/// A callback producing a JSON document for one `/debug/*` route.
pub type DebugJsonFn = Arc<dyn Fn() -> String + Send + Sync>;

/// Introspection callbacks the embedding process wires into the ops
/// server. `xar-obs` sits below `xar-core`, so the server cannot reach
/// the shard map itself — the process hands it a closure instead. An
/// unset hook answers `404`.
#[derive(Clone, Default)]
pub struct DebugHooks {
    /// `/debug/shards` — per-shard occupancy / versions
    /// (e.g. `ShardedXarEngine::shard_debug_json`).
    pub shards: Option<DebugJsonFn>,
}

impl std::fmt::Debug for DebugHooks {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DebugHooks")
            .field("shards", &self.shards.is_some())
            .finish()
    }
}

/// Everything the ops plane serves: the metric registry, its window
/// store, and the SLO engine evaluated over it.
#[derive(Clone)]
pub struct OpsPlane {
    /// The live metric registry.
    pub registry: Arc<Registry>,
    /// Rolling-window state over `registry`.
    pub window: Arc<WindowStore>,
    /// SLO rules evaluated against `window`.
    pub slo: Arc<SloEngine>,
    /// Live-introspection callbacks for the `/debug/*` routes.
    pub debug: DebugHooks,
}

impl OpsPlane {
    /// An ops plane with no debug hooks.
    pub fn new(registry: Arc<Registry>, window: Arc<WindowStore>, slo: Arc<SloEngine>) -> Self {
        Self { registry, window, slo, debug: DebugHooks::default() }
    }

    /// One tick: advance the window store and re-evaluate SLO rules.
    /// The server's ticker thread calls this; tests may drive it
    /// directly for deterministic time.
    pub fn tick(&self) {
        self.window.tick(&self.registry);
        self.slo.evaluate(&self.window);
    }

    /// The `/metrics` document: cumulative series, rolling-window
    /// gauges, and alert gauges.
    pub fn metrics_text(&self) -> String {
        let mut out = promtext::render_with_exemplars(
            &self.registry.series(),
            &crate::profile::exemplar_snapshot(),
        );
        self.render_rolling(&mut out);
        self.render_alerts(&mut out);
        out
    }

    fn render_rolling(&self, out: &mut String) {
        use std::fmt::Write as _;
        let names = self.window.series_names();
        if names.is_empty() {
            return;
        }
        out.push_str("# TYPE xar_rolling gauge\n");
        for name in &names {
            let metric = promtext::escape_label_value(name);
            for &(wname, wms) in ROLLING_WINDOWS {
                let ticks = self.window.ticks_for_ms(wms);
                let Some(r) = self.window.rolling(name, ticks) else { continue };
                let mut sample = |stat: &str, value: f64| {
                    let _ = writeln!(
                        out,
                        "xar_rolling{{metric=\"{metric}\",window=\"{wname}\",stat=\"{stat}\"}} {value}",
                    );
                };
                match r.kind {
                    RollingKind::Counter { rate_per_s, .. } => {
                        sample("rate_per_s", rate_per_s);
                    }
                    RollingKind::Hist { snap, rate_per_s } => {
                        sample("p50", snap.p50 as f64);
                        sample("p99", snap.p99 as f64);
                        sample("rate_per_s", rate_per_s);
                    }
                    RollingKind::Gauge { .. } => {} // level already exported
                }
            }
        }
    }

    fn render_alerts(&self, out: &mut String) {
        use std::fmt::Write as _;
        let statuses = self.slo.statuses();
        if statuses.is_empty() {
            return;
        }
        for fam in ["xar_alert_firing", "xar_alert_ever_fired", "xar_alert_fast_burn", "xar_alert_slow_burn"] {
            let _ = writeln!(out, "# TYPE {fam} gauge");
        }
        for s in &statuses {
            let name = promtext::escape_label_value(&s.name);
            let _ = writeln!(out, "xar_alert_firing{{name=\"{name}\"}} {}", u8::from(s.firing));
            let _ = writeln!(
                out,
                "xar_alert_ever_fired{{name=\"{name}\"}} {}",
                u8::from(s.ever_fired)
            );
            let _ = writeln!(out, "xar_alert_fast_burn{{name=\"{name}\"}} {}", s.fast_burn);
            let _ = writeln!(out, "xar_alert_slow_burn{{name=\"{name}\"}} {}", s.slow_burn);
        }
    }

    /// The `/health` body and HTTP status: `(200, "ok")` when quiet,
    /// `503` naming the firing alerts.
    pub fn health(&self) -> (u16, String) {
        let firing: Vec<String> = self
            .slo
            .statuses()
            .into_iter()
            .filter(|s| s.firing)
            .map(|s| s.name)
            .collect();
        if firing.is_empty() {
            (200, "ok\n".to_string())
        } else {
            (503, format!("firing: {}\n", firing.join(", ")))
        }
    }
}

/// Handle to a running ops server.
pub struct OpsServer {
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
}

impl OpsServer {
    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Stop the ticker and accept threads and join them.
    pub fn shutdown(&mut self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        // Wake the accept loop with a throwaway connection.
        let _ = TcpStream::connect_timeout(&self.local_addr, Duration::from_millis(200));
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for OpsServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl std::fmt::Debug for OpsServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OpsServer").field("local_addr", &self.local_addr).finish()
    }
}

/// Bind `addr` (e.g. `127.0.0.1:0`) and serve `plane` until
/// [`OpsServer::shutdown`]. Spawns the accept thread and a ticker
/// thread advancing the plane every `plane.window.tick_ms()` ms.
pub fn serve(addr: impl ToSocketAddrs, plane: OpsPlane) -> std::io::Result<OpsServer> {
    let listener = TcpListener::bind(addr)?;
    let local_addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));

    let ticker = {
        let plane = plane.clone();
        let stop = Arc::clone(&stop);
        let tick = Duration::from_millis(plane.window.tick_ms());
        std::thread::spawn(move || {
            let slice = tick.min(Duration::from_millis(25));
            let mut elapsed = Duration::ZERO;
            while !stop.load(Ordering::SeqCst) {
                std::thread::sleep(slice);
                elapsed += slice;
                if elapsed >= tick {
                    elapsed = Duration::ZERO;
                    plane.tick();
                }
            }
        })
    };

    let acceptor = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            for conn in listener.incoming() {
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(mut stream) = conn else { continue };
                let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
                let _ = handle(&mut stream, &plane);
            }
        })
    };

    Ok(OpsServer { local_addr, stop, threads: vec![ticker, acceptor] })
}

/// Read one request, route it, write one response.
fn handle(stream: &mut TcpStream, plane: &OpsPlane) -> std::io::Result<()> {
    let mut buf = Vec::with_capacity(512);
    let mut chunk = [0u8; 512];
    // Read until the end of the headers; the routes take no body.
    while !buf.windows(4).any(|w| w == b"\r\n\r\n") {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            break;
        }
        buf.extend_from_slice(&chunk[..n]);
        if buf.len() > 16 * 1024 {
            break; // oversized request: respond to what we have
        }
    }
    let request = String::from_utf8_lossy(&buf);
    let mut parts = request.lines().next().unwrap_or("").split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");
    let path = path.split('?').next().unwrap_or(path);

    let (status, content_type, body) = if method != "GET" {
        (405, "text/plain", "method not allowed\n".to_string())
    } else {
        match path {
            "/metrics" => (200, "text/plain; version=0.0.4", plane.metrics_text()),
            "/snapshot" => (200, "application/json", plane.registry.snapshot_json()),
            "/alerts" => (200, "application/json", plane.slo.alerts_json()),
            "/health" => {
                let (code, body) = plane.health();
                (code, "text/plain", body)
            }
            "/debug/profile" => {
                (200, "application/json", crate::profile::debug_profile_json())
            }
            "/debug/events" => {
                (200, "application/json", crate::events::debug_events_json(32))
            }
            "/debug/shards" => match &plane.debug.shards {
                Some(hook) => (200, "application/json", hook()),
                None => (404, "text/plain", "shards debug hook not wired\n".to_string()),
            },
            _ => (404, "text/plain", "not found\n".to_string()),
        }
    };
    respond(stream, status, content_type, &body)
}

fn respond(stream: &mut TcpStream, status: u16, content_type: &str, body: &str) -> std::io::Result<()> {
    let reason = match status {
        200 => "OK",
        404 => "Not Found",
        405 => "Method Not Allowed",
        503 => "Service Unavailable",
        _ => "Unknown",
    };
    let head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len(),
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slo::SloRule;
    use crate::window::WindowConfig;

    fn plane_with(rules: Vec<SloRule>, tick_ms: u64) -> OpsPlane {
        OpsPlane::new(
            Arc::new(Registry::new()),
            Arc::new(WindowStore::new(WindowConfig { tick_ms, capacity: 64 })),
            Arc::new(SloEngine::new(rules)),
        )
    }

    fn http_get(addr: SocketAddr, path: &str) -> (u16, String) {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .write_all(format!("GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").as_bytes())
            .expect("write request");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read response");
        let status: u16 = response
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .unwrap_or_else(|| panic!("bad response: {response}"));
        let body = response.split_once("\r\n\r\n").map(|(_, b)| b.to_string()).unwrap_or_default();
        (status, body)
    }

    #[test]
    fn serves_metrics_snapshot_health_alerts_and_404() {
        let rule = SloRule::parse("name=p99 hist=lat_ns max_us=1000 target=0.9 fast=1 slow=2 burn=1")
            .unwrap();
        let plane = plane_with(vec![rule], 10_000); // ticker effectively idle
        let h = plane.registry.histogram_with("lat_ns", &[]);
        plane.registry.counter_with("reqs", &[("outcome", "booked")]).add(3);
        h.record(500);
        plane.tick(); // deterministic tick instead of waiting for the ticker
        let mut server = serve("127.0.0.1:0", plane.clone()).expect("bind");
        let addr = server.local_addr();

        let (status, body) = http_get(addr, "/metrics");
        assert_eq!(status, 200);
        let parsed = promtext::parse(&body).expect("own exposition parses");
        assert_eq!(parsed.find("reqs", &[("outcome", "booked")]).map(|s| s.value), Some(3.0));
        assert!(
            parsed
                .find("xar_rolling", &[("metric", "lat_ns"), ("window", "1s"), ("stat", "p50")])
                .is_some(),
            "rolling gauges present: {body}"
        );
        assert!(parsed.find("xar_alert_firing", &[("name", "p99")]).is_some());

        let (status, body) = http_get(addr, "/snapshot");
        assert_eq!(status, 200);
        assert!(crate::json::parse(&body).is_ok(), "{body}");

        let (status, body) = http_get(addr, "/health");
        assert_eq!(status, 200);
        assert_eq!(body, "ok\n");

        let (status, body) = http_get(addr, "/alerts");
        assert_eq!(status, 200);
        let alerts = crate::json::parse(&body).unwrap();
        assert_eq!(alerts.as_array().unwrap().len(), 1);

        let (status, _) = http_get(addr, "/nope");
        assert_eq!(status, 404);

        server.shutdown();
        server.shutdown(); // idempotent
    }

    #[test]
    fn health_goes_503_while_an_alert_fires() {
        let rule = SloRule::parse("name=slow hist=lat_ns max_us=1 target=0.5 fast=1 slow=1 burn=1")
            .unwrap();
        let plane = plane_with(vec![rule], 10_000);
        let h = plane.registry.histogram_with("lat_ns", &[]);
        for _ in 0..100 {
            h.record(10_000_000); // every sample breaches the 1 µs target
        }
        plane.tick();
        let server = serve("127.0.0.1:0", plane.clone()).expect("bind");

        let (status, body) = http_get(server.local_addr(), "/health");
        assert_eq!(status, 503, "{body}");
        assert!(body.contains("slow"), "{body}");
        let (_, body) = http_get(server.local_addr(), "/alerts");
        assert!(body.contains("\"firing\":true"), "{body}");
        drop(server); // Drop also shuts down cleanly
    }

    #[test]
    fn background_ticker_advances_the_window() {
        let plane = plane_with(Vec::new(), 20);
        plane.registry.counter("ticked").add(5);
        let server = serve("127.0.0.1:0", plane.clone()).expect("bind");
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while plane.window.ticks() == 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(plane.window.ticks() > 0, "ticker thread never ticked");
        let (status, body) = http_get(server.local_addr(), "/metrics");
        assert_eq!(status, 200);
        assert!(body.contains("xar_rolling"), "{body}");
    }

    #[test]
    fn debug_routes_serve_json_or_404_when_unwired() {
        let mut plane = plane_with(Vec::new(), 10_000);
        let server = serve("127.0.0.1:0", plane.clone()).expect("bind");
        let addr = server.local_addr();
        // Built-in: the profile route always answers.
        let (status, body) = http_get(addr, "/debug/profile");
        assert_eq!(status, 200);
        assert!(crate::json::parse(&body).is_ok(), "{body}");
        // Built-in: the wide-event tail answers even with an empty sink.
        let (status, body) = http_get(addr, "/debug/events");
        assert_eq!(status, 200);
        let events = crate::json::parse(&body).expect("events JSON");
        assert!(events.get("emitted").is_some(), "{body}");
        // An unwired hook is a clean 404, not a panic.
        let (status, _) = http_get(addr, "/debug/shards");
        assert_eq!(status, 404);
        drop(server);
        // A wired hook serves whatever the embedder produces.
        plane.debug.shards = Some(Arc::new(|| "{\"shards\":[]}".to_string()));
        let server = serve("127.0.0.1:0", plane).expect("bind");
        let (status, body) = http_get(server.local_addr(), "/debug/shards");
        assert_eq!(status, 200);
        assert_eq!(body, "{\"shards\":[]}");
    }

    #[test]
    fn non_get_methods_are_rejected() {
        let plane = plane_with(Vec::new(), 10_000);
        let server = serve("127.0.0.1:0", plane).expect("bind");
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        stream.write_all(b"POST /metrics HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 405"), "{response}");
    }
}
