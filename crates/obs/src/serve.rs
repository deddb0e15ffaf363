//! Embedded operational-plane HTTP server (std `TcpListener` only).
//!
//! [`serve`] binds a plain HTTP/1.1 listener and exposes the live
//! process over a handful of GET routes:
//!
//! * `/metrics` — Prometheus text ([`crate::promtext::render`]) of
//!   every registry series.
//! * `/snapshot` — the registry's cumulative JSON snapshot.
//! * `/debug/shards` — live introspection JSON from the embedding
//!   process via [`DebugHooks`] (the `xar-core` shard map, without
//!   `xar-obs` depending on it).
//!
//! Every route renders from live state at request time. Requests are
//! served sequentially from one accept thread — scrape traffic, not a
//! web service. [`OpsServer::shutdown`] stops it (the accept loop is
//! woken by a self-connect).

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::promtext;
use crate::registry::Registry;

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

/// Everything the ops plane serves: the metric registry and the
/// embedder's introspection hooks.
#[derive(Clone)]
pub struct OpsPlane {
    /// The live metric registry.
    pub registry: Arc<Registry>,
    /// Live-introspection callbacks for the `/debug/*` routes.
    pub debug: DebugHooks,
}

impl OpsPlane {
    /// An ops plane with no debug hooks.
    pub fn new(registry: Arc<Registry>) -> Self {
        Self { registry, debug: DebugHooks::default() }
    }
}

/// Handle to a running ops server.
pub struct OpsServer {
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
}

impl OpsServer {
    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Stop the accept thread and join it.
    pub fn shutdown(&mut self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        // Wake the accept loop with a throwaway connection.
        let _ = TcpStream::connect_timeout(&self.local_addr, Duration::from_millis(200));
        if let Some(t) = self.acceptor.take() {
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

/// Bind `addr` (e.g. `127.0.0.1:0`) and serve `plane` from one accept
/// thread until [`OpsServer::shutdown`].
pub fn serve(addr: impl ToSocketAddrs, plane: OpsPlane) -> std::io::Result<OpsServer> {
    let listener = TcpListener::bind(addr)?;
    let local_addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));

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

    Ok(OpsServer { local_addr, stop, acceptor: Some(acceptor) })
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
            "/metrics" => (200, "text/plain; version=0.0.4", promtext::render(&plane.registry.series())),
            "/snapshot" => (200, "application/json", plane.registry.snapshot_json()),
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
    fn serves_metrics_and_snapshot_and_404_elsewhere() {
        let plane = OpsPlane::new(Arc::new(Registry::new()));
        plane.registry.counter_with("reqs", &[("outcome", "booked")]).add(3);
        plane.registry.histogram_with("lat_ns", &[]).record(500);
        let mut server = serve("127.0.0.1:0", plane.clone()).expect("bind");
        let addr = server.local_addr();

        let (status, body) = http_get(addr, "/metrics");
        assert_eq!(status, 200);
        let parsed = promtext::parse(&body).expect("own exposition parses");
        assert_eq!(parsed.find("reqs", &[("outcome", "booked")]).map(|s| s.value), Some(3.0));
        assert_eq!(parsed.find("lat_ns_count", &[]).map(|s| s.value), Some(1.0), "{body}");

        let (status, body) = http_get(addr, "/snapshot");
        assert_eq!(status, 200);
        assert!(crate::json::parse(&body).is_ok(), "{body}");

        // No windowed or alerting routes: those paths are unknown.
        for path in ["/alerts", "/health", "/nope"] {
            assert_eq!(http_get(addr, path).0, 404, "{path}");
        }

        server.shutdown();
        server.shutdown(); // idempotent
    }

    #[test]
    fn debug_routes_serve_json_or_404_when_unwired() {
        let mut plane = OpsPlane::new(Arc::new(Registry::new()));
        let server = serve("127.0.0.1:0", plane.clone()).expect("bind");
        let addr = server.local_addr();
        // The wide events are in the `--events-out` file, not on a route.
        assert_eq!(http_get(addr, "/debug/events").0, 404);
        // An unwired hook is a clean 404, not a panic.
        let (status, _) = http_get(addr, "/debug/shards");
        assert_eq!(status, 404);
        drop(server); // Drop also shuts down cleanly
        // A wired hook serves whatever the embedder produces.
        plane.debug.shards = Some(Arc::new(|| "{\"shards\":[]}".to_string()));
        let server = serve("127.0.0.1:0", plane).expect("bind");
        let (status, body) = http_get(server.local_addr(), "/debug/shards");
        assert_eq!(status, 200);
        assert_eq!(body, "{\"shards\":[]}");
    }

    #[test]
    fn non_get_methods_are_rejected() {
        let plane = OpsPlane::new(Arc::new(Registry::new()));
        let server = serve("127.0.0.1:0", plane).expect("bind");
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        stream.write_all(b"POST /metrics HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 405"), "{response}");
    }
}
