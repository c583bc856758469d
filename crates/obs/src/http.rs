//! A deliberately tiny blocking HTTP/1.0 responder for metric scrapes.
//!
//! One accept thread, one request per connection, `Connection: close`.
//! That is the whole feature set: a scrape endpoint has no business
//! carrying keep-alive pools or an async runtime into every serving
//! binary. The page is rebuilt per scrape from the configured
//! [`MetricsSource`], so the numbers are always a fresh snapshot.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::metrics::{MetricsSource, PromWriter};

/// Deadline for a whole request head, and the timeout of each response
/// write: a stuck or trickling scraper must not wedge the accept thread
/// for longer than this.
const SCRAPE_IO_TIMEOUT: Duration = Duration::from_secs(2);

/// Longest request head we bother reading before answering.
const MAX_REQUEST_BYTES: usize = 4096;

/// A background metrics endpoint; scrapes with `curl http://addr/metrics`.
/// Dropping it stops the listener and joins the accept thread.
pub struct MetricsServer {
    addr: SocketAddr,
    closing: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
}

impl MetricsServer {
    /// Binds `bind` (e.g. `"127.0.0.1:0"`) and serves `source` on every
    /// scrape until dropped.
    pub fn spawn(
        bind: impl ToSocketAddrs,
        source: Arc<dyn MetricsSource>,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(bind)?;
        let addr = listener.local_addr()?;
        let closing = Arc::new(AtomicBool::new(false));
        let thread_closing = Arc::clone(&closing);
        let accept_thread = std::thread::Builder::new()
            .name("sorl-metrics".into())
            .spawn(move || accept_loop(listener, source, thread_closing))?;
        Ok(MetricsServer { addr, closing, accept_thread: Some(accept_thread) })
    }

    /// The bound address (with the real port when spawned on port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        self.closing.store(true, Ordering::Release);
        // Poke the listener so the blocking accept observes the flag.
        let _ = TcpStream::connect_timeout(&self.addr, SCRAPE_IO_TIMEOUT);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

fn accept_loop(listener: TcpListener, source: Arc<dyn MetricsSource>, closing: Arc<AtomicBool>) {
    for stream in listener.incoming() {
        if closing.load(Ordering::Acquire) {
            return;
        }
        let Ok(stream) = stream else { continue };
        // Scrape errors are the scraper's problem; never take the
        // endpoint down over one bad connection.
        let _ = serve_scrape(stream, source.as_ref());
    }
}

fn serve_scrape(mut stream: TcpStream, source: &dyn MetricsSource) -> std::io::Result<()> {
    stream.set_write_timeout(Some(SCRAPE_IO_TIMEOUT))?;
    let head = read_request_head(&mut stream)?;
    let (status, body) = match parse_request_line(&head) {
        Some(("GET", path)) if path == "/metrics" || path == "/" => {
            let mut w = PromWriter::new();
            source.collect(&mut w);
            ("200 OK", w.into_string())
        }
        Some(("GET", _)) => ("404 Not Found", "try /metrics\n".to_string()),
        _ => ("405 Method Not Allowed", "GET only\n".to_string()),
    };
    let response = format!(
        "HTTP/1.0 {status}\r\nContent-Type: text/plain; version=0.0.4; charset=utf-8\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len(),
    );
    stream.write_all(response.as_bytes())?;
    stream.flush()
}

/// Reads until the blank line ending the request head (or the size cap),
/// all within one [`SCRAPE_IO_TIMEOUT`]: a per-read timeout alone would let
/// a client sending one byte per timeout hold the thread for 4096 reads.
fn read_request_head(stream: &mut TcpStream) -> std::io::Result<String> {
    let deadline = Instant::now() + SCRAPE_IO_TIMEOUT;
    let mut head = Vec::new();
    let mut chunk = [0u8; 512];
    while !head.windows(4).any(|w| w == b"\r\n\r\n") && head.len() < MAX_REQUEST_BYTES {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::TimedOut,
                "request head incomplete at the scrape deadline",
            ));
        }
        stream.set_read_timeout(Some(left))?;
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            break;
        }
        head.extend_from_slice(chunk.get(..n).unwrap_or(&[]));
    }
    Ok(String::from_utf8_lossy(&head).into_owned())
}

fn parse_request_line(head: &str) -> Option<(&str, &str)> {
    let line = head.lines().next()?;
    let mut parts = line.split_whitespace();
    let method = parts.next()?;
    let path = parts.next()?;
    Some((method, path))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    /// A one-counter page whose value the test sets between scrapes.
    #[derive(Default)]
    struct Scrapes(AtomicU64);

    impl MetricsSource for Scrapes {
        fn collect(&self, w: &mut PromWriter) {
            w.counter("sorl_scrapes_total", "How many.", self.0.load(Ordering::Relaxed));
        }
    }

    fn scrape(addr: SocketAddr, request: &str) -> String {
        let mut stream = TcpStream::connect(addr).expect("connect scrape");
        stream.write_all(request.as_bytes()).expect("send request");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read response");
        response
    }

    #[test]
    fn serves_a_fresh_page_per_scrape() {
        let page = Arc::new(Scrapes::default());
        let server = MetricsServer::spawn("127.0.0.1:0", page.clone()).expect("spawn metrics");
        let addr = server.local_addr();

        page.0.store(5, Ordering::Relaxed);
        let first = scrape(addr, "GET /metrics HTTP/1.0\r\nHost: x\r\n\r\n");
        assert!(first.starts_with("HTTP/1.0 200 OK"), "{first}");
        assert!(first.contains("text/plain; version=0.0.4"), "{first}");
        assert!(first.contains("sorl_scrapes_total 5"), "{first}");

        page.0.store(6, Ordering::Relaxed);
        let second = scrape(addr, "GET / HTTP/1.0\r\n\r\n");
        assert!(second.contains("sorl_scrapes_total 6"), "page must be rebuilt: {second}");
    }

    #[test]
    fn rejects_unknown_paths_and_methods() {
        let server = MetricsServer::spawn("127.0.0.1:0", Arc::new(Scrapes::default()))
            .expect("spawn metrics");
        let addr = server.local_addr();
        assert!(scrape(addr, "GET /nope HTTP/1.0\r\n\r\n").starts_with("HTTP/1.0 404"));
        assert!(scrape(addr, "POST /metrics HTTP/1.0\r\n\r\n").starts_with("HTTP/1.0 405"));
    }

    #[test]
    fn a_trickling_client_cannot_hold_the_endpoint() {
        let server = MetricsServer::spawn("127.0.0.1:0", Arc::new(Scrapes::default()))
            .expect("spawn metrics");
        let addr = server.local_addr();
        // One byte every 500 ms — each read well inside the timeout — for
        // four timeouts. Connected and sending before the scrape, so the
        // single accept thread takes it first.
        let mut slow = TcpStream::connect(addr).expect("connect trickler");
        slow.set_nodelay(true).expect("nodelay");
        slow.write_all(b"G").expect("first byte");
        let trickler = std::thread::spawn(move || {
            let started = Instant::now();
            for byte in b"ET /metrics HTTP/1.0\r\nX-Slow: yes" {
                if started.elapsed() >= 4 * SCRAPE_IO_TIMEOUT || slow.write_all(&[*byte]).is_err() {
                    break;
                }
                std::thread::sleep(Duration::from_millis(500));
            }
        });
        let t0 = Instant::now();
        let page = scrape(addr, "GET /metrics HTTP/1.0\r\n\r\n");
        let waited = t0.elapsed();
        trickler.join().expect("trickler thread");
        assert!(page.starts_with("HTTP/1.0 200 OK"), "{page}");
        assert!(waited < 2 * SCRAPE_IO_TIMEOUT, "scrape waited {waited:?} behind a trickler");
    }

    #[test]
    fn drop_stops_the_listener() {
        let server = MetricsServer::spawn("127.0.0.1:0", Arc::new(Scrapes::default()))
            .expect("spawn metrics");
        let addr = server.local_addr();
        drop(server);
        // The port is released: either connects fail, or an accepted
        // backlog connection yields no response. Binding it again is the
        // strongest signal and works cross-platform.
        let rebound = TcpListener::bind(addr);
        assert!(rebound.is_ok(), "listener port must be released on drop");
    }
}
