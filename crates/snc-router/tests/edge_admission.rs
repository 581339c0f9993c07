//! Edge admission and shutdown, in process with `serve_router`.
//!
//! * a fresh client connection is admitted on readiness, not on a
//!   clock: each of 20 sequential connect → `GET /healthz` → EOF round
//!   trips finishes well inside one old 50 ms accept-poll tick;
//! * `shutdown()` is prompt with no clients (the wakeup ends the
//!   acceptor's wait) and with idle keep-alive clients parked in reads
//!   (`SHUT_RD` hands them EOF);
//! * a proxied request still in flight when `shutdown()` begins gets its
//!   whole response, byte-exact.
//!
//! Timing-sensitive tests serialize on a mutex so they do not compete
//! with each other for the CPU.

use snc_router::{serve_router, BackendSpec, RouterConfig, RouterHandle};
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::{mpsc, Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

static TIMING: Mutex<()> = Mutex::new(());

fn timing_guard() -> std::sync::MutexGuard<'static, ()> {
    TIMING
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

const SOLVE_BODY: &str = r#"{"graph": {"gnp": {"n": 24, "p": 0.3, "seed": 1}}, "circuit": "lif-gw", "budget": 24, "seed": 11}"#;

/// An address nothing listens on: connects (and health probes) are
/// refused at once.
fn unreachable_addr() -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    listener.local_addr().unwrap()
}

fn start_router(backend: SocketAddr) -> RouterHandle {
    serve_router(RouterConfig {
        addr: "127.0.0.1:0".to_string(),
        backends: vec![BackendSpec {
            addr: backend,
            weight: 1,
        }],
        probe_interval: Duration::from_secs(60),
        retries: 0,
        ..RouterConfig::default()
    })
    .expect("router starts")
}

/// A client connection whose reads fail after 5 s instead of hanging
/// the suite.
fn connect(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    stream
}

/// Reads one HTTP message (head and `Content-Length` body): (head, body).
fn read_message(reader: &mut BufReader<TcpStream>) -> (String, Vec<u8>) {
    let mut head = String::new();
    let mut length = 0usize;
    loop {
        let mut line = String::new();
        assert!(reader.read_line(&mut line).unwrap() > 0, "EOF inside head");
        if let Some(value) = line.to_ascii_lowercase().strip_prefix("content-length:") {
            length = value.trim().parse().unwrap();
        }
        head.push_str(&line);
        if line == "\r\n" {
            break;
        }
    }
    let mut body = vec![0u8; length];
    reader.read_exact(&mut body).unwrap();
    (head, body)
}

/// Shuts the router down on another thread and returns how long it
/// took, failing (rather than hanging the suite) if it never returns.
fn timed_shutdown(router: RouterHandle) -> Duration {
    let (done_tx, done_rx) = mpsc::channel();
    thread::spawn(move || {
        let started = Instant::now();
        router.shutdown();
        let _ = done_tx.send(started.elapsed());
    });
    done_rx
        .recv_timeout(Duration::from_secs(5))
        .expect("shutdown did not return within 5 s")
}

fn assert_closed(reader: &mut BufReader<TcpStream>) {
    let mut rest = Vec::new();
    match reader.read_to_end(&mut rest) {
        Ok(0) => {}
        Err(e) if !matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
        outcome => panic!("connection still open after shutdown: {outcome:?}"),
    }
}

#[test]
fn fresh_connections_are_admitted_without_waiting_for_a_tick() {
    let _guard = timing_guard();
    let router = start_router(unreachable_addr());
    for i in 0..20 {
        let started = Instant::now();
        let mut stream = connect(router.addr());
        stream
            .write_all(b"GET /healthz HTTP/1.1\r\nHost: edge\r\nConnection: close\r\n\r\n")
            .unwrap();
        let mut reply = Vec::new();
        stream.read_to_end(&mut reply).unwrap();
        let elapsed = started.elapsed();
        assert!(reply.starts_with(b"HTTP/1.1 200"), "request {i}: {reply:?}");
        assert!(
            elapsed < Duration::from_millis(25),
            "request {i} on a fresh connection took {} ms (accept polling?)",
            elapsed.as_millis()
        );
    }
    timed_shutdown(router);
}

#[test]
fn shutdown_is_prompt_with_no_clients() {
    let _guard = timing_guard();
    let router = start_router(unreachable_addr());
    let elapsed = timed_shutdown(router);
    assert!(
        elapsed < Duration::from_millis(100),
        "shutdown took {} ms with no clients (wakeup not rung?)",
        elapsed.as_millis()
    );
}

#[test]
fn shutdown_is_prompt_with_idle_keepalive_clients() {
    let _guard = timing_guard();
    let router = start_router(unreachable_addr());
    // Two idle keep-alive clients, each proven admitted by a round trip.
    let mut idle: Vec<BufReader<TcpStream>> = (0..2)
        .map(|_| {
            let mut stream = connect(router.addr());
            stream
                .write_all(b"GET /healthz HTTP/1.1\r\nHost: edge\r\n\r\n")
                .unwrap();
            let mut reader = BufReader::new(stream);
            let (head, _) = read_message(&mut reader);
            assert!(head.starts_with("HTTP/1.1 200"), "{head}");
            assert!(head.contains("connection: keep-alive"), "{head}");
            reader
        })
        .collect();
    let elapsed = timed_shutdown(router);
    assert!(
        elapsed < Duration::from_millis(100),
        "shutdown took {} ms with idle keep-alive clients",
        elapsed.as_millis()
    );
    // The parked connections were closed, not abandoned.
    for reader in &mut idle {
        assert_closed(reader);
    }
}

/// A fake backend: answers health probes at once, and holds each
/// `POST /solve` until `release` fires, then answers with `body`. Its
/// acceptor blocks in `incoming()` for good, so it is left detached and
/// ends with the test binary.
fn slow_backend(body: &'static str) -> (SocketAddr, mpsc::Receiver<()>, mpsc::Sender<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let (arrived_tx, arrived_rx) = mpsc::channel();
    let (release_tx, release_rx) = mpsc::channel::<()>();
    let release_rx = Arc::new(Mutex::new(release_rx));
    thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(stream) = stream else { continue };
            let arrived_tx = arrived_tx.clone();
            let release_rx = Arc::clone(&release_rx);
            thread::spawn(move || {
                let mut writer = stream.try_clone().unwrap();
                let mut reader = BufReader::new(stream);
                let (head, _) = read_message(&mut reader);
                if head.starts_with("GET /healthz") {
                    let _ = writer.write_all(
                        b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nConnection: close\r\n\r\n{}",
                    );
                    return;
                }
                let _ = arrived_tx.send(());
                let _ = release_rx.lock().unwrap().recv();
                let reply = format!(
                    "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
                    body.len()
                );
                let _ = writer.write_all(reply.as_bytes());
            });
        }
    });
    (addr, arrived_rx, release_tx)
}

#[test]
fn in_flight_proxied_request_finishes_across_shutdown() {
    let _guard = timing_guard();
    const BACKEND_BODY: &str = r#"{"best_cut":42,"note":"answered after shutdown began"}"#;
    let (backend, arrived, release) = slow_backend(BACKEND_BODY);
    let router = start_router(backend);
    let edge = router.addr();
    let client = thread::spawn(move || {
        let mut stream = connect(edge);
        let request = format!(
            "POST /solve HTTP/1.1\r\nHost: edge\r\nContent-Length: {}\r\n\r\n{SOLVE_BODY}",
            SOLVE_BODY.len()
        );
        stream.write_all(request.as_bytes()).unwrap();
        let mut reader = BufReader::new(stream);
        let reply = read_message(&mut reader);
        assert_closed(&mut reader);
        reply
    });
    arrived
        .recv_timeout(Duration::from_secs(10))
        .expect("request reached the backend");
    // The backend answers only after shutdown() has begun.
    let releaser = thread::spawn(move || {
        thread::sleep(Duration::from_millis(50));
        release.send(()).unwrap();
    });
    let elapsed = timed_shutdown(router);
    releaser.join().unwrap();
    assert!(
        elapsed >= Duration::from_millis(40),
        "shutdown returned after {} ms, before the in-flight request finished",
        elapsed.as_millis()
    );
    let (head, body) = client.join().unwrap();
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    assert!(
        head.contains("connection: close"),
        "a response finished during shutdown must announce the close: {head}"
    );
    assert_eq!(body, BACKEND_BODY.as_bytes(), "relayed body is byte-exact");
}
