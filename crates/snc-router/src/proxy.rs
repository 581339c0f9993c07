//! The edge process: acceptor, per-connection loop, fingerprint
//! routing, bounded-retry forwarding, and aggregated health reporting.
//!
//! ## Data flow
//!
//! ```text
//! client ──▶ TcpListener ──ready───▶ connection thread (keep-alive loop)
//!                 │                        │ read ──▶ http::RequestParser
//!                 │                        │ (the backend's parser) ──▶
//!                 │                        │ wire::parse_spec (no graph
//!                 │                        │ built for dataset/gnp)
//!                 │                        ▼
//!                 │            ResponseKey::payload_fold (the shard key)
//!                 │                        ▼
//!                 │            HashRing::candidates(key) ∩ live backends
//!                 │                        │ attempt 1 … 1+retries
//!                 │                        ▼
//!                 │            ConnectionPool::checkout (keep-alive reuse;
//!                 │                 │       fresh connect on empty stack)
//!                 │                 │ stale reused conn ──▶ one fresh retry,
//!                 │                 │                       same backend
//!                 │                 │ connect/read error ──▶ next candidate
//!                 │                 │ 5xx               ──▶ next candidate
//!                 │                 ▼
//!                 └──◀── relay backend body byte-for-byte ◀──┘
//! ```
//!
//! The acceptor sleeps in [`Poller::wait`] until the listener is ready
//! or `shutdown()` rings a [`Wakeup`](sys::Wakeup). At shutdown it
//! half-closes each connection (`SHUT_RD`): a parked keep-alive read
//! sees EOF, while an in-flight request still writes its response.
//!
//! Each connection thread reads into the backend's incremental
//! [`RequestParser`] and answers with the backend's vocabulary
//! ([`ResponseMeta`], [`server::error_meta`], the request-id rule and
//! the access-log line), so for any request bytes the edge's framing,
//! error answers and labels are the backend's own.
//!
//! Backend responses are framed **strictly**: the status line must be
//! `HTTP/1.1 <100–599>`, duplicate or conflicting `Content-Length`
//! headers are `InvalidData`, and a missing `Content-Length` is only
//! legal when the backend explicitly said `Connection: close` (the one
//! case where read-to-EOF framing is unambiguous). Anything looser
//! would corrupt the stream the moment a connection carries a second
//! request.
//!
//! The router never re-renders a solve response: the backend's body is
//! relayed untouched, so the byte-identical wire contract survives the
//! extra hop. Failover is sound for the same reason the caches are —
//! any backend produces the identical body for the identical canonical
//! request — so a retry that lands on a different replica is
//! indistinguishable from first-try success.
//!
//! Async jobs need one extra trick: job ids are per-backend, so the
//! router re-keys them as `id · B + backend_index` (`B` = configured
//! fleet size) before answering, and decodes that on `GET /jobs/{id}`
//! to poll the owning backend. A job's result dies with its backend —
//! polling a down backend answers 503, never hangs.

use crate::config::RouterConfig;
use crate::health::{probe_loop, HealthTable};
use crate::metrics::RouterMetrics;
use crate::pool::{BackendConn, ConnectionPool};
use crate::ring::HashRing;
use snc_json::Json;
use snc_metrics::{AccessLog, RequestIds};
use snc_server::http::{self, HttpError, Request, RequestParser};
use snc_server::server::{self, ResponseMeta};
use snc_server::sys::{self, Interest, Poller};
use snc_server::wire;
use snc_server::ServerConfig;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// Shared state every router connection thread sees.
struct Shared {
    cfg: RouterConfig,
    defaults: snc_server::wire::RequestDefaults,
    ring: HashRing,
    health: Arc<HealthTable>,
    pool: Arc<ConnectionPool>,
    shutdown: Arc<AtomicBool>,
    metrics: RouterMetrics,
    request_ids: RequestIds,
    access_log: Option<AccessLog>,
}

/// A running router. Dropping the handle shuts it down gracefully
/// (acceptor and prober stopped, in-flight proxied requests finished).
pub struct RouterHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    wakeup: Arc<sys::Wakeup>,
    acceptor: Option<JoinHandle<()>>,
    prober: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for RouterHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RouterHandle")
            .field("addr", &self.addr)
            .finish()
    }
}

/// Binds the edge listener, starts the acceptor and the health prober.
///
/// # Errors
///
/// Propagates socket bind and poller set-up failures.
pub fn serve_router(cfg: RouterConfig) -> std::io::Result<RouterHandle> {
    let listener = TcpListener::bind(&cfg.addr)?;
    let addr = listener.local_addr()?;
    listener.set_nonblocking(true)?;
    let wakeup = Arc::new(sys::Wakeup::new()?);
    let mut poller = Poller::new(sys::Backend::Auto)?;
    // Tokens go unread: any readiness re-checks the flag, then accepts.
    poller.add(listener.as_raw_fd(), 0, Interest::READ)?;
    poller.add(wakeup.read_fd(), 1, Interest::READ)?;
    let access_log = match &cfg.access_log {
        Some(path) => Some(AccessLog::open_rotating(path, cfg.access_log_max_bytes)?),
        None => None,
    };
    let shutdown = Arc::new(AtomicBool::new(false));
    let health = Arc::new(HealthTable::new(
        cfg.backends.len(),
        cfg.down_after,
        cfg.up_after,
    ));
    let pool = Arc::new(ConnectionPool::new(
        cfg.backends.len(),
        cfg.pool_idle_per_backend,
        cfg.pool_idle_timeout,
        cfg.connect_timeout,
        cfg.backend_read_timeout,
    ));
    let prober = {
        let backends: Vec<SocketAddr> = cfg.backends.iter().map(|b| b.addr).collect();
        let table = Arc::clone(&health);
        let interval = cfg.probe_interval;
        let timeout = cfg.probe_timeout;
        let flag = Arc::clone(&shutdown);
        // Demotions (from probes) drain the victim's pooled sockets, so
        // a down backend can never answer a first stale request after
        // re-admission.
        let drain_pool = Arc::clone(&pool);
        std::thread::spawn(move || {
            probe_loop(backends, table, interval, timeout, flag, move |backend| {
                drain_pool.drain(backend);
            });
        })
    };
    let shared = Arc::new(Shared {
        // Parse with the same limits a default backend enforces, so the
        // edge rejects exactly what the fleet would.
        defaults: ServerConfig {
            replicas: cfg.replicas,
            ..ServerConfig::default()
        }
        .request_defaults(),
        ring: HashRing::new(&cfg.weights(), cfg.vnodes),
        health,
        pool,
        shutdown: Arc::clone(&shutdown),
        metrics: RouterMetrics::new(),
        request_ids: RequestIds::from_env(),
        access_log,
        cfg,
    });
    let acceptor = std::thread::spawn(move || accept_loop(&listener, poller, &shared));
    Ok(RouterHandle {
        addr,
        shutdown,
        wakeup,
        acceptor: Some(acceptor),
        prober: Some(prober),
    })
}

impl RouterHandle {
    /// The actual bound edge address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests a graceful shutdown and blocks until the acceptor,
    /// connection threads, and prober have exited.
    pub fn shutdown(mut self) {
        self.stop();
    }

    /// Blocks until the router exits (the binary's serve-forever mode).
    pub fn join(mut self) {
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        if let Some(prober) = self.prober.take() {
            let _ = prober.join();
        }
    }

    fn stop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.wakeup.notify();
        // The prober parks between sweeps; wake it to see the flag.
        if let Some(prober) = &self.prober {
            prober.thread().unpark();
        }
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        if let Some(prober) = self.prober.take() {
            let _ = prober.join();
        }
    }
}

impl Drop for RouterHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Accepts client connections until shutdown, then joins every
/// connection thread (mirrors the backend's acceptor). Each readiness
/// accepts a burst until `WouldBlock`; the sockets `accept` returns are
/// blocking, since they do not inherit `O_NONBLOCK`.
fn accept_loop(listener: &TcpListener, mut poller: Poller, shared: &Arc<Shared>) {
    let mut connections: Vec<(JoinHandle<()>, TcpStream)> = Vec::new();
    let mut events = Vec::new();
    while poller.wait(&mut events, None).is_ok() && !shared.shutdown.load(Ordering::SeqCst) {
        connections.retain(|(handle, _)| !handle.is_finished());
        loop {
            match listener.accept() {
                Ok((stream, _)) => {
                    let Ok(clone) = stream.try_clone() else {
                        continue;
                    };
                    let shared = Arc::clone(shared);
                    let handle = std::thread::spawn(move || serve_connection(stream, &shared));
                    connections.push((handle, clone));
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => break,
            }
        }
    }
    // A parked keep-alive read returns EOF at once; a request in flight
    // still writes its response, because the write half stays open.
    for (handle, stream) in connections {
        let _ = stream.shutdown(Shutdown::Read);
        let _ = handle.join();
    }
}

/// The per-connection HTTP/1.1 keep-alive loop, on blocking reads: each
/// read is pushed into the parser, and every complete request it holds
/// is answered in order before the next read (the work inside `route`
/// is proxying instead of solving). An EOF ends the connection; a
/// request it cuts short gets no answer, as on the backend.
fn serve_connection(mut stream: TcpStream, shared: &Arc<Shared>) {
    let _ = stream.set_nodelay(true);
    let mut parser = RequestParser::new(shared.cfg.max_body_bytes);
    // On the heap, not the stack: every connection runs on a fresh
    // thread whose stack pages fault on first touch, and a 16 KiB stack
    // buffer raised `churn-routed` p50 by 8-13%.
    let mut chunk = vec![0u8; http::READ_CHUNK];
    'connection: loop {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => parser.push(&chunk[..n]),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => break,
        }
        loop {
            let next = parser.next_request();
            if parser.take_continue_pending() && stream.write_all(http::CONTINUE_INTERIM).is_err() {
                break 'connection;
            }
            match next {
                Ok(None) => break,
                Ok(Some(request)) => {
                    if !answer(&mut stream, &request, shared) {
                        break 'connection;
                    }
                }
                Err(e) => {
                    let body = wire::error_body(&e.message);
                    let bytes = http::render_response(e.status, &[], body.as_bytes(), false);
                    let _ = stream.write_all(&bytes);
                    break 'connection;
                }
            }
        }
    }
    // The acceptor holds a clone of this socket until it reaps the
    // thread; shut it down now so the client sees EOF at once.
    let _ = stream.shutdown(Shutdown::Both);
}

/// Routes one request and writes its response. Returns whether the
/// connection stays open for the next one.
fn answer(stream: &mut TcpStream, request: &Request, shared: &Arc<Shared>) -> bool {
    let started = Instant::now();
    // The edge is where ids are minted. The same id travels on every
    // backend attempt (including retries), which is what makes
    // cross-tier correlation work.
    let request_id = shared.request_ids.resolve(request.request_id.as_deref());
    let (status, body, meta) = route(request, &request_id, shared).unwrap_or_else(|e| {
        (
            e.status,
            wire::error_body(&e.message),
            server::error_meta(&request.path),
        )
    });
    // Read after routing: a response finished during shutdown tells the
    // client the connection closes.
    let keep_alive = request.keep_alive && !shared.shutdown.load(Ordering::SeqCst);
    let elapsed = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
    shared
        .metrics
        .request_duration(meta.route, meta.family, meta.outcome)
        .record(elapsed);
    if let Some(log) = &shared.access_log {
        log.write(&meta.access_line(&request_id, status, elapsed));
    }
    let bytes = meta.render(status, &body, keep_alive, &request_id, elapsed);
    stream.write_all(&bytes).is_ok() && keep_alive
}

/// Routes one parsed client request.
fn route(
    request: &Request,
    request_id: &str,
    shared: &Arc<Shared>,
) -> Result<(u16, String, ResponseMeta), HttpError> {
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => Ok((200, healthz(shared), ResponseMeta::new("healthz"))),
        ("GET", "/metrics") => Ok((
            200,
            metrics_body(shared),
            ResponseMeta {
                content_type: "text/plain; version=0.0.4",
                ..ResponseMeta::new("metrics")
            },
        )),
        ("POST", "/solve") => {
            proxy_keyed(&request.body, "/solve", request_id, shared).map(|(s, b, _, family)| {
                (
                    s,
                    b,
                    ResponseMeta {
                        family,
                        outcome: "relayed",
                        ..ResponseMeta::new("solve")
                    },
                )
            })
        }
        ("POST", "/jobs") => submit_job(&request.body, request_id, shared),
        ("GET", path) if path.starts_with("/jobs/") => {
            poll_job(path, request_id, shared).map(|(s, b)| {
                (
                    s,
                    b,
                    ResponseMeta {
                        outcome: "relayed",
                        ..ResponseMeta::new("jobs_poll")
                    },
                )
            })
        }
        ("GET", "/") => Ok((
            200,
            server::index_body("snc-router"),
            ResponseMeta::new("index"),
        )),
        (_, "/healthz" | "/solve" | "/jobs" | "/" | "/metrics") => {
            Err(HttpError::new(405, "method not allowed"))
        }
        (_, path) if path.starts_with("/jobs/") => Err(HttpError::new(405, "method not allowed")),
        _ => Err(HttpError::new(404, "no such endpoint")),
    }
}

/// The aggregated router health body: fleet status, per-backend state
/// and counters, and the global routed/retried/failed tallies.
fn healthz(shared: &Arc<Shared>) -> String {
    let backends: Vec<Json> = shared
        .cfg
        .backends
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            let snap = shared.health.snapshot(i);
            Json::Obj(vec![
                ("addr".into(), Json::str(spec.addr.to_string())),
                ("weight".into(), Json::UInt(u64::from(spec.weight))),
                ("up".into(), Json::Bool(snap.up)),
                ("probes_ok".into(), Json::UInt(snap.probes_ok)),
                ("probes_failed".into(), Json::UInt(snap.probes_failed)),
                ("routed".into(), Json::UInt(snap.routed)),
                ("errors".into(), Json::UInt(snap.errors)),
                (
                    "pool_idle".into(),
                    Json::UInt(shared.pool.idle_count(i) as u64),
                ),
            ])
        })
        .collect();
    let pool = shared.pool.snapshot();
    let up = shared.health.up_count();
    let status = if up == shared.cfg.backends.len() {
        "ok"
    } else if up > 0 {
        "degraded"
    } else {
        "down"
    };
    Json::Obj(vec![
        ("status".into(), Json::str(status)),
        ("backends".into(), Json::Arr(backends)),
        ("backends_up".into(), Json::UInt(up as u64)),
        (
            "ring_points".into(),
            Json::UInt(shared.ring.points() as u64),
        ),
        (
            "routed".into(),
            Json::UInt(shared.health.routed.load(Ordering::Relaxed)),
        ),
        (
            "retried".into(),
            Json::UInt(shared.health.retried.load(Ordering::Relaxed)),
        ),
        (
            "failed".into(),
            Json::UInt(shared.health.failed.load(Ordering::Relaxed)),
        ),
        (
            "pool".into(),
            Json::Obj(vec![
                ("idle".into(), Json::UInt(pool.idle)),
                ("created".into(), Json::UInt(pool.created)),
                ("reused".into(), Json::UInt(pool.reused)),
                ("retired".into(), Json::UInt(pool.retired)),
                ("stale_retries".into(), Json::UInt(pool.stale_retries)),
            ]),
        ),
    ])
    .render()
}

/// Renders `GET /metrics`: mirrors the health table's tallies onto the
/// registry (read from the same sources `/healthz` reports, so the two
/// surfaces can never disagree), then renders the text exposition.
fn metrics_body(shared: &Arc<Shared>) -> String {
    let m = &shared.metrics;
    m.sync_totals(
        shared.health.routed.load(Ordering::Relaxed),
        shared.health.retried.load(Ordering::Relaxed),
        shared.health.failed.load(Ordering::Relaxed),
        shared.health.up_count() as u64,
    );
    for (i, spec) in shared.cfg.backends.iter().enumerate() {
        let snap = shared.health.snapshot(i);
        m.sync_backend(&spec.addr.to_string(), snap.up, snap.routed, snap.errors);
    }
    let pool = shared.pool.snapshot();
    m.sync_pool(
        pool.idle,
        pool.created,
        pool.reused,
        pool.retired,
        pool.stale_retries,
    );
    m.registry.render()
}

/// Header bytes a backend response may spend before the parser calls it
/// hostile (`InvalidData`). Real backend heads are < 1 KiB.
const MAX_RESPONSE_HEAD_BYTES: usize = 16 * 1024;

fn invalid_data(message: String) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, message)
}

/// One parsed backend response: status, body, and whether the stream is
/// positioned at a clean boundary (explicit length, no `Connection:
/// close`, nothing buffered past the body) and may be pooled.
#[derive(Debug)]
struct BackendResponse {
    status: u16,
    body: String,
    reusable: bool,
}

/// Reads one strictly-framed HTTP/1.1 response from a backend stream.
///
/// Framing rules (violations are `InvalidData` — never a guess):
///
/// * the status line must be `HTTP/1.1 ` + a 3-digit code in 100–599
///   (the malformed line is quoted in the error);
/// * header lines must contain `:`;
/// * `Content-Length` may appear at most once — duplicate headers are
///   rejected even when they agree, because a response carrying two
///   lengths is already evidence of desync or smuggling;
/// * a body without `Content-Length` is close-delimited **only** when
///   the backend explicitly sent `Connection: close`; otherwise there
///   is no sound way to find the next response's start, so the exchange
///   is rejected rather than read-to-end (PR 7 read to EOF here, which
///   was only ever safe because every connection was close-mode).
fn read_backend_response(reader: &mut BufReader<TcpStream>) -> std::io::Result<BackendResponse> {
    let mut status_line = String::new();
    if reader.read_line(&mut status_line)? == 0 {
        return Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "backend closed before sending a status line",
        ));
    }
    let line = status_line.trim_end_matches(['\r', '\n']);
    let rest = line
        .strip_prefix("HTTP/1.1 ")
        .ok_or_else(|| invalid_data(format!("backend status line is not HTTP/1.1: {line:?}")))?;
    let code = rest.as_bytes().get(..3).filter(|digits| {
        digits.iter().all(u8::is_ascii_digit) && rest.as_bytes().get(3).is_none_or(|&b| b == b' ')
    });
    let status: u16 = code
        .and_then(|digits| std::str::from_utf8(digits).ok())
        .and_then(|digits| digits.parse().ok())
        .ok_or_else(|| invalid_data(format!("malformed backend status line {line:?}")))?;
    if !(100..=599).contains(&status) {
        return Err(invalid_data(format!(
            "backend status code {status} out of range in {line:?}"
        )));
    }
    let mut content_length: Option<usize> = None;
    let mut connection_close = false;
    let mut head_bytes = status_line.len();
    let mut line = String::new();
    loop {
        line.clear();
        let n = reader.read_line(&mut line)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "backend closed mid-headers",
            ));
        }
        head_bytes += n;
        if head_bytes > MAX_RESPONSE_HEAD_BYTES {
            return Err(invalid_data("backend response head too large".to_string()));
        }
        let trimmed = line.trim_end_matches(['\r', '\n']);
        if trimmed.is_empty() {
            break;
        }
        let Some((name, value)) = trimmed.split_once(':') else {
            return Err(invalid_data(format!(
                "malformed backend header line {trimmed:?}"
            )));
        };
        let value = value.trim();
        if name.trim().eq_ignore_ascii_case("content-length") {
            let length: usize = value
                .parse()
                .map_err(|_| invalid_data(format!("bad backend content-length {value:?}")))?;
            if let Some(previous) = content_length.replace(length) {
                return Err(invalid_data(format!(
                    "duplicate backend content-length headers ({previous} then {length})"
                )));
            }
        } else if name.trim().eq_ignore_ascii_case("connection")
            && value
                .split(',')
                .any(|token| token.trim().eq_ignore_ascii_case("close"))
        {
            connection_close = true;
        }
    }
    let body = match content_length {
        Some(length) => {
            let mut buf = vec![0u8; length];
            reader.read_exact(&mut buf)?;
            buf
        }
        None if connection_close => {
            let mut buf = Vec::new();
            reader.read_to_end(&mut buf)?;
            buf
        }
        None => {
            return Err(invalid_data(
                "backend response has no content-length and did not say connection: close"
                    .to_string(),
            ));
        }
    };
    let body = String::from_utf8(body).map_err(|_| {
        std::io::Error::new(std::io::ErrorKind::InvalidData, "backend body is not UTF-8")
    })?;
    let reusable = content_length.is_some() && !connection_close && reader.buffer().is_empty();
    Ok(BackendResponse {
        status,
        body,
        reusable,
    })
}

/// Writes one proxied request and reads its strictly-framed response on
/// `conn`. `close` mode adds `Connection: close` (the PR 7 wire shape,
/// used when pooling is disabled); otherwise HTTP/1.1 keep-alive is
/// implied and the connection can go back to the pool.
fn exchange(
    conn: &mut BackendConn,
    method: &str,
    path: &str,
    body: &[u8],
    request_id: &str,
    close: bool,
) -> std::io::Result<BackendResponse> {
    let connection_header = if close { "Connection: close\r\n" } else { "" };
    conn.writer.write_all(
        format!(
            "{method} {path} HTTP/1.1\r\nHost: snc-router\r\nx-snc-request-id: {request_id}\r\nContent-Length: {}\r\n{connection_header}\r\n",
            body.len()
        )
        .as_bytes(),
    )?;
    conn.writer.write_all(body)?;
    conn.writer.flush()?;
    read_backend_response(&mut conn.reader)
}

/// One forwarded HTTP round-trip to backend `backend`, through the
/// keep-alive pool. The full response is buffered before returning — so
/// a retry can never interleave with bytes already relayed to the
/// client — and the edge's request id rides along in
/// `x-snc-request-id` on every attempt.
///
/// Stale-connection rule: a transport error on a **reused** pooled
/// connection (the backend reaped or reset it while parked) is retried
/// exactly once on a **fresh** connection to the same backend, counted
/// in `stale_retries` — it reaches neither the health machine nor
/// failover. `InvalidData` (a malformed response) is *not* staleness
/// and propagates immediately; errors on a fresh connection are real
/// evidence and propagate too.
fn forward_once(
    pool: &ConnectionPool,
    backend: usize,
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &[u8],
    request_id: &str,
) -> std::io::Result<(u16, String)> {
    let close = !pool.enabled();
    let mut conn = pool.checkout(backend, addr)?;
    let first_was_reused = conn.reused;
    let response = match exchange(&mut conn, method, path, body, request_id, close) {
        Ok(response) => response,
        Err(e) if first_was_reused && e.kind() != std::io::ErrorKind::InvalidData => {
            drop(conn); // retire the stale socket before dialing anew
            pool.note_stale_retry();
            conn = pool.connect_fresh(addr)?;
            exchange(&mut conn, method, path, body, request_id, close)?
        }
        Err(e) => return Err(e),
    };
    if response.reusable && !close {
        pool.checkin(backend, conn);
    }
    Ok((response.status, response.body))
}

/// Validates a solve-bearing body, shards it by its response key's
/// instance fold, and forwards it with bounded failover. Returns
/// `(status, body, backend)` where `backend` is the index that produced
/// the relayed response.
///
/// Failure taxonomy:
///
/// * transport errors (connect refused/timeout, read error) — the
///   backend may be dead: feed the health machine, try the next
///   candidate;
/// * `5xx` — the backend is alive but couldn't answer (queue full,
///   solver panic): try the next candidate *without* a health demotion
///   (the prober owns aliveness; one poisoned request must not take a
///   replica out of the ring). By determinism, a relayed retry is
///   byte-identical to what the first backend would eventually have
///   said, so failover never changes answers;
/// * `< 500` — relay.
fn proxy_keyed(
    body: &[u8],
    path: &str,
    request_id: &str,
    shared: &Arc<Shared>,
) -> Result<(u16, String, usize, &'static str), HttpError> {
    let bad_request = |e: wire::WireError| HttpError::new(400, e.0);
    let request = wire::parse_spec(body, &shared.defaults).map_err(bad_request)?;
    let family = request.family_name();
    // A dataset or gnp request shards on its spec key: no graph is built
    // here, so a gnp that comes out edgeless passes and its backend
    // refuses it.
    let key = request.key().map_err(bad_request)?.payload_fold();
    let candidates: Vec<usize> = shared
        .ring
        .candidates(key)
        .into_iter()
        .filter(|&b| shared.health.is_up(b))
        .collect();
    if candidates.is_empty() {
        shared.health.failed.fetch_add(1, Ordering::Relaxed);
        return Err(HttpError::new(503, "no live backends"));
    }
    let budget = candidates.len().min(shared.cfg.retries + 1);
    let mut last_5xx: Option<(u16, String, usize)> = None;
    let mut last_err: Option<std::io::Error> = None;
    for (attempt, &backend) in candidates.iter().take(budget).enumerate() {
        if attempt > 0 {
            shared.health.retried.fetch_add(1, Ordering::Relaxed);
        }
        let addr = shared.cfg.backends[backend].addr;
        match forward_once(&shared.pool, backend, addr, "POST", path, body, request_id) {
            Ok((status, reply)) if status < 500 => {
                shared.health.observe_success(backend, false);
                shared.health.count_routed(backend);
                return Ok((status, reply, backend, family));
            }
            Ok((status, reply)) => {
                shared.health.observe_success(backend, false);
                last_5xx = Some((status, reply, backend));
            }
            Err(e) => {
                // A demotion strands any sockets parked for the victim;
                // drain them so re-admission starts from fresh connects.
                if shared.health.observe_failure(backend, false) {
                    shared.pool.drain(backend);
                }
                last_err = Some(e);
            }
        }
    }
    // Out of budget: relay the last backend-authored 5xx if any (it is
    // a deterministic answer), otherwise the fleet was unreachable.
    if let Some((status, reply, backend)) = last_5xx {
        shared.health.count_routed(backend);
        return Ok((status, reply, backend, family));
    }
    shared.health.failed.fetch_add(1, Ordering::Relaxed);
    let detail = last_err.map_or_else(String::new, |e| format!(" (last error: {e})"));
    Err(HttpError::new(
        503,
        format!("all {budget} candidate backend(s) unreachable, retry later{detail}"),
    ))
}

/// Re-keys a backend-local job id into the router's id space.
fn encode_job_id(inner: u64, backend: usize, fleet: usize) -> Option<u64> {
    inner
        .checked_mul(fleet as u64)
        .and_then(|scaled| scaled.checked_add(backend as u64))
}

/// `POST /jobs`: forward by fingerprint, then re-key the returned job
/// id so `GET /jobs/{id}` can find the owning backend again.
fn submit_job(
    body: &[u8],
    request_id: &str,
    shared: &Arc<Shared>,
) -> Result<(u16, String, ResponseMeta), HttpError> {
    let (status, reply, backend, family) = proxy_keyed(body, "/jobs", request_id, shared)?;
    let meta = ResponseMeta {
        family,
        outcome: "relayed",
        ..ResponseMeta::new("jobs")
    };
    if status != 202 {
        return Ok((status, reply, meta));
    }
    let doc =
        snc_json::parse(&reply).map_err(|_| HttpError::new(500, "backend job ack was not JSON"))?;
    let inner = doc
        .get("id")
        .and_then(Json::as_u64)
        .ok_or_else(|| HttpError::new(500, "backend job ack carried no id"))?;
    let routed_id = encode_job_id(inner, backend, shared.cfg.backends.len())
        .ok_or_else(|| HttpError::new(500, "job id overflow"))?;
    let Json::Obj(members) = doc else {
        return Err(HttpError::new(500, "backend job ack was not an object"));
    };
    let rewritten: Vec<(String, Json)> = members
        .into_iter()
        .map(|(k, v)| {
            if k == "id" {
                (k, Json::UInt(routed_id))
            } else {
                (k, v)
            }
        })
        .collect();
    Ok((202, Json::Obj(rewritten).render(), meta))
}

/// `GET /jobs/{id}`: decode the owning backend from the router-keyed
/// id, poll it directly (job affinity — no failover possible), and
/// re-key the id in the answer.
fn poll_job(
    path: &str,
    request_id: &str,
    shared: &Arc<Shared>,
) -> Result<(u16, String), HttpError> {
    let routed_id: u64 = path
        .strip_prefix("/jobs/")
        .and_then(|raw| raw.parse().ok())
        .ok_or_else(|| HttpError::new(400, "job id must be an integer"))?;
    let fleet = shared.cfg.backends.len() as u64;
    let backend = (routed_id % fleet) as usize;
    let inner = routed_id / fleet;
    if !shared.health.is_up(backend) {
        return Err(HttpError::new(
            503,
            format!("job {routed_id} lives on a backend that is down"),
        ));
    }
    let addr = shared.cfg.backends[backend].addr;
    let path = format!("/jobs/{inner}");
    match forward_once(&shared.pool, backend, addr, "GET", &path, b"", request_id) {
        Ok((200, reply)) => {
            let doc = snc_json::parse(&reply)
                .map_err(|_| HttpError::new(500, "backend job record was not JSON"))?;
            let Json::Obj(members) = doc else {
                return Err(HttpError::new(500, "backend job record was not an object"));
            };
            let rewritten: Vec<(String, Json)> = members
                .into_iter()
                .map(|(k, v)| {
                    if k == "id" {
                        (k, Json::UInt(routed_id))
                    } else {
                        (k, v)
                    }
                })
                .collect();
            shared.health.observe_success(backend, false);
            Ok((200, Json::Obj(rewritten).render()))
        }
        Ok((404, _)) => Err(HttpError::new(
            404,
            format!("no job {routed_id} (expired or never existed)"),
        )),
        Ok((status, reply)) => Ok((status, reply)),
        Err(_) => {
            if shared.health.observe_failure(backend, false) {
                shared.pool.drain(backend);
            }
            Err(HttpError::new(
                503,
                format!("job {routed_id}'s backend did not answer"),
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// Serves `raw` bytes to one accepted connection, then closes —
    /// exactly what a hostile or buggy backend on the wire looks like.
    fn parse_raw(raw: &[u8]) -> std::io::Result<BackendResponse> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let raw = raw.to_vec();
        let server = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            s.write_all(&raw).unwrap();
        });
        let stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut reader = BufReader::new(stream);
        let result = read_backend_response(&mut reader);
        server.join().unwrap();
        result
    }

    fn expect_invalid(raw: &[u8], needle: &str) {
        let e = parse_raw(raw).expect_err("parser accepted malformed response");
        assert_eq!(e.kind(), std::io::ErrorKind::InvalidData, "{e}");
        assert!(
            e.to_string().contains(needle),
            "error {e:?} does not mention {needle:?}"
        );
    }

    /// Reads one request head (through the blank line) off a fake
    /// backend's accepted socket. Proxied test requests carry empty
    /// bodies, so the head is the whole request.
    fn read_head(stream: &mut TcpStream) -> String {
        let mut buf = Vec::new();
        let mut byte = [0u8; 1];
        while !buf.ends_with(b"\r\n\r\n") {
            if stream.read(&mut byte).unwrap() == 0 {
                break;
            }
            buf.push(byte[0]);
        }
        String::from_utf8(buf).unwrap()
    }

    fn test_pool(capacity: usize) -> ConnectionPool {
        ConnectionPool::new(
            1,
            capacity,
            Duration::from_secs(60),
            Duration::from_secs(2),
            Duration::from_secs(2),
        )
    }

    const KEEPALIVE_OK: &[u8] = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok";

    #[test]
    fn duplicate_content_length_is_rejected_even_when_it_agrees() {
        expect_invalid(
            b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nContent-Length: 2\r\n\r\nok",
            "duplicate backend content-length",
        );
    }

    #[test]
    fn conflicting_content_lengths_are_rejected() {
        expect_invalid(
            b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nContent-Length: 3\r\n\r\nok!",
            "(2 then 3)",
        );
    }

    #[test]
    fn missing_content_length_requires_explicit_connection_close() {
        // With `Connection: close` the body is close-delimited: legal.
        let ok = parse_raw(b"HTTP/1.1 200 OK\r\nConnection: close\r\n\r\nhello").unwrap();
        assert_eq!(
            (ok.status, ok.body.as_str(), ok.reusable),
            (200, "hello", false)
        );
        // Without it there is no sound framing — reject, never guess.
        expect_invalid(b"HTTP/1.1 200 OK\r\n\r\nhello", "no content-length");
    }

    #[test]
    fn status_line_must_be_http11_with_a_code_in_range() {
        expect_invalid(
            b"HTTP/1.0 200 OK\r\nContent-Length: 0\r\n\r\n",
            "not HTTP/1.1",
        );
        expect_invalid(
            b"HTTP/1.1 abc ok\r\nContent-Length: 0\r\n\r\n",
            "\"HTTP/1.1 abc ok\"",
        );
        expect_invalid(b"HTTP/1.1 99 low\r\nContent-Length: 0\r\n\r\n", "malformed");
        expect_invalid(b"HTTP/1.1 2000\r\nContent-Length: 0\r\n\r\n", "malformed");
        expect_invalid(
            b"HTTP/1.1 700 nope\r\nContent-Length: 0\r\n\r\n",
            "status code 700 out of range",
        );
        expect_invalid(b"garbage\r\nContent-Length: 0\r\n\r\n", "\"garbage\"");
        // Boundary codes parse; a bare code with no reason phrase too.
        let r = parse_raw(b"HTTP/1.1 599 oops\r\nContent-Length: 0\r\n\r\n").unwrap();
        assert_eq!(r.status, 599);
        let r = parse_raw(b"HTTP/1.1 100\r\nContent-Length: 0\r\n\r\n").unwrap();
        assert_eq!(r.status, 100);
    }

    #[test]
    fn header_line_without_a_colon_is_rejected() {
        expect_invalid(
            b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nbogus header line\r\n\r\nok",
            "\"bogus header line\"",
        );
    }

    #[test]
    fn reusable_only_with_explicit_length_and_no_close() {
        let r = parse_raw(KEEPALIVE_OK).unwrap();
        assert!(r.reusable, "length-framed keep-alive response is poolable");
        let r = parse_raw(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nConnection: close\r\n\r\nok")
            .unwrap();
        assert!(!r.reusable, "backend-requested close retires the socket");
    }

    #[test]
    fn stale_reused_connection_retries_once_on_a_fresh_one() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            // Connection 1: answer keep-alive, then close while parked —
            // the idle-reap shape.
            let (mut s, _) = listener.accept().unwrap();
            let head = read_head(&mut s);
            assert!(
                !head.to_ascii_lowercase().contains("connection:"),
                "pooled request must not ask for close: {head:?}"
            );
            s.write_all(KEEPALIVE_OK).unwrap();
            drop(s);
            // Connection 2: the fresh retry lands here.
            let (mut s, _) = listener.accept().unwrap();
            read_head(&mut s);
            s.write_all(KEEPALIVE_OK).unwrap();
        });
        let pool = test_pool(4);
        let (status, body) = forward_once(&pool, 0, addr, "GET", "/x", b"", "rid-1").unwrap();
        assert_eq!((status, body.as_str()), (200, "ok"));
        // Give the backend's FIN time to land so the reuse is stale.
        std::thread::sleep(Duration::from_millis(50));
        let (status, body) = forward_once(&pool, 0, addr, "GET", "/x", b"", "rid-2").unwrap();
        assert_eq!((status, body.as_str()), (200, "ok"), "retry is invisible");
        server.join().unwrap();
        let snap = pool.snapshot();
        assert_eq!(snap.stale_retries, 1, "exactly one stale retry");
        assert_eq!(snap.reused, 1, "the stale checkout still counts as a reuse");
        assert_eq!(snap.created, 2, "original + fresh retry connection");
    }

    #[test]
    fn invalid_data_on_a_reused_connection_does_not_retry() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            read_head(&mut s);
            s.write_all(KEEPALIVE_OK).unwrap();
            // Second request arrives on the same (reused) connection;
            // answer with a malformed head. No second accept: a retry
            // would hang the test instead of passing it.
            read_head(&mut s);
            s.write_all(b"HTTP/1.1 banana\r\nContent-Length: 0\r\n\r\n")
                .unwrap();
        });
        let pool = test_pool(4);
        forward_once(&pool, 0, addr, "GET", "/x", b"", "rid-1").unwrap();
        let e = forward_once(&pool, 0, addr, "GET", "/x", b"", "rid-2")
            .expect_err("malformed response must propagate");
        assert_eq!(e.kind(), std::io::ErrorKind::InvalidData);
        server.join().unwrap();
        assert_eq!(
            pool.snapshot().stale_retries,
            0,
            "InvalidData is not staleness"
        );
    }

    #[test]
    fn disabled_pool_sends_connection_close_and_never_parks() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            for _ in 0..2 {
                let (mut s, _) = listener.accept().unwrap();
                let head = read_head(&mut s);
                assert!(
                    head.contains("Connection: close\r\n"),
                    "disabled pool must keep the PR 7 wire shape: {head:?}"
                );
                // Close-delimited response: the PR 7 backend shape.
                s.write_all(b"HTTP/1.1 200 OK\r\nConnection: close\r\n\r\nok")
                    .unwrap();
            }
        });
        let pool = test_pool(0);
        for rid in ["rid-1", "rid-2"] {
            let (status, body) = forward_once(&pool, 0, addr, "GET", "/x", b"", rid).unwrap();
            assert_eq!((status, body.as_str()), (200, "ok"));
        }
        server.join().unwrap();
        let snap = pool.snapshot();
        assert_eq!(snap.idle, 0, "disabled pool never parks");
        assert_eq!(snap.reused, 0);
        assert_eq!((snap.created, snap.retired), (2, 2));
    }

    #[test]
    fn job_id_round_trips_through_the_router_keyspace() {
        for fleet in 1..5usize {
            for backend in 0..fleet {
                for inner in [0u64, 1, 7, 1_000_003] {
                    let routed = encode_job_id(inner, backend, fleet).unwrap();
                    assert_eq!((routed % fleet as u64) as usize, backend);
                    assert_eq!(routed / fleet as u64, inner);
                }
            }
        }
        assert_eq!(encode_job_id(u64::MAX, 1, 3), None, "overflow is caught");
    }
}
