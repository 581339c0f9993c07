//! The readiness-driven reactor: one loop thread owns the listener, the
//! wakeup pipe, and every connection's state machine.
//!
//! ## Connection state machine
//!
//! ```text
//!            accept (under budget; over budget ⇒ 503 + close, `shed`++)
//!              │
//!              ▼
//!        ┌──────────┐  complete request, inline route   ┌──────────┐
//!   ┌───▶│ Reading  │──────────────────────────────────▶│ Flushing │
//!   │    │ (READ)   │  solve miss: dispatch to pool     │ (WRITE)  │
//!   │    └──────────┘──────────────┐                    └──────────┘
//!   │         │                    ▼                      │      │
//!   │         │ idle deadline  ┌──────────┐  completion   │      │ close-
//!   │         │ (reaper:       │ Waiting  │──────────────▶│      │ after-
//!   │         │  `reaped`++)   │ (parked) │  via Mailbox  │      │ flush /
//!   │         ▼                └──────────┘  + wakeup     │      │ EOF
//!   │       close                                         │      ▼
//!   │                                                     │    close
//!   └─────────────────────────────────────────────────────┘
//!                   out buffer drained, keep-alive
//! ```
//!
//! * **Reading** — read interest; bytes stream into an incremental
//!   [`RequestParser`]. Received bytes do **not** extend the idle
//!   deadline (that is the slowloris defense); only a completed request
//!   cycle or write progress does.
//! * **Flushing** — write interest; the rendered response (and any
//!   pipelined successors) sit in one out-buffer that resumes across
//!   partial writes. Connections with both a parked solve and pending
//!   bytes stay in Flushing.
//! * **Waiting** — a solve was dispatched to the [`WorkerPool`]; the fd
//!   is deregistered from the poller entirely (nothing is wanted from
//!   it, and a level-triggered hangup would otherwise spin the loop), so
//!   pipelined bytes queue in the kernel buffer — natural backpressure.
//!   The worker delivers a `Completion` to the `Mailbox` and rings
//!   the wakeup pipe. Stale completions (the slot was reaped and reused)
//!   are discarded by generation counter.
//!
//! Pipelined requests are processed strictly in order: one request is
//! in flight per connection at a time, and responses are appended to
//! the out-buffer in arrival order, so a pipelined burst is
//! byte-identical to the same requests issued sequentially.
//!
//! [`RequestParser`]: crate::http::RequestParser
//! [`WorkerPool`]: crate::pool::WorkerPool

use crate::http::{self, RequestParser};
use crate::server::{self, ResponseMeta, Routed, Shared};
use crate::sys::{self, Event, Interest, Poller};
use crate::wire;
use snc_metrics::Histogram;
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Poller token for the accept socket.
const LISTENER_TOKEN: u64 = u64::MAX;
/// Poller token for the wakeup pipe's read end.
const WAKEUP_TOKEN: u64 = u64::MAX - 1;

/// Addressing for a parked connection: which slot, and which occupancy
/// of that slot. A completion whose generation no longer matches the
/// slot's is stale (the connection died and the slot was reused) and is
/// dropped.
#[derive(Clone, Copy, Debug)]
pub(crate) struct ReplyTo {
    /// Slot index in the reactor's connection table.
    pub token: usize,
    /// Occupancy counter of that slot at dispatch time.
    pub generation: u64,
}

/// A finished solve, rendered and ready to frame.
pub(crate) struct Completion {
    /// Slot index the request came from.
    pub token: usize,
    /// Slot generation at dispatch time.
    pub generation: u64,
    /// HTTP status (200, or the mapped solver failure).
    pub status: u16,
    /// Response body (already error-rendered on failure).
    pub body: String,
}

/// Where workers leave completions for the reactor, paired with the
/// wakeup pipe that interrupts its wait. This is the only channel
/// between worker threads and the loop.
pub(crate) struct Mailbox {
    completions: Mutex<Vec<Completion>>,
    wakeup: sys::Wakeup,
}

impl Mailbox {
    /// Opens the mailbox and its wakeup pipe.
    pub(crate) fn new() -> io::Result<Mailbox> {
        Ok(Mailbox {
            completions: Mutex::new(Vec::new()),
            wakeup: sys::Wakeup::new()?,
        })
    }

    /// Queues a completion and interrupts the reactor's wait.
    pub(crate) fn deliver(&self, completion: Completion) {
        self.completions
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push(completion);
        self.wakeup.notify();
    }

    /// Interrupts the reactor's wait with nothing attached (shutdown).
    pub(crate) fn ring(&self) {
        self.wakeup.notify();
    }

    /// Takes every pending completion and clears the wakeup pipe.
    fn drain(&self) -> Vec<Completion> {
        self.wakeup.drain();
        std::mem::take(
            &mut *self
                .completions
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner),
        )
    }

    /// Completions currently queued (a scrape-time gauge read).
    pub(crate) fn depth(&self) -> usize {
        self.completions
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .len()
    }
}

/// A parked request: the solve is on the pool; remember how to frame
/// the eventual reply (and how to label it when it lands).
struct Waiting {
    keep_alive: bool,
    started: Instant,
    meta: ResponseMeta,
    request_id: String,
}

/// One connection's state.
struct Conn {
    stream: TcpStream,
    /// Occupancy counter (distinguishes this tenant of the slot from
    /// past and future ones in completion tokens).
    generation: u64,
    parser: RequestParser,
    /// Rendered-but-unsent response bytes; `out_pos` is the resume
    /// point after a partial write.
    out: Vec<u8>,
    out_pos: usize,
    /// `Some` while a solve is parked on the worker pool.
    waiting: Option<Waiting>,
    /// Close once `out` drains (response had `Connection: close`, or a
    /// parse error was answered).
    close_after_flush: bool,
    /// The peer will send no more bytes (EOF or half-close observed);
    /// finish writing, then close.
    read_closed: bool,
    /// Current poller registration (`None` = deregistered, e.g. parked).
    registered: Option<Interest>,
    /// Idle deadline: start of the current request cycle plus the idle
    /// timeout. **Not** advanced by received bytes.
    deadline: Instant,
}

impl Conn {
    fn out_pending(&self) -> bool {
        self.out_pos < self.out.len()
    }
}

struct Reactor {
    listener: TcpListener,
    poller: Poller,
    shared: Arc<Shared>,
    conns: Vec<Option<Conn>>,
    /// Slot indices free for reuse.
    free: Vec<usize>,
    /// Slots freed during the current tick; recycled only after the
    /// event batch so a stale readiness event cannot alias a fresh
    /// tenant within one batch.
    freed_this_tick: Vec<usize>,
    next_generation: u64,
    idle: Duration,
    accepting: bool,
    /// Reactor-local cache of request-duration histogram handles keyed
    /// by `[route, family, outcome]`, so the warm path records with a
    /// hash probe and three relaxed atomics instead of taking the
    /// registry lock.
    request_histograms: HashMap<[&'static str; 3], Arc<Histogram>>,
}

/// Runs the reactor until shutdown. Consumes the (non-blocking)
/// listener and the pre-built poller; `shared.mailbox` supplies the
/// wakeup pipe.
pub(crate) fn run(listener: TcpListener, poller: Poller, shared: &Arc<Shared>) {
    let idle = Duration::from_millis(shared.cfg.idle_timeout_ms.max(1));
    let mut reactor = Reactor {
        listener,
        poller,
        shared: Arc::clone(shared),
        conns: Vec::new(),
        free: Vec::new(),
        freed_this_tick: Vec::new(),
        next_generation: 0,
        idle,
        accepting: true,
        request_histograms: HashMap::new(),
    };
    let listener_fd = reactor.listener.as_raw_fd();
    let wakeup_fd = reactor.shared.mailbox.wakeup.read_fd();
    if reactor
        .poller
        .add(listener_fd, LISTENER_TOKEN, Interest::READ)
        .is_err()
        || reactor
            .poller
            .add(wakeup_fd, WAKEUP_TOKEN, Interest::READ)
            .is_err()
    {
        return;
    }
    let mut events: Vec<Event> = Vec::with_capacity(512);
    loop {
        if reactor.shared.shutdown.load(Ordering::SeqCst) {
            reactor.begin_shutdown();
            if reactor.live_connections() == 0 {
                break;
            }
        }
        let timeout = reactor.next_timeout();
        let wait_started = Instant::now();
        if reactor.poller.wait(&mut events, timeout).is_err() {
            break;
        }
        let work_started = Instant::now();
        reactor
            .shared
            .metrics
            .poll_wait_us
            .record(micros(work_started.duration_since(wait_started)));
        for i in 0..events.len() {
            let ev = events[i];
            match ev.token {
                LISTENER_TOKEN => reactor.accept_burst(),
                WAKEUP_TOKEN => {} // drained with the mailbox below
                token => reactor.conn_event(token as usize, ev),
            }
        }
        reactor.drain_completions();
        reactor.reap();
        let mut freed = std::mem::take(&mut reactor.freed_this_tick);
        reactor.free.append(&mut freed);
        reactor
            .shared
            .metrics
            .work_us
            .record(micros(work_started.elapsed()));
        reactor.shared.metrics.ticks.inc();
    }
}

/// Saturating `Duration` → whole microseconds for histogram recording.
fn micros(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

impl Reactor {
    fn live_connections(&self) -> usize {
        self.conns.iter().flatten().count()
    }

    /// Idempotent: stop accepting and close every connection that is
    /// neither parked on a solve nor mid-flush. Called on every tick
    /// once the shutdown flag is up, so connections finishing their
    /// in-flight work are torn down promptly.
    fn begin_shutdown(&mut self) {
        if self.accepting {
            self.poller.remove(self.listener.as_raw_fd());
            self.accepting = false;
        }
        let idle: Vec<usize> = self
            .conns
            .iter()
            .enumerate()
            .filter_map(|(token, slot)| slot.as_ref().map(|conn| (token, conn)))
            .filter(|(_, conn)| conn.waiting.is_none() && !conn.out_pending())
            .map(|(token, _)| token)
            .collect();
        for token in idle {
            self.close_conn(token, false);
        }
    }

    /// The nearest idle deadline among deadline-bearing connections
    /// (parked connections with nothing to write are exempt), or `None`
    /// to wait indefinitely for readiness or a wakeup.
    fn next_timeout(&self) -> Option<Duration> {
        let now = Instant::now();
        self.conns
            .iter()
            .flatten()
            .filter(|conn| conn.waiting.is_none() || conn.out_pending())
            .map(|conn| conn.deadline.saturating_duration_since(now))
            .min()
    }

    fn accept_burst(&mut self) {
        loop {
            if !self.accepting {
                return;
            }
            match self.listener.accept() {
                Ok((stream, _)) => {
                    let active = self.shared.conn_active.load(Ordering::Relaxed);
                    if active >= self.shared.cfg.max_connections as u64 {
                        self.shed(&stream);
                    } else {
                        self.admit(stream);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                // Transient accept failure (e.g. the peer already reset);
                // the listener stays registered, so just yield this burst.
                Err(_) => return,
            }
        }
    }

    /// Over budget: answer a fast, clean 503 and close. The accepted
    /// socket is still blocking (accept does not inherit `O_NONBLOCK`),
    /// but a ~150-byte write into a fresh send buffer cannot block.
    fn shed(&mut self, mut stream: &TcpStream) {
        let body = wire::error_body("connection budget exhausted, retry later");
        let bytes = http::render_response(503, &[], body.as_bytes(), false);
        let _ = stream.set_nodelay(true);
        let _ = stream.write_all(&bytes);
        self.shared.conn_shed.fetch_add(1, Ordering::Relaxed);
    }

    fn admit(&mut self, stream: TcpStream) {
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        // Without NODELAY the final partial segment of a response sits
        // in Nagle's queue waiting for the client's delayed ACK
        // (~40 ms), which would swamp the microsecond-scale cache-hit
        // path entirely.
        let _ = stream.set_nodelay(true);
        if self.shared.cfg.send_buffer_bytes > 0 {
            let _ = sys::set_send_buffer(stream.as_raw_fd(), self.shared.cfg.send_buffer_bytes);
        }
        self.next_generation += 1;
        let conn = Conn {
            stream,
            generation: self.next_generation,
            parser: RequestParser::new(self.shared.cfg.max_body_bytes),
            out: Vec::new(),
            out_pos: 0,
            waiting: None,
            close_after_flush: false,
            read_closed: false,
            registered: None,
            deadline: Instant::now() + self.idle,
        };
        let token = match self.free.pop() {
            Some(token) => {
                self.conns[token] = Some(conn);
                token
            }
            None => {
                self.conns.push(Some(conn));
                self.conns.len() - 1
            }
        };
        self.shared.conn_active.fetch_add(1, Ordering::Relaxed);
        self.apply_interest(token, Some(Interest::READ));
    }

    fn close_conn(&mut self, token: usize, reaped: bool) {
        let Some(conn) = self.conns.get_mut(token).and_then(Option::take) else {
            return;
        };
        if conn.registered.is_some() {
            // Deregister before the fd closes so the poll backend's
            // table never holds a dead fd.
            self.poller.remove(conn.stream.as_raw_fd());
        }
        if conn.waiting.is_some() {
            // A parked connection died before its solve landed; keep
            // the waiting gauge honest.
            self.shared.metrics.connections_waiting.dec();
        }
        self.shared.conn_active.fetch_sub(1, Ordering::Relaxed);
        if reaped {
            self.shared.conn_reaped.fetch_add(1, Ordering::Relaxed);
        }
        self.freed_this_tick.push(token);
    }

    /// Reconciles a connection's poller registration with what it
    /// currently wants (`None` deregisters, e.g. while parked).
    fn apply_interest(&mut self, token: usize, want: Option<Interest>) {
        let Some(conn) = self.conns.get_mut(token).and_then(Option::as_mut) else {
            return;
        };
        let fd = conn.stream.as_raw_fd();
        match (conn.registered, want) {
            (Some(_), None) => {
                self.poller.remove(fd);
                conn.registered = None;
            }
            (None, Some(interest)) => {
                if self.poller.add(fd, token as u64, interest).is_ok() {
                    conn.registered = Some(interest);
                } else {
                    self.close_conn(token, false);
                }
            }
            (Some(current), Some(interest)) if current != interest => {
                if self.poller.modify(fd, token as u64, interest).is_ok() {
                    conn.registered = Some(interest);
                } else {
                    self.close_conn(token, false);
                }
            }
            _ => {}
        }
    }

    fn conn_event(&mut self, token: usize, ev: Event) {
        let Some(conn) = self.conns.get_mut(token).and_then(Option::as_mut) else {
            return; // stale: the slot was closed earlier in this batch
        };
        if conn.waiting.is_some() && !conn.out_pending() {
            // Parked with nothing to write: the only reportable thing is
            // a peer hangup. Deregister so the level-triggered condition
            // does not spin the loop; the completion path will attempt
            // the write and discover the socket's fate.
            if ev.closed {
                conn.read_closed = true;
                self.apply_interest(token, None);
            }
            return;
        }
        if ev.writable && !self.flush(token) {
            return;
        }
        if ev.readable || ev.closed {
            self.read_input(token);
        }
        self.settle(token);
    }

    /// Drains the socket into the parser, then processes any complete
    /// requests. Stops at `WouldBlock`, at EOF, or when the connection
    /// parks on a dispatched solve.
    fn read_input(&mut self, token: usize) {
        let mut scratch = [0u8; http::READ_CHUNK];
        loop {
            let Some(conn) = self.conns.get_mut(token).and_then(Option::as_mut) else {
                return;
            };
            if conn.waiting.is_some() || conn.close_after_flush || conn.read_closed {
                break;
            }
            match (&conn.stream).read(&mut scratch) {
                Ok(0) => {
                    // EOF (or half-close). Whatever complete requests
                    // are already buffered still get answered below;
                    // `settle` closes once the out-buffer drains.
                    conn.read_closed = true;
                    break;
                }
                Ok(n) => {
                    conn.parser.push(&scratch[..n]);
                    // Process as we go so a pipelined burst larger than
                    // one chunk dispatches its first solve promptly.
                    self.process_requests(token);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.close_conn(token, false);
                    return;
                }
            }
        }
        self.process_requests(token);
        self.flush(token);
    }

    /// Pulls complete requests out of the parser, strictly in order,
    /// routing each inline or parking the connection on a dispatch.
    fn process_requests(&mut self, token: usize) {
        loop {
            let shutting_down = self.shared.shutdown.load(Ordering::SeqCst);
            let idle = self.idle;
            let shared = Arc::clone(&self.shared);
            let Some(conn) = self.conns.get_mut(token).and_then(Option::as_mut) else {
                return;
            };
            if conn.waiting.is_some() || conn.close_after_flush {
                return;
            }
            let started = Instant::now();
            let next = conn.parser.next_request();
            if conn.parser.take_continue_pending() {
                // The interim 100 rides the same out-buffer, so it is
                // ordered before the final response even under
                // pipelining.
                conn.out.extend_from_slice(http::CONTINUE_INTERIM);
            }
            match next {
                Ok(None) => return,
                Ok(Some(request)) => {
                    let keep_alive = request.keep_alive && !shutting_down;
                    // Honor a well-formed client-supplied id (the router
                    // relies on this to correlate retries across
                    // backends); mint a fresh one otherwise.
                    let request_id = shared.request_ids.resolve(request.request_id.as_deref());
                    let reply_to = ReplyTo {
                        token,
                        generation: conn.generation,
                    };
                    match server::route(&request, &shared, reply_to) {
                        Ok(Routed::Ready(status, body, meta)) => {
                            queue_response(
                                conn,
                                idle,
                                &shared,
                                &mut self.request_histograms,
                                status,
                                &body,
                                keep_alive,
                                started,
                                &meta,
                                &request_id,
                            );
                            if !keep_alive {
                                conn.close_after_flush = true;
                            }
                        }
                        Ok(Routed::Dispatched(meta)) => {
                            shared.metrics.connections_waiting.inc();
                            conn.waiting = Some(Waiting {
                                keep_alive,
                                started,
                                meta,
                                request_id,
                            });
                        }
                        Err(e) => {
                            // Routing errors (400/404/405/503) keep the
                            // connection alive if the client asked for
                            // keep-alive, as the router's do.
                            let body = wire::error_body(&e.message);
                            let meta = server::error_meta(&request.path);
                            queue_response(
                                conn,
                                idle,
                                &shared,
                                &mut self.request_histograms,
                                e.status,
                                &body,
                                keep_alive,
                                started,
                                &meta,
                                &request_id,
                            );
                            if !keep_alive {
                                conn.close_after_flush = true;
                            }
                        }
                    }
                }
                Err(e) => {
                    // Transport-level parse error: answer without the
                    // per-request headers and close, the same bytes the
                    // router sends for the same input.
                    let body = wire::error_body(&e.message);
                    let bytes = http::render_response(e.status, &[], body.as_bytes(), false);
                    conn.out.extend_from_slice(&bytes);
                    conn.deadline = Instant::now() + idle;
                    conn.close_after_flush = true;
                    return;
                }
            }
        }
    }

    /// Writes as much of the out-buffer as the socket will take.
    /// Returns `false` if the connection was closed by a write failure.
    fn flush(&mut self, token: usize) -> bool {
        loop {
            let idle = self.idle;
            let Some(conn) = self.conns.get_mut(token).and_then(Option::as_mut) else {
                return false;
            };
            if !conn.out_pending() {
                conn.out.clear();
                conn.out_pos = 0;
                return true;
            }
            match (&conn.stream).write(&conn.out[conn.out_pos..]) {
                Ok(0) => {
                    self.close_conn(token, false);
                    return false;
                }
                Ok(n) => {
                    conn.out_pos += n;
                    // Write progress is liveness: a slow-but-draining
                    // client earns deadline extensions; a stalled one
                    // does not.
                    conn.deadline = Instant::now() + idle;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return true,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.close_conn(token, false);
                    return false;
                }
            }
        }
    }

    /// Post-progress bookkeeping: close if finished, otherwise
    /// reconcile poller interest with the connection's state.
    fn settle(&mut self, token: usize) {
        let Some(conn) = self.conns.get_mut(token).and_then(Option::as_mut) else {
            return;
        };
        let out_pending = conn.out_pending();
        if !out_pending && conn.waiting.is_none() && (conn.close_after_flush || conn.read_closed) {
            self.close_conn(token, false);
            return;
        }
        let want = if out_pending {
            Some(Interest::WRITE)
        } else if conn.waiting.is_some() || conn.read_closed {
            None
        } else {
            Some(Interest::READ)
        };
        self.apply_interest(token, want);
    }

    /// Delivers finished solves to their parked connections, dropping
    /// stale ones (slot closed or reused since dispatch).
    fn drain_completions(&mut self) {
        let idle = self.idle;
        for completion in self.shared.mailbox.drain() {
            let Some(conn) = self
                .conns
                .get_mut(completion.token)
                .and_then(Option::as_mut)
            else {
                continue;
            };
            if conn.generation != completion.generation {
                continue;
            }
            let Some(waiting) = conn.waiting.take() else {
                continue;
            };
            self.shared.metrics.connections_waiting.dec();
            queue_response(
                conn,
                idle,
                &self.shared,
                &mut self.request_histograms,
                completion.status,
                &completion.body,
                waiting.keep_alive,
                waiting.started,
                &waiting.meta,
                &waiting.request_id,
            );
            if !waiting.keep_alive {
                conn.close_after_flush = true;
            }
            // Un-park: resume any pipelined requests that queued behind
            // this solve, then push bytes.
            self.process_requests(completion.token);
            self.flush(completion.token);
            self.settle(completion.token);
        }
    }

    /// Closes connections past their idle deadline. Parked connections
    /// with nothing to write are exempt (their liveness is the worker's
    /// problem); a mid-request trickler gets a best-effort 408 so the
    /// slowloris sees *why* it died.
    fn reap(&mut self) {
        let now = Instant::now();
        let expired: Vec<usize> = self
            .conns
            .iter()
            .enumerate()
            .filter_map(|(token, slot)| slot.as_ref().map(|conn| (token, conn)))
            .filter(|(_, conn)| conn.waiting.is_none() || conn.out_pending())
            .filter(|(_, conn)| now >= conn.deadline)
            .map(|(token, _)| token)
            .collect();
        for token in expired {
            let Some(conn) = self.conns.get_mut(token).and_then(Option::as_mut) else {
                continue;
            };
            if !conn.parser.is_between_requests() && !conn.out_pending() {
                let body = wire::error_body("timed out waiting for a complete request");
                let bytes = http::render_response(408, &[], body.as_bytes(), false);
                let _ = (&conn.stream).write(&bytes);
            }
            self.close_conn(token, true);
        }
    }
}

/// Renders and queues one framed response, starting a fresh idle cycle.
/// Also the single observability funnel for routed requests: records
/// the latency histogram cell, echoes the request id, and emits the
/// access-log line. Transport errors (parse 4xx, shed 503, reap 408)
/// deliberately bypass this — their wire format predates tracing and
/// stays byte-identical.
#[allow(clippy::too_many_arguments)]
fn queue_response(
    conn: &mut Conn,
    idle: Duration,
    shared: &Shared,
    histograms: &mut HashMap<[&'static str; 3], Arc<Histogram>>,
    status: u16,
    body: &str,
    keep_alive: bool,
    started: Instant,
    meta: &ResponseMeta,
    request_id: &str,
) {
    let elapsed = micros(started.elapsed());
    let bytes = meta.render(status, body, keep_alive, request_id, elapsed);
    conn.out.extend_from_slice(&bytes);
    conn.deadline = Instant::now() + idle;
    let metrics = &shared.metrics;
    histograms
        .entry([meta.route, meta.family, meta.outcome])
        .or_insert_with(|| metrics.request_duration(meta.route, meta.family, meta.outcome))
        .record(elapsed);
    if let Some(log) = &shared.access_log {
        log.write(&meta.access_line(request_id, status, elapsed));
    }
}
