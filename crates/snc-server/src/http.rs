//! A minimal HTTP/1.1 layer — request parsing and response writing,
//! nothing more.
//!
//! Scope is deliberately small: the server speaks exactly the subset of
//! HTTP/1.1 its endpoints need — request line + headers + fixed-length
//! bodies, keep-alive by default, `Expect: 100-continue` honored (curl
//! sends it for larger POST bodies), chunked transfer encoding refused.
//!
//! Two front halves share one grammar:
//!
//! * [`RequestParser`] — the **incremental** per-connection state
//!   machine the evented core feeds from non-blocking reads: bytes go
//!   in via [`RequestParser::push`] in whatever fragments the socket
//!   delivers (a slowloris byte at a time, or five pipelined requests
//!   in one segment), complete requests come out of
//!   [`RequestParser::next_request`] in order.
//! * [`read_request`] — the original blocking form over
//!   `BufReader<TcpStream>`, still used by the router's
//!   thread-per-connection edge (reads block; the router ends a parked
//!   read at shutdown by half-closing the socket).
//!
//! Both produce identical [`Request`] values and identical
//! [`HttpError`]s for malformed input — pinned by tests that drive the
//! same wire bytes through each.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;

/// Cap on the request head (request line + headers) in bytes.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;

/// An HTTP-level error: the status to answer with and a message for the
/// JSON error body.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HttpError {
    /// Response status code (4xx/5xx).
    pub status: u16,
    /// Human-readable description, returned in the error body.
    pub message: String,
}

impl HttpError {
    /// Creates an error with a status code and message.
    pub fn new(status: u16, message: impl Into<String>) -> Self {
        Self {
            status,
            message: message.into(),
        }
    }
}

/// A parsed request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Request {
    /// Uppercase method (`GET`, `POST`, …).
    pub method: String,
    /// Path component of the target (query string stripped).
    pub path: String,
    /// Request body (empty when no `Content-Length` was sent).
    pub body: Vec<u8>,
    /// Whether the connection should stay open after the response.
    pub keep_alive: bool,
    /// Raw `x-snc-request-id` header value, if the client sent one
    /// (validated at the point of use, not at parse time — an invalid
    /// id gets a freshly minted replacement, never a 400).
    pub request_id: Option<String>,
}

/// The standard reason phrase for the status codes this server emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Parsed request-line + header fields, shared by the blocking and
/// incremental parsers so both speak exactly one grammar.
#[derive(Clone, Debug, Default)]
struct Head {
    method: String,
    target: String,
    keep_alive: bool,
    content_length: usize,
    expect_continue: bool,
    request_id: Option<String>,
}

/// Parses the request line into a fresh [`Head`] (keep-alive defaulted
/// per HTTP version; headers may override).
fn parse_request_line(line: &str) -> Result<Head, HttpError> {
    let mut parts = line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| HttpError::new(400, "empty request line"))?
        .to_ascii_uppercase();
    let target = parts
        .next()
        .ok_or_else(|| HttpError::new(400, "missing request target"))?
        .to_string();
    let version = parts
        .next()
        .ok_or_else(|| HttpError::new(400, "missing HTTP version"))?;
    if !matches!(version, "HTTP/1.1" | "HTTP/1.0") {
        return Err(HttpError::new(
            400,
            format!("unsupported version {version}"),
        ));
    }
    Ok(Head {
        method,
        target,
        keep_alive: version == "HTTP/1.1",
        ..Head::default()
    })
}

/// Folds one header line into `head`.
fn apply_header_line(line: &str, head: &mut Head) -> Result<(), HttpError> {
    let (name, value) = line
        .split_once(':')
        .ok_or_else(|| HttpError::new(400, "malformed header"))?;
    let name = name.trim().to_ascii_lowercase();
    let value = value.trim();
    match name.as_str() {
        "content-length" => {
            head.content_length = value
                .parse()
                .map_err(|_| HttpError::new(400, "invalid content-length"))?;
        }
        "connection" => {
            let v = value.to_ascii_lowercase();
            if v.contains("close") {
                head.keep_alive = false;
            } else if v.contains("keep-alive") {
                head.keep_alive = true;
            }
        }
        "expect" if value.eq_ignore_ascii_case("100-continue") => {
            head.expect_continue = true;
        }
        "x-snc-request-id" => {
            head.request_id = Some(value.to_string());
        }
        "transfer-encoding" => {
            return Err(HttpError::new(
                501,
                "chunked transfer encoding not supported",
            ));
        }
        _ => {}
    }
    Ok(())
}

/// Finishes a parsed head + body into the [`Request`] both parsers
/// return (query string stripped; endpoints don't take parameters
/// there).
fn assemble(head: Head, body: Vec<u8>) -> Request {
    let path = head
        .target
        .split('?')
        .next()
        .unwrap_or(&head.target)
        .to_string();
    Request {
        method: head.method,
        path,
        body,
        keep_alive: head.keep_alive,
        request_id: head.request_id,
    }
}

/// Reads one `\n`-terminated line. `Ok(None)` means the peer closed
/// before any byte of the line, or the read failed.
fn read_line(
    reader: &mut BufReader<TcpStream>,
    budget: &mut usize,
) -> Result<Option<Vec<u8>>, HttpError> {
    let mut line = Vec::new();
    loop {
        // Never buffer past the head budget, even mid-line: read through
        // a `Take` of `budget + 1` bytes so a peer streaming
        // newline-free data is cut off at the cap instead of growing the
        // buffer unboundedly (`read_until` alone would keep appending
        // until a newline or EOF).
        if line.len() > *budget {
            return Err(HttpError::new(413, "request head too large"));
        }
        let remaining = (*budget + 1 - line.len()) as u64;
        match reader.by_ref().take(remaining).read_until(b'\n', &mut line) {
            // `remaining ≥ 1` here, so Ok(0) is a genuine EOF.
            Ok(0) => {
                return if line.is_empty() {
                    Ok(None)
                } else {
                    Err(HttpError::new(400, "truncated request"))
                };
            }
            Ok(_) if line.ends_with(b"\n") => {
                *budget = budget
                    .checked_sub(line.len())
                    .ok_or_else(|| HttpError::new(413, "request head too large"))?;
                while line.last().is_some_and(|&b| b == b'\n' || b == b'\r') {
                    line.pop();
                }
                return Ok(Some(line));
            }
            // No newline: either the Take limit was hit (next iteration
            // rejects with 413) or EOF landed mid-line (next iteration
            // reads Ok(0) and rejects as truncated).
            Ok(_) => {}
            Err(_) => return Ok(None),
        }
    }
}

/// Reads exactly `len` body bytes.
fn read_body(reader: &mut BufReader<TcpStream>, len: usize) -> Result<Vec<u8>, HttpError> {
    let mut buf = vec![0u8; len];
    let mut filled = 0;
    while filled < len {
        match reader.read(&mut buf[filled..]) {
            Ok(0) => return Err(HttpError::new(400, "unexpected end of body")),
            Ok(n) => filled += n,
            Err(_) => return Err(HttpError::new(400, "connection error during body read")),
        }
    }
    Ok(buf)
}

/// Reads and parses one request off the connection.
///
/// Returns `Ok(None)` for a cleanly closed or shut-down connection
/// (nothing to answer). `writer` is used only to send the interim
/// `100 Continue` when the client asked for it.
///
/// # Errors
///
/// Returns [`HttpError`] for malformed, oversized, or unsupported
/// requests; the caller answers with the embedded status and closes.
pub fn read_request(
    reader: &mut BufReader<TcpStream>,
    writer: &mut TcpStream,
    max_body: usize,
) -> Result<Option<Request>, HttpError> {
    let mut head_budget = MAX_HEAD_BYTES;
    let request_line = match read_line(reader, &mut head_budget)? {
        Some(line) => line,
        None => return Ok(None),
    };
    let request_line = String::from_utf8(request_line)
        .map_err(|_| HttpError::new(400, "request line is not UTF-8"))?;
    let mut head = parse_request_line(&request_line)?;
    loop {
        let line = match read_line(reader, &mut head_budget)? {
            Some(line) => line,
            None => return Ok(None),
        };
        if line.is_empty() {
            break;
        }
        let line =
            String::from_utf8(line).map_err(|_| HttpError::new(400, "header is not UTF-8"))?;
        apply_header_line(&line, &mut head)?;
    }
    if head.content_length > max_body {
        return Err(HttpError::new(
            413,
            format!(
                "body of {} bytes exceeds the {max_body}-byte limit",
                head.content_length
            ),
        ));
    }
    let body = if head.content_length > 0 {
        if head.expect_continue {
            let _ = writer.write_all(CONTINUE_INTERIM);
            let _ = writer.flush();
        }
        read_body(reader, head.content_length)?
    } else {
        Vec::new()
    };
    Ok(Some(assemble(head, body)))
}

/// The interim response sent when a client asked `Expect: 100-continue`.
pub const CONTINUE_INTERIM: &[u8] = b"HTTP/1.1 100 Continue\r\n\r\n";

/// Incremental HTTP/1.1 request parser — the per-connection state
/// machine of the evented core.
///
/// Feed raw socket bytes with [`RequestParser::push`] in whatever
/// fragments arrive; pull complete requests with
/// [`RequestParser::next_request`]. Unconsumed bytes (the tail of a
/// pipelined burst, or a half-received head) stay buffered between
/// calls, so the reactor can park the connection mid-request and resume
/// exactly where the wire left off.
///
/// The grammar and error surface are identical to [`read_request`]
/// (shared helpers), with the same limits: [`MAX_HEAD_BYTES`] on the
/// request head, the constructor's `max_body` on declared bodies.
#[derive(Debug)]
pub struct RequestParser {
    buf: Vec<u8>,
    state: ParseState,
    max_body: usize,
    /// Set when a parsed head carried `Expect: 100-continue` and a
    /// body; the caller takes it once and queues the interim response.
    continue_pending: bool,
}

#[derive(Debug)]
enum ParseState {
    /// Accumulating request line + headers until the blank line.
    Head,
    /// Head parsed; waiting for `head.content_length` body bytes.
    Body(Head),
}

impl RequestParser {
    /// Creates a parser enforcing the given body-size cap.
    pub fn new(max_body: usize) -> RequestParser {
        RequestParser {
            buf: Vec::new(),
            state: ParseState::Head,
            max_body,
            continue_pending: false,
        }
    }

    /// Appends raw bytes from the socket.
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Whether the parser sits cleanly between requests (no buffered
    /// bytes, no half-parsed head or pending body): an EOF here is a
    /// clean close, anywhere else a truncated request.
    pub fn is_between_requests(&self) -> bool {
        self.buf.is_empty() && matches!(self.state, ParseState::Head)
    }

    /// Takes (and clears) the pending `100 Continue` obligation.
    pub fn take_continue_pending(&mut self) -> bool {
        std::mem::take(&mut self.continue_pending)
    }

    /// Tries to complete one request from the buffered bytes.
    ///
    /// `Ok(None)` means "need more input". After `Ok(Some(..))`, call
    /// again — a pipelined burst may hold further complete requests.
    ///
    /// # Errors
    ///
    /// Returns the same [`HttpError`]s as [`read_request`] for
    /// malformed, oversized, or unsupported input; the connection
    /// answers with the embedded status and closes, so the parser makes
    /// no attempt to resynchronize afterwards.
    pub fn next_request(&mut self) -> Result<Option<Request>, HttpError> {
        if let ParseState::Head = self.state {
            let Some(head_end) = find_head_end(&self.buf) else {
                // No terminator yet: enforce the head cap even mid-flood
                // (a peer streaming garbage without newlines must be cut
                // off, not buffered unboundedly).
                if self.buf.len() > MAX_HEAD_BYTES {
                    return Err(HttpError::new(413, "request head too large"));
                }
                return Ok(None);
            };
            if head_end > MAX_HEAD_BYTES {
                return Err(HttpError::new(413, "request head too large"));
            }
            let head = parse_head_block(&self.buf[..head_end])?;
            if head.content_length > self.max_body {
                return Err(HttpError::new(
                    413,
                    format!(
                        "body of {} bytes exceeds the {}-byte limit",
                        head.content_length, self.max_body
                    ),
                ));
            }
            self.continue_pending = head.expect_continue && head.content_length > 0;
            self.buf.drain(..head_end);
            self.state = ParseState::Body(head);
        }
        let ParseState::Body(head) = &self.state else {
            unreachable!("state advanced to Body above");
        };
        if self.buf.len() < head.content_length {
            return Ok(None);
        }
        let ParseState::Body(head) = std::mem::replace(&mut self.state, ParseState::Head) else {
            unreachable!("state checked to be Body above");
        };
        let body: Vec<u8> = self.buf.drain(..head.content_length).collect();
        Ok(Some(assemble(head, body)))
    }
}

/// Finds the end of the request head: the byte index one past the blank
/// line. Accepts both `\r\n\r\n` and bare `\n\n` framing (the blocking
/// parser tolerates both, one line at a time).
fn find_head_end(buf: &[u8]) -> Option<usize> {
    // A head that *starts* with a blank line is the degenerate "empty
    // request line" case; report it as a complete (tiny) head so the
    // line parser can reject it with the canonical 400.
    if buf.starts_with(b"\r\n") {
        return Some(2);
    }
    if buf.starts_with(b"\n") {
        return Some(1);
    }
    let nn = buf.windows(2).position(|w| w == b"\n\n").map(|i| i + 2);
    let nrn = buf.windows(3).position(|w| w == b"\n\r\n").map(|i| i + 3);
    match (nn, nrn) {
        // Both framings present: whichever blank line comes first on the
        // wire terminates the head.
        (Some(a), Some(b)) => Some(a.min(b)),
        (a, b) => a.or(b),
    }
}

/// Parses a complete head block (request line + header lines + blank
/// line) with the shared grammar.
fn parse_head_block(block: &[u8]) -> Result<Head, HttpError> {
    let mut lines = block.split(|&b| b == b'\n').map(|line| {
        // Trim the trailing `\r` the `\n` split leaves behind.
        line.strip_suffix(b"\r").unwrap_or(line)
    });
    let request_line = lines.next().unwrap_or(b"");
    let request_line = std::str::from_utf8(request_line)
        .map_err(|_| HttpError::new(400, "request line is not UTF-8"))?;
    let mut head = parse_request_line(request_line)?;
    for line in lines {
        if line.is_empty() {
            break;
        }
        let line =
            std::str::from_utf8(line).map_err(|_| HttpError::new(400, "header is not UTF-8"))?;
        apply_header_line(line, &mut head)?;
    }
    Ok(head)
}

/// Writes a response with a JSON body.
///
/// Emitted headers are fixed and deterministic (`content-type`,
/// `content-length`, `connection`) plus the caller's `extra` pairs —
/// timing lives in an `x-snc-elapsed-us` extra so response *bodies* stay
/// byte-identical for identical requests.
///
/// # Errors
///
/// Propagates socket write errors (the caller drops the connection).
pub fn write_response(
    stream: &mut TcpStream,
    status: u16,
    extra: &[(&str, String)],
    body: &[u8],
    keep_alive: bool,
) -> std::io::Result<()> {
    stream.write_all(&render_response(status, extra, body, keep_alive))?;
    stream.flush()
}

/// Renders a full response (head + body) to bytes without touching a
/// socket — the form the evented core queues into a connection's write
/// buffer, where partial writes are resumed as the peer drains. Framing
/// is identical to [`write_response`] (which delegates here), so the
/// evented and blocking cores are byte-identical on the wire.
pub fn render_response(
    status: u16,
    extra: &[(&str, String)],
    body: &[u8],
    keep_alive: bool,
) -> Vec<u8> {
    render_response_typed(status, "application/json", extra, body, keep_alive)
}

/// [`render_response`] with an explicit `content-type` — the `/metrics`
/// endpoint answers text exposition, everything else JSON.
pub fn render_response_typed(
    status: u16,
    content_type: &str,
    extra: &[(&str, String)],
    body: &[u8],
    keep_alive: bool,
) -> Vec<u8> {
    let mut head = format!("HTTP/1.1 {status} {}\r\n", reason(status));
    head.push_str(&format!("content-type: {content_type}\r\n"));
    head.push_str(&format!("content-length: {}\r\n", body.len()));
    head.push_str(if keep_alive {
        "connection: keep-alive\r\n"
    } else {
        "connection: close\r\n"
    });
    for (name, value) in extra {
        head.push_str(&format!("{name}: {value}\r\n"));
    }
    head.push_str("\r\n");
    let mut bytes = head.into_bytes();
    bytes.extend_from_slice(body);
    bytes
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};

    /// Loopback socket pair for driving the parser with real streams.
    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        (client, server)
    }

    fn parse_one(raw: &[u8]) -> Result<Option<Request>, HttpError> {
        let (mut client, server) = pair();
        client.write_all(raw).unwrap();
        client.shutdown(std::net::Shutdown::Write).unwrap();
        let mut writer = server.try_clone().unwrap();
        let mut reader = BufReader::new(server);
        read_request(&mut reader, &mut writer, 1024)
    }

    #[test]
    fn parses_a_post_with_body() {
        let req = parse_one(b"POST /solve HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nabcd")
            .unwrap()
            .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/solve");
        assert_eq!(req.body, b"abcd");
        assert!(req.keep_alive);
    }

    #[test]
    fn parses_get_and_strips_query() {
        let req = parse_one(b"GET /healthz?verbose=1 HTTP/1.1\r\n\r\n")
            .unwrap()
            .unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/healthz");
        assert!(req.body.is_empty());
    }

    #[test]
    fn connection_close_and_http10_disable_keep_alive() {
        let req = parse_one(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n")
            .unwrap()
            .unwrap();
        assert!(!req.keep_alive);
        let req = parse_one(b"GET / HTTP/1.0\r\n\r\n").unwrap().unwrap();
        assert!(!req.keep_alive);
    }

    #[test]
    fn clean_close_yields_none() {
        assert_eq!(parse_one(b"").unwrap(), None);
    }

    #[test]
    fn rejects_malformed_and_oversized() {
        assert_eq!(parse_one(b"BOGUS\r\n\r\n").unwrap_err().status, 400);
        assert_eq!(parse_one(b"GET / HTTP/2\r\n\r\n").unwrap_err().status, 400);
        assert_eq!(
            parse_one(b"POST / HTTP/1.1\r\nContent-Length: 9999\r\n\r\n")
                .unwrap_err()
                .status,
            413
        );
        assert_eq!(
            parse_one(b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n")
                .unwrap_err()
                .status,
            501
        );
        assert_eq!(
            parse_one(b"POST / HTTP/1.1\r\nContent-Length: 8\r\n\r\nabc")
                .unwrap_err()
                .status,
            400,
            "body shorter than content-length"
        );
    }

    #[test]
    fn oversized_head_is_cut_off_even_without_newlines() {
        // A newline-free flood must be rejected at MAX_HEAD_BYTES, not
        // buffered until the peer closes.
        let (mut client, server) = pair();
        let flood = vec![b'A'; MAX_HEAD_BYTES + 1024];
        std::thread::spawn(move || {
            let _ = client.write_all(&flood);
            // Keep the connection open: the server must reject without
            // waiting for EOF or a newline.
            std::thread::sleep(std::time::Duration::from_secs(5));
        });
        let mut writer = server.try_clone().unwrap();
        let mut reader = BufReader::new(server);
        let err = read_request(&mut reader, &mut writer, 1024).unwrap_err();
        assert_eq!(err.status, 413);
        // An oversized header *line* (with newlines elsewhere) is also
        // capped.
        let mut big = b"GET / HTTP/1.1\r\nX-Big: ".to_vec();
        big.extend(std::iter::repeat_n(b'x', MAX_HEAD_BYTES));
        big.extend(b"\r\n\r\n");
        assert_eq!(parse_one(&big).unwrap_err().status, 413);
    }

    #[test]
    fn expect_continue_gets_the_interim_response() {
        let (mut client, server) = pair();
        client
            .write_all(
                b"POST /solve HTTP/1.1\r\nContent-Length: 2\r\nExpect: 100-continue\r\n\r\nhi",
            )
            .unwrap();
        client.shutdown(std::net::Shutdown::Write).unwrap();
        let mut writer = server.try_clone().unwrap();
        let mut reader = BufReader::new(server);
        let req = read_request(&mut reader, &mut writer, 1024)
            .unwrap()
            .unwrap();
        assert_eq!(req.body, b"hi");
        let mut interim = String::new();
        std::io::BufReader::new(client)
            .read_line(&mut interim)
            .unwrap();
        assert!(interim.starts_with("HTTP/1.1 100"), "got {interim:?}");
    }

    /// Drives raw wire bytes through the incremental parser in one push.
    fn parse_incremental(raw: &[u8], max_body: usize) -> Result<Option<Request>, HttpError> {
        let mut parser = RequestParser::new(max_body);
        parser.push(raw);
        parser.next_request()
    }

    #[test]
    fn incremental_parser_matches_blocking_parser_byte_for_byte() {
        // The conformance axiom: identical wire bytes → identical
        // Request values and identical errors across the two front
        // halves.
        let cases: &[&[u8]] = &[
            b"POST /solve HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nabcd",
            b"GET /healthz?verbose=1 HTTP/1.1\r\n\r\n",
            b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n",
            b"GET / HTTP/1.0\r\n\r\n",
            b"BOGUS\r\n\r\n",
            b"GET / HTTP/2\r\n\r\n",
            b"POST / HTTP/1.1\r\nContent-Length: 9999\r\n\r\n",
            b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
            b"GET / HTTP/1.1\nHost: bare-newlines\n\n",
        ];
        for raw in cases {
            let blocking = parse_one(raw);
            let incremental = parse_incremental(raw, 1024);
            match (&blocking, &incremental) {
                (Ok(Some(a)), Ok(Some(b))) => assert_eq!(a, b, "{raw:?}"),
                (Err(a), Err(b)) => assert_eq!(a.status, b.status, "{raw:?}"),
                other => panic!("parsers diverged on {raw:?}: {other:?}"),
            }
        }
    }

    #[test]
    fn incremental_parser_survives_single_byte_trickle() {
        // Slowloris shape: the request arrives one byte at a time; the
        // parser must hold state across pushes and produce exactly the
        // same request at the end.
        let raw = b"POST /solve HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello";
        let mut parser = RequestParser::new(64);
        for (i, byte) in raw.iter().enumerate() {
            assert!(
                parser
                    .next_request()
                    .expect("no error mid-trickle")
                    .is_none(),
                "complete request before byte {i}"
            );
            parser.push(&[*byte]);
        }
        let req = parser.next_request().unwrap().unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.body, b"hello");
        assert!(parser.is_between_requests());
    }

    #[test]
    fn incremental_parser_drains_a_pipelined_burst_in_order() {
        let mut parser = RequestParser::new(64);
        parser.push(
            b"GET /a HTTP/1.1\r\n\r\nPOST /b HTTP/1.1\r\nContent-Length: 2\r\n\r\nhiGET /c HTTP/1.1\r\n\r\n",
        );
        let a = parser.next_request().unwrap().unwrap();
        let b = parser.next_request().unwrap().unwrap();
        let c = parser.next_request().unwrap().unwrap();
        assert_eq!(
            (a.path.as_str(), b.path.as_str(), c.path.as_str()),
            ("/a", "/b", "/c")
        );
        assert_eq!(b.body, b"hi");
        assert!(parser.next_request().unwrap().is_none());
        assert!(parser.is_between_requests());
    }

    #[test]
    fn incremental_parser_caps_a_newline_free_flood() {
        let mut parser = RequestParser::new(1024);
        parser.push(&vec![b'A'; MAX_HEAD_BYTES + 1]);
        assert_eq!(parser.next_request().unwrap_err().status, 413);
    }

    #[test]
    fn incremental_parser_flags_expect_continue() {
        let mut parser = RequestParser::new(64);
        parser.push(b"POST /solve HTTP/1.1\r\nContent-Length: 2\r\nExpect: 100-continue\r\n\r\n");
        assert!(
            parser.next_request().unwrap().is_none(),
            "body still pending"
        );
        assert!(parser.take_continue_pending(), "continue obligation raised");
        assert!(!parser.take_continue_pending(), "taken exactly once");
        parser.push(b"hi");
        let req = parser.next_request().unwrap().unwrap();
        assert_eq!(req.body, b"hi");
    }

    #[test]
    fn render_response_matches_write_response_framing() {
        let rendered = render_response(
            200,
            &[("x-snc-elapsed-us", "12".to_string())],
            b"{\"ok\":true}",
            true,
        );
        let text = String::from_utf8(rendered).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("connection: keep-alive\r\n"));
        assert!(text.contains("x-snc-elapsed-us: 12\r\n"));
        assert!(text.ends_with("\r\n\r\n{\"ok\":true}"));
    }

    #[test]
    fn response_writing_roundtrip() {
        let (client, mut server) = pair();
        write_response(
            &mut server,
            200,
            &[("x-snc-elapsed-us", "12".to_string())],
            b"{\"ok\":true}",
            false,
        )
        .unwrap();
        drop(server);
        let mut text = String::new();
        BufReader::new(client).read_to_string(&mut text).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("content-length: 11\r\n"));
        assert!(text.contains("connection: close\r\n"));
        assert!(text.contains("x-snc-elapsed-us: 12\r\n"));
        assert!(text.ends_with("\r\n\r\n{\"ok\":true}"));
    }
}
