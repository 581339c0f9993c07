//! A minimal HTTP/1.1 layer — request parsing and response rendering,
//! nothing more.
//!
//! Scope is deliberately small: the server speaks exactly the subset of
//! HTTP/1.1 its endpoints need — request line + headers + fixed-length
//! bodies, keep-alive by default, `Expect: 100-continue` honored (curl
//! sends it for larger POST bodies), chunked transfer encoding refused.
//!
//! Both tiers read requests with one front half, the incremental
//! [`RequestParser`]: bytes go in via [`RequestParser::push`] in
//! whatever fragments the socket delivers (a slowloris byte at a time,
//! or five pipelined requests in one segment), and complete requests
//! come out of [`RequestParser::next_request`] in order. The backend's
//! reactor feeds it from non-blocking reads; the router's
//! thread-per-connection edge feeds it from blocking ones. Either way
//! the same wire bytes give the same [`Request`] values, the same
//! [`HttpError`]s and, through [`render_response`], the same answer
//! bytes.

/// Cap on the request head (request line + headers) in bytes.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;

/// Bytes each tier reads from a socket at a time before pushing them
/// into its [`RequestParser`].
pub const READ_CHUNK: usize = 16 * 1024;

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

/// Parsed request-line + header fields.
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

/// Finishes a parsed head + body into a [`Request`] (query string
/// stripped; endpoints don't take parameters there).
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

/// The interim response sent when a client asked `Expect: 100-continue`.
pub const CONTINUE_INTERIM: &[u8] = b"HTTP/1.1 100 Continue\r\n\r\n";

/// Incremental HTTP/1.1 request parser — the per-connection state
/// machine of both tiers.
///
/// Feed raw socket bytes with [`RequestParser::push`] in whatever
/// fragments arrive; pull complete requests with
/// [`RequestParser::next_request`]. Unconsumed bytes (the tail of a
/// pipelined burst, or a half-received head) stay buffered between
/// calls, so the reactor can park the connection mid-request and resume
/// exactly where the wire left off.
///
/// Limits: [`MAX_HEAD_BYTES`] on the request head, the constructor's
/// `max_body` on declared bodies.
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
    /// Returns an [`HttpError`] for malformed, oversized, or
    /// unsupported input; the connection answers with the embedded
    /// status and closes, so the parser makes no attempt to
    /// resynchronize afterwards.
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
/// line. Accepts both `\r\n\r\n` and bare `\n\n` framing.
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

/// Renders a full response with a JSON body (head + body) to bytes
/// without touching a socket — the form the evented core queues into a
/// connection's write buffer, where partial writes are resumed as the
/// peer drains.
///
/// Emitted headers are fixed and deterministic (`content-type`,
/// `content-length`, `connection`) plus the caller's `extra` pairs —
/// timing lives in an `x-snc-elapsed-us` extra so response *bodies* stay
/// byte-identical for identical requests.
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

    /// Drives raw wire bytes through a fresh parser in one push.
    fn parse_one(raw: &[u8]) -> Result<Option<Request>, HttpError> {
        let mut parser = RequestParser::new(1024);
        parser.push(raw);
        parser.next_request()
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
        // Bare `\n` framing parses to the same request as `\r\n`.
        let bare = parse_one(b"GET /healthz HTTP/1.1\nHost: bare-newlines\n\n")
            .unwrap()
            .unwrap();
        assert_eq!(bare, req);
    }

    #[test]
    fn connection_close_and_http10_disable_keep_alive() {
        let req = parse_one(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n")
            .unwrap()
            .unwrap();
        assert!(!req.keep_alive);
        let req = parse_one(b"GET / HTTP/1.0\r\n\r\n").unwrap().unwrap();
        assert!(!req.keep_alive);
        let req = parse_one(b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n")
            .unwrap()
            .unwrap();
        assert!(req.keep_alive, "HTTP/1.0 may opt in to keep-alive");
    }

    #[test]
    fn clean_close_yields_none() {
        // An EOF is clean only between requests: before any byte, or
        // right after a complete request.
        let mut parser = RequestParser::new(1024);
        assert!(parser.is_between_requests());
        assert_eq!(parser.next_request().unwrap(), None);
        assert!(parser.is_between_requests());
        parser.push(b"GET / HTTP/1.1\r\n\r\n");
        assert!(parser.next_request().unwrap().is_some());
        assert!(parser.is_between_requests());
        // Mid-head or mid-line, an EOF truncates a request.
        parser.push(b"GET / HTTP/1.1\r\nHo");
        assert_eq!(parser.next_request().unwrap(), None);
        assert!(!parser.is_between_requests());
    }

    #[test]
    fn rejects_malformed_and_oversized() {
        assert_eq!(parse_one(b"BOGUS\r\n\r\n").unwrap_err().status, 400);
        assert_eq!(parse_one(b"\r\n\r\n").unwrap_err().status, 400);
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
        // A body shorter than its content-length is not a request yet:
        // the parser waits, and an EOF here closes without an answer.
        let mut parser = RequestParser::new(1024);
        parser.push(b"POST / HTTP/1.1\r\nContent-Length: 8\r\n\r\nabc");
        assert_eq!(
            parser.next_request().unwrap(),
            None,
            "body shorter than content-length"
        );
        assert!(!parser.is_between_requests());
    }

    #[test]
    fn oversized_head_is_cut_off_even_without_newlines() {
        // A newline-free flood must be rejected as soon as it passes
        // MAX_HEAD_BYTES, not buffered until the peer closes.
        let mut parser = RequestParser::new(1024);
        let mut pushed = 0;
        let err = loop {
            parser.push(&[b'A'; 1024]);
            pushed += 1024;
            match parser.next_request() {
                Ok(None) => assert!(pushed <= MAX_HEAD_BYTES, "flood buffered past the cap"),
                Ok(Some(req)) => panic!("flood parsed as {req:?}"),
                Err(e) => break e,
            }
        };
        assert_eq!(err.status, 413);
        assert_eq!(
            pushed,
            MAX_HEAD_BYTES + 1024,
            "cut off at the first push past the cap"
        );
        // An oversized header *line* (with newlines elsewhere) is also
        // capped.
        let mut big = b"GET / HTTP/1.1\r\nX-Big: ".to_vec();
        big.extend(std::iter::repeat_n(b'x', MAX_HEAD_BYTES));
        big.extend(b"\r\n\r\n");
        assert_eq!(parse_one(&big).unwrap_err().status, 413);
    }

    #[test]
    fn expect_continue_gets_the_interim_response() {
        // Head and body in one segment: the request completes at once
        // and the interim response is still owed, ahead of the answer.
        let mut parser = RequestParser::new(1024);
        parser.push(b"POST /solve HTTP/1.1\r\nContent-Length: 2\r\nExpect: 100-continue\r\n\r\nhi");
        let req = parser.next_request().unwrap().unwrap();
        assert_eq!(req.body, b"hi");
        assert!(parser.take_continue_pending());
        assert!(CONTINUE_INTERIM.starts_with(b"HTTP/1.1 100"));
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
    fn render_response_frames_head_and_body() {
        for keep_alive in [true, false] {
            let rendered = render_response(
                200,
                &[("x-snc-elapsed-us", "12".to_string())],
                b"{\"ok\":true}",
                keep_alive,
            );
            let text = String::from_utf8(rendered).unwrap();
            assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
            assert!(text.contains("content-type: application/json\r\n"));
            assert!(text.contains("content-length: 11\r\n"));
            let connection = if keep_alive { "keep-alive" } else { "close" };
            assert!(text.contains(&format!("connection: {connection}\r\n")));
            assert!(text.contains("x-snc-elapsed-us: 12\r\n"));
            assert!(text.ends_with("\r\n\r\n{\"ok\":true}"));
        }
    }
}
