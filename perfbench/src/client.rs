//! A minimal blocking HTTP/1.1 client: one request at a time on one
//! connection, responses framed by `Content-Length` (both services
//! always send it).

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// How long a read may stall before the request counts as failed.
const READ_TIMEOUT: Duration = Duration::from_secs(60);
/// Largest response head accepted.
const MAX_HEAD: usize = 16 * 1024;

/// One response, as the client saw it.
pub struct Response {
    pub status: u16,
    /// The answering process's `x-snc-elapsed-us` header.
    pub elapsed_us: Option<u64>,
    pub body: Vec<u8>,
}

/// A client connection with its read buffer.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(READ_TIMEOUT))?;
        Ok(Conn {
            stream,
            buf: Vec::with_capacity(64 * 1024),
        })
    }

    /// Sends one request and reads its whole response.
    pub fn call(&mut self, request: &[u8]) -> io::Result<Response> {
        self.stream.write_all(request)?;
        let mut chunk = [0u8; 64 * 1024];
        loop {
            if let Some(head_end) = find(&self.buf, b"\r\n\r\n") {
                let (status, length, elapsed_us) = parse_head(&self.buf[..head_end])?;
                let total = head_end + 4 + length;
                while self.buf.len() < total {
                    self.fill(&mut chunk)?;
                }
                let body = self.buf[head_end + 4..total].to_vec();
                self.buf.drain(..total);
                return Ok(Response {
                    status,
                    elapsed_us,
                    body,
                });
            }
            if self.buf.len() > MAX_HEAD {
                return Err(invalid("response head too large"));
            }
            self.fill(&mut chunk)?;
        }
    }

    fn fill(&mut self, chunk: &mut [u8]) -> io::Result<()> {
        let read = self.stream.read(chunk)?;
        if read == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed mid-response",
            ));
        }
        self.buf.extend_from_slice(&chunk[..read]);
        Ok(())
    }
}

/// Request bytes for `POST path` with a JSON body.
pub fn post(path: &str, body: &str, close: bool) -> Vec<u8> {
    let connection = if close { "Connection: close\r\n" } else { "" };
    format!(
        "POST {path} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\n{connection}Content-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// Request bytes for `GET path`.
pub fn get(path: &str) -> Vec<u8> {
    format!("GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n").into_bytes()
}

/// One request on a fresh connection; the body must be a 200.
pub fn fetch_ok(addr: SocketAddr, request: &[u8]) -> Result<Vec<u8>, String> {
    let response = Conn::connect(addr)
        .and_then(|mut conn| conn.call(request))
        .map_err(|e| format!("request to {addr}: {e}"))?;
    if response.status != 200 {
        return Err(format!(
            "request to {addr} answered {}: {}",
            response.status,
            String::from_utf8_lossy(&response.body)
        ));
    }
    Ok(response.body)
}

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

fn invalid(message: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message.to_string())
}

/// `(status, content length, x-snc-elapsed-us)` from a response head.
fn parse_head(head: &[u8]) -> io::Result<(u16, usize, Option<u64>)> {
    let text = std::str::from_utf8(head).map_err(|_| invalid("response head is not UTF-8"))?;
    let mut lines = text.split("\r\n");
    let status = lines
        .next()
        .and_then(|line| line.strip_prefix("HTTP/1.1 "))
        .and_then(|rest| rest.get(..3))
        .and_then(|code| code.parse().ok())
        .ok_or_else(|| invalid("bad status line"))?;
    let mut length = None;
    let mut elapsed_us = None;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            return Err(invalid("header line without ':'"));
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            length = Some(value.parse().map_err(|_| invalid("bad Content-Length"))?);
        } else if name.eq_ignore_ascii_case("x-snc-elapsed-us") {
            elapsed_us = value.parse().ok();
        }
    }
    let length = length.ok_or_else(|| invalid("response without Content-Length"))?;
    Ok((status, length, elapsed_us))
}
