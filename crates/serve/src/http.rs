//! Minimal HTTP/1.1 on `std::net`: an incremental request parser for the
//! event-driven server, response serialization, and a small blocking
//! client for tests and load generation.
//!
//! The workspace is offline and dependency-free, so this implements just
//! the subset the CI service needs: request line + headers + an optional
//! `Content-Length` body, keep-alive connection reuse, and JSON payloads.
//! Transfer-encoding, multipart, and TLS are out of scope; malformed
//! input is rejected with a parse error rather than guessed at.
//!
//! Server-side parsing is *resumable*: [`RequestParser`] consumes from a
//! growing byte buffer fed by nonblocking reads, so a request trickling
//! in one byte per readiness event costs no rescans and never blocks the
//! event thread.

use crate::json::{JsonWriter, Value};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Largest accepted request body. Commit submissions are a few hundred
/// bytes; registration carries a script file. Anything beyond a megabyte
/// is a client error (or an attack) and is refused before allocation.
pub const MAX_BODY_BYTES: usize = 1 << 20;

/// Largest accepted header section (request line + headers).
const MAX_HEAD_BYTES: usize = 16 << 10;

/// One parsed request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Uppercase method (`GET`, `POST`, ...).
    pub method: String,
    /// Path component, percent-decoding not applied (project names are
    /// restricted to URL-safe characters).
    pub path: String,
    /// Raw body bytes (empty when no `Content-Length`).
    pub body: Vec<u8>,
    /// Whether the client asked to close the connection after this
    /// exchange (`Connection: close`).
    pub close: bool,
}

impl Request {
    /// Parse the body as JSON. For HTTP clients and the benchmark: the
    /// server's routes decode their bodies with pull decoders and build
    /// no tree.
    ///
    /// # Errors
    ///
    /// A human-readable message for non-UTF-8 or malformed JSON.
    pub fn json_body(&self) -> Result<Value, String> {
        let text = std::str::from_utf8(&self.body).map_err(|_| "body is not UTF-8".to_owned())?;
        Value::parse(text).map_err(|e| e.to_string())
    }
}

/// Fully parsed head of the request currently being received, waiting
/// for its `Content-Length` body bytes.
#[derive(Debug)]
struct PendingBody {
    method: String,
    path: String,
    close: bool,
    content_length: usize,
}

/// Resumable, incremental HTTP/1.1 request parser.
///
/// The event-driven server feeds whatever bytes the socket had into
/// [`RequestParser::push`] and asks [`RequestParser::next_request`]
/// whether a complete request has accumulated — no blocking reads, no
/// assumption about how requests align with packets. Feeding one byte at
/// a time is `O(1)` amortized per byte: the head scan remembers how far
/// it has looked for the blank-line terminator and never rescans.
///
/// Bytes left over after a completed request (pipelined requests) stay
/// buffered; keep calling [`RequestParser::next_request`] until it
/// returns `Ok(None)`.
#[derive(Debug, Default)]
pub struct RequestParser {
    buf: Vec<u8>,
    /// Bytes of `buf` already scanned for the head terminator.
    scanned: usize,
    /// `Some` once the head is parsed and body bytes are awaited.
    pending: Option<PendingBody>,
}

impl RequestParser {
    /// An empty parser.
    #[must_use]
    pub fn new() -> RequestParser {
        RequestParser::default()
    }

    /// Append bytes received from the socket.
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Whether a request is partially received — buffered head bytes or
    /// an awaited body. Distinguishes a peer that closed (or stalled)
    /// *between* requests from one that abandoned a request midway.
    #[must_use]
    pub fn in_request(&self) -> bool {
        !self.buf.is_empty() || self.pending.is_some()
    }

    /// Whether the head is fully parsed and body bytes are awaited.
    #[must_use]
    pub fn awaiting_body(&self) -> bool {
        self.pending.is_some()
    }

    /// Try to complete one request from the buffered bytes.
    ///
    /// Returns `Ok(None)` when more bytes are needed.
    ///
    /// # Errors
    ///
    /// Protocol violations (`InvalidData`); the connection should send a
    /// 400 and close — buffer offsets are undefined after an error.
    pub fn next_request(&mut self) -> io::Result<Option<Request>> {
        if self.pending.is_none() {
            let Some(head_end) = self.find_head_end() else {
                if self.buf.len() > MAX_HEAD_BYTES {
                    return Err(bad_data("header section too large"));
                }
                return Ok(None);
            };
            if head_end > MAX_HEAD_BYTES {
                return Err(bad_data("header section too large"));
            }
            let pending = parse_head(&self.buf[..head_end])?;
            self.buf.drain(..head_end);
            self.scanned = 0;
            self.pending = Some(pending);
        }
        let content_length = self.pending.as_ref().expect("set above").content_length;
        if self.buf.len() < content_length {
            return Ok(None);
        }
        let PendingBody {
            method,
            path,
            close,
            content_length,
        } = self.pending.take().expect("checked above");
        let rest = self.buf.split_off(content_length);
        let body = std::mem::replace(&mut self.buf, rest);
        Ok(Some(Request {
            method,
            path,
            body,
            close,
        }))
    }

    /// Find the end of the head section (the byte after the blank line),
    /// resuming from where the previous scan stopped.
    fn find_head_end(&mut self) -> Option<usize> {
        // A terminator can straddle the previously scanned boundary, so
        // back up by the longest pattern minus one.
        let mut i = self.scanned.saturating_sub(2);
        while i < self.buf.len() {
            if self.buf[i] == b'\n' {
                match self.buf.get(i + 1) {
                    Some(b'\n') => return Some(i + 2),
                    Some(b'\r') if self.buf.get(i + 2) == Some(&b'\n') => return Some(i + 3),
                    // An empty head (request starts with the blank line)
                    // still terminates — and then fails request-line
                    // validation with a clean 400.
                    _ if i == 0 || (i == 1 && self.buf[0] == b'\r') => return Some(i + 1),
                    _ => {}
                }
            }
            i += 1;
        }
        self.scanned = self.buf.len();
        None
    }
}

/// Validate and parse a complete head section (request line, headers,
/// terminating blank line), exactly as strictly as the old blocking
/// parser: three-part request line, known HTTP version, `name: value`
/// headers with case-insensitive `content-length` / `connection`.
fn parse_head(head: &[u8]) -> io::Result<PendingBody> {
    let text = std::str::from_utf8(head).map_err(|_| bad_data("header section is not UTF-8"))?;
    let mut lines = text.split('\n').map(|l| l.strip_suffix('\r').unwrap_or(l));
    let request_line = lines.next().unwrap_or("");
    let (method, path) = {
        let mut parts = request_line.split(' ');
        match (parts.next(), parts.next(), parts.next(), parts.next()) {
            (Some(m), Some(p), Some(v), None) if !m.is_empty() && p.starts_with('/') => {
                if v != "HTTP/1.1" && v != "HTTP/1.0" {
                    return Err(bad_data("unsupported HTTP version"));
                }
                (m.to_owned(), p.to_owned())
            }
            _ => return Err(bad_data("malformed request line")),
        }
    };
    let mut content_length: usize = 0;
    let mut close = false;
    for line in lines {
        if line.is_empty() {
            continue; // the terminating blank line
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(bad_data("malformed header"));
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            content_length = value.parse().map_err(|_| bad_data("bad content-length"))?;
            if content_length > MAX_BODY_BYTES {
                return Err(bad_data("body too large"));
            }
        } else if name.eq_ignore_ascii_case("connection") {
            if value.eq_ignore_ascii_case("close") {
                close = true;
            } else if value.eq_ignore_ascii_case("keep-alive") {
                close = false;
            }
        }
    }
    Ok(PendingBody {
        method,
        path,
        close,
        content_length,
    })
}

fn bad_data(message: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message)
}

/// Read a `\n`-terminated line (tolerating a bare `\n`), bounded by
/// [`MAX_HEAD_BYTES`]. Returns the number of bytes read (0 at EOF).
fn read_crlf_line(reader: &mut BufReader<TcpStream>, line: &mut String) -> io::Result<usize> {
    let mut taken = reader.by_ref().take(MAX_HEAD_BYTES as u64 + 1);
    let n = taken.read_line(line)?;
    if line.len() > MAX_HEAD_BYTES {
        return Err(bad_data("line too long"));
    }
    Ok(n)
}

/// A response ready to serialize.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Body bytes.
    pub body: Vec<u8>,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Whether the server will close the connection after this response.
    pub close: bool,
    /// `Retry-After` header value in seconds (overload shedding).
    pub retry_after: Option<u32>,
    /// Per-request stage trace, attached by the route handler and
    /// consumed by the event loop when the response finishes writing
    /// (slow-log + trace ring). Never serialized to the wire.
    pub trace: Option<Box<crate::obs::trace::TraceRec>>,
    /// Group-commit durability gate: when set, the event core must not
    /// queue this response onto the socket until the waiter resolves
    /// (the group-commit round made the journal bytes behind the
    /// acknowledgement durable). A failed round converts the response
    /// into a 500 instead. Never serialized to the wire.
    pub pending: Option<crate::store::Waiter>,
}

impl Response {
    /// A JSON response of one object whose members `members` writes.
    #[must_use]
    pub(crate) fn json_object(status: u16, members: impl FnOnce(&mut JsonWriter)) -> Response {
        Response::json_text(status, JsonWriter::object(members))
    }

    /// A JSON response from an already rendered document.
    #[must_use]
    pub fn json_text(status: u16, body: String) -> Response {
        Response {
            status,
            body: body.into_bytes(),
            content_type: "application/json",
            close: false,
            retry_after: None,
            trace: None,
            pending: None,
        }
    }

    /// A plain-text response (the `/metrics` exposition).
    #[must_use]
    pub fn text(status: u16, body: String) -> Response {
        Response {
            status,
            body: body.into_bytes(),
            content_type: "text/plain; charset=utf-8",
            close: false,
            retry_after: None,
            trace: None,
            pending: None,
        }
    }

    /// A JSON error payload `{"error": message}`.
    #[must_use]
    pub fn error(status: u16, message: &str) -> Response {
        Response::json_object(status, |w| w.key("error").string(message))
    }

    /// A JSON error payload with a stable machine-readable reason code:
    /// `{"error": message, "reason": reason}`. Used by the 503s
    /// (overload shed, degraded read-only mode) so clients can branch
    /// on `reason` instead of parsing prose.
    #[must_use]
    pub fn error_with_reason(status: u16, reason: &str, message: &str) -> Response {
        Response::json_object(status, |w| {
            w.key("error").string(message);
            w.key("reason").string(reason);
        })
    }

    /// Attach a `Retry-After` hint (seconds).
    #[must_use]
    pub fn with_retry_after(mut self, seconds: u32) -> Response {
        self.retry_after = Some(seconds);
        self
    }

    /// Standard reason phrase for the status code.
    #[must_use]
    pub fn reason(&self) -> &'static str {
        match self.status {
            200 => "OK",
            201 => "Created",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            409 => "Conflict",
            413 => "Payload Too Large",
            500 => "Internal Server Error",
            503 => "Service Unavailable",
            _ => "Unknown",
        }
    }

    /// Serialize the full wire form (status line, headers, body) into
    /// one buffer. The event loop writes it out as socket writability
    /// allows; it is never required to land in one `write`.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        use std::fmt::Write as _;
        let mut head = format!(
            "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ncontent-length: {}\r\nconnection: {}\r\n",
            self.status,
            self.reason(),
            self.content_type,
            self.body.len(),
            if self.close { "close" } else { "keep-alive" },
        );
        if let Some(seconds) = self.retry_after {
            let _ = write!(head, "retry-after: {seconds}\r\n");
        }
        head.push_str("\r\n");
        let mut message = head.into_bytes();
        message.extend_from_slice(&self.body);
        message
    }
}

/// Retry behavior of [`Client`]: a bounded budget of jittered
/// exponential-backoff retries.
///
/// A retry is spent on a transport failure or on a `503 Service
/// Unavailable` (the server shedding load). The sleep before attempt
/// `k` (0-based) is drawn deterministically (seeded, so load tests stay
/// reproducible) from `[backoff/2, backoff]` with
/// `backoff = min(cap, base << k)` — full-jitter halves, so a thousand
/// clients shed at the same instant do not return as one synchronized
/// thundering herd. When the server sent `Retry-After: n`, the sleep is
/// at least `n` seconds (the server knows better than the curve).
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Maximum retries after the initial attempt (0 = fail fast).
    pub attempts: u32,
    /// First backoff step.
    pub base: Duration,
    /// Upper bound on a single backoff sleep.
    pub cap: Duration,
    /// Seed for the deterministic jitter stream.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            attempts: 4,
            base: Duration::from_millis(25),
            cap: Duration::from_secs(2),
            seed: 0x00ea_5e31,
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries.
    #[must_use]
    pub fn none() -> RetryPolicy {
        RetryPolicy {
            attempts: 0,
            ..RetryPolicy::default()
        }
    }

    /// The sleep before retry `attempt` (0-based), given the server's
    /// `Retry-After` hint if any. `draw` indexes the jitter stream.
    fn delay(&self, attempt: u32, retry_after: Option<u32>, draw: u64) -> Duration {
        let backoff = self
            .base
            .saturating_mul(1u32 << attempt.min(16))
            .min(self.cap);
        // Uniform in [backoff/2, backoff] from a splitmix64 stream.
        let unit = (easeml_par::splitmix64(self.seed, draw) >> 11) as f64 / (1u64 << 53) as f64;
        let jittered = backoff.mul_f64(0.5 + unit / 2.0);
        match retry_after {
            // The hint is a *floor*, not a schedule: adding the jittered
            // curve on top keeps a fleet of clients shed at the same
            // instant from re-arriving in one synchronized wave exactly
            // `seconds` later.
            Some(seconds) => Duration::from_secs(u64::from(seconds)) + jittered,
            None => jittered,
        }
    }
}

/// A small blocking HTTP/1.1 client with keep-alive, used by the
/// integration tests and the `repro_serve_load` load generator.
#[derive(Debug)]
pub struct Client {
    addr: String,
    stream: Option<BufReader<TcpStream>>,
    policy: RetryPolicy,
    /// Total retries slept for (jitter stream index + telemetry).
    retries: u64,
}

impl Client {
    /// A client for `addr` (`host:port`) with the default
    /// [`RetryPolicy`]. Connects lazily.
    #[must_use]
    pub fn new(addr: impl Into<String>) -> Client {
        Client::with_policy(addr, RetryPolicy::default())
    }

    /// A client with an explicit retry policy.
    #[must_use]
    pub fn with_policy(addr: impl Into<String>, policy: RetryPolicy) -> Client {
        Client {
            addr: addr.into(),
            stream: None,
            policy,
            retries: 0,
        }
    }

    /// Total retries this client has performed (load-test telemetry).
    #[must_use]
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// Send one request and read the response, reusing the connection
    /// when the server keeps it open. `body` is encoded as JSON.
    ///
    /// Failures retry under the client's [`RetryPolicy`]: transport
    /// errors and `503` responses consume budget and back off with
    /// jitter (honoring `Retry-After`); the first failure on a *reused*
    /// connection retries immediately for free (the server may simply
    /// have dropped an idle keep-alive connection). Retrying is safe for
    /// every `easeml-serve` endpoint, including the POSTs, because the
    /// server's mutating routes are idempotent under redelivery
    /// (duplicate commit submissions return the recorded receipt without
    /// spending budget; identical re-registrations converge on the
    /// existing project).
    ///
    /// A `503` that survives the budget is returned as a normal
    /// response, not an error.
    ///
    /// # Errors
    ///
    /// I/O failures (after the retry budget) and malformed responses.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&Value>,
    ) -> io::Result<(u16, Value)> {
        // Every error path discards the stream — a socket that failed
        // mid-exchange may still deliver the *previous* response later,
        // and reusing it would desync every request/response pair after
        // it.
        let mut attempt: u32 = 0;
        let mut free_reuse_retry = self.stream.is_some();
        loop {
            match self.request_once(method, path, body) {
                Ok((status, retry_after, value)) => {
                    if status == 503 && attempt < self.policy.attempts {
                        let delay = self.policy.delay(attempt, retry_after, self.retries);
                        self.retries += 1;
                        attempt += 1;
                        std::thread::sleep(delay);
                        continue;
                    }
                    return Ok((status, value));
                }
                Err(_) if free_reuse_retry => {
                    // The keep-alive race: the server closed the idle
                    // connection between requests. Not a real failure.
                    free_reuse_retry = false;
                    self.stream = None;
                }
                Err(e) => {
                    self.stream = None;
                    if attempt >= self.policy.attempts {
                        return Err(e);
                    }
                    let delay = self.policy.delay(attempt, None, self.retries);
                    self.retries += 1;
                    attempt += 1;
                    std::thread::sleep(delay);
                }
            }
        }
    }

    fn request_once(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&Value>,
    ) -> io::Result<(u16, Option<u32>, Value)> {
        if self.stream.is_none() {
            let stream = TcpStream::connect(&self.addr)?;
            stream.set_read_timeout(Some(Duration::from_secs(10)))?;
            stream.set_nodelay(true)?;
            self.stream = Some(BufReader::new(stream));
        }
        let reader = self.stream.as_mut().expect("connected above");
        let payload = body.map(Value::encode).unwrap_or_default();
        let head = format!(
            "{method} {path} HTTP/1.1\r\nhost: {}\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\r\n",
            self.addr,
            payload.len(),
        );
        let mut message = head.into_bytes();
        message.extend_from_slice(payload.as_bytes());
        reader.get_mut().write_all(&message)?;

        // Status line.
        let mut line = String::new();
        if read_crlf_line(reader, &mut line)? == 0 {
            self.stream = None;
            return Err(bad_data("server closed before responding"));
        }
        let status: u16 = line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad_data("malformed status line"))?;
        // Headers.
        let mut content_length = 0usize;
        let mut close = false;
        let mut retry_after: Option<u32> = None;
        loop {
            line.clear();
            if read_crlf_line(reader, &mut line)? == 0 {
                return Err(bad_data("connection closed inside response headers"));
            }
            let trimmed = line.trim_end();
            if trimmed.is_empty() {
                break;
            }
            if let Some((name, value)) = trimmed.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    content_length = value
                        .trim()
                        .parse()
                        .map_err(|_| bad_data("bad content-length"))?;
                } else if name.eq_ignore_ascii_case("connection")
                    && value.trim().eq_ignore_ascii_case("close")
                {
                    close = true;
                } else if name.eq_ignore_ascii_case("retry-after") {
                    // Only the delta-seconds form; an HTTP-date is ignored.
                    retry_after = value.trim().parse().ok();
                }
            }
        }
        let mut body = vec![0u8; content_length];
        reader.read_exact(&mut body)?;
        if close {
            self.stream = None;
        }
        let text = String::from_utf8(body).map_err(|_| bad_data("non-UTF-8 response body"))?;
        let value = Value::parse(&text).map_err(|e| bad_data(&e.to_string()))?;
        Ok((status, retry_after, value))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feed(parser: &mut RequestParser, bytes: &[u8]) -> Option<Request> {
        parser.push(bytes);
        parser.next_request().expect("valid request")
    }

    #[test]
    fn parses_a_whole_request_at_once() {
        let mut parser = RequestParser::new();
        let req = feed(
            &mut parser,
            b"POST /projects HTTP/1.1\r\ncontent-length: 4\r\n\r\nbody",
        )
        .expect("complete");
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/projects");
        assert_eq!(req.body, b"body");
        assert!(!req.close);
        assert!(!parser.in_request());
    }

    #[test]
    fn resumes_across_single_byte_pushes() {
        let raw = b"GET /status HTTP/1.1\r\nconnection: close\r\n\r\n";
        let mut parser = RequestParser::new();
        for (i, byte) in raw.iter().enumerate() {
            let got = feed(&mut parser, std::slice::from_ref(byte));
            if i + 1 < raw.len() {
                assert!(got.is_none(), "complete after {} bytes", i + 1);
                assert!(parser.in_request());
            } else {
                let req = got.expect("complete at final byte");
                assert_eq!(req.path, "/status");
                assert!(req.close);
            }
        }
    }

    #[test]
    fn body_split_across_pushes() {
        let mut parser = RequestParser::new();
        assert!(feed(
            &mut parser,
            b"POST /x HTTP/1.1\r\ncontent-length: 10\r\n\r\n12345"
        )
        .is_none());
        assert!(parser.in_request());
        let req = feed(&mut parser, b"67890").expect("complete");
        assert_eq!(req.body, b"1234567890");
    }

    #[test]
    fn pipelined_requests_come_out_in_order() {
        let mut parser = RequestParser::new();
        parser.push(b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n");
        let a = parser.next_request().unwrap().expect("first");
        let b = parser.next_request().unwrap().expect("second");
        assert_eq!((a.path.as_str(), b.path.as_str()), ("/a", "/b"));
        assert!(parser.next_request().unwrap().is_none());
        assert!(!parser.in_request());
    }

    #[test]
    fn tolerates_bare_lf_line_endings() {
        let mut parser = RequestParser::new();
        let req = feed(&mut parser, b"GET /x HTTP/1.0\ncontent-length: 2\n\nhi").expect("complete");
        assert_eq!(req.body, b"hi");
    }

    #[test]
    fn rejects_malformed_input_cleanly() {
        for raw in [
            b"DELETE\r\n\r\n".as_slice(),
            b"GET /x HTTP/2\r\n\r\n",
            b"GET x HTTP/1.1\r\n\r\n",
            b"GET /x HTTP/1.1\r\nno-colon-here\r\n\r\n",
            b"GET /x HTTP/1.1\r\ncontent-length: nope\r\n\r\n",
            b"\r\n",
        ] {
            let mut parser = RequestParser::new();
            parser.push(raw);
            let err = parser.next_request().expect_err("must reject");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{raw:?}");
        }
    }

    #[test]
    fn rejects_oversized_head_and_body() {
        let mut parser = RequestParser::new();
        parser.push(b"GET /x HTTP/1.1\r\n");
        parser.push(&vec![b'a'; 17 << 10]);
        assert!(parser.next_request().is_err());

        let mut parser = RequestParser::new();
        parser.push(
            format!(
                "POST /x HTTP/1.1\r\ncontent-length: {}\r\n\r\n",
                MAX_BODY_BYTES + 1
            )
            .as_bytes(),
        );
        assert!(parser.next_request().is_err());
    }

    /// Pieces of a request stream: well-formed requests of every shape
    /// the parser takes (bodies, pipelining, `Connection: close`, bare
    /// LF, `HTTP/1.0`), malformed heads, a body and a head past their
    /// caps, a non-UTF-8 head and a request cut short.
    fn stream_piece(i: usize) -> Vec<u8> {
        match i {
            0 => b"GET /healthz HTTP/1.1\r\n\r\n".to_vec(),
            1 => b"POST /projects HTTP/1.1\r\ncontent-length: 5\r\n\r\nhello".to_vec(),
            2 => b"POST /x HTTP/1.0\ncontent-length: 3\n\nabc".to_vec(),
            3 => b"GET /a HTTP/1.1\r\nconnection: close\r\n\r\n".to_vec(),
            4 => {
                b"POST /y HTTP/1.1\r\nContent-Length: 0\r\nConnection: keep-alive\r\n\r\n".to_vec()
            }
            5 => b"POST /b HTTP/1.1\r\ncontent-length: 4\r\n\r\n\r\n\r\n".to_vec(),
            6 => b"GET x HTTP/1.1\r\n\r\n".to_vec(),
            7 => b"GET /x HTTP/2\r\n\r\n".to_vec(),
            8 => b"GET /x HTTP/1.1\r\ncontent-length: nope\r\n\r\n".to_vec(),
            9 => b"\r\n".to_vec(),
            10 => b"\n".to_vec(),
            11 => format!(
                "POST /x HTTP/1.1\r\ncontent-length: {}\r\n\r\n",
                MAX_BODY_BYTES + 1
            )
            .into_bytes(),
            12 => format!(
                "GET /x HTTP/1.1\r\nx-pad: {}\r\n\r\n",
                "a".repeat(MAX_HEAD_BYTES)
            )
            .into_bytes(),
            13 => b"GET /\xff HTTP/1.1\r\n\r\n".to_vec(),
            14 => b"GET /x HTTP/1.1\r\nno-colon\r\n\r\n".to_vec(),
            _ => b"POST /z HTTP/1.1\r\ncontent-length: 10\r\n\r\nabc".to_vec(),
        }
    }

    /// What a parser makes of `chunks` fed in turn: the requests in
    /// order, the error that stopped it (if any), whether a request is
    /// left half received (always, after an error), and whether its
    /// buffer stayed within the caps whenever it waited for bytes.
    fn parse_chunks(chunks: &[&[u8]]) -> (Vec<Request>, Option<String>, bool, bool) {
        let mut parser = RequestParser::new();
        let (mut requests, mut within_caps) = (Vec::new(), true);
        for chunk in chunks {
            parser.push(chunk);
            loop {
                match parser.next_request() {
                    Ok(Some(request)) => requests.push(request),
                    Ok(None) => {
                        within_caps &= match &parser.pending {
                            None => parser.buf.len() <= MAX_HEAD_BYTES,
                            Some(p) => parser.buf.len() < p.content_length,
                        };
                        break;
                    }
                    Err(e) => {
                        assert_eq!(e.kind(), io::ErrorKind::InvalidData);
                        return (requests, Some(e.to_string()), true, within_caps);
                    }
                }
            }
        }
        let in_request = parser.in_request();
        (requests, None, in_request, within_caps)
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(1024))]

        /// The same bytes split at arbitrary chunk boundaries give the
        /// same requests and the same error as the unsplit bytes, and no
        /// waiting buffer outgrows the head or body cap.
        #[test]
        fn chunk_splits_parse_like_the_whole_stream(
            pieces in proptest::collection::vec((0usize..16, 0usize..64), 1..6),
            noise in proptest::collection::vec((0usize..1 << 20, 0usize..6), 0..3),
            cuts in proptest::collection::vec(0usize..1 << 20, 0..12),
        ) {
            let mut stream: Vec<u8> = Vec::new();
            for (piece, roll) in pieces {
                // The oversized head is long: draw it rarely.
                let piece = if piece == 12 && roll != 0 { 0 } else { piece };
                stream.extend(stream_piece(piece));
            }
            for (at, byte) in noise {
                let at = at % (stream.len() + 1);
                stream.insert(at, [b'\r', b'\n', b' ', b':', 0xff, b'a'][byte]);
            }
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c % (stream.len() + 1)).collect();
            cuts.sort_unstable();
            let mut chunks = Vec::new();
            let mut start = 0;
            for cut in cuts.into_iter().chain([stream.len()]) {
                chunks.push(&stream[start..cut]);
                start = cut;
            }
            let whole = parse_chunks(&[&stream]);
            let split = parse_chunks(&chunks);
            proptest::prop_assert!(whole.3 && split.3, "buffer past its cap");
            proptest::prop_assert_eq!(split, whole, "{:?}", String::from_utf8_lossy(&stream));
        }
    }

    #[test]
    fn response_round_trips_through_its_bytes() {
        let resp = Response::json_object(200, |w| w.key("ok").bool(true));
        let bytes = resp.to_bytes();
        let text = String::from_utf8(bytes).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("connection: keep-alive\r\n"));
        assert!(!text.contains("retry-after"));
        assert!(text.ends_with("\r\n\r\n{\"ok\":true}"));
    }

    #[test]
    fn shed_response_carries_retry_after() {
        let resp = Response::error(503, "overloaded").with_retry_after(1);
        let text = String::from_utf8(resp.to_bytes()).unwrap();
        assert!(text.starts_with("HTTP/1.1 503 Service Unavailable\r\n"));
        assert!(text.contains("retry-after: 1\r\n"));
        // The header block still terminates properly.
        assert!(text.contains("\r\n\r\n{"));
    }

    #[test]
    fn retry_policy_backs_off_with_bounded_jitter() {
        let policy = RetryPolicy::default();
        for attempt in 0..6 {
            let backoff = policy.base.saturating_mul(1u32 << attempt).min(policy.cap);
            for draw in 0..32 {
                let d = policy.delay(attempt, None, draw);
                assert!(
                    d >= backoff.mul_f64(0.5) && d <= backoff,
                    "{attempt}/{draw}: {d:?}"
                );
            }
        }
        // Deterministic for a given (seed, draw).
        assert_eq!(policy.delay(2, None, 7), policy.delay(2, None, 7));
        assert_ne!(policy.delay(2, None, 7), policy.delay(2, None, 8));
        // Retry-After floors the delay, with the jittered curve added on
        // top so simultaneous shed victims spread out on re-arrival.
        let hinted = policy.delay(0, Some(3), 0);
        assert!(hinted >= Duration::from_secs(3));
        assert!(hinted <= Duration::from_secs(3) + policy.base);
        assert_ne!(policy.delay(0, Some(3), 0), policy.delay(0, Some(3), 1));
    }
}
