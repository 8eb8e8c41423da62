//! Per-connection state machine for the event loop.
//!
//! A [`Conn`] owns a nonblocking socket plus the buffers that let it
//! make progress one readiness event at a time: an incremental
//! [`RequestParser`] on the read side, a serialized response with a
//! write offset on the write side. All socket I/O here is nonblocking
//! and bounded — the event thread never sleeps inside a connection.
//!
//! State transitions (driven by `net::mod`):
//!
//! ```text
//! KeepAliveIdle --first byte--> ReadingHead --blank line--> ReadingBody
//!       ^                                                       |
//!       |                       (no body goes straight through) |
//!       |                                                       v
//!       +-- response fully written <-- Writing <-- Dispatched --+
//!                                                   (pool job)
//! ```
//!
//! `Dispatched` turns read interest off: the connection is strictly
//! serial (one in-flight request), so bytes the peer sends early simply
//! wait in the kernel buffer — natural backpressure with no unbounded
//! buffering on our side.

use crate::http::{RequestParser, Response};
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::Instant;

/// Cap on bytes read per readiness event, so one fire-hosing client
/// cannot starve the rest of the loop. Level-triggered polling re-reports
/// the descriptor immediately if more is pending.
const READ_BUDGET: usize = 64 << 10;

/// Where a connection is in its request/response cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ConnState {
    /// Keep-alive, waiting for the next request's first byte.
    KeepAliveIdle,
    /// Part of a request head is buffered.
    ReadingHead,
    /// The head is parsed; `Content-Length` body bytes are awaited.
    ReadingBody,
    /// A request is on the worker pool; read interest is off.
    Dispatched,
    /// A response is queued and not yet fully written.
    Writing,
}

/// What one read pass produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Fill {
    /// Bytes moved into the parser.
    pub bytes: usize,
    /// The peer closed its write side.
    pub eof: bool,
}

/// One connection owned by an event loop slab slot.
#[derive(Debug)]
pub(crate) struct Conn {
    pub stream: TcpStream,
    pub state: ConnState,
    pub parser: RequestParser,
    /// Serialized response being written; drained from `written`.
    write_buf: Vec<u8>,
    written: usize,
    /// Close once `write_buf` drains (client `Connection: close`, parse
    /// error, or shutdown drain).
    pub close_after_write: bool,
    /// Monotonic per-dispatch counter; completions carry it so a late
    /// completion for an earlier (errored-out) dispatch is discarded.
    pub dispatch_gen: u64,
    /// Current timeout, if any (`None` while `Dispatched` — handler time
    /// is not the peer's fault).
    pub deadline: Option<Instant>,
    /// Earliest armed timer-wheel entry, tracked so re-arming only
    /// inserts when the deadline moved *earlier* (the wheel cancels
    /// lazily; stale entries re-arm themselves on fire).
    pub armed: Option<Instant>,
    /// Cached poller interest, to skip redundant `epoll_ctl`s.
    pub want_read: bool,
    pub want_write: bool,
    /// When the first byte of the in-progress request arrived (feeds the
    /// parse stage); taken at dispatch.
    pub request_recv: Option<Instant>,
    /// When the in-flight response was queued (feeds the response-write
    /// stage); taken when the last byte is written.
    pub write_start: Option<Instant>,
    /// Stage trace of the in-flight response, finalized when the write
    /// completes (slow-log + trace ring).
    pub trace: Option<Box<crate::obs::trace::TraceRec>>,
}

impl Conn {
    pub(crate) fn new(stream: TcpStream, now: Instant, idle_timeout: std::time::Duration) -> Conn {
        Conn {
            stream,
            state: ConnState::KeepAliveIdle,
            parser: RequestParser::new(),
            write_buf: Vec::new(),
            written: 0,
            close_after_write: false,
            dispatch_gen: 0,
            deadline: Some(now + idle_timeout),
            armed: None,
            want_read: true,
            want_write: false,
            request_recv: None,
            write_start: None,
            trace: None,
        }
    }

    /// Read whatever the socket has (bounded by [`READ_BUDGET`]) into
    /// the parser. Readiness is level-triggered, so a read shorter than
    /// `scratch` ends the fill: bytes (or EOF) that arrive after it
    /// report the socket readable at the next wait.
    ///
    /// # Errors
    ///
    /// Hard I/O failures (reset, etc.); the connection should be closed.
    pub(crate) fn fill(&mut self, scratch: &mut [u8]) -> io::Result<Fill> {
        let mut total = 0;
        loop {
            match self.stream.read(scratch) {
                Ok(0) => {
                    return Ok(Fill {
                        bytes: total,
                        eof: true,
                    })
                }
                Ok(n) => {
                    self.parser.push(&scratch[..n]);
                    total += n;
                    if total >= READ_BUDGET || n < scratch.len() {
                        return Ok(Fill {
                            bytes: total,
                            eof: false,
                        });
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    return Ok(Fill {
                        bytes: total,
                        eof: false,
                    })
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// Queue a response for writing. Call [`Conn::flush_write`] right
    /// after: most responses fit the socket buffer and complete without
    /// ever enabling write interest.
    pub(crate) fn queue_response(&mut self, response: &Response) {
        debug_assert!(!self.has_pending_write(), "one response at a time");
        self.write_buf = response.to_bytes();
        self.written = 0;
        self.close_after_write |= response.close;
        self.state = ConnState::Writing;
    }

    /// Push queued bytes into the socket until done or it would block.
    /// Returns `true` when the response is fully written.
    ///
    /// # Errors
    ///
    /// Hard I/O failures (peer gone); the connection should be closed.
    pub(crate) fn flush_write(&mut self) -> io::Result<bool> {
        while self.written < self.write_buf.len() {
            match self.stream.write(&self.write_buf[self.written..]) {
                Ok(0) => return Err(io::Error::new(io::ErrorKind::WriteZero, "socket full")),
                Ok(n) => self.written += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        self.write_buf = Vec::new();
        self.written = 0;
        Ok(true)
    }

    pub(crate) fn has_pending_write(&self) -> bool {
        self.written < self.write_buf.len()
    }

    /// Bytes of the queued response pushed into the socket so far.
    pub(crate) fn written(&self) -> usize {
        self.written
    }

    /// Sync `state` with how far the parser got while reading.
    pub(crate) fn note_read_progress(&mut self) {
        if matches!(
            self.state,
            ConnState::KeepAliveIdle | ConnState::ReadingHead | ConnState::ReadingBody
        ) {
            self.state = if !self.parser.in_request() {
                ConnState::KeepAliveIdle
            } else if self.parser.awaiting_body() {
                ConnState::ReadingBody
            } else {
                ConnState::ReadingHead
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};

    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let a = TcpStream::connect(addr).unwrap();
        let (b, _) = listener.accept().unwrap();
        a.set_nonblocking(true).unwrap();
        b.set_nonblocking(true).unwrap();
        (a, b)
    }

    #[test]
    fn fill_reads_until_would_block_and_sees_eof() {
        let (server_side, client_side) = pair();
        let now = Instant::now();
        let mut conn = Conn::new(server_side, now, std::time::Duration::from_secs(1));
        let mut scratch = vec![0u8; 4096];

        (&client_side).write_all(b"GET / HTTP/1.1\r\n").unwrap();
        // Nonblocking peer write lands quickly but not synchronously.
        let deadline = Instant::now() + std::time::Duration::from_secs(5);
        let mut fill = conn.fill(&mut scratch).unwrap();
        while fill.bytes == 0 && Instant::now() < deadline {
            std::thread::sleep(std::time::Duration::from_millis(1));
            fill = conn.fill(&mut scratch).unwrap();
        }
        assert_eq!(fill.bytes, 16);
        assert!(!fill.eof);

        drop(client_side);
        let deadline = Instant::now() + std::time::Duration::from_secs(5);
        let mut fill = conn.fill(&mut scratch).unwrap();
        while !fill.eof && Instant::now() < deadline {
            std::thread::sleep(std::time::Duration::from_millis(1));
            fill = conn.fill(&mut scratch).unwrap();
        }
        assert!(fill.eof);
    }

    #[test]
    fn flush_write_reports_partial_progress() {
        let (server_side, client_side) = pair();
        let now = Instant::now();
        let mut conn = Conn::new(server_side, now, std::time::Duration::from_secs(1));
        // A response far larger than any socket buffer pair.
        let big = Response {
            status: 200,
            body: vec![b'x'; 64 << 20],
            content_type: "text/plain",
            close: false,
            retry_after: None,
            trace: None,
            pending: None,
        };
        conn.queue_response(&big);
        let done = conn.flush_write().unwrap();
        assert!(!done, "64 MiB cannot fit kernel buffers");
        assert!(conn.has_pending_write());
        drop(client_side);
    }
}
