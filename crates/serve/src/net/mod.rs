//! Event-driven serving core: one readiness loop that multiplexes
//! thousands of keep-alive connections onto one thread.
//!
//! # Architecture
//!
//! ```text
//!                   ┌────────────────────────────────────────────┐
//!  clients ──TCP──▶ │ event loop: epoll/poll + deadline heap     │
//!                   │  listener ──▶ accept, adopt after batch    │
//!                   │  conns: read → RequestParser → dispatch ─┐ │
//!                   │  ▲ completions (wake pipe) ◀─────────────┼─┼── easeml-par
//!                   │  │ 1. write the ones that need no fsync  └─┼──▶ pool workers
//!                   │  │ 2. one group-commit round (fsyncs)      │   (registration)
//!                   │  └─3. write the ones the round released    │
//!                   └────────────────────────────────────────────┘
//! ```
//!
//! The event thread owns the sockets and waits on no peer: nonblocking reads
//! feed the incremental parser, and complete requests go one of two ways,
//! chosen by [`Handler::inline`]. µs-scale requests (the overwhelming
//! majority: gate commits against a registered plan, status reads) run
//! *inline on the event thread* — zero cross-thread hops, the same
//! latency shape as a dedicated blocking thread. Expensive requests
//! (registration's plan search) are spawned onto the [`easeml_par`]
//! pool, and each worker hands its response back through the loop's
//! completion queue plus a wake pipe (a nonblocking [`UnixStream`] pair
//! — the self-pipe trick without declaring any extra syscalls).
//! Responses are written opportunistically; what does not fit
//! the socket buffer finishes via writability events, so a slow reader
//! costs its own connection nothing but patience and other connections
//! nothing at all.
//!
//! Idle and in-request deadlines live on the loop's deadline heap; the
//! loop sleeps in the poller exactly until the next deadline instead of
//! polling on a 50 ms clock.
//!
//! Durability ordering depends on the configured
//! [`crate::store::Durability`] mode, but the invariant the event core
//! enforces is the same in both: a response leaves only once the
//! journal bytes behind it are as durable as the mode promises. Under
//! `group` an inline commit stages its journal sync on the event thread
//! and its response carries a [`crate::store::Waiter`]
//! ([`Response::pending`]), which the loop parks. After each sweep the
//! loop writes out the completions that need no fsync, so a read never
//! waits on another request's fsync; runs one group-commit round
//! ([`Handler::round`]: one fsync per journal the sweep's commits
//! touched); and only then releases the parked responses, each a 500
//! where its round failed. That round is the one place the loop blocks,
//! as Redis fsyncs before it sleeps under `appendfsync always`. A pool
//! worker's store call runs its own round, so its response comes back
//! resolved. Under `relaxed` no waiter is attached: the acknowledgement
//! precedes any fsync of the journal, which only the snapshot cadence
//! syncs. A registration attaches no waiter in either mode: its handler
//! fsyncs and renames `project.json` itself before it returns.
//!
//! # Stale-event discipline
//!
//! Poller events carry plain slab tokens, so a token observed in the
//! current batch could outlive its connection (closed by an earlier
//! event in the same batch). Two rules make this safe: freed slots hold
//! `None` until after the batch (newly accepted sockets wait in a
//! loop-local list and are adopted only after the batch), and both
//! timers and completions carry the slot generation, bumped on every
//! close.

mod conn;
mod sys;
mod timer;

use crate::http::{Request, Response};
use crate::obs::trace::{self, Stage};
use crate::obs::ServeObs;
use crate::server::{ServeStats, SHED_RETRY_AFTER_SECS};
use crate::store::Waiter;
use conn::{Conn, ConnState};
use easeml_par::PoolScope;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};
use sys::Poller;
use timer::DeadlineHeap;

/// Wire-level timing the event core hands to the handler alongside each
/// request, feeding the parse and queue stages of the request trace.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ReqMeta {
    /// When the request's first byte arrived on the socket (`None` when
    /// the arrival was not observed, e.g. bytes that were already
    /// buffered behind the previous response of a pipelining peer).
    pub received: Option<Instant>,
    /// When the request was fully parsed and dispatched.
    pub parsed: Instant,
}

/// The serving layer's face to the event core: computes responses and
/// classifies requests for the inline fast path.
pub(crate) trait Handler: Sync {
    /// Compute the response for one fully parsed request.
    fn handle(&self, request: &Request, meta: &ReqMeta) -> Response;

    /// Whether `request` may run directly on the event thread instead of
    /// a pool worker. Inline execution skips the pool hand-off, the
    /// completion wake, and the scheduler hops in between — but it
    /// stalls every connection this loop owns for the handler's full
    /// duration, so only µs-scale requests should say yes.
    fn inline(&self, request: &Request) -> bool;

    /// Run one group-commit round: retire every journal sync that the
    /// requests handled on this thread staged, resolving their
    /// responses' waiters. The loop calls it after each sweep, once the
    /// completions that need no fsync are written; a no-op when nothing
    /// is staged.
    fn round(&self);
}

/// Reserved poller token: the wake pipe's read end.
const WAKE: usize = 0;
/// Reserved poller token: the listening socket.
const LISTENER: usize = 1;
/// First token usable for connections (`slab index + TOKEN_BASE`).
const TOKEN_BASE: usize = 2;

/// Initial back-off before re-arming the listener after an accept
/// failure (typically fd exhaustion, EMFILE/ENFILE). The listener is
/// deregistered meanwhile so level-triggered readiness does not
/// busy-loop; the back-off doubles on consecutive failures up to
/// [`ACCEPT_BACKOFF_MAX`] and resets on the next successful accept.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(20);

/// Cap on the accept back-off: under sustained fd exhaustion the loop
/// retries once a second instead of spinning hotter and hotter.
const ACCEPT_BACKOFF_MAX: Duration = Duration::from_secs(1);

/// How long a stopping loop waits for dispatched/writing connections to
/// finish before abandoning them. Idle connections close immediately, so
/// shutdown latency is normally far below this.
const DRAIN_GRACE: Duration = Duration::from_secs(5);

/// Tunables handed down from [`crate::ServeConfig`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct NetConfig {
    /// Close a keep-alive connection after this long without a request.
    pub idle_timeout: Duration,
    /// Budget from a request's first byte to its fully parsed form; also
    /// reused as the no-write-progress window for queued responses.
    pub request_timeout: Duration,
}

/// Wakes the event loop: used by [`crate::ServerHandle::stop`] and the
/// `/admin/shutdown` route. The writer is registered by [`serve`] as the
/// loop starts; waking before then is a no-op (covered by the connect
/// poke).
#[derive(Debug, Default)]
pub(crate) struct WakeHub {
    writer: OnceLock<UnixStream>,
}

impl WakeHub {
    pub(crate) fn new() -> WakeHub {
        WakeHub::default()
    }

    /// Write one byte to the loop's wake pipe. Errors (full pipe = wake
    /// already pending; closed pipe = loop already exited) are exactly
    /// the cases where no wake is needed.
    pub(crate) fn wake(&self) {
        if let Some(writer) = self.writer.get() {
            let _ = (&*writer).write(&[1]);
        }
    }
}

/// A finished request: the handler's response, addressed back to the
/// connection that dispatched it. Generations make late completions for
/// a recycled slot or an abandoned dispatch harmless.
#[derive(Debug)]
struct Completion {
    token: usize,
    generation: u64,
    dispatch_gen: u64,
    /// When the handler returned: a response parked for a round is
    /// credited the durable wait from here to the round's end.
    handled: Instant,
    response: Response,
}

/// The cross-thread face of the event loop: the completion queue pool
/// workers push onto, and the write end of the loop's wake pipe.
#[derive(Debug)]
struct LoopShared {
    completions: Mutex<Vec<Completion>>,
    waker: UnixStream,
}

impl LoopShared {
    fn wake(&self) {
        // Nonblocking; a full pipe already guarantees a pending wake.
        let _ = (&self.waker).write(&[1]);
    }

    fn push_completion(&self, completion: Completion) {
        self.completions
            .lock()
            .expect("completions poisoned")
            .push(completion);
    }

    fn take_completions(&self) -> Vec<Completion> {
        std::mem::take(&mut *self.completions.lock().expect("completions poisoned"))
    }
}

/// One slab slot. `generation` increments when the slot is freed, so
/// timers and completions addressed to a previous occupant are ignored.
#[derive(Debug)]
struct Slot {
    generation: u64,
    conn: Option<Conn>,
}

/// Run the event-driven serving core until `stop` is set and the drain
/// completes. Called inside an [`easeml_par::Pool::scope`]; request
/// handling is spawned onto `scope` and `handler` computes the response.
///
/// # Errors
///
/// Fatal setup failures (poller or wake-pipe creation, listener
/// registration). Per-connection failures close that connection only.
#[allow(clippy::too_many_arguments)] // the event core's full wiring, called once
pub(crate) fn serve<'env>(
    listener: TcpListener,
    cfg: &NetConfig,
    scope: &PoolScope<'_, 'env>,
    stop: &'env AtomicBool,
    hub: &WakeHub,
    handler: &'env dyn Handler,
    stats: &Arc<ServeStats>,
    obs: &Arc<ServeObs>,
) -> io::Result<()> {
    listener.set_nonblocking(true)?;
    let (reader, writer) = UnixStream::pair()?;
    reader.set_nonblocking(true)?;
    writer.set_nonblocking(true)?;
    let shared = Arc::new(LoopShared {
        completions: Mutex::new(Vec::new()),
        waker: writer.try_clone()?,
    });
    let event_loop = EventLoop::new(reader, listener, cfg, shared, stats, obs)?;
    // Each server owns a fresh hub, so this is its only writer.
    let _ = hub.writer.set(writer);
    event_loop.run(scope, stop, handler)
}

/// The readiness loop: poller + deadline heap + connection slab.
struct EventLoop {
    poller: Poller,
    timers: DeadlineHeap,
    slots: Vec<Slot>,
    free: Vec<usize>,
    live: usize,
    wake: UnixStream,
    listener: Option<TcpListener>,
    listener_paused: bool,
    /// Sockets accepted during the current event batch, adopted after
    /// it (see the module docs on stale events).
    accepted: Vec<TcpStream>,
    cfg: NetConfig,
    shared: Arc<LoopShared>,
    scratch: Vec<u8>,
    draining: bool,
    drain_deadline: Instant,
    stats: Arc<ServeStats>,
    obs: Arc<ServeObs>,
    /// Current accept back-off (exponential between [`ACCEPT_BACKOFF`]
    /// and [`ACCEPT_BACKOFF_MAX`]; reset by a successful accept).
    accept_backoff: Duration,
    /// Completions whose journal sync this thread staged, waiting for
    /// the sweep's group-commit round.
    parked: Vec<Completion>,
}

/// What a fired connection deadline calls for, decided under the slab
/// borrow and acted on after it.
enum TimeoutAction {
    Nothing,
    Rearm,
    CloseQuietly,
    FailTimedOut,
    ProbeWrite,
}

impl EventLoop {
    fn new(
        wake: UnixStream,
        listener: TcpListener,
        cfg: &NetConfig,
        shared: Arc<LoopShared>,
        stats: &Arc<ServeStats>,
        obs: &Arc<ServeObs>,
    ) -> io::Result<EventLoop> {
        let mut poller = Poller::new()?;
        poller.register(wake.as_raw_fd(), WAKE, true, false)?;
        poller.register(listener.as_raw_fd(), LISTENER, true, false)?;
        let now = Instant::now();
        Ok(EventLoop {
            poller,
            timers: DeadlineHeap::new(now),
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
            wake,
            listener: Some(listener),
            listener_paused: false,
            accepted: Vec::new(),
            cfg: *cfg,
            shared,
            scratch: vec![0u8; 16 << 10],
            draining: false,
            drain_deadline: now,
            stats: Arc::clone(stats),
            obs: Arc::clone(obs),
            accept_backoff: ACCEPT_BACKOFF,
            parked: Vec::new(),
        })
    }

    fn run<'env>(
        mut self,
        scope: &PoolScope<'_, 'env>,
        stop: &'env AtomicBool,
        handler: &'env dyn Handler,
    ) -> io::Result<()> {
        let mut events = Vec::with_capacity(1024);
        let mut fired = Vec::new();
        loop {
            let now = Instant::now();
            if stop.load(Ordering::SeqCst) && !self.draining {
                self.begin_drain(now);
            }
            if self.draining && (self.live == 0 || now >= self.drain_deadline) {
                return Ok(());
            }
            let mut timeout = self.timers.next_deadline(now);
            if self.draining {
                let left = self.drain_deadline.saturating_duration_since(now);
                timeout = Some(timeout.map_or(left, |t| t.min(left)));
            }
            events.clear();
            self.poller.wait(&mut events, timeout)?;
            self.obs.metrics.loop_polls_total.inc();
            if !events.is_empty() {
                self.obs
                    .metrics
                    .loop_ready_events_total
                    .add(events.len() as u64);
                self.obs
                    .metrics
                    .loop_ready_batch
                    .record(events.len() as u64);
            }
            let now = Instant::now();
            for event in &events {
                match event.token {
                    WAKE => {
                        self.obs.metrics.loop_wakeups_total.inc();
                        self.drain_wake_pipe();
                    }
                    LISTENER => self.accept_ready(stop),
                    token => self.conn_event(
                        token - TOKEN_BASE,
                        event.readable,
                        event.writable,
                        event.hangup,
                        now,
                        scope,
                        handler,
                    ),
                }
            }
            fired.clear();
            self.timers.expire(now, &mut fired);
            for f in fired.drain(..) {
                self.timer_fired(f, now, scope, handler);
            }
            self.apply_completions(now, scope, handler);
            self.adopt_accepted(now);
        }
    }

    /// Stop accepting, close idle connections, let in-flight requests
    /// and pending writes finish (bounded by [`DRAIN_GRACE`]).
    fn begin_drain(&mut self, now: Instant) {
        self.draining = true;
        self.drain_deadline = now + DRAIN_GRACE;
        if let Some(listener) = self.listener.take() {
            if !self.listener_paused {
                let _ = self.poller.deregister(listener.as_raw_fd());
            }
        }
        for index in 0..self.slots.len() {
            let close_now = match self.slots[index].conn.as_mut() {
                None => false,
                Some(conn) => match conn.state {
                    ConnState::KeepAliveIdle | ConnState::ReadingHead | ConnState::ReadingBody => {
                        true
                    }
                    ConnState::Dispatched | ConnState::Writing => {
                        conn.close_after_write = true;
                        false
                    }
                },
            };
            if close_now {
                self.close(index);
            }
        }
    }

    /// Empty the wake pipe. Readiness is level-triggered, so a read
    /// shorter than the buffer ends the drain: anything written after it
    /// reports the pipe readable at the next wait.
    fn drain_wake_pipe(&mut self) {
        loop {
            match self.wake.read(&mut self.scratch) {
                // EOF cannot occur while the hub holds writer clones;
                // treat it like "drained" if it ever does.
                Ok(0) => return,
                Ok(n) if n < self.scratch.len() => return,
                Ok(_) => {}
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return,
            }
        }
    }

    /// Accept everything pending. Sockets wait in `accepted` until the
    /// batch is over, so slab slots freed during the current event batch
    /// are never refilled mid-batch (see the module docs on stale
    /// events).
    fn accept_ready(&mut self, stop: &AtomicBool) {
        loop {
            let Some(listener) = &self.listener else {
                return;
            };
            match listener.accept() {
                Ok((stream, _)) => {
                    self.accept_backoff = ACCEPT_BACKOFF;
                    if stop.load(Ordering::SeqCst) {
                        continue; // accepted mid-shutdown: drop closes it
                    }
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    self.obs.metrics.connections_accepted_total.inc();
                    self.accepted.push(stream);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                // A connection that died in the backlog (ECONNABORTED /
                // reset-before-accept) says nothing about *our* health;
                // keep draining the queue.
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::ConnectionAborted | io::ErrorKind::ConnectionReset
                    ) => {}
                Err(_) => {
                    self.obs.metrics.accept_errors_total.inc();
                    // Likely fd exhaustion (EMFILE/ENFILE). Unhook the
                    // listener so level-triggered readiness stops firing
                    // — the alternative is a busy-spin at 100% CPU — and
                    // let a deadline re-arm it once connections
                    // have freed descriptors. Consecutive failures back
                    // off exponentially up to [`ACCEPT_BACKOFF_MAX`].
                    if !self.listener_paused {
                        let fd = self.listener.as_ref().expect("checked above").as_raw_fd();
                        let _ = self.poller.deregister(fd);
                        self.listener_paused = true;
                    }
                    self.timers
                        .insert(Instant::now() + self.accept_backoff, LISTENER, 0);
                    self.accept_backoff = (self.accept_backoff * 2).min(ACCEPT_BACKOFF_MAX);
                    return;
                }
            }
        }
    }

    /// Take ownership of an accepted connection: slab slot, poller
    /// registration, idle deadline.
    fn adopt(&mut self, stream: TcpStream, now: Instant) {
        if self.draining {
            return; // dropping the stream closes it
        }
        let index = self.free.pop().unwrap_or_else(|| {
            self.slots.push(Slot {
                generation: 0,
                conn: None,
            });
            self.slots.len() - 1
        });
        let fd = stream.as_raw_fd();
        if self
            .poller
            .register(fd, index + TOKEN_BASE, true, false)
            .is_err()
        {
            self.free.push(index);
            return;
        }
        self.slots[index].conn = Some(Conn::new(stream, now, self.cfg.idle_timeout));
        self.live += 1;
        self.obs.metrics.connections_open.add(1);
        self.arm_timer(index);
    }

    fn adopt_accepted(&mut self, now: Instant) {
        let mut accepted = std::mem::take(&mut self.accepted);
        for stream in accepted.drain(..) {
            self.adopt(stream, now);
        }
        self.accepted = accepted; // keep the capacity
    }

    /// Insert a deadline entry if the connection's deadline moved earlier
    /// than whatever is already armed. Stale entries cancel lazily.
    fn arm_timer(&mut self, index: usize) {
        let generation = self.slots[index].generation;
        let Some(conn) = self.slots[index].conn.as_mut() else {
            return;
        };
        let Some(deadline) = conn.deadline else {
            return;
        };
        if conn.armed.is_none_or(|armed| armed > deadline) {
            conn.armed = Some(deadline);
            self.timers.insert(deadline, index + TOKEN_BASE, generation);
        }
    }

    fn timer_fired<'env>(
        &mut self,
        fired: timer::Fired,
        now: Instant,
        scope: &PoolScope<'_, 'env>,
        handler: &'env dyn Handler,
    ) {
        self.obs.metrics.loop_timer_fires_total.inc();
        if fired.token == LISTENER {
            self.resume_listener(now);
            return;
        }
        let index = fired.token - TOKEN_BASE;
        let action = {
            let Some(slot) = self.slots.get_mut(index) else {
                return;
            };
            if slot.generation != fired.generation {
                return;
            }
            let Some(conn) = slot.conn.as_mut() else {
                return;
            };
            conn.armed = None;
            match conn.deadline {
                None => TimeoutAction::Nothing,
                Some(deadline) if now < deadline => TimeoutAction::Rearm,
                Some(_) => match conn.state {
                    // Idle past the keep-alive window: close.
                    ConnState::KeepAliveIdle => TimeoutAction::CloseQuietly,
                    // A queued response with no *observed* progress for a
                    // whole window: probe before giving up on the peer.
                    ConnState::Writing => TimeoutAction::ProbeWrite,
                    ConnState::ReadingHead | ConnState::ReadingBody => TimeoutAction::FailTimedOut,
                    ConnState::Dispatched => TimeoutAction::Nothing,
                },
            }
        };
        match action {
            TimeoutAction::Nothing => {}
            TimeoutAction::Rearm => self.arm_timer(index),
            TimeoutAction::CloseQuietly => self.close(index),
            // Stalled mid-request past the full-request budget — the
            // same 400 the blocking server sent.
            TimeoutAction::FailTimedOut => {
                self.obs.metrics.request_timeouts_total.inc();
                self.fail_request(index, now, "request timed out");
            }
            TimeoutAction::ProbeWrite => self.probe_write(index, now, scope, handler),
        }
    }

    /// A `Writing` connection's progress window expired without a
    /// writable event. That alone does not condemn the peer: the poller
    /// reports writability only once a sizeable fraction of the kernel
    /// send buffer is free, so a slowly-but-steadily draining reader can
    /// go unseen for many seconds. Probe with an actual write — it
    /// succeeds with *any* free buffer space — and close only if nothing
    /// whatsoever drained over the whole window.
    fn probe_write<'env>(
        &mut self,
        index: usize,
        now: Instant,
        scope: &PoolScope<'_, 'env>,
        handler: &'env dyn Handler,
    ) {
        let request_timeout = self.cfg.request_timeout;
        let before = self.conn_mut(index).written();
        match self.conn_mut(index).flush_write() {
            Err(_) => self.close(index),
            Ok(true) => self.finish_response(index, now, scope, handler),
            Ok(false) => {
                if self.conn_mut(index).written() > before {
                    let conn = self.conn_mut(index);
                    conn.deadline = Some(now + request_timeout);
                    self.arm_timer(index);
                } else {
                    self.close(index);
                }
            }
        }
    }

    fn resume_listener(&mut self, now: Instant) {
        if !self.listener_paused || self.draining {
            return;
        }
        let Some(listener) = &self.listener else {
            return;
        };
        if self
            .poller
            .register(listener.as_raw_fd(), LISTENER, true, false)
            .is_ok()
        {
            self.listener_paused = false;
        } else {
            self.timers.insert(now + self.accept_backoff, LISTENER, 0);
            self.accept_backoff = (self.accept_backoff * 2).min(ACCEPT_BACKOFF_MAX);
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn conn_event<'env>(
        &mut self,
        index: usize,
        readable: bool,
        writable: bool,
        hangup: bool,
        now: Instant,
        scope: &PoolScope<'_, 'env>,
        handler: &'env dyn Handler,
    ) {
        if self.state_of(index).is_none() {
            return; // closed earlier in this batch
        }
        if hangup && !readable && !writable {
            self.close(index);
            return;
        }
        if writable && self.state_of(index) == Some(ConnState::Writing) {
            match self.conn_mut(index).flush_write() {
                Err(_) => {
                    self.close(index);
                    return;
                }
                Ok(true) => self.finish_response(index, now, scope, handler),
                Ok(false) => {
                    // Progress was made; extend the write window.
                    self.conn_mut(index).deadline = Some(now + self.cfg.request_timeout);
                    self.arm_timer(index);
                }
            }
        }
        let Some(state) = self.state_of(index) else {
            return; // finish_response closed it
        };
        if readable && state != ConnState::Dispatched {
            let conn = self.slots[index].conn.as_mut().expect("state checked");
            let was_between_requests = !conn.parser.in_request();
            let fill = match conn.fill(&mut self.scratch) {
                Ok(fill) => fill,
                Err(_) => {
                    self.close(index);
                    return;
                }
            };
            if fill.bytes > 0 && was_between_requests {
                // First observed bytes of a new request start the parse
                // clock (taken by dispatch, feeds the parse stage).
                conn.request_recv = Some(now);
            }
            if fill.bytes > 0 || fill.eof {
                self.advance(index, now, fill.eof, was_between_requests, scope, handler);
            }
            if fill.eof {
                if let Some(conn) = self.slots[index].conn.as_mut() {
                    // EOF is permanently readable under level-triggered
                    // polling: drop read interest or spin. The response
                    // in flight (if any) can still be written.
                    conn.close_after_write = true;
                    let write = conn.has_pending_write();
                    self.set_interest(index, false, write);
                }
            }
        }
    }

    fn state_of(&self, index: usize) -> Option<ConnState> {
        self.slots.get(index)?.conn.as_ref().map(|c| c.state)
    }

    fn conn_mut(&mut self, index: usize) -> &mut Conn {
        self.slots[index].conn.as_mut().expect("live connection")
    }

    /// Drive the parser after new bytes (or EOF): dispatch a completed
    /// request, update the reading state and deadlines, or fail the
    /// connection on protocol errors / mid-request abandonment.
    fn advance<'env>(
        &mut self,
        index: usize,
        now: Instant,
        eof: bool,
        was_between_requests: bool,
        scope: &PoolScope<'_, 'env>,
        handler: &'env dyn Handler,
    ) {
        let conn = self.conn_mut(index);
        if matches!(conn.state, ConnState::Dispatched | ConnState::Writing) {
            // Strictly serial per connection: bytes for the next request
            // wait in the parser until the current response completes.
            return;
        }
        match conn.parser.next_request() {
            Err(e) => {
                let message = e.to_string();
                self.fail_request(index, now, &message);
            }
            Ok(Some(request)) => {
                self.dispatch(index, request, scope, handler);
            }
            Ok(None) => {
                if eof {
                    // Clean close between requests, or an abandoned
                    // partial request: either way the connection is done.
                    self.close(index);
                    return;
                }
                let request_timeout = self.cfg.request_timeout;
                let conn = self.conn_mut(index);
                conn.note_read_progress();
                if was_between_requests && conn.state != ConnState::KeepAliveIdle {
                    // First byte of a new request starts the request
                    // clock (idle clock was running until now).
                    conn.deadline = Some(now + request_timeout);
                    self.arm_timer(index);
                }
            }
        }
    }

    /// Hand a parsed request to the worker pool — or, when the handler
    /// classifies it as cheap, run it inline right here on the event
    /// thread. A pool-bound request turns read interest off until its
    /// response is done — the kernel socket buffer provides the
    /// backpressure, not an unbounded user-space queue. An inline
    /// request leaves interest alone: its response is applied in this
    /// same loop iteration, before the next wait, so turning read
    /// interest off and on again would be two `epoll_ctl` calls that
    /// change nothing the poller ever reports.
    fn dispatch<'env>(
        &mut self,
        index: usize,
        request: Request,
        scope: &PoolScope<'_, 'env>,
        handler: &'env dyn Handler,
    ) {
        let generation = self.slots[index].generation;
        let token = index + TOKEN_BASE;
        let conn = self.conn_mut(index);
        conn.state = ConnState::Dispatched;
        conn.deadline = None;
        conn.dispatch_gen += 1;
        let dispatch_gen = conn.dispatch_gen;
        let close = request.close;
        let meta = ReqMeta {
            received: conn.request_recv.take(),
            parsed: Instant::now(),
        };
        if handler.inline(&request) {
            self.obs.metrics.dispatch_inline_total.inc();
            // Inline fast path: a µs-scale request pays no pool
            // hand-off, no wake pipe, no scheduler hops. The completion
            // still goes through the queue — the run loop drains it
            // unconditionally after every event batch, and
            // `apply_completions` re-takes the batch after each apply,
            // so completions produced mid-sweep (the pipelining path)
            // drain in the same call. No wake byte is needed here: we
            // *are* the thread that drains, and runs the group-commit
            // round a staged journal sync waits for.
            let mut response = handler.handle(&request, &meta);
            response.close = close;
            self.shared.push_completion(Completion {
                token,
                generation,
                dispatch_gen,
                handled: Instant::now(),
                response,
            });
            return;
        }
        // Bounded admission for pool-bound work: past `max_inflight`
        // concurrently admitted requests, shed with 503 + Retry-After
        // instead of queueing without bound. The connection stays open
        // (keep-alive) — the *request* is refused, not the client; a
        // well-behaved client backs off and lands in the next window.
        self.obs.metrics.dispatch_pool_total.inc();
        if !self.stats.try_admit() {
            let mut response = Response::error_with_reason(
                503,
                "shed",
                "server is at capacity (registration queue full); retry shortly",
            )
            .with_retry_after(SHED_RETRY_AFTER_SECS);
            response.close = close;
            self.shared.push_completion(Completion {
                token,
                generation,
                dispatch_gen,
                handled: Instant::now(),
                response,
            });
            return;
        }
        self.set_interest(index, false, false);
        let shared = Arc::clone(&self.shared);
        let stats = Arc::clone(&self.stats);
        // With a single-thread pool this runs inline, right here on the
        // event thread; the completion is applied in this same loop
        // iteration's `apply_completions` sweep. On a worker thread the
        // store call ran its own group-commit round, so the response
        // comes back resolved.
        scope.spawn(move || {
            let mut response = handler.handle(&request, &meta);
            stats.release();
            response.close = close;
            shared.push_completion(Completion {
                token,
                generation,
                dispatch_gen,
                handled: Instant::now(),
                response,
            });
            shared.wake();
        });
    }

    /// Apply the responses handlers handed back: first every completion
    /// that needs no fsync, parking those whose journal sync this thread
    /// staged; then one group-commit round, after which the parked ones
    /// are released, credited their durable wait. Loops because applying
    /// a completion can produce another via the pipelining path
    /// (`finish_response`), whose commit then waits for the next round of
    /// this same call rather than for an unrelated event.
    fn apply_completions<'env>(
        &mut self,
        now: Instant,
        scope: &PoolScope<'_, 'env>,
        handler: &'env dyn Handler,
    ) {
        loop {
            let mut batch = self.shared.take_completions();
            let after_round = batch.is_empty();
            if after_round {
                handler.round();
                if self.parked.is_empty() {
                    return;
                }
                let released = Instant::now();
                batch = std::mem::take(&mut self.parked);
                for completion in &mut batch {
                    self.credit_durable_wait(completion, released);
                }
            }
            for mut completion in batch {
                let durable = completion.response.pending.as_ref().map(Waiter::result);
                let failure = match durable {
                    None | Some(Some(Ok(()))) => None,
                    Some(None) if !after_round => {
                        self.parked.push(completion);
                        continue;
                    }
                    Some(Some(Err(message))) => Some(message),
                    // Staged on no thread whose round this loop runs:
                    // never acknowledge it (nor spin waiting for it).
                    Some(None) => {
                        Some("no group-commit round retired the journal sync".to_string())
                    }
                };
                if let Some(message) = failure {
                    completion.response = self.durable_write_failed(completion.response, &message);
                }
                let index = completion.token - TOKEN_BASE;
                let ready = {
                    let Some(slot) = self.slots.get_mut(index) else {
                        continue;
                    };
                    slot.generation == completion.generation
                        && slot.conn.as_ref().is_some_and(|conn| {
                            conn.state == ConnState::Dispatched
                                && conn.dispatch_gen == completion.dispatch_gen
                        })
                };
                if !ready {
                    continue; // connection died while the worker ran
                }
                let request_timeout = self.cfg.request_timeout;
                let mut response = completion.response;
                let trace_rec = response.trace.take();
                let conn = self.conn_mut(index);
                conn.queue_response(&response);
                conn.trace = trace_rec;
                conn.write_start = Some(Instant::now());
                conn.deadline = Some(now + request_timeout);
                self.settle_response(index, now, scope, handler);
            }
        }
    }

    /// Stamp the time from `completion`'s handler end to the round's end
    /// onto its trace as the durable-wait stage.
    fn credit_durable_wait(&self, completion: &mut Completion, released: Instant) {
        let Some(trace) = completion.response.trace.as_mut() else {
            return;
        };
        let wait_ns = trace::ns(released.saturating_duration_since(completion.handled));
        trace.stages_ns[Stage::DurableWait.index()] = wait_ns;
        self.obs.metrics.stage(Stage::DurableWait).record(wait_ns);
    }

    /// The round covering `response`'s journal bytes failed: the client
    /// must never see success for state the disk did not accept, so the
    /// acknowledgement becomes a 500 (feeding the durable-failure
    /// streak).
    fn durable_write_failed(&self, response: Response, message: &str) -> Response {
        self.stats.note_durable_failure();
        let mut failed = Response::error_with_reason(500, "durable_write_failed", message);
        failed.close = response.close;
        failed.trace = response.trace;
        if let Some(trace) = failed.trace.as_mut() {
            trace.status = failed.status;
        }
        failed
    }

    /// Push a freshly queued response out as far as the socket allows.
    fn settle_response<'env>(
        &mut self,
        index: usize,
        now: Instant,
        scope: &PoolScope<'_, 'env>,
        handler: &'env dyn Handler,
    ) {
        match self.conn_mut(index).flush_write() {
            Err(_) => self.close(index),
            Ok(true) => self.finish_response(index, now, scope, handler),
            Ok(false) => {
                // Finish via writability events. Keep reading: a
                // pipelining peer may already be sending the next
                // request, and ignoring readable would busy-loop.
                let read = !self.conn_mut(index).close_after_write;
                if self.set_interest(index, read, true) {
                    self.arm_timer(index);
                }
            }
        }
    }

    /// A response finished writing: close, or return to keep-alive and
    /// immediately serve any pipelined request already buffered.
    fn finish_response<'env>(
        &mut self,
        index: usize,
        now: Instant,
        scope: &PoolScope<'_, 'env>,
        handler: &'env dyn Handler,
    ) {
        self.note_response_written(index);
        if self.conn_mut(index).close_after_write || self.draining {
            self.close(index);
            return;
        }
        let idle_timeout = self.cfg.idle_timeout;
        let conn = self.conn_mut(index);
        conn.state = ConnState::KeepAliveIdle;
        conn.deadline = Some(now + idle_timeout);
        if !self.set_interest(index, true, false) {
            return;
        }
        self.arm_timer(index);
        // Pipelined bytes already in the parser generate no further
        // readiness events; parse them now.
        self.advance(index, now, false, true, scope, handler);
    }

    /// The queued response's last byte hit the socket: record the
    /// response-write stage and finalize the request's trace — feed the
    /// stage histogram, and when the traced total crosses the
    /// `--slow-request-ms` threshold, emit one structured slow-log line
    /// and push the trace onto the in-memory ring (`GET /admin/trace`).
    fn note_response_written(&mut self, index: usize) {
        let conn = self.conn_mut(index);
        let write_ns = conn
            .write_start
            .take()
            .map_or(0, |start| trace::ns(start.elapsed()));
        let Some(mut rec) = conn.trace.take() else {
            return;
        };
        rec.stages_ns[Stage::ResponseWrite.index()] = write_ns;
        if write_ns > 0 {
            self.obs
                .metrics
                .stage(Stage::ResponseWrite)
                .record(write_ns);
        }
        if rec.total_ns() >= self.obs.slow_ns() {
            self.obs.metrics.slow_requests_total.inc();
            eprintln!("{}", rec.slow_log_line());
            self.obs.ring.push(*rec);
        }
    }

    /// Protocol failure: queue the 400, close once it is written.
    fn fail_request(&mut self, index: usize, now: Instant, message: &str) {
        let mut response = Response::error(400, message);
        response.close = true;
        let request_timeout = self.cfg.request_timeout;
        let conn = self.conn_mut(index);
        conn.queue_response(&response);
        conn.deadline = Some(now + request_timeout);
        match self.conn_mut(index).flush_write() {
            Err(_) | Ok(true) => self.close(index),
            Ok(false) => {
                if self.set_interest(index, false, true) {
                    self.arm_timer(index);
                }
            }
        }
    }

    /// Reconcile poller interest with what the connection needs now.
    /// Returns `false` if the connection had to be closed.
    fn set_interest(&mut self, index: usize, read: bool, write: bool) -> bool {
        let token = index + TOKEN_BASE;
        let Some(conn) = self.slots[index].conn.as_mut() else {
            return false;
        };
        if conn.want_read == read && conn.want_write == write {
            return true;
        }
        conn.want_read = read;
        conn.want_write = write;
        let fd = conn.stream.as_raw_fd();
        #[cfg(test)]
        self.obs.interest_changes.inc();
        if self.poller.modify(fd, token, read, write).is_ok() {
            true
        } else {
            self.close(index);
            false
        }
    }

    fn close(&mut self, index: usize) {
        let Some(conn) = self.slots[index].conn.take() else {
            return;
        };
        let _ = self.poller.deregister(conn.stream.as_raw_fd());
        self.slots[index].generation += 1;
        self.free.push(index);
        self.live -= 1;
        self.obs.metrics.connections_closed_total.inc();
        self.obs.metrics.connections_open.add(-1);
    }
}
