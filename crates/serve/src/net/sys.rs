//! Readiness notification on raw file descriptors, dependency-free.
//!
//! The workspace is offline, so instead of `mio` this module declares the
//! handful of libc symbols it needs directly (`std` already links libc on
//! every unix target) and wraps them in a minimal [`Poller`]:
//!
//! * on Linux, **epoll** — `epoll_create1`/`epoll_ctl`/`epoll_wait`,
//!   which scales to thousands of registered descriptors because the
//!   kernel returns only the ready ones;
//! * on every other unix, portable **`poll(2)`** over a maintained
//!   `pollfd` array — `O(fds)` per wait, fine at the scales a non-Linux
//!   dev machine runs. Test builds compile it on Linux too, so the same
//!   readiness tests run against both backends there.
//!
//! Both backends are level-triggered: a descriptor with unconsumed
//! readiness is reported again on the next wait, so the event loop never
//! needs edge-triggered draining discipline. Registration carries a
//! `usize` token that comes back verbatim in [`Event`]s; the caller owns
//! the token namespace (the event loop uses slab indices plus two
//! reserved values for the listener and the wake pipe).

use std::io;
use std::time::Duration;

/// One readiness report for a registered descriptor.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Event {
    /// The token the descriptor was registered under.
    pub token: usize,
    /// Data (or EOF) can be read without blocking.
    pub readable: bool,
    /// The send buffer has room again.
    pub writable: bool,
    /// Error or hang-up: the connection is beyond use.
    pub hangup: bool,
}

/// Clamp an optional wait budget to the millisecond `int` both backends
/// take: `None` blocks, milliseconds bounded to `i32::MAX`, and nonzero
/// budgets round *up* to at least 1 ms so a due timer is never spun on.
fn timeout_ms(timeout: Option<Duration>) -> i32 {
    match timeout {
        None => -1,
        Some(t) if t.is_zero() => 0,
        Some(t) => i32::try_from(t.as_millis())
            .unwrap_or(i32::MAX)
            .saturating_add(i32::from(t.subsec_nanos() % 1_000_000 != 0))
            .max(1),
    }
}

/// Retry a syscall while it reports `EINTR`.
fn retry_eintr(mut call: impl FnMut() -> i32) -> io::Result<i32> {
    loop {
        let rc = call();
        if rc >= 0 {
            return Ok(rc);
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
}

#[cfg(target_os = "linux")]
mod epoll {
    use super::{retry_eintr, timeout_ms, Event};
    use std::io;
    use std::os::fd::RawFd;
    use std::os::raw::c_int;
    use std::time::Duration;

    // x86/x86_64 define `struct epoll_event` packed; other architectures
    // use natural alignment. Getting this wrong corrupts the token.
    #[repr(C)]
    #[cfg_attr(any(target_arch = "x86", target_arch = "x86_64"), repr(packed))]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    const EPOLL_CLOEXEC: c_int = 0o2000000;
    const EPOLL_CTL_ADD: c_int = 1;
    const EPOLL_CTL_DEL: c_int = 2;
    const EPOLL_CTL_MOD: c_int = 3;
    const EPOLLIN: u32 = 0x1;
    const EPOLLOUT: u32 = 0x4;
    const EPOLLERR: u32 = 0x8;
    const EPOLLHUP: u32 = 0x10;
    const EPOLLRDHUP: u32 = 0x2000;

    extern "C" {
        fn epoll_create1(flags: c_int) -> c_int;
        fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
        fn close(fd: c_int) -> c_int;
    }

    /// Linux epoll instance. See the module docs for the contract.
    #[derive(Debug)]
    pub(crate) struct Poller {
        epfd: RawFd,
        buf: Vec<EpollEvent>,
    }

    impl std::fmt::Debug for EpollEvent {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.debug_struct("EpollEvent").finish_non_exhaustive()
        }
    }

    impl Poller {
        pub(crate) fn new() -> io::Result<Poller> {
            // SAFETY: plain syscall, no pointers.
            let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
            if epfd < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(Poller {
                epfd,
                buf: vec![EpollEvent { events: 0, data: 0 }; 1024],
            })
        }

        fn ctl(
            &self,
            op: c_int,
            fd: RawFd,
            token: usize,
            read: bool,
            write: bool,
        ) -> io::Result<()> {
            // RDHUP rides along with read interest only: a half-closed
            // peer must not generate events while the loop has reads
            // deliberately disabled (dispatch backpressure).
            let mut ev = EpollEvent {
                events: if read { EPOLLIN | EPOLLRDHUP } else { 0 }
                    | if write { EPOLLOUT } else { 0 },
                data: token as u64,
            };
            // SAFETY: `ev` outlives the call; the kernel copies it.
            retry_eintr(|| unsafe { epoll_ctl(self.epfd, op, fd, &mut ev) }).map(drop)
        }

        pub(crate) fn register(
            &mut self,
            fd: RawFd,
            token: usize,
            read: bool,
            write: bool,
        ) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd, token, read, write)
        }

        pub(crate) fn modify(
            &mut self,
            fd: RawFd,
            token: usize,
            read: bool,
            write: bool,
        ) -> io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, fd, token, read, write)
        }

        pub(crate) fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
            self.ctl(EPOLL_CTL_DEL, fd, 0, false, false)
        }

        pub(crate) fn wait(
            &mut self,
            out: &mut Vec<Event>,
            timeout: Option<Duration>,
        ) -> io::Result<()> {
            // SAFETY: `buf` is a live, properly sized allocation.
            let n = retry_eintr(|| unsafe {
                epoll_wait(
                    self.epfd,
                    self.buf.as_mut_ptr(),
                    self.buf.len() as c_int,
                    timeout_ms(timeout),
                )
            })? as usize;
            for ev in &self.buf[..n] {
                // Copy out of the (possibly packed) struct before use.
                let (events, data) = (ev.events, ev.data);
                out.push(Event {
                    token: data as usize,
                    readable: events & (EPOLLIN | EPOLLRDHUP) != 0,
                    writable: events & EPOLLOUT != 0,
                    hangup: events & (EPOLLERR | EPOLLHUP) != 0,
                });
            }
            if n == self.buf.len() {
                // Saturated wait: more descriptors may be ready than the
                // buffer holds. Grow so heavy fan-in amortizes to one wait.
                self.buf
                    .resize(self.buf.len() * 2, EpollEvent { events: 0, data: 0 });
            }
            Ok(())
        }
    }

    impl Drop for Poller {
        fn drop(&mut self) {
            // SAFETY: the fd is owned by this struct and closed once.
            unsafe { close(self.epfd) };
        }
    }
}

#[cfg(any(test, not(target_os = "linux")))]
mod poll {
    use super::{retry_eintr, timeout_ms, Event};
    use std::collections::HashMap;
    use std::io;
    use std::os::fd::RawFd;
    use std::os::raw::{c_int, c_short, c_ulong};
    use std::time::Duration;

    #[repr(C)]
    #[derive(Debug, Clone, Copy)]
    struct PollFd {
        fd: c_int,
        events: c_short,
        revents: c_short,
    }

    const POLLIN: c_short = 0x1;
    const POLLOUT: c_short = 0x4;
    const POLLERR: c_short = 0x8;
    const POLLHUP: c_short = 0x10;

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
    }

    /// Portable `poll(2)` fallback: a maintained `pollfd` array plus a
    /// parallel token array. `O(fds)` per wait — the non-Linux builds are
    /// dev machines, not the load-bearing deployment target.
    #[derive(Debug)]
    pub(crate) struct Poller {
        fds: Vec<PollFd>,
        tokens: Vec<usize>,
        index: HashMap<RawFd, usize>,
    }

    impl Poller {
        pub(crate) fn new() -> io::Result<Poller> {
            Ok(Poller {
                fds: Vec::new(),
                tokens: Vec::new(),
                index: HashMap::new(),
            })
        }

        fn events_mask(read: bool, write: bool) -> c_short {
            (if read { POLLIN } else { 0 }) | (if write { POLLOUT } else { 0 })
        }

        pub(crate) fn register(
            &mut self,
            fd: RawFd,
            token: usize,
            read: bool,
            write: bool,
        ) -> io::Result<()> {
            if self.index.contains_key(&fd) {
                return Err(io::Error::new(
                    io::ErrorKind::AlreadyExists,
                    "fd registered",
                ));
            }
            self.index.insert(fd, self.fds.len());
            self.fds.push(PollFd {
                fd,
                events: Self::events_mask(read, write),
                revents: 0,
            });
            self.tokens.push(token);
            Ok(())
        }

        pub(crate) fn modify(
            &mut self,
            fd: RawFd,
            token: usize,
            read: bool,
            write: bool,
        ) -> io::Result<()> {
            let &i = self
                .index
                .get(&fd)
                .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "fd not registered"))?;
            self.fds[i].events = Self::events_mask(read, write);
            self.tokens[i] = token;
            Ok(())
        }

        pub(crate) fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
            let i = self
                .index
                .remove(&fd)
                .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "fd not registered"))?;
            self.fds.swap_remove(i);
            self.tokens.swap_remove(i);
            if i < self.fds.len() {
                self.index.insert(self.fds[i].fd, i);
            }
            Ok(())
        }

        pub(crate) fn wait(
            &mut self,
            out: &mut Vec<Event>,
            timeout: Option<Duration>,
        ) -> io::Result<()> {
            for fd in &mut self.fds {
                fd.revents = 0;
            }
            // SAFETY: the array is live and its length is exact.
            retry_eintr(|| unsafe {
                poll(
                    self.fds.as_mut_ptr(),
                    self.fds.len() as c_ulong,
                    timeout_ms(timeout),
                )
            })?;
            for (fd, &token) in self.fds.iter().zip(&self.tokens) {
                if fd.revents == 0 {
                    continue;
                }
                out.push(Event {
                    token,
                    readable: fd.revents & (POLLIN | POLLHUP) != 0,
                    writable: fd.revents & POLLOUT != 0,
                    hangup: fd.revents & (POLLERR | POLLHUP) != 0,
                });
            }
            Ok(())
        }
    }
}

#[cfg(target_os = "linux")]
pub(crate) use epoll::Poller;
#[cfg(not(target_os = "linux"))]
pub(crate) use poll::Poller;

#[cfg(test)]
mod tests {
    /// The readiness checks, instantiated once per backend so the
    /// `poll(2)` fallback runs on Linux next to epoll.
    macro_rules! backend_checks {
        ($backend:ident) => {
            mod $backend {
                use super::super::$backend::Poller;
                use std::io::Write;
                use std::os::fd::AsRawFd;
                use std::os::unix::net::UnixStream;
                use std::time::{Duration, Instant};

                pub(super) fn readability_and_timeout() {
                    let mut poller = Poller::new().unwrap();
                    let (a, b) = UnixStream::pair().unwrap();
                    a.set_nonblocking(true).unwrap();
                    poller.register(a.as_raw_fd(), 7, true, false).unwrap();

                    // Nothing pending: the wait honours its timeout.
                    let mut events = Vec::new();
                    let t = Instant::now();
                    poller
                        .wait(&mut events, Some(Duration::from_millis(30)))
                        .unwrap();
                    assert!(events.is_empty());
                    assert!(t.elapsed() >= Duration::from_millis(25));

                    // A byte arrives: readable, with the registered token.
                    (&b).write_all(b"x").unwrap();
                    poller
                        .wait(&mut events, Some(Duration::from_secs(5)))
                        .unwrap();
                    assert_eq!(events.len(), 1);
                    assert_eq!(events[0].token, 7);
                    assert!(events[0].readable);

                    poller.deregister(a.as_raw_fd()).unwrap();
                    poller
                        .wait(&mut events.split_off(0), Some(Duration::from_millis(1)))
                        .unwrap();
                }

                pub(super) fn writability_only_when_asked() {
                    let mut poller = Poller::new().unwrap();
                    let (a, _b) = UnixStream::pair().unwrap();
                    a.set_nonblocking(true).unwrap();
                    poller.register(a.as_raw_fd(), 3, true, false).unwrap();
                    let mut events = Vec::new();
                    poller
                        .wait(&mut events, Some(Duration::from_millis(5)))
                        .unwrap();
                    assert!(events.iter().all(|e| !e.writable));

                    // An empty send buffer is immediately writable once
                    // registered.
                    poller.modify(a.as_raw_fd(), 3, true, true).unwrap();
                    events.clear();
                    poller
                        .wait(&mut events, Some(Duration::from_secs(5)))
                        .unwrap();
                    assert!(events.iter().any(|e| e.token == 3 && e.writable));
                }
            }
        };
    }

    #[cfg(target_os = "linux")]
    backend_checks!(epoll);
    backend_checks!(poll);

    #[test]
    fn poller_reports_readability_and_timeout() {
        #[cfg(target_os = "linux")]
        epoll::readability_and_timeout();
        poll::readability_and_timeout();
    }

    #[test]
    fn poller_reports_writability_only_when_asked() {
        #[cfg(target_os = "linux")]
        epoll::writability_only_when_asked();
        poll::writability_only_when_asked();
    }
}
