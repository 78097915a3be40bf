#![warn(missing_docs)]

//! Offline stand-in for readiness polling: one registration-style
//! [`Poller`] over the platform's readiness syscall, plus the
//! `getrlimit`/`setrlimit` pair the file-descriptor-heavy benchmarks
//! need. Like every other shim in this workspace it links nothing beyond
//! libc symbols the Rust standard library already pulls in — no
//! crates.io access required.
//!
//! The API is deliberately tiny:
//!
//! - [`Poller`] — register each fd once under a caller-chosen token,
//!   adjust its interest when it changes, and [`Poller::wait`] returns
//!   the tokens of the ready fds. On Linux it is `epoll(7)`: the kernel
//!   holds the interest set, so a wakeup costs O(ready fds) however many
//!   idle connections are registered. Elsewhere it is a `poll(2)` set
//!   kept in user space — the only readiness primitive those platforms
//!   have here. The platform picks; there is no selector.
//! - [`wait_writable`] — a single-fd convenience for code that may block
//!   on one socket (the shutdown drain flushing a final response to a
//!   nonblocking fd);
//! - [`raise_nofile_limit`] / [`nofile_limit`] — `RLIMIT_NOFILE`
//!   introspection so a 10k-connection experiment can size itself to what
//!   the process may actually open;
//! - [`set_send_buffer`] — `SO_SNDBUF` clamping, so tests exercising the
//!   write-stall path can shrink a socket's kernel buffering from
//!   megabytes (auto-tuned loopback) to something a slow subscriber
//!   fills in milliseconds.
//!
//! Only Unix is supported (the rest of the workspace's serving layer is
//! `std::net` + raw fds); on other platforms every call returns
//! [`std::io::ErrorKind::Unsupported`].

use std::io;

/// Raw file descriptor.
pub type Fd = i32;

/// Readable data is available (or a listener has a pending connection).
pub const POLLIN: i16 = 0x001;
/// Writing is possible without blocking.
pub const POLLOUT: i16 = 0x004;
/// Error condition (ready events only).
pub const POLLERR: i16 = 0x008;
/// Peer hung up (ready events only).
pub const POLLHUP: i16 = 0x010;
/// Fd is not open (ready events only).
pub const POLLNVAL: i16 = 0x020;

/// One ready notification from [`Poller::wait`]: the token the fd was
/// registered under plus its ready condition.
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The caller-chosen token passed to [`Poller::add`].
    pub token: u64,
    /// Ready mask in [`POLLIN`]/[`POLLOUT`]/[`POLLERR`]/[`POLLHUP`] terms.
    pub events: i16,
}

impl Event {
    /// Whether any of `mask` is ready.
    pub fn ready(&self, mask: i16) -> bool {
        self.events & mask != 0
    }

    /// Whether the fd reported an error/hangup/invalid condition.
    pub fn failed(&self) -> bool {
        self.events & (POLLERR | POLLHUP | POLLNVAL) != 0
    }
}

/// A registration-based readiness set.
///
/// Register each fd once with [`add`](Poller::add) under a caller-chosen
/// token, adjust interest with [`modify`](Poller::modify) when it changes,
/// and [`wait`](Poller::wait) reports only the registrations with pending
/// events. Level-triggered: a readable fd keeps reporting readable until
/// drained. Error and hangup conditions are reported even for an empty
/// interest mask.
///
/// Deregister with [`delete`](Poller::delete) *before* closing a
/// registered fd. epoll tracks the open file description, not the fd
/// number, so a `try_clone`d socket would otherwise keep the registration
/// — and its token — alive after the registered fd is closed.
pub struct Poller {
    inner: platform::Poller,
}

impl Poller {
    /// The readiness syscall behind [`Poller`] on this platform
    /// (`"epoll"` or `"poll"`).
    pub const NAME: &'static str = platform::NAME;

    /// Creates an empty readiness set.
    pub fn new() -> io::Result<Poller> {
        Ok(Poller {
            inner: platform::Poller::new()?,
        })
    }

    /// Registers `fd` for `interest` ([`POLLIN`] | [`POLLOUT`]) under
    /// `token`.
    pub fn add(&self, fd: Fd, interest: i16, token: u64) -> io::Result<()> {
        self.inner.add(fd, interest, token)
    }

    /// Replaces the interest mask and token of an already-registered `fd`.
    pub fn modify(&self, fd: Fd, interest: i16, token: u64) -> io::Result<()> {
        self.inner.modify(fd, interest, token)
    }

    /// Removes `fd` from the readiness set.
    pub fn delete(&self, fd: Fd) -> io::Result<()> {
        self.inner.delete(fd)
    }

    /// Blocks up to `timeout_ms` (negative = forever, 0 = probe) and
    /// appends one [`Event`] per ready registration to `out` (cleared
    /// first). Returns how many were ready. `EINTR` is retried.
    pub fn wait(&self, out: &mut Vec<Event>, timeout_ms: i32) -> io::Result<usize> {
        self.inner.wait(out, timeout_ms)
    }
}

#[cfg(target_os = "linux")]
use epoll as platform;
#[cfg(not(target_os = "linux"))]
use poll_set as platform;

/// Linux `epoll(7)`: the kernel holds the interest set.
#[cfg(target_os = "linux")]
mod epoll {
    use super::{Event, Fd, POLLERR, POLLHUP, POLLIN, POLLOUT};
    use std::io;

    pub const NAME: &str = "epoll";

    const EPOLL_CTL_ADD: i32 = 1;
    const EPOLL_CTL_DEL: i32 = 2;
    const EPOLL_CTL_MOD: i32 = 3;

    const EPOLL_CLOEXEC: i32 = 0o2000000;
    const EPOLLIN: u32 = 0x001;
    const EPOLLOUT: u32 = 0x004;
    const EPOLLERR: u32 = 0x008;
    const EPOLLHUP: u32 = 0x010;

    /// The kernel's `struct epoll_event`: packed on x86-64 (the original
    /// i386 layout was kept for compat), naturally aligned elsewhere.
    #[repr(C)]
    #[cfg_attr(target_arch = "x86_64", repr(packed))]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    extern "C" {
        fn epoll_create1(flags: i32) -> i32;
        fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
        fn close(fd: i32) -> i32;
    }

    fn to_epoll_mask(events: i16) -> u32 {
        let mut m = 0u32;
        if events & POLLIN != 0 {
            m |= EPOLLIN;
        }
        if events & POLLOUT != 0 {
            m |= EPOLLOUT;
        }
        m
    }

    fn from_epoll_mask(events: u32) -> i16 {
        let mut m = 0i16;
        if events & EPOLLIN != 0 {
            m |= POLLIN;
        }
        if events & EPOLLOUT != 0 {
            m |= POLLOUT;
        }
        if events & EPOLLERR != 0 {
            m |= POLLERR;
        }
        if events & EPOLLHUP != 0 {
            m |= POLLHUP;
        }
        m
    }

    pub struct Poller {
        epfd: i32,
        /// Reused kernel-facing event buffer (behind a lock only because
        /// `wait` takes `&self`; the event loop is single-threaded).
        buf: std::sync::Mutex<Vec<EpollEvent>>,
    }

    impl Poller {
        pub fn new() -> io::Result<Poller> {
            let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
            if epfd < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(Poller {
                epfd,
                buf: std::sync::Mutex::new(vec![EpollEvent { events: 0, data: 0 }; 256]),
            })
        }

        pub fn add(&self, fd: Fd, interest: i16, token: u64) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd, interest, token)
        }

        pub fn modify(&self, fd: Fd, interest: i16, token: u64) -> io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, fd, interest, token)
        }

        pub fn delete(&self, fd: Fd) -> io::Result<()> {
            self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
        }

        fn ctl(&self, op: i32, fd: Fd, events: i16, token: u64) -> io::Result<()> {
            let mut ev = EpollEvent {
                events: to_epoll_mask(events),
                data: token,
            };
            let rc = unsafe { epoll_ctl(self.epfd, op, fd, &mut ev) };
            if rc != 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        pub fn wait(&self, out: &mut Vec<Event>, timeout_ms: i32) -> io::Result<usize> {
            out.clear();
            let mut buf = self.buf.lock().unwrap_or_else(|p| p.into_inner());
            loop {
                let rc = unsafe {
                    epoll_wait(self.epfd, buf.as_mut_ptr(), buf.len() as i32, timeout_ms)
                };
                if rc >= 0 {
                    let n = rc as usize;
                    for ev in &buf[..n] {
                        out.push(Event {
                            token: ev.data,
                            events: from_epoll_mask(ev.events),
                        });
                    }
                    // A full buffer means more may be pending; grow so the
                    // next wait drains larger ready sets in one call.
                    if n == buf.len() {
                        let len = buf.len() * 2;
                        buf.resize(len, EpollEvent { events: 0, data: 0 });
                    }
                    return Ok(n);
                }
                let err = io::Error::last_os_error();
                if err.kind() != io::ErrorKind::Interrupted {
                    return Err(err);
                }
            }
        }
    }

    impl Drop for Poller {
        fn drop(&mut self) {
            unsafe {
                close(self.epfd);
            }
        }
    }
}

/// Portable `poll(2)`: the interest set lives in user space and the
/// kernel scans all of it on every wait — O(registered fds) per wakeup.
/// Compiled on Linux for tests only, so the readiness contract keeps
/// coverage there.
#[cfg(any(test, not(target_os = "linux")))]
mod poll_set {
    use super::{sys, Event, Fd, PollFd};
    use std::io;
    use std::sync::Mutex;

    #[cfg_attr(target_os = "linux", allow(dead_code))]
    pub const NAME: &str = "poll";

    pub struct Poller {
        /// `fds[i]` is registered under `tokens[i]`.
        set: Mutex<(Vec<PollFd>, Vec<u64>)>,
    }

    impl Poller {
        pub fn new() -> io::Result<Poller> {
            Ok(Poller {
                set: Mutex::new((Vec::new(), Vec::new())),
            })
        }

        fn position(fds: &[PollFd], fd: Fd) -> io::Result<usize> {
            fds.iter()
                .position(|p| p.fd == fd)
                .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "fd is not registered"))
        }

        pub fn add(&self, fd: Fd, interest: i16, token: u64) -> io::Result<()> {
            let mut set = self.set.lock().unwrap_or_else(|p| p.into_inner());
            if set.0.iter().any(|p| p.fd == fd) {
                return Err(io::Error::new(
                    io::ErrorKind::AlreadyExists,
                    "fd is already registered",
                ));
            }
            set.0.push(PollFd::new(fd, interest));
            set.1.push(token);
            Ok(())
        }

        pub fn modify(&self, fd: Fd, interest: i16, token: u64) -> io::Result<()> {
            let mut set = self.set.lock().unwrap_or_else(|p| p.into_inner());
            let i = Self::position(&set.0, fd)?;
            set.0[i].events = interest;
            set.1[i] = token;
            Ok(())
        }

        pub fn delete(&self, fd: Fd) -> io::Result<()> {
            let mut set = self.set.lock().unwrap_or_else(|p| p.into_inner());
            let i = Self::position(&set.0, fd)?;
            set.0.swap_remove(i);
            set.1.swap_remove(i);
            Ok(())
        }

        pub fn wait(&self, out: &mut Vec<Event>, timeout_ms: i32) -> io::Result<usize> {
            out.clear();
            let mut set = self.set.lock().unwrap_or_else(|p| p.into_inner());
            let (fds, tokens) = &mut *set;
            sys::poll(fds, timeout_ms)?;
            out.extend(
                fds.iter()
                    .zip(tokens.iter())
                    .filter(|(p, _)| p.revents != 0)
                    .map(|(p, &token)| Event {
                        token,
                        events: p.revents,
                    }),
            );
            Ok(out.len())
        }
    }
}

/// One entry of a `poll(2)` interest set, layout-compatible with the
/// kernel's `struct pollfd`.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
struct PollFd {
    fd: Fd,
    events: i16,
    revents: i16,
}

impl PollFd {
    fn new(fd: Fd, events: i16) -> PollFd {
        PollFd {
            fd,
            events,
            revents: 0,
        }
    }
}

#[cfg(unix)]
mod sys {
    use super::PollFd;
    use std::io;

    /// `nfds_t`: `unsigned long` per POSIX (glibc/musl), but `unsigned
    /// int` on Darwin — a fixed `u64` would be an ABI mismatch on 32-bit
    /// Unix targets.
    #[cfg(target_os = "macos")]
    type NFds = u32;
    #[cfg(not(target_os = "macos"))]
    type NFds = std::os::raw::c_ulong;

    /// `rlim_t`: 64-bit on every supported target except 32-bit glibc,
    /// where the plain `getrlimit`/`setrlimit` symbols take the 32-bit
    /// `unsigned long` flavor.
    #[cfg(all(target_env = "gnu", target_pointer_width = "32"))]
    type RLim = std::os::raw::c_ulong;
    #[cfg(not(all(target_env = "gnu", target_pointer_width = "32")))]
    type RLim = u64;

    extern "C" {
        #[link_name = "poll"]
        fn poll_syscall(fds: *mut PollFd, nfds: NFds, timeout: i32) -> i32;
        fn getrlimit(resource: i32, rlim: *mut RLimit) -> i32;
        fn setrlimit(resource: i32, rlim: *const RLimit) -> i32;
        fn setsockopt(
            fd: i32,
            level: i32,
            optname: i32,
            optval: *const std::os::raw::c_void,
            optlen: u32,
        ) -> i32;
    }

    #[cfg(target_os = "macos")]
    const SOL_SOCKET: i32 = 0xffff;
    #[cfg(not(target_os = "macos"))]
    const SOL_SOCKET: i32 = 1;
    #[cfg(target_os = "macos")]
    const SO_SNDBUF: i32 = 0x1001;
    #[cfg(not(target_os = "macos"))]
    const SO_SNDBUF: i32 = 7;

    pub fn set_send_buffer(fd: i32, bytes: usize) -> io::Result<()> {
        let val = i32::try_from(bytes).unwrap_or(i32::MAX);
        let rc = unsafe {
            setsockopt(
                fd,
                SOL_SOCKET,
                SO_SNDBUF,
                (&val as *const i32).cast(),
                std::mem::size_of::<i32>() as u32,
            )
        };
        if rc != 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    #[repr(C)]
    struct RLimit {
        cur: RLim,
        max: RLim,
    }

    fn to_rlim(v: u64) -> RLim {
        RLim::try_from(v).unwrap_or(RLim::MAX)
    }

    // The cast is lossless on 64-bit targets and widening on 32-bit glibc.
    #[allow(clippy::unnecessary_cast)]
    fn from_rlim(v: RLim) -> u64 {
        v as u64
    }

    #[cfg(target_os = "macos")]
    const RLIMIT_NOFILE: i32 = 8;
    #[cfg(not(target_os = "macos"))]
    const RLIMIT_NOFILE: i32 = 7;

    /// One `poll(2)` sweep over `fds`: blocks up to `timeout_ms` and
    /// returns how many entries have non-zero `revents`.
    pub fn poll(fds: &mut [PollFd], timeout_ms: i32) -> io::Result<usize> {
        loop {
            let rc = unsafe { poll_syscall(fds.as_mut_ptr(), fds.len() as NFds, timeout_ms) };
            if rc >= 0 {
                return Ok(rc as usize);
            }
            let err = io::Error::last_os_error();
            // EINTR: retry without adjusting the timeout — callers that
            // care about deadlines recompute them per iteration anyway.
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        }
    }

    pub fn nofile_limit() -> io::Result<(u64, u64)> {
        let mut lim = RLimit { cur: 0, max: 0 };
        if unsafe { getrlimit(RLIMIT_NOFILE, &mut lim) } != 0 {
            return Err(io::Error::last_os_error());
        }
        Ok((from_rlim(lim.cur), from_rlim(lim.max)))
    }

    pub fn raise_nofile_limit(want: u64) -> io::Result<u64> {
        let (cur, max) = nofile_limit()?;
        if cur >= want {
            return Ok(cur);
        }
        // Try the full ask first (root may raise the hard limit), then
        // fall back to the current hard limit.
        for target in [want.max(max), max] {
            let lim = RLimit {
                cur: to_rlim(want.min(target)),
                max: to_rlim(target),
            };
            if unsafe { setrlimit(RLIMIT_NOFILE, &lim) } == 0 {
                return Ok(from_rlim(lim.cur));
            }
        }
        Ok(cur)
    }
}

#[cfg(not(unix))]
mod sys {
    use super::PollFd;
    use std::io;

    fn unsupported<T>() -> io::Result<T> {
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "polling shim supports Unix only",
        ))
    }

    pub fn poll(_fds: &mut [PollFd], _timeout_ms: i32) -> io::Result<usize> {
        unsupported()
    }

    pub fn nofile_limit() -> io::Result<(u64, u64)> {
        unsupported()
    }

    pub fn raise_nofile_limit(_want: u64) -> io::Result<u64> {
        unsupported()
    }

    pub fn set_send_buffer(_fd: i32, _bytes: usize) -> io::Result<()> {
        unsupported()
    }
}

/// Blocks until `fd` is writable (or error/hangup). `Ok(false)` = timeout.
pub fn wait_writable(fd: Fd, timeout_ms: i32) -> io::Result<bool> {
    let n = sys::poll(&mut [PollFd::new(fd, POLLOUT)], timeout_ms)?;
    // POLLERR/POLLHUP count as "ready": the next write surfaces the real
    // error instead of this call guessing at it.
    Ok(n > 0)
}

/// The process's `RLIMIT_NOFILE` as `(soft, hard)`.
pub fn nofile_limit() -> io::Result<(u64, u64)> {
    sys::nofile_limit()
}

/// Best-effort raise of the soft (and, when permitted, hard)
/// `RLIMIT_NOFILE` toward `want`; returns the soft limit now in effect.
/// Never lowers the limit.
pub fn raise_nofile_limit(want: u64) -> io::Result<u64> {
    sys::raise_nofile_limit(want)
}

/// Requests a kernel send-buffer size (`SO_SNDBUF`) for `fd`. The kernel
/// may round the value (Linux doubles it and enforces a floor); the point
/// is shrinking multi-megabyte auto-tuned buffers down to a bounded size,
/// not hitting an exact byte count.
pub fn set_send_buffer(fd: Fd, bytes: usize) -> io::Result<()> {
    sys::set_send_buffer(fd, bytes)
}

#[cfg(all(test, unix))]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::{TcpListener, TcpStream};
    use std::os::unix::io::AsRawFd;

    fn pair(listener: &TcpListener) -> (TcpStream, TcpStream) {
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        (client, server)
    }

    /// The readiness contract every backend honours, one body per
    /// backend: only ready registrations are reported, `modify` replaces
    /// interest and token, hangup is reported, and after `delete` a
    /// still-open dup of the fd is never reported again.
    macro_rules! readiness_contract {
        ($($(#[$attr:meta])* $name:ident: $backend:path;)*) => {$(
            #[test]
            $(#[$attr])*
            fn $name() {
                use $backend as backend;
                let p = backend::Poller::new().unwrap();
                let listener = TcpListener::bind("127.0.0.1:0").unwrap();
                let (mut a_client, a_srv) = pair(&listener);
                let (b_client, b_srv) = pair(&listener);
                p.add(a_srv.as_raw_fd(), POLLIN, 10).unwrap();
                p.add(b_srv.as_raw_fd(), POLLIN, 20).unwrap();

                // Nothing sent: a zero-timeout probe finds nothing.
                let mut events = Vec::new();
                assert_eq!(p.wait(&mut events, 0).unwrap(), 0);

                // Only the ready registration is reported.
                a_client.write_all(b"hello").unwrap();
                assert_eq!(p.wait(&mut events, 2_000).unwrap(), 1);
                assert_eq!(events[0].token, 10);
                assert!(events[0].ready(POLLIN));

                // `modify` is honoured: POLLOUT on b, under a new token, is
                // ready at once (its send buffer is empty).
                p.modify(b_srv.as_raw_fd(), POLLIN | POLLOUT, 21).unwrap();
                assert_eq!(p.wait(&mut events, 2_000).unwrap(), 2);
                let b_ev = events.iter().find(|e| e.token == 21).unwrap();
                assert!(b_ev.ready(POLLOUT) && !b_ev.ready(POLLIN));

                // After `delete`, a's pending data is never reported again,
                // even through a dup that keeps the socket open after the
                // registered fd is closed.
                let a_dup = a_srv.try_clone().unwrap();
                p.delete(a_srv.as_raw_fd()).unwrap();
                drop(a_srv);
                p.modify(b_srv.as_raw_fd(), POLLIN, 22).unwrap();
                assert_eq!(p.wait(&mut events, 100).unwrap(), 0, "{events:?}");

                // Hangup is reported (EOF shows as POLLIN and/or POLLHUP).
                drop(b_client);
                assert_eq!(p.wait(&mut events, 2_000).unwrap(), 1);
                assert_eq!(events[0].token, 22);
                assert!(events[0].ready(POLLIN) || events[0].failed());
                drop(a_dup);
            }
        )*};
    }

    readiness_contract! {
        #[cfg(target_os = "linux")]
        epoll_honours_the_readiness_contract: super::epoll;
        poll_set_honours_the_readiness_contract: super::poll_set;
    }

    #[test]
    fn poller_is_the_platform_backend() {
        let expect = if cfg!(target_os = "linux") {
            "epoll"
        } else {
            "poll"
        };
        assert_eq!(Poller::NAME, expect);
        Poller::new().unwrap();
    }

    #[test]
    fn wait_writable_sees_an_empty_send_buffer() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let (client, _server) = pair(&listener);
        assert!(wait_writable(client.as_raw_fd(), 2_000).unwrap());
    }

    #[test]
    fn nofile_limit_is_sane_and_raise_never_lowers() {
        let (soft, hard) = nofile_limit().unwrap();
        assert!(soft > 0 && hard >= soft);
        let now = raise_nofile_limit(soft).unwrap();
        assert!(now >= soft);
    }

    #[test]
    fn send_buffer_can_be_shrunk() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        set_send_buffer(client.as_raw_fd(), 8 * 1024).unwrap();
        // A bogus fd must surface the OS error, not be swallowed.
        assert!(set_send_buffer(-1, 8 * 1024).is_err());
    }
}
