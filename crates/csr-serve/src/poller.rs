//! A minimal readiness poller: epoll on Linux, kqueue on BSD/macOS.
//!
//! This is the one place in the library crates that talks to the kernel
//! directly — the FFI is confined here the same way the daemon confines
//! its `signal(2)` handler, and the crate root keeps `#![deny(unsafe_code)]`
//! with a module-local allowance. Everything above this module (the
//! engine, the server) is safe Rust over three primitives:
//!
//! * [`Poller::register`]/[`Poller::deregister`] — level-triggered
//!   interest in a socket's readability, keyed by a caller-chosen `u64`
//!   token;
//! * [`Poller::wait`] — block until something is ready (or a timeout);
//! * [`Poller::wake`] — thread-safe cross-thread wake-up (an `eventfd`
//!   on Linux, an `EVFILT_USER` event on kqueue), surfaced to the waiter
//!   as an event carrying [`WAKE_TOKEN`].
//!
//! Level-triggered semantics are deliberate: a socket parked with bytes
//! already waiting is reported on the next wait, so parking never has
//! to race the peer.
#![allow(unsafe_code)]

/// The token [`Poller::wait`] reports for [`Poller::wake`] wake-ups.
/// Callers must not register sockets under this token.
pub const WAKE_TOKEN: u64 = u64::MAX;

/// One readiness event out of [`Poller::wait`].
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The token the fd was registered under ([`WAKE_TOKEN`] for wakes).
    pub token: u64,
    /// The fd is readable (data, EOF, or a pending accept).
    pub readable: bool,
    /// The peer shut down its write side (FIN): drain with `read` —
    /// buffered data and a clean EOF are still there to collect.
    pub hangup: bool,
    /// The fd errored or fully hung up (RST, both halves gone). Reported
    /// regardless of registered interest; the connection is dead.
    pub error: bool,
}

pub use imp::Poller;

#[cfg(any(target_os = "linux", target_os = "android"))]
mod imp {
    use super::{Event, WAKE_TOKEN};
    use std::io;
    use std::os::fd::RawFd;
    use std::time::Duration;

    // The glibc epoll surface, declared by hand: the workspace is
    // dependency-free, so no libc crate. Signatures match `sys/epoll.h`
    // and `sys/eventfd.h`.
    extern "C" {
        fn epoll_create1(flags: i32) -> i32;
        fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout_ms: i32) -> i32;
        fn eventfd(initval: u32, flags: i32) -> i32;
        fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
        fn write(fd: i32, buf: *const u8, count: usize) -> isize;
        fn close(fd: i32) -> i32;
    }

    const EPOLL_CLOEXEC: i32 = 0x8_0000;
    const EPOLL_CTL_ADD: i32 = 1;
    const EPOLL_CTL_DEL: i32 = 2;
    const EPOLLIN: u32 = 0x1;
    const EPOLLERR: u32 = 0x8;
    const EPOLLHUP: u32 = 0x10;
    const EPOLLRDHUP: u32 = 0x2000;
    const EFD_NONBLOCK: i32 = 0x800;
    const EFD_CLOEXEC: i32 = 0x8_0000;

    /// `struct epoll_event`: packed on x86-64 (the kernel ABI), natural
    /// layout elsewhere — mirroring glibc's `__EPOLL_PACKED`.
    #[repr(C)]
    #[cfg_attr(target_arch = "x86_64", repr(packed))]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    /// The epoll-backed poller (see module docs for the contract).
    #[derive(Debug)]
    pub struct Poller {
        epfd: RawFd,
        wakefd: RawFd,
    }

    impl Poller {
        /// Creates the epoll instance and its wake `eventfd`.
        ///
        /// # Errors
        ///
        /// Propagates kernel failures (fd exhaustion, mostly).
        pub fn new() -> io::Result<Poller> {
            let epfd = check(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
            let wakefd = match check(unsafe { eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC) }) {
                Ok(fd) => fd,
                Err(e) => {
                    unsafe { close(epfd) };
                    return Err(e);
                }
            };
            let poller = Poller { epfd, wakefd };
            poller.register(wakefd, WAKE_TOKEN)?;
            Ok(poller)
        }

        /// Starts watching `fd` for readability under `token`
        /// (level-triggered; `EPOLLRDHUP` reports the peer's FIN).
        ///
        /// # Errors
        ///
        /// Propagates `epoll_ctl` failures (e.g. the fd is already
        /// registered).
        pub fn register(&self, fd: RawFd, token: u64) -> io::Result<()> {
            let mut ev = EpollEvent {
                events: EPOLLIN | EPOLLRDHUP,
                data: token,
            };
            check(unsafe { epoll_ctl(self.epfd, EPOLL_CTL_ADD, fd, &mut ev) }).map(|_| ())
        }

        /// Stops watching `fd`.
        ///
        /// # Errors
        ///
        /// Propagates `epoll_ctl` failures (e.g. the fd was never
        /// registered).
        pub fn deregister(&self, fd: RawFd) -> io::Result<()> {
            let mut ev = EpollEvent { events: 0, data: 0 };
            check(unsafe { epoll_ctl(self.epfd, EPOLL_CTL_DEL, fd, &mut ev) }).map(|_| ())
        }

        /// Blocks until readiness or `timeout` (`None`: forever), pushing
        /// events into `out` (which is cleared first). Wake-ups appear as
        /// a readable event with [`WAKE_TOKEN`] and are drained here, so
        /// one `wake` never spins the caller.
        ///
        /// # Errors
        ///
        /// Propagates `epoll_wait` failures; `EINTR` is retried
        /// internally.
        pub fn wait(&self, out: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<usize> {
            out.clear();
            let timeout_ms = timeout.map_or(-1i32, |d| {
                i32::try_from(d.as_millis()).unwrap_or(i32::MAX).max(
                    // Round sub-millisecond timeouts up, not down to a
                    // busy-spin.
                    i32::from(!d.is_zero()),
                )
            });
            let mut buf = [EpollEvent { events: 0, data: 0 }; 256];
            let n = loop {
                let n = unsafe {
                    epoll_wait(self.epfd, buf.as_mut_ptr(), buf.len() as i32, timeout_ms)
                };
                match check(n) {
                    Ok(n) => break n as usize,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(e) => return Err(e),
                }
            };
            for ev in &buf[..n] {
                let (bits, token) = (ev.events, ev.data);
                if token == WAKE_TOKEN {
                    self.drain_wake();
                }
                out.push(Event {
                    token,
                    readable: bits & (EPOLLIN | EPOLLRDHUP) != 0,
                    hangup: bits & EPOLLRDHUP != 0,
                    error: bits & (EPOLLERR | EPOLLHUP) != 0,
                });
            }
            Ok(n)
        }

        /// Wakes one concurrent (or the next) [`wait`](Self::wait).
        /// Thread-safe; coalesces with outstanding wakes.
        pub fn wake(&self) {
            let one = 1u64.to_ne_bytes();
            // A full eventfd counter (EAGAIN) already guarantees the
            // waiter will wake; nothing to do on error.
            let _ = unsafe { write(self.wakefd, one.as_ptr(), one.len()) };
        }

        fn drain_wake(&self) {
            let mut buf = [0u8; 8];
            // Nonblocking read resets the counter; EAGAIN means another
            // thread already drained it.
            let _ = unsafe { read(self.wakefd, buf.as_mut_ptr(), buf.len()) };
        }
    }

    impl Drop for Poller {
        fn drop(&mut self) {
            unsafe {
                close(self.wakefd);
                close(self.epfd);
            }
        }
    }

    fn check(ret: i32) -> io::Result<i32> {
        if ret < 0 {
            Err(io::Error::last_os_error())
        } else {
            Ok(ret)
        }
    }
}

#[cfg(any(target_os = "macos", target_os = "ios", target_os = "freebsd"))]
mod imp {
    use super::{Event, WAKE_TOKEN};
    use std::io;
    use std::os::fd::RawFd;
    use std::ptr;
    use std::time::Duration;

    extern "C" {
        fn kqueue() -> i32;
        fn kevent(
            kq: i32,
            changelist: *const KEvent,
            nchanges: i32,
            eventlist: *mut KEvent,
            nevents: i32,
            timeout: *const Timespec,
        ) -> i32;
        fn close(fd: i32) -> i32;
    }

    #[repr(C)]
    struct Timespec {
        tv_sec: isize,
        tv_nsec: isize,
    }

    /// `struct kevent`; FreeBSD ≥ 12 appends an `ext` array.
    #[repr(C)]
    #[derive(Clone, Copy)]
    struct KEvent {
        ident: usize,
        filter: i16,
        flags: u16,
        fflags: u32,
        #[cfg(target_os = "freebsd")]
        data: i64,
        #[cfg(not(target_os = "freebsd"))]
        data: isize,
        udata: usize,
        #[cfg(target_os = "freebsd")]
        ext: [u64; 4],
    }

    const EVFILT_READ: i16 = -1;
    #[cfg(target_os = "freebsd")]
    const EVFILT_USER: i16 = -11;
    #[cfg(not(target_os = "freebsd"))]
    const EVFILT_USER: i16 = -10;
    const EV_ADD: u16 = 0x1;
    const EV_DELETE: u16 = 0x2;
    const EV_ENABLE: u16 = 0x4;
    const EV_CLEAR: u16 = 0x20;
    const EV_ERROR: u16 = 0x4000;
    const EV_EOF: u16 = 0x8000;
    const NOTE_TRIGGER: u32 = 0x0100_0000;

    /// The kqueue-backed poller (see module docs for the contract).
    #[derive(Debug)]
    pub struct Poller {
        kq: RawFd,
    }

    impl Poller {
        /// Creates the kqueue and arms the `EVFILT_USER` wake filter.
        ///
        /// # Errors
        ///
        /// Propagates kernel failures.
        pub fn new() -> io::Result<Poller> {
            let kq = check(unsafe { kqueue() })?;
            let poller = Poller { kq };
            poller.change(&[kev(
                0,
                EVFILT_USER,
                EV_ADD | EV_CLEAR | EV_ENABLE,
                0,
                WAKE_TOKEN,
            )])?;
            Ok(poller)
        }

        fn change(&self, changes: &[KEvent]) -> io::Result<()> {
            let n = unsafe {
                kevent(
                    self.kq,
                    changes.as_ptr(),
                    changes.len() as i32,
                    ptr::null_mut(),
                    0,
                    ptr::null(),
                )
            };
            check(n).map(|_| ())
        }

        /// Starts watching `fd` for readability under `token`
        /// (level-triggered; `EV_EOF` reports the peer's FIN).
        ///
        /// # Errors
        ///
        /// Propagates `kevent` failures.
        pub fn register(&self, fd: RawFd, token: u64) -> io::Result<()> {
            self.change(&[kev(fd as usize, EVFILT_READ, EV_ADD | EV_ENABLE, 0, token)])
        }

        /// Stops watching `fd`.
        ///
        /// # Errors
        ///
        /// Propagates `kevent` failures other than "filter not present".
        pub fn deregister(&self, fd: RawFd) -> io::Result<()> {
            match self.change(&[kev(fd as usize, EVFILT_READ, EV_DELETE, 0, 0)]) {
                Err(e) if e.raw_os_error() != Some(2 /* ENOENT */) => Err(e),
                _ => Ok(()),
            }
        }

        /// Blocks until readiness or `timeout` (`None`: forever), pushing
        /// events into `out` (cleared first). Wake-ups appear as events
        /// with [`WAKE_TOKEN`] (`EV_CLEAR` auto-resets the filter).
        ///
        /// # Errors
        ///
        /// Propagates `kevent` failures; `EINTR` is retried internally.
        pub fn wait(&self, out: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<usize> {
            out.clear();
            let ts = timeout.map(|d| Timespec {
                tv_sec: d.as_secs() as isize,
                tv_nsec: d.subsec_nanos() as isize,
            });
            let ts_ptr = ts.as_ref().map_or(ptr::null(), |t| t as *const _);
            let mut buf = [kev(0, 0, 0, 0, 0); 256];
            let n = loop {
                let n = unsafe {
                    kevent(
                        self.kq,
                        ptr::null(),
                        0,
                        buf.as_mut_ptr(),
                        buf.len() as i32,
                        ts_ptr,
                    )
                };
                match check(n) {
                    Ok(n) => break n as usize,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(e) => return Err(e),
                }
            };
            for ev in &buf[..n] {
                if ev.flags & EV_ERROR != 0 && ev.data != 0 {
                    continue; // a per-change error report, not readiness
                }
                out.push(Event {
                    token: ev.udata as u64,
                    readable: ev.filter == EVFILT_READ || ev.filter == EVFILT_USER,
                    hangup: ev.flags & EV_EOF != 0,
                    error: false,
                });
            }
            Ok(n)
        }

        /// Wakes one concurrent (or the next) [`wait`](Self::wait).
        /// Thread-safe; coalesces with outstanding wakes.
        pub fn wake(&self) {
            let _ = self.change(&[kev(0, EVFILT_USER, 0, NOTE_TRIGGER, WAKE_TOKEN)]);
        }
    }

    impl Drop for Poller {
        fn drop(&mut self) {
            unsafe {
                close(self.kq);
            }
        }
    }

    fn kev(ident: usize, filter: i16, flags: u16, fflags: u32, udata: u64) -> KEvent {
        KEvent {
            ident,
            filter,
            flags,
            fflags,
            data: 0,
            udata: udata as usize,
            #[cfg(target_os = "freebsd")]
            ext: [0; 4],
        }
    }

    fn check(ret: i32) -> io::Result<i32> {
        if ret < 0 {
            Err(io::Error::last_os_error())
        } else {
            Ok(ret)
        }
    }
}

#[cfg(not(any(
    target_os = "linux",
    target_os = "android",
    target_os = "macos",
    target_os = "ios",
    target_os = "freebsd"
)))]
mod imp {
    use super::Event;
    use std::io;
    use std::time::Duration;

    /// Stub poller for platforms without epoll/kqueue support: every
    /// constructor fails, so `serve` reports `Unsupported`.
    #[derive(Debug)]
    pub struct Poller {
        _private: (),
    }

    #[allow(missing_docs, clippy::missing_errors_doc, clippy::unused_self)]
    impl Poller {
        pub fn new() -> io::Result<Poller> {
            Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "csr-serve needs epoll or kqueue, which this platform lacks",
            ))
        }

        pub fn register(&self, _fd: i32, _token: u64) -> io::Result<()> {
            unreachable!("stub poller cannot be constructed")
        }

        pub fn deregister(&self, _fd: i32) -> io::Result<()> {
            unreachable!("stub poller cannot be constructed")
        }

        pub fn wait(&self, _out: &mut Vec<Event>, _t: Option<Duration>) -> io::Result<usize> {
            unreachable!("stub poller cannot be constructed")
        }

        pub fn wake(&self) {}
    }
}

#[cfg(all(test, unix))]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    fn ms(n: u64) -> Option<Duration> {
        Some(Duration::from_millis(n))
    }

    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let a = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (b, _) = listener.accept().unwrap();
        (a, b)
    }

    #[test]
    fn reports_readability_level_triggered() {
        let (mut a, b) = pair();
        b.set_nonblocking(true).unwrap();
        let poller = Poller::new().unwrap();
        poller.register(b.as_raw_fd(), 7).unwrap();

        let mut events = Vec::new();
        // Nothing to read yet: timeout fires.
        poller.wait(&mut events, ms(50)).unwrap();
        assert!(events.iter().all(|e| e.token != 7), "spurious readiness");

        a.write_all(b"x").unwrap();
        poller.wait(&mut events, ms(2000)).unwrap();
        let ev = events.iter().find(|e| e.token == 7).expect("readable");
        assert!(ev.readable);

        // Level-triggered: unread data keeps reporting.
        poller.wait(&mut events, ms(2000)).unwrap();
        assert!(events.iter().any(|e| e.token == 7 && e.readable));

        let mut buf = [0u8; 8];
        let mut b = b;
        assert_eq!(b.read(&mut buf).unwrap(), 1);
        poller.wait(&mut events, ms(50)).unwrap();
        assert!(
            events.iter().all(|e| e.token != 7),
            "drained fd still ready"
        );
    }

    #[test]
    fn wake_crosses_threads_and_coalesces() {
        let poller = Arc::new(Poller::new().unwrap());
        let remote = Arc::clone(&poller);
        let t = std::thread::spawn(move || {
            // Several wakes before and while the main thread waits.
            remote.wake();
            remote.wake();
            std::thread::sleep(Duration::from_millis(20));
            remote.wake();
        });
        let mut events = Vec::new();
        let t0 = Instant::now();
        poller.wait(&mut events, ms(5000)).unwrap();
        assert!(
            events.iter().any(|e| e.token == WAKE_TOKEN),
            "wake event surfaced"
        );
        assert!(t0.elapsed() < Duration::from_secs(4), "wake did not block");
        t.join().unwrap();
        // The late wake may still be pending (it is not *lost* either
        // way); drain whatever is left, then a quiet wait must time out
        // instead of spinning on stale wake state.
        let _ = poller.wait(&mut events, ms(200));
        let t0 = Instant::now();
        poller.wait(&mut events, ms(120)).unwrap();
        assert!(events.iter().all(|e| e.token != WAKE_TOKEN), "stale wake");
        assert!(t0.elapsed() >= Duration::from_millis(100));
    }

    #[test]
    fn hangup_is_reported() {
        let (a, b) = pair();
        b.set_nonblocking(true).unwrap();
        let poller = Poller::new().unwrap();
        poller.register(b.as_raw_fd(), 9).unwrap();
        drop(a);
        let mut events = Vec::new();
        poller.wait(&mut events, ms(2000)).unwrap();
        let ev = events.iter().find(|e| e.token == 9).expect("peer closed");
        assert!(ev.readable || ev.hangup);
    }
}
