//! Readiness polling without libc.
//!
//! The reactor needs one primitive: "block until any of these fds is
//! readable/writable, and tell me which". The standard library offers
//! nothing non-blocking below `TcpStream`, and the project's no-new-deps
//! rule forbids `mio`/`libc`, so on Linux we invoke `epoll` directly via
//! inline-assembly syscalls. Every other platform gets [`ScanPoller`], a
//! portable fallback that reports all registered fds as ready on a short
//! tick and lets the reactor's non-blocking reads sort out the truth.
//!
//! The interface is deliberately level-triggered: the reactor re-arms
//! write interest only while a connection has buffered output, and a
//! `wait` that returns spurious readiness is harmless because all reads
//! and writes are non-blocking.

use std::io;
use std::time::Duration;

/// One fd's readiness as reported by [`Poller::wait`].
#[derive(Clone, Copy, Debug)]
pub struct Readiness {
    /// The token the fd was registered with (the reactor uses connection
    /// ids, plus a reserved token for the listener).
    pub token: u64,
    /// Data can be read without blocking (or EOF is pending).
    pub readable: bool,
    /// The socket send buffer has room.
    pub writable: bool,
    /// Peer hung up or the socket errored; the fd should be torn down
    /// after draining whatever `read` still yields.
    pub hangup: bool,
}

/// A level-triggered readiness poller over raw fds.
pub trait Poller: Send {
    /// Start watching `fd` under `token` for the given interests.
    fn register(&mut self, fd: i32, token: u64, readable: bool, writable: bool) -> io::Result<()>;
    /// Change the interest set of an already-registered fd.
    fn modify(&mut self, fd: i32, token: u64, readable: bool, writable: bool) -> io::Result<()>;
    /// Stop watching `fd`.
    fn deregister(&mut self, fd: i32) -> io::Result<()>;
    /// Block up to `timeout` (forever if `None`) until at least one fd is
    /// ready, appending events to `out`. Returns the number appended;
    /// zero means the timeout elapsed.
    fn wait(&mut self, out: &mut Vec<Readiness>, timeout: Option<Duration>) -> io::Result<usize>;
}

/// Construct the best poller for this platform.
pub fn new_poller() -> io::Result<Box<dyn Poller>> {
    #[cfg(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    ))]
    {
        Ok(Box::new(epoll::EpollPoller::new()?))
    }
    #[cfg(not(all(
        target_os = "linux",
        any(target_arch = "x86_64", target_arch = "aarch64")
    )))]
    {
        Ok(Box::new(ScanPoller::default()))
    }
}

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
pub mod epoll {
    //! `epoll` through raw syscalls — no libc, no extern crates.

    use super::{Poller, Readiness};
    use std::io;
    use std::time::Duration;

    // Event mask bits (uapi/linux/eventpoll.h).
    const EPOLLIN: u32 = 0x001;
    const EPOLLOUT: u32 = 0x004;
    const EPOLLERR: u32 = 0x008;
    const EPOLLHUP: u32 = 0x010;
    const EPOLLRDHUP: u32 = 0x2000;

    const EPOLL_CTL_ADD: u64 = 1;
    const EPOLL_CTL_DEL: u64 = 2;
    const EPOLL_CTL_MOD: u64 = 3;

    const EINTR: i64 = 4;

    /// The kernel's `struct epoll_event`. Packed on x86_64 only — that
    /// ABI quirk is why this must match the uapi header exactly.
    #[repr(C)]
    #[cfg_attr(target_arch = "x86_64", repr(packed))]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    #[cfg(target_arch = "x86_64")]
    mod nr {
        pub const EPOLL_CREATE1: u64 = 291;
        pub const EPOLL_CTL: u64 = 233;
        pub const EPOLL_WAIT: u64 = 232;
        pub const CLOSE: u64 = 3;
    }
    #[cfg(target_arch = "aarch64")]
    mod nr {
        pub const EPOLL_CREATE1: u64 = 20;
        pub const EPOLL_CTL: u64 = 21;
        pub const EPOLL_PWAIT: u64 = 22;
        pub const CLOSE: u64 = 57;
    }

    /// Raw 4-argument syscall. Returns the kernel's result register:
    /// negative values are `-errno`.
    #[cfg(target_arch = "x86_64")]
    unsafe fn syscall4(nr: u64, a: u64, b: u64, c: u64, d: u64) -> i64 {
        let ret: i64;
        core::arch::asm!(
            "syscall",
            inlateout("rax") nr as i64 => ret,
            in("rdi") a,
            in("rsi") b,
            in("rdx") c,
            in("r10") d,
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
        ret
    }

    #[cfg(target_arch = "aarch64")]
    unsafe fn syscall4(nr: u64, a: u64, b: u64, c: u64, d: u64) -> i64 {
        let ret: i64;
        core::arch::asm!(
            "svc 0",
            in("x8") nr,
            inlateout("x0") a as i64 => ret,
            in("x1") b,
            in("x2") c,
            in("x3") d,
            options(nostack),
        );
        ret
    }

    /// `epoll_wait` needs five arguments on aarch64 (`epoll_pwait` takes
    /// a sigmask); x86_64 keeps the classic 4-arg form.
    #[cfg(target_arch = "x86_64")]
    unsafe fn sys_epoll_wait(epfd: u64, events: u64, max: u64, timeout_ms: i64) -> i64 {
        syscall4(nr::EPOLL_WAIT, epfd, events, max, timeout_ms as u64)
    }

    #[cfg(target_arch = "aarch64")]
    unsafe fn sys_epoll_wait(epfd: u64, events: u64, max: u64, timeout_ms: i64) -> i64 {
        let ret: i64;
        core::arch::asm!(
            "svc 0",
            in("x8") nr::EPOLL_PWAIT,
            inlateout("x0") epfd as i64 => ret,
            in("x1") events,
            in("x2") max,
            in("x3") timeout_ms,
            in("x4") 0u64, // NULL sigmask: plain epoll_wait semantics
            options(nostack),
        );
        ret
    }

    fn check(ret: i64) -> io::Result<i64> {
        if ret < 0 {
            Err(io::Error::from_raw_os_error(-ret as i32))
        } else {
            Ok(ret)
        }
    }

    fn mask(readable: bool, writable: bool) -> u32 {
        let mut m = EPOLLRDHUP;
        if readable {
            m |= EPOLLIN;
        }
        if writable {
            m |= EPOLLOUT;
        }
        m
    }

    /// An epoll instance plus a reusable event buffer.
    pub struct EpollPoller {
        epfd: i32,
        buf: Vec<EpollEvent>,
    }

    impl EpollPoller {
        pub fn new() -> io::Result<Self> {
            // EPOLL_CLOEXEC = 0o2000000
            let fd = check(unsafe { syscall4(nr::EPOLL_CREATE1, 0o2000000, 0, 0, 0) })?;
            Ok(EpollPoller {
                epfd: fd as i32,
                buf: vec![EpollEvent { events: 0, data: 0 }; 256],
            })
        }

        fn ctl(&self, op: u64, fd: i32, ev: Option<EpollEvent>) -> io::Result<()> {
            let mut ev = ev;
            let ptr = ev
                .as_mut()
                .map(|e| e as *mut EpollEvent as u64)
                .unwrap_or(0);
            loop {
                let r = unsafe { syscall4(nr::EPOLL_CTL, self.epfd as u64, op, fd as u64, ptr) };
                if r == -EINTR {
                    continue;
                }
                check(r)?;
                return Ok(());
            }
        }
    }

    impl Poller for EpollPoller {
        fn register(
            &mut self,
            fd: i32,
            token: u64,
            readable: bool,
            writable: bool,
        ) -> io::Result<()> {
            let ev = EpollEvent {
                events: mask(readable, writable),
                data: token,
            };
            self.ctl(EPOLL_CTL_ADD, fd, Some(ev))
        }

        fn modify(
            &mut self,
            fd: i32,
            token: u64,
            readable: bool,
            writable: bool,
        ) -> io::Result<()> {
            let ev = EpollEvent {
                events: mask(readable, writable),
                data: token,
            };
            self.ctl(EPOLL_CTL_MOD, fd, Some(ev))
        }

        fn deregister(&mut self, fd: i32) -> io::Result<()> {
            // A dummy event keeps pre-2.6.9 kernels happy; modern ones
            // ignore the pointer for DEL.
            self.ctl(EPOLL_CTL_DEL, fd, Some(EpollEvent { events: 0, data: 0 }))
        }

        fn wait(
            &mut self,
            out: &mut Vec<Readiness>,
            timeout: Option<Duration>,
        ) -> io::Result<usize> {
            let timeout_ms: i64 = match timeout {
                None => -1,
                // Round up so a 0.4ms deadline doesn't spin at timeout 0.
                Some(d) => {
                    let whole = d.as_millis().min(i64::MAX as u128 - 1) as i64;
                    whole + i64::from(d.subsec_nanos() % 1_000_000 != 0)
                }
            };
            let n = loop {
                let r = unsafe {
                    sys_epoll_wait(
                        self.epfd as u64,
                        self.buf.as_mut_ptr() as u64,
                        self.buf.len() as u64,
                        timeout_ms,
                    )
                };
                if r == -EINTR {
                    continue;
                }
                break check(r)? as usize;
            };
            for ev in &self.buf[..n] {
                let bits = ev.events;
                out.push(Readiness {
                    token: ev.data,
                    readable: bits & (EPOLLIN | EPOLLHUP | EPOLLRDHUP | EPOLLERR) != 0,
                    writable: bits & (EPOLLOUT | EPOLLERR) != 0,
                    hangup: bits & (EPOLLHUP | EPOLLERR) != 0,
                });
            }
            if n == self.buf.len() {
                // Full buffer: more events may be pending; grow for next time.
                let len = self.buf.len() * 2;
                self.buf.resize(len, EpollEvent { events: 0, data: 0 });
            }
            Ok(n)
        }
    }

    impl Drop for EpollPoller {
        fn drop(&mut self) {
            unsafe {
                syscall4(nr::CLOSE, self.epfd as u64, 0, 0, 0);
            }
        }
    }
}

/// Portable fallback: report every registered fd as ready on a short
/// tick. Correct (the reactor's sockets are non-blocking, so spurious
/// readiness costs one `WouldBlock` read) but busier than epoll; only
/// used where the raw-syscall poller is unavailable.
#[derive(Default)]
pub struct ScanPoller {
    entries: Vec<(i32, u64, bool, bool)>,
}

impl Poller for ScanPoller {
    fn register(&mut self, fd: i32, token: u64, readable: bool, writable: bool) -> io::Result<()> {
        self.entries.push((fd, token, readable, writable));
        Ok(())
    }

    fn modify(&mut self, fd: i32, token: u64, readable: bool, writable: bool) -> io::Result<()> {
        for e in &mut self.entries {
            if e.0 == fd {
                *e = (fd, token, readable, writable);
                return Ok(());
            }
        }
        Err(io::Error::new(io::ErrorKind::NotFound, "fd not registered"))
    }

    fn deregister(&mut self, fd: i32) -> io::Result<()> {
        self.entries.retain(|e| e.0 != fd);
        Ok(())
    }

    fn wait(&mut self, out: &mut Vec<Readiness>, timeout: Option<Duration>) -> io::Result<usize> {
        let tick = Duration::from_millis(2);
        std::thread::sleep(timeout.map_or(tick, |t| t.min(tick)));
        let before = out.len();
        for &(_, token, readable, writable) in &self.entries {
            if readable || writable {
                out.push(Readiness {
                    token,
                    readable,
                    writable,
                    hangup: false,
                });
            }
        }
        Ok(out.len() - before)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;

    /// A connected loopback socket pair via an ephemeral listener.
    fn pair() -> (TcpStream, TcpStream) {
        let l = TcpListener::bind("127.0.0.1:0").unwrap();
        let a = TcpStream::connect(l.local_addr().unwrap()).unwrap();
        let (b, _) = l.accept().unwrap();
        (a, b)
    }

    #[test]
    fn poller_sees_readable_data() {
        let (mut a, b) = pair();
        let mut p = new_poller().unwrap();
        p.register(b.as_raw_fd(), 7, true, false).unwrap();

        let mut out = Vec::new();
        // Nothing to read yet: a short wait should time out (epoll) or
        // at worst report a spurious ready (scan fallback) — either way
        // no event is *required*.
        p.wait(&mut out, Some(Duration::from_millis(10))).unwrap();

        a.write_all(b"x").unwrap();
        a.flush().unwrap();
        out.clear();
        // Now data is pending; a generous wait must surface token 7.
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        loop {
            p.wait(&mut out, Some(Duration::from_millis(50))).unwrap();
            if out.iter().any(|r| r.token == 7 && r.readable) {
                break;
            }
            assert!(std::time::Instant::now() < deadline, "no readable event");
        }
        p.deregister(b.as_raw_fd()).unwrap();
    }

    #[test]
    fn poller_reports_writable_when_asked() {
        let (a, _b) = pair();
        let mut p = new_poller().unwrap();
        // Empty send buffer: immediately writable.
        p.register(a.as_raw_fd(), 3, false, true).unwrap();
        let mut out = Vec::new();
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        loop {
            p.wait(&mut out, Some(Duration::from_millis(50))).unwrap();
            if out.iter().any(|r| r.token == 3 && r.writable) {
                break;
            }
            assert!(std::time::Instant::now() < deadline, "no writable event");
        }
    }

    #[test]
    fn modify_switches_interest() {
        let (mut a, b) = pair();
        let mut p = new_poller().unwrap();
        p.register(b.as_raw_fd(), 1, false, false).unwrap();
        a.write_all(b"y").unwrap();

        // With no read interest epoll stays silent (scan fallback also
        // reports nothing for a no-interest entry).
        let mut out = Vec::new();
        p.wait(&mut out, Some(Duration::from_millis(20))).unwrap();
        assert!(
            !out.iter().any(|r| r.token == 1 && r.readable),
            "event without interest"
        );

        p.modify(b.as_raw_fd(), 1, true, false).unwrap();
        out.clear();
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        loop {
            p.wait(&mut out, Some(Duration::from_millis(50))).unwrap();
            if out.iter().any(|r| r.token == 1 && r.readable) {
                break;
            }
            assert!(std::time::Instant::now() < deadline, "modify not applied");
        }
    }

    #[test]
    fn hangup_is_flagged_as_readable() {
        let (a, b) = pair();
        let mut p = new_poller().unwrap();
        p.register(b.as_raw_fd(), 9, true, false).unwrap();
        drop(a); // peer closes
        let mut out = Vec::new();
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        loop {
            p.wait(&mut out, Some(Duration::from_millis(50))).unwrap();
            // EOF must be observable via a readable event so the reactor
            // reads the 0-byte EOF; the hangup flag itself is advisory
            // (the scan fallback never sets it).
            if out.iter().any(|r| r.token == 9 && r.readable) {
                break;
            }
            assert!(std::time::Instant::now() < deadline, "no EOF event");
        }
    }
}
