//! A minimal, dependency-free `poll(2)` wrapper for the replica-worker
//! event loop.
//!
//! The workspace builds offline with no external crates (see
//! `shims/README.md`), so there is no `libc` to lean on. On Linux
//! x86-64 this module issues the `poll` syscall directly (one `syscall`
//! instruction; the kernel ABI is stable); everywhere else it degrades
//! to a timed claim-everything sweep — [`poll`] sleeps a short slice and
//! reports every registered descriptor as ready, which is correct (the
//! event loop only ever performs non-blocking reads/writes and treats
//! `WouldBlock` as "not actually ready") but burns a wakeup per slice
//! instead of sleeping until real readiness.
//!
//! Only the three readiness bits the event loop needs are exposed
//! (`POLLIN`, `POLLOUT`, and the error/hangup family); this is not a
//! general I/O reactor, it is exactly the syscall surface
//! `serve::eventloop` multiplexes sockets with.

use std::io;
use std::os::unix::io::RawFd;
use std::time::Duration;

/// Readable data (or a peer close, which also wakes readers).
pub const POLLIN: i16 = 0x001;
/// Writable without blocking.
pub const POLLOUT: i16 = 0x004;
/// Error condition (always reported, never requested).
pub const POLLERR: i16 = 0x008;
/// Peer hung up (always reported, never requested).
pub const POLLHUP: i16 = 0x010;
/// Descriptor not open (always reported, never requested).
pub const POLLNVAL: i16 = 0x020;

/// One descriptor's interest set and readiness result — ABI-compatible
/// with `struct pollfd`.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub struct PollFd {
    fd: RawFd,
    events: i16,
    revents: i16,
}

impl PollFd {
    /// Watches `fd` for `events` (a bitmask of [`POLLIN`]/[`POLLOUT`]).
    pub fn new(fd: RawFd, events: i16) -> Self {
        Self {
            fd,
            events,
            revents: 0,
        }
    }

    /// The watched descriptor.
    pub fn fd(&self) -> RawFd {
        self.fd
    }

    /// Whether a read (or accept) is worth attempting: data, hangup, or
    /// an error was reported.
    pub fn readable(&self) -> bool {
        self.revents & (POLLIN | POLLHUP | POLLERR | POLLNVAL) != 0
    }

    /// Whether a write is worth attempting.
    pub fn writable(&self) -> bool {
        self.revents & (POLLOUT | POLLHUP | POLLERR | POLLNVAL) != 0
    }

    /// Whether the descriptor is done for: the peer closed both
    /// directions, or an error was reported. A unix-socket peer that only
    /// half-closed (`shutdown(Write)`) reports `POLLIN` here, not a hangup.
    pub fn hung_up(&self) -> bool {
        self.revents & (POLLHUP | POLLERR | POLLNVAL) != 0
    }
}

/// Blocks until at least one descriptor in `fds` is ready, `timeout`
/// elapses (`None` = wait forever), or a signal interrupts — interrupts
/// are retried internally. Returns the number of descriptors with
/// non-zero `revents`.
///
/// # Errors
///
/// The raw OS error from the syscall (`EINVAL` for an oversized set,
/// `ENOMEM`, …). `EINTR` never surfaces.
pub fn poll(fds: &mut [PollFd], timeout: Option<Duration>) -> io::Result<usize> {
    // poll(2) takes whole milliseconds; round a sub-millisecond timeout
    // *up* so a 500µs wait is a 1ms sleep, not a hot non-blocking spin
    let timeout_ms: i32 = match timeout {
        None => -1,
        Some(d) => d.as_micros().div_ceil(1_000).min(i32::MAX as u128) as i32,
    };
    imp::poll(fds, timeout_ms)
}

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
mod imp {
    use super::PollFd;
    use std::io;

    const SYS_POLL: isize = 7;
    const EINTR: isize = 4;

    fn sys_poll(fds: &mut [PollFd], timeout_ms: i32) -> isize {
        let ret: isize;
        // SAFETY: the Linux x86-64 `poll` ABI — rdi = pointer to an array
        // of `nfds` pollfd structs (PollFd is repr(C) with the kernel's
        // layout), rsi = nfds, rdx = timeout in ms. The kernel writes only
        // the `revents` fields inside the borrowed slice. rcx/r11 are
        // clobbered by `syscall` itself.
        unsafe {
            std::arch::asm!(
                "syscall",
                inlateout("rax") SYS_POLL => ret,
                in("rdi") fds.as_mut_ptr(),
                in("rsi") fds.len(),
                in("rdx") timeout_ms as isize,
                lateout("rcx") _,
                lateout("r11") _,
                options(nostack),
            );
        }
        ret
    }

    pub(super) fn poll(fds: &mut [PollFd], timeout_ms: i32) -> io::Result<usize> {
        loop {
            match sys_poll(fds, timeout_ms) {
                ret if ret >= 0 => return Ok(ret as usize),
                ret if -ret == EINTR => continue,
                ret => return Err(io::Error::from_raw_os_error(-ret as i32)),
            }
        }
    }
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
mod imp {
    use super::PollFd;
    use std::io;
    use std::time::Duration;

    /// Degraded portable fallback: sleep one slice of the timeout, then
    /// claim every descriptor ready. Callers do non-blocking I/O and
    /// treat `WouldBlock` as "not ready after all", so this is correct —
    /// just a busy-ish poll instead of a true readiness sleep.
    pub(super) fn poll(fds: &mut [PollFd], timeout_ms: i32) -> io::Result<usize> {
        let slice_ms = if timeout_ms < 0 { 1 } else { timeout_ms.min(1) };
        std::thread::sleep(Duration::from_millis(slice_ms as u64));
        for fd in fds.iter_mut() {
            fd.revents = fd.events;
        }
        Ok(fds.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::os::unix::io::AsRawFd;
    use std::os::unix::net::UnixStream;
    use std::time::Instant;

    #[test]
    fn times_out_on_a_silent_socket() {
        let (a, _b) = UnixStream::pair().unwrap();
        let mut fds = [PollFd::new(a.as_raw_fd(), POLLIN)];
        let started = Instant::now();
        let n = poll(&mut fds, Some(Duration::from_millis(30))).unwrap();
        // the portable fallback claims readiness; the real syscall must
        // report silence and honor the timeout
        if cfg!(all(target_os = "linux", target_arch = "x86_64")) {
            assert_eq!(n, 0);
            assert!(!fds[0].readable());
            assert!(started.elapsed() >= Duration::from_millis(25));
        }
    }

    #[test]
    fn reports_readability_when_bytes_arrive() {
        let (a, mut b) = UnixStream::pair().unwrap();
        b.write_all(b"x").unwrap();
        let mut fds = [PollFd::new(a.as_raw_fd(), POLLIN)];
        let n = poll(&mut fds, Some(Duration::from_secs(5))).unwrap();
        assert!(n >= 1);
        assert!(fds[0].readable());
    }

    #[test]
    fn reports_writability_on_an_open_socket() {
        let (a, _b) = UnixStream::pair().unwrap();
        let mut fds = [PollFd::new(a.as_raw_fd(), POLLOUT)];
        let n = poll(&mut fds, Some(Duration::from_secs(5))).unwrap();
        assert!(n >= 1);
        assert!(fds[0].writable());
    }

    #[test]
    fn hangup_wakes_a_reader() {
        let (a, b) = UnixStream::pair().unwrap();
        drop(b);
        let mut fds = [PollFd::new(a.as_raw_fd(), POLLIN)];
        let n = poll(&mut fds, Some(Duration::from_secs(5))).unwrap();
        assert!(n >= 1);
        assert!(fds[0].readable(), "peer close must wake the reader");
    }

    #[test]
    fn sub_millisecond_timeouts_round_up() {
        let (a, _b) = UnixStream::pair().unwrap();
        let mut fds = [PollFd::new(a.as_raw_fd(), POLLIN)];
        // must not be treated as a 0ms (non-blocking) poll in a loop —
        // just checking it returns without error
        let _ = poll(&mut fds, Some(Duration::from_micros(300))).unwrap();
    }
}
