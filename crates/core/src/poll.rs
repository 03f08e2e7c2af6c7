//! Blocking readiness waits on raw file descriptors.
//!
//! [`wait_readable`] wraps `poll(2)` from the C library every Rust binary
//! on unix already links — the same no-new-dependency approach as the raw
//! `mmap` bindings in [`crate::mmap`]. It parks the calling thread in the
//! kernel until one of a few descriptors has something to read, so an
//! event loop (the `cubied` accept thread) never sleep-polls.

use std::io;
use std::os::fd::RawFd;

mod sys {
    use std::os::raw::{c_int, c_short};

    pub const POLLIN: c_short = 0x001;

    /// `struct pollfd`.
    #[repr(C)]
    pub struct PollFd {
        pub fd: c_int,
        pub events: c_short,
        pub revents: c_short,
    }

    /// `nfds_t`: `unsigned long` in glibc and musl, `unsigned int` on the
    /// BSDs and macOS.
    #[cfg(target_os = "linux")]
    pub type NFds = std::os::raw::c_ulong;
    #[cfg(not(target_os = "linux"))]
    pub type NFds = std::os::raw::c_uint;

    extern "C" {
        pub fn poll(fds: *mut PollFd, nfds: NFds, timeout: c_int) -> c_int;
    }
}

/// Block until at least one of `fds` is readable and report which are.
///
/// A descriptor also counts as ready when it is in an error or hang-up
/// state (or is not open at all): the caller's next `read`/`accept` on it
/// then returns that error instead of blocking. There is no timeout — a
/// waiter that must be woken on demand includes the read end of a wake
/// channel (e.g. a `UnixStream::pair`) among `fds`. `EINTR` is retried.
pub fn wait_readable<const N: usize>(fds: [RawFd; N]) -> io::Result<[bool; N]> {
    let mut pollfds = fds.map(|fd| sys::PollFd {
        fd,
        events: sys::POLLIN,
        revents: 0,
    });
    loop {
        // SAFETY: `pollfds` is a live, exclusively borrowed array of N
        // `struct pollfd` for the duration of the call; a negative
        // timeout blocks until an event.
        let rc = unsafe { sys::poll(pollfds.as_mut_ptr(), N as sys::NFds, -1) };
        if rc >= 0 {
            return Ok(pollfds.map(|p| p.revents != 0));
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::os::fd::AsRawFd;
    use std::os::unix::net::UnixStream;

    #[test]
    fn reports_exactly_the_readable_descriptors() {
        let (mut quiet_tx, quiet_rx) = UnixStream::pair().unwrap();
        let (mut loud_tx, loud_rx) = UnixStream::pair().unwrap();
        loud_tx.write_all(b"x").unwrap();
        let ready = wait_readable([quiet_rx.as_raw_fd(), loud_rx.as_raw_fd()]).unwrap();
        assert_eq!(ready, [false, true]);
        quiet_tx.write_all(b"y").unwrap();
        let ready = wait_readable([quiet_rx.as_raw_fd(), loud_rx.as_raw_fd()]).unwrap();
        assert_eq!(ready, [true, true]);
    }

    #[test]
    fn blocks_until_another_thread_writes() {
        let (tx, rx) = UnixStream::pair().unwrap();
        let writer = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(50));
            (&tx).write_all(b"w").unwrap();
            tx
        });
        let start = std::time::Instant::now();
        assert_eq!(wait_readable([rx.as_raw_fd()]).unwrap(), [true]);
        assert!(start.elapsed() >= std::time::Duration::from_millis(40));
        drop(writer.join().unwrap());
    }

    #[test]
    fn a_hung_up_peer_counts_as_ready() {
        let (tx, rx) = UnixStream::pair().unwrap();
        drop(tx);
        assert_eq!(wait_readable([rx.as_raw_fd()]).unwrap(), [true]);
    }
}
