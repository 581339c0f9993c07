//! The portable `poll(2)` backend: O(fds) per wait, identical observable
//! semantics to the epoll backend, usable on any unix.
//!
//! Audited unsafe surface (see the [`super`] module docs): the single
//! `poll` syscall. The watch table lives in user space (a small vector,
//! rebuilt into `pollfd`s on every wait), which is exactly the cost the
//! epoll backend exists to avoid — but for portability, and for
//! differential testing of the reactor on Linux, the fallback earns its
//! keep.

use super::{Event, Interest};
use std::io;
use std::os::fd::RawFd;
use std::time::Duration;

const POLLIN: i16 = 0x001;
const POLLOUT: i16 = 0x004;
const POLLERR: i16 = 0x008;
const POLLHUP: i16 = 0x010;
const POLLNVAL: i16 = 0x020;
/// Linux-only peer-half-close bit; harmlessly unused elsewhere.
#[cfg(target_os = "linux")]
const POLLRDHUP: i16 = 0x2000;
#[cfg(not(target_os = "linux"))]
const POLLRDHUP: i16 = 0;

/// `struct pollfd`, identical on every unix.
#[repr(C)]
#[derive(Clone, Copy)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

extern "C" {
    fn poll(fds: *mut PollFd, nfds: core::ffi::c_ulong, timeout: i32) -> i32;
}

/// One watched fd.
#[derive(Clone, Copy, Debug)]
struct Entry {
    fd: RawFd,
    token: u64,
    interest: Interest,
}

/// A poll-based watch table.
#[derive(Debug, Default)]
pub struct Poll {
    entries: Vec<Entry>,
}

fn interest_bits(interest: Interest) -> i16 {
    // Error/hangup bits are implicit in poll(2); RDHUP must be asked for.
    let mut bits = POLLRDHUP;
    if interest.read {
        bits |= POLLIN;
    }
    if interest.write {
        bits |= POLLOUT;
    }
    bits
}

impl Poll {
    /// Creates an empty watch table (cannot fail — there is no kernel
    /// object behind it).
    pub fn new() -> Poll {
        Poll::default()
    }

    /// Registers `fd` under `token`.
    ///
    /// # Errors
    ///
    /// Rejects double registration (mirroring epoll's `EEXIST`).
    pub fn add(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        if self.entries.iter().any(|e| e.fd == fd) {
            return Err(io::Error::new(
                io::ErrorKind::AlreadyExists,
                "fd already registered",
            ));
        }
        self.entries.push(Entry {
            fd,
            token,
            interest,
        });
        Ok(())
    }

    /// Updates `fd`'s interest set.
    ///
    /// # Errors
    ///
    /// Errors if `fd` was never registered (mirroring epoll's `ENOENT`).
    pub fn modify(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        match self.entries.iter_mut().find(|e| e.fd == fd) {
            Some(entry) => {
                entry.token = token;
                entry.interest = interest;
                Ok(())
            }
            None => Err(io::Error::new(io::ErrorKind::NotFound, "fd not registered")),
        }
    }

    /// Drops `fd` from the table.
    pub fn remove(&mut self, fd: RawFd) {
        self.entries.retain(|e| e.fd != fd);
    }

    /// Waits for readiness, appending to `events`; retries `EINTR`.
    ///
    /// # Errors
    ///
    /// Propagates non-`EINTR` `poll` failure.
    pub fn wait(&mut self, events: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
        let mut fds: Vec<PollFd> = self
            .entries
            .iter()
            .map(|e| PollFd {
                fd: e.fd,
                events: interest_bits(e.interest),
                revents: 0,
            })
            .collect();
        let timeout = super::timeout_ms(timeout);
        loop {
            if fds.is_empty() {
                // poll(NULL, 0, t) is legal, but skip the syscall and
                // sleep the timeout out (a negative timeout would block
                // forever with nothing to wake us — the reactor always
                // registers the wakeup pipe, so this arm is defensive).
                if timeout > 0 {
                    std::thread::sleep(Duration::from_millis(timeout as u64));
                }
                return Ok(());
            }
            // SAFETY: `fds` is a valid array whose length matches the
            // `nfds` argument; every fd in it is live (owned by the
            // reactor, removed from the table before close).
            let n = unsafe { poll(fds.as_mut_ptr(), fds.len() as core::ffi::c_ulong, timeout) };
            if n >= 0 {
                break;
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        }
        for (raw, entry) in fds.iter().zip(&self.entries) {
            let bits = raw.revents;
            if bits == 0 {
                continue;
            }
            events.push(Event {
                token: entry.token,
                readable: bits & POLLIN != 0,
                writable: bits & POLLOUT != 0,
                closed: bits & (POLLERR | POLLHUP | POLLNVAL | POLLRDHUP) != 0,
            });
        }
        Ok(())
    }
}
