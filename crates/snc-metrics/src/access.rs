//! Structured access logging and request-id minting.
//!
//! [`AccessLog`] writes one flushed line per request so a crash (or a
//! SIGKILL from the fault suite) loses at most the line being written.
//! [`RequestIds`] mints the `x-snc-request-id` values that correlate a
//! request across the router → backend hop: ids must be unique within a
//! process and well-spread across processes, but need no cryptographic
//! strength — [`crate::mix64`] over a seeded counter is enough.

use crate::mix64;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

/// The open file handle plus how many bytes it currently holds (tracked
/// so rotation never has to stat the file on the write path).
#[derive(Debug)]
struct LogFile {
    file: File,
    bytes: u64,
}

/// An append-only, line-oriented log file shared across threads, with
/// optional size-based rotation.
///
/// Each [`AccessLog::write`] takes the mutex, writes `line` plus a
/// newline in a single `write_all`, and flushes — so lines from
/// concurrent writers never interleave and are durable as soon as the
/// call returns.
///
/// When opened via [`AccessLog::open_rotating`] with a non-zero byte
/// budget, a write that would push the current file past the budget
/// first renames it to `<path>.1` (replacing any previous rotation) and
/// reopens a fresh file at `path`. Rotation happens only at line
/// boundaries — a line is never split across the two files — and the
/// line that triggered the rotation lands whole in the fresh file. An
/// oversized single line (longer than the whole budget) is still
/// written intact rather than dropped.
#[derive(Debug)]
pub struct AccessLog {
    inner: Mutex<LogFile>,
    path: PathBuf,
    rotated_path: PathBuf,
    max_bytes: u64,
}

impl AccessLog {
    /// Opens (creating if needed) `path` for appending, rotating to
    /// `<path>.1` whenever the file would grow past `max_bytes`
    /// (0 disables rotation).
    pub fn open_rotating(path: impl AsRef<Path>, max_bytes: u64) -> std::io::Result<AccessLog> {
        let path = path.as_ref().to_path_buf();
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        let bytes = file.metadata().map(|m| m.len()).unwrap_or(0);
        let mut rotated = path.clone().into_os_string();
        rotated.push(".1");
        Ok(AccessLog {
            inner: Mutex::new(LogFile { file, bytes }),
            rotated_path: PathBuf::from(rotated),
            path,
            max_bytes,
        })
    }

    /// Appends one line (a trailing newline is added). Write errors are
    /// swallowed: losing a log line must never fail a request. Rotation
    /// errors are equally swallowed — if the rename or reopen fails, the
    /// log keeps appending to the handle it has rather than dropping
    /// lines.
    pub fn write(&self, line: &str) {
        let mut buf = Vec::with_capacity(line.len() + 1);
        buf.extend_from_slice(line.as_bytes());
        buf.push(b'\n');
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        if self.max_bytes > 0 && inner.bytes > 0 && inner.bytes + buf.len() as u64 > self.max_bytes
        {
            let _ = inner.file.flush();
            if std::fs::rename(&self.path, &self.rotated_path).is_ok() {
                if let Ok(file) = OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(&self.path)
                {
                    inner.file = file;
                    inner.bytes = 0;
                }
                // On reopen failure the old handle still points at the
                // renamed file: lines keep landing there, never lost.
            }
        }
        let _ = inner.file.write_all(&buf);
        let _ = inner.file.flush();
        inner.bytes += buf.len() as u64;
    }
}

/// A lock-free generator of request ids: 16 lowercase hex characters,
/// unique per process and seeded so concurrent processes diverge.
#[derive(Debug)]
pub struct RequestIds {
    seed: u64,
    next: AtomicU64,
}

impl RequestIds {
    /// Creates a generator whose stream is determined by `seed`.
    pub fn new(seed: u64) -> RequestIds {
        RequestIds {
            seed,
            next: AtomicU64::new(0),
        }
    }

    /// Creates a generator seeded from the process id and wall clock,
    /// so two fleet members started in the same instant still mint
    /// disjoint id streams.
    pub fn from_env() -> RequestIds {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.subsec_nanos() as u64 ^ d.as_secs())
            .unwrap_or(0);
        RequestIds::new(mix64(nanos ^ (u64::from(std::process::id()) << 32)))
    }

    /// Mints the next id: `mix64(seed ^ counter)` rendered as 16 hex
    /// characters. One relaxed `fetch_add`, no locks.
    pub fn mint(&self) -> String {
        let n = self.next.fetch_add(1, Ordering::Relaxed);
        format!(
            "{:016x}",
            mix64(self.seed ^ n.wrapping_mul(0x2545_F491_4F6C_DD1D))
        )
    }

    /// The id a request travels under: the client's own
    /// `x-snc-request-id` when it passes [`valid_request_id`], a freshly
    /// minted one otherwise (an invalid id is replaced, never refused).
    pub fn resolve(&self, client: Option<&str>) -> String {
        match client {
            Some(id) if valid_request_id(id) => id.to_string(),
            _ => self.mint(),
        }
    }
}

/// Whether `s` is acceptable as a client-supplied `x-snc-request-id`:
/// 1–64 characters, each ASCII alphanumeric or `-` / `_` / `.`.
///
/// The fleet honours a valid incoming id (so the router's id survives
/// the hop to the backend, and external callers can bring their own)
/// and mints a fresh one otherwise — ids land in access logs and
/// response headers, so the charset keeps them shell- and
/// header-safe.
pub fn valid_request_id(s: &str) -> bool {
    (1..=64).contains(&s.len())
        && s.bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'-' || b == b'_' || b == b'.')
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minted_ids_are_unique_hex_and_valid() {
        let ids = RequestIds::new(42);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..1000 {
            let id = ids.mint();
            assert_eq!(id.len(), 16);
            assert!(id.bytes().all(|b| b.is_ascii_hexdigit()));
            assert!(valid_request_id(&id));
            assert!(seen.insert(id), "duplicate id");
        }
    }

    #[test]
    fn different_seeds_give_different_streams() {
        assert_ne!(RequestIds::new(1).mint(), RequestIds::new(2).mint());
    }

    #[test]
    fn request_id_validation_rejects_junk() {
        assert!(valid_request_id("abc-123_x.y"));
        assert!(valid_request_id("a"));
        assert!(!valid_request_id(""));
        assert!(!valid_request_id(&"a".repeat(65)));
        assert!(!valid_request_id("has space"));
        assert!(!valid_request_id("newline\n"));
        assert!(!valid_request_id("quote\"d"));
    }

    #[test]
    fn resolve_keeps_a_valid_client_id_and_mints_otherwise() {
        let ids = RequestIds::new(7);
        assert_eq!(ids.resolve(Some("client-42")), "client-42");
        let expected = RequestIds::new(7);
        for junk in [None, Some(""), Some("has space")] {
            assert_eq!(ids.resolve(junk), expected.mint(), "{junk:?}");
        }
    }

    #[test]
    fn rotation_preserves_every_line_and_never_splits() {
        let dir = std::env::temp_dir().join(format!("snc-metrics-rotate-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("rotate.log");
        let rotated = dir.join("rotate.log.1");
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&rotated);
        // Each line is 20 bytes on disk ("line-NNN" padded + newline);
        // a 100-byte budget rotates after every 5 lines. Writing 9
        // lines triggers exactly one rotation, so nothing ages out of
        // the two retained generations and loss would be visible.
        let log = AccessLog::open_rotating(&path, 100).unwrap();
        let lines: Vec<String> = (0..9)
            .map(|i| format!("line-{i:03}-{}", "x".repeat(10)))
            .collect();
        for line in &lines {
            log.write(line);
        }
        let old = std::fs::read_to_string(&rotated).unwrap();
        let new = std::fs::read_to_string(&path).unwrap();
        let survived: Vec<&str> = old.lines().chain(new.lines()).collect();
        assert_eq!(
            survived,
            lines.iter().map(String::as_str).collect::<Vec<_>>(),
            "rotation lost, split, or reordered a line"
        );
        assert_eq!(
            old.len() as u64,
            100,
            "rotation fired at the budget boundary"
        );
        assert!(new.len() as u64 <= 100, "current file exceeds the budget");
        // An oversized single line still lands whole (in a fresh file).
        let huge = "h".repeat(300);
        log.write(&huge);
        let after = std::fs::read_to_string(&path).unwrap();
        assert!(after.contains(&huge), "oversized line was dropped or split");
        for p in [&path, &rotated] {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn concurrent_rotation_keeps_lines_whole() {
        let dir =
            std::env::temp_dir().join(format!("snc-metrics-rotate-mt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("mt.log");
        let rotated = dir.join("mt.log.1");
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&rotated);
        let log = AccessLog::open_rotating(&path, 400).unwrap();
        std::thread::scope(|scope| {
            for t in 0..4 {
                let log = &log;
                scope.spawn(move || {
                    for i in 0..50 {
                        log.write(&format!("t{t}-i{i:03}-{}", "y".repeat(12)));
                    }
                });
            }
        });
        // Older generations are deliberately discarded, but every line
        // that survives in either retained file must be intact — no
        // torn writes, no interleaving, no split across the boundary.
        let old = std::fs::read_to_string(&rotated).unwrap_or_default();
        let new = std::fs::read_to_string(&path).unwrap();
        for text in [&old, &new] {
            assert!(
                text.is_empty() || text.ends_with('\n'),
                "file ends mid-line"
            );
            for line in text.lines() {
                assert_eq!(line.len(), 20, "torn line {line:?}");
                assert!(
                    line.starts_with('t') && line.contains("-i"),
                    "garbled line {line:?}"
                );
            }
        }
        assert!(new.len() as u64 <= 400, "current file exceeds the budget");
        for p in [&path, &rotated] {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn access_log_appends_flushed_lines() {
        let dir = std::env::temp_dir().join(format!("snc-metrics-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("access.log");
        let _ = std::fs::remove_file(&path);
        let log = AccessLog::open_rotating(&path, 0).unwrap();
        log.write("first line");
        log.write("second line");
        // Reopen appends rather than truncating.
        let log2 = AccessLog::open_rotating(&path, 0).unwrap();
        log2.write("third line");
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text, "first line\nsecond line\nthird line\n");
        let _ = std::fs::remove_file(&path);
    }
}
