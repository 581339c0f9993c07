//! Spawn-for-test helpers: launch real server/router **processes** and
//! talk to them over TCP.
//!
//! The multi-process suites (router integration, fault injection, the
//! `router_throughput` bench) need actual OS processes — a killed
//! backend must take its sockets, caches, and job store with it, which
//! an in-process [`crate::serve`] handle cannot simulate. These helpers
//! centralize the three fragile parts so every suite shares one
//! implementation:
//!
//! * **Binary discovery** ([`binary_path`]): workspace binaries land
//!   next to the test executable's `deps/` directory. A test or bench
//!   harness brings the binary up to date once per process through the
//!   `cargo` that invoked it, so `cargo test --test …` alone never runs
//!   a stale (or missing) build.
//! * **Port allocation**: processes bind `127.0.0.1:0` and *report*
//!   their actual address on stdout ([`spawn_listening`] parses it), so
//!   concurrent suites can never collide on a port. For the one case
//!   that needs an address *before* the process exists (a backend that
//!   starts late, to exercise probe re-admission), [`reserve_port`]
//!   leases an ephemeral port from the kernel; a port that was only
//!   ever bound-and-closed by a listener has no lingering sockets, so
//!   the later bind cannot hit `EADDRINUSE`.
//! * **Cleanup** ([`SpawnedProcess`]): kill-on-drop, so a panicking
//!   test never leaks a child process into the next suite.

use std::io::{BufRead, BufReader};
use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::{Mutex, PoisonError};

/// A child process spawned by [`spawn_listening`], killed on drop.
#[derive(Debug)]
pub struct SpawnedProcess {
    child: Option<Child>,
    addr: SocketAddr,
    name: &'static str,
}

impl SpawnedProcess {
    /// The address the process reported it is listening on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The child's OS process id (for healthz cross-checks).
    pub fn pid(&self) -> u32 {
        self.child.as_ref().map_or(0, Child::id)
    }

    /// Kills the process immediately (SIGKILL) and reaps it. Idempotent;
    /// also what `Drop` does. This is the fault-injection primitive: the
    /// process gets no chance to drain, flush, or answer in-flight
    /// requests.
    pub fn kill(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

impl Drop for SpawnedProcess {
    fn drop(&mut self) {
        self.kill();
    }
}

/// Names [`binary_path`] has already built in this process.
static BUILT: Mutex<Vec<String>> = Mutex::new(Vec::new());

/// Locates a workspace binary by crate/bin name, building it first when
/// the caller is a test or bench harness.
///
/// Harness executables run from `target/<profile>/deps/`, so the sibling
/// `target/<profile>/<name>` is the binary built alongside the suite.
/// `cargo test --test …` does not rebuild it, so the first call for each
/// name runs `cargo build -p <name> --bin <name>` in the matching
/// profile (a no-op when it is up to date) through the `cargo` that
/// invoked the harness. Any other caller (a binary run from the profile
/// directory itself) gets the sibling path as it is, with no cargo call.
///
/// # Panics
///
/// Panics if the binary cannot be located or built — the caller is a
/// test or bench, and a missing binary is a setup error worth failing
/// loudly on.
pub fn binary_path(name: &str) -> PathBuf {
    let exe = std::env::current_exe().expect("current_exe");
    let dir = exe.parent().expect("executable has a parent directory");
    let harness = dir.file_name().is_some_and(|f| f == "deps");
    // target/<profile>/deps/<suite>-<hash> → target/<profile>/<name>
    let profile_dir = if harness {
        dir.parent().expect("deps/ has a profile directory")
    } else {
        dir
    };
    let candidate = profile_dir.join(name);
    let mut built = BUILT.lock().unwrap_or_else(PoisonError::into_inner);
    if (harness || !candidate.exists()) && !built.iter().any(|b| b == name) {
        let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
        let mut build = Command::new(cargo);
        build.args(["build", "-q", "-p", name, "--bin", name]);
        if profile_dir.file_name().is_some_and(|f| f == "release") {
            build.arg("--release");
        }
        let status = build.status().expect("spawn cargo build");
        assert!(status.success(), "cargo build -p {name} failed");
        built.push(name.to_string());
    }
    drop(built);
    assert!(candidate.exists(), "{} does not exist", candidate.display());
    candidate
}

/// Spawns workspace binary `name` with `args` and waits until it prints
/// its listening address (`"… listening on ADDR …"`) on stdout.
///
/// Pass `--addr 127.0.0.1:0` (or none — both binaries print their bound
/// address regardless) to let the kernel pick the port; the parsed
/// address is what the caller connects to, so there is no window where
/// a guessed port can be stolen.
///
/// # Panics
///
/// Panics if the process cannot be spawned or exits before announcing
/// an address.
pub fn spawn_listening(name: &'static str, args: &[&str]) -> SpawnedProcess {
    let path = binary_path(name);
    let mut child = Command::new(&path)
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .unwrap_or_else(|e| panic!("spawn {}: {e}", path.display()));
    let stdout = child.stdout.take().expect("piped stdout");
    let mut lines = BufReader::new(stdout).lines();
    let addr = loop {
        let line = match lines.next() {
            Some(Ok(line)) => line,
            other => panic!("{name} exited before announcing an address: {other:?}"),
        };
        if let Some(rest) = line.split("listening on ").nth(1) {
            let addr = rest
                .split_whitespace()
                .next()
                .and_then(|raw| raw.parse().ok())
                .unwrap_or_else(|| panic!("unparsable address in {line:?}"));
            break addr;
        }
    };
    // Keep draining stdout in the background so the child never blocks
    // on a full pipe.
    std::thread::spawn(move || for _line in lines {});
    SpawnedProcess {
        child: Some(child),
        addr,
        name,
    }
}

/// Spawns a backend `snc-server` process on an ephemeral port with the
/// given extra flags (`--addr` is supplied here).
pub fn spawn_server(extra_args: &[&str]) -> SpawnedProcess {
    let mut args = vec!["--addr", "127.0.0.1:0"];
    args.extend_from_slice(extra_args);
    spawn_listening("snc-server", &args)
}

/// Leases an ephemeral port: binds `127.0.0.1:0`, records the address,
/// and closes the listener. The kernel will not hand the same port to
/// another `:0` bind while ephemeral ports remain plentiful, and since
/// nothing ever connected, no `TIME_WAIT` socket can block the real
/// bind later. Use only for processes that must be *configured before
/// they exist* (late-started backends in re-admission tests); everything
/// else should bind `:0` itself via [`spawn_listening`].
pub fn reserve_port() -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").expect("reserve ephemeral port");
    listener.local_addr().expect("reserved address")
}

impl std::fmt::Display for SpawnedProcess {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} (pid {}) at {}", self.name, self.pid(), self.addr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reserved_ports_are_distinct_and_bindable() {
        let a = reserve_port();
        let b = reserve_port();
        assert_ne!(a, b, "kernel leases distinct ephemeral ports");
        // The reservation is immediately re-bindable (no TIME_WAIT).
        let l = TcpListener::bind(a).expect("rebind reserved port");
        assert_eq!(l.local_addr().unwrap(), a);
    }
}
