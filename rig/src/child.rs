//! The system under test as a child process: builds or locates the
//! release `saga-server` binary, spawns it on port 0, parses the address
//! it prints, reads its peak memory, and kills it on drop (panics
//! included).

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};

/// Where the rig's own build lives and where it may write.
#[derive(Debug, Clone)]
pub struct Paths {
    /// The profile directory holding the rig binary (`<target>/release`).
    pub profile_dir: PathBuf,
    /// `<target>/rig`: the only directory the rig writes to.
    pub out_dir: PathBuf,
}

impl Paths {
    /// Derives the paths from the running executable, which Cargo placed
    /// at `<target>/<profile>/saga-rig` (or, for a test binary, one level
    /// further down in `deps/`).
    pub fn locate() -> Result<Paths, String> {
        let exe =
            std::env::current_exe().map_err(|e| format!("cannot locate the rig binary: {e}"))?;
        let mut profile_dir = exe
            .parent()
            .ok_or("rig binary has no parent directory")?
            .to_path_buf();
        if profile_dir.file_name().is_some_and(|n| n == "deps") {
            profile_dir.pop();
        }
        let target = profile_dir
            .parent()
            .ok_or("profile directory has no parent")?;
        Ok(Paths {
            out_dir: target.join("rig"),
            profile_dir,
        })
    }

    /// Builds `saga-server` with the profile the rig itself was built with
    /// (a no-op when it is up to date) and returns its path. Building on
    /// every run costs a fraction of a second and rules out measuring a
    /// stale server.
    pub fn build_server(&self) -> Result<PathBuf, String> {
        let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
        let manifest_dir = std::env::var_os("CARGO_MANIFEST_DIR")
            .map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")), PathBuf::from);
        let mut build = Command::new(cargo);
        build
            .args([
                "build",
                "--offline",
                "--quiet",
                "-p",
                "saga-server",
                "--bin",
                "saga-server",
            ])
            .arg("--manifest-path")
            .arg(manifest_dir.join("Cargo.toml"))
            .arg("--target-dir")
            .arg(self.profile_dir.parent().expect("checked in locate"));
        if self.profile_dir.file_name().is_some_and(|n| n == "release") {
            build.arg("--release");
        }
        let status = build
            .status()
            .map_err(|e| format!("cannot run cargo: {e}"))?;
        if !status.success() {
            return Err(format!("building saga-server failed: {status}"));
        }
        let bin = self.profile_dir.join("saga-server");
        if bin.is_file() {
            Ok(bin)
        } else {
            Err(format!("{} is missing after the build", bin.display()))
        }
    }
}

/// A running `saga-server` child. Dropping it kills the process and waits
/// for it to end.
#[derive(Debug)]
pub struct ServerChild {
    child: Child,
    addr: SocketAddr,
}

impl ServerChild {
    /// Spawns `bin 127.0.0.1:0 <workers>` and waits for the line that
    /// announces the bound address. Flight-recorder dumps go to `out_dir`.
    pub fn spawn(bin: &Path, workers: usize, out_dir: &Path) -> Result<ServerChild, String> {
        let mut child = Command::new(bin)
            .args(["127.0.0.1:0", &workers.to_string()])
            .env("SAGA_FLIGHT_DIR", out_dir.join("flight"))
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", bin.display()))?;
        let stdout = child.stdout.take().expect("stdout was piped");
        let mut line = String::new();
        let read = BufReader::new(stdout).read_line(&mut line);
        // From here on the guard owns the process: an early return kills it.
        let mut server = ServerChild {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        read.map_err(|e| format!("reading the server's address: {e}"))?;
        server.addr = parse_listen_line(&line)
            .ok_or_else(|| format!("unexpected first line from saga-server: {line:?}"))?;
        Ok(server)
    }

    /// The address the server bound.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The child's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Peak resident set (`VmHWM`) of the child so far, in MB.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        peak_rss_mb(&format!("/proc/{}/status", self.child.id()))
    }
}

impl Drop for ServerChild {
    fn drop(&mut self) {
        // Errors mean the process is already gone.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// `saga-server listening on 127.0.0.1:40123 (2 workers)` → the address.
fn parse_listen_line(line: &str) -> Option<SocketAddr> {
    line.split_whitespace().find_map(|word| word.parse().ok())
}

/// Peak resident set of this process, in MB.
pub fn self_peak_rss_mb() -> Option<f64> {
    peak_rss_mb("/proc/self/status")
}

fn peak_rss_mb(status_path: &str) -> Option<f64> {
    let status = std::fs::read_to_string(status_path).ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn listen_line_parses() {
        let addr =
            parse_listen_line("saga-server listening on 127.0.0.1:40123 (2 workers)\n").unwrap();
        assert_eq!(addr.port(), 40123);
        assert_eq!(parse_listen_line("saga-server: bind failed"), None);
    }

    #[test]
    fn own_peak_rss_is_readable() {
        assert!(self_peak_rss_mb().unwrap() > 1.0);
    }
}
