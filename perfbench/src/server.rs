//! The system under test: the shipped `vodsim serve` binary, built from
//! the checkout and run as a child process. Its CPU time and memory are
//! read from `/proc/<pid>`, so nothing inside the program changes.

use std::fs;
use std::io::{self, BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::Duration;

use vod_svc::{SchedulerKind, ServeEntry};

/// The repository checkout this benchmark was built in.
#[must_use]
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives one level below the repository root")
        .to_path_buf()
}

/// Cargo's target directory for this build: the benchmark binary lives in
/// `<target>/release/`.
fn target_dir() -> io::Result<PathBuf> {
    let exe = std::env::current_exe()?;
    exe.parent()
        .and_then(Path::parent)
        .map(Path::to_path_buf)
        .ok_or_else(|| io::Error::other("benchmark binary has no target directory"))
}

/// A scratch directory inside the target directory, for generated catalogs.
pub fn scratch_dir() -> io::Result<PathBuf> {
    let dir = target_dir()?.join("perfbench-run");
    fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// Builds `vodsim` from the checkout into the benchmark's own target
/// directory and returns its path.
pub fn build_vodsim() -> io::Result<PathBuf> {
    let target = target_dir()?;
    let status = Command::new("cargo")
        .args(["build", "--release", "--quiet", "--bin", "vodsim"])
        .arg("--manifest-path")
        .arg(repo_root().join("Cargo.toml"))
        .env("CARGO_TARGET_DIR", &target)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .status()?;
    if !status.success() {
        return Err(io::Error::other(format!(
            "building vodsim failed: {status}"
        )));
    }
    Ok(target.join("release").join("vodsim"))
}

/// Renders catalog entries in the `vodsim serve --catalog` file format.
#[must_use]
pub fn catalog_toml(entries: &[ServeEntry]) -> String {
    let mut out = String::new();
    for e in entries {
        out.push_str("[[video]]\n");
        match &e.kind {
            SchedulerKind::Dhb { segments } | SchedulerKind::Npb { segments } => {
                out.push_str(&format!(
                    "protocol = \"{}\"\nsegments = {segments}\nsegment-secs = {}\n",
                    e.protocol_key(),
                    e.segment_secs
                ));
            }
            SchedulerKind::Periods { periods } => {
                let list: Vec<String> = periods.iter().map(u64::to_string).collect();
                out.push_str(&format!(
                    "protocol = \"periods\"\nperiods = [{}]\nsegment-secs = {}\n",
                    list.join(", "),
                    e.segment_secs
                ));
            }
            SchedulerKind::DhbD {
                preset,
                seed,
                max_wait_secs,
            } => {
                out.push_str(&format!(
                    "protocol = \"dhb-d\"\npreset = \"{preset}\"\nseed = {seed}\n\
                     max-wait-secs = {max_wait_secs}\n"
                ));
            }
        }
        if let Some(rate) = e.bytes_per_sec {
            out.push_str(&format!("bytes-per-sec = {rate}\n"));
        }
        out.push('\n');
    }
    out
}

/// A running `vodsim serve` child. Dropping it stops the process and
/// waits for it to exit.
pub struct Server {
    child: Child,
    /// Held open for the child's lifetime: the banner spans several lines,
    /// and a closed pipe would fail the child's later writes.
    _stdout: BufReader<ChildStdout>,
    /// Client listener address.
    pub addr: SocketAddr,
    /// Admin scrape-plane address, when started with one.
    pub admin: Option<String>,
}

impl Server {
    /// Starts `vodsim serve` on an ephemeral loopback port with the catalog
    /// file at `catalog` (shipped defaults for everything not named here)
    /// and waits for its listening banner.
    pub fn start(
        vodsim: &Path,
        catalog: &Path,
        shards: usize,
        dilation: u32,
        admin: bool,
    ) -> io::Result<Server> {
        let mut cmd = Command::new(vodsim);
        cmd.arg("serve")
            .args(["--addr", "127.0.0.1:0", "--catalog"])
            .arg(catalog)
            .args(["--shards", &shards.to_string()])
            .args(["--dilation", &dilation.to_string()]);
        if admin {
            cmd.args(["--admin-addr", "127.0.0.1:0"]);
        }
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut banner = String::new();
        let _ = stdout.read_line(&mut banner);
        let between = |from: &str, to: char| -> Option<String> {
            let rest = &banner[banner.find(from)? + from.len()..];
            Some(rest[..rest.find(to)?].to_owned())
        };
        let addr = between("listening on ", ' ').and_then(|a| a.parse().ok());
        let server = Server {
            child,
            _stdout: stdout,
            addr: addr.unwrap_or_else(|| SocketAddr::from(([127, 0, 0, 1], 0))),
            admin: between("admin on ", ')'),
        };
        if addr.is_none() || (admin && server.admin.is_none()) {
            // Dropping `server` stops the child.
            return Err(io::Error::other(format!(
                "vodsim serve did not start (banner {banner:?})"
            )));
        }
        Ok(server)
    }

    /// Server CPU time so far: the summed on-CPU time of its live threads
    /// from `/proc/<pid>/task/*/schedstat`.
    pub fn thread_cpu(&self) -> io::Result<Duration> {
        let mut total = Duration::ZERO;
        for task in fs::read_dir(format!("/proc/{}/task", self.child.id()))? {
            // A thread can exit between the listing and the read.
            if let Ok(cpu) = schedstat_cpu(&task?.path().join("schedstat")) {
                total += cpu;
            }
        }
        Ok(total)
    }

    /// Peak resident set size (`VmHWM`) in megabytes.
    pub fn peak_rss_mb(&self) -> io::Result<f64> {
        peak_rss_mb(&format!("/proc/{}/status", self.child.id()))
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// A thread's on-CPU time from its `schedstat` file (for example
/// `/proc/thread-self/schedstat`), kept in nanoseconds, so a window of a
/// second reads precisely (`/proc/<pid>/stat` counts 10 ms ticks).
pub fn schedstat_cpu(path: &Path) -> io::Result<Duration> {
    fs::read_to_string(path)?
        .split_whitespace()
        .next()
        .and_then(|f| f.parse().ok())
        .map(Duration::from_nanos)
        .ok_or_else(|| io::Error::other("bad schedstat"))
}

/// `VmHWM` from a `/proc/<pid>/status` file, in megabytes.
pub fn peak_rss_mb(status_path: &str) -> io::Result<f64> {
    let status = fs::read_to_string(status_path)?;
    let kb: u64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| io::Error::other("no VmHWM in status"))?;
    Ok(kb as f64 / 1024.0)
}
