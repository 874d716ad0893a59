//! One-command local cluster launch: spawns the router, `N` workers,
//! and the coordinator as real child processes on loopback sockets,
//! waits for the run, and returns the coordinator's merged digest.
//! Used by the integration tests (`cluster_identity`,
//! `cluster_metrics`, `tests/cluster_equivalence.rs`).

use std::io::{self, BufRead, BufReader, Read};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};

/// What a completed cluster run produced, as reported on the
/// coordinator's stdout.
#[derive(Debug, Clone, Copy)]
pub struct ClusterOutcome {
    pub events: usize,
    /// FNV-1a digest of the merged event stream.
    pub digest: u64,
}

/// Locates one of this crate's binaries. Prefers the
/// `CARGO_BIN_EXE_<name>` variable cargo sets for this crate's own
/// integration tests; otherwise walks up from the current executable
/// (`target/<profile>/deps/test-xyz` or `target/<profile>/bench-xyz`)
/// to the profile directory, where sibling binaries land.
pub(crate) fn bin_path(name: &str) -> io::Result<PathBuf> {
    if let Ok(p) = std::env::var(format!("CARGO_BIN_EXE_{name}")) {
        return Ok(PathBuf::from(p));
    }
    let exe = std::env::current_exe()?;
    let mut dir = exe
        .parent()
        .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "executable has no parent"))?;
    if dir.file_name().is_some_and(|n| n == "deps") {
        dir = dir
            .parent()
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "deps has no parent"))?;
    }
    let candidate = dir.join(format!("{name}{}", std::env::consts::EXE_SUFFIX));
    if candidate.exists() {
        Ok(candidate)
    } else {
        Err(io::Error::new(
            io::ErrorKind::NotFound,
            format!(
                "{} not found — build the rfid-cluster binaries first (cargo build -p rfid-cluster)",
                candidate.display()
            ),
        ))
    }
}

/// A local cluster launch plan.
#[derive(Debug, Clone)]
pub struct LocalCluster {
    pub scenario: String,
    pub num_workers: usize,
    /// Where the coordinator writes the merged event stream
    /// (bit-exact; decode with `coordinator::read_events_file`).
    pub events_out: Option<PathBuf>,
    /// Where the router writes the merged cluster-wide registry
    /// snapshot (text exposition, same format TELEMETRY serves).
    pub metrics_out: Option<PathBuf>,
}

struct ChildGuard(Option<Child>, &'static str);

impl ChildGuard {
    fn child(&mut self) -> &mut Child {
        self.0.as_mut().expect("not yet waited")
    }
}

impl Drop for ChildGuard {
    fn drop(&mut self) {
        // only reaps stragglers after an error return; the success
        // path takes the child out via `wait_success`
        if let Some(c) = &mut self.0 {
            let _ = c.kill();
            let _ = c.wait();
        }
    }
}

fn spawn(bin: &Path, args: &[String]) -> io::Result<Child> {
    Command::new(bin)
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
}

/// Reads lines from a child's stdout until `LISTENING <addr>`.
fn wait_listening(child: &mut Child, who: &str) -> io::Result<String> {
    let stdout = child.stdout.as_mut().expect("stdout piped");
    let mut lines = BufReader::new(stdout).lines();
    for line in &mut lines {
        let line = line?;
        if let Some(addr) = line.strip_prefix("LISTENING ") {
            return Ok(addr.trim().to_string());
        }
    }
    Err(io::Error::new(
        io::ErrorKind::UnexpectedEof,
        format!("{who} exited before announcing its address"),
    ))
}

fn wait_success(mut guard: ChildGuard) -> io::Result<Child> {
    let mut child = guard.0.take().expect("not yet waited");
    let status = child.wait()?;
    if !status.success() {
        return Err(io::Error::other(format!("{} failed: {status}", guard.1)));
    }
    Ok(child)
}

impl LocalCluster {
    pub fn new(scenario: &str, num_workers: usize) -> Self {
        Self {
            scenario: scenario.to_string(),
            num_workers,
            events_out: None,
            metrics_out: None,
        }
    }

    pub fn events_out(mut self, path: &Path) -> Self {
        self.events_out = Some(path.to_path_buf());
        self
    }

    pub fn metrics_out(mut self, path: &Path) -> Self {
        self.metrics_out = Some(path.to_path_buf());
        self
    }

    /// Launches coordinator → router → workers, waits for every
    /// process, and parses the coordinator's summary.
    pub fn run(&self) -> io::Result<ClusterOutcome> {
        let n = self.num_workers.to_string();
        let mut coord_args = vec![
            "--listen".into(),
            "127.0.0.1:0".into(),
            "--workers".into(),
            n.clone(),
        ];
        if let Some(out) = &self.events_out {
            coord_args.push("--out".into());
            coord_args.push(out.display().to_string());
        }
        let mut coordinator = ChildGuard(
            Some(spawn(&bin_path("rfid-coordinator")?, &coord_args)?),
            "coordinator",
        );
        let coord_addr = wait_listening(coordinator.child(), "coordinator")?;

        let mut router_args = vec![
            "--listen".into(),
            "127.0.0.1:0".into(),
            "--workers".into(),
            n.clone(),
            "--scenario".into(),
            self.scenario.clone(),
        ];
        if let Some(out) = &self.metrics_out {
            router_args.push("--metrics-out".into());
            router_args.push(out.display().to_string());
        }
        let mut router = ChildGuard(
            Some(spawn(&bin_path("rfid-router")?, &router_args)?),
            "router",
        );
        let router_addr = wait_listening(router.child(), "router")?;

        let worker_bin = bin_path("rfid-worker")?;
        let mut workers = Vec::with_capacity(self.num_workers);
        for i in 0..self.num_workers {
            let args = vec![
                "--index".into(),
                i.to_string(),
                "--router".into(),
                router_addr.clone(),
                "--coordinator".into(),
                coord_addr.clone(),
                "--scenario".into(),
                self.scenario.clone(),
            ];
            workers.push(ChildGuard(Some(spawn(&worker_bin, &args)?), "worker"));
        }

        for w in workers {
            wait_success(w)?;
        }
        wait_success(router)?;
        let mut done = wait_success(coordinator)?;
        let mut tail = String::new();
        if let Some(mut out) = done.stdout.take() {
            out.read_to_string(&mut tail)?;
        }
        parse_summary(&tail)
    }
}

fn parse_summary(stdout: &str) -> io::Result<ClusterOutcome> {
    let mut events = None;
    let mut digest = None;
    for line in stdout.lines() {
        if let Some(v) = line.strip_prefix("events ") {
            events = v.trim().parse::<usize>().ok();
        } else if let Some(v) = line.strip_prefix("digest 0x") {
            digest = u64::from_str_radix(v.trim(), 16).ok();
        }
    }
    match (events, digest) {
        (Some(events), Some(digest)) => Ok(ClusterOutcome { events, digest }),
        _ => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("coordinator summary missing events/digest lines: {stdout:?}"),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_parses_and_rejects_garbage() {
        let ok = parse_summary("events 12\ndigest 0x00ff00ff00ff00ff\n").unwrap();
        assert_eq!(ok.events, 12);
        assert_eq!(ok.digest, 0x00ff00ff00ff00ff);
        assert!(parse_summary("nothing to see").is_err());
    }
}
