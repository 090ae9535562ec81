//! Real `gendpr serve` daemons: spawn, readiness, counters, shutdown.

use crate::spec::Workload;
use gendpr_service::ServiceClient;
use std::collections::HashMap;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

/// How long a daemon may take from spawn to accepting jobs.
const READY_TIMEOUT: Duration = Duration::from_secs(120);
/// How long a stopped daemon may take to exit before it is killed.
const EXIT_TIMEOUT: Duration = Duration::from_secs(30);

/// Where a deployment keeps its state: one fresh directory per start.
#[derive(Debug, Clone)]
pub struct StateDir {
    pub dir: PathBuf,
}

impl StateDir {
    /// Creates `dir` empty (removing anything left there).
    pub fn fresh(dir: PathBuf) -> std::io::Result<Self> {
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(Self { dir })
    }

    #[must_use]
    pub fn ledger(&self) -> PathBuf {
        self.dir.join("ledger.bin")
    }

    #[must_use]
    pub fn replicas(&self, w: &Workload) -> Vec<PathBuf> {
        (1..=w.replicas)
            .map(|i| self.dir.join(format!("replica-{i}.bin")))
            .collect()
    }
}

/// One spawned daemon process.
pub struct Daemon {
    child: Child,
    pub addr: SocketAddr,
}

/// The daemons of one deployment (one `serve`, or one per track).
pub struct Deployment {
    pub daemons: Vec<Daemon>,
    /// Spawn → every daemon accepting jobs.
    pub setup: Duration,
}

impl Deployment {
    /// Spawns the workload's daemons over `state` and waits until each
    /// reports it is serving. Tracks start concurrently, as a fleet does.
    ///
    /// # Errors
    ///
    /// A daemon that fails to start or exits before serving.
    pub fn start(
        gendpr: &Path,
        w: &Workload,
        study: &Path,
        state: &StateDir,
    ) -> Result<Self, String> {
        let started = Instant::now();
        let mut pending = Vec::new();
        for track in 0..w.daemons() {
            let mut cmd = Command::new(gendpr);
            cmd.arg("serve")
                .args(["--gdos", &w.gdos.to_string()])
                .args(["--collusion", &w.collusion.to_string()])
                .arg("--tcp")
                .arg("--case")
                .arg(study.join("case.vcf"))
                .arg("--reference")
                .arg(study.join("reference.vcf"))
                .arg("--ledger")
                .arg(state.ledger())
                .args(["--workers", &w.workers.to_string()])
                .args(["--shards", &w.shards.to_string()])
                .args(["--listen", "127.0.0.1:0"]);
            let replicas = state.replicas(w);
            if !replicas.is_empty() {
                let list: Vec<String> = replicas.iter().map(|p| p.display().to_string()).collect();
                cmd.args(["--ledger-replicas", &list.join(",")]);
            }
            if w.tracks > 0 {
                cmd.args(["--track-id", &track.to_string()]);
            }
            let log = std::fs::File::create(state.dir.join(format!("daemon-{track}.log")))
                .map_err(|e| format!("daemon log: {e}"))?;
            let mut child = cmd
                .stdin(Stdio::null())
                .stdout(Stdio::piped())
                .stderr(Stdio::from(log))
                .spawn()
                .map_err(|e| format!("spawning {}: {e}", gendpr.display()))?;
            let stdout = child.stdout.take().expect("piped stdout");
            let (tx, rx) = mpsc::channel();
            thread::spawn(move || {
                // Drains stdout for the daemon's whole life; the first
                // "serving on ADDR" line is the readiness signal.
                let mut tx = Some(tx);
                for line in BufReader::new(stdout).lines().map_while(Result::ok) {
                    if let Some(rest) = line.strip_prefix("serving on ") {
                        let addr = rest.split_whitespace().next().unwrap_or_default();
                        if let (Some(tx), Ok(addr)) = (tx.take(), addr.parse::<SocketAddr>()) {
                            let _ = tx.send(addr);
                        }
                    }
                }
            });
            pending.push((child, rx));
        }
        let mut daemons: Vec<Daemon> = Vec::new();
        let mut failure = None;
        for (mut child, rx) in pending {
            let left = READY_TIMEOUT.saturating_sub(started.elapsed());
            match rx.recv_timeout(left) {
                Ok(addr) => daemons.push(Daemon { child, addr }),
                Err(_) => {
                    let _ = child.kill();
                    let status = child.wait();
                    failure.get_or_insert(format!(
                        "daemon did not start serving ({status:?}); see {}",
                        state.dir.display()
                    ));
                }
            }
        }
        let setup = started.elapsed();
        let deployment = Self { daemons, setup };
        match failure {
            None => Ok(deployment),
            Some(error) => {
                deployment.stop();
                Err(error)
            }
        }
    }

    /// Client endpoints, one per daemon.
    #[must_use]
    pub fn addrs(&self) -> Vec<SocketAddr> {
        self.daemons.iter().map(|d| d.addr).collect()
    }

    /// Each daemon's Prometheus exposition, fetched over the client
    /// protocol, parsed.
    ///
    /// # Errors
    ///
    /// A daemon that does not answer `status`.
    pub fn metrics(&self) -> Result<Vec<Metrics>, String> {
        self.daemons
            .iter()
            .map(|d| {
                ServiceClient::new(d.addr)
                    .status()
                    .map(|s| Metrics::parse(&s.metrics))
                    .map_err(|e| format!("status {}: {e}", d.addr))
            })
            .collect()
    }

    /// Largest peak resident set (`VmHWM`) over the daemons, in MB.
    #[must_use]
    pub fn peak_rss_mb(&self) -> f64 {
        self.daemons
            .iter()
            .filter_map(|d| vm_hwm_kb(d.child.id()))
            .fold(0.0, |acc, kb| acc.max(kb as f64 / 1024.0))
    }

    /// Asks every daemon to stop and waits for each to exit (killing
    /// any that outlive [`EXIT_TIMEOUT`]). Returns whether all exited
    /// cleanly.
    pub fn stop(self) -> bool {
        let mut clean = true;
        for d in &self.daemons {
            if ServiceClient::new(d.addr).shutdown().is_err() {
                clean = false;
            }
        }
        for mut d in self.daemons {
            let deadline = Instant::now() + EXIT_TIMEOUT;
            loop {
                match d.child.try_wait() {
                    Ok(Some(status)) => {
                        clean &= status.success();
                        break;
                    }
                    Ok(None) if Instant::now() < deadline => {
                        thread::sleep(Duration::from_millis(5))
                    }
                    _ => {
                        let _ = d.child.kill();
                        let _ = d.child.wait();
                        clean = false;
                        break;
                    }
                }
            }
        }
        clean
    }
}

impl Drop for Daemon {
    /// Never leaves a daemon behind, even when the benchmark unwinds.
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

fn vm_hwm_kb(pid: u32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// A parsed Prometheus text exposition: series (name plus labels, as
/// written) → value.
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    series: HashMap<String, f64>,
}

impl Metrics {
    #[must_use]
    pub fn parse(text: &str) -> Self {
        let series = text
            .lines()
            .filter(|l| !l.starts_with('#'))
            .filter_map(|l| {
                let (key, value) = l.rsplit_once(' ')?;
                Some((key.to_string(), value.parse().ok()?))
            })
            .collect();
        Self { series }
    }

    /// Sum of every series of family `name` (any labels).
    #[must_use]
    pub fn family(&self, name: &str) -> f64 {
        self.series
            .iter()
            .filter(|(k, _)| k.split('{').next() == Some(name))
            .map(|(_, v)| v)
            .sum()
    }

    /// One exact series, e.g. `gendpr_phase_seconds_sum{phase="ld"}`.
    #[must_use]
    pub fn get(&self, series: &str) -> f64 {
        self.series.get(series).copied().unwrap_or(0.0)
    }

    /// Series-wise `self − before`.
    #[must_use]
    pub fn since(&self, before: &Self) -> Self {
        let series = self
            .series
            .iter()
            .map(|(k, v)| (k.clone(), v - before.series.get(k).copied().unwrap_or(0.0)))
            .collect();
        Self { series }
    }

    /// Series-wise sum over several daemons.
    #[must_use]
    pub fn total(all: &[Self]) -> Self {
        let mut series: HashMap<String, f64> = HashMap::new();
        for m in all {
            for (k, v) in &m.series {
                *series.entry(k.clone()).or_default() += v;
            }
        }
        Self { series }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_families_and_deltas() {
        let before = Metrics::parse(
            "# HELP x\ngendpr_phase_seconds_sum{phase=\"ld\"} 1.5\ngendpr_jobs_total{outcome=\"certified\"} 2\n",
        );
        let after = Metrics::parse(
            "gendpr_phase_seconds_sum{phase=\"ld\"} 4\ngendpr_jobs_total{outcome=\"certified\"} 5\ngendpr_jobs_total{outcome=\"failed\"} 1\n",
        );
        let d = after.since(&before);
        assert_eq!(d.get("gendpr_phase_seconds_sum{phase=\"ld\"}"), 2.5);
        assert_eq!(d.family("gendpr_jobs_total"), 4.0);
        assert_eq!(
            Metrics::total(&[d.clone(), d]).family("gendpr_jobs_total"),
            8.0
        );
    }
}
