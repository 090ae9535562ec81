//! The closed-loop load phase: each client submits its next job only
//! after the previous one is answered, and times it at the client.

use crate::spec::{job_panel, Workload};
use gendpr_service::{LedgerRecord, ServiceClient};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One answered (or failed) submission.
#[derive(Debug)]
pub struct Sample {
    /// Position of the job in the seeded stream.
    pub index: u64,
    pub latency: Duration,
    /// The certified record, or the client-visible error.
    pub result: Result<LedgerRecord, String>,
    /// Whether the daemon refused the job at admission.
    pub rejected: bool,
}

/// Everything the load phase measured.
#[derive(Debug)]
pub struct LoadRun {
    pub samples: Vec<Sample>,
    /// Load start → last answer.
    pub wall: Duration,
}

/// Runs `w.clients` closed-loop clients against `addrs` until
/// `seconds` have passed, then lets every in-flight job finish. Client
/// `c` is pinned to daemon `c mod n`, with the other daemons as
/// failover endpoints. `at_mark` runs once: when the `mark`-th job is
/// answered, or at the end of a run that answers fewer.
pub fn run(
    w: &Workload,
    seed: u64,
    addrs: &[SocketAddr],
    seconds: u64,
    mark: u64,
    at_mark: &(dyn Fn() + Sync),
) -> LoadRun {
    let next = AtomicU64::new(0);
    let answered = AtomicU64::new(0);
    let samples = Mutex::new(Vec::new());
    let started = Instant::now();
    let deadline = started + Duration::from_secs(seconds);
    std::thread::scope(|s| {
        for c in 0..w.clients {
            let endpoints: Vec<SocketAddr> = (0..addrs.len())
                .map(|k| addrs[(c + k) % addrs.len()])
                .collect();
            let (next, answered, samples) = (&next, &answered, &samples);
            s.spawn(move || {
                let client = ServiceClient::with_endpoints(endpoints);
                while Instant::now() < deadline {
                    let index = next.fetch_add(1, Ordering::SeqCst);
                    let panel = job_panel(w, seed, index);
                    let sent = Instant::now();
                    let result = client.submit_and_wait(panel, 0);
                    let latency = sent.elapsed();
                    let rejected = matches!(&result, Err(e)
                        if matches!(e.kind(), std::io::ErrorKind::WouldBlock | std::io::ErrorKind::ConnectionAborted));
                    let sample = Sample {
                        index,
                        latency,
                        result: result.map_err(|e| e.to_string()),
                        rejected,
                    };
                    samples.lock().expect("samples").push(sample);
                    if answered.fetch_add(1, Ordering::SeqCst) + 1 == mark {
                        at_mark();
                    }
                }
            });
        }
    });
    let wall = started.elapsed();
    if answered.into_inner() < mark {
        at_mark();
    }
    let mut samples = samples.into_inner().expect("samples");
    samples.sort_by_key(|s| s.index);
    LoadRun { samples, wall }
}

impl LoadRun {
    /// Client latencies of certified jobs, in seconds.
    #[must_use]
    pub fn latencies(&self) -> Vec<f64> {
        self.samples
            .iter()
            .filter(|s| s.result.is_ok())
            .map(|s| s.latency.as_secs_f64())
            .collect()
    }

    /// The certified records, in stream order.
    pub fn records(&self) -> impl Iterator<Item = &LedgerRecord> {
        self.samples.iter().filter_map(|s| s.result.as_ref().ok())
    }
}
