//! The traced replay: the daemon's job sequence re-run in this process
//! through each layer's public entry points, in the order the daemon
//! calls them, with a span recorded around every call.
//!
//! Nothing inside the program is instrumented for this: spans come from
//! the benchmark's own code, and per-job counts come from the deltas of
//! the program's existing metrics registry around each call.

use crate::daemon::StateDir;
use crate::spec::Workload;
use gendpr_core::config::{CollusionMode, FederationConfig, GwasParams};
use gendpr_core::runtime::{RecoveryOptions, RuntimeOptions};
use gendpr_core::serving::{JobSpec, ServiceFederation};
use gendpr_fednet::tcp::{ephemeral_listeners, TcpOptions, TcpTransport};
use gendpr_fednet::transport::PeerId;
use gendpr_genomics::cohort::Cohort;
use gendpr_genomics::snp::SnpId;
use gendpr_genomics::vcf;
use gendpr_obs::DURATION_BUCKETS;
use gendpr_service::tracks::claims::{ClaimEntry, ClaimFrame, ClaimLog};
use gendpr_service::{LedgerRecord, ReleaseLedger, ShardPlan, ShardSet, ShardSpec};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The signing key `gendpr synth` and `gendpr serve` default to.
pub const SIGNING_KEY: &[u8] = b"gendpr-demo-signing-key";
/// `serve`'s default per-wait timeout.
const TIMEOUT: Duration = Duration::from_secs(3_600);
/// `serve`'s default `--track-lease-ms`.
const LEASE_MS: u64 = 10_000;
/// `serve`'s default `--max-retries`.
const MAX_RETRIES: u32 = 2;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: &'static str,
    pub job: Option<u64>,
    pub start: Duration,
    pub end: Duration,
}

impl Span {
    #[must_use]
    pub fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// In-memory span recorder. A disabled tracer runs the same calls and
/// records nothing.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    pub spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    #[must_use]
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Runs `body` inside a span named `name`, child of the innermost
    /// open span.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        job: Option<u64>,
        body: impl FnOnce(&mut Self) -> R,
    ) -> R {
        if !self.enabled {
            return body(self);
        }
        let id = self.spans.len();
        let start = self.origin.elapsed();
        self.spans.push(Span {
            id,
            parent: self.stack.last().copied(),
            name,
            job,
            start,
            end: start,
        });
        self.stack.push(id);
        let out = body(self);
        self.stack.pop();
        self.spans[id].end = self.origin.elapsed();
        out
    }

    /// Self time per span name: each span's duration minus the part its
    /// children cover, summed, in first-seen order.
    #[must_use]
    pub fn self_times(&self) -> Vec<(&'static str, Duration)> {
        let mut child_time = vec![Duration::ZERO; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_time[p] += s.duration();
            }
        }
        let mut out: Vec<(&'static str, Duration)> = Vec::new();
        for s in &self.spans {
            let own = s.duration().saturating_sub(child_time[s.id]);
            match out.iter_mut().find(|(n, _)| *n == s.name) {
                Some((_, total)) => *total += own,
                None => out.push((s.name, own)),
            }
        }
        out
    }

    /// Total duration of every span named `name`.
    #[must_use]
    pub fn total(&self, name: &str) -> Duration {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration)
            .sum()
    }

    /// The spans as JSON lines.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"job_id\":{},\"start_us\":{},\"end_us\":{}}}",
                s.id,
                opt(s.parent.map(|p| p as u64)),
                s.name,
                opt(s.job),
                s.start.as_micros(),
                s.end.as_micros()
            );
        }
        out
    }
}

/// Reads a signed study exactly as `gendpr serve` does.
///
/// # Errors
///
/// Unreadable or unauthenticated files.
pub fn load_study(dir: &Path) -> Result<Cohort, String> {
    let read = |name: &str| -> Result<vcf::VariantFile, String> {
        let path = dir.join(name);
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        vcf::read_signed(&text, SIGNING_KEY).map_err(|e| format!("{}: {e}", path.display()))
    };
    let case = read("case.vcf")?;
    let reference = read("reference.vcf")?;
    Cohort::new(case.panel, case.genotypes, reference.genotypes).map_err(|e| e.to_string())
}

/// One attested federation over loopback TCP, as `serve --tcp` builds
/// each lane.
fn start_lane(w: &Workload, cohort: &Cohort) -> Result<ServiceFederation, String> {
    let (roster, listeners) = ephemeral_listeners(w.gdos).map_err(|e| e.to_string())?;
    let transports = listeners
        .into_iter()
        .enumerate()
        .map(|(id, l)| {
            TcpTransport::from_listener(PeerId(id as u32), l, &roster, TcpOptions::default())
        })
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    let config = FederationConfig::new(w.gdos)
        .with_collusion(CollusionMode::Fixed(w.collusion))
        .with_seed(0);
    let options = RuntimeOptions {
        timeout: TIMEOUT,
        compact_lr: true,
        prefetch_ld: true,
        recovery: RecoveryOptions::default(),
        threads: gendpr_core::pool::available_parallelism(),
    };
    ServiceFederation::start_over(
        transports,
        config,
        GwasParams::secure_genome_defaults(),
        cohort,
        options,
    )
    .map_err(|e| e.to_string())
}

/// A track's view of the shared files (the fleet replay keeps one per
/// track; a plain daemon has one with no claim log).
struct Track {
    id: u32,
    ledger: ReleaseLedger,
    claims: Option<ClaimLog>,
    lane: ServiceFederation,
    shards: Option<ShardSet>,
}

/// Per-job counts taken around the lane call.
#[derive(Debug, Clone, Copy, Default)]
pub struct JobCounts {
    pub maf_ms: f64,
    pub ld_ms: f64,
    pub lr_ms: f64,
    pub frames: f64,
}

/// Snapshot of the registry series the replay differences.
fn counts_now() -> JobCounts {
    let phase = |p: &str| {
        gendpr_obs::histogram(
            "gendpr_phase_seconds",
            "",
            &[("phase", p)],
            DURATION_BUCKETS,
        )
        .sum()
            * 1e3
    };
    JobCounts {
        maf_ms: phase("maf"),
        ld_ms: phase("ld"),
        lr_ms: phase("lr"),
        frames: gendpr_obs::counter("gendpr_net_frames_sent_total", "", &[]).get() as f64,
    }
}

impl JobCounts {
    fn since(self, before: Self) -> Self {
        Self {
            maf_ms: self.maf_ms - before.maf_ms,
            ld_ms: self.ld_ms - before.ld_ms,
            lr_ms: self.lr_ms - before.lr_ms,
            frames: self.frames - before.frames,
        }
    }
}

/// What a replay produced.
pub struct Replay {
    pub records: Vec<LedgerRecord>,
    pub counts: Vec<JobCounts>,
    pub tracer: Tracer,
}

/// Replays `jobs` (panels in ledger order, with the track that claimed
/// each, for a fleet) over a fresh `state`. Stops early once `budget`
/// has passed. `shards` overrides the workload's shard count (the unsharded
/// twin of a sharded run passes 1).
///
/// # Errors
///
/// Any failure of the program's entry points.
pub fn replay(
    w: &Workload,
    study: &Path,
    state: &StateDir,
    jobs: &[(Vec<u32>, u32)],
    shards: u32,
    tracer: Tracer,
    budget: Duration,
) -> Result<Replay, String> {
    let mut t = tracer;
    let cohort = t.span("genomics.vcf.load", None, |_| load_study(study))?;
    let replicas = state.replicas(w);
    let claims_of = |p: &Path| PathBuf::from(format!("{}.claims", p.display()));
    let opened = t.span("service.ledger.open", None, |_| {
        (0..w.daemons())
            .map(|_| {
                let claims = if w.tracks > 0 {
                    let mirrors: Vec<PathBuf> = replicas.iter().map(|p| claims_of(p)).collect();
                    Some(
                        ClaimLog::open(&claims_of(&state.ledger()), &mirrors)
                            .map_err(|e| e.to_string())?,
                    )
                } else {
                    None
                };
                let ledger = ReleaseLedger::open_replicated(state.ledger(), &replicas)
                    .map_err(|e| e.to_string())?;
                Ok::<_, String>((ledger, claims))
            })
            .collect::<Result<Vec<_>, String>>()
    })?;
    let cohort = Arc::new(cohort);
    let mut tracks = t.span("core.serving.session_start", None, |_| {
        let mut tracks = Vec::new();
        for (id, (ledger, claims)) in (0u32..).zip(opened) {
            let lane = start_lane(w, &cohort)?;
            let plan = ShardPlan::new(cohort.panel().len(), shards);
            let shards = if plan.len() > 1 {
                let (w, cohort) = (*w, Arc::clone(&cohort));
                let spec = ShardSpec {
                    plan,
                    factory: Arc::new(move |_, range| {
                        let slice = cohort.column_range(range.start as usize, range.len as usize);
                        start_lane(&w, &slice).map_err(|e| std::io::Error::other(e).into())
                    }),
                    max_retries: MAX_RETRIES,
                };
                Some(ShardSet::build(&spec).map_err(|e| e.to_string())?)
            } else {
                None
            };
            tracks.push(Track {
                id,
                ledger,
                claims,
                lane,
                shards,
            });
        }
        Ok::<_, String>(tracks)
    })?;

    let started = Instant::now();
    let mut records = Vec::new();
    let mut counts = Vec::new();
    for (panel, track) in jobs {
        if started.elapsed() > budget {
            break;
        }
        let n = tracks.len();
        let track = &mut tracks[*track as usize % n];
        let (record, delta) = run_one(&mut t, track, panel)?;
        records.push(record);
        counts.push(delta);
    }
    for track in tracks {
        drop(track.shards);
        let _ = track.lane.shutdown();
    }
    Ok(Replay {
        records,
        counts,
        tracer: t,
    })
}

/// One job through dispatch (or fleet claim), the lane, and commit (or
/// the fleet's commit gate).
fn run_one(
    t: &mut Tracer,
    track: &mut Track,
    panel: &[u32],
) -> Result<(LedgerRecord, JobCounts), String> {
    let err = |e: gendpr_service::ServiceError| e.to_string();
    let mut job_id = track.ledger.next_job_id();
    t.span("job", None, |t| {
        // Dispatch snapshot (plain daemon) or claim (fleet): under the
        // fleet lock the track refreshes both logs, snapshots the
        // released union and appends its claim.
        let forced: Vec<SnpId> = match track.claims.as_mut() {
            None => t.span("service.ledger.union", Some(job_id), |_| {
                track.ledger.released_union()
            }),
            Some(log) => t.span("service.tracks.claim", Some(job_id), |t| {
                t.span("service.tracks.claims_refresh", Some(job_id), |_| {
                    log.refresh()
                })
                .map_err(err)?;
                t.span("service.ledger.refresh", Some(job_id), |_| {
                    track.ledger.refresh()
                })
                .map_err(err)?;
                job_id = log.next_job_id();
                let forced = t.span("service.ledger.union", Some(job_id), |_| {
                    track.ledger.released_union()
                });
                let frame = ClaimFrame {
                    job_id,
                    track: track.id,
                    attempt: 1,
                    lease_ms: LEASE_MS,
                    prefix: track.ledger.len() as u64,
                    batches: 0,
                    panel: panel.to_vec(),
                    forced: forced.iter().map(|s| s.0).collect(),
                };
                t.span("service.tracks.claim_append", Some(job_id), |_| {
                    log.append(ClaimEntry::Claim(frame))
                })
                .map_err(err)?;
                Ok::<_, String>(forced)
            })?,
        };
        let spec = JobSpec {
            job_id,
            panel: panel.iter().copied().map(SnpId).collect(),
            forced,
        };
        let before = counts_now();
        let outcome = match track.shards.as_mut() {
            Some(set) => t.span("service.shard.run_job", Some(job_id), |_| {
                set.run_job(&mut track.lane, &spec, &[])
            }),
            None => t.span("core.serving.submit", Some(job_id), |_| {
                track.lane.submit(&spec).map_err(Into::into)
            }),
        }
        .map_err(err)?;
        let delta = counts_now().since(before);
        let record = t.span("service.ledger.record", Some(job_id), |_| {
            LedgerRecord::from_outcome(&spec, &outcome)
        });
        match track.claims.as_mut() {
            None => t
                .span("service.ledger.append", Some(job_id), |_| {
                    track.ledger.append(record.clone())
                })
                .map_err(err)?,
            Some(log) => t.span("service.tracks.commit", Some(job_id), |t| {
                t.span("service.tracks.claims_refresh", Some(job_id), |_| {
                    log.refresh()
                })
                .map_err(err)?;
                t.span("service.ledger.refresh", Some(job_id), |_| {
                    track.ledger.refresh()
                })
                .map_err(err)?;
                t.span("service.ledger.append", Some(job_id), |_| {
                    track.ledger.append(record.clone())
                })
                .map_err(err)
            })?,
        }
        Ok((record, delta))
    })
}

/// The track that claimed each job of a fleet run, read from the run's
/// claim log (first claim wins).
#[must_use]
pub fn claim_tracks(claims: &Path) -> HashMap<u64, u32> {
    let bytes = std::fs::read(claims).unwrap_or_default();
    let mut out = HashMap::new();
    for body in crate::gate::frames(&bytes).unwrap_or_default() {
        if let Ok(ClaimEntry::Claim(c)) = gendpr_fednet::wire::from_bytes::<ClaimEntry>(body) {
            out.entry(c.job_id).or_insert(c.track);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        t.span("outer", Some(1), |t| {
            std::thread::sleep(Duration::from_millis(4));
            t.span("inner", Some(1), |_| {
                std::thread::sleep(Duration::from_millis(6))
            });
        });
        let times: HashMap<_, _> = t.self_times().into_iter().collect();
        let outer = t.total("outer");
        let inner = t.total("inner");
        assert!(inner >= Duration::from_millis(6));
        assert_eq!(times["outer"] + times["inner"], outer);
        assert_eq!(t.spans[1].parent, Some(0));
        assert!(t.to_jsonl().contains("\"name\":\"inner\",\"job_id\":1"));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("x", None, |_| 3), 3);
        assert!(t.spans.is_empty());
    }
}
