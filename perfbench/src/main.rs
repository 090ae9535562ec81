//! Benchmark of record for the GenDPR service.
//!
//! ```text
//! perfbench --gendpr PATH --work DIR --workload NAME --seed N --seconds N --trace 0|1
//! ```
//!
//! An untraced run (`--trace 0`) generates the workload's study (once;
//! it is cached), starts real `gendpr serve --tcp` daemons (several times,
//! to time set-up), drives them with closed-loop clients for `--seconds`
//! on the job stream `--seed` picks, times every job at the client, stops
//! the daemons and puts the result through the correctness gate. A traced
//! run (`--trace 1`) does the same and then replays the job sequence
//! in-process with a span around every layer call, reporting per-layer
//! metrics. The last line of stdout is the JSON result; everything else
//! goes to stderr. See README.md.

mod daemon;
mod gate;
mod load;
mod replay;
mod spec;
mod stats;

use daemon::{Deployment, Metrics, StateDir};
use gendpr_service::LedgerRecord;
use replay::{Replay, Tracer};
use spec::Workload;
use stats::{median, tail_quantile, Tally};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Duration;

/// Daemon start-ups per run, whose median is `setup_s`: at least
/// `MIN_SETUPS`, and more while their total stays under `SETUP_BUDGET`,
/// up to `MAX_SETUPS`.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 21;
const SETUP_BUDGET: Duration = Duration::from_secs(2);
/// Jobs over which the work-dependent metrics are taken: the traffic of
/// the first `FIXED_JOBS` by id, and the daemons' peak RSS once that many
/// are answered. A fixed count keeps both independent of how many jobs a
/// run completes: later jobs carry larger released prefixes, and the
/// ledger grows with every job.
const FIXED_JOBS: usize = 200;
/// Consecutive blocks of a run's jobs whose 95th percentiles give
/// `job_latency_p95_s` by their median.
const TAIL_BLOCKS: usize = 5;

struct Args {
    gendpr: PathBuf,
    work: PathBuf,
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |name: &str| -> Result<&str, String> {
        argv.iter()
            .position(|a| a == name)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {name}"))
    };
    let number = |name: &str| -> Result<u64, String> {
        get(name)?
            .parse()
            .map_err(|_| format!("{name}: expected a whole number"))
    };
    let name = get("--workload")?;
    let workload = spec::workload(name).ok_or_else(|| {
        let known: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?} (known: {})", known.join(", "))
    })?;
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace: expected 0 or 1, got {other:?}")),
    };
    Ok(Args {
        gendpr: PathBuf::from(get("--gendpr")?),
        work: PathBuf::from(get("--work")?),
        workload,
        seed: number("--seed")?,
        seconds: number("--seconds")?.max(1),
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let run_dir = args.work.join("runs").join(format!(
        "{}-s{}-{}",
        args.workload.name,
        args.seed,
        std::process::id()
    ));
    let result = run(&args, &run_dir);
    let _ = std::fs::remove_dir_all(&run_dir);
    match result {
        Ok(json) => {
            println!("{json}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Generates the workload's study files once and caches them; returns
/// their directory.
fn ensure_study(args: &Args) -> Result<PathBuf, String> {
    let w = &args.workload;
    let root = args.work.join("studies");
    let dir = root.join(w.study_key());
    if dir.join("reference.vcf").exists() {
        return Ok(dir);
    }
    let tmp = root.join(format!("tmp-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&tmp);
    let out = Command::new(&args.gendpr)
        .arg("synth")
        .args(["--snps", &w.snps.to_string()])
        .args(["--cases", &w.cases.to_string()])
        .args(["--reference", &w.reference.to_string()])
        .args(["--seed", &spec::STUDY_SEED.to_string()])
        .arg("--out")
        .arg(&tmp)
        .output()
        .map_err(|e| format!("gendpr synth: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "gendpr synth failed: {}",
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    // Flush the new files now, so their write-back does not overlap the
    // timed phases.
    for name in ["case.vcf", "reference.vcf"] {
        std::fs::File::open(tmp.join(name))
            .and_then(|f| f.sync_all())
            .map_err(|e| format!("syncing study: {e}"))?;
    }
    std::fs::rename(&tmp, &dir).map_err(|e| format!("caching study: {e}"))?;
    Ok(dir)
}

/// Everything one run measured, before it becomes metrics.
struct Measured {
    setups: Vec<f64>,
    /// State directory of the deployment that served the load.
    state: StateDir,
    load: load::LoadRun,
    /// Daemon counters accumulated during the load phase only.
    counters: Metrics,
    peak_rss_mb: f64,
    records: Vec<LedgerRecord>,
    tally: Tally,
    failures: Vec<String>,
}

fn run(args: &Args, run_dir: &Path) -> Result<String, String> {
    let w = &args.workload;
    let study = ensure_study(args)?;
    let mut measured = measure(args, &study, run_dir)?;

    // Traced replay of the ledger's job sequence, in-process.
    let traced = if args.trace {
        let tracks = replay::claim_tracks(&PathBuf::from(format!(
            "{}.claims",
            measured.state.ledger().display()
        )));
        let jobs: Vec<(Vec<u32>, u32)> = measured
            .records
            .iter()
            .map(|r| (r.panel.clone(), tracks.get(&r.job_id).copied().unwrap_or(0)))
            .collect();
        let state = StateDir::fresh(run_dir.join("traced")).map_err(|e| e.to_string())?;
        let replayed = replay::replay(
            w,
            &study,
            &state,
            &jobs,
            w.shards,
            Tracer::new(true),
            Duration::from_secs(args.seconds),
        )?;
        if w.serial_commits() {
            // One lane, serial commits: the replay must certify exactly
            // what the daemon did.
            for (a, b) in replayed.records.iter().zip(&measured.records) {
                if a != b {
                    measured.tally.check_failures += 1;
                    measured.failures.push(format!(
                        "job {}: traced replay differs from the daemon",
                        a.job_id
                    ));
                }
            }
        }
        let traces = args.work.join("traces");
        std::fs::create_dir_all(&traces).map_err(|e| e.to_string())?;
        let path = traces.join(format!("{}-s{}.jsonl", w.name, args.seed));
        std::fs::write(&path, replayed.tracer.to_jsonl()).map_err(|e| e.to_string())?;
        eprintln!(
            "perfbench: {} spans written to {}",
            replayed.tracer.spans.len(),
            path.display()
        );
        for (name, own) in replayed.tracer.self_times() {
            eprintln!(
                "perfbench:   self time {name:<34} {:>10.3} ms",
                own.as_secs_f64() * 1e3
            );
        }
        Some(replayed)
    } else {
        None
    };

    for f in measured.failures.iter().take(10) {
        eprintln!("perfbench: CHECK FAILED: {f}");
    }
    let metrics = match &traced {
        None => end_to_end(&measured),
        Some(replayed) => per_layer(w, &measured, replayed),
    };
    let provenance = provenance(args, &measured);
    eprintln!("perfbench: {provenance}");
    let results = args.work.join("results");
    std::fs::create_dir_all(&results).map_err(|e| e.to_string())?;
    let json = result_json(&measured.tally, &metrics);
    std::fs::write(
        results.join(format!(
            "{}-s{}-t{}.json",
            w.name,
            args.seed,
            u8::from(args.trace)
        )),
        format!("{{\"provenance\":{provenance},\"result\":{json}}}\n"),
    )
    .map_err(|e| e.to_string())?;
    Ok(json)
}

/// Set-up repetitions, the load phase, and the correctness gate.
fn measure(args: &Args, study: &Path, run_dir: &Path) -> Result<Measured, String> {
    let w = &args.workload;
    let mut setups = Vec::new();
    let (deployment, state) = loop {
        // Every start gets a fresh state directory; the last one serves.
        let dir = StateDir::fresh(run_dir.join(format!("start-{}", setups.len())))
            .map_err(|e| e.to_string())?;
        let started = Deployment::start(&args.gendpr, w, study, &dir)?;
        setups.push(started.setup.as_secs_f64());
        let spent: f64 = setups.iter().sum();
        if setups.len() >= MAX_SETUPS
            || (setups.len() >= MIN_SETUPS && spent >= SETUP_BUDGET.as_secs_f64())
        {
            break (started, dir);
        }
        if !started.stop() {
            return Err("a set-up daemon did not stop cleanly".to_string());
        }
    };

    let before = deployment.metrics()?;
    let rss = std::sync::Mutex::new(0.0);
    let load = load::run(
        w,
        args.seed,
        &deployment.addrs(),
        args.seconds,
        FIXED_JOBS as u64,
        &|| *rss.lock().expect("rss") = deployment.peak_rss_mb(),
    );
    let after = deployment.metrics()?;
    let counters = Metrics::total(
        &after
            .iter()
            .zip(&before)
            .map(|(a, b)| a.since(b))
            .collect::<Vec<_>>(),
    );
    let peak_rss_mb = rss.into_inner().expect("rss");
    let stopped_clean = deployment.stop();

    let cohort = replay::load_study(study)?;
    let certs = gate::CertificateCheck::new(w, &cohort);
    drop(cohort);
    let twin = if w.shards > 1 {
        Some(unsharded_twin(w, &load, study, &run_dir.join("twin"))?)
    } else {
        None
    };
    let (records, verdict) = gate::check(w, &state, &load, &certs, twin.as_deref());
    let mut failures = verdict.failures;
    if !stopped_clean {
        failures.push("a daemon did not stop cleanly".to_string());
    }
    let tally = Tally {
        attempted: load.samples.len() as u64,
        failed: load
            .samples
            .iter()
            .filter(|s| s.result.is_err() && !s.rejected)
            .count() as u64,
        rejected: load.samples.iter().filter(|s| s.rejected).count() as u64,
        check_failures: failures.len() as u64,
    };
    for s in load.samples.iter().filter(|s| s.result.is_err()).take(5) {
        failures.push(format!("job #{}: {:?}", s.index, s.result.as_ref().err()));
    }
    Ok(Measured {
        setups,
        state,
        load,
        counters,
        peak_rss_mb,
        records,
        tally,
        failures,
    })
}

/// The records an unsharded deployment certifies for the same job
/// sequence as a sharded run, replayed in-process.
fn unsharded_twin(
    w: &Workload,
    load: &load::LoadRun,
    study: &Path,
    dir: &Path,
) -> Result<Vec<LedgerRecord>, String> {
    let mut ordered: Vec<&LedgerRecord> = load.records().collect();
    ordered.sort_by_key(|r| r.job_id);
    let jobs: Vec<(Vec<u32>, u32)> = ordered.iter().map(|r| (r.panel.clone(), 0)).collect();
    let state = StateDir::fresh(dir.to_path_buf()).map_err(|e| e.to_string())?;
    let twin = replay::replay(
        w,
        study,
        &state,
        &jobs,
        1,
        Tracer::new(false),
        Duration::MAX,
    )?;
    Ok(twin.records)
}

/// A named metric value with its unit.
type Metric = (&'static str, f64, &'static str);

fn end_to_end(m: &Measured) -> Vec<Metric> {
    let latencies = m.load.latencies();
    let first = &m.records[..FIXED_JOBS.min(m.records.len())];
    let wire: u64 = first
        .iter()
        .flat_map(|r| &r.traffic)
        .map(|l| l.wire_bytes)
        .sum();
    // The median of the per-block 95th percentiles, so that a burst of
    // load from outside the program, which slows a stretch of jobs, does
    // not set the tail. Where the run is too short to resolve the 95th
    // percentile (fewer than ten samples beyond it), the largest sample
    // stands in for it.
    let p95 = tail_quantile(&latencies, 0.95)
        .and_then(|_| stats::blocked_quantile(&latencies, 0.95, TAIL_BLOCKS))
        .or_else(|| stats::quantile(&latencies, 1.0))
        .unwrap_or(0.0);
    vec![
        ("setup_s", median(&m.setups).unwrap_or(0.0), "s"),
        ("job_latency_p50_s", median(&latencies).unwrap_or(0.0), "s"),
        ("job_latency_p95_s", p95, "s"),
        (
            "jobs_per_s",
            latencies.len() as f64 / m.load.wall.as_secs_f64(),
            "1/s",
        ),
        (
            "wire_bytes_per_job",
            wire as f64 / first.len().max(1) as f64,
            "B",
        ),
        ("daemon_peak_rss_mb", m.peak_rss_mb, "MB"),
    ]
}

fn per_layer(w: &Workload, m: &Measured, r: &Replay) -> Vec<Metric> {
    let t = &r.tracer;
    let c = &m.counters;
    let jobs = m.records.len().max(1) as f64;
    let replayed = r.records.len().max(1) as f64;
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let per_job = |name: &str| ms(t.total(name)) / replayed;
    let med = |f: fn(&replay::JobCounts) -> f64| {
        median(&r.counts.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0)
    };
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let hist_mean_ms = |name: &str| {
        1e3 * ratio(
            c.family(&format!("{name}_sum")),
            c.family(&format!("{name}_count")),
        )
    };

    // Client latency of the untraced run vs. the traced replay's jobs.
    let untraced_p50 = median(&m.load.latencies()).unwrap_or(0.0);
    let job_spans: Vec<&replay::Span> = t.spans.iter().filter(|s| s.name == "job").collect();
    let traced_p50 = median(
        &job_spans
            .iter()
            .map(|s| s.duration().as_secs_f64())
            .collect::<Vec<_>>(),
    )
    .unwrap_or(0.0);
    let covered: Vec<f64> = job_spans
        .iter()
        .map(|job| {
            t.spans
                .iter()
                .filter(|s| s.parent == Some(job.id))
                .map(|s| s.duration().as_secs_f64())
                .sum()
        })
        .collect();
    let client_mean = m.load.latencies().iter().sum::<f64>() / jobs;
    let lane_ms = hist_mean_ms("gendpr_sched_job_latency_seconds");
    // The merging submit inside `ShardSet::run_job` runs the LR phase;
    // the same call's LR delta stands in for it.
    let lr_total: f64 = r.counts.iter().map(|j| j.lr_ms).sum();
    let phase12_ms = if t.total("service.shard.run_job").is_zero() {
        0.0
    } else {
        ((ms(t.total("service.shard.run_job")) - lr_total) / replayed).max(0.0)
    };
    let (mut wire, mut plain) = (0u64, 0u64);
    for l in m.records.iter().flat_map(|r| &r.traffic) {
        wire += l.wire_bytes;
        plain += l.plaintext_bytes;
    }
    let cache = c.family("gendpr_shard_cache_pairs_total");
    let busy = c.family("gendpr_sched_worker_busy_seconds_sum");
    let lanes = (w.workers * w.daemons()) as f64;
    let candidates = c.family("gendpr_lr_candidates_total");
    let span_s = |name: &str| t.total(name).as_secs_f64();
    vec![
        ("genomics.vcf.load_s", span_s("genomics.vcf.load"), "s"),
        (
            "core.serving.session_start_s",
            span_s("core.serving.session_start"),
            "s",
        ),
        ("service.ledger.open_s", span_s("service.ledger.open"), "s"),
        ("core.maf_ms", med(|j| j.maf_ms), "ms"),
        ("core.ld_ms", med(|j| j.ld_ms), "ms"),
        ("core.lr_ms", med(|j| j.lr_ms), "ms"),
        (
            "fednet.messages_per_job",
            c.family("gendpr_net_frames_sent_total") / jobs,
            "count",
        ),
        (
            "fednet.frame_bytes_per_job",
            c.get("gendpr_net_frame_bytes_sum{dir=\"sent\"}") / jobs,
            "B",
        ),
        (
            "core.ld.us_per_message",
            1e3 * ratio(med(|j| j.ld_ms), med(|j| j.frames)),
            "us",
        ),
        (
            "crypto.aead.wire_over_plaintext",
            ratio(wire as f64, plain as f64),
            "ratio",
        ),
        ("stats.lr.candidates_per_job", candidates / jobs, "count"),
        (
            "stats.lr.kept_ratio",
            ratio(c.family("gendpr_lr_columns_kept_total"), candidates),
            "ratio",
        ),
        (
            "stats.lr.quantile_ms_per_job",
            1e3 * c.family("gendpr_lr_quantile_seconds_sum") / jobs,
            "ms",
        ),
        ("service.shard.phase12_ms", phase12_ms, "ms"),
        (
            "service.shard.cache_hit_ratio",
            ratio(cache, cache + c.family("gendpr_shard_oracle_pairs_total")),
            "ratio",
        ),
        (
            "service.sched.queue_wait_ms",
            hist_mean_ms("gendpr_sched_job_wait_seconds"),
            "ms",
        ),
        ("service.sched.lane_ms", lane_ms, "ms"),
        (
            "service.sched.worker_busy_ratio",
            ratio(busy, lanes * m.load.wall.as_secs_f64()),
            "ratio",
        ),
        (
            "service.sched.admission_rejects",
            c.family("gendpr_sched_admission_rejects_total"),
            "count",
        ),
        (
            "service.daemon.client_gap_ms",
            1e3 * client_mean - lane_ms,
            "ms",
        ),
        (
            "service.ledger.union_ms",
            per_job("service.ledger.union"),
            "ms",
        ),
        (
            "service.ledger.append_ms",
            per_job("service.ledger.append"),
            "ms",
        ),
        (
            "service.ledger.refresh_ms",
            per_job("service.ledger.refresh"),
            "ms",
        ),
        (
            "service.tracks.claim_append_ms",
            per_job("service.tracks.claim_append"),
            "ms",
        ),
        (
            "service.tracks.commit_waits_per_job",
            c.family("gendpr_track_commit_waits_total") / jobs,
            "count",
        ),
        (
            "service.tracks.reclaims",
            c.family("gendpr_track_reclaims_total"),
            "count",
        ),
        (
            "obs.trace_coverage",
            ratio(median(&covered).unwrap_or(0.0), untraced_p50),
            "ratio",
        ),
        (
            "obs.trace_overhead",
            ratio(traced_p50, untraced_p50),
            "ratio",
        ),
        ("job_failure_ratio", m.tally.failure_ratio(), "ratio"),
    ]
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn result_json(tally: &Tally, metrics: &[Metric]) -> String {
    let mut body = String::new();
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        debug_assert!(stats::valid_name(name) && stats::valid_unit(unit));
        let _ = write!(
            body,
            "{}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            if i == 0 { "" } else { ", " },
            json_number(*value)
        );
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
        tally.failures() == 0 && tally.attempted > 0,
        tally.attempted,
        tally.failures()
    )
}

/// Machine, toolchain, revision, seed, and the spread of what was
/// repeated within the run, as a JSON object.
fn provenance(args: &Args, m: &Measured) -> String {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let flags: Vec<&str> = cpuinfo
        .lines()
        .find(|l| l.starts_with("flags"))
        .map(|l| {
            l.split_whitespace()
                .filter(|f| *f == "avx2" || f.starts_with("avx512"))
                .collect()
        })
        .unwrap_or_default();
    let output = |cmd: &str, args: &[&str]| {
        Command::new(cmd)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unavailable".to_string())
    };
    let list = |v: &[f64]| {
        v.iter()
            .map(|x| format!("{x:.4}"))
            .collect::<Vec<_>>()
            .join(",")
    };
    let latencies = m.load.latencies();
    let (lmin, lmed, lmax) = stats::spread(&latencies);
    let quoted: Vec<String> = flags.iter().map(|f| format!("\"{f}\"")).collect();
    format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"study_seed\":{},\"seconds\":{},\"trace\":{},\"nproc\":{},\
         \"cpu_flags\":[{}],\"rustc\":\"{}\",\"git_rev\":\"{}\",\"source_digest\":\"{}\",\
         \"setup_runs\":{},\"setup_s\":[{}],\
         \"jobs\":{},\"latency_s\":{{\"min\":{lmin},\"median\":{lmed},\"max\":{lmax}}},\
         \"p95_resolved\":{},\"p95_whole_run_s\":{},\"failures\":{},\"latencies_s\":[{}]}}",
        args.workload.name,
        args.seed,
        spec::STUDY_SEED,
        args.seconds,
        args.trace,
        std::thread::available_parallelism().map_or(0, usize::from),
        quoted.join(","),
        output("rustc", &["--version"]),
        output("git", &["rev-parse", "HEAD"]),
        source_digest(),
        m.setups.len(),
        list(&m.setups),
        latencies.len(),
        tail_quantile(&latencies, 0.95).is_some(),
        json_number(stats::quantile(&latencies, 0.95).unwrap_or(0.0)),
        m.tally.failures(),
        if latencies.len() <= 16 { list(&latencies) } else { String::new() },
    )
}

/// SHA-256 over the program's sources (path and bytes, in path order):
/// identifies the code measured where no git revision is available.
fn source_digest() -> String {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.filter_map(Result::ok) {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                out.push(p);
            }
        }
    }
    let mut files = vec![PathBuf::from("Cargo.toml"), PathBuf::from("Cargo.lock")];
    walk(Path::new("src"), &mut files);
    walk(Path::new("crates"), &mut files);
    files.sort();
    let mut all = Vec::new();
    for f in &files {
        all.extend_from_slice(f.to_string_lossy().as_bytes());
        all.extend(std::fs::read(f).unwrap_or_default());
    }
    gendpr_crypto::sha256::digest(&all)[..8]
        .iter()
        .map(|b| format!("{b:02x}"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Metric names of one section of BENCHMARK.json, in order.
    fn declared(section: &str) -> Vec<String> {
        let text = include_str!("../../BENCHMARK.json");
        let start = text.find(&format!("\"{section}\"")).expect("section");
        let body = &text[start..];
        let body = &body[..body.find(']').expect("section end")];
        body.split("\"name\": \"")
            .skip(1)
            .map(|s| s[..s.find('"').expect("name end")].to_string())
            .collect()
    }

    fn empty_run() -> Measured {
        Measured {
            setups: vec![1.0],
            state: StateDir {
                dir: PathBuf::new(),
            },
            load: load::LoadRun {
                samples: Vec::new(),
                wall: Duration::from_secs(1),
            },
            counters: Metrics::default(),
            peak_rss_mb: 1.0,
            records: Vec::new(),
            tally: Tally::default(),
            failures: Vec::new(),
        }
    }

    #[test]
    fn reported_metrics_are_exactly_the_declared_ones() {
        let names = |m: Vec<Metric>| -> Vec<String> {
            m.iter()
                .map(|(n, _, u)| {
                    assert!(stats::valid_name(n) && stats::valid_unit(u), "{n} {u}");
                    (*n).to_string()
                })
                .collect()
        };
        let run = empty_run();
        assert_eq!(names(end_to_end(&run)), declared("end_to_end"));
        let replay = Replay {
            records: Vec::new(),
            counts: Vec::new(),
            tracer: Tracer::new(true),
        };
        let w = spec::workload("fleet").unwrap();
        assert_eq!(names(per_layer(&w, &run, &replay)), declared("per_layer"));
        let workloads: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(declared("workloads"), workloads);
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let tally = Tally {
            attempted: 3,
            check_failures: 1,
            ..Tally::default()
        };
        let json = result_json(&tally, &[("setup_s", 0.5, "s"), ("x", f64::NAN, "ms")]);
        assert_eq!(
            json,
            "{\"correct\": false, \"attempted\": 3, \"failed\": 1, \"metrics\": \
             {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}, \"x\": {\"value\": 0, \"unit\": \"ms\"}}}"
        );
    }
}
