//! Long-lived assessment sessions: the federation attests once and then
//! serves a *queue* of assessment jobs over the same secure channels.
//!
//! [`crate::runtime`] deploys the federation for exactly one assessment:
//! elect, attest, run the three phases, tear everything down. A GWAS
//! consortium, however, fields a *stream* of release requests — different
//! SNP panels, arriving over weeks — and re-attesting G enclaves per
//! request is pure overhead. Worse, assessing every request in isolation
//! is *unsound*: each release is irreversible, so the adversary's LR
//! power must be charged against the union of everything released so
//! far, not just the panel at hand (the dynamic-study argument of
//! [`crate::dynamic`], applied across studies).
//!
//! This module keeps the session open. Members run [`member_session`]:
//! one election, one round of mutual attestation and counts collection,
//! then a loop in which the leader announces each job with a
//! [`JobStartBroadcast`] naming the requested panel *and* the already
//! released SNPs. Phase 3 runs the *seeded* subset search
//! ([`gendpr_stats::lr::search`]): prior releases are
//! forced into the cumulative LR sums before any new candidate is
//! admitted, so the certified bound covers the whole release history.
//! Between jobs every channel ratchets its keys
//! ([`SecureChannel::rekey`]), giving per-job forward secrecy and a fresh
//! nonce space however many jobs the federation serves.
//!
//! [`ServiceFederation`] is the in-process handle: it spawns one thread
//! per member over arbitrary transports, waits for the session to come
//! up, and turns [`JobSpec`]s into [`JobOutcome`]s one at a time. The
//! `gendpr serve` daemon builds its job queue and release ledger on top.

use crate::certificate::{AssessmentCertificate, AssessmentFacts, JobContext};
use crate::collusion::{evaluation_subsets_of, intersect_selections};
use crate::config::{FederationConfig, GwasParams};
use crate::error::ProtocolError;
use crate::gdo::GdoNode;
use crate::memo::LrPrefixMemo;
use crate::messages::{
    CountsReport, JobStartBroadcast, MomentsRequest, Phase1Broadcast, Phase2Broadcast,
    Phase3Broadcast, ProtocolMessage, ShardStartBroadcast,
};
use crate::phases::ld::run_ld_scan;
use crate::phases::maf::{run_maf, MafOutcome};
use crate::pool::parallel_map;
use crate::runtime::{
    abort_all, build_member_ctx, establish_channel, follower_serve, follower_serve_shard,
    recv_protocol, run_election, send_protocol, Interrupt, MemberCtx, RuntimeOptions,
};
use gendpr_fednet::metrics::TrafficStats;
use gendpr_fednet::transport::{Endpoint, Network, PeerId, Transport};
use gendpr_genomics::cohort::Cohort;
use gendpr_genomics::columnar::ColumnarGenotypes;
use gendpr_genomics::genotype::GenotypeMatrix;
use gendpr_genomics::snp::SnpId;
use gendpr_stats::ld::LdMoments;
use gendpr_stats::lr::{search, LrColumns, LrMatrix, LrPrefixSums, LrSelection, LrTestParams};
use gendpr_stats::ranking::{sort_most_significant_first, SnpRank};
use gendpr_tee::session::SecureChannel;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// One assessment job: which SNPs the requesting study wants to release,
/// and which SNPs earlier jobs already released (charged against the LR
/// power budget before any new candidate is admitted).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobSpec {
    /// Service-assigned id, echoed in every event and in the certificate.
    pub job_id: u64,
    /// The requested study panel (subset of the cohort's SNPs).
    pub panel: Vec<SnpId>,
    /// SNPs released by earlier jobs — the irreversible prefix.
    pub forced: Vec<SnpId>,
}

/// Phases 1–2 of one job restricted to a single SNP shard, expressed in
/// the shard lane's *local* 0-based ids (the lane's cohort is a
/// [`Cohort::column_range`] slice of the study, so its panel starts at 0).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardJobSpec {
    /// The global job this shard contributes to.
    pub job_id: u64,
    /// Which shard of the plan this is (0-based).
    pub shard: u32,
    /// The job panel intersected with the shard range, shifted to local ids.
    pub panel: Vec<SnpId>,
    /// The forced prefix intersected with the shard range, shifted likewise.
    pub forced: Vec<SnpId>,
}

/// One evaluation subset's LD scan over a shard: the survivors, plus every
/// pooled moment the scan exchanged. The merging leader replays its own
/// global scan against this log as a cache, falling back to live oracle
/// queries only for pairs the shard never saw (shard-boundary pairs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardScan {
    /// LD survivors within the shard, local ids.
    pub retained: Vec<SnpId>,
    /// `(a, b, pooled)` for every adjacent pair the scan evaluated.
    pub moments: Vec<(u32, u32, LdMoments)>,
}

/// What one shard lane computed for a job: MAF survivors and one LD scan
/// per evaluation subset, all in local ids.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPhases {
    /// MAF survivors of the shard's candidates (Phase 1), local ids.
    pub l_prime: Vec<SnpId>,
    /// One scan per evaluation subset, in subset order.
    pub scans: Vec<ShardScan>,
}

/// A shard's phases tagged with where its range starts in the global
/// panel, so the merge can translate local ids back (`global = local +
/// start`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardOutput {
    /// First global SNP id of the shard's range (64-aligned).
    pub start: u32,
    /// The lane's phases 1–2 output.
    pub phases: ShardPhases,
}

/// Traffic of one directed link during one job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkUsage {
    /// Sending member.
    pub from: u32,
    /// Receiving member.
    pub to: u32,
    /// Messages and bytes this job put on the link.
    pub stats: TrafficStats,
}

/// What one completed job released, with the certificate covering it.
#[derive(Debug, Clone)]
pub struct JobOutcome {
    /// Echo of [`JobSpec::job_id`].
    pub job_id: u64,
    /// The session's leader (constant across jobs).
    pub leader: usize,
    /// MAF survivors of the requested candidates.
    pub l_prime: Vec<SnpId>,
    /// LD survivors.
    pub l_double_prime: Vec<SnpId>,
    /// Newly released SNPs (never includes the forced prefix).
    pub released: Vec<SnpId>,
    /// Adversary power over forced ∪ released (subset 0).
    pub final_power: f64,
    /// Detection threshold over the cumulative release (subset 0).
    pub final_threshold: f64,
    /// Case minor-allele frequencies of the released SNPs — the
    /// statistics the requesting study may now publish.
    pub case_freqs: Vec<f64>,
    /// Reference frequencies of the released SNPs.
    pub ref_freqs: Vec<f64>,
    /// Enclave-signed certificate; its context digest binds the job id,
    /// panel and forced prefix.
    pub certificate: AssessmentCertificate,
    /// Epoch of the session (always 1 — service sessions never re-form).
    pub epoch: u64,
    /// The session roster.
    pub roster: Vec<u32>,
    /// Per-link traffic this job generated, sorted by `(from, to)`.
    pub traffic: Vec<LinkUsage>,
}

/// Commands the handle sends into the leader's session loop.
enum SessionCommand {
    /// Run a full job; `Some(shards)` merges pre-computed shard phases.
    Run(JobSpec, Option<Vec<ShardOutput>>),
    /// Run phases 1–2 only, scoped to one shard.
    RunShard(ShardJobSpec),
    /// Failpoint: panic the leader's thread when this job id arrives.
    ArmPanic(u64),
    Shutdown,
}

/// Leader-only facts about a finished job.
struct LeaderDetail {
    l_prime: Vec<SnpId>,
    l_double_prime: Vec<SnpId>,
    released: Vec<SnpId>,
    final_power: f64,
    final_threshold: f64,
    case_freqs: Vec<f64>,
    ref_freqs: Vec<f64>,
    certificate: AssessmentCertificate,
    epoch: u64,
    roster: Vec<u32>,
}

/// Events member threads report back to the handle.
enum SessionEvent {
    /// Session setup (election, attestation, counts) is complete.
    Ready { leader: usize },
    /// One job finished at this member.
    Finished {
        member: usize,
        job_id: u64,
        safe: Vec<SnpId>,
        traffic: Vec<LinkUsage>,
        detail: Option<Box<LeaderDetail>>,
    },
    /// A shard-scoped job finished (leader only; followers stay silent so
    /// a shard run produces exactly one event).
    ShardFinished {
        job_id: u64,
        shard: u32,
        phases: Box<ShardPhases>,
    },
    /// The member left the session cleanly after `SessionEnd`.
    Closed,
    /// The member's session died.
    Failed { error: ProtocolError },
}

/// Collapses an [`Interrupt`] into a fatal error: service sessions run
/// with recovery disabled, so a view change can never be a valid unwind.
fn fatal(intr: Interrupt) -> ProtocolError {
    match intr {
        Interrupt::Fatal(e) => e,
        Interrupt::NewView { .. } => {
            ProtocolError::InvalidConfig("view changes are not supported in service sessions")
        }
    }
}

/// Snapshots this member's outbound per-link counters.
fn snapshot_links<T: Transport>(
    ctx: &MemberCtx<T>,
    roster: &[usize],
) -> Vec<(usize, TrafficStats)> {
    roster
        .iter()
        .filter(|&&peer| peer != ctx.id)
        .map(|&peer| (peer, ctx.endpoint.link_stats(PeerId(peer as u32))))
        .collect()
}

/// Outbound per-link traffic since `before`.
fn link_delta<T: Transport>(
    ctx: &MemberCtx<T>,
    before: &[(usize, TrafficStats)],
) -> Vec<LinkUsage> {
    before
        .iter()
        .map(|&(peer, b)| {
            let a = ctx.endpoint.link_stats(PeerId(peer as u32));
            LinkUsage {
                from: ctx.id as u32,
                to: peer as u32,
                stats: TrafficStats {
                    messages: a.messages - b.messages,
                    plaintext_bytes: a.plaintext_bytes - b.plaintext_bytes,
                    wire_bytes: a.wire_bytes - b.wire_bytes,
                },
            }
        })
        .collect()
}

/// Runs one member of a long-lived service session: one election and one
/// attestation round, then jobs until `SessionEnd` (followers) or a
/// `Shutdown` command (the leader).
#[allow(clippy::too_many_arguments)]
fn member_session<T: Transport>(
    transport: T,
    member: usize,
    config: &FederationConfig,
    params: &GwasParams,
    mut options: RuntimeOptions,
    shard: GenotypeMatrix,
    reference: &GenotypeMatrix,
    commands: &Receiver<SessionCommand>,
    events: &Sender<SessionEvent>,
) -> Result<(), ProtocolError> {
    // A service session is a single epoch by construction: jobs assume the
    // roster and channels of the session they joined, so a mid-session
    // view change would silently drop a member's shard from subsequent
    // releases. A dead member instead kills the session; the daemon
    // restarts it (and the ledger makes the restart seamless).
    options.recovery.max_epochs = 1;
    let mut ctx = build_member_ctx(transport, member, config, params, options)?;
    let node = GdoNode::new(member, shard);
    let own_counts = ctx.enclave.enter(|(), epc| {
        let report = node.counts_report();
        epc.alloc(8 * report.counts.len() as u64);
        report
    });
    let leader = run_election(&mut ctx).map_err(fatal)?;
    if leader == member {
        leader_session(
            &mut ctx,
            &node,
            reference,
            config,
            params,
            &own_counts,
            commands,
            events,
        )
    } else {
        follower_session(&mut ctx, &node, leader, &own_counts, events)
    }
}

/// Session-wide leader state computed once and reused by every job.
struct LeaderState<'a> {
    reference: &'a GenotypeMatrix,
    subsets: Vec<Vec<usize>>,
    maf_outcomes: Vec<MafOutcome>,
    rankings: Vec<Vec<SnpRank>>,
    panel_len: usize,
    ref_counts: Vec<u64>,
    // Forced-prefix sums per (combination, forced sequence): the session
    // inputs behind them (shards, frequencies, reference) are fixed for
    // the lifetime of this state, so later jobs against the same ledger
    // prefix skip the re-accumulation entirely.
    lr_memo: LrPrefixMemo,
    lane_columns: LaneColumns,
}

/// LR bit columns resident in the leader's session state (compact
/// transport only). Each remote member's minor-allele indicator column is
/// kept per SNP from the first job that ships it until the session ends,
/// together with an SNP-major view of the reference panel built at the
/// first compact LR phase. A job asks each member only for the columns
/// the lane lacks and stitches its case and null [`LrColumns`] from
/// resident words. The leader learns nothing new: these are the exact
/// bits the same attested members already sent it in this session.
struct LaneColumns {
    /// Indexed by member id; the leader's own entry only records its row
    /// count (its columns come from its shard's columnar view).
    members: Vec<MemberColumns>,
    reference: Option<ColumnarGenotypes>,
}

/// One member's resident columns: SNP `s` occupies slot `index[s]` of
/// `words`, `⌈individuals/64⌉` words per slot.
struct MemberColumns {
    individuals: usize,
    words: Vec<u64>,
    index: HashMap<u32, usize>,
}

impl MemberColumns {
    fn new(individuals: usize) -> Self {
        Self {
            individuals,
            words: Vec::new(),
            index: HashMap::new(),
        }
    }

    fn column(&self, snp: SnpId) -> &[u64] {
        let width = self.individuals.div_ceil(64);
        let slot = self.index[&snp.0];
        &self.words[slot * width..(slot + 1) * width]
    }

    /// Positions in `columns` of the SNPs this member has not shipped yet.
    fn missing(&self, columns: &[SnpId]) -> Vec<usize> {
        (0..columns.len())
            .filter(|&j| !self.index.contains_key(&columns[j].0))
            .collect()
    }

    /// Makes `snps` resident from a report whose column `j` is `snps[j]`;
    /// returns the bytes added.
    fn insert(&mut self, snps: impl Iterator<Item = SnpId>, shipped: &ColumnarGenotypes) -> u64 {
        let before = self.words.len();
        for (j, snp) in snps.enumerate() {
            self.index.insert(snp.0, self.index.len());
            self.words
                .extend_from_slice(shipped.snp_words(SnpId(j as u32)));
        }
        8 * (self.words.len() - before) as u64
    }
}

#[allow(clippy::too_many_arguments)]
fn leader_session<T: Transport>(
    ctx: &mut MemberCtx<T>,
    node: &GdoNode,
    reference: &GenotypeMatrix,
    config: &FederationConfig,
    params: &GwasParams,
    own_counts: &CountsReport,
    commands: &Receiver<SessionCommand>,
    events: &Sender<SessionEvent>,
) -> Result<(), ProtocolError> {
    let me = ctx.id;
    let roster = ctx.roster.clone();
    let mut channels: HashMap<usize, SecureChannel> = HashMap::new();
    for &peer in &roster {
        if peer != me {
            channels.insert(peer, establish_channel(ctx, peer).map_err(fatal)?);
        }
    }

    // Counts are collected once per session: shards do not change between
    // jobs, so neither do the MAF outcomes or the χ² rankings.
    let panel_len = own_counts.counts.len();
    let mut reports: Vec<Option<CountsReport>> = vec![None; ctx.g];
    reports[me] = Some(own_counts.clone());
    for &peer in &roster {
        if peer == me {
            continue;
        }
        let channel = channels.get_mut(&peer).expect("channel established");
        match recv_protocol(ctx, channel, peer, "counts").map_err(fatal)? {
            ProtocolMessage::Counts(c) if c.counts.len() == panel_len => {
                reports[peer] = Some(c);
            }
            _ => return Err(ProtocolError::MalformedMessage { member: peer }),
        }
    }
    let ref_counts = ctx.enclave.enter(|(), epc| {
        epc.alloc(8 * reference.snps() as u64);
        reference.column_counts()
    });
    let n_ref = reference.individuals() as u64;
    let subsets = evaluation_subsets_of(&roster, config.collusion);
    let threads = ctx.threads;
    let maf_outcomes: Vec<MafOutcome> = parallel_map(threads, &subsets, |_, subset| {
        let subset_reports: Vec<CountsReport> = subset
            .iter()
            .map(|&i| reports[i].clone().expect("subset member reported"))
            .collect();
        run_maf(
            &subset_reports,
            ref_counts.clone(),
            n_ref,
            params.maf_cutoff,
        )
    });
    let all_ids: Vec<SnpId> = (0..panel_len as u32).map(SnpId).collect();
    let rankings: Vec<Vec<SnpRank>> = parallel_map(threads, &maf_outcomes, |_, o| {
        gendpr_stats::ranking::rank_by_association(
            &all_ids,
            &o.case_counts,
            o.n_case,
            &o.ref_counts,
            o.n_ref,
        )
    });
    let lane_columns = LaneColumns {
        members: reports
            .iter()
            .map(|r| MemberColumns::new(r.as_ref().map_or(0, |r| r.n_case as usize)))
            .collect(),
        reference: None,
    };
    let mut state = LeaderState {
        reference,
        subsets,
        maf_outcomes,
        rankings,
        panel_len,
        ref_counts,
        lr_memo: LrPrefixMemo::new(),
        lane_columns,
    };
    let _ = events.send(SessionEvent::Ready { leader: me });

    let mut panic_armed: Option<u64> = None;
    loop {
        match commands.recv() {
            Ok(SessionCommand::ArmPanic(job_id)) => panic_armed = Some(job_id),
            Ok(SessionCommand::Run(spec, shards)) => {
                if panic_armed == Some(spec.job_id) {
                    panic!("injected member-thread panic for job {}", spec.job_id);
                }
                let before = snapshot_links(ctx, &roster);
                match run_leader_job(
                    ctx,
                    &mut channels,
                    node,
                    params,
                    &mut state,
                    &spec,
                    shards.as_deref(),
                ) {
                    Ok(detail) => {
                        // Ratchet every channel at the job boundary; the
                        // followers do the same after Phase 3, so the next
                        // job starts under fresh keys on both ends.
                        for &peer in &roster {
                            if peer != me {
                                channels.get_mut(&peer).expect("channel").rekey();
                            }
                        }
                        let traffic = link_delta(ctx, &before);
                        let _ = events.send(SessionEvent::Finished {
                            member: me,
                            job_id: spec.job_id,
                            safe: detail.released.clone(),
                            traffic,
                            detail: Some(Box::new(detail)),
                        });
                    }
                    Err(intr) => {
                        let e = fatal(intr);
                        abort_all(ctx, &mut channels, &e);
                        return Err(e);
                    }
                }
            }
            Ok(SessionCommand::RunShard(spec)) => {
                match run_leader_shard(ctx, &mut channels, node, params, &state, &spec) {
                    Ok(phases) => {
                        // Same rekey discipline as a full job: followers
                        // ratchet after `ShardDone`, the leader here.
                        for &peer in &roster {
                            if peer != me {
                                channels.get_mut(&peer).expect("channel").rekey();
                            }
                        }
                        let _ = events.send(SessionEvent::ShardFinished {
                            job_id: spec.job_id,
                            shard: spec.shard,
                            phases: Box::new(phases),
                        });
                    }
                    Err(intr) => {
                        let e = fatal(intr);
                        abort_all(ctx, &mut channels, &e);
                        return Err(e);
                    }
                }
            }
            Ok(SessionCommand::Shutdown) | Err(_) => {
                for &peer in &roster {
                    if peer != me {
                        let channel = channels.get_mut(&peer).expect("channel");
                        let _ = send_protocol(ctx, channel, peer, &ProtocolMessage::SessionEnd);
                    }
                }
                let _ = events.send(SessionEvent::Closed);
                return Ok(());
            }
        }
    }
}

fn follower_session<T: Transport>(
    ctx: &mut MemberCtx<T>,
    node: &GdoNode,
    leader: usize,
    own_counts: &CountsReport,
    events: &Sender<SessionEvent>,
) -> Result<(), ProtocolError> {
    let mut channel = establish_channel(ctx, leader).map_err(fatal)?;
    send_protocol(
        ctx,
        &mut channel,
        leader,
        &ProtocolMessage::Counts(own_counts.clone()),
    )?;
    let _ = events.send(SessionEvent::Ready { leader });
    loop {
        let msg = match recv_protocol(ctx, &mut channel, leader, "awaiting-job") {
            Ok(msg) => msg,
            // Between jobs the leader is legitimately silent for as long
            // as the queue is empty, so idle timeouts are not failures;
            // the member keeps waiting. A *mid-job* silence still aborts
            // with the usual timeout (inside `follower_serve`).
            Err(Interrupt::Fatal(ProtocolError::MemberUnresponsive {
                phase: "awaiting-job",
                ..
            })) => continue,
            Err(intr) => return Err(fatal(intr)),
        };
        match msg {
            ProtocolMessage::JobStart(job) => {
                let roster = ctx.roster.clone();
                let before = snapshot_links(ctx, &roster);
                let safe = follower_serve(ctx, node, &mut channel, leader).map_err(fatal)?;
                channel.rekey();
                let traffic = link_delta(ctx, &before);
                let _ = events.send(SessionEvent::Finished {
                    member: ctx.id,
                    job_id: job.job_id,
                    safe,
                    traffic,
                    detail: None,
                });
            }
            ProtocolMessage::ShardStart(_) => {
                follower_serve_shard(ctx, node, &mut channel, leader).map_err(fatal)?;
                // No Finished event: shard lanes report through the
                // leader's `ShardFinished` alone, but the channel still
                // ratchets so shard and full jobs share one key schedule.
                channel.rekey();
            }
            ProtocolMessage::SessionEnd => {
                let _ = events.send(SessionEvent::Closed);
                return Ok(());
            }
            ProtocolMessage::Abort(_) => {
                return Err(ProtocolError::MemberUnresponsive {
                    member: leader,
                    phase: "aborted-by-leader",
                });
            }
            ProtocolMessage::QuorumLost {
                epoch,
                survivors,
                required,
            } => {
                return Err(ProtocolError::QuorumLost {
                    epoch,
                    survivors: survivors as usize,
                    required: required as usize,
                });
            }
            _ => return Err(ProtocolError::MalformedMessage { member: leader }),
        }
    }
}

/// Pools the LD moments of one SNP pair across a subset: one
/// `MomentsRequest` to every remote subset member, the reference
/// moments from cached counts, the leader's own shard if it is in the
/// subset, then the replies — in subset order, so the message schedule
/// is identical wherever this is called from.
#[allow(clippy::too_many_arguments)]
fn pooled_pair_moments<T: Transport>(
    ctx: &mut MemberCtx<T>,
    channels: &mut HashMap<usize, SecureChannel>,
    node: &GdoNode,
    reference: &GenotypeMatrix,
    ref_counts: &[u64],
    subset: &[usize],
    a: SnpId,
    b: SnpId,
) -> Result<LdMoments, Interrupt> {
    let me = ctx.id;
    let request = ProtocolMessage::MomentsRequest(vec![MomentsRequest { a: a.0, b: b.0 }]);
    for &peer in subset {
        if peer == me {
            continue;
        }
        let channel = channels.get_mut(&peer).expect("channel");
        send_protocol(ctx, channel, peer, &request)?;
    }
    let mut pooled = LdMoments::from_cached_counts(
        reference,
        a,
        b,
        ref_counts[a.index()],
        ref_counts[b.index()],
    );
    if subset.contains(&me) {
        pooled = pooled.merge(LdMoments::from(node.ld_moments(a, b)));
    }
    for &peer in subset {
        if peer == me {
            continue;
        }
        let channel = channels.get_mut(&peer).expect("channel");
        match recv_protocol(ctx, channel, peer, "ld-moments")? {
            ProtocolMessage::Moments(ms) if ms.len() == 1 => {
                pooled = pooled.merge(LdMoments::from(ms[0]));
            }
            _ => return Err(ProtocolError::MalformedMessage { member: peer }.into()),
        }
    }
    Ok(pooled)
}

/// Drives one job as the leader: announce, Phase 1 over the requested
/// candidates, the LD scan, and the *seeded* LR search in which the
/// forced prefix is charged before any new candidate.
///
/// With `shards`, the job is a *merge*: phases 1–2 were already run by
/// shard lanes over column slices of the same cohort, whose integer
/// counts and moments are byte-identical to this session's. Phase 1 is
/// recomputed locally (it is a cheap intersection over session-cached
/// MAF outcomes) and asserted against the concatenated shard results;
/// the Phase 2 scan replays against the shards' moment logs, touching
/// the live oracle only for pairs that straddle a shard boundary. Phase
/// 3 — the seeded LR search, which is inherently global because the
/// power budget couples every column — runs unchanged.
#[allow(clippy::too_many_lines)]
fn run_leader_job<T: Transport>(
    ctx: &mut MemberCtx<T>,
    channels: &mut HashMap<usize, SecureChannel>,
    node: &GdoNode,
    params: &GwasParams,
    state: &mut LeaderState<'_>,
    spec: &JobSpec,
    shards: Option<&[ShardOutput]>,
) -> Result<LeaderDetail, Interrupt> {
    let me = ctx.id;
    let roster = ctx.roster.clone();
    let mut panel = spec.panel.clone();
    panel.sort_unstable();
    panel.dedup();
    let mut forced = spec.forced.clone();
    forced.sort_unstable();
    forced.dedup();
    if panel.is_empty() {
        return Err(ProtocolError::InvalidConfig("job panel is empty").into());
    }
    if panel
        .iter()
        .chain(&forced)
        .any(|s| s.index() >= state.panel_len)
    {
        return Err(ProtocolError::InvalidConfig("job names a SNP outside the study panel").into());
    }

    crate::telemetry::subsets_evaluated().add(state.subsets.len() as u64);
    gendpr_obs::event(
        gendpr_obs::Level::Info,
        "serving",
        "job_announced",
        &[
            ("job_id", spec.job_id.into()),
            ("panel", panel.len().into()),
            ("forced", forced.len().into()),
            ("subsets", state.subsets.len().into()),
        ],
    );
    let phase_clock = Instant::now();

    // ---- Announce the job ----
    let announce = ProtocolMessage::JobStart(JobStartBroadcast {
        job_id: spec.job_id,
        panel: panel.iter().map(|s| s.0).collect(),
        forced: forced.iter().map(|s| s.0).collect(),
    });
    for &peer in &roster {
        if peer != me {
            let channel = channels.get_mut(&peer).expect("channel");
            send_protocol(ctx, channel, peer, &announce)?;
        }
    }

    // ---- Phase 1: the session's MAF outcomes restricted to this job ----
    // Forced SNPs are already public; only the *new* candidates pass
    // through the funnel.
    let candidates: Vec<SnpId> = panel
        .iter()
        .copied()
        .filter(|s| forced.binary_search(s).is_err())
        .collect();
    let per_subset: Vec<Vec<SnpId>> = state
        .maf_outcomes
        .iter()
        .map(|o| {
            o.retained
                .iter()
                .copied()
                .filter(|s| candidates.binary_search(s).is_ok())
                .collect()
        })
        .collect();
    let l_prime = intersect_selections(&per_subset);

    // ---- Merge invariant ----
    // Shard ranges partition the panel in order, and MAF is per-SNP over
    // counts that are bit-identical between a column slice and the full
    // cohort, so the concatenated shard survivors must equal this
    // session's own Phase 1. Anything else means a lane ran over a
    // different study and the merge would certify garbage.
    if let Some(shards) = shards {
        let mut merged: Vec<SnpId> = Vec::new();
        for s in shards {
            if s.phases.scans.len() != state.subsets.len() {
                return Err(ProtocolError::InvalidConfig(
                    "shard merge diverged from the primary lane's MAF phase",
                )
                .into());
            }
            merged.extend(s.phases.l_prime.iter().map(|l| SnpId(l.0 + s.start)));
        }
        if merged != l_prime {
            return Err(ProtocolError::InvalidConfig(
                "shard merge diverged from the primary lane's MAF phase",
            )
            .into());
        }
    }

    let phase1 = ProtocolMessage::Phase1(Phase1Broadcast {
        retained: l_prime.iter().map(|s| s.0).collect(),
    });
    for &peer in &roster {
        if peer != me {
            let channel = channels.get_mut(&peer).expect("channel");
            send_protocol(ctx, channel, peer, &phase1)?;
        }
    }

    crate::telemetry::phase_seconds("maf").observe_duration(phase_clock.elapsed());

    // ---- Phase 2: LD scan per subset over this job's L' ----
    // In a merge, each subset's scan first consults the cache built from
    // the shard lanes' moment logs (translated to global ids); pooled
    // moments are integer sums over the same genotype bits, so a cache
    // hit is exactly the value a live exchange would pool. Misses —
    // shard-boundary pairs and replay divergence after one — fall back
    // to the oracle.
    let caches: Option<Vec<HashMap<(u32, u32), LdMoments>>> = shards.map(|shards| {
        (0..state.subsets.len())
            .map(|c| {
                let mut cache = HashMap::new();
                for s in shards {
                    for &(a, b, m) in &s.phases.scans[c].moments {
                        cache.insert((a + s.start, b + s.start), m);
                    }
                }
                cache
            })
            .collect()
    });
    let phase_clock = Instant::now();
    let mut ld_selections = Vec::with_capacity(state.subsets.len());
    for (c, subset) in state.subsets.iter().enumerate() {
        let ranks = &state.rankings[c];
        let cache = caches.as_ref().map(|cs| &cs[c]);
        let mut scan_error: Option<Interrupt> = None;
        let retained = {
            let channels = &mut *channels;
            let ctx_cell = std::cell::RefCell::new(&mut *ctx);
            let scan_error = &mut scan_error;
            run_ld_scan(
                &l_prime,
                |a, b| {
                    if scan_error.is_some() {
                        return LdMoments::default();
                    }
                    if let Some(cache) = cache {
                        if let Some(&m) = cache.get(&(a.0, b.0)) {
                            crate::telemetry::shard_cache_pairs().add(1);
                            return m;
                        }
                        crate::telemetry::shard_oracle_pairs().add(1);
                    }
                    let mut guard = ctx_cell.borrow_mut();
                    match pooled_pair_moments(
                        &mut **guard,
                        channels,
                        node,
                        state.reference,
                        &state.ref_counts,
                        subset,
                        a,
                        b,
                    ) {
                        Ok(pooled) => pooled,
                        Err(e) => {
                            *scan_error = Some(e);
                            LdMoments::default()
                        }
                    }
                },
                |s| ranks[s.index()].p_value,
                params.ld_cutoff,
            )
        };
        if let Some(intr) = scan_error {
            return Err(intr);
        }
        ld_selections.push(retained);
    }
    let l_double_prime = intersect_selections(&ld_selections);
    crate::telemetry::phase_seconds("ld").observe_duration(phase_clock.elapsed());
    let phase_clock = Instant::now();

    // ---- Phase 3: seeded LR per subset ----
    // The matrices cover forced ∪ candidates; the forced columns come
    // first, seed the cumulative sums, and are never up for admission.
    let columns: Vec<SnpId> = forced
        .iter()
        .chain(l_double_prime.iter())
        .copied()
        .collect();
    let forced_cols: Vec<usize> = (0..forced.len()).collect();
    let mut lr_selections = Vec::with_capacity(state.subsets.len());
    let mut final_power = 0.0f64;
    let mut final_threshold = f64::INFINITY;
    for (c, subset) in state.subsets.iter().enumerate() {
        let outcome = &state.maf_outcomes[c];
        let case_freqs: Vec<f64> = columns.iter().map(|&s| outcome.case_frequency(s)).collect();
        let ref_freqs: Vec<f64> = columns.iter().map(|&s| outcome.ref_frequency(s)).collect();
        let candidate_ranks: Vec<SnpRank> = l_double_prime
            .iter()
            .map(|&s| state.rankings[c][s.index()])
            .collect();
        let sorted = sort_most_significant_first(candidate_ranks);
        let col_of: HashMap<SnpId, usize> = l_double_prime
            .iter()
            .enumerate()
            .map(|(j, &s)| (s, forced.len() + j))
            .collect();
        let order: Vec<usize> = sorted.iter().map(|r| col_of[&r.snp]).collect();
        let selection = if ctx.compact_lr {
            resident_seeded_selection(
                ctx,
                channels,
                node,
                &mut state.lane_columns,
                state.reference,
                subset,
                c as u32,
                &columns,
                &case_freqs,
                &ref_freqs,
                &forced_cols,
                &order,
                params,
                &state.lr_memo,
            )?
        } else {
            dense_seeded_selection(
                ctx,
                channels,
                node,
                state.reference,
                subset,
                c as u32,
                &columns,
                &case_freqs,
                &ref_freqs,
                &forced_cols,
                &order,
                params,
                &state.lr_memo,
            )?
        };
        let mut safe_c: Vec<SnpId> = selection.kept_columns.iter().map(|&j| columns[j]).collect();
        safe_c.sort_unstable();
        if c == 0 {
            final_power = selection.final_power;
            final_threshold = selection.final_threshold;
        }
        lr_selections.push(safe_c);
    }
    let released = intersect_selections(&lr_selections);
    crate::telemetry::phase_seconds("lr").observe_duration(phase_clock.elapsed());
    gendpr_obs::event(
        gendpr_obs::Level::Info,
        "serving",
        "job_phases_complete",
        &[
            ("job_id", spec.job_id.into()),
            ("released", released.len().into()),
        ],
    );

    // ---- Certificate, bound to the job context ----
    let full = &state.maf_outcomes[0];
    let roster_u32: Vec<u32> = roster.iter().map(|&m| m as u32).collect();
    let certificate = AssessmentCertificate::issue(
        &ctx.enclave,
        &AssessmentFacts {
            params,
            gdo_count: ctx.g,
            panel_len: state.panel_len,
            case_counts: &full.case_counts,
            n_case: full.n_case,
            ref_counts: &full.ref_counts,
            n_ref: full.n_ref,
            safe: &released,
            evaluations: state.subsets.len() as u64,
            epoch: ctx.epoch,
            roster: &roster_u32,
            context: Some(JobContext {
                job_id: spec.job_id,
                panel: &panel,
                forced: &forced,
            }),
        },
    );

    // ---- Final broadcast ----
    let phase3 = ProtocolMessage::Phase3(Phase3Broadcast {
        safe: released.iter().map(|s| s.0).collect(),
    });
    for &peer in &roster {
        if peer != me {
            let channel = channels.get_mut(&peer).expect("channel");
            send_protocol(ctx, channel, peer, &phase3)?;
        }
    }

    let case_freqs: Vec<f64> = released.iter().map(|&s| full.case_frequency(s)).collect();
    let ref_freqs: Vec<f64> = released.iter().map(|&s| full.ref_frequency(s)).collect();
    Ok(LeaderDetail {
        l_prime,
        l_double_prime,
        released,
        final_power,
        final_threshold,
        case_freqs,
        ref_freqs,
        certificate,
        epoch: ctx.epoch,
        roster: roster_u32,
    })
}

/// Drives phases 1–2 of one shard as the leader: announce with
/// `ShardStart`, the MAF intersection over the session's cached
/// outcomes, then one LD scan per evaluation subset with every pooled
/// moment logged, closed by `ShardDone`. No Phase 1/2/3 broadcasts go
/// out — followers only serve the moments oracle — and an *empty* shard
/// panel is legal: a shard whose range misses the job panel still
/// announces and completes, so every lane's channels ratchet in
/// lockstep however the panel lands.
fn run_leader_shard<T: Transport>(
    ctx: &mut MemberCtx<T>,
    channels: &mut HashMap<usize, SecureChannel>,
    node: &GdoNode,
    params: &GwasParams,
    state: &LeaderState<'_>,
    spec: &ShardJobSpec,
) -> Result<ShardPhases, Interrupt> {
    let me = ctx.id;
    let roster = ctx.roster.clone();
    let mut panel = spec.panel.clone();
    panel.sort_unstable();
    panel.dedup();
    let mut forced = spec.forced.clone();
    forced.sort_unstable();
    forced.dedup();
    if panel
        .iter()
        .chain(&forced)
        .any(|s| s.index() >= state.panel_len)
    {
        return Err(ProtocolError::InvalidConfig("job names a SNP outside the study panel").into());
    }

    gendpr_obs::event(
        gendpr_obs::Level::Info,
        "serving",
        "shard_announced",
        &[
            ("job_id", spec.job_id.into()),
            ("shard", u64::from(spec.shard).into()),
            ("panel", panel.len().into()),
        ],
    );

    // ---- Announce the shard ----
    let announce = ProtocolMessage::ShardStart(ShardStartBroadcast {
        job_id: spec.job_id,
        shard: spec.shard,
    });
    for &peer in &roster {
        if peer != me {
            let channel = channels.get_mut(&peer).expect("channel");
            send_protocol(ctx, channel, peer, &announce)?;
        }
    }

    // ---- Phase 1 over the shard's candidates ----
    let phase_clock = Instant::now();
    let candidates: Vec<SnpId> = panel
        .iter()
        .copied()
        .filter(|s| forced.binary_search(s).is_err())
        .collect();
    let per_subset: Vec<Vec<SnpId>> = state
        .maf_outcomes
        .iter()
        .map(|o| {
            o.retained
                .iter()
                .copied()
                .filter(|s| candidates.binary_search(s).is_ok())
                .collect()
        })
        .collect();
    let l_prime = intersect_selections(&per_subset);
    crate::telemetry::phase_seconds("maf").observe_duration(phase_clock.elapsed());

    // ---- Phase 2: LD scan per subset, logging every pooled moment ----
    let phase_clock = Instant::now();
    let mut scans = Vec::with_capacity(state.subsets.len());
    for (c, subset) in state.subsets.iter().enumerate() {
        let ranks = &state.rankings[c];
        let mut moments_log: Vec<(u32, u32, LdMoments)> = Vec::new();
        let mut scan_error: Option<Interrupt> = None;
        let retained = {
            let channels = &mut *channels;
            let ctx_cell = std::cell::RefCell::new(&mut *ctx);
            let scan_error = &mut scan_error;
            let moments_log = &mut moments_log;
            run_ld_scan(
                &l_prime,
                |a, b| {
                    if scan_error.is_some() {
                        return LdMoments::default();
                    }
                    let mut guard = ctx_cell.borrow_mut();
                    match pooled_pair_moments(
                        &mut **guard,
                        channels,
                        node,
                        state.reference,
                        &state.ref_counts,
                        subset,
                        a,
                        b,
                    ) {
                        Ok(pooled) => {
                            moments_log.push((a.0, b.0, pooled));
                            pooled
                        }
                        Err(e) => {
                            *scan_error = Some(e);
                            LdMoments::default()
                        }
                    }
                },
                |s| ranks[s.index()].p_value,
                params.ld_cutoff,
            )
        };
        if let Some(intr) = scan_error {
            return Err(intr);
        }
        scans.push(ShardScan {
            retained,
            moments: moments_log,
        });
    }
    crate::telemetry::phase_seconds("ld").observe_duration(phase_clock.elapsed());

    // ---- Close the shard ----
    for &peer in &roster {
        if peer != me {
            let channel = channels.get_mut(&peer).expect("channel");
            send_protocol(ctx, channel, peer, &ProtocolMessage::ShardDone)?;
        }
    }
    Ok(ShardPhases { l_prime, scans })
}

/// Runs the seeded subset search with the per-combination forced-prefix
/// memo: the forced columns' cumulative sums are accumulated once per
/// (combination, forced sequence) and reused across every later job with
/// the same ledger prefix, and the candidate sweep runs on `threads` row
/// chunks.
#[allow(clippy::too_many_arguments)]
fn seeded_selection(
    case: &LrColumns,
    null: &LrColumns,
    forced_cols: &[usize],
    order: &[usize],
    params: &LrTestParams,
    threads: usize,
    combo: u32,
    columns: &[SnpId],
    memo: &LrPrefixMemo,
) -> LrSelection {
    let prefix = memo.get_or_compute(combo, &columns[..forced_cols.len()], || {
        LrPrefixSums::accumulate(case, null, forced_cols, params)
    });
    search(case, null, &prefix, order, params, threads)
}

/// Compact-transport Phase 3 for one subset over the lane's resident
/// columns: each remote subset member is asked only for the columns the
/// lane lacks (and not at all when none are missing), its reply is
/// checked against the row count it reported at session start and made
/// resident, and the case [`LrColumns`] is stitched in the dense path's
/// part order — the leader's own shard first, then the remote members in
/// subset order. The null view comes from the reference's SNP-major
/// copy, built at the first call.
#[allow(clippy::too_many_arguments)]
fn resident_seeded_selection<T: Transport>(
    ctx: &mut MemberCtx<T>,
    channels: &mut HashMap<usize, SecureChannel>,
    node: &GdoNode,
    lane: &mut LaneColumns,
    reference: &GenotypeMatrix,
    subset: &[usize],
    combo: u32,
    columns: &[SnpId],
    case_freqs: &[f64],
    ref_freqs: &[f64],
    forced_cols: &[usize],
    order: &[usize],
    params: &GwasParams,
    lr_memo: &LrPrefixMemo,
) -> Result<LrSelection, Interrupt> {
    let me = ctx.id;
    let threads = ctx.threads;
    let requests: Vec<(usize, Vec<usize>)> = subset
        .iter()
        .filter(|&&peer| peer != me)
        .map(|&peer| (peer, lane.members[peer].missing(columns)))
        .filter(|(_, missing)| !missing.is_empty())
        .collect();
    for (peer, missing) in &requests {
        let request = ProtocolMessage::Phase2(
            combo,
            Phase2Broadcast {
                retained: missing.iter().map(|&j| columns[j].0).collect(),
                case_freqs: missing.iter().map(|&j| case_freqs[j]).collect(),
                ref_freqs: missing.iter().map(|&j| ref_freqs[j]).collect(),
            },
        );
        let channel = channels.get_mut(peer).expect("channel");
        send_protocol(ctx, channel, *peer, &request)?;
    }
    for (peer, missing) in &requests {
        let peer = *peer;
        let individuals = lane.members[peer].individuals;
        let channel = channels.get_mut(&peer).expect("channel");
        let shipped = match recv_protocol(ctx, channel, peer, "lr-matrices")? {
            ProtocolMessage::LrCompact(c, report)
                if c == combo
                    && report.individuals == individuals as u64
                    && report.snps == missing.len() as u64 =>
            {
                ColumnarGenotypes::from_row_major(individuals, missing.len(), &report.bits)
                    .map_err(|_| ProtocolError::MalformedMessage { member: peer })?
            }
            _ => return Err(ProtocolError::MalformedMessage { member: peer }.into()),
        };
        let added = lane.members[peer].insert(missing.iter().map(|&j| columns[j]), &shipped);
        ctx.enclave.enter(|(), epc| epc.alloc(added));
    }

    let LaneColumns {
        members,
        reference: reference_view,
    } = lane;
    let null_view: &ColumnarGenotypes = ctx.enclave.enter(|(), epc| {
        reference_view.get_or_insert_with(|| {
            let view = ColumnarGenotypes::from_matrix(reference);
            epc.alloc(view.heap_bytes() as u64);
            view
        })
    });
    let parts: Vec<usize> = subset
        .contains(&me)
        .then_some(me)
        .into_iter()
        .chain(subset.iter().copied().filter(|&peer| peer != me))
        .collect();
    let sizes: Vec<usize> = parts.iter().map(|&m| members[m].individuals).collect();
    let (selection, freed) = ctx.enclave.enter(|(), epc| {
        let case = LrColumns::from_part_columns(&sizes, case_freqs, ref_freqs, |p, j| {
            if parts[p] == me {
                node.columnar().snp_words(columns[j])
            } else {
                members[parts[p]].column(columns[j])
            }
        });
        epc.alloc(case.heap_bytes() as u64);
        let null = LrColumns::from_columnar(null_view, columns, case_freqs, ref_freqs);
        epc.alloc(null.heap_bytes() as u64);
        let selection = seeded_selection(
            &case,
            &null,
            forced_cols,
            order,
            &params.lr,
            threads,
            combo,
            columns,
            lr_memo,
        );
        (
            selection,
            case.heap_bytes() as u64 + null.heap_bytes() as u64,
        )
    });
    ctx.enclave.enter(|(), epc| epc.free(freed));
    Ok(selection)
}

/// Dense-transport Phase 3 for one subset: broadcasts the full column
/// set with its frequencies to every remote subset member, collects the
/// members' dense LR matrices (mirroring the one-shot runtime's enclave
/// accounting), rejects any report whose cells are not its columns' two
/// LR levels, and runs the seeded search over the packed merge.
#[allow(clippy::too_many_arguments)]
fn dense_seeded_selection<T: Transport>(
    ctx: &mut MemberCtx<T>,
    channels: &mut HashMap<usize, SecureChannel>,
    node: &GdoNode,
    reference: &GenotypeMatrix,
    subset: &[usize],
    combo: u32,
    columns: &[SnpId],
    case_freqs: &[f64],
    ref_freqs: &[f64],
    forced_cols: &[usize],
    order: &[usize],
    params: &GwasParams,
    lr_memo: &LrPrefixMemo,
) -> Result<LrSelection, Interrupt> {
    let me = ctx.id;
    let threads = ctx.threads;
    let broadcast = ProtocolMessage::Phase2(
        combo,
        Phase2Broadcast {
            retained: columns.iter().map(|s| s.0).collect(),
            case_freqs: case_freqs.to_vec(),
            ref_freqs: ref_freqs.to_vec(),
        },
    );
    for &peer in subset {
        if peer == me {
            continue;
        }
        let channel = channels.get_mut(&peer).expect("channel");
        send_protocol(ctx, channel, peer, &broadcast)?;
    }
    let mut parts: Vec<LrMatrix> = Vec::with_capacity(subset.len());
    if subset.contains(&me) {
        let own = ctx.enclave.enter(|(), epc| {
            let m = node
                .lr_report(columns, case_freqs, ref_freqs)
                .into_matrix()
                .expect("well-formed local matrix");
            epc.alloc(m.heap_bytes() as u64);
            m
        });
        parts.push(own);
    }
    for &peer in subset {
        if peer == me {
            continue;
        }
        let channel = channels.get_mut(&peer).expect("channel");
        let m = match recv_protocol(ctx, channel, peer, "lr-matrices")? {
            ProtocolMessage::Lr(c, report) if c == combo => report
                .into_matrix()
                .map_err(|_| ProtocolError::MalformedMessage { member: peer })?,
            _ => return Err(ProtocolError::MalformedMessage { member: peer }.into()),
        };
        if m.snps() != columns.len() || !m.matches_levels(case_freqs, ref_freqs) {
            return Err(ProtocolError::MalformedMessage { member: peer }.into());
        }
        ctx.enclave
            .enter(|(), epc| epc.alloc(m.heap_bytes() as u64));
        parts.push(m);
    }
    let (selection, freed) = ctx.enclave.enter(|(), epc| {
        let case_matrix = LrMatrix::concat_rows(&parts);
        epc.alloc(case_matrix.heap_bytes() as u64);
        let null_matrix = LrMatrix::from_genotypes(reference, columns, case_freqs, ref_freqs);
        epc.alloc(null_matrix.heap_bytes() as u64);
        // Every part is two-valued per column: the leader built its own
        // and checked each member's levels on receipt.
        let case_columns = LrColumns::from_dense(&case_matrix).expect("levels checked on receipt");
        let null_columns = LrColumns::from_dense(&null_matrix).expect("built from genotypes");
        let selection = seeded_selection(
            &case_columns,
            &null_columns,
            forced_cols,
            order,
            &params.lr,
            threads,
            combo,
            columns,
            lr_memo,
        );
        let freed = case_matrix.heap_bytes() as u64 + null_matrix.heap_bytes() as u64;
        (selection, freed)
    });
    let part_bytes: u64 = parts.iter().map(|p| p.heap_bytes() as u64).sum();
    ctx.enclave.enter(|(), epc| epc.free(freed + part_bytes));
    Ok(selection)
}

/// Handle to a running service session: one thread per member, a command
/// queue into the leader and an event stream back.
///
/// Jobs are strictly sequential — [`submit`](Self::submit) blocks until
/// every member reports the job done — which is exactly the semantics the
/// release ledger needs: job *n*'s released SNPs are known (and durable)
/// before job *n + 1*'s forced set is computed.
pub struct ServiceFederation {
    g: usize,
    panel_len: usize,
    leader: usize,
    commands: Vec<Sender<SessionCommand>>,
    events: Receiver<SessionEvent>,
    handles: Vec<JoinHandle<()>>,
    timeout: Duration,
    failed: Option<ProtocolError>,
}

impl ServiceFederation {
    /// Starts a session over the in-memory [`Network`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`Self::start_over`].
    pub fn start_in_memory(
        config: FederationConfig,
        params: GwasParams,
        cohort: impl AsRef<Cohort>,
        options: RuntimeOptions,
    ) -> Result<Self, ProtocolError> {
        config.validate().map_err(ProtocolError::InvalidConfig)?;
        let network = Network::new();
        let transports: Vec<Endpoint> = (0..config.gdo_count)
            .map(|id| network.register(PeerId(id as u32)))
            .collect();
        Self::start_over(transports, config, params, cohort, options)
    }

    /// Starts a session over caller-supplied transports (one per member,
    /// in id order) and blocks until every member finished setup:
    /// election, mutual attestation, counts collection.
    ///
    /// # Errors
    ///
    /// Configuration errors, [`ProtocolError::EmptyStudy`], or whatever a
    /// member's session setup failed with.
    pub fn start_over<T: Transport + 'static>(
        transports: Vec<T>,
        config: FederationConfig,
        params: GwasParams,
        cohort: impl AsRef<Cohort>,
        options: RuntimeOptions,
    ) -> Result<Self, ProtocolError> {
        config.validate().map_err(ProtocolError::InvalidConfig)?;
        params.validate().map_err(ProtocolError::InvalidConfig)?;
        let cohort = cohort.as_ref();
        if cohort.panel().is_empty() || cohort.reference_individuals() == 0 {
            return Err(ProtocolError::EmptyStudy);
        }
        let g = config.gdo_count;
        if transports.len() != g {
            return Err(ProtocolError::InvalidConfig("one transport per member"));
        }
        if transports
            .iter()
            .enumerate()
            .any(|(id, t)| t.id() != PeerId(id as u32))
        {
            return Err(ProtocolError::InvalidConfig(
                "transports must be ordered by member id",
            ));
        }
        let panel_len = cohort.panel().len();
        let reference = Arc::new(cohort.reference().clone());
        let shards = cohort.split_case_among(g);
        let (event_tx, events) = channel();
        let mut commands = Vec::with_capacity(g);
        let mut handles = Vec::with_capacity(g);
        for (id, (transport, shard)) in transports.into_iter().zip(shards).enumerate() {
            let (cmd_tx, cmd_rx) = channel();
            commands.push(cmd_tx);
            let reference = Arc::clone(&reference);
            let events = event_tx.clone();
            handles.push(std::thread::spawn(move || {
                let error = match catch_unwind(AssertUnwindSafe(|| {
                    member_session(
                        transport, id, &config, &params, options, shard, &reference, &cmd_rx,
                        &events,
                    )
                })) {
                    Ok(Ok(())) => return,
                    Ok(Err(error)) => error,
                    // Idle members keep the event channel open, so a
                    // silent unwind would leave the handle waiting out its
                    // whole session timeout. Report it as a lane-fatal
                    // member failure so supervision rebuilds at once.
                    Err(payload) => {
                        let message = payload
                            .downcast_ref::<&str>()
                            .map(|s| (*s).to_string())
                            .or_else(|| payload.downcast_ref::<String>().cloned())
                            .unwrap_or_default();
                        gendpr_obs::event(
                            gendpr_obs::Level::Error,
                            "serving",
                            "member_panicked",
                            &[("member", id.into()), ("panic", message.as_str().into())],
                        );
                        ProtocolError::MemberUnresponsive {
                            member: id,
                            phase: "a panic in its session thread",
                        }
                    }
                };
                let _ = events.send(SessionEvent::Failed { error });
            }));
        }
        drop(event_tx);
        let mut session = Self {
            g,
            panel_len,
            leader: 0,
            commands,
            events,
            handles,
            timeout: options.timeout,
            failed: None,
        };
        let mut ready = 0usize;
        while ready < g {
            match session.recv_event()? {
                SessionEvent::Ready { leader, .. } => {
                    session.leader = leader;
                    ready += 1;
                }
                _ => {
                    let e = ProtocolError::InvalidConfig("unexpected event during session setup");
                    session.failed = Some(e.clone());
                    return Err(e);
                }
            }
        }
        Ok(session)
    }

    /// The session's elected leader.
    #[must_use]
    pub fn leader(&self) -> usize {
        self.leader
    }

    /// Federation size.
    #[must_use]
    pub fn gdo_count(&self) -> usize {
        self.g
    }

    /// The cohort's full panel width (job SNP ids must stay below it).
    #[must_use]
    pub fn panel_len(&self) -> usize {
        self.panel_len
    }

    fn recv_event(&mut self) -> Result<SessionEvent, ProtocolError> {
        if let Some(e) = &self.failed {
            return Err(e.clone());
        }
        // Jobs run G assessments' worth of work; give the session several
        // protocol timeouts before declaring it wedged.
        match self.events.recv_timeout(self.timeout.saturating_mul(4)) {
            Ok(SessionEvent::Failed { error }) => {
                self.failed = Some(error.clone());
                Err(error)
            }
            Ok(event) => Ok(event),
            Err(_) => {
                let e = ProtocolError::MemberUnresponsive {
                    member: self.leader,
                    phase: "service-session",
                };
                self.failed = Some(e.clone());
                Err(e)
            }
        }
    }

    /// Runs one job to completion and returns what it released.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::InvalidConfig`] for malformed specs (the session
    /// stays usable), or the session's fatal error if a member died — in
    /// which case the handle is poisoned and every later call returns the
    /// same error.
    ///
    /// # Panics
    ///
    /// Panics if honest members disagree on the released set (a protocol
    /// invariant violation, as in the one-shot runtime).
    pub fn submit(&mut self, spec: &JobSpec) -> Result<JobOutcome, ProtocolError> {
        self.submit_inner(spec, None)
    }

    /// Runs one job whose phases 1–2 were already computed by shard
    /// lanes (see [`Self::submit_shard`]): the leader asserts the merged
    /// Phase 1 against its own, replays the LD scans from the shards'
    /// moment logs, and runs the global seeded LR search as usual.
    ///
    /// `shards` must be ordered by [`ShardOutput::start`] and cover the
    /// job panel exactly, with one [`ShardScan`] per evaluation subset.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Self::submit`], plus
    /// [`ProtocolError::InvalidConfig`] if the shard outputs do not
    /// reassemble to this session's own Phase 1 — that means a lane ran
    /// over a different study, so the session is torn down rather than
    /// left to certify a merge it cannot trust.
    ///
    /// # Panics
    ///
    /// Same conditions as [`Self::submit`].
    pub fn submit_sharded(
        &mut self,
        spec: &JobSpec,
        shards: Vec<ShardOutput>,
    ) -> Result<JobOutcome, ProtocolError> {
        self.submit_inner(spec, Some(shards))
    }

    fn submit_inner(
        &mut self,
        spec: &JobSpec,
        shards: Option<Vec<ShardOutput>>,
    ) -> Result<JobOutcome, ProtocolError> {
        if let Some(e) = &self.failed {
            return Err(e.clone());
        }
        if spec.panel.is_empty() {
            return Err(ProtocolError::InvalidConfig("job panel is empty"));
        }
        if spec
            .panel
            .iter()
            .chain(&spec.forced)
            .any(|s| s.index() >= self.panel_len)
        {
            return Err(ProtocolError::InvalidConfig(
                "job names a SNP outside the study panel",
            ));
        }
        if self.commands[self.leader]
            .send(SessionCommand::Run(spec.clone(), shards))
            .is_err()
        {
            let e = ProtocolError::MemberUnresponsive {
                member: self.leader,
                phase: "service-session",
            };
            self.failed = Some(e.clone());
            return Err(e);
        }
        let mut finished = 0usize;
        let mut detail: Option<Box<LeaderDetail>> = None;
        let mut traffic: Vec<LinkUsage> = Vec::new();
        let mut safe_sets: Vec<(usize, Vec<SnpId>)> = Vec::new();
        while finished < self.g {
            match self.recv_event()? {
                SessionEvent::Finished {
                    member,
                    job_id,
                    safe,
                    traffic: links,
                    detail: d,
                } => {
                    if job_id != spec.job_id {
                        continue;
                    }
                    finished += 1;
                    traffic.extend(links);
                    if let Some(d) = d {
                        detail = Some(d);
                    }
                    safe_sets.push((member, safe));
                }
                _ => {
                    let e = ProtocolError::InvalidConfig("unexpected event during job");
                    self.failed = Some(e.clone());
                    return Err(e);
                }
            }
        }
        let detail = detail.ok_or(ProtocolError::InvalidConfig(
            "job finished without a leader",
        ))?;
        for (member, safe) in &safe_sets {
            assert_eq!(
                *safe, detail.released,
                "member {member} disagrees on the released set"
            );
        }
        traffic.sort_by_key(|l| (l.from, l.to));
        Ok(JobOutcome {
            job_id: spec.job_id,
            leader: self.leader,
            l_prime: detail.l_prime,
            l_double_prime: detail.l_double_prime,
            released: detail.released,
            final_power: detail.final_power,
            final_threshold: detail.final_threshold,
            case_freqs: detail.case_freqs,
            ref_freqs: detail.ref_freqs,
            certificate: detail.certificate,
            epoch: detail.epoch,
            roster: detail.roster,
            traffic,
        })
    }

    /// Runs phases 1–2 of one shard to completion and returns the lane's
    /// output, in the lane's local SNP ids.
    ///
    /// Unlike [`Self::submit`], an empty panel is legal — a shard whose
    /// range misses the job panel still runs (trivially) so that every
    /// lane of a plan ratchets its channels in lockstep.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::InvalidConfig`] for out-of-range SNP ids (the
    /// session stays usable), or the session's fatal error if a member
    /// died — poisoning the handle like any other job.
    pub fn submit_shard(&mut self, spec: &ShardJobSpec) -> Result<ShardPhases, ProtocolError> {
        if let Some(e) = &self.failed {
            return Err(e.clone());
        }
        if spec
            .panel
            .iter()
            .chain(&spec.forced)
            .any(|s| s.index() >= self.panel_len)
        {
            return Err(ProtocolError::InvalidConfig(
                "job names a SNP outside the study panel",
            ));
        }
        if self.commands[self.leader]
            .send(SessionCommand::RunShard(spec.clone()))
            .is_err()
        {
            let e = ProtocolError::MemberUnresponsive {
                member: self.leader,
                phase: "service-session",
            };
            self.failed = Some(e.clone());
            return Err(e);
        }
        loop {
            match self.recv_event()? {
                SessionEvent::ShardFinished {
                    job_id,
                    shard,
                    phases,
                } => {
                    if job_id != spec.job_id || shard != spec.shard {
                        continue;
                    }
                    return Ok(*phases);
                }
                _ => {
                    let e = ProtocolError::InvalidConfig("unexpected event during shard job");
                    self.failed = Some(e.clone());
                    return Err(e);
                }
            }
        }
    }

    /// Arms a one-shot failpoint: the leader's session thread panics when
    /// job `job_id` reaches it. Only the panic is synthetic — reporting
    /// it as a lane-fatal failure, and whatever supervision does next, is
    /// the production path under test.
    #[doc(hidden)]
    pub fn inject_member_panic(&self, job_id: u64) {
        let _ = self.commands[self.leader].send(SessionCommand::ArmPanic(job_id));
    }

    /// Ends the session cleanly: the leader broadcasts `SessionEnd`,
    /// every member tears down its channels, and all threads are joined.
    /// A session that already failed only reaps the member threads that
    /// have exited: the others may sit in a protocol wait until their own
    /// timeout (or, behind a dead leader, idle forever), and joining them
    /// would stall a supervisor that is about to rebuild the lane.
    ///
    /// # Errors
    ///
    /// The session's fatal error, if it died before (or during) shutdown.
    pub fn shutdown(mut self) -> Result<(), ProtocolError> {
        if self.failed.is_none() {
            let _ = self.commands[self.leader].send(SessionCommand::Shutdown);
            let mut closed = 0usize;
            while closed < self.g {
                match self.recv_event() {
                    Ok(SessionEvent::Closed) => closed += 1,
                    Ok(_) => {}
                    Err(_) => break,
                }
            }
        }
        for handle in std::mem::take(&mut self.handles) {
            if self.failed.is_none() || handle.is_finished() {
                let _ = handle.join();
            }
        }
        match self.failed.take() {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }
}

impl Drop for ServiceFederation {
    fn drop(&mut self) {
        // Best-effort: ask the leader to end the session so member
        // threads do not linger. `shutdown` already drained and joined;
        // here the threads detach.
        let _ = self.commands[self.leader].send(SessionCommand::Shutdown);
    }
}
