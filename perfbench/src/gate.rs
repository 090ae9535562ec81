//! The correctness gate every run passes before its numbers count.

use crate::daemon::StateDir;
use crate::load::LoadRun;
use crate::spec::Workload;
use gendpr_core::certificate::{AssessmentFacts, JobContext};
use gendpr_core::collusion::evaluation_subsets;
use gendpr_core::config::{CollusionMode, GwasParams};
use gendpr_core::runtime::expected_measurement;
use gendpr_crypto::rng::ChaChaRng;
use gendpr_crypto::sha256;
use gendpr_fednet::wire::from_bytes;
use gendpr_genomics::cohort::Cohort;
use gendpr_genomics::snp::SnpId;
use gendpr_service::LedgerRecord;
use gendpr_tee::AttestationService;
use std::collections::{BTreeSet, HashMap};
use std::path::{Path, PathBuf};

/// Frame layout shared by the ledger and the claim log:
/// `[u32 LE body length][body][SHA-256(body)]`.
const CHECKSUM_LEN: usize = 32;

/// What the gate found.
#[derive(Debug, Default)]
pub struct Verdict {
    /// One entry per failed check.
    pub failures: Vec<String>,
}

impl Verdict {
    fn fail(&mut self, message: String) {
        self.failures.push(message);
    }
}

/// Splits `bytes` into checksummed frame bodies; `Err` names the offset
/// of the first torn or corrupt frame.
pub fn frames(bytes: &[u8]) -> Result<Vec<&[u8]>, usize> {
    let mut out = Vec::new();
    let mut at = 0;
    while at < bytes.len() {
        let Some(header) = bytes.get(at..at + 4) else {
            return Err(at);
        };
        let len = u32::from_le_bytes(header.try_into().expect("four bytes")) as usize;
        let end = at + 4 + len + CHECKSUM_LEN;
        if end > bytes.len() {
            return Err(at);
        }
        let body = &bytes[at + 4..at + 4 + len];
        if sha256::digest(body).as_slice() != &bytes[end - CHECKSUM_LEN..end] {
            return Err(at);
        }
        out.push(body);
        at = end;
    }
    Ok(out)
}

/// Checks a mirrored log: every copy's frames intact, every mirror a
/// byte prefix of the primary. Returns the primary's bytes.
fn check_copies(primary: &Path, mirrors: &[PathBuf], verdict: &mut Verdict) -> Vec<u8> {
    let bytes = std::fs::read(primary).unwrap_or_default();
    for (path, copy) in std::iter::once((primary.to_path_buf(), bytes.clone())).chain(
        mirrors
            .iter()
            .map(|m| (m.clone(), std::fs::read(m).unwrap_or_default())),
    ) {
        if let Err(at) = frames(&copy) {
            verdict.fail(format!("{}: torn frame at byte {at}", path.display()));
        }
        if !bytes.starts_with(&copy) {
            verdict.fail(format!(
                "{}: not a prefix of the primary ({} vs {} bytes)",
                path.display(),
                copy.len(),
                bytes.len()
            ));
        }
    }
    bytes
}

/// Reads the committed ledger records (after [`check_copies`]).
fn ledger_records(bytes: &[u8], verdict: &mut Verdict) -> Vec<LedgerRecord> {
    let mut records = Vec::new();
    for body in frames(bytes).unwrap_or_default() {
        match from_bytes::<LedgerRecord>(body) {
            Ok(r) => records.push(r),
            Err(e) => verdict.fail(format!("undecodable ledger record: {e:?}")),
        }
    }
    records
}

/// Verifies one certificate against facts rebuilt from the raw study.
pub struct CertificateCheck {
    service: AttestationService,
    params: GwasParams,
    gdos: usize,
    evaluations: u64,
    panel_len: usize,
    case_counts: Vec<u64>,
    n_case: u64,
    ref_counts: Vec<u64>,
    n_ref: u64,
}

impl CertificateCheck {
    /// The auditor's view of `w`'s federation over `cohort`: the
    /// attestation service derives from the federation seed (0, the
    /// daemon default), as every member's does.
    #[must_use]
    pub fn new(w: &Workload, cohort: &Cohort) -> Self {
        let params = GwasParams::secure_genome_defaults();
        let mode = CollusionMode::Fixed(w.collusion);
        Self {
            service: AttestationService::new(
                &mut ChaChaRng::from_seed_u64(0).fork("attestation-service"),
            ),
            params,
            gdos: w.gdos,
            evaluations: evaluation_subsets(w.gdos, mode).len() as u64,
            panel_len: cohort.panel().len(),
            case_counts: cohort.case().column_counts(),
            n_case: cohort.case().individuals() as u64,
            ref_counts: cohort.reference().column_counts(),
            n_ref: cohort.reference().individuals() as u64,
        }
    }

    /// `Err` explains why `record`'s certificate does not verify.
    pub fn verify(&self, record: &LedgerRecord) -> Result<(), String> {
        let Some(wire) = &record.certificate else {
            return Err("no certificate".to_string());
        };
        let full_roster: Vec<u32> = (0..self.gdos as u32).collect();
        if record.epoch != 1 || record.roster != full_roster {
            return Err(format!(
                "degraded federation (epoch {}, roster {:?})",
                record.epoch, record.roster
            ));
        }
        let ids = |v: &[u32]| v.iter().copied().map(SnpId).collect::<Vec<_>>();
        let (safe, panel, forced) = (
            ids(&record.released),
            ids(&record.panel),
            ids(&record.forced),
        );
        let facts = AssessmentFacts {
            params: &self.params,
            gdo_count: self.gdos,
            panel_len: self.panel_len,
            case_counts: &self.case_counts,
            n_case: self.n_case,
            ref_counts: &self.ref_counts,
            n_ref: self.n_ref,
            safe: &safe,
            evaluations: self.evaluations,
            epoch: record.epoch,
            roster: &record.roster,
            context: Some(JobContext {
                job_id: record.job_id,
                panel: &panel,
                forced: &forced,
            }),
        };
        wire.to_certificate()
            .verify(&self.service, &expected_measurement(&self.params), &facts)
            .map_err(|e| format!("certificate rejected: {e:?}"))
    }
}

/// Runs every check over a finished run's state directory and client
/// samples. `twin`, when given, holds the records an unsharded replay
/// of the same job sequence produced; each must match in id, panel,
/// seed, release and certificate.
pub fn check(
    w: &Workload,
    state: &StateDir,
    load: &LoadRun,
    certs: &CertificateCheck,
    twin: Option<&[LedgerRecord]>,
) -> (Vec<LedgerRecord>, Verdict) {
    let mut verdict = Verdict::default();
    let replicas = state.replicas(w);
    let bytes = check_copies(&state.ledger(), &replicas, &mut verdict);
    if w.tracks > 0 {
        let claims = |p: &Path| PathBuf::from(format!("{}.claims", p.display()));
        let mirrors: Vec<PathBuf> = replicas.iter().map(|p| claims(p)).collect();
        check_copies(&claims(&state.ledger()), &mirrors, &mut verdict);
    }
    let records = ledger_records(&bytes, &mut verdict);
    check_records(w, &records, &mut verdict);

    // Every client answer is the ledger's record, and nothing else is.
    let by_id: HashMap<u64, &LedgerRecord> = records.iter().map(|r| (r.job_id, r)).collect();
    let mut answered = 0;
    for record in load.records() {
        answered += 1;
        if by_id.get(&record.job_id) != Some(&record) {
            verdict.fail(format!(
                "job {}: client answer differs from the ledger",
                record.job_id
            ));
        }
    }
    if answered != records.len() {
        verdict.fail(format!(
            "{answered} certified answers but {} ledger records",
            records.len()
        ));
    }
    for record in &records {
        if let Err(e) = certs.verify(record) {
            verdict.fail(format!("job {}: {e}", record.job_id));
        }
    }
    if let Some(twin) = twin {
        check_twin(&records, twin, &mut verdict);
    }
    (records, verdict)
}

/// Monotone ids; each seed the union of a committed prefix (all earlier
/// records, when commits are serial); no seeded SNP released again.
fn check_records(w: &Workload, records: &[LedgerRecord], verdict: &mut Verdict) {
    for pair in records.windows(2) {
        if pair[1].job_id <= pair[0].job_id {
            verdict.fail(format!(
                "job ids not increasing: {} then {}",
                pair[0].job_id, pair[1].job_id
            ));
        }
    }
    let mut unions: Vec<Vec<u32>> = vec![Vec::new()];
    let mut acc = BTreeSet::new();
    for record in records {
        acc.extend(record.released.iter().copied());
        unions.push(acc.iter().copied().collect());
    }
    for (i, record) in records.iter().enumerate() {
        let ok = if w.serial_commits() {
            record.forced == unions[i]
        } else {
            unions[..=i].contains(&record.forced)
        };
        if !ok {
            verdict.fail(format!(
                "job {}: seed is not the union of the records before it",
                record.job_id
            ));
        }
        if record
            .released
            .iter()
            .any(|s| record.forced.binary_search(s).is_ok())
        {
            verdict.fail(format!("job {}: re-released a seeded SNP", record.job_id));
        }
    }
}

fn check_twin(records: &[LedgerRecord], twin: &[LedgerRecord], verdict: &mut Verdict) {
    if records.len() != twin.len() {
        verdict.fail(format!(
            "{} records but the unsharded twin has {}",
            records.len(),
            twin.len()
        ));
    }
    for (a, b) in records.iter().zip(twin) {
        if (a.job_id, &a.panel, &a.forced, &a.released, &a.certificate)
            != (b.job_id, &b.panel, &b.forced, &b.released, &b.certificate)
        {
            verdict.fail(format!("job {}: differs from its unsharded twin", a.job_id));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(body: &[u8]) -> Vec<u8> {
        let mut f = (body.len() as u32).to_le_bytes().to_vec();
        f.extend_from_slice(body);
        f.extend_from_slice(&sha256::digest(body));
        f
    }

    #[test]
    fn frames_split_and_detect_tears() {
        let mut log = frame(b"one");
        log.extend(frame(b"three"));
        assert_eq!(frames(&log).unwrap(), vec![&b"one"[..], &b"three"[..]]);
        let first = frame(b"one").len();
        assert_eq!(frames(&log[..log.len() - 1]), Err(first));
        let mut corrupt = log.clone();
        corrupt[5] ^= 1;
        assert_eq!(frames(&corrupt), Err(0));
        assert_eq!(frames(&[]).unwrap().len(), 0);
    }
}
