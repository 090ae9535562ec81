//! The naïve distributed protocol (paper §7.3).
//!
//! "Each GDO computes the LD and LR-test independently (relying only on
//! their local dataset) and shares an encrypted vector of selected SNP
//! indexes, of which the leader computes an intersection and outputs as
//! safe only mutually chosen SNPs."
//!
//! The MAF phase still aggregates counts (the paper observes the naïve
//! scheme "is able to retain the same SNPs during the MAF evaluation"),
//! but LD and LR decisions are made from each member's shard alone — so
//! they miss the *global* genome distribution and select smaller, even
//! disjoint, SNP sets (the bold rows of Table 4). Releasing those would
//! still allow membership inference against the pooled statistics.

use crate::collusion::intersect_selections;
use crate::config::GwasParams;
use crate::error::ProtocolError;
use crate::gdo::GdoNode;
use crate::phases::ld::run_ld_scan;
use crate::phases::lrtest::{run_lr_test, SelectionKernel};
use crate::phases::maf::run_maf;
use gendpr_genomics::cohort::Cohort;
use gendpr_genomics::columnar::ColumnarGenotypes;
use gendpr_genomics::snp::SnpId;
use gendpr_stats::ld::LdMoments;
use gendpr_stats::lr::LrColumns;
use gendpr_stats::ranking::{rank_by_association, SnpRank};

/// Outcome of the naïve protocol.
#[derive(Debug, Clone)]
pub struct NaiveOutcome {
    /// MAF survivors (identical to GenDPR's `L'`).
    pub l_prime: Vec<SnpId>,
    /// Intersection of the members' local LD selections.
    pub l_double_prime: Vec<SnpId>,
    /// Intersection of the members' local LR selections.
    pub safe_snps: Vec<SnpId>,
}

/// The naïve local-analysis-plus-intersection protocol.
#[derive(Debug, Clone, Copy)]
pub struct NaiveDistributed {
    params: GwasParams,
    gdo_count: usize,
}

impl NaiveDistributed {
    /// Creates the protocol for a federation of `gdo_count` members.
    #[must_use]
    pub fn new(params: GwasParams, gdo_count: usize) -> Self {
        Self { params, gdo_count }
    }

    /// Runs the naïve protocol over the study.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::InvalidConfig`] or [`ProtocolError::EmptyStudy`].
    pub fn run(&self, cohort: &Cohort) -> Result<NaiveOutcome, ProtocolError> {
        self.params
            .validate()
            .map_err(ProtocolError::InvalidConfig)?;
        if self.gdo_count == 0 {
            return Err(ProtocolError::InvalidConfig(
                "a federation needs at least one member",
            ));
        }
        if cohort.panel().is_empty() || cohort.reference_individuals() == 0 {
            return Err(ProtocolError::EmptyStudy);
        }

        let nodes: Vec<GdoNode> = cohort
            .split_case_among(self.gdo_count)
            .into_iter()
            .enumerate()
            .map(|(i, shard)| GdoNode::new(i, shard))
            .collect();
        let reference = cohort.reference();
        let ref_counts = reference.column_counts();
        let n_ref = reference.individuals() as u64;

        // Phase 1: aggregated MAF, as in GenDPR.
        let reports: Vec<_> = nodes.iter().map(GdoNode::counts_report).collect();
        let maf = run_maf(&reports, ref_counts.clone(), n_ref, self.params.maf_cutoff);
        let l_prime = maf.retained.clone();

        let all_ids: Vec<SnpId> = (0..cohort.panel().len() as u32).map(SnpId).collect();

        // Phase 2: each member scans with *local* moments and ranking.
        let mut local_ranks: Vec<Vec<SnpRank>> = Vec::with_capacity(nodes.len());
        for node in &nodes {
            local_ranks.push(rank_by_association(
                &all_ids,
                &node.shard().column_counts(),
                node.shard().individuals() as u64,
                &ref_counts,
                n_ref,
            ));
        }
        let ld_selections: Vec<Vec<SnpId>> = nodes
            .iter()
            .enumerate()
            .map(|(g, node)| {
                run_ld_scan(
                    &l_prime,
                    |a, b| {
                        LdMoments::from_matrix(node.shard(), a, b)
                            .merge(LdMoments::from_matrix(reference, a, b))
                    },
                    |s| local_ranks[g][s.index()].p_value,
                    self.params.ld_cutoff,
                )
            })
            .collect();
        let l_double_prime = intersect_selections(&ld_selections);

        // Phase 3: each member tests with *local* case frequencies.
        let reference_columnar = ColumnarGenotypes::from_matrix(reference);
        let lr_selections: Vec<Vec<SnpId>> = nodes
            .iter()
            .enumerate()
            .map(|(g, node)| {
                let n_local = node.shard().individuals() as u64;
                let local_counts = node.shard().column_counts();
                let case_freqs: Vec<f64> = l_double_prime
                    .iter()
                    .map(|&s| local_counts[s.index()] as f64 / n_local.max(1) as f64)
                    .collect();
                let ref_freqs: Vec<f64> = l_double_prime
                    .iter()
                    .map(|&s| ref_counts[s.index()] as f64 / n_ref as f64)
                    .collect();
                let case_matrix = LrColumns::from_columnar(
                    node.columnar(),
                    &l_double_prime,
                    &case_freqs,
                    &ref_freqs,
                );
                let null_matrix = LrColumns::from_columnar(
                    &reference_columnar,
                    &l_double_prime,
                    &case_freqs,
                    &ref_freqs,
                );
                let ranks: Vec<SnpRank> = l_double_prime
                    .iter()
                    .map(|&s| local_ranks[g][s.index()])
                    .collect();
                run_lr_test(
                    &l_double_prime,
                    &case_matrix,
                    &null_matrix,
                    &ranks,
                    &self.params.lr,
                    SelectionKernel::Fast,
                    1,
                )
            })
            .collect();
        let safe_snps = intersect_selections(&lr_selections);

        Ok(NaiveOutcome {
            l_prime,
            l_double_prime,
            safe_snps,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FederationConfig;
    use crate::protocol::Federation;
    use gendpr_genomics::synth::SyntheticCohort;

    fn cohort() -> SyntheticCohort {
        SyntheticCohort::builder()
            .snps(300)
            .case_individuals(600)
            .reference_individuals(600)
            .seed(21)
            .build()
    }

    #[test]
    fn maf_matches_gendpr_but_later_phases_diverge() {
        let c = cohort();
        let params = GwasParams::secure_genome_defaults();
        let gendpr = Federation::new(FederationConfig::new(3), params, &c)
            .run()
            .unwrap();
        let naive = NaiveDistributed::new(params, 3).run(c.as_ref()).unwrap();
        assert_eq!(naive.l_prime, gendpr.l_prime, "MAF phase must agree");
        // With 3-way sharding the local LD statistics are noisier, so the
        // naive LD intersection is NOT the correct pooled selection.
        assert_ne!(
            naive.l_double_prime, gendpr.l_double_prime,
            "naive LD should diverge on sharded data"
        );
    }

    #[test]
    fn single_member_naive_equals_centralized_shape() {
        // With one member the "local" dataset is the whole case population,
        // so the naive pipeline coincides with GenDPR.
        let c = cohort();
        let params = GwasParams::secure_genome_defaults();
        let naive = NaiveDistributed::new(params, 1).run(c.as_ref()).unwrap();
        let gendpr = Federation::new(FederationConfig::new(1), params, &c)
            .run()
            .unwrap();
        assert_eq!(naive.l_double_prime, gendpr.l_double_prime);
        assert_eq!(naive.safe_snps, gendpr.safe_snps);
    }

    #[test]
    fn zero_members_rejected() {
        let c = cohort();
        assert!(matches!(
            NaiveDistributed::new(GwasParams::secure_genome_defaults(), 0)
                .run(c.as_ref())
                .unwrap_err(),
            ProtocolError::InvalidConfig(_)
        ));
    }
}
