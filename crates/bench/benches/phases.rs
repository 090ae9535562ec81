//! Criterion benchmarks of the three GenDPR phases in isolation
//! (leader-side decision logic over pre-computed aggregates).

use criterion::{criterion_group, criterion_main, Criterion};
use gendpr_bench::workload::paper_cohort;
use gendpr_core::messages::CountsReport;
use gendpr_core::phases::ld::run_ld_scan;
use gendpr_core::phases::lrtest::{run_lr_test, SelectionKernel};
use gendpr_core::phases::maf::run_maf;
use gendpr_genomics::columnar::ColumnarGenotypes;
use gendpr_genomics::snp::SnpId;
use gendpr_stats::ld::LdMoments;
use gendpr_stats::lr::{LrColumns, LrTestParams};
use gendpr_stats::ranking::rank_by_association;
use std::hint::black_box;

fn bench_maf_phase(c: &mut Criterion) {
    let cohort = paper_cohort(2_000, 5_000);
    let shards = cohort.split_case_among(3);
    let reports: Vec<CountsReport> = shards
        .iter()
        .map(|s| CountsReport {
            counts: s.column_counts(),
            n_case: s.individuals() as u64,
        })
        .collect();
    let ref_counts = cohort.reference().column_counts();
    let n_ref = cohort.reference().individuals() as u64;
    c.bench_function("maf_phase_3gdos_5k_snps", |b| {
        b.iter(|| run_maf(black_box(&reports), ref_counts.clone(), n_ref, 0.05));
    });
}

fn bench_ld_phase(c: &mut Criterion) {
    let cohort = paper_cohort(2_000, 1_000);
    let case = cohort.case().clone();
    let reference = cohort.reference().clone();
    let maf = run_maf(
        &[CountsReport {
            counts: case.column_counts(),
            n_case: case.individuals() as u64,
        }],
        reference.column_counts(),
        reference.individuals() as u64,
        0.05,
    );
    let all_ids: Vec<SnpId> = (0..1_000u32).map(SnpId).collect();
    let ranks = rank_by_association(
        &all_ids,
        &maf.case_counts,
        maf.n_case,
        &maf.ref_counts,
        maf.n_ref,
    );
    c.bench_function("ld_scan_1k_snps_4k_individuals", |b| {
        b.iter(|| {
            run_ld_scan(
                black_box(&maf.retained),
                |x, y| {
                    LdMoments::from_matrix(&case, x, y)
                        .merge(LdMoments::from_matrix(&reference, x, y))
                },
                |s| ranks[s.index()].p_value,
                1e-5,
            )
        });
    });
    // The same scan off SNP-major transposes and cached marginal counts —
    // the kernels the protocol driver now uses.
    let case_col = ColumnarGenotypes::from_matrix(&case);
    let ref_col = ColumnarGenotypes::from_matrix(&reference);
    let n_case = case.individuals() as u64;
    let n_ref = reference.individuals() as u64;
    c.bench_function("ld_scan_1k_snps_4k_individuals_columnar", |b| {
        b.iter(|| {
            run_ld_scan(
                black_box(&maf.retained),
                |x, y| {
                    LdMoments::from_counts(
                        maf.case_counts[x.index()],
                        maf.case_counts[y.index()],
                        case_col.pair_count(x, y),
                        n_case,
                    )
                    .merge(LdMoments::from_counts(
                        maf.ref_counts[x.index()],
                        maf.ref_counts[y.index()],
                        ref_col.pair_count(x, y),
                        n_ref,
                    ))
                },
                |s| ranks[s.index()].p_value,
                1e-5,
            )
        });
    });
}

fn bench_lr_phase(c: &mut Criterion) {
    let cohort = paper_cohort(2_000, 400);
    let candidates: Vec<SnpId> = (0..400u32).map(SnpId).collect();
    let n_case = cohort.case().individuals() as u64;
    let n_ref = cohort.reference().individuals() as u64;
    let case_counts = cohort.case().column_counts();
    let ref_counts = cohort.reference().column_counts();
    let case_freqs: Vec<f64> = case_counts
        .iter()
        .map(|&x| x as f64 / n_case as f64)
        .collect();
    let ref_freqs: Vec<f64> = ref_counts
        .iter()
        .map(|&x| x as f64 / n_ref as f64)
        .collect();
    let gather = |g| {
        LrColumns::from_columnar(
            &ColumnarGenotypes::from_matrix(g),
            &candidates,
            &case_freqs,
            &ref_freqs,
        )
    };
    let (case_c, null_c) = (gather(cohort.case()), gather(cohort.reference()));
    let ranks = rank_by_association(&candidates, &case_counts, n_case, &ref_counts, n_ref);
    let params = LrTestParams::secure_genome_defaults();
    c.bench_function("lr_phase_400_candidates_2k_cases", |b| {
        b.iter(|| {
            run_lr_test(
                black_box(&candidates),
                black_box(&case_c),
                black_box(&null_c),
                &ranks,
                &params,
                SelectionKernel::Fast,
                1,
            )
        });
    });
}

criterion_group!(benches, bench_maf_phase, bench_ld_phase, bench_lr_phase);
criterion_main!(benches);
