//! Property-based equivalence of the columnar LR subset search against the
//! scalar `reference` oracle: for any two-valued LR matrices (packed from
//! dense values or gathered from genotypes), any candidate order, any
//! forced set, any thread count and a prefix shared between searches, the
//! selection must be **byte-identical** — `kept_columns`, `final_power` and
//! `final_threshold` all compare equal as exact values.

use gendpr_crypto::rng::ChaChaRng;
use gendpr_genomics::columnar::ColumnarGenotypes;
use gendpr_genomics::genotype::GenotypeMatrix;
use gendpr_genomics::snp::SnpId;
use gendpr_stats::lr::{reference, search, LrColumns, LrMatrix, LrPrefixSums, LrTestParams};
use proptest::prelude::*;

/// A reproducible LR test fixture: genotype-derived case/null matrices
/// with empirical frequencies, plus a candidate visiting order.
#[derive(Debug, Clone)]
struct Fixture {
    case_g: GenotypeMatrix,
    null_g: GenotypeMatrix,
    ids: Vec<SnpId>,
    case_freqs: Vec<f64>,
    ref_freqs: Vec<f64>,
    order: Vec<usize>,
}

impl Fixture {
    fn generate(n_case: usize, n_ref: usize, snps: usize, gap: f64, seed: u64) -> Self {
        let mut rng = ChaChaRng::from_seed_u64(seed);
        let mut case_freqs = Vec::with_capacity(snps);
        let mut ref_freqs = Vec::with_capacity(snps);
        for j in 0..snps {
            let p = 0.15 + 0.4 * rng.next_f64();
            ref_freqs.push(p);
            case_freqs.push(if j % 3 == 0 { (p + gap).min(0.95) } else { p });
        }
        let mut case_g = GenotypeMatrix::zeroed(n_case, snps);
        let mut null_g = GenotypeMatrix::zeroed(n_ref, snps);
        for i in 0..n_case {
            for (j, &f) in case_freqs.iter().enumerate() {
                if rng.next_bool(f) {
                    case_g.set(i, j, true);
                }
            }
        }
        for i in 0..n_ref {
            for (j, &f) in ref_freqs.iter().enumerate() {
                if rng.next_bool(f) {
                    null_g.set(i, j, true);
                }
            }
        }
        // The attack model uses the empirical frequencies, as the
        // protocol would compute them.
        let cf: Vec<f64> = case_g
            .column_counts()
            .iter()
            .map(|&c| c as f64 / n_case as f64)
            .collect();
        let rf: Vec<f64> = null_g
            .column_counts()
            .iter()
            .map(|&c| c as f64 / n_ref as f64)
            .collect();
        Self {
            case_g,
            null_g,
            ids: (0..snps as u32).map(SnpId).collect(),
            case_freqs: cf,
            ref_freqs: rf,
            order: (0..snps).collect(),
        }
    }

    fn dense(&self) -> (LrMatrix, LrMatrix) {
        (
            LrMatrix::from_genotypes(&self.case_g, &self.ids, &self.case_freqs, &self.ref_freqs),
            LrMatrix::from_genotypes(&self.null_g, &self.ids, &self.case_freqs, &self.ref_freqs),
        )
    }

    /// Columns gathered straight from the genotypes' SNP-major views.
    fn columns(&self) -> (LrColumns, LrColumns) {
        let gather = |g: &GenotypeMatrix| {
            let view = ColumnarGenotypes::from_matrix(g);
            LrColumns::from_columnar(&view, &self.ids, &self.case_freqs, &self.ref_freqs)
        };
        (gather(&self.case_g), gather(&self.null_g))
    }
}

/// Packs a dense matrix the way the leader packs a checked dense report.
fn packed(m: &LrMatrix) -> LrColumns {
    LrColumns::from_dense(m).expect("LR matrices are two-valued")
}

fn fixture_strategy() -> impl Strategy<Value = Fixture> {
    (
        1usize..200,  // case individuals (crossing the 64/128 word edges)
        1usize..200,  // reference individuals
        1usize..90,   // snps (crossing the one-word column edge)
        0.0f64..0.35, // case/ref frequency gap
        any::<u64>(), // seed
    )
        .prop_map(|(n_case, n_ref, snps, gap, seed)| {
            Fixture::generate(n_case, n_ref, snps, gap, seed)
        })
}

fn params_strategy() -> impl Strategy<Value = LrTestParams> {
    (0.0f64..0.5, 0.2f64..1.0).prop_map(|(fpr, power)| LrTestParams {
        false_positive_rate: fpr,
        power_threshold: power,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn columnar_search_equals_naive_for_all_representations(
        fx in fixture_strategy(),
        params in params_strategy(),
        threads in 1usize..5,
    ) {
        let (case_d, null_d) = fx.dense();
        let expected = reference::search(&case_d, &null_d, &[], &fx.order, &params);

        // Dense values packed by the leader, then columns gathered from
        // genotypes (levels in lr_levels order, not first-seen order), and
        // a mixed pairing; serial and row-chunked.
        let (case_p, null_p) = (packed(&case_d), packed(&null_d));
        let (case_c, null_c) = fx.columns();
        for (case, null) in [(&case_p, &null_p), (&case_c, &null_c), (&case_c, &null_p)] {
            let prefix = LrPrefixSums::accumulate(case, null, &[], &params);
            prop_assert_eq!(&search(case, null, &prefix, &fx.order, &params, 1), &expected);
            prop_assert_eq!(&search(case, null, &prefix, &fx.order, &params, threads), &expected);
        }
    }

    #[test]
    fn seeded_columnar_search_equals_naive(
        fx in fixture_strategy(),
        params in params_strategy(),
        split in any::<proptest::sample::Index>(),
        threads in 1usize..5,
    ) {
        // Carve a forced prefix out of the candidate order; the rest are
        // candidates (the seeded contract forbids overlap).
        let cut = split.index(fx.order.len() + 1);
        let (forced, order) = fx.order.split_at(cut);

        let (case_d, null_d) = fx.dense();
        let expected = reference::search(&case_d, &null_d, forced, order, &params);
        let (case_p, null_p) = (packed(&case_d), packed(&null_d));
        let prefix = LrPrefixSums::accumulate(&case_p, &null_p, forced, &params);
        prop_assert_eq!(&search(&case_p, &null_p, &prefix, order, &params, 1), &expected);
        prop_assert_eq!(&search(&case_p, &null_p, &prefix, order, &params, threads), &expected);
        let (case_c, null_c) = fx.columns();
        let prefix = LrPrefixSums::accumulate(&case_c, &null_c, forced, &params);
        prop_assert_eq!(&search(&case_c, &null_c, &prefix, order, &params, threads), &expected);
    }

    #[test]
    fn threaded_search_equals_serial(
        fx in fixture_strategy(),
        params in params_strategy(),
        threads in 2usize..5,
        split in any::<proptest::sample::Index>(),
    ) {
        let (case_c, null_c) = fx.columns();
        let cut = split.index(fx.order.len() + 1);
        let (forced, order) = fx.order.split_at(cut);
        for forced in [&[][..], forced] {
            let order = if forced.is_empty() { &fx.order[..] } else { order };
            let prefix = LrPrefixSums::accumulate(&case_c, &null_c, forced, &params);
            let serial = search(&case_c, &null_c, &prefix, order, &params, 1);
            let parallel = search(&case_c, &null_c, &prefix, order, &params, threads);
            prop_assert_eq!(&parallel, &serial);
        }
    }

    #[test]
    fn shared_prefix_serves_two_searches(
        fx in fixture_strategy(),
        params in params_strategy(),
        split in any::<proptest::sample::Index>(),
        threads in 1usize..5,
    ) {
        // One memoized prefix, two searches over different candidate
        // orders (as LrPrefixMemo shares it across jobs): neither search
        // may disturb the snapshot the other starts from.
        let cut = split.index(fx.order.len() + 1);
        let (forced, order) = fx.order.split_at(cut);
        let reversed: Vec<usize> = order.iter().rev().copied().collect();
        let (case_d, null_d) = fx.dense();
        let (case_c, null_c) = fx.columns();
        let prefix = LrPrefixSums::accumulate(&case_c, &null_c, forced, &params);
        let snapshot = prefix.clone();
        prop_assert_eq!(
            &search(&case_c, &null_c, &prefix, order, &params, threads),
            &reference::search(&case_d, &null_d, forced, order, &params)
        );
        prop_assert_eq!(
            &search(&case_c, &null_c, &prefix, &reversed, &params, 1),
            &reference::search(&case_d, &null_d, forced, &reversed, &params)
        );
        prop_assert_eq!(&prefix, &snapshot);
    }

    #[test]
    fn stitched_part_columns_equal_concatenated_rows(
        sizes in proptest::collection::vec(1usize..150, 1..5),
        snps in 1usize..90,
        seed in any::<u64>(),
    ) {
        // Part sizes off the 64-row word grid, so every stitch shifts.
        let sizes: Vec<usize> = sizes.iter().map(|&s| if s.is_multiple_of(64) { s + 1 } else { s }).collect();
        let fx = Fixture::generate(sizes.iter().sum(), 10, snps, 0.2, seed);
        let mut start = 0;
        let parts: Vec<GenotypeMatrix> = sizes
            .iter()
            .map(|&n| {
                let part = fx.case_g.row_range(start, n);
                start += n;
                part
            })
            .collect();
        let expected = LrColumns::from_columnar(
            &ColumnarGenotypes::from_matrix(&fx.case_g),
            &fx.ids,
            &fx.case_freqs,
            &fx.ref_freqs,
        );

        // Each part's columns as a leader holds them after a compact LR
        // report: the member's row-major gather, transposed back.
        let shipped: Vec<ColumnarGenotypes> = parts
            .iter()
            .map(|p| {
                let rows = ColumnarGenotypes::from_matrix(p).select_row_major(&fx.ids);
                ColumnarGenotypes::from_row_major(p.individuals(), fx.ids.len(), &rows).unwrap()
            })
            .collect();
        let stitched = LrColumns::from_part_columns(&sizes, &fx.case_freqs, &fx.ref_freqs, |p, j| {
            shipped[p].snp_words(SnpId(j as u32))
        });
        prop_assert_eq!(&stitched, &expected);

        let columnar: Vec<ColumnarGenotypes> = parts.iter().map(ColumnarGenotypes::from_matrix).collect();
        let refs: Vec<&ColumnarGenotypes> = columnar.iter().collect();
        prop_assert_eq!(
            &LrColumns::from_columnar_parts(&refs, &fx.ids, &fx.case_freqs, &fx.ref_freqs),
            &expected
        );
    }

    /// Packing a dense matrix into columns keeps every cell's bit pattern.
    #[test]
    fn to_columns_roundtrips_every_cell(fx in fixture_strategy()) {
        let (case_d, _) = fx.dense();
        let cols = packed(&case_d);
        prop_assert_eq!(cols.individuals(), case_d.individuals());
        prop_assert_eq!(cols.snps(), case_d.snps());
        for i in 0..case_d.individuals() {
            for j in 0..case_d.snps() {
                prop_assert_eq!(
                    cols.get(i, j).to_bits(),
                    case_d.get(i, j).to_bits(),
                    "cell ({}, {})", i, j
                );
            }
        }
    }
}

/// Three-valued columns must refuse the columnar view (not silently
/// mis-pack); the leader rejects such a report before packing it.
#[test]
fn three_valued_matrix_declines_columnar_view() {
    let m = LrMatrix::from_values(3, 1, vec![0.25, 0.5, 0.75]);
    assert!(LrColumns::from_dense(&m).is_none());
}

/// `+0.0` and `-0.0` are distinct level values for the kernels: the bit
/// pattern matters for summation and `total_cmp` ordering.
#[test]
fn signed_zero_levels_stay_distinct() {
    let m = LrMatrix::from_values(2, 1, vec![0.0, -0.0]);
    let cols = LrColumns::from_dense(&m).expect("two bitwise-distinct values");
    assert_eq!(cols.get(0, 0).to_bits(), 0.0f64.to_bits());
    assert_eq!(cols.get(1, 0).to_bits(), (-0.0f64).to_bits());
}
