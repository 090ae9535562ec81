//! Order statistics, failure accounting and metric-name rules.

/// The `q`-quantile (0 ≤ q ≤ 1) of `samples` by linear interpolation
/// between the closest ranks (the "type 7" rule of R and NumPy).
/// `None` for an empty sample.
#[must_use]
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = (sorted.len() - 1) as f64 * q.clamp(0.0, 1.0);
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64))
}

/// The median of `samples`.
#[must_use]
pub fn median(samples: &[f64]) -> Option<f64> {
    quantile(samples, 0.5)
}

/// Fewest samples that must lie strictly beyond a tail percentile for
/// it to be reported.
pub const MIN_BEYOND: usize = 10;

/// The `q`-quantile, only when at least [`MIN_BEYOND`] samples lie
/// strictly above it; otherwise the sample cannot resolve that tail.
#[must_use]
pub fn tail_quantile(samples: &[f64], q: f64) -> Option<f64> {
    let value = quantile(samples, q)?;
    let beyond = samples.iter().filter(|&&s| s > value).count();
    (beyond >= MIN_BEYOND).then_some(value)
}

/// The median, over `blocks` consecutive near-equal blocks of
/// `samples` (in the order they were taken), of each block's
/// `q`-quantile. A contention burst from outside the program slows only
/// the jobs of the blocks it overlaps, so it moves this figure far less
/// than the run-wide quantile, whose tail it fills. `None` when there
/// are fewer samples than blocks.
#[must_use]
pub fn blocked_quantile(samples: &[f64], q: f64, blocks: usize) -> Option<f64> {
    if blocks == 0 || samples.len() < blocks {
        return None;
    }
    let per_block: Vec<f64> = (0..blocks)
        .filter_map(|b| {
            let (lo, hi) = (b * samples.len() / blocks, (b + 1) * samples.len() / blocks);
            quantile(&samples[lo..hi], q)
        })
        .collect();
    median(&per_block)
}

/// Smallest, median and largest of `samples`, for provenance.
#[must_use]
pub fn spread(samples: &[f64]) -> (f64, f64, f64) {
    (
        quantile(samples, 0.0).unwrap_or(0.0),
        median(samples).unwrap_or(0.0),
        quantile(samples, 1.0).unwrap_or(0.0),
    )
}

/// Every way a submitted job can count against the run.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    /// Jobs the load generator submitted.
    pub attempted: u64,
    /// Jobs the daemon answered with a failure verdict, or whose
    /// request failed at the client.
    pub failed: u64,
    /// Jobs the daemon refused at admission.
    pub rejected: u64,
    /// Failed correctness checks (per job, or per ledger copy).
    pub check_failures: u64,
}

impl Tally {
    /// Everything that counts as a failure.
    #[must_use]
    pub fn failures(&self) -> u64 {
        self.failed + self.rejected + self.check_failures
    }

    /// Failures ÷ attempted; 1 when nothing was attempted, since a run
    /// that submitted nothing proved nothing.
    #[must_use]
    pub fn failure_ratio(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            self.failures() as f64 / self.attempted as f64
        }
    }
}

/// Whether `name` is a valid metric or workload name: starts with a
/// letter or digit, at most 64 of `[A-Za-z0-9_.-]`.
#[must_use]
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is a valid unit: 1 to 16 of `[A-Za-z0-9_/%.-]`.
#[must_use]
pub fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_between_ranks() {
        let s = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&s, 0.0), Some(1.0));
        assert_eq!(quantile(&s, 1.0), Some(4.0));
        assert_eq!(median(&s), Some(2.5));
        assert_eq!(quantile(&s, 0.25), Some(1.75));
        assert_eq!(median(&[7.0]), Some(7.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_inclusive_rule() {
        // statistics.quantiles([1..=10], n=4, method="inclusive") = [3.25, 5.5, 7.75]
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantile(&s, 0.25), Some(3.25));
        assert_eq!(quantile(&s, 0.5), Some(5.5));
        assert_eq!(quantile(&s, 0.75), Some(7.75));
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 180 samples: p95 sits at rank 171.05, leaving 9 samples above it.
        let short: Vec<f64> = (1..=180).map(f64::from).collect();
        let beyond = |s: &[f64]| {
            let p = quantile(s, 0.95).unwrap();
            s.iter().filter(|&&x| x > p).count()
        };
        assert_eq!(beyond(&short), 9);
        assert_eq!(tail_quantile(&short, 0.95), None);
        // 200 samples: p95 = 190.05, with exactly 10 samples above it.
        let enough: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(beyond(&enough), 10);
        assert!((tail_quantile(&enough, 0.95).unwrap() - 190.05).abs() < 1e-9);
        // Ties at the top do not count as beyond.
        let tied = vec![1.0; 500];
        assert_eq!(tail_quantile(&tied, 0.95), None);
        assert_eq!(tail_quantile(&[], 0.95), None);
    }

    #[test]
    fn blocked_quantile_takes_the_median_block() {
        // Three blocks of 1..=10, the middle one slowed tenfold: the
        // run-wide p95 lands in the slow block, the blocked one does not.
        let mut s: Vec<f64> = (0..3).flat_map(|_| (1..=10).map(f64::from)).collect();
        for x in &mut s[10..20] {
            *x *= 10.0;
        }
        assert!((blocked_quantile(&s, 0.95, 3).unwrap() - 9.55).abs() < 1e-9);
        assert!(quantile(&s, 0.95).unwrap() > 50.0);
        // One block is the plain quantile; uneven splits cover every sample.
        assert_eq!(blocked_quantile(&s, 0.5, 1), quantile(&s, 0.5));
        let seven: Vec<f64> = (1..=7).map(f64::from).collect();
        assert_eq!(blocked_quantile(&seven, 1.0, 3), Some(4.0));
        assert_eq!(blocked_quantile(&seven, 0.95, 8), None);
        assert_eq!(blocked_quantile(&[], 0.95, 0), None);
    }

    #[test]
    fn failures_add_every_kind() {
        let t = Tally {
            attempted: 40,
            failed: 1,
            rejected: 2,
            check_failures: 1,
        };
        assert_eq!(t.failures(), 4);
        assert!((t.failure_ratio() - 0.1).abs() < 1e-12);
        let clean = Tally {
            attempted: 5,
            ..Tally::default()
        };
        assert_eq!(clean.failure_ratio(), 0.0);
        assert_eq!(Tally::default().failure_ratio(), 1.0);
    }

    #[test]
    fn metric_names_follow_the_charset() {
        for ok in [
            "setup_s",
            "core.ld.us_per_message",
            "obs.trace_coverage",
            "9x",
            "a-b",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in ["", "_x", ".x", "a b", "a/b", "ms{x}", "é", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
        for ok in ["ms", "s", "1/s", "count", "B", "ratio", "%"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "m s", "seconds-per-job-x", "µs"] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }

    #[test]
    fn spread_reports_min_median_max() {
        assert_eq!(spread(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
    }
}
