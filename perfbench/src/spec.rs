//! The workloads and their seeded job streams.

/// One workload: a study shape, a daemon deployment and a client mix.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// Panel width of the generated study.
    pub snps: usize,
    pub cases: usize,
    pub reference: usize,
    /// Federation size G and collusion tolerance f.
    pub gdos: usize,
    pub collusion: usize,
    /// `--workers` per daemon.
    pub workers: usize,
    /// `--shards` (1 = unsharded).
    pub shards: u32,
    /// Ledger mirrors next to the primary (`--ledger-replicas`).
    pub replicas: usize,
    /// Replica tracks (0 = one plain `serve`, N = N `serve --track-id`).
    pub tracks: usize,
    /// Closed-loop clients, never more than the machine's cores.
    pub clients: usize,
    /// SNPs per job window.
    pub window: u32,
}

const SMALL: Workload = Workload {
    name: "small_jobs",
    snps: 1_024,
    cases: 2_000,
    reference: 1_755,
    gdos: 3,
    collusion: 1,
    workers: 2,
    shards: 1,
    replicas: 2,
    tracks: 0,
    clients: 2,
    window: 16,
};

pub const WORKLOADS: [Workload; 3] = [
    SMALL,
    Workload {
        name: "fleet",
        workers: 1,
        tracks: 2,
        ..SMALL
    },
    Workload {
        name: "small_sharded",
        workers: 1,
        shards: 2,
        replicas: 0,
        clients: 1,
        window: 128,
        ..SMALL
    },
];

/// Seed of the study every run of a shape serves. The study is fixed so
/// that runs with different `--seed`s differ only in their job streams:
/// a fresh cohort per seed moved the released-set sizes, and with them
/// traffic and LR cost, by more than the run-to-run noise.
pub const STUDY_SEED: u64 = 1;

#[must_use]
pub fn workload(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

impl Workload {
    /// Cache key of the generated study: workloads of one shape share it.
    #[must_use]
    pub fn study_key(&self) -> String {
        format!(
            "{}x{}x{}-s{STUDY_SEED}",
            self.snps, self.cases, self.reference
        )
    }

    /// Whether commits follow dispatch strictly one job at a time, so
    /// every record's seed is the union of *all* records before it.
    #[must_use]
    pub fn serial_commits(&self) -> bool {
        self.workers == 1 && self.tracks == 0
    }

    /// Daemon processes the workload runs.
    #[must_use]
    pub fn daemons(&self) -> usize {
        self.tracks.max(1)
    }
}

/// SplitMix64: a small, fast, seedable generator for the job stream.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..bound` (`bound` > 0).
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }
}

/// The panel of job `index` in the workload's stream for `seed`: a
/// contiguous window of `window` SNP ids starting uniformly over the
/// panel, so windows overlap and later jobs are seeded with earlier
/// releases.
#[must_use]
pub fn job_panel(w: &Workload, seed: u64, index: u64) -> Vec<u32> {
    let mut rng = SplitMix::new(seed ^ 0x6a6f_6273 ^ index.wrapping_mul(0x2545_f491_4f6c_dd1d));
    let start = rng.below(w.snps as u64 - u64::from(w.window) + 1) as u32;
    (start..start + w.window).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::valid_name;

    #[test]
    fn workload_names_are_valid_and_unique() {
        for (i, w) in WORKLOADS.iter().enumerate() {
            assert!(valid_name(w.name));
            assert!(WORKLOADS[..i].iter().all(|o| o.name != w.name));
            assert!(w.clients <= 2 && w.clients >= 1);
        }
    }

    #[test]
    fn job_stream_is_a_function_of_the_seed() {
        for w in WORKLOADS {
            for i in 0..50 {
                let p = job_panel(&w, 7, i);
                assert_eq!(p, job_panel(&w, 7, i));
                assert_eq!(p.len(), w.window as usize);
                assert!(*p.last().unwrap() < w.snps as u32);
            }
            let a: Vec<_> = (0..20).map(|i| job_panel(&w, 1, i)).collect();
            let b: Vec<_> = (0..20).map(|i| job_panel(&w, 2, i)).collect();
            assert_ne!(a, b, "{}", w.name);
        }
    }
}
