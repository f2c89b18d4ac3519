//! The seeded job sequence of the `serve_mix` workload.
//!
//! The sequence is a series of cycles. Cycle 0 solves one job per test
//! from cold, so every later hit and diff has a stored result to refer
//! to. Every later cycle holds the same mix — per test one `cold` job (a
//! new seed, so a full solve), two `diff` jobs and four `hit` jobs
//! (1/7, 2/7 and 4/7 of the jobs). Hits and diffs refer only to seeds
//! solved in earlier cycles, so with a barrier between cycles every one
//! of them finds its stored result.
//!
//! The order of (kind, test) within a cycle is fixed; the workload seed
//! draws the cold seeds, which earlier seed each hit or diff refers to,
//! and the diff fingerprints. Which jobs run concurrently — and with it
//! the daemon's peak memory and the cycle time — therefore does not
//! depend on the seed.

use soft_witness::{stream_seed, SplitMix64};

/// What a job asks of the daemon.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kind {
    /// An exact resubmission of a solved job: answered from the store.
    Hit,
    /// A solved job with agent A's fingerprint overridden: the daemon
    /// diff-seeds every pair from the stored run and runs no queries.
    Diff,
    /// A job with a new seed: a full solve.
    Cold,
}

impl Kind {
    /// Lowercase name for reports.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Hit => "hit",
            Kind::Diff => "diff",
            Kind::Cold => "cold",
        }
    }
}

/// One job of the sequence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Job {
    /// What the job exercises.
    pub kind: Kind,
    /// Interop test id.
    pub test: &'static str,
    /// Job seed (exploration strategy and witness fuzzer).
    pub seed: u64,
    /// Fingerprint override for agent A (diff jobs only).
    pub fp_a: Option<String>,
}

/// The kinds of each test's jobs in every cycle after the first, in
/// order: a cycle runs round `r` of every test before round `r + 1`.
const ROUNDS: [Kind; 7] = [
    Kind::Cold,
    Kind::Hit,
    Kind::Diff,
    Kind::Hit,
    Kind::Hit,
    Kind::Diff,
    Kind::Hit,
];

/// The seed of the cold job for `test_index` in `cycle`: distinct per
/// (cycle, test) and a pure function of the workload seed.
fn cold_seed(seed: u64, cycle: usize, test_index: usize) -> u64 {
    stream_seed(seed, cycle as u64, test_index as u64)
}

/// The jobs of `cycle` over `tests`, generated from the workload `seed`.
pub fn cycle(seed: u64, cycle: usize, tests: &[&'static str]) -> Vec<Job> {
    let cold = |t: usize, test: &'static str| Job {
        kind: Kind::Cold,
        test,
        seed: cold_seed(seed, cycle, t),
        fp_a: None,
    };
    if cycle == 0 {
        return tests
            .iter()
            .enumerate()
            .map(|(t, test)| cold(t, test))
            .collect();
    }
    let mut rng = SplitMix64::new(stream_seed(seed, cycle as u64, u64::MAX));
    let mut jobs = Vec::new();
    for kind in ROUNDS {
        for (t, &test) in tests.iter().enumerate() {
            if kind == Kind::Cold {
                jobs.push(cold(t, test));
                continue;
            }
            let solved = cold_seed(seed, rng.below(cycle as u64) as usize, t);
            jobs.push(Job {
                kind,
                test,
                seed: solved,
                fp_a: (kind == Kind::Diff).then(|| format!("{:016x}", rng.next_u64())),
            });
        }
    }
    jobs
}

#[cfg(test)]
mod tests {
    use super::*;

    const TESTS: [&str; 3] = ["packet_out", "queue_config", "concrete"];

    #[test]
    fn same_seed_gives_the_same_sequence() {
        for c in 0..4 {
            assert_eq!(cycle(42, c, &TESTS), cycle(42, c, &TESTS));
        }
        assert_ne!(cycle(42, 2, &TESTS), cycle(43, 2, &TESTS));
        assert_ne!(cycle(42, 2, &TESTS), cycle(42, 3, &TESTS));
    }

    #[test]
    fn the_order_of_kinds_and_tests_does_not_depend_on_the_seed() {
        let shape = |seed| -> Vec<(Kind, &str)> {
            cycle(seed, 3, &TESTS)
                .iter()
                .map(|j| (j.kind, j.test))
                .collect()
        };
        assert_eq!(shape(1), shape(2));
    }

    #[test]
    fn first_cycle_solves_each_test_once() {
        let jobs = cycle(7, 0, &TESTS);
        assert_eq!(jobs.len(), TESTS.len());
        assert!(jobs.iter().all(|j| j.kind == Kind::Cold));
    }

    #[test]
    fn later_cycles_hold_the_fixed_mix_over_solved_seeds() {
        for c in 1..6 {
            let jobs = cycle(7, c, &TESTS);
            for (t, test) in TESTS.iter().enumerate() {
                let count = |k: Kind| {
                    jobs.iter()
                        .filter(|j| j.kind == k && j.test == *test)
                        .count()
                };
                assert_eq!((count(Kind::Cold), count(Kind::Diff)), (1, 2));
                assert_eq!(count(Kind::Hit), 4);
                let earlier: Vec<u64> = (0..c).map(|k| cold_seed(7, k, t)).collect();
                for j in jobs.iter().filter(|j| j.test == *test) {
                    match j.kind {
                        Kind::Cold => assert_eq!(j.seed, cold_seed(7, c, t)),
                        _ => assert!(
                            earlier.contains(&j.seed),
                            "{j:?} refers to an unsolved seed"
                        ),
                    }
                }
            }
            let overrides: std::collections::HashSet<_> =
                jobs.iter().filter_map(|j| j.fp_a.as_ref()).collect();
            assert_eq!(
                overrides.len(),
                TESTS.len() * 2,
                "diff overrides are unique"
            );
        }
    }
}
