//! The fresh solve reuses one bit-blaster and SAT instance per [`Solver`],
//! and keeps the state after a query's first residual conjunct resident
//! for the next query that starts with the same conjunct.
//!
//! Reuse is a pure speed lever: a query solved on an instance that has
//! already held other queries must see exactly the CNF, the search and the
//! model a brand-new solver would. These tests drive one long-lived solver
//! (with a private verdict cache, so every distinct query reaches the
//! fresh solve) through seeded query sequences and compare every answer,
//! and every per-query solver counter, against a new [`Solver`] per query.

use soft_smt::bitblast::BitBlaster;
use soft_smt::simplify::{propagate_equalities, Preprocessed};
use soft_smt::{SatResult, Solver, SolverBudget, SolverStats, Term};
use std::collections::HashSet;

const W: u32 = 8;
const VARS: [&str; 3] = ["reuse.x", "reuse.y", "reuse.z"];

/// splitmix64: deterministic stream from any seed.
struct Rng(u64);

impl Rng {
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

fn var(rng: &mut Rng) -> Term {
    Term::var(VARS[rng.below(3) as usize], W)
}

fn bv_term(rng: &mut Rng, depth: usize) -> Term {
    if depth == 0 || rng.below(3) == 0 {
        return if rng.below(2) == 0 {
            var(rng)
        } else {
            Term::bv_const(W, rng.below(256))
        };
    }
    match rng.below(8) {
        0 => bv_term(rng, depth - 1).bvand(bv_term(rng, depth - 1)),
        1 => bv_term(rng, depth - 1).bvor(bv_term(rng, depth - 1)),
        2 => bv_term(rng, depth - 1).bvxor(bv_term(rng, depth - 1)),
        3 => bv_term(rng, depth - 1).bvadd(bv_term(rng, depth - 1)),
        4 => bv_term(rng, depth - 1).bvsub(bv_term(rng, depth - 1)),
        5 => bv_term(rng, depth - 1).bvmul(bv_term(rng, depth - 1)),
        6 => self_selecting_mux(rng),
        _ => bv_term(rng, depth - 1).bvnot(),
    }
}

/// `ite(v[0] = 1, v or ~v, w)`: the selector literal is also bit 0 of the
/// then-branch, so the multiplexer's Tseitin clauses repeat a literal
/// (`v`) or contain a literal and its negation (`~v`).
fn self_selecting_mux(rng: &mut Rng) -> Term {
    let v = var(rng);
    let sel = v.clone().extract(0, 0).eq(Term::bv_const(1, 1));
    let then = if rng.below(2) == 0 { v } else { v.bvnot() };
    Term::ite_bv(sel, then, var(rng))
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

/// A sum of 16-bit products pinned to a constant: a few thousand clauses,
/// far more than any generated query, that exhausts a one-conflict
/// budget.
fn large_query(tag: &str, target: u64) -> Vec<Term> {
    let xs: Vec<Term> = (0..6)
        .map(|i| Term::var(format!("reuse.{tag}{i}"), 16))
        .collect();
    let mut sum = Term::bv_const(16, 0);
    for pair in xs.chunks(2) {
        sum = sum.bvadd(pair[0].clone().bvmul(pair[1].clone()));
    }
    vec![
        sum.eq(Term::bv_const(16, target)),
        xs[0].clone().ugt(Term::bv_const(16, 1)),
    ]
}

/// The per-query change of the counters the fresh solve drives.
fn delta(after: &SolverStats, before: &SolverStats) -> [u64; 5] {
    [
        after.cnf_clauses - before.cnf_clauses,
        after.cnf_vars - before.cnf_vars,
        after.sat_conflicts - before.sat_conflicts,
        after.sat_decisions - before.sat_decisions,
        after.sat_propagations - before.sat_propagations,
    ]
}

/// Solve `query` on `reused` and on a new solver under the same budget;
/// both must give the same result and the same per-query counters.
/// Returns the result and the number of CNF variables the query built.
fn check_both(
    reused: &mut Solver,
    query: &[Term],
    budget: SolverBudget,
    at: &str,
) -> (SatResult, u64) {
    reused.budget = budget;
    let before = reused.stats;
    let got = reused.check(query);
    let reused_delta = delta(&reused.stats, &before);

    let mut fresh = Solver::new();
    fresh.budget = budget;
    let want = fresh.check(query);
    let fresh_delta = delta(&fresh.stats, &SolverStats::default());

    assert_eq!(
        got, want,
        "{at}: reused solver's result differs from a new one's"
    );
    assert_eq!(
        reused_delta, fresh_delta,
        "{at}: [cnf_clauses, cnf_vars, conflicts, decisions, propagations] differ"
    );
    assert_eq!(
        reused.stats.cache_hits, 0,
        "{at}: a distinct query hit the cache"
    );
    (got, fresh_delta[1])
}

#[test]
fn reused_instance_matches_a_new_solver_per_query() {
    for seed in [7u64, 0x5EED_F00D] {
        let mut rng = Rng(seed);
        let mut reused = Solver::new();
        let mut asked: HashSet<Vec<String>> = HashSet::new();
        let (mut sat, mut unsat) = (0, 0);
        let mut mux_queries = 0;
        let mut q = 0;
        while q < 60 {
            let n = 1 + rng.below(3) as usize;
            let query: Vec<Term> = (0..n).map(|_| bool_term(&mut rng, 3)).collect();
            let mut key: Vec<String> = query.iter().map(|t| t.to_string()).collect();
            key.sort();
            key.dedup();
            if !asked.insert(key.clone()) {
                continue;
            }
            let at = format!("seed {seed:#x} query {q}");
            let (got, vars) = check_both(&mut reused, &query, SolverBudget::unlimited(), &at);
            if vars > 0 {
                match got {
                    SatResult::Sat(_) => sat += 1,
                    SatResult::Unsat => unsat += 1,
                    SatResult::Unknown => panic!("{at}: unlimited query ended Unknown"),
                }
                mux_queries += key.iter().any(|k| k.contains("ite")) as usize;
            }
            q += 1;
        }
        // The sequence must reach the SAT core with both verdicts and with
        // the self-selecting multiplexers, or the comparison is vacuous.
        assert!(
            sat > 0 && unsat > 0,
            "seed {seed:#x}: {sat} Sat, {unsat} Unsat"
        );
        assert!(
            mux_queries > 0,
            "seed {seed:#x}: no multiplexer reached the SAT core"
        );

        // A large query exhausting a one-conflict budget, then an
        // unlimited one, then a small query on the grown instance.
        let tag = format!("s{seed:x}_");
        let (got, big_vars) = check_both(
            &mut reused,
            &large_query(&tag, 0x1234),
            SolverBudget::conflicts(1),
            "large query, one conflict",
        );
        assert_eq!(
            got,
            SatResult::Unknown,
            "the large query must exhaust its budget"
        );
        let (got, _) = check_both(
            &mut reused,
            &large_query(&tag, 0x4321),
            SolverBudget::unlimited(),
            "large query, unlimited",
        );
        assert!(got.is_sat(), "the unlimited large query must decide Sat");
        let small = [
            Term::var(VARS[0], W).ult(Term::var(VARS[1], W)),
            Term::var(VARS[1], W).ult(Term::var(VARS[2], W)),
            Term::var(VARS[2], W).ult(Term::var(VARS[0], W)),
        ];
        let (got, small_vars) = check_both(
            &mut reused,
            &small,
            SolverBudget::unlimited(),
            "small after large",
        );
        assert_eq!(got, SatResult::Unsat, "a strict cycle is Unsat");
        assert!(
            0 < small_vars && small_vars < big_vars,
            "small query built {small_vars} vars, large {big_vars}"
        );
    }
}

/// The residual conjuncts `Solver::check` bit-blasts for `query`: the
/// canonical key after equality propagation, or `None` when
/// simplification decides the query.
fn residual(query: &[Term]) -> Option<Vec<Term>> {
    let mut key = query.to_vec();
    key.sort_unstable_by(Term::structural_cmp);
    key.dedup();
    match propagate_equalities(&key) {
        Preprocessed::Residual(r) => Some(r),
        _ => None,
    }
}

/// The number of level-0 units the fresh solve of `residual` learns
/// under `budget`, replayed on a new bit-blaster.
fn learned_units(residual: &[Term], budget: SolverBudget) -> usize {
    let mut bb: BitBlaster = BitBlaster::new();
    for t in residual {
        bb.assert_term(t);
    }
    let loaded = bb.sat.num_fixed();
    bb.sat.max_conflicts = budget.max_conflicts;
    bb.sat.solve();
    bb.sat.num_fixed() - loaded
}

/// A conjunct that costs the SAT search some conflicts: an 8-bit product
/// and sum pinned to a constant.
fn anchor(rng: &mut Rng) -> Term {
    let (x, y, z) = (var(rng), var(rng), var(rng));
    let lhs = x.bvmul(y).bvadd(z);
    let c = Term::bv_const(W, rng.below(256));
    if rng.below(2) == 0 {
        lhs.eq(c)
    } else {
        lhs.ult(c)
    }
}

#[test]
fn resident_first_conjunct_matches_a_new_solver_per_query() {
    // Blocks of queries that share one costly conjunct beside one or two
    // random ones; a fifth of them run under a one- or three-conflict
    // budget. A query whose first residual conjunct is the one the
    // previous fresh solve started with rolls back to it (a resident
    // hit); any other query resets and checkpoints (a miss).
    let (mut hits, mut misses) = (0, 0);
    let (mut sat_hits, mut unknown_hits, mut hits_after_units) = (0, 0, 0);
    let mut capped_before_hit = 0;
    for seed in [11u64, 0xC0FF_EE11, 0x5EED_0024] {
        let mut rng = Rng(seed);
        let mut reused = Solver::new();
        let mut asked: HashSet<Vec<String>> = HashSet::new();
        // The first conjunct the reused solver holds resident, and what
        // the fresh solve that put it there did: learned level-0 units,
        // ran under a conflict cap.
        let mut resident: Option<(u64, usize, bool)> = None;
        for block in 0..16 {
            let shared = anchor(&mut rng);
            for q in 0..6 {
                let n = 1 + rng.below(2) as usize;
                let mut query = vec![shared.clone()];
                query.extend((0..n).map(|_| bool_term(&mut rng, 2)));
                let mut key: Vec<String> = query.iter().map(|t| t.to_string()).collect();
                key.sort();
                key.dedup();
                if !asked.insert(key) {
                    continue;
                }
                let budget = match rng.below(10) {
                    0 => SolverBudget::conflicts(1),
                    1 => SolverBudget::conflicts(3),
                    _ => SolverBudget::unlimited(),
                };
                let at = format!("seed {seed:#x} block {block} query {q}");
                let (got, vars) = check_both(&mut reused, &query, budget, &at);
                if vars == 0 {
                    continue; // decided without the fresh solve
                }
                let r = residual(&query).expect("a fresh solve has a residual");
                let first = r[0].id();
                match resident {
                    Some((id, units, capped)) if id == first => {
                        hits += 1;
                        sat_hits += got.is_sat() as usize;
                        unknown_hits += (got == SatResult::Unknown) as usize;
                        hits_after_units += (units > 0) as usize;
                        capped_before_hit += capped as usize;
                    }
                    _ => misses += 1,
                }
                resident = Some((first, learned_units(&r, budget), !budget.is_unlimited()));
            }
        }
    }
    // Every kind of state a rollback must undo has to occur before some
    // hit, or the comparison is vacuous.
    let seen = [
        hits,
        misses,
        sat_hits,
        unknown_hits,
        hits_after_units,
        capped_before_hit,
    ];
    assert!(
        seen.iter().all(|&n| n > 0),
        "[hits, misses, Sat hits, Unknown hits, hits after learned units, \
         hits after a capped solve] = {seen:?}"
    );
}

#[test]
fn a_query_panicking_after_reset_leaves_no_stale_resident() {
    // The second query cannot be encoded (a bit-vector term asserted as
    // a formula), so it panics after the instance was reset for it. The
    // third query starts with the conjunct that was resident before the
    // panic; it must get a new solver's answer, not a rollback to the
    // checkpoint the reset dropped.
    let mut reused = Solver::new();
    let first = large_query("p", 1234);
    check_both(&mut reused, &first, SolverBudget::unlimited(), "before");
    let bad = Term::var("reuse.bad", W).bvadd(Term::var("reuse.c", W));
    let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        reused.check(&[bad]);
    }));
    assert!(panicked.is_err(), "the bit-vector assertion panics");
    let resident = residual(&first).unwrap()[0].id();
    let third = (0..64)
        .map(|k| {
            let mut q = first.clone();
            q.push(Term::var("reuse.p1", 16).ne(Term::bv_const(16, k)));
            q
        })
        .find(|q| residual(q).unwrap()[0].id() == resident)
        .expect("some extra conjunct sorts after the resident one");
    check_both(&mut reused, &third, SolverBudget::unlimited(), "after");
}
