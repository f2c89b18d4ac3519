//! Brute-force oracle tests: for formulas over two 4-bit variables, the
//! solver's verdict must match exhaustive enumeration of all 256
//! assignments. This is the strongest correctness check of the whole
//! simplify → bit-blast → CDCL pipeline, because the oracle shares no
//! code with the solving path (it only uses the evaluator). Formulas are
//! generated from fixed seeds, so every run checks the same corpus. The
//! last test runs a query *sequence* through one incremental memo.

use soft_smt::sat::SatOutcome;
use soft_smt::{Assignment, IncrementalSolver, SatResult, Solver, SolverBudget, SolverStats, Term};

const W: u32 = 4;

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

fn vx() -> Term {
    Term::var("or.x", W)
}
fn vy() -> Term {
    Term::var("or.y", W)
}

/// Random small terms over x, y.
fn bv_term(rng: &mut Rng, depth: usize) -> Term {
    if depth == 0 || rng.below(3) == 0 {
        return match rng.below(3) {
            0 => vx(),
            1 => vy(),
            _ => Term::bv_const(W, rng.below(16)),
        };
    }
    match rng.below(10) {
        0 => bv_term(rng, depth - 1).bvand(bv_term(rng, depth - 1)),
        1 => bv_term(rng, depth - 1).bvor(bv_term(rng, depth - 1)),
        2 => bv_term(rng, depth - 1).bvxor(bv_term(rng, depth - 1)),
        3 => bv_term(rng, depth - 1).bvadd(bv_term(rng, depth - 1)),
        4 => bv_term(rng, depth - 1).bvsub(bv_term(rng, depth - 1)),
        5 => bv_term(rng, depth - 1).bvmul(bv_term(rng, depth - 1)),
        6 => bv_term(rng, depth - 1).bvudiv(bv_term(rng, depth - 1)),
        7 => bv_term(rng, depth - 1).bvurem(bv_term(rng, depth - 1)),
        8 => bv_term(rng, depth - 1).bvnot(),
        _ => bv_term(rng, depth - 1).bvneg(),
    }
}

fn bool_term(rng: &mut Rng, depth: usize) -> Term {
    if depth == 0 || rng.below(3) == 0 {
        let a = bv_term(rng, 2);
        let b = bv_term(rng, 2);
        return match rng.below(5) {
            0 => a.eq(b),
            1 => a.ult(b),
            2 => a.ule(b),
            3 => a.slt(b),
            _ => a.sle(b),
        };
    }
    match rng.below(4) {
        0 => bool_term(rng, depth - 1).and(bool_term(rng, depth - 1)),
        1 => bool_term(rng, depth - 1).or(bool_term(rng, depth - 1)),
        2 => bool_term(rng, depth - 1).not(),
        _ => bool_term(rng, depth - 1).iff(bool_term(rng, depth - 1)),
    }
}

/// Enumerate all 256 assignments; return a satisfying one if any.
fn brute_force(t: &Term) -> Option<(u64, u64)> {
    for x in 0..16u64 {
        for y in 0..16u64 {
            let mut a = Assignment::new();
            a.set("or.x", x);
            a.set("or.y", y);
            if a.eval_bool(t) {
                return Some((x, y));
            }
        }
    }
    None
}

const CASES: u64 = 128;

/// Solver verdict == brute-force verdict, and models check out.
#[test]
fn solver_matches_brute_force() {
    for case in 0..CASES {
        let mut rng = Rng::new(0x0aac_0000 + case);
        let t = bool_term(&mut rng, 3);
        let expected = brute_force(&t);
        let mut solver = Solver::new();
        match solver.check_one(&t) {
            SatResult::Sat(m) => {
                assert!(
                    expected.is_some(),
                    "solver SAT but formula has no model: {t}"
                );
                assert!(m.eval_bool(&t), "returned model does not satisfy {t}");
            }
            SatResult::Unsat => {
                assert!(
                    expected.is_none(),
                    "solver UNSAT but {expected:?} satisfies {t}"
                );
            }
            SatResult::Unknown => panic!("unexpected Unknown without budget"),
        }
    }
}

/// Conjunction with the negation of a brute-force model must exclude
/// exactly that model, never flip the overall verdict spuriously.
#[test]
fn model_exclusion_is_consistent() {
    for case in 0..CASES {
        let mut rng = Rng::new(0x0aac_1000 + case);
        let t = bool_term(&mut rng, 3);
        if let Some((x, y)) = brute_force(&t) {
            let pin = vx()
                .eq(Term::bv_const(W, x))
                .and(vy().eq(Term::bv_const(W, y)));
            let mut solver = Solver::new();
            // The pinned model satisfies t.
            assert!(solver.check(&[t.clone(), pin.clone()]).is_sat());
            // t && !pin is SAT iff another model exists.
            let others = {
                let mut found = None;
                'outer: for xx in 0..16u64 {
                    for yy in 0..16u64 {
                        if (xx, yy) == (x, y) {
                            continue;
                        }
                        let mut a = Assignment::new();
                        a.set("or.x", xx);
                        a.set("or.y", yy);
                        if a.eval_bool(&t) {
                            found = Some(());
                            break 'outer;
                        }
                    }
                }
                found.is_some()
            };
            let verdict = solver.check(&[t.clone(), pin.not()]).is_sat();
            assert_eq!(verdict, others, "exclusion verdict mismatch for {t}");
        }
    }
}

const SEQUENCE_QUERIES: u64 = 300;

/// A few hundred conjunction queries, drawn from one seeded formula pool,
/// through a single solver with an incremental memo: every verdict
/// must match enumeration and every Sat model must satisfy its query.
/// The memo keeps its CNF across the queries and each probe loads only
/// its own cone of it, so this checks cross-query state against an
/// oracle that shares no code with the solver. The probes are also
/// checked on their own: since only their Unsat answers reach the
/// solver's verdicts, a probe that wrongly answers Sat would otherwise
/// go unseen.
#[test]
fn incremental_query_sequence_matches_brute_force() {
    let mut rng = Rng::new(0x0aac_2000);
    let pool: Vec<Term> = (0..64).map(|_| bool_term(&mut rng, 3)).collect();
    let mut solver = Solver::new();
    solver.enable_incremental();
    let mut probes = IncrementalSolver::new();
    let (mut sat, mut unsat) = (0, 0);
    for q in 0..SEQUENCE_QUERIES {
        let query: Vec<Term> = (0..1 + rng.below(3))
            .map(|_| pool[rng.below(pool.len() as u64) as usize].clone())
            .collect();
        let expected = brute_force(&query.iter().cloned().reduce(Term::and).expect("non-empty"));
        let probed = probes.probe(
            &query,
            &SolverBudget::unlimited(),
            &mut SolverStats::default(),
        );
        assert_eq!(
            probed == SatOutcome::Sat,
            expected.is_some(),
            "query {q}: probe said {probed:?}, brute force found {expected:?}"
        );
        match solver.check(&query) {
            SatResult::Sat(m) => {
                sat += 1;
                assert!(expected.is_some(), "query {q}: solver SAT, no model exists");
                for t in &query {
                    assert!(m.eval_bool(t), "query {q}: model does not satisfy {t}");
                }
            }
            SatResult::Unsat => {
                unsat += 1;
                assert!(
                    expected.is_none(),
                    "query {q}: solver UNSAT but {expected:?} is a model"
                );
            }
            SatResult::Unknown => panic!("query {q}: unexpected Unknown without budget"),
        }
    }
    // The sequence must exercise both verdicts, and the probes must
    // have published Unsat answers of their own.
    assert!(sat > 0 && unsat > 0, "sat={sat} unsat={unsat}");
    assert!(solver.stats.probe_unsat > 0, "{:?}", solver.stats);
}
