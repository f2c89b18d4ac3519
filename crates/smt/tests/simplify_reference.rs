//! Differential test of the equality-propagation preprocessor.
//!
//! `propagate_equalities` refutes clashing `var == const` bindings during
//! the harvest, and `substitute` returns subterms that hold none of the
//! bound variables unchanged. Both shortcuts must be invisible: this file
//! keeps a reference copy of the plain algorithm (harvest every binding,
//! rebuild every node through the smart constructors) and requires
//! identical results on seeded random conjunctions, built the way
//! `oracle.rs` builds its formulas plus `var == const` pins that bind,
//! chain and clash.

use soft_smt::fxhash::FxHashMap;
use soft_smt::simplify::{conjuncts, propagate_equalities, substitute, Preprocessed};
use soft_smt::{BvBinOp, BvUnaryOp, CmpOp, Op, Term};
use std::collections::HashMap;

const W: u32 = 4;
const VARS: [&str; 4] = ["sr.w", "sr.x", "sr.y", "sr.z"];

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
    Term::var(VARS[rng.below(VARS.len() as u64) as usize], W)
}

fn bv_term(rng: &mut Rng, depth: usize) -> Term {
    if depth == 0 || rng.below(3) == 0 {
        return if rng.below(3) == 0 {
            Term::bv_const(W, rng.below(16))
        } else {
            var(rng)
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

/// One conjunction: random formulas mixed with `var == const` pins and
/// `var == expr` chains.
fn conjunction(rng: &mut Rng) -> Vec<Term> {
    (0..1 + rng.below(6))
        .map(|_| match rng.below(4) {
            0 => var(rng).eq(Term::bv_const(W, rng.below(16))),
            1 => var(rng).eq(bv_term(rng, 2)),
            _ => bool_term(rng, 3),
        })
        .collect()
}

// ------------------------------------------------ the reference algorithm

fn ref_substitute(t: &Term, map: &HashMap<Term, Term>) -> Term {
    fn rec(t: &Term, map: &HashMap<Term, Term>, memo: &mut HashMap<Term, Term>) -> Term {
        if let Some(r) = map.get(t).or_else(|| memo.get(t)) {
            return r.clone();
        }
        let mut s = |c: &Term| rec(c, map, memo);
        let result = match t.op() {
            Op::BvConst { .. } | Op::BvVar { .. } | Op::BoolConst(_) => t.clone(),
            Op::BvUnary(BvUnaryOp::Not, a) => s(a).bvnot(),
            Op::BvUnary(BvUnaryOp::Neg, a) => s(a).bvneg(),
            Op::BvBin(op, a, b) => {
                let (a, b) = (s(a), s(b));
                match op {
                    BvBinOp::And => a.bvand(b),
                    BvBinOp::Or => a.bvor(b),
                    BvBinOp::Xor => a.bvxor(b),
                    BvBinOp::Add => a.bvadd(b),
                    BvBinOp::Sub => a.bvsub(b),
                    BvBinOp::Mul => a.bvmul(b),
                    BvBinOp::UDiv => a.bvudiv(b),
                    BvBinOp::URem => a.bvurem(b),
                    BvBinOp::Shl => a.bvshl(b),
                    BvBinOp::Lshr => a.bvlshr(b),
                    BvBinOp::Ashr => a.bvashr(b),
                }
            }
            Op::BvConcat(h, l) => s(h).concat(s(l)),
            Op::BvExtract { hi, lo, arg } => s(arg).extract(*hi, *lo),
            Op::BvIte(c, a, b) => Term::ite_bv(s(c), s(a), s(b)),
            Op::Not(a) => s(a).not(),
            Op::And(a, b) => s(a).and(s(b)),
            Op::Or(a, b) => s(a).or(s(b)),
            Op::Implies(a, b) => s(a).implies(s(b)),
            Op::Iff(a, b) => s(a).iff(s(b)),
            Op::Cmp(op, a, b) => {
                let (a, b) = (s(a), s(b));
                match op {
                    CmpOp::Eq => a.eq(b),
                    CmpOp::Ult => a.ult(b),
                    CmpOp::Ule => a.ule(b),
                    CmpOp::Slt => a.slt(b),
                    CmpOp::Sle => a.sle(b),
                }
            }
        };
        memo.insert(t.clone(), result.clone());
        result
    }
    rec(t, map, &mut HashMap::new())
}

fn ref_propagate(assertions: &[Term]) -> Preprocessed {
    let mut todo: Vec<Term> = assertions.iter().flat_map(conjuncts).collect();
    for _round in 0..8 {
        let mut map: HashMap<Term, Term> = HashMap::new();
        for c in &todo {
            if let Op::Cmp(CmpOp::Eq, a, b) = c.op() {
                if a.as_var().is_some() && b.is_const() && !map.contains_key(a) {
                    map.insert(a.clone(), b.clone());
                } else if b.as_var().is_some() && a.is_const() && !map.contains_key(b) {
                    map.insert(b.clone(), a.clone());
                }
            }
        }
        if map.is_empty() {
            break;
        }
        let mut next: Vec<Term> = Vec::with_capacity(todo.len());
        let mut changed = false;
        for c in &todo {
            let is_binding = match c.op() {
                Op::Cmp(CmpOp::Eq, a, b) => (map.get(a) == Some(b)) || (map.get(b) == Some(a)),
                _ => false,
            };
            let s = if is_binding {
                c.clone()
            } else {
                ref_substitute(c, &map)
            };
            if s != *c {
                changed = true;
            }
            match s.as_bool_const() {
                Some(false) => return Preprocessed::TriviallyFalse,
                Some(true) => {}
                None => next.extend(conjuncts(&s)),
            }
        }
        todo = next;
        if !changed {
            break;
        }
    }
    if todo.is_empty() {
        Preprocessed::TriviallyTrue
    } else {
        Preprocessed::Residual(todo)
    }
}

// ------------------------------------------------------------------ tests

#[test]
fn propagate_equalities_matches_reference() {
    let mut outcomes = [0usize; 3];
    for case in 0..600u64 {
        let mut rng = Rng(0x51e7_0000 + case);
        let query = conjunction(&mut rng);
        let got = propagate_equalities(&query);
        assert_eq!(got, ref_propagate(&query), "case {case}: {query:?}");
        outcomes[match got {
            Preprocessed::TriviallyFalse => 0,
            Preprocessed::TriviallyTrue => 1,
            Preprocessed::Residual(_) => 2,
        }] += 1;
    }
    assert!(
        outcomes.iter().all(|&n| n > 0),
        "every outcome must occur: {outcomes:?}"
    );
}

#[test]
fn substitute_matches_reference() {
    for case in 0..600u64 {
        let mut rng = Rng(0x5b57_0000 + case);
        let t = bool_term(&mut rng, 4);
        let mut map = FxHashMap::default();
        for _ in 0..rng.below(3) {
            map.insert(var(&mut rng), Term::bv_const(W, rng.below(16)));
        }
        let std_map: HashMap<Term, Term> = map.clone().into_iter().collect();
        assert_eq!(
            substitute(&t, &map),
            ref_substitute(&t, &std_map),
            "case {case}: {t}"
        );
    }
}
