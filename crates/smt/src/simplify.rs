//! Conjunction-level simplification.
//!
//! The smart constructors on [`Term`] already do local rewriting;
//! this module adds cross-conjunct reasoning that matters for SOFT's
//! workload: path conditions are big conjunctions in which many conjuncts
//! pin a message byte to a constant (`m0.b9 == 4`). Propagating those
//! equalities into the remaining conjuncts lets most infeasibility checks
//! resolve without ever bit-blasting.

use crate::fxhash::{FxHashMap, FxHashSet};
use crate::term::{Op, Term};

/// Flatten nested `And` nodes into a conjunct list.
pub fn conjuncts(t: &Term) -> Vec<Term> {
    let mut out = Vec::new();
    let mut stack = vec![t.clone()];
    while let Some(t) = stack.pop() {
        match t.op() {
            Op::And(a, b) => {
                stack.push(b.clone());
                stack.push(a.clone());
            }
            Op::BoolConst(true) => {}
            _ => out.push(t),
        }
    }
    out
}

/// Build a right-leaning conjunction of `terms` (empty = true).
pub fn mk_and(terms: &[Term]) -> Term {
    let mut acc = Term::bool_true();
    for t in terms.iter().rev() {
        acc = t.clone().and(acc);
    }
    acc
}

/// Build a *balanced* disjunction tree, as SOFT's grouping tool does
/// (§4.2: "we group path conditions by building a balanced binary tree
/// minimizing the depth of nested expressions").
pub fn mk_or_balanced(terms: &[Term]) -> Term {
    match terms.len() {
        0 => Term::bool_false(),
        1 => terms[0].clone(),
        n => {
            let (l, r) = terms.split_at(n / 2);
            mk_or_balanced(l).or(mk_or_balanced(r))
        }
    }
}

/// Build a right-leaning (linear) disjunction; kept for the ablation bench
/// comparing balanced vs. linear grouping trees.
pub fn mk_or_linear(terms: &[Term]) -> Term {
    let mut acc = Term::bool_false();
    for t in terms.iter().rev() {
        acc = t.clone().or(acc);
    }
    acc
}

/// Substitute every occurrence of the map's keys (which must be variables or
/// arbitrary subterms) by their values. Sorts must match.
///
/// A subterm whose variable signature misses every key's is returned as
/// is: rebuilding it through the smart constructors would give back the
/// same interned node, since every node they intern is already in their
/// normal form.
pub fn substitute(t: &Term, map: &FxHashMap<Term, Term>) -> Term {
    subst_rec(t, map, key_signature(map), &mut FxHashMap::default())
}

/// The union of the variable signatures of `map`'s keys.
fn key_signature(map: &FxHashMap<Term, Term>) -> u64 {
    map.keys().fold(0, |sig, k| {
        // A key without variables (a constant subterm) can occur anywhere.
        sig | if k.var_sig() == 0 {
            u64::MAX
        } else {
            k.var_sig()
        }
    })
}

fn subst_rec(
    t: &Term,
    map: &FxHashMap<Term, Term>,
    keys: u64,
    memo: &mut FxHashMap<Term, Term>,
) -> Term {
    if t.var_sig() & keys == 0 {
        return t.clone();
    }
    if let Some(r) = map.get(t) {
        return r.clone();
    }
    if let Some(r) = memo.get(t) {
        return r.clone();
    }
    let result = match t.op() {
        Op::BvConst { .. } | Op::BvVar { .. } | Op::BoolConst(_) => t.clone(),
        Op::BvUnary(op, a) => {
            let a = subst_rec(a, map, keys, memo);
            match op {
                crate::term::BvUnaryOp::Not => a.bvnot(),
                crate::term::BvUnaryOp::Neg => a.bvneg(),
            }
        }
        Op::BvBin(op, a, b) => {
            let a = subst_rec(a, map, keys, memo);
            let b = subst_rec(b, map, keys, memo);
            use crate::term::BvBinOp::*;
            match op {
                And => a.bvand(b),
                Or => a.bvor(b),
                Xor => a.bvxor(b),
                Add => a.bvadd(b),
                Sub => a.bvsub(b),
                Mul => a.bvmul(b),
                UDiv => a.bvudiv(b),
                URem => a.bvurem(b),
                Shl => a.bvshl(b),
                Lshr => a.bvlshr(b),
                Ashr => a.bvashr(b),
            }
        }
        Op::BvConcat(h, l) => {
            let h = subst_rec(h, map, keys, memo);
            let l = subst_rec(l, map, keys, memo);
            h.concat(l)
        }
        Op::BvExtract { hi, lo, arg } => {
            let a = subst_rec(arg, map, keys, memo);
            a.extract(*hi, *lo)
        }
        Op::BvIte(c, a, b) => {
            let c = subst_rec(c, map, keys, memo);
            let a = subst_rec(a, map, keys, memo);
            let b = subst_rec(b, map, keys, memo);
            Term::ite_bv(c, a, b)
        }
        Op::Not(a) => subst_rec(a, map, keys, memo).not(),
        Op::And(a, b) => {
            let a = subst_rec(a, map, keys, memo);
            let b = subst_rec(b, map, keys, memo);
            a.and(b)
        }
        Op::Or(a, b) => {
            let a = subst_rec(a, map, keys, memo);
            let b = subst_rec(b, map, keys, memo);
            a.or(b)
        }
        Op::Implies(a, b) => {
            let a = subst_rec(a, map, keys, memo);
            let b = subst_rec(b, map, keys, memo);
            a.implies(b)
        }
        Op::Iff(a, b) => {
            let a = subst_rec(a, map, keys, memo);
            let b = subst_rec(b, map, keys, memo);
            a.iff(b)
        }
        Op::Cmp(op, a, b) => {
            let a = subst_rec(a, map, keys, memo);
            let b = subst_rec(b, map, keys, memo);
            use crate::term::CmpOp::*;
            match op {
                Eq => a.eq(b),
                Ult => a.ult(b),
                Ule => a.ule(b),
                Slt => a.slt(b),
                Sle => a.sle(b),
            }
        }
    };
    memo.insert(t.clone(), result.clone());
    result
}

/// Select the conjuncts relevant to `target`: those sharing variables with
/// it, transitively (KLEE's "independent solver" slicing). The returned
/// slice is equisatisfiable with the full conjunction *for queries about
/// `target`* as long as the full conjunction is known satisfiable — exactly
/// the situation of a branch-feasibility check, where the current path
/// condition is satisfiable by construction.
///
/// Variables are compared by interning id, which within a process names a
/// variable as its name does. A conjunct's variables are only collected
/// once its signature meets the slice's: a conjunct sharing no signature
/// bit shares no variable.
pub fn relevant_slice(conjuncts: &[Term], target: &Term) -> Vec<Term> {
    let mut vars: FxHashSet<u64> = crate::metrics::variable_ids(target).into_iter().collect();
    let mut sig = target.var_sig();
    let mut conj_vars: Vec<Option<Vec<u64>>> = vec![None; conjuncts.len()];
    let mut included = vec![false; conjuncts.len()];
    loop {
        let mut changed = false;
        for (i, c) in conjuncts.iter().enumerate() {
            if included[i] || c.var_sig() & sig == 0 {
                continue;
            }
            let cv = conj_vars[i].get_or_insert_with(|| crate::metrics::variable_ids(c));
            if cv.iter().any(|v| vars.contains(v)) {
                included[i] = true;
                vars.extend(cv.iter().copied());
                sig |= c.var_sig();
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    conjuncts
        .iter()
        .zip(&included)
        .filter(|(_, inc)| **inc)
        .map(|(c, _)| c.clone())
        .collect()
}

/// Result of conjunction preprocessing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Preprocessed {
    /// The conjunction is trivially unsatisfiable.
    TriviallyFalse,
    /// The conjunction is trivially valid.
    TriviallyTrue,
    /// Residual conjuncts after equality propagation.
    Residual(Vec<Term>),
}

/// Propagate `var == const` conjuncts through the conjunction to a fixpoint
/// (bounded), returning a simplified equisatisfiable residual.
pub fn propagate_equalities(assertions: &[Term]) -> Preprocessed {
    let mut todo: Vec<Term> = assertions.iter().flat_map(conjuncts).collect();
    for _round in 0..8 {
        // Harvest var == const bindings. A variable bound to two different
        // constants refutes the conjunction outright: substituting the first
        // binding into the second would fold it to false anyway.
        let mut map: FxHashMap<Term, Term> = FxHashMap::default();
        for c in &todo {
            if let Op::Cmp(crate::term::CmpOp::Eq, a, b) = c.op() {
                let (var, val) = if a.as_var().is_some() && b.is_const() {
                    (a, b)
                } else if b.as_var().is_some() && a.is_const() {
                    (b, a)
                } else {
                    continue;
                };
                match map.get(var) {
                    None => {
                        map.insert(var.clone(), val.clone());
                    }
                    Some(bound) if bound != val => return Preprocessed::TriviallyFalse,
                    Some(_) => {}
                }
            }
        }
        if map.is_empty() {
            break;
        }
        let mut next: Vec<Term> = Vec::with_capacity(todo.len());
        let mut changed = false;
        // One substitution memo for the round: conjuncts share subterms.
        let keys = key_signature(&map);
        let mut memo: FxHashMap<Term, Term> = FxHashMap::default();
        for c in &todo {
            // Keep the binding equations themselves (they define the model).
            let is_binding = match c.op() {
                Op::Cmp(crate::term::CmpOp::Eq, a, b) => {
                    (map.get(a) == Some(b)) || (map.get(b) == Some(a))
                }
                _ => false,
            };
            let s = if is_binding {
                c.clone()
            } else {
                subst_rec(c, &map, keys, &mut memo)
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conjuncts_flattens() {
        let a = Term::var("sf.a", 8).eq(Term::bv_const(8, 1));
        let b = Term::var("sf.b", 8).eq(Term::bv_const(8, 2));
        let c = Term::var("sf.c", 8).eq(Term::bv_const(8, 3));
        let t = a.clone().and(b.clone()).and(c.clone());
        assert_eq!(conjuncts(&t), vec![a, b, c]);
    }

    #[test]
    fn mk_and_of_empty_is_true() {
        assert_eq!(mk_and(&[]), Term::bool_true());
    }

    #[test]
    fn balanced_or_has_logarithmic_depth() {
        let terms: Vec<Term> = (0..64)
            .map(|i| Term::var(format!("or{i}"), 8).eq(Term::bv_const(8, i)))
            .collect();
        let balanced = mk_or_balanced(&terms);
        let linear = mk_or_linear(&terms);
        let db = crate::metrics::depth(&balanced);
        let dl = crate::metrics::depth(&linear);
        assert!(db < dl, "balanced depth {db} should beat linear {dl}");
        assert!(db <= 9, "depth {db} too deep for 64 leaves");
    }

    #[test]
    fn substitute_replaces_vars() {
        let x = Term::var("sub.x", 8);
        let y = Term::var("sub.y", 8);
        let e = x.clone().bvadd(y.clone()).eq(Term::bv_const(8, 10));
        let mut m = FxHashMap::default();
        m.insert(x, Term::bv_const(8, 4));
        let s = substitute(&e, &m);
        assert_eq!(s, y.eq(Term::bv_const(8, 6)));
    }

    /// The names of the variables occurring in `t`, sorted and deduped.
    fn variables(t: &Term) -> Vec<String> {
        let mut seen = std::collections::HashSet::new();
        let mut out = Vec::new();
        let mut stack = vec![t.clone()];
        while let Some(t) = stack.pop() {
            if !seen.insert(t.id()) {
                continue;
            }
            if let Some((name, _)) = t.as_var() {
                out.push(name.to_string());
            }
            stack.extend(t.op().children().cloned());
        }
        out.sort();
        out.dedup();
        out
    }

    /// The slice as computed before slicing by variable ids: variable
    /// names, collected for every conjunct up front. Oracle for
    /// [`relevant_slice`].
    fn relevant_slice_by_name(conjuncts: &[Term], target: &Term) -> Vec<Term> {
        use std::collections::HashSet;
        let mut vars: HashSet<String> = variables(target).into_iter().collect();
        let conj_vars: Vec<Vec<String>> = conjuncts.iter().map(variables).collect();
        let mut included = vec![false; conjuncts.len()];
        loop {
            let mut changed = false;
            for (i, cv) in conj_vars.iter().enumerate() {
                if included[i] {
                    continue;
                }
                if cv.iter().any(|v| vars.contains(v)) {
                    included[i] = true;
                    for v in cv {
                        vars.insert(v.clone());
                    }
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        conjuncts
            .iter()
            .zip(&included)
            .filter(|(_, inc)| **inc)
            .map(|(c, _)| c.clone())
            .collect()
    }

    #[test]
    fn id_slice_matches_name_slice_on_random_conjunctions() {
        // splitmix64: a seeded, dependency-free stream.
        let mut state = 0x51ce_u64;
        let mut below = |n: u64| {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) % n
        };
        // More variables than signature bits, so signatures collide and
        // the prefilter's false positives are exercised too.
        let pool: Vec<Term> = (0..96).map(|i| Term::var(format!("rsl.v{i}"), 8)).collect();
        let mut sliced = 0;
        for _ in 0..400 {
            // Conjuncts over one to three variables drawn from a window of
            // the pool, so chains of shared variables form.
            let base = below(80) as usize;
            let n = 1 + below(12) as usize;
            let mut conjunct = || {
                let x = &pool[base + below(16) as usize];
                let k = Term::bv_const(8, below(256));
                match below(3) {
                    0 => x.clone().ult(k),
                    1 => {
                        let y = &pool[base + below(16) as usize];
                        x.clone().bvadd(y.clone()).eq(k).not()
                    }
                    _ => {
                        let y = &pool[below(96) as usize];
                        let z = &pool[base + below(16) as usize];
                        x.clone().bvxor(y.clone()).ule(z.clone())
                    }
                }
            };
            let conjs: Vec<Term> = (0..n).map(|_| conjunct()).collect();
            let target = conjunct();
            let want = relevant_slice_by_name(&conjs, &target);
            sliced += conjs.len() - want.len();
            assert_eq!(relevant_slice(&conjs, &target), want, "target {target}");
        }
        assert!(sliced > 0, "no conjunct was ever sliced away");
    }

    #[test]
    fn propagate_detects_contradiction() {
        let x = Term::var("pr.x", 8);
        let a = x.clone().eq(Term::bv_const(8, 4));
        let b = x.clone().ult(Term::bv_const(8, 3));
        assert_eq!(propagate_equalities(&[a, b]), Preprocessed::TriviallyFalse);
    }

    #[test]
    fn propagate_chains_equalities() {
        let x = Term::var("pr2.x", 8);
        let y = Term::var("pr2.y", 8);
        // x == 4, y == x + 1, y < 3  -> false after two rounds
        let a = x.clone().eq(Term::bv_const(8, 4));
        let b = y.clone().eq(x.clone().bvadd(Term::bv_const(8, 1)));
        let c = y.clone().ult(Term::bv_const(8, 3));
        assert_eq!(
            propagate_equalities(&[a, b, c]),
            Preprocessed::TriviallyFalse
        );
    }

    #[test]
    fn propagate_satisfied_conjunction_is_true() {
        let x = Term::var("pr3.x", 8);
        let a = x.clone().eq(Term::bv_const(8, 4));
        let b = x.clone().ult(Term::bv_const(8, 10));
        // `a` is kept as the binding; `b` dissolves.
        match propagate_equalities(&[a.clone(), b]) {
            Preprocessed::Residual(r) => assert_eq!(r, vec![a]),
            other => panic!("unexpected {other:?}"),
        }
    }
}
