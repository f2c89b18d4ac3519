//! Term metrics matching what the paper reports.
//!
//! Table 2 reports the "constraint size" of a path condition as the number
//! of boolean operations it contains; we count operator applications over
//! the term DAG (each shared node once). Depth is used by the grouping
//! ablation (balanced vs. linear disjunction trees).

use crate::term::{Op, Term};
use std::collections::{HashMap, HashSet};

/// Number of operator applications (non-leaf nodes) in the DAG.
pub fn op_count(t: &Term) -> u64 {
    let mut seen: HashSet<u64> = HashSet::new();
    let mut stack = vec![t.clone()];
    let mut count = 0u64;
    while let Some(t) = stack.pop() {
        if !seen.insert(t.id()) {
            continue;
        }
        match t.op() {
            Op::BvConst { .. } | Op::BvVar { .. } | Op::BoolConst(_) => {}
            op => {
                count += 1;
                for c in op.children() {
                    stack.push(c.clone());
                }
            }
        }
    }
    count
}

/// Maximum operator nesting depth (leaves have depth 0).
pub fn depth(t: &Term) -> u64 {
    fn rec(t: &Term, memo: &mut HashMap<u64, u64>) -> u64 {
        if let Some(&d) = memo.get(&t.id()) {
            return d;
        }
        let d = t
            .op()
            .children()
            .iter()
            .map(|c| rec(c, memo) + 1)
            .max()
            .unwrap_or(0);
        memo.insert(t.id(), d);
        d
    }
    rec(t, &mut HashMap::new())
}

/// Collect the names and widths of all variables occurring in the term.
pub fn variables(t: &Term) -> Vec<(String, u32)> {
    let mut seen: HashSet<u64> = HashSet::new();
    let mut out: Vec<(String, u32)> = Vec::new();
    let mut stack = vec![t.clone()];
    while let Some(t) = stack.pop() {
        if !seen.insert(t.id()) {
            continue;
        }
        if let Op::BvVar { name, width } = t.op() {
            out.push((name.to_string(), *width));
        }
        for c in t.op().children() {
            stack.push(c.clone());
        }
    }
    out.sort();
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leaf_metrics_are_zero_ops() {
        let x = Term::var("mt.x", 8);
        assert_eq!(op_count(&x), 0);
        assert_eq!(depth(&x), 0);
    }

    #[test]
    fn shared_nodes_counted_once() {
        let x = Term::var("mt.s", 8);
        let sq = x.clone().bvmul(x.clone()); // 1 op
        let e = sq.clone().bvadd(sq.clone()); // bvadd(sq, sq): sq == sq folds!
                                              // x*x + x*x does not fold to a constant; Add with equal operands is
                                              // not simplified, so: ops = mul + add = 2, the shared mul once.
        assert_eq!(op_count(&e), 2);
        assert_eq!(depth(&e), 2);
    }

    #[test]
    fn variables_are_deduped_and_sorted() {
        let x = Term::var("mt.a", 8);
        let y = Term::var("mt.b", 16);
        let e = x
            .clone()
            .zext(16)
            .bvadd(y.clone())
            .eq(y.clone())
            .and(x.clone().eq(Term::bv_const(8, 1)));
        assert_eq!(
            variables(&e),
            vec![("mt.a".to_string(), 8), ("mt.b".to_string(), 16)]
        );
    }
}
