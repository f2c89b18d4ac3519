//! Term metrics matching what the paper reports.
//!
//! Table 2 reports the "constraint size" of a path condition as the number
//! of boolean operations it contains; we count operator applications over
//! the term DAG (each shared node once). Depth is used by the grouping
//! ablation (balanced vs. linear disjunction trees).

use crate::fxhash::{FxHashMap, FxHashSet};
use crate::term::{Op, Term};

/// Visit every distinct node of the DAG rooted at `t` once, depth-first.
/// Borrows the nodes instead of cloning their handles, so the walk
/// allocates only its stack and seen-set.
fn for_each_node<'a>(t: &'a Term, mut visit: impl FnMut(&'a Term)) {
    let mut seen: FxHashSet<u64> = FxHashSet::default();
    let mut stack = vec![t];
    while let Some(t) = stack.pop() {
        if !seen.insert(t.id()) {
            continue;
        }
        visit(t);
        stack.extend(t.op().children());
    }
}

/// Number of operator applications (non-leaf nodes) in the DAG.
pub fn op_count(t: &Term) -> u64 {
    let mut count = 0u64;
    for_each_node(t, |t| {
        if !matches!(
            t.op(),
            Op::BvConst { .. } | Op::BvVar { .. } | Op::BoolConst(_)
        ) {
            count += 1;
        }
    });
    count
}

/// Maximum operator nesting depth (leaves have depth 0).
pub fn depth(t: &Term) -> u64 {
    fn rec(t: &Term, memo: &mut FxHashMap<u64, u64>) -> u64 {
        if let Some(&d) = memo.get(&t.id()) {
            return d;
        }
        let d = t
            .op()
            .children()
            .map(|c| rec(c, memo) + 1)
            .max()
            .unwrap_or(0);
        memo.insert(t.id(), d);
        d
    }
    rec(t, &mut FxHashMap::default())
}

/// The interning ids of all variables occurring in the term, each once, in
/// walk order. A variable's id names it within the process as its name
/// does across processes (one name, one width), without copying the name.
pub(crate) fn variable_ids(t: &Term) -> Vec<u64> {
    let mut out = Vec::new();
    for_each_node(t, |t| {
        if let Op::BvVar { .. } = t.op() {
            out.push(t.id());
        }
    });
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
    fn variable_ids_are_deduped() {
        let x = Term::var("mt.a", 8);
        let y = Term::var("mt.b", 16);
        let e = x
            .clone()
            .zext(16)
            .bvadd(y.clone())
            .eq(y.clone())
            .and(x.clone().eq(Term::bv_const(8, 1)));
        let mut ids = variable_ids(&e);
        ids.sort_unstable();
        let mut want = vec![x.id(), y.id()];
        want.sort_unstable();
        assert_eq!(ids, want);
    }
}
