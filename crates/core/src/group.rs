//! The grouping tool (§3.4, §4.2).
//!
//! Groups all path conditions that produce the same normalized output
//! result: for every distinct result `r`, `C(r)` is the disjunction of the
//! path conditions of all paths observing `r`. Disjunctions are built as
//! *balanced* binary trees, "minimizing the depth of nested expressions"
//! to keep the downstream solver queries shallow. The grouping is what
//! makes crosschecking cheap: the number of solver queries drops from
//! `|PC_A| * |PC_B|` to `|RES_A| * |RES_B|`, a 1–5 order-of-magnitude
//! reduction in the paper's runs.

use soft_harness::{ObservedOutput, PathRecord};
use soft_smt::simplify::{mk_or_balanced, mk_or_linear};
use soft_smt::Term;
use std::collections::HashMap;
use std::fmt;
use std::time::{Duration, Instant};

/// Grouping failure, reported as data instead of a panic so a long matrix
/// run can skip the affected (agent, test) pair and keep going.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GroupError {
    /// The first-seen output order list and the condition buckets went out
    /// of sync: an output recorded in arrival order had no bucket. This is
    /// an internal invariant violation (outputs hash/compare
    /// inconsistently), not a property of the agent under test.
    MissingBucket {
        /// Agent whose paths were being grouped.
        agent: String,
        /// Test being grouped.
        test: String,
        /// Index of the orphaned output in first-seen order.
        index: usize,
    },
}

impl fmt::Display for GroupError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GroupError::MissingBucket { agent, test, index } => write!(
                f,
                "grouping {agent}/{test}: output #{index} has no condition bucket \
                 (inconsistent ObservedOutput hash/equality)"
            ),
        }
    }
}

impl std::error::Error for GroupError {}

/// Shape of the disjunction trees the grouping tool builds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TreeShape {
    /// Balanced binary tree (the paper's choice).
    Balanced,
    /// Right-leaning linear chain (kept for the grouping ablation bench).
    Linear,
}

/// One distinct output result with its merged input subspace.
#[derive(Debug, Clone)]
pub struct OutputGroup {
    /// The normalized observed output.
    pub output: ObservedOutput,
    /// Disjunction of all path conditions producing this output.
    pub condition: Term,
    /// How many paths were merged into this group.
    pub path_count: usize,
}

/// Grouped results for one (agent, test) pair — the unit the
/// inconsistency finder consumes.
#[derive(Debug, Clone)]
pub struct GroupedResults {
    /// Agent identifier.
    pub agent: String,
    /// Test identifier.
    pub test: String,
    /// The distinct output results with merged conditions.
    pub groups: Vec<OutputGroup>,
    /// Time spent grouping (the Table 3 "Grouping results" column).
    pub group_time: Duration,
}

/// Group paths by normalized output, building balanced disjunction trees.
pub fn group_paths(
    agent: &str,
    test: &str,
    paths: &[PathRecord],
) -> Result<GroupedResults, GroupError> {
    group_paths_with(agent, test, paths, TreeShape::Balanced)
}

/// Group paths with an explicit disjunction-tree shape.
pub fn group_paths_with(
    agent: &str,
    test: &str,
    paths: &[PathRecord],
    shape: TreeShape,
) -> Result<GroupedResults, GroupError> {
    let start = Instant::now();
    // Bucket conditions by output, preserving first-seen order so the
    // result is deterministic.
    let mut order: Vec<ObservedOutput> = Vec::new();
    let mut buckets: HashMap<ObservedOutput, Vec<Term>> = HashMap::new();
    for p in paths {
        let bucket = buckets.entry(p.output.clone()).or_insert_with(|| {
            order.push(p.output.clone());
            Vec::new()
        });
        bucket.push(p.condition.clone());
    }
    let mut groups = Vec::with_capacity(order.len());
    for (index, output) in order.into_iter().enumerate() {
        let conds = buckets
            .remove(&output)
            .ok_or_else(|| GroupError::MissingBucket {
                agent: agent.to_string(),
                test: test.to_string(),
                index,
            })?;
        let path_count = conds.len();
        let condition = match shape {
            TreeShape::Balanced => mk_or_balanced(&conds),
            TreeShape::Linear => mk_or_linear(&conds),
        };
        groups.push(OutputGroup {
            output,
            condition,
            path_count,
        });
    }
    Ok(GroupedResults {
        agent: agent.to_string(),
        test: test.to_string(),
        groups,
        group_time: start.elapsed(),
    })
}

impl GroupedResults {
    /// Number of distinct output results (the Table 3 "#res" column).
    pub fn num_results(&self) -> usize {
        self.groups.len()
    }

    /// Total number of merged paths.
    pub fn num_paths(&self) -> usize {
        self.groups.iter().map(|g| g.path_count).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use soft_protocol::TraceEvent;

    fn path(var: &str, val: u64, out_code: u16) -> PathRecord {
        let cond = Term::var(var, 8).eq(Term::bv_const(8, val));
        PathRecord {
            constraint_size: soft_smt::metrics::op_count(&cond),
            condition: cond,
            output: ObservedOutput {
                events: vec![TraceEvent::Error {
                    xid: Term::bv_const(32, 0),
                    etype: Term::bv_const(16, 1),
                    code: Term::bv_const(16, out_code as u64),
                }],
                crashed: false,
            },
        }
    }

    #[test]
    fn groups_by_output() {
        let paths = vec![path("g.x", 1, 6), path("g.x", 2, 6), path("g.x", 3, 8)];
        let g = group_paths("a", "t", &paths).expect("grouping");
        assert_eq!(g.num_results(), 2);
        assert_eq!(g.num_paths(), 3);
        assert_eq!(g.groups[0].path_count, 2);
        assert_eq!(g.groups[1].path_count, 1);
    }

    #[test]
    fn group_condition_is_disjunction() {
        let paths = vec![path("g2.x", 1, 6), path("g2.x", 2, 6)];
        let g = group_paths("a", "t", &paths).expect("grouping");
        let cond = &g.groups[0].condition;
        let mut solver = soft_smt::Solver::new();
        // x == 1 satisfies, x == 2 satisfies, x == 3 does not.
        for (v, expect) in [(1u64, true), (2, true), (3, false)] {
            let pinned = Term::var("g2.x", 8).eq(Term::bv_const(8, v));
            assert_eq!(
                solver.check(&[cond.clone(), pinned]).is_sat(),
                expect,
                "x == {v}"
            );
        }
    }

    #[test]
    fn tree_shapes_equisatisfiable_but_different_depth() {
        let paths: Vec<PathRecord> = (0..32).map(|i| path("g3.x", i, 6)).collect();
        let bal = group_paths_with("a", "t", &paths, TreeShape::Balanced).expect("grouping");
        let lin = group_paths_with("a", "t", &paths, TreeShape::Linear).expect("grouping");
        let db = soft_smt::metrics::depth(&bal.groups[0].condition);
        let dl = soft_smt::metrics::depth(&lin.groups[0].condition);
        assert!(
            db < dl,
            "balanced {db} should be shallower than linear {dl}"
        );
    }

    #[test]
    fn deterministic_group_order() {
        let paths = vec![path("g4.x", 1, 8), path("g4.x", 2, 6)];
        let g1 = group_paths("a", "t", &paths).expect("grouping");
        let g2 = group_paths("a", "t", &paths).expect("grouping");
        assert_eq!(g1.groups.len(), g2.groups.len());
        for (a, b) in g1.groups.iter().zip(&g2.groups) {
            assert_eq!(a.output, b.output);
            assert_eq!(a.condition, b.condition);
        }
    }
}
