//! Code coverage accounting.
//!
//! The paper reports instruction and branch coverage per test (Table 4) and
//! coverage as a function of the number of symbolic messages (Figure 4),
//! scoped to "the sections of OpenFlow agent's code relevant to OpenFlow
//! processing" plus a note that ~25% of code (CLI parsing, cleanup, dead
//! code, logging) is unreachable from standard execution.
//!
//! Our agents are instrumented explicitly: every basic block carries a
//! `ctx.cover("label")` call and every symbolic branch a stable site label.
//! Each agent declares its *coverage universe* — the full label sets,
//! including labels for code regions tests can never reach — so coverage
//! percentages have an exact denominator.

use soft_smt::fxhash::FxHashSet;

/// Static declaration of an agent's instrumented code regions.
#[derive(Debug, Clone, Default)]
pub struct CoverageUniverse {
    /// All instruction-block labels in the agent, reachable or not.
    pub blocks: Vec<&'static str>,
    /// All branch-site labels in the agent.
    pub branch_sites: Vec<&'static str>,
}

impl CoverageUniverse {
    /// Number of instruction blocks.
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Number of branch directions (two per site).
    pub fn num_branch_dirs(&self) -> usize {
        2 * self.branch_sites.len()
    }
}

/// Accumulated coverage across one or more explorations.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Coverage {
    /// Instruction blocks hit at least once.
    pub blocks: FxHashSet<&'static str>,
    /// (site, direction) pairs hit at least once.
    pub branches: FxHashSet<(&'static str, bool)>,
}

impl Coverage {
    /// Empty coverage.
    pub fn new() -> Self {
        Coverage::default()
    }

    /// Merge another coverage set into this one.
    pub fn merge(&mut self, other: &Coverage) {
        self.blocks.extend(other.blocks.iter().copied());
        self.branches.extend(other.branches.iter().copied());
    }

    /// Merge one finished path's coverage into this one.
    pub fn merge_path(&mut self, path: &PathCoverage) {
        self.blocks.extend(path.blocks.iter().copied());
        self.branches.extend(path.branches.iter().copied());
    }

    /// Instruction coverage in percent relative to `universe`.
    pub fn instruction_pct(&self, universe: &CoverageUniverse) -> f64 {
        if universe.blocks.is_empty() {
            return 0.0;
        }
        100.0 * self.blocks.len() as f64 / universe.num_blocks() as f64
    }

    /// Branch coverage in percent relative to `universe`.
    pub fn branch_pct(&self, universe: &CoverageUniverse) -> f64 {
        if universe.branch_sites.is_empty() {
            return 0.0;
        }
        100.0 * self.branches.len() as f64 / universe.num_branch_dirs() as f64
    }

    /// Validate that every covered label exists in the universe; returns the
    /// offending labels. Catches typos between instrumentation and universe.
    pub fn validate(&self, universe: &CoverageUniverse) -> Vec<String> {
        let blocks: FxHashSet<_> = universe.blocks.iter().copied().collect();
        let sites: FxHashSet<_> = universe.branch_sites.iter().copied().collect();
        let mut bad: Vec<String> = Vec::new();
        for b in &self.blocks {
            if !blocks.contains(b) {
                bad.push(format!("block '{b}' not in universe"));
            }
        }
        for (s, _) in &self.branches {
            if !sites.contains(s) {
                bad.push(format!("branch site '{s}' not in universe"));
            }
        }
        bad.sort();
        bad.dedup();
        bad
    }
}

/// One finished path's coverage: the labels of a [`Coverage`], sorted
/// into exact-size lists. An exploration keeps every path's coverage
/// until it ends; kept as hash sets, their tables were 40% of an
/// `eth_flow_mod` run's peak memory.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PathCoverage {
    /// Instruction blocks hit, sorted.
    pub blocks: Box<[&'static str]>,
    /// (site, direction) pairs hit, sorted.
    pub branches: Box<[(&'static str, bool)]>,
}

impl From<Coverage> for PathCoverage {
    fn from(c: Coverage) -> Self {
        let mut blocks: Vec<_> = c.blocks.into_iter().collect();
        blocks.sort_unstable();
        let mut branches: Vec<_> = c.branches.into_iter().collect();
        branches.sort_unstable();
        PathCoverage {
            blocks: blocks.into(),
            branches: branches.into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn universe() -> CoverageUniverse {
        CoverageUniverse {
            blocks: vec!["a", "b", "c", "d"],
            branch_sites: vec!["s1", "s2"],
        }
    }

    #[test]
    fn percentages() {
        let mut c = Coverage::new();
        c.blocks.insert("a");
        c.blocks.insert("b");
        c.branches.insert(("s1", true));
        let u = universe();
        assert_eq!(c.instruction_pct(&u), 50.0);
        assert_eq!(c.branch_pct(&u), 25.0);
    }

    #[test]
    fn merge_accumulates() {
        let mut c1 = Coverage::new();
        c1.blocks.insert("a");
        let mut c2 = Coverage::new();
        c2.blocks.insert("b");
        c2.branches.insert(("s2", false));
        c1.merge(&c2);
        assert_eq!(c1.blocks.len(), 2);
        assert_eq!(c1.branches.len(), 1);
    }

    #[test]
    fn path_coverage_sorts_the_labels_and_merges_back() {
        let mut c = Coverage::new();
        for b in ["c", "a", "b"] {
            c.blocks.insert(b);
        }
        c.branches.insert(("s2", false));
        c.branches.insert(("s1", true));
        c.branches.insert(("s1", false));
        let p = PathCoverage::from(c.clone());
        assert_eq!(*p.blocks, ["a", "b", "c"]);
        assert_eq!(*p.branches, [("s1", false), ("s1", true), ("s2", false)]);
        let mut merged = Coverage::new();
        merged.merge_path(&p);
        assert_eq!(merged, c);
    }

    #[test]
    fn validate_flags_unknown_labels() {
        let mut c = Coverage::new();
        c.blocks.insert("zz");
        c.branches.insert(("s9", true));
        let bad = c.validate(&universe());
        assert_eq!(bad.len(), 2);
    }

    #[test]
    fn empty_universe_is_zero_pct() {
        let c = Coverage::new();
        let u = CoverageUniverse::default();
        assert_eq!(c.instruction_pct(&u), 0.0);
        assert_eq!(c.branch_pct(&u), 0.0);
    }
}
