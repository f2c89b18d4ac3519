//! The SOFT pipeline facade.
//!
//! Ties together the two phases: (1) per-vendor symbolic execution of an
//! agent over a test input (via `soft-harness`), and (2) grouping +
//! crosschecking of the intermediate results. The phases communicate only
//! through phase-1 artifacts ([`soft_harness::encode_run`] writes one from
//! a [`TestRun`], [`soft_harness::decode_run`] reads it back), so they can
//! run on different machines, at different times, by different parties —
//! the deployment model of §2.4.

use crate::crosscheck::{crosscheck, CrosscheckConfig, CrosscheckResult};
use crate::group::{group_paths, GroupError, GroupedResults};
use soft_harness::{run_test, TestCase, TestRun, TestRunFile};
use soft_protocol::AgentRef;
use soft_sym::ExplorerConfig;

/// SOFT configuration.
#[derive(Debug, Clone, Default)]
pub struct Soft {
    /// Symbolic exploration configuration (phase 1).
    pub explorer: ExplorerConfig,
    /// Inconsistency-finder configuration (phase 2).
    pub checker: CrosscheckConfig,
}

/// The outcome of crosschecking two agents on one test, with all the
/// intermediate artifacts kept for inspection.
#[derive(Debug, Clone)]
pub struct PairReport {
    /// Phase-1 run of agent A.
    pub run_a: TestRun,
    /// Phase-1 run of agent B.
    pub run_b: TestRun,
    /// Grouped results of agent A.
    pub grouped_a: GroupedResults,
    /// Grouped results of agent B.
    pub grouped_b: GroupedResults,
    /// The crosscheck result.
    pub result: CrosscheckResult,
}

impl Soft {
    /// Default configuration (exhaustive exploration, unlimited solver).
    pub fn new() -> Soft {
        Soft::default()
    }

    /// Set both phases' parallelism knobs at once (the CLI's `--jobs`).
    /// Results are deterministic for any value; only wall-clock changes.
    pub fn with_jobs(mut self, jobs: usize) -> Soft {
        self.explorer.workers = jobs.max(1);
        self.checker.jobs = jobs.max(1);
        self
    }

    /// Phase 1: symbolically execute one agent on one test, producing the
    /// per-path conditions and outputs.
    pub fn phase1(&self, agent: impl Into<AgentRef>, test: &TestCase) -> TestRun {
        run_test(agent, test, &self.explorer)
    }

    /// Group a phase-1 run by output result.
    pub fn group(&self, run: &TestRun) -> Result<GroupedResults, GroupError> {
        group_paths(&run.agent, &run.test, &run.paths)
    }

    /// Kept only for softbench, which still groups through this name; the
    /// benchmark refresh (ROADMAP item 5) moves it onto [`Soft::group`]
    /// and deletes this.
    #[doc(hidden)]
    pub fn group_artifact(&self, file: &TestRunFile) -> Result<GroupedResults, String> {
        self.group(&file.0).map_err(|e| e.to_string())
    }

    /// Phase 2: find inconsistencies between two grouped result sets.
    pub fn phase2(&self, a: &GroupedResults, b: &GroupedResults) -> CrosscheckResult {
        crosscheck(a, b, &self.checker)
    }

    /// Run the whole pipeline for one agent pair on one test.
    pub fn run_pair(
        &self,
        a: impl Into<AgentRef>,
        b: impl Into<AgentRef>,
        test: &TestCase,
    ) -> Result<PairReport, GroupError> {
        let run_a = self.phase1(a, test);
        let run_b = self.phase1(b, test);
        let grouped_a = self.group(&run_a)?;
        let grouped_b = self.group(&run_b)?;
        let result = self.phase2(&grouped_a, &grouped_b);
        Ok(PairReport {
            run_a,
            run_b,
            grouped_a,
            grouped_b,
            result,
        })
    }
}
