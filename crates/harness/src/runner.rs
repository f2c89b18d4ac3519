//! The test driver (§4.1).
//!
//! Emulates the controller and the network around an agent: completes the
//! connection handshake, injects the test's symbolic messages and concrete
//! probes one at a time, captures all emitted output events, marks silent
//! probe drops, and — after exploration — normalizes each path's trace
//! into the *observed output* the grouping phase keys on. Agent crashes
//! are part of the observed output (externally, the TCP connection dies).

use crate::input::{Input, TestCase};
use crate::pool::par_map;
use soft_protocol::{normalize_trace, AgentRef, TraceEvent};
use soft_sym::{
    explore, Coverage, ExecCtx, Exploration, ExplorationStats, ExplorerConfig, PathOutcome, RunEnd,
};
use std::panic::AssertUnwindSafe;
use std::time::Duration;

/// The normalized externally-observable result of one explored path.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ObservedOutput {
    /// Normalized output events, in order.
    pub events: Vec<TraceEvent>,
    /// Whether the agent crashed while processing the inputs.
    pub crashed: bool,
}

/// One explored path: its input subspace and what was observed.
#[derive(Debug, Clone)]
pub struct PathRecord {
    /// The path condition (conjunction term over the input bytes).
    pub condition: soft_smt::Term,
    /// Size metric of the condition (boolean operation count, Table 2).
    pub constraint_size: u64,
    /// The normalized observed output.
    pub output: ObservedOutput,
}

/// The result of symbolically executing one agent on one test.
#[derive(Debug, Clone)]
pub struct TestRun {
    /// Agent identifier.
    pub agent: String,
    /// Test identifier.
    pub test: String,
    /// Effective paths (completed or crashed; engine-aborted paths are
    /// dropped, mirroring "SOFT is capable of working with traces that are
    /// only partially covering agents' code").
    pub paths: Vec<PathRecord>,
    /// Wall-clock time of the exploration.
    pub wall: Duration,
    /// Engine statistics.
    pub stats: ExplorationStats,
    /// Union coverage.
    pub coverage: Coverage,
    /// Instruction coverage percent against the agent's universe.
    pub instruction_pct: f64,
    /// Branch coverage percent against the agent's universe.
    pub branch_pct: f64,
}

impl TestRun {
    /// Average and maximum constraint size over the paths (Table 2).
    pub fn constraint_size_stats(&self) -> (f64, u64) {
        if self.paths.is_empty() {
            return (0.0, 0);
        }
        let max = self
            .paths
            .iter()
            .map(|p| p.constraint_size)
            .max()
            .unwrap_or(0);
        let avg = self.paths.iter().map(|p| p.constraint_size).sum::<u64>() as f64
            / self.paths.len() as f64;
        (avg, max)
    }

    /// Number of paths on which the agent crashed.
    pub fn crash_count(&self) -> usize {
        self.paths.iter().filter(|p| p.output.crashed).count()
    }
}

/// Symbolically execute `agent` on `test` (SOFT phase 1 for one
/// agent/test pair).
///
/// Exploration honors `cfg.workers`; the resulting paths are canonically
/// ordered by decision prefix for *every* worker count, so the produced
/// [`TestRun`] (and any artifact serialized from it) is identical whether
/// the exploration ran on one thread or many.
pub fn run_test(agent: impl Into<AgentRef>, test: &TestCase, cfg: &ExplorerConfig) -> TestRun {
    let agent = agent.into();
    let ex: Exploration<TraceEvent> = explore(cfg, agent_program(agent, test));
    summarize(agent, test, ex)
}

/// The exploration closure for one agent/test combination: handshake,
/// then the test's input sequence with probe-drop detection. Shared by
/// the plain and the journaled (durable) drivers.
pub(crate) fn agent_program(
    agent: AgentRef,
    test: &TestCase,
) -> impl Fn(&mut ExecCtx<'_, TraceEvent>) -> RunEnd + Sync + '_ {
    move |ctx| {
        let mut a = agent.make();
        a.on_connect(ctx)?;
        for input in &test.inputs {
            match input {
                Input::Message(m) => a.handle_message(ctx, m)?,
                Input::Probe { in_port, packet } => {
                    let before = ctx.trace_len();
                    a.handle_packet(ctx, *in_port, packet)?;
                    if ctx.trace_len() == before {
                        // "The probe packet is then either forwarded ...,
                        // or it is dropped, in which case we log an empty
                        // probe response."
                        ctx.emit(TraceEvent::ProbeDropped);
                    }
                }
                Input::AdvanceTime { now } => a.handle_time(ctx, *now)?,
            }
        }
        Ok(())
    }
}

/// Run `explore` on every (agent, test) combination — SOFT phase 1 over a
/// whole suite — fanning the combinations across `jobs` workers through [`par_map`].
/// `explore` is typically [`run_test`], or a journaled exploration
/// through [`crate::run_unit_durable`].
///
/// Each combination is an independent exploration (own solver, own verdict
/// cache), and the results come back in agent-major, test-minor order no
/// matter how many threads ran them, so `jobs = N` output equals
/// `jobs = 1` output exactly.
///
/// Engine-panic containment: agent panics are already converted to crash
/// outputs inside the explorer, so an unwind escaping `explore` means the
/// exploration *machinery* failed. The matrix must still complete and say
/// so — the combination degrades to an empty, truncated [`TestRun`] with
/// `engine_panics` set, never to a process abort that discards every
/// other combination.
pub fn run_matrix<E, F>(
    agents: &[AgentRef],
    tests: &[TestCase],
    jobs: usize,
    explore: F,
) -> Vec<Result<TestRun, E>>
where
    E: Send,
    F: Fn(AgentRef, &TestCase) -> Result<TestRun, E> + Sync,
{
    let combos: Vec<(AgentRef, &TestCase)> = agents
        .iter()
        .flat_map(|&a| tests.iter().map(move |t| (a, t)))
        .collect();
    par_map(
        jobs,
        &combos,
        || (),
        |_, &(a, t)| {
            std::panic::catch_unwind(AssertUnwindSafe(|| explore(a, t)))
                .unwrap_or_else(|_| Ok(degraded_run(a, t)))
        },
    )
    .0
}

/// Placeholder result for a combination whose exploration engine panicked:
/// no paths, flagged truncated, one engine panic on record.
fn degraded_run(agent: AgentRef, test: &TestCase) -> TestRun {
    TestRun {
        agent: agent.id().to_string(),
        test: test.id.to_string(),
        paths: Vec::new(),
        wall: Duration::ZERO,
        stats: ExplorationStats {
            truncated: true,
            engine_panics: 1,
            ..ExplorationStats::default()
        },
        coverage: Coverage::new(),
        instruction_pct: 0.0,
        branch_pct: 0.0,
    }
}

/// Convert one explored path into the [`PathRecord`] the grouping phase
/// consumes, or `None` for an engine-aborted path (aborted paths carry no
/// externally-observable output and are dropped from artifacts).
fn record_path(p: &soft_sym::PathResult<TraceEvent>) -> Option<PathRecord> {
    let crashed = match &p.outcome {
        PathOutcome::Completed => false,
        PathOutcome::Crashed(_) => true,
        PathOutcome::Aborted(_) => return None,
    };
    let condition = p.condition_term();
    let constraint_size = soft_smt::metrics::op_count(&condition);
    Some(PathRecord {
        condition,
        constraint_size,
        output: ObservedOutput {
            events: normalize_trace(&p.trace),
            crashed,
        },
    })
}

pub(crate) fn summarize(agent: AgentRef, test: &TestCase, ex: Exploration<TraceEvent>) -> TestRun {
    let universe = agent.make().universe();
    let paths: Vec<PathRecord> = ex.paths.iter().filter_map(record_path).collect();
    TestRun {
        agent: agent.id().to_string(),
        test: test.id.to_string(),
        paths,
        wall: ex.stats.wall,
        instruction_pct: ex.coverage.instruction_pct(&universe),
        branch_pct: ex.coverage.branch_pct(&universe),
        coverage: ex.coverage,
        stats: ex.stats,
    }
}
