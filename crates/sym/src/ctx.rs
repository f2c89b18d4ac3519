//! Per-path execution context.
//!
//! Agents under test are deterministic Rust functions that receive an
//! [`ExecCtx`] and drive all control flow that depends on symbolic data
//! through [`ExecCtx::branch`]. The engine explores the execution tree by
//! re-running the program with a forced *decision prefix* (the replay
//! technique of execution-generated testing): decisions inside the prefix
//! are replayed, the first fresh branch consults the constraint solver for
//! feasibility of both sides, schedules the flipped sibling, and continues.
//! Semantically this is the "logical fork" of classic symbolic execution.

use crate::coverage::{Coverage, PathCoverage};
use soft_smt::{SatResult, Solver, Term};
use std::time::Instant;

/// Why a path stopped before completing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Stop {
    /// The agent crashed (models a segfault / assertion in the C agent —
    /// SOFT found three such crashes in the Reference Switch).
    Crash(String),
    /// The engine abandoned the path (depth limit, infeasible assumption,
    /// solver resource exhaustion).
    Abort(String),
}

impl Stop {
    /// Convenience constructor for agent crashes.
    pub fn crash(msg: impl Into<String>) -> Stop {
        Stop::Crash(msg.into())
    }
}

/// Result type agent programs return.
pub type RunEnd = Result<(), Stop>;

/// A scheduled-but-unexplored sibling branch.
#[derive(Debug, Clone)]
pub(crate) struct Pending {
    /// Decision prefix to replay, including the flipped final decision.
    pub prefix: Vec<bool>,
    /// Branch site that created this pending path.
    pub site: &'static str,
    /// True for a journaled path re-executed on resume: the prefix is a
    /// *complete* decision sequence, so the run forks nothing new and is
    /// not re-reported to the path sink.
    pub replay: bool,
}

/// Execution context handed to the program for a single path.
pub struct ExecCtx<'e, Out> {
    prefix: Vec<bool>,
    cursor: usize,
    pc: Vec<Term>,
    decisions: Vec<bool>,
    trace: Vec<Out>,
    coverage: Coverage,
    pending: Vec<Pending>,
    solver: &'e mut Solver,
    /// True if an Unknown solver verdict forced over-approximation.
    over_approx: bool,
    max_depth: usize,
    instructions: u64,
    fresh_branches: u64,
    /// Wall-clock cutoff for the whole exploration; checked before every
    /// solver interaction so one long path cannot overshoot the budget by
    /// more than a single query.
    deadline: Option<Instant>,
    /// True once the deadline fired mid-path (the driver then reports the
    /// exploration as truncated).
    deadline_hit: bool,
}

impl<'e, Out> ExecCtx<'e, Out> {
    pub(crate) fn new(
        prefix: Vec<bool>,
        solver: &'e mut Solver,
        max_depth: usize,
        deadline: Option<Instant>,
    ) -> Self {
        ExecCtx {
            prefix,
            cursor: 0,
            pc: Vec::new(),
            decisions: Vec::new(),
            trace: Vec::new(),
            coverage: Coverage::new(),
            pending: Vec::new(),
            solver,
            over_approx: false,
            max_depth,
            instructions: 0,
            fresh_branches: 0,
            deadline,
            deadline_hit: false,
        }
    }

    /// Abort the path if the exploration deadline has passed. Called at
    /// every operation that may reach the solver.
    fn check_deadline(&mut self) -> Result<(), Stop> {
        if let Some(d) = self.deadline {
            if Instant::now() >= d {
                self.deadline_hit = true;
                return Err(Stop::Abort("exploration time limit exceeded".into()));
            }
        }
        Ok(())
    }

    /// Mark an instruction block as covered. Agents call this once per
    /// instrumented basic block; the count doubles as an instruction-count
    /// proxy for the statistics.
    pub fn cover(&mut self, block: &'static str) {
        self.coverage.blocks.insert(block);
        self.instructions += 1;
    }

    /// Record an output event (an OpenFlow reply, a forwarded packet, ...).
    pub fn emit(&mut self, event: Out) {
        self.trace.push(event);
    }

    /// Branch on a possibly-symbolic boolean condition.
    ///
    /// Concrete conditions return immediately (and still record branch
    /// coverage). Symbolic conditions are replayed from the decision prefix
    /// or, once the prefix is exhausted, forked: the feasible sides are
    /// determined with the solver, one side is continued and the other is
    /// scheduled for a later run.
    pub fn branch(&mut self, site: &'static str, cond: &Term) -> Result<bool, Stop> {
        if let Some(c) = cond.as_bool_const() {
            self.coverage.branches.insert((site, c));
            return Ok(c);
        }
        if self.decisions.len() >= self.max_depth {
            return Err(Stop::Abort(format!("max branch depth at site '{site}'")));
        }
        self.check_deadline()?;
        let dir = if self.cursor < self.prefix.len() {
            let d = self.prefix[self.cursor];
            self.cursor += 1;
            d
        } else {
            self.fresh_branches += 1;
            let feasible_true = self.feasible(cond.clone());
            let feasible_false = self.feasible(cond.clone().not());
            match (feasible_true, feasible_false) {
                (true, true) => {
                    // Continue down `true`, schedule the sibling.
                    let mut sibling = self.decisions.clone();
                    sibling.push(false);
                    self.pending.push(Pending {
                        prefix: sibling,
                        site,
                        replay: false,
                    });
                    true
                }
                (true, false) => true,
                (false, true) => false,
                (false, false) => {
                    // Possible only when over-approximating after Unknown.
                    return Err(Stop::Abort(format!(
                        "both branch sides infeasible at site '{site}'"
                    )));
                }
            }
        };
        let constraint = if dir {
            cond.clone()
        } else {
            cond.clone().not()
        };
        if constraint.as_bool_const() != Some(true) {
            self.pc.push(constraint);
        }
        self.decisions.push(dir);
        self.coverage.branches.insert((site, dir));
        Ok(dir)
    }

    /// Add a constraint without forking. Returns `Err` if it makes the path
    /// infeasible (the path is then abandoned).
    pub fn assume(&mut self, cond: &Term) -> Result<(), Stop> {
        match cond.as_bool_const() {
            Some(true) => return Ok(()),
            Some(false) => return Err(Stop::Abort("assume(false)".into())),
            None => {}
        }
        self.check_deadline()?;
        if !self.feasible(cond.clone()) {
            return Err(Stop::Abort("infeasible assumption".into()));
        }
        self.pc.push(cond.clone());
        Ok(())
    }

    /// Pin a symbolic term to one concrete value consistent with the path
    /// condition (standard concretization; used e.g. where a real agent
    /// would use a value as an allocation size).
    pub fn concretize(&mut self, term: &Term) -> Result<u64, Stop> {
        if let Some(v) = term.as_bv_const() {
            return Ok(v);
        }
        self.check_deadline()?;
        match self.solver.check(&self.pc) {
            SatResult::Sat(model) => {
                let v = model.eval_bv(term);
                self.pc
                    .push(term.clone().eq(Term::bv_const(term.width(), v)));
                Ok(v)
            }
            SatResult::Unsat => Err(Stop::Abort("concretize on infeasible path".into())),
            SatResult::Unknown => Err(Stop::Abort("solver budget during concretize".into())),
        }
    }

    /// Check `pc && extra` for satisfiability; Unknown is treated as
    /// feasible (over-approximation, flagged on the path).
    ///
    /// The path condition is satisfiable by construction, so only the
    /// conjuncts sharing variables (transitively) with `extra` can affect
    /// the verdict — the KLEE-style independence slice keeps queries small
    /// as path conditions grow.
    fn feasible(&mut self, extra: Term) -> bool {
        let mut q = soft_smt::simplify::relevant_slice(&self.pc, &extra);
        q.push(extra);
        match self.solver.check(&q) {
            SatResult::Sat(_) => true,
            SatResult::Unsat => false,
            SatResult::Unknown => {
                self.over_approx = true;
                true
            }
        }
    }

    /// Current path-condition conjuncts.
    pub fn path_condition(&self) -> &[Term] {
        &self.pc
    }

    /// Number of events emitted so far (used by the harness to detect
    /// silent probe drops).
    pub fn trace_len(&self) -> usize {
        self.trace.len()
    }

    pub(crate) fn finish(self, outcome: PathOutcome) -> FinishedPath<Out> {
        FinishedPath {
            result: PathResult {
                condition: self.pc,
                decisions: self.decisions,
                trace: self.trace,
                outcome,
                coverage: self.coverage.into(),
                over_approx: self.over_approx,
            },
            origin: self.prefix,
            pending: self.pending,
            instructions: self.instructions,
            fresh_branches: self.fresh_branches,
            deadline_hit: self.deadline_hit,
        }
    }
}

/// Everything one path run hands back to the exploration driver.
pub(crate) struct FinishedPath<Out> {
    /// The explored path.
    pub result: PathResult<Out>,
    /// The decision prefix this run was scheduled under (the frontier
    /// entry it consumed — not the full decision sequence it grew into).
    pub origin: Vec<bool>,
    /// Sibling branches scheduled during the run.
    pub pending: Vec<Pending>,
    /// Instrumented blocks executed.
    pub instructions: u64,
    /// Fresh symbolic branches encountered.
    pub fresh_branches: u64,
    /// True if the exploration deadline fired during this path.
    pub deadline_hit: bool,
}

/// Terminal status of one explored path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PathOutcome {
    /// The program ran to completion.
    Completed,
    /// The program crashed (agent bug).
    Crashed(String),
    /// The engine abandoned the path.
    Aborted(String),
}

/// One fully explored path: its input subspace and observed outputs.
#[derive(Debug, Clone)]
pub struct PathResult<Out> {
    /// Path condition as a conjunct list (the input equivalence class).
    pub condition: Vec<Term>,
    /// Symbolic branch decisions, in order.
    pub decisions: Vec<bool>,
    /// Output events emitted along the path.
    pub trace: Vec<Out>,
    /// How the path terminated.
    pub outcome: PathOutcome,
    /// Coverage recorded on this path.
    pub coverage: PathCoverage,
    /// True if an Unknown solver verdict may have admitted an infeasible
    /// path (never observed with the default unlimited budget).
    pub over_approx: bool,
}

impl<Out> PathResult<Out> {
    /// The path condition as a single conjunction term.
    pub fn condition_term(&self) -> Term {
        soft_smt::simplify::mk_and(&self.condition)
    }
}
