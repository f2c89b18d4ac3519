//! The exploration driver.
//!
//! Runs a deterministic program repeatedly, once per execution-tree path,
//! replaying decision prefixes scheduled by the active search strategy.
//! Produces the two artifacts SOFT's crosschecking phase consumes: per-path
//! input constraints (path conditions) and per-path output traces.

use crate::coverage::Coverage;
use crate::ctx::{ExecCtx, FinishedPath, PathOutcome, PathResult, Pending, RunEnd, Stop};
use crate::strategy::{Frontier, Strategy};
use soft_smt::{Solver, SolverBudget, VerdictCache};
use std::panic::AssertUnwindSafe;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Recover the guarded data even if a worker panicked while holding the
/// lock. The shared exploration state is only mutated through
/// [`merge_finished`] and small field updates that keep it consistent, so
/// a poisoned lock still guards usable state; aborting the whole
/// exploration (what `expect` did) would lose every already-explored path.
fn recover<T>(lock: &Mutex<T>) -> MutexGuard<'_, T> {
    lock.lock().unwrap_or_else(|e| e.into_inner())
}

/// Render a panic payload for the crash record.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// Exploration limits and knobs.
#[derive(Debug, Clone)]
pub struct ExplorerConfig {
    /// Path-selection strategy (default: Cloud9-style interleaving).
    pub strategy: Strategy,
    /// Stop after this many explored paths.
    pub max_paths: Option<usize>,
    /// Maximum symbolic-branch depth per path.
    pub max_depth: usize,
    /// Per-query solver resource budget (default: unlimited).
    pub solver_budget: SolverBudget,
    /// Wall-clock budget for the whole exploration.
    pub time_limit: Option<Duration>,
    /// PRNG seed for randomized strategies.
    pub seed: u64,
    /// Explorer workers: the calling thread plus `workers - 1` scoped
    /// threads (0 counts as 1). Exhaustive explorations produce identical
    /// results for every worker count.
    pub workers: usize,
}

impl Default for ExplorerConfig {
    fn default() -> Self {
        ExplorerConfig {
            strategy: Strategy::CoverageInterleaved,
            max_paths: None,
            max_depth: 4096,
            solver_budget: SolverBudget::unlimited(),
            time_limit: None,
            seed: 0x50F7,
            workers: 1,
        }
    }
}

/// Aggregate statistics over one exploration, feeding Tables 2 and 5.
#[derive(Debug, Clone, Default)]
pub struct ExplorationStats {
    /// Total paths explored (= input equivalence classes).
    pub paths: usize,
    /// Paths that ran to completion.
    pub completed: usize,
    /// Paths on which the agent crashed.
    pub crashed: usize,
    /// Paths abandoned by the engine.
    pub aborted: usize,
    /// Instrumented instruction blocks executed (sum over paths).
    pub instructions: u64,
    /// Fresh symbolic branches encountered (execution-tree internal nodes).
    pub fresh_branches: u64,
    /// Wall-clock time of the exploration.
    pub wall: Duration,
    /// Solver statistics accumulated over all feasibility checks.
    pub solver: soft_smt::SolverStats,
    /// True if the exploration hit a configured limit before exhaustion.
    pub truncated: bool,
    /// Agent panics caught and recorded as crash paths (a subset of
    /// `crashed`): the agent path blew up in Rust rather than returning
    /// [`Stop::Crash`], and `catch_unwind` converted it.
    pub caught_panics: usize,
    /// Worker-level engine panics (bugs in the exploration machinery
    /// itself, not the agent). Any value above zero also sets `truncated`,
    /// because the frontier may not have been drained.
    pub engine_panics: usize,
}

/// A scheduled-but-unexplored decision prefix recovered from a durability
/// journal (the remaining frontier of an interrupted exploration).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeedPending {
    /// Decision prefix to replay, including the flipped final decision.
    pub prefix: Vec<bool>,
    /// Branch site that scheduled the prefix (informational: it only
    /// feeds strategy heuristics, never the explored path set).
    pub site: String,
}

/// Recovered exploration state to resume from.
///
/// `replay` holds the complete decision sequences of already-explored
/// paths: EGT re-execution makes each one a perfect checkpoint, so the
/// engine re-runs it with the full sequence as the forced prefix — no
/// fresh branches fire, nothing forks, and no feasibility query is
/// issued. `frontier` holds the prefixes that were scheduled but never
/// explored; only these drive new exploration. An exhaustive resumed run
/// therefore produces exactly the path set of an uninterrupted run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ResumeSeed {
    /// Complete decision sequences of journaled paths, to re-execute
    /// concretely.
    pub replay: Vec<Vec<bool>>,
    /// Scheduled-but-unexplored prefixes (the remaining frontier).
    pub frontier: Vec<SeedPending>,
}

impl ResumeSeed {
    /// True when the seed carries no state (fresh exploration).
    pub fn is_empty(&self) -> bool {
        self.replay.is_empty() && self.frontier.is_empty()
    }
}

/// Observer notified once per *newly explored* path (replayed paths are
/// skipped — they are already on record). This is the write-ahead-journal
/// hook: `origin` is the frontier prefix the path was scheduled under,
/// `pending` the sibling prefixes the path scheduled in turn. Together
/// they let a recovery reconstruct the exact remaining frontier:
/// `({root} ∪ all pendings) − all origins`.
///
/// Implementations must be `Sync`: parallel workers invoke the sink
/// concurrently, in completion order.
pub trait PathSink<Out>: Sync {
    /// Called after a non-replay path finishes, before it is merged into
    /// the shared accumulators (write-ahead ordering).
    fn on_path(&self, origin: &[bool], result: &PathResult<Out>, pending: &[(Vec<bool>, &str)]);
}

/// The outcome of exploring a program.
#[derive(Debug, Clone)]
pub struct Exploration<Out> {
    /// All explored paths.
    pub paths: Vec<PathResult<Out>>,
    /// Union coverage over all paths.
    pub coverage: Coverage,
    /// Statistics.
    pub stats: ExplorationStats,
}

impl<Out> Exploration<Out> {
    /// Paths that completed or crashed (i.e. represent real agent behaviour,
    /// not engine artifacts).
    pub fn effective_paths(&self) -> impl Iterator<Item = &PathResult<Out>> {
        self.paths
            .iter()
            .filter(|p| !matches!(p.outcome, PathOutcome::Aborted(_)))
    }

    /// Average and maximum constraint size (boolean-operation count per
    /// path condition), as reported in Table 2.
    pub fn constraint_size_stats(&self) -> (f64, u64) {
        let sizes: Vec<u64> = self
            .effective_paths()
            .map(|p| soft_smt::metrics::op_count(&p.condition_term()))
            .collect();
        if sizes.is_empty() {
            return (0.0, 0);
        }
        let max = *sizes.iter().max().expect("non-empty");
        let avg = sizes.iter().sum::<u64>() as f64 / sizes.len() as f64;
        (avg, max)
    }
}

/// Explore every path of `program`, using `config.workers` workers.
///
/// `program` must be deterministic: given the same branch decisions it must
/// take the same actions. It is re-invoked once per path with a fresh
/// context, so any agent state must be (re)constructed inside the closure,
/// and it must be re-invocable from several threads at once (`Fn + Sync`).
/// Each worker owns a private [`Solver`] backed by a [`VerdictCache`]
/// shared across the workers, pulls pending decision prefixes from a shared
/// frontier, and re-executes the program against them. Re-execution
/// forking makes every path run independent, so the only shared mutable
/// state is the frontier and the result accumulators, both merged under
/// one lock.
///
/// The returned paths are canonically sorted by decision prefix, so an
/// exhaustive exploration yields an identical [`Exploration`] (paths,
/// coverage, aggregate counters) no matter how many workers ran it.
/// Truncated runs (`max_paths` / `time_limit`) stay deterministic only at
/// one worker: under parallelism *which* paths get in before the limit
/// depends on thread timing.
pub fn explore<Out, F>(config: &ExplorerConfig, program: F) -> Exploration<Out>
where
    Out: Send,
    F: Fn(&mut ExecCtx<'_, Out>) -> RunEnd + Sync,
{
    explore_seeded(config, program, None, None)
}

/// Seed a frontier from recovered journal state, or with the root prefix
/// for a fresh exploration. Journaled sites arrive as owned strings while
/// [`Pending`] carries `&'static str`; the handful of recovered sites are
/// leaked (bounded by the frontier size, once per resume) — they only
/// feed strategy heuristics.
fn seed_frontier(frontier: &mut Frontier, seed: Option<&ResumeSeed>) {
    match seed {
        Some(s) if !s.is_empty() => {
            for decisions in &s.replay {
                frontier.push(Pending {
                    prefix: decisions.clone(),
                    site: "<replay>",
                    replay: true,
                });
            }
            for p in &s.frontier {
                frontier.push(Pending {
                    prefix: p.prefix.clone(),
                    site: Box::leak(p.site.clone().into_boxed_str()),
                    replay: false,
                });
            }
        }
        _ => frontier.push(Pending {
            prefix: Vec::new(),
            site: "<root>",
            replay: false,
        }),
    }
}

/// Report a freshly explored path to the sink (replays are already on
/// record). Called *before* the path is merged into the shared
/// accumulators, giving write-ahead ordering: a path is journaled no
/// later than its siblings become claimable.
fn notify_sink<Out>(sink: Option<&dyn PathSink<Out>>, replay: bool, fin: &FinishedPath<Out>) {
    let Some(s) = sink else { return };
    if replay {
        return;
    }
    let pending: Vec<(Vec<bool>, &str)> = fin
        .pending
        .iter()
        .map(|p| (p.prefix.clone(), p.site))
        .collect();
    s.on_path(&fin.origin, &fin.result, &pending);
}

/// Execute the program on one path, converting a Rust panic into a crash
/// outcome (paper parity: agent crashes are observable outputs to
/// crosscheck, not process aborts). Returns the outcome and whether it
/// came from a caught panic.
///
/// `AssertUnwindSafe` is sound here: on panic the context is *kept* and
/// finalized, and every `ExecCtx` mutation (trace push, path-condition
/// push, coverage insert) is atomic with respect to unwinding — the
/// context is always a consistent snapshot of the path up to the panic
/// point. The panicking re-execution is deterministic per decision
/// prefix, so crash paths reproduce like any other path.
fn run_isolated<Out, F>(ctx: &mut ExecCtx<'_, Out>, program: &F) -> (PathOutcome, bool)
where
    F: Fn(&mut ExecCtx<'_, Out>) -> RunEnd,
{
    match std::panic::catch_unwind(AssertUnwindSafe(|| program(ctx))) {
        Ok(Ok(())) => (PathOutcome::Completed, false),
        Ok(Err(Stop::Crash(m))) => (PathOutcome::Crashed(m), false),
        Ok(Err(Stop::Abort(m))) => (PathOutcome::Aborted(m), false),
        Err(payload) => (
            PathOutcome::Crashed(format!("panic: {}", panic_message(payload.as_ref()))),
            true,
        ),
    }
}

/// Fold one finished path into the exploration accumulators.
fn merge_finished<Out>(
    stats: &mut ExplorationStats,
    coverage: &mut Coverage,
    frontier: &mut Frontier,
    paths: &mut Vec<PathResult<Out>>,
    fin: FinishedPath<Out>,
) {
    match fin.result.outcome {
        PathOutcome::Completed => stats.completed += 1,
        PathOutcome::Crashed(_) => stats.crashed += 1,
        PathOutcome::Aborted(_) => stats.aborted += 1,
    }
    stats.instructions += fin.instructions;
    stats.fresh_branches += fin.fresh_branches;
    if fin.deadline_hit {
        stats.truncated = true;
    }
    coverage.merge_path(&fin.result.coverage);
    paths.push(fin.result);
    for p in fin.pending {
        frontier.push(p);
    }
}

/// Shared accumulator the workers merge into.
struct SharedExploration<Out> {
    frontier: Frontier,
    coverage: Coverage,
    paths: Vec<PathResult<Out>>,
    stats: ExplorationStats,
    /// Paths claimed by workers (counted at claim time so `max_paths` is
    /// enforced before a path runs).
    claimed: usize,
    /// Paths currently executing outside the lock; the frontier is only
    /// exhausted once it is empty *and* nothing is in flight.
    in_flight: usize,
    /// Set when a limit fires; all workers drain out.
    stop: bool,
    /// Workers blocked on the `work_ready` condvar.
    idle: usize,
}

impl<Out> SharedExploration<Out> {
    /// Wake the idle workers, if any. Every waiter registers in `idle`
    /// under the lock the caller holds, so no wake-up is lost; skipping
    /// the notify when nobody waits keeps a one-worker exploration (e.g.
    /// every concrete replay) free of futex syscalls.
    fn wake_idle(&self, work_ready: &Condvar) {
        if self.idle > 0 {
            work_ready.notify_all();
        }
    }
}

/// One worker's claim/execute/merge loop. Runs until the frontier is
/// drained (empty with nothing in flight) or `stop` is raised.
#[allow(clippy::too_many_arguments)] // private plumbing shared by every worker
fn worker_loop<Out, F>(
    config: &ExplorerConfig,
    program: &F,
    shared: &Mutex<SharedExploration<Out>>,
    work_ready: &Condvar,
    cache: &Arc<VerdictCache>,
    sink: Option<&dyn PathSink<Out>>,
    start: Instant,
    deadline: Option<Instant>,
) where
    F: Fn(&mut ExecCtx<'_, Out>) -> RunEnd,
{
    let mut solver = Solver::with_cache(Arc::clone(cache));
    solver.budget = config.solver_budget;
    let mut guard = recover(shared);
    loop {
        if guard.stop {
            break;
        }
        let state = &mut *guard;
        match state.frontier.pop(&state.coverage) {
            Some(pending) => {
                let over_limit = config
                    .max_paths
                    .map(|max| state.claimed >= max)
                    .unwrap_or(false)
                    || config
                        .time_limit
                        .map(|limit| start.elapsed() > limit)
                        .unwrap_or(false);
                if over_limit {
                    state.stats.truncated = true;
                    state.stop = true;
                    // Put the prefix back so the final
                    // frontier-drained check stays truthful.
                    state.frontier.push(pending);
                    state.wake_idle(work_ready);
                    break;
                }
                state.claimed += 1;
                state.in_flight += 1;
                drop(guard);

                let replay = pending.replay;
                let mut ctx: ExecCtx<'_, Out> =
                    ExecCtx::new(pending.prefix, &mut solver, config.max_depth, deadline);
                let (outcome, panicked) = run_isolated(&mut ctx, program);
                let fin = ctx.finish(outcome);
                notify_sink(sink, replay, &fin);

                guard = recover(shared);
                let state = &mut *guard;
                state.in_flight -= 1;
                if panicked {
                    state.stats.caught_panics += 1;
                }
                merge_finished(
                    &mut state.stats,
                    &mut state.coverage,
                    &mut state.frontier,
                    &mut state.paths,
                    fin,
                );
                // New prefixes may be available, and if this was
                // the last in-flight path the idlers must wake to
                // notice completion.
                state.wake_idle(work_ready);
            }
            None => {
                if state.in_flight == 0 {
                    state.wake_idle(work_ready);
                    break;
                }
                state.idle += 1;
                guard = work_ready.wait(guard).unwrap_or_else(|e| e.into_inner());
                guard.idle -= 1;
            }
        }
    }
    guard.stats.solver.merge(&solver.stats);
}

/// [`explore`] with resume support: `seed` replays journaled paths and
/// restores the remaining frontier, `sink` observes each newly explored
/// path (the write-ahead-journal hook). An exhaustive seeded exploration
/// yields the same canonical [`Exploration`] as an unseeded one, for
/// every worker count — replayed paths contribute their recorded results
/// and fork nothing, seeded frontier prefixes explore exactly the paths
/// the interrupted run still owed.
///
/// The calling thread is worker 0 and `config.workers - 1` scoped threads
/// join it, so one worker runs the same loop and spawns no thread.
pub fn explore_seeded<Out, F>(
    config: &ExplorerConfig,
    program: F,
    seed: Option<&ResumeSeed>,
    sink: Option<&dyn PathSink<Out>>,
) -> Exploration<Out>
where
    Out: Send,
    F: Fn(&mut ExecCtx<'_, Out>) -> RunEnd + Sync,
{
    let start = Instant::now();
    let deadline = config.time_limit.map(|l| start + l);
    let cache = Arc::new(VerdictCache::new());
    let mut frontier = Frontier::new(config.strategy, config.seed);
    seed_frontier(&mut frontier, seed);
    let shared = Mutex::new(SharedExploration {
        frontier,
        coverage: Coverage::new(),
        paths: Vec::new(),
        stats: ExplorationStats::default(),
        claimed: 0,
        in_flight: 0,
        stop: false,
        idle: 0,
    });
    let work_ready = Condvar::new();
    let worker = || {
        // Two containment rings: `run_isolated` (inside the loop) catches
        // *agent* panics per path, and this outer catch contains *engine*
        // panics so one broken worker cannot strand its siblings on the
        // condvar or leave the shared state claimed-but-never-merged.
        let run = AssertUnwindSafe(|| {
            worker_loop(
                config,
                &program,
                &shared,
                &work_ready,
                &cache,
                sink,
                start,
                deadline,
            )
        });
        if std::panic::catch_unwind(run).is_err() {
            let mut guard = recover(&shared);
            guard.stats.engine_panics += 1;
            guard.stats.truncated = true;
            // The panicked worker may have leaked an `in_flight` claim;
            // `stop` makes every waiter drain out anyway.
            guard.stop = true;
            work_ready.notify_all();
        }
    };
    std::thread::scope(|scope| {
        for _ in 1..config.workers {
            scope.spawn(worker);
        }
        worker();
    });

    let mut state = shared.into_inner().unwrap_or_else(|e| e.into_inner());
    if !state.frontier.is_empty() {
        state.stats.truncated = true;
    }
    state.paths.sort_by(|a, b| a.decisions.cmp(&b.decisions));
    state.stats.paths = state.paths.len();
    state.stats.wall = start.elapsed();
    Exploration {
        paths: state.paths,
        coverage: state.coverage,
        stats: state.stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use soft_smt::Term;

    /// A three-way toy program mirroring Figure 1's Agent 1.
    fn agent1(ctx: &mut ExecCtx<'_, &'static str>) -> RunEnd {
        let p = Term::var("ex.p", 16);
        ctx.cover("entry");
        if ctx.branch("is_ctrl", &p.clone().eq(Term::bv_const(16, 0xfffd)))? {
            ctx.cover("ctrl");
            ctx.emit("CTRL");
        } else if ctx.branch("is_small", &p.clone().ult(Term::bv_const(16, 25)))? {
            ctx.cover("fwd");
            ctx.emit("FWD");
        } else {
            ctx.cover("err");
            ctx.emit("ERR");
        }
        Ok(())
    }

    #[test]
    fn explores_all_three_paths() {
        let ex = explore(&ExplorerConfig::default(), agent1);
        assert_eq!(ex.stats.paths, 3);
        assert_eq!(ex.stats.completed, 3);
        let mut outputs: Vec<&str> = ex.paths.iter().map(|p| p.trace[0]).collect();
        outputs.sort_unstable();
        assert_eq!(outputs, vec!["CTRL", "ERR", "FWD"]);
        assert!(!ex.stats.truncated);
    }

    #[test]
    fn path_conditions_partition_the_input_space() {
        let ex = explore(&ExplorerConfig::default(), agent1);
        // Conditions must be pairwise disjoint and jointly exhaustive.
        let mut solver = Solver::new();
        let terms: Vec<Term> = ex.paths.iter().map(|p| p.condition_term()).collect();
        for i in 0..terms.len() {
            for j in (i + 1)..terms.len() {
                assert!(
                    solver.intersect(&terms[i], &terms[j]).is_unsat(),
                    "paths {i} and {j} overlap"
                );
            }
        }
        let union = soft_smt::simplify::mk_or_balanced(&terms);
        assert!(
            solver.check_one(&union.not()).is_unsat(),
            "partition has a gap"
        );
    }

    #[test]
    fn concrete_branches_do_not_fork() {
        let ex = explore(&ExplorerConfig::default(), |ctx: &mut ExecCtx<'_, u32>| {
            let c = Term::bv_const(8, 3);
            if ctx.branch("const", &c.clone().ult(Term::bv_const(8, 5)))? {
                ctx.emit(1);
            } else {
                ctx.emit(2);
            }
            Ok(())
        });
        assert_eq!(ex.stats.paths, 1);
        assert_eq!(ex.paths[0].trace, vec![1]);
        assert!(ex.paths[0].condition.is_empty());
    }

    #[test]
    fn crash_paths_are_recorded() {
        let ex = explore(&ExplorerConfig::default(), |ctx: &mut ExecCtx<'_, u32>| {
            let x = Term::var("cr.x", 8);
            if ctx.branch("boom", &x.clone().eq(Term::bv_const(8, 0xee)))? {
                return Err(Stop::crash("segfault in vlan handling"));
            }
            ctx.emit(0);
            Ok(())
        });
        assert_eq!(ex.stats.paths, 2);
        assert_eq!(ex.stats.crashed, 1);
        assert_eq!(ex.stats.completed, 1);
        let crash = ex
            .paths
            .iter()
            .find(|p| matches!(p.outcome, PathOutcome::Crashed(_)))
            .unwrap();
        // The crash path's condition must force x == 0xee.
        let mut s = Solver::new();
        let m = s.check_one(&crash.condition_term());
        assert_eq!(m.model().unwrap().get("cr.x"), Some(0xee));
    }

    #[test]
    fn max_paths_truncates() {
        let cfg = ExplorerConfig {
            max_paths: Some(2),
            ..Default::default()
        };
        let ex = explore(&cfg, |ctx: &mut ExecCtx<'_, u32>| {
            let x = Term::var("tr.x", 8);
            // 256-way case split via 8 nested branches.
            for i in 0..8 {
                let bit = x.clone().extract(i, i);
                ctx.branch("bit", &bit.eq(Term::bv_const(1, 1)))?;
            }
            ctx.emit(0);
            Ok(())
        });
        assert_eq!(ex.stats.paths, 2);
        assert!(ex.stats.truncated);
    }

    #[test]
    fn assume_prunes_infeasible_paths() {
        let ex = explore(&ExplorerConfig::default(), |ctx: &mut ExecCtx<'_, u32>| {
            let x = Term::var("as.x", 8);
            ctx.assume(&x.clone().ult(Term::bv_const(8, 10)))?;
            if ctx.branch("check", &x.clone().ugt(Term::bv_const(8, 200)))? {
                ctx.emit(99); // unreachable under the assumption
            } else {
                ctx.emit(1);
            }
            Ok(())
        });
        let completed: Vec<_> = ex.effective_paths().collect();
        assert_eq!(completed.len(), 1);
        assert_eq!(completed[0].trace, vec![1]);
    }

    #[test]
    fn concretize_pins_value() {
        let ex = explore(&ExplorerConfig::default(), |ctx: &mut ExecCtx<'_, u64>| {
            let x = Term::var("cc.x", 8);
            ctx.assume(&x.clone().ugt(Term::bv_const(8, 100)))?;
            let v = ctx.concretize(&x)?;
            ctx.emit(v);
            Ok(())
        });
        assert_eq!(ex.stats.paths, 1);
        let v = ex.paths[0].trace[0];
        assert!(v > 100);
        // The pin must be part of the path condition.
        let mut s = Solver::new();
        let m = s.check_one(&ex.paths[0].condition_term());
        assert_eq!(m.model().unwrap().get("cc.x"), Some(v));
    }

    #[test]
    fn all_strategies_explore_exhaustively() {
        for strat in [
            Strategy::Dfs,
            Strategy::Bfs,
            Strategy::Random,
            Strategy::CoverageInterleaved,
        ] {
            let cfg = ExplorerConfig {
                strategy: strat,
                ..Default::default()
            };
            let ex = explore(&cfg, agent1);
            assert_eq!(ex.stats.paths, 3, "strategy {strat:?} missed paths");
        }
    }

    #[test]
    fn stats_track_instructions_and_branches() {
        let ex = explore(&ExplorerConfig::default(), agent1);
        // 3 paths, each covering "entry" plus one leaf block.
        assert_eq!(ex.stats.instructions, 6);
        // Fresh symbolic branches: is_ctrl (root) + is_small = 2.
        assert_eq!(ex.stats.fresh_branches, 2);
        assert_eq!(ex.coverage.blocks.len(), 4);
    }

    #[test]
    fn one_worker_explores_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let ex = explore(
            &ExplorerConfig::default(),
            |ctx: &mut ExecCtx<'_, std::thread::ThreadId>| {
                let x = Term::var("ct.x", 8);
                ctx.branch("b", &x.eq(Term::bv_const(8, 1)))?;
                ctx.emit(std::thread::current().id());
                Ok(())
            },
        );
        assert_eq!(ex.stats.paths, 2);
        assert!(ex.paths.iter().all(|p| p.trace == vec![caller]));
    }

    #[test]
    fn constraint_size_stats_nonzero() {
        let ex = explore(&ExplorerConfig::default(), agent1);
        let (avg, max) = ex.constraint_size_stats();
        assert!(avg > 0.0);
        assert!(max >= 1);
    }
}
