//! The inconsistency finder (§3.4, §4.2).
//!
//! Takes two grouped result sets (one per agent), iterates over all pairs
//! of *different* output results, and asks the solver whether the
//! conjunction `C_A(i) ∧ C_B(j)` is satisfiable. A satisfiable pair is an
//! inconsistency: a common input subspace on which the two agents behave
//! differently. The solver model is the concrete reproduction test case.
//!
//! No false positives by construction: a model pins the input bytes to
//! values that — by the per-agent path conditions — drive agent A to
//! output `i` and agent B to output `j ≠ i`.

use crate::group::GroupedResults;
use soft_harness::{par_map, ObservedOutput};
use soft_protocol::TraceEvent;
use soft_smt::{Assignment, Op, SatResult, Solver, SolverBudget, SolverStats, Term, VerdictCache};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Budget growth factor per retry rung: rung `n` re-solves under the base
/// budget scaled by `RETRY_FACTOR^n`.
pub const RETRY_FACTOR: u64 = 4;

/// Condition under which two (possibly symbolic) outputs take *different
/// concrete values*.
///
/// Outputs may embed symbolic input expressions ("the output data may even
/// contain symbolic inputs", §3.3). Two structurally different outputs —
/// say `Tx{port: in_port}` vs `Tx{port: action_port}` — can still agree on
/// the sliver of input space where the embedded expressions coincide, and
/// a witness drawn from that sliver would be a false positive. The
/// inconsistency query therefore conjoins this disequality constraint, so
/// every witness provably makes the observable outputs differ.
fn outputs_differ(a: &ObservedOutput, b: &ObservedOutput) -> Term {
    if a.crashed != b.crashed || a.events.len() != b.events.len() {
        return Term::bool_true();
    }
    let mut diff = Term::bool_false();
    for (ea, eb) in a.events.iter().zip(&b.events) {
        diff = diff.or(event_differs(ea, eb));
        if diff.as_bool_const() == Some(true) {
            return diff;
        }
    }
    diff
}

fn terms_differ(a: &Term, b: &Term) -> Term {
    if a == b {
        Term::bool_false()
    } else if a.width() != b.width() {
        Term::bool_true()
    } else {
        a.clone().ne(b.clone())
    }
}

fn bufs_differ(a: &soft_sym::SymBuf, b: &soft_sym::SymBuf) -> Term {
    if a.len() != b.len() {
        return Term::bool_true();
    }
    let mut diff = Term::bool_false();
    for (x, y) in a.bytes().iter().zip(b.bytes()) {
        diff = diff.or(terms_differ(x, y));
        if diff.as_bool_const() == Some(true) {
            break;
        }
    }
    diff
}

fn event_differs(a: &TraceEvent, b: &TraceEvent) -> Term {
    match (a, b) {
        (
            TraceEvent::Error {
                etype: ta,
                code: ca,
                ..
            },
            TraceEvent::Error {
                etype: tb,
                code: cb,
                ..
            },
        ) => terms_differ(ta, tb).or(terms_differ(ca, cb)),
        (
            TraceEvent::PacketIn {
                in_port: ia,
                reason: ra,
                data_len: la,
                data: da,
                ..
            },
            TraceEvent::PacketIn {
                in_port: ib,
                reason: rb,
                data_len: lb,
                data: db,
                ..
            },
        ) => terms_differ(ia, ib)
            .or(terms_differ(ra, rb))
            .or(terms_differ(la, lb))
            .or(bufs_differ(da, db)),
        (
            TraceEvent::OfReply {
                msg_type: ma,
                fields: fa,
                body: ba,
            },
            TraceEvent::OfReply {
                msg_type: mb,
                fields: fb,
                body: bb,
            },
        ) => {
            if ma != mb || fa.len() != fb.len() {
                return Term::bool_true();
            }
            let mut diff = bufs_differ(ba, bb);
            for ((na, ta), (nb, tb)) in fa.iter().zip(fb) {
                if na != nb {
                    return Term::bool_true();
                }
                diff = diff.or(terms_differ(ta, tb));
            }
            diff
        }
        (
            TraceEvent::DataPlaneTx { port: pa, data: da },
            TraceEvent::DataPlaneTx { port: pb, data: db },
        ) => terms_differ(pa, pb).or(bufs_differ(da, db)),
        (
            TraceEvent::Flood {
                exclude_ingress: xa,
                data: da,
            },
            TraceEvent::Flood {
                exclude_ingress: xb,
                data: db,
            },
        ) => {
            if xa != xb {
                Term::bool_true()
            } else {
                bufs_differ(da, db)
            }
        }
        (TraceEvent::NormalForward { data: da }, TraceEvent::NormalForward { data: db }) => {
            bufs_differ(da, db)
        }
        (TraceEvent::ProbeDropped, TraceEvent::ProbeDropped) => Term::bool_false(),
        _ => Term::bool_true(), // different event kinds
    }
}

/// One discovered inconsistency.
#[derive(Debug, Clone)]
pub struct Inconsistency {
    /// Test identifier.
    pub test: String,
    /// First agent.
    pub agent_a: String,
    /// Second agent.
    pub agent_b: String,
    /// Output observed by agent A on the common inputs.
    pub output_a: ObservedOutput,
    /// Output observed by agent B on the common inputs.
    pub output_b: ObservedOutput,
    /// A concrete witness: input-byte assignment reproducing the
    /// divergence.
    pub witness: Assignment,
}

/// An output pair the solver could not decide within its resource budget.
///
/// The pair is neither an inconsistency nor proof of agreement — SOFT
/// reports it as *unverified* so a degraded run never lies in either
/// direction. Re-running with a larger `--solver-budget` retries exactly
/// these pairs (the verdict cache remembers the failed budget and only
/// shortcuts queries it has already failed at an equal-or-larger budget).
#[derive(Debug, Clone)]
pub struct UnverifiedPair {
    /// Test identifier.
    pub test: String,
    /// First agent.
    pub agent_a: String,
    /// Second agent.
    pub agent_b: String,
    /// Output of agent A whose input subspace could not be intersected.
    pub output_a: ObservedOutput,
    /// Output of agent B whose input subspace could not be intersected.
    pub output_b: ObservedOutput,
    /// The budget the query exhausted.
    pub budget: SolverBudget,
}

/// Result of crosschecking two agents on one test.
#[derive(Debug, Clone, Default)]
pub struct CrosscheckResult {
    /// The discovered inconsistencies (one per divergent output pair).
    pub inconsistencies: Vec<Inconsistency>,
    /// Solver queries issued (bounded by |RES_A| * |RES_B|).
    pub queries: usize,
    /// Queries the solver could not decide within budget
    /// (= `unverified.len()`).
    pub unknown: usize,
    /// The undecided pairs, in query order. Never silently dropped: a
    /// budget-exhausted pair is listed here instead of being misreported
    /// as consistent or inconsistent.
    pub unverified: Vec<UnverifiedPair>,
    /// Pairs that came back Unknown at the base budget but were decided
    /// on an escalated retry rung (or recovered already-decided from a
    /// journal written by such a retry).
    pub resolved_on_retry: usize,
    /// Wall-clock time of the intersection phase (Table 3 "Inconsist.
    /// checking" column).
    pub check_time: Duration,
    /// Merged per-worker solver statistics across every pass (base +
    /// escalation rungs), including the incremental-memo counters
    /// (assumption probes, probe clauses, CNF cache hits).
    pub solver: SolverStats,
}

impl CrosscheckResult {
    /// True when every queried pair was decided within budget.
    pub fn fully_verified(&self) -> bool {
        self.unverified.is_empty()
    }
}

/// Options for the inconsistency finder.
#[derive(Debug, Clone)]
pub struct CrosscheckConfig {
    /// Per-query solver resource budget (default: unlimited).
    pub solver_budget: SolverBudget,
    /// Workers for the query matrix: the calling thread plus `jobs - 1`
    /// scoped threads (0 counts as 1). Results are identical for any
    /// value.
    pub jobs: usize,
    /// Budget-escalation retry rungs for Unknown verdicts: after the base
    /// pass, each still-undecided pair is re-solved up to this many times
    /// under a budget growing by [`RETRY_FACTOR`] per rung (default 0 = no
    /// retries; a no-op when the base budget is unlimited).
    pub retry_rungs: u32,
    /// Give each worker an incremental CNF memo (default: true). Only
    /// takes effect on passes whose budget is unlimited — probe outcomes
    /// under a finite budget could upgrade a canonical Unknown and would
    /// then depend on worker claim order, which
    /// would break the jobs-count determinism guarantee. Verdicts and
    /// artifacts are byte-identical either way; this is purely a speed
    /// lever.
    pub incremental: bool,
}

impl Default for CrosscheckConfig {
    fn default() -> Self {
        CrosscheckConfig {
            solver_budget: SolverBudget::unlimited(),
            jobs: 1,
            retry_rungs: 0,
            incremental: true,
        }
    }
}

/// Observer notified once per decided-or-exhausted verdict, in pair
/// order, as each solving pass completes — the write-ahead hook the
/// crosscheck journal plugs into. Implementations must be `Sync`.
pub trait VerdictSink: Sync {
    /// One pair's final verdict for this pass. `i`/`j` are group indices
    /// into the two result sets; `budget` is the budget the verdict was
    /// produced under.
    fn on_verdict(&self, i: usize, j: usize, verdict: &SatResult, budget: &SolverBudget);
}

/// A closure observing [`VerdictSink::on_verdict`] is a sink, e.g. one
/// appending each verdict to a journal.
impl<F> VerdictSink for F
where
    F: Fn(usize, usize, &SatResult, &SolverBudget) + Sync,
{
    fn on_verdict(&self, i: usize, j: usize, verdict: &SatResult, budget: &SolverBudget) {
        self(i, j, verdict, budget)
    }
}

/// Verdicts recovered from a crosscheck journal, keyed by group-index
/// pair. Seeded verdicts short-circuit re-solving on resume: decided
/// verdicts are final, and an Unknown is reusable only for budgets the
/// recorded attempt already covers.
#[derive(Debug, Clone, Default)]
pub struct CheckSeeds {
    map: std::collections::HashMap<(usize, usize), (SatResult, SolverBudget)>,
}

impl CheckSeeds {
    /// Empty seed set.
    pub fn new() -> Self {
        CheckSeeds::default()
    }

    /// Number of seeded pairs.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True if no verdicts are seeded.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Record one journaled verdict. Later records supersede earlier ones
    /// only when they carry more information: a decided verdict replaces
    /// an Unknown, and a bigger-budget Unknown replaces a smaller one —
    /// so a journal holding both a base-pass Unknown and a retry-rung
    /// decision for the same pair resolves to the decision.
    pub fn insert(&mut self, i: usize, j: usize, verdict: SatResult, budget: SolverBudget) {
        use std::collections::hash_map::Entry;
        match self.map.entry((i, j)) {
            Entry::Vacant(e) => {
                e.insert((verdict, budget));
            }
            Entry::Occupied(mut e) => {
                let (old_v, old_b) = e.get();
                let supersedes = match (&verdict, old_v) {
                    (SatResult::Unknown, SatResult::Unknown) => budget.covers(old_b),
                    (SatResult::Unknown, _) => false,
                    (_, SatResult::Unknown) => true,
                    // Two decided verdicts for one pair: keep the first
                    // (they must agree; the replay validation on the
                    // artifacts guards the inputs).
                    _ => false,
                };
                if supersedes {
                    e.insert((verdict, budget));
                }
            }
        }
    }

    fn get(&self, i: usize, j: usize) -> Option<&(SatResult, SolverBudget)> {
        self.map.get(&(i, j))
    }
}

/// Crosscheck two grouped result sets.
///
/// The |RES_A| × |RES_B| query matrix is embarrassingly parallel: the
/// pairs are fanned across `cfg.jobs` workers, each owning a private
/// [`Solver`] backed by a shared verdict cache, and the verdicts are
/// merged back in pair order — the inconsistency set (including the concrete
/// witnesses) is identical for every job count, because solver models are
/// pure functions of the canonicalized assertion set.
pub fn crosscheck(
    a: &GroupedResults,
    b: &GroupedResults,
    cfg: &CrosscheckConfig,
) -> CrosscheckResult {
    crosscheck_durable(a, b, cfg, None, None)
}

/// [`crosscheck`] with journal support: `seeds` short-circuits pairs whose
/// verdicts were recovered from a crosscheck journal, `sink` observes each
/// newly produced verdict (in pair order, once per solving pass) so the
/// journal can persist it. After the base pass, `cfg.retry_rungs` extra
/// passes re-solve the still-Unknown pairs under geometrically escalated
/// budgets — all passes share one verdict cache, whose budget-aware
/// semantics guarantee a small-budget Unknown never masks a bigger-budget
/// re-solve.
pub fn crosscheck_durable(
    a: &GroupedResults,
    b: &GroupedResults,
    cfg: &CrosscheckConfig,
    seeds: Option<&CheckSeeds>,
    sink: Option<&dyn VerdictSink>,
) -> CrosscheckResult {
    assert_eq!(a.test, b.test, "crosschecking different tests");
    let start = Instant::now();
    // Build the pair list (and its `outputs_differ` terms) up front and
    // sequentially: term construction is shared-interner work, and doing it
    // once keeps the parallel section pure solver queries.
    let mut pairs: Vec<(usize, usize, Term)> = Vec::new();
    for (i, ga) in a.groups.iter().enumerate() {
        for (j, gb) in b.groups.iter().enumerate() {
            if ga.output == gb.output {
                continue;
            }
            // Require that the outputs differ *semantically* on the
            // witness, not just structurally in their symbolic form.
            let differ = outputs_differ(&ga.output, &gb.output);
            if differ.as_bool_const() == Some(false) {
                continue; // structurally distinct but semantically identical
            }
            pairs.push((i, j, differ));
        }
    }

    // One (verdict, budget) slot per pair. Journaled verdicts pre-fill
    // their slots: decided ones are final; an Unknown is kept only if the
    // recorded attempt already covers the base budget (otherwise the base
    // pass must genuinely retry it).
    let mut slots: Vec<Option<(SatResult, SolverBudget)>> = pairs
        .iter()
        .map(|(i, j, _)| match seeds.and_then(|s| s.get(*i, *j)) {
            Some((v, b)) if !matches!(v, SatResult::Unknown) => Some((v.clone(), *b)),
            Some((SatResult::Unknown, b)) if b.covers(&cfg.solver_budget) => {
                Some((SatResult::Unknown, *b))
            }
            _ => None,
        })
        .collect();

    // All passes share one budget-aware verdict cache: verdicts decided in
    // the base pass shortcut identical queries on retry rungs, while
    // Unknowns recorded under a smaller budget never suppress a re-solve
    // under a larger one.
    let cache = Arc::new(VerdictCache::new());

    // Base pass: everything the seeds did not settle.
    let todo: Vec<usize> = (0..pairs.len()).filter(|&k| slots[k].is_none()).collect();
    let mut stats = SolverStats::default();
    solve_pass(
        a,
        b,
        &pairs,
        &mut slots,
        &todo,
        cfg.solver_budget,
        cfg,
        &cache,
        &mut stats,
    );
    notify_sink(sink, &pairs, &slots, &todo);

    // Escalation ladder: geometrically larger budgets for the leftovers.
    // Unlimited base budgets have nothing to escalate.
    if !cfg.solver_budget.is_unlimited() {
        let mut last_budget = cfg.solver_budget;
        for rung in 1..=cfg.retry_rungs {
            let budget = cfg.solver_budget.scaled(RETRY_FACTOR.saturating_pow(rung));
            // Saturation made this rung no bigger than the last attempt:
            // further rungs cannot make progress.
            if last_budget.covers(&budget) {
                break;
            }
            let todo: Vec<usize> = (0..pairs.len())
                .filter(|&k| match &slots[k] {
                    // Re-solve Unknowns whose deciding attempt was smaller
                    // than this rung (journal-recovered Unknowns may
                    // already cover it).
                    Some((SatResult::Unknown, b)) => !b.covers(&budget),
                    Some(_) => false,
                    None => true,
                })
                .collect();
            if todo.is_empty() {
                break;
            }
            solve_pass(
                a, b, &pairs, &mut slots, &todo, budget, cfg, &cache, &mut stats,
            );
            notify_sink(sink, &pairs, &slots, &todo);
            last_budget = budget;
        }
    }

    let mut out = CrosscheckResult {
        solver: stats,
        ..CrosscheckResult::default()
    };
    for ((i, j, _), slot) in pairs.iter().zip(&slots) {
        out.queries += 1;
        let (verdict, budget) = slot
            .as_ref()
            .expect("every pair gets a slot in the base pass");
        match verdict {
            SatResult::Sat(witness) => {
                if *budget != cfg.solver_budget {
                    out.resolved_on_retry += 1;
                }
                out.inconsistencies.push(Inconsistency {
                    test: a.test.clone(),
                    agent_a: a.agent.clone(),
                    agent_b: b.agent.clone(),
                    output_a: a.groups[*i].output.clone(),
                    output_b: b.groups[*j].output.clone(),
                    witness: witness.as_ref().clone(),
                });
            }
            SatResult::Unsat => {
                if *budget != cfg.solver_budget {
                    out.resolved_on_retry += 1;
                }
            }
            SatResult::Unknown => {
                out.unknown += 1;
                out.unverified.push(UnverifiedPair {
                    test: a.test.clone(),
                    agent_a: a.agent.clone(),
                    agent_b: b.agent.clone(),
                    output_a: a.groups[*i].output.clone(),
                    output_b: b.groups[*j].output.clone(),
                    // The final (largest) budget the pair exhausted.
                    budget: *budget,
                });
            }
        }
    }
    out.check_time = start.elapsed();
    out
}

/// Report the verdicts a pass just produced, in pair order, so the
/// journal bytes are deterministic for every job count.
fn notify_sink(
    sink: Option<&dyn VerdictSink>,
    pairs: &[(usize, usize, Term)],
    slots: &[Option<(SatResult, SolverBudget)>],
    solved: &[usize],
) {
    if let Some(s) = sink {
        for &k in solved {
            let (i, j, _) = &pairs[k];
            if let Some((verdict, budget)) = &slots[k] {
                s.on_verdict(*i, *j, verdict, budget);
            }
        }
    }
}

/// Construct one pass-lifetime pair-query solver. This is the *single*
/// place crosscheck builds a [`Solver`] (`tools/lint_fresh_solver.sh`
/// gates against throwaway per-pair construction): a worker's solver
/// lives for the whole pass, and with `incremental` it carries a CNF
/// memo so the pairs it claims share the bit-blasting of their group
/// conditions. Callers own the gating rule: pass
/// `incremental` only when the pass budget is unlimited (see
/// [`CrosscheckConfig::incremental`]).
fn worker_solver(cache: Arc<VerdictCache>, budget: SolverBudget, incremental: bool) -> Solver {
    let mut solver = Solver::with_cache(cache); // lint-exempt: pass-lifetime worker
    solver.budget = budget;
    if incremental {
        solver.enable_incremental();
    }
    solver
}

/// The `todo` pairs in the order [`solve_pass`] hands them to its
/// workers. A worker's fresh solve keeps the encoding of a query's first
/// residual conjunct resident for the next query that starts with it, so
/// pairs whose canonical queries share their first conjunct are handed
/// out one after another, in `todo` order. The key is a cheap guess at
/// that conjunct (the leftmost conjunct of the first non-`true` term in
/// canonical order, before simplification): it decides only how often
/// the resident encoding is reused, never a verdict.
fn schedule(
    a: &GroupedResults,
    b: &GroupedResults,
    pairs: &[(usize, usize, Term)],
    todo: &[usize],
) -> Vec<usize> {
    let mut runs: Vec<Vec<usize>> = Vec::new();
    let mut run_of: HashMap<Option<u64>, usize> = HashMap::new();
    for &k in todo {
        let (i, j, differ) = &pairs[k];
        let key = [&a.groups[*i].condition, &b.groups[*j].condition, differ]
            .into_iter()
            .filter(|t| t.as_bool_const() != Some(true))
            .min_by(|x, y| x.structural_cmp(y))
            .map(|mut t| {
                while let Op::And(l, _) = t.op() {
                    t = l;
                }
                t.id()
            });
        let r = *run_of.entry(key).or_insert_with(|| {
            runs.push(Vec::new());
            runs.len() - 1
        });
        runs[r].push(k);
    }
    runs.concat()
}

/// Solve the `todo` subset of the pair matrix under `budget`, filling the
/// corresponding slots. The pairs are fanned over `cfg.jobs` workers in
/// the order of [`schedule`], one at a time, each worker with its own
/// [`worker_solver`], and verdicts are written back by pair index, so the
/// merge order is independent of scheduling. Each worker's solver
/// statistics are merged into `stats` when the pass completes. A worker
/// panic is not contained: it reaches the caller and aborts the pass.
#[allow(clippy::too_many_arguments)] // private plumbing shared by every pass
fn solve_pass(
    a: &GroupedResults,
    b: &GroupedResults,
    pairs: &[(usize, usize, Term)],
    slots: &mut [Option<(SatResult, SolverBudget)>],
    todo: &[usize],
    budget: SolverBudget,
    cfg: &CrosscheckConfig,
    cache: &Arc<VerdictCache>,
    stats: &mut SolverStats,
) {
    if todo.is_empty() {
        return;
    }
    let incremental = cfg.incremental && budget.is_unlimited();
    let order = schedule(a, b, pairs, todo);
    let (verdicts, solvers) = par_map(
        cfg.jobs,
        &order,
        || worker_solver(Arc::clone(cache), budget, incremental),
        |solver, &k| {
            let (i, j, differ) = &pairs[k];
            solver.check(&[
                a.groups[*i].condition.clone(),
                b.groups[*j].condition.clone(),
                differ.clone(),
            ])
        },
    );
    for (&k, v) in order.iter().zip(verdicts) {
        slots[k] = Some((v, budget));
    }
    for solver in &solvers {
        stats.merge(&solver.stats);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::group::group_paths;
    use soft_harness::PathRecord;
    use soft_protocol::TraceEvent;
    use soft_smt::Term;

    fn out(tag: u16) -> ObservedOutput {
        ObservedOutput {
            events: vec![TraceEvent::Error {
                xid: Term::bv_const(32, 0),
                etype: Term::bv_const(16, 1),
                code: Term::bv_const(16, tag as u64),
            }],
            crashed: false,
        }
    }

    fn path(cond: Term, o: ObservedOutput) -> PathRecord {
        PathRecord {
            constraint_size: soft_smt::metrics::op_count(&cond),
            condition: cond,
            output: o,
        }
    }

    /// The Figure 1/2 worked example: agent 1 treats OFPP_CONTROLLER
    /// specially, agent 2 does not — crosschecking finds exactly the
    /// p == 0xfffd inconsistency.
    #[test]
    fn figure2_example_found() {
        let p = Term::var("cc.p", 16);
        let ctrl = Term::bv_const(16, 0xfffd);
        let small = Term::bv_const(16, 25);
        // Agent 1: FWD for p < 25; CTRL for p == 0xfffd; ERR otherwise.
        let a = group_paths(
            "agent1",
            "t",
            &[
                path(p.clone().ult(small.clone()), out(100)), // FWD
                path(p.clone().eq(ctrl.clone()), out(200)),   // CTRL
                path(
                    p.clone().uge(small.clone()).and(p.clone().ne(ctrl.clone())),
                    out(300), // ERR
                ),
            ],
        )
        .expect("grouping");
        // Agent 2: FWD for p < 25; ERR otherwise.
        let b = group_paths(
            "agent2",
            "t",
            &[
                path(p.clone().ult(small.clone()), out(100)),
                path(p.clone().uge(small.clone()), out(300)),
            ],
        )
        .expect("grouping");
        let r = crosscheck(&a, &b, &CrosscheckConfig::default());
        assert_eq!(r.inconsistencies.len(), 1, "exactly the CTRL divergence");
        let inc = &r.inconsistencies[0];
        assert_eq!(inc.witness.get("cc.p"), Some(0xfffd));
        assert_eq!(inc.output_a, out(200));
        assert_eq!(inc.output_b, out(300));
        // Query bound: |RES_A| * |RES_B| minus equal-output pairs.
        assert!(r.queries <= a.num_results() * b.num_results());
    }

    #[test]
    fn identical_agents_have_no_inconsistencies() {
        let p = Term::var("cc2.p", 8);
        let mk = |name: &str| {
            group_paths(
                name,
                "t",
                &[
                    path(p.clone().ult(Term::bv_const(8, 10)), out(1)),
                    path(p.clone().uge(Term::bv_const(8, 10)), out(2)),
                ],
            )
            .expect("grouping")
        };
        let r = crosscheck(&mk("a"), &mk("b"), &CrosscheckConfig::default());
        assert!(r.inconsistencies.is_empty());
        // Off-diagonal pairs are checked but unsatisfiable.
        assert_eq!(r.queries, 2);
    }

    #[test]
    fn witness_satisfies_both_conditions() {
        let p = Term::var("cc3.p", 8);
        let a = group_paths(
            "a",
            "t",
            &[path(p.clone().ult(Term::bv_const(8, 100)), out(1))],
        )
        .expect("grouping");
        let b = group_paths(
            "b",
            "t",
            &[path(p.clone().ugt(Term::bv_const(8, 50)), out(2))],
        )
        .expect("grouping");
        let r = crosscheck(&a, &b, &CrosscheckConfig::default());
        assert_eq!(r.inconsistencies.len(), 1);
        let w = &r.inconsistencies[0].witness;
        assert!(w.eval_bool(&a.groups[0].condition));
        assert!(w.eval_bool(&b.groups[0].condition));
    }

    #[test]
    #[should_panic(expected = "different tests")]
    fn mismatched_tests_rejected() {
        let a = group_paths("a", "t1", &[]).expect("grouping");
        let b = group_paths("b", "t2", &[]).expect("grouping");
        crosscheck(&a, &b, &CrosscheckConfig::default());
    }

    #[test]
    fn budget_exhausted_pair_listed_as_unverified() {
        // A sum-of-squares equation the CDCL search cannot settle within a
        // one-conflict budget (same shape as the smt crate's hard query).
        let xs: Vec<Term> = (0..12).map(|i| Term::var(format!("cc5.h{i}"), 8)).collect();
        let mut sum = Term::bv_const(8, 0);
        for x in &xs {
            sum = sum.bvadd(x.clone().bvmul(x.clone()));
        }
        let hard = sum.eq(Term::bv_const(8, 0x5a));
        let a = group_paths("a", "t", &[path(hard, out(1))]).expect("grouping");
        let b = group_paths(
            "b",
            "t",
            &[path(xs[0].clone().ult(Term::bv_const(8, 200)), out(2))],
        )
        .expect("grouping");
        let capped = crosscheck(
            &a,
            &b,
            &CrosscheckConfig {
                solver_budget: SolverBudget::conflicts(1),
                ..Default::default()
            },
        );
        assert_eq!(capped.queries, 1);
        assert_eq!(capped.unknown, 1, "the capped query must come back Unknown");
        assert_eq!(capped.unverified.len(), 1, "and be listed, not dropped");
        assert!(
            capped.inconsistencies.is_empty(),
            "an undecided pair must never be reported as an inconsistency"
        );
        assert!(!capped.fully_verified());
        let uv = &capped.unverified[0];
        assert_eq!(uv.output_a, out(1));
        assert_eq!(uv.output_b, out(2));
        assert_eq!(uv.budget, SolverBudget::conflicts(1));
        // An unlimited retry decides the very same pair: the subspaces do
        // intersect, so it graduates from unverified to inconsistency.
        let full = crosscheck(&a, &b, &CrosscheckConfig::default());
        assert!(full.fully_verified());
        assert_eq!(full.unknown, 0);
        assert_eq!(full.inconsistencies.len(), 1);
    }

    #[test]
    fn parallel_crosscheck_matches_sequential() {
        // A 3×4 group matrix with every output distinct: 12 queries, many
        // satisfiable, so witnesses exercise the deterministic-model path.
        let p = Term::var("cc4.p", 8);
        let a = group_paths(
            "a",
            "t",
            &[
                path(p.clone().ult(Term::bv_const(8, 50)), out(1)),
                path(
                    p.clone()
                        .uge(Term::bv_const(8, 50))
                        .and(p.clone().ult(Term::bv_const(8, 100))),
                    out(2),
                ),
                path(p.clone().uge(Term::bv_const(8, 100)), out(3)),
            ],
        )
        .expect("grouping");
        let b = group_paths(
            "b",
            "t",
            &[
                path(p.clone().ult(Term::bv_const(8, 30)), out(4)),
                path(
                    p.clone()
                        .uge(Term::bv_const(8, 30))
                        .and(p.clone().ult(Term::bv_const(8, 80))),
                    out(5),
                ),
                path(
                    p.clone()
                        .uge(Term::bv_const(8, 80))
                        .and(p.clone().ult(Term::bv_const(8, 200))),
                    out(6),
                ),
                path(p.clone().uge(Term::bv_const(8, 200)), out(7)),
            ],
        )
        .expect("grouping");
        let seq = crosscheck(&a, &b, &CrosscheckConfig::default());
        assert!(!seq.inconsistencies.is_empty());
        for jobs in [2, 4] {
            let par = crosscheck(
                &a,
                &b,
                &CrosscheckConfig {
                    jobs,
                    ..Default::default()
                },
            );
            assert_eq!(par.queries, seq.queries, "jobs={jobs}");
            assert_eq!(par.unknown, seq.unknown, "jobs={jobs}");
            assert_eq!(
                par.inconsistencies.len(),
                seq.inconsistencies.len(),
                "jobs={jobs}"
            );
            for (x, y) in seq.inconsistencies.iter().zip(&par.inconsistencies) {
                assert_eq!(x.output_a, y.output_a, "jobs={jobs}");
                assert_eq!(x.output_b, y.output_b, "jobs={jobs}");
                assert_eq!(x.witness, y.witness, "jobs={jobs}");
            }
        }
    }

    /// The hard pair from `budget_exhausted_pair_listed_as_unverified`,
    /// reusable for the retry-ladder tests.
    fn hard_pair() -> (GroupedResults, GroupedResults) {
        let xs: Vec<Term> = (0..12).map(|i| Term::var(format!("cc6.h{i}"), 8)).collect();
        let mut sum = Term::bv_const(8, 0);
        for x in &xs {
            sum = sum.bvadd(x.clone().bvmul(x.clone()));
        }
        let hard = sum.eq(Term::bv_const(8, 0x5a));
        let a = group_paths("a", "t", &[path(hard, out(1))]).expect("grouping");
        let b = group_paths(
            "b",
            "t",
            &[path(xs[0].clone().ult(Term::bv_const(8, 200)), out(2))],
        )
        .expect("grouping");
        (a, b)
    }

    #[test]
    fn retry_ladder_decides_what_the_base_budget_could_not() {
        let (a, b) = hard_pair();
        // Base pass alone: Unknown.
        let base = crosscheck(
            &a,
            &b,
            &CrosscheckConfig {
                solver_budget: SolverBudget::conflicts(1),
                ..Default::default()
            },
        );
        assert_eq!(base.unknown, 1);
        assert_eq!(base.resolved_on_retry, 0);
        // With the escalation ladder the same run decides the pair. The
        // passes share one verdict cache, so this also proves a rung-N
        // Unknown cannot mask the rung-(N+1) re-solve — if it did, the
        // pair would stay Unknown forever.
        let laddered = crosscheck(
            &a,
            &b,
            &CrosscheckConfig {
                solver_budget: SolverBudget::conflicts(1),
                retry_rungs: 10,
                ..Default::default()
            },
        );
        assert!(laddered.fully_verified(), "ladder must decide the pair");
        assert_eq!(laddered.unknown, 0);
        assert_eq!(laddered.unverified.len(), 0);
        assert_eq!(laddered.inconsistencies.len(), 1);
        assert_eq!(laddered.resolved_on_retry, 1);
        // Same witness quality as anywhere else: it satisfies both sides.
        let w = &laddered.inconsistencies[0].witness;
        assert!(w.eval_bool(&a.groups[0].condition));
        assert!(w.eval_bool(&b.groups[0].condition));
    }

    #[test]
    fn retry_ladder_is_a_noop_for_unlimited_budgets() {
        let (a, b) = hard_pair();
        let r = crosscheck(
            &a,
            &b,
            &CrosscheckConfig {
                retry_rungs: 5,
                ..Default::default()
            },
        );
        assert!(r.fully_verified());
        assert_eq!(r.resolved_on_retry, 0, "nothing to escalate from unlimited");
    }

    #[derive(Default)]
    struct CollectVerdicts(std::sync::Mutex<Vec<(usize, usize, SatResult, SolverBudget)>>);

    impl VerdictSink for CollectVerdicts {
        fn on_verdict(&self, i: usize, j: usize, verdict: &SatResult, budget: &SolverBudget) {
            self.0
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .push((i, j, verdict.clone(), *budget));
        }
    }

    #[test]
    fn scheduled_pairs_are_solved_once_in_pair_order() {
        // Conditions that share subterms and reach the SAT core (a
        // product no equality propagation removes), one `true` condition,
        // and one output both agents produce (its pair is skipped).
        let p = Term::var("cc9.p", 8);
        let q = Term::var("cc9.q", 8);
        let k = |v| Term::bv_const(8, v);
        let prod = p.clone().bvmul(q.clone());
        let a = group_paths(
            "a",
            "t",
            &[
                path(prod.clone().ult(k(40)).and(q.clone().ugt(k(2))), out(1)),
                path(prod.clone().uge(k(40)).and(p.clone().ult(k(100))), out(2)),
                path(p.clone().uge(k(100)).and(prod.clone().ne(k(77))), out(3)),
                path(p.clone().bvadd(q.clone()).eq(k(200)), out(4)),
            ],
        )
        .expect("grouping");
        let b = group_paths(
            "b",
            "t",
            &[
                path(q.clone().ult(k(16)).and(prod.clone().ugt(k(30))), out(5)),
                path(q.clone().uge(k(16)).and(prod.clone().ult(k(90))), out(6)),
                path(p.clone().bvxor(q.clone()).eq(k(0x5a)), out(7)),
                path(Term::bool_true(), out(8)),
                path(prod.clone().eq(k(77)), out(1)),
            ],
        )
        .expect("grouping");

        // The schedule hands out every `todo` index exactly once, for the
        // whole matrix and for a subset.
        let pairs: Vec<(usize, usize, Term)> = (0..a.groups.len())
            .flat_map(|i| (0..b.groups.len()).map(move |j| (i, j)))
            .filter(|&(i, j)| a.groups[i].output != b.groups[j].output)
            .map(|(i, j)| {
                (
                    i,
                    j,
                    outputs_differ(&a.groups[i].output, &b.groups[j].output),
                )
            })
            .collect();
        let every: Vec<usize> = (0..pairs.len()).collect();
        let odd: Vec<usize> = every.iter().copied().filter(|k| k % 2 == 1).collect();
        for todo in [&every, &odd] {
            let mut got = schedule(&a, &b, &pairs, todo);
            got.sort_unstable();
            assert_eq!(&got, todo);
        }

        // The verdict matrix, models included, is the same for every job
        // count and with or without the incremental memo; each pair is
        // solved once, and the sink sees the verdicts in pair order.
        let mut first: Option<Vec<(usize, usize, SatResult, SolverBudget)>> = None;
        for incremental in [false, true] {
            for jobs in [1, 2, 4] {
                let at = format!("jobs={jobs} incremental={incremental}");
                let cfg = CrosscheckConfig {
                    jobs,
                    incremental,
                    ..Default::default()
                };
                let sink = CollectVerdicts::default();
                let r = crosscheck_durable(&a, &b, &cfg, None, Some(&sink));
                let seen = sink.0.into_inner().unwrap_or_else(|e| e.into_inner());
                assert_eq!(r.queries, pairs.len(), "{at}");
                assert_eq!(r.solver.queries as usize, pairs.len(), "{at}");
                let order: Vec<(usize, usize)> = seen.iter().map(|v| (v.0, v.1)).collect();
                let want: Vec<(usize, usize)> = pairs.iter().map(|p| (p.0, p.1)).collect();
                assert_eq!(order, want, "{at}: sink order");
                match &first {
                    None => first = Some(seen),
                    Some(f) => assert_eq!(&seen, f, "{at}"),
                }
            }
        }
        // And each verdict is a new solver's verdict on the pair's query.
        let verdicts = first.expect("six runs");
        for ((i, j, v, _), (_, _, differ)) in verdicts.iter().zip(&pairs) {
            let query = [
                a.groups[*i].condition.clone(),
                b.groups[*j].condition.clone(),
                differ.clone(),
            ];
            assert_eq!(v, &Solver::new().check(&query), "pair ({i}, {j})");
        }
        let sat = verdicts.iter().filter(|v| v.2.is_sat()).count();
        assert!(
            0 < sat && sat < verdicts.len(),
            "{sat} of {} pairs Sat",
            verdicts.len()
        );
    }

    #[test]
    fn seeded_verdicts_short_circuit_resolving() {
        let (a, b) = hard_pair();
        let cfg = CrosscheckConfig {
            solver_budget: SolverBudget::conflicts(1),
            retry_rungs: 10,
            ..Default::default()
        };
        let sink = CollectVerdicts::default();
        let first = crosscheck_durable(&a, &b, &cfg, None, Some(&sink));
        let journaled = sink.0.into_inner().unwrap_or_else(|e| e.into_inner());
        assert!(
            journaled.len() >= 2,
            "the hard pair must be journaled once per attempt (Unknown then decided)"
        );
        // Recovery: replay the journal into seeds, decided-supersedes-Unknown.
        let mut seeds = CheckSeeds::new();
        for (i, j, v, bud) in &journaled {
            seeds.insert(*i, *j, v.clone(), *bud);
        }
        let resume_sink = CollectVerdicts::default();
        let resumed = crosscheck_durable(&a, &b, &cfg, Some(&seeds), Some(&resume_sink));
        assert!(
            resume_sink
                .0
                .into_inner()
                .unwrap_or_else(|e| e.into_inner())
                .is_empty(),
            "a complete verdict journal owes no solver work"
        );
        assert_eq!(resumed.queries, first.queries);
        assert_eq!(resumed.unknown, first.unknown);
        assert_eq!(resumed.resolved_on_retry, first.resolved_on_retry);
        assert_eq!(resumed.inconsistencies.len(), first.inconsistencies.len());
        for (x, y) in first.inconsistencies.iter().zip(&resumed.inconsistencies) {
            assert_eq!(x.witness, y.witness, "journaled witnesses must roundtrip");
        }
    }

    #[test]
    fn seeded_unknown_at_small_budget_is_resolved_not_reused() {
        let (a, b) = hard_pair();
        // A journal written by a plain base-budget run: one Unknown at 1
        // conflict.
        let mut seeds = CheckSeeds::new();
        seeds.insert(0, 0, SatResult::Unknown, SolverBudget::conflicts(1));
        // Resuming with a retry ladder must re-solve the pair, not let the
        // recorded small-budget Unknown mask the escalated attempts.
        let cfg = CrosscheckConfig {
            solver_budget: SolverBudget::conflicts(1),
            retry_rungs: 10,
            ..Default::default()
        };
        let r = crosscheck_durable(&a, &b, &cfg, Some(&seeds), None);
        assert!(r.fully_verified());
        assert_eq!(r.resolved_on_retry, 1);
    }

    #[test]
    fn check_seeds_supersede_rules() {
        let mut s = CheckSeeds::new();
        s.insert(0, 0, SatResult::Unknown, SolverBudget::conflicts(1));
        s.insert(0, 0, SatResult::Unknown, SolverBudget::conflicts(4));
        assert!(matches!(
            s.get(0, 0),
            Some((SatResult::Unknown, b)) if *b == SolverBudget::conflicts(4)
        ));
        // A decision replaces any Unknown...
        s.insert(0, 0, SatResult::Unsat, SolverBudget::conflicts(16));
        assert!(matches!(s.get(0, 0), Some((SatResult::Unsat, _))));
        // ...and a later Unknown never downgrades a decision.
        s.insert(0, 0, SatResult::Unknown, SolverBudget::conflicts(64));
        assert!(matches!(s.get(0, 0), Some((SatResult::Unsat, _))));
        assert_eq!(s.len(), 1);
        assert!(!s.is_empty());
    }

    #[test]
    fn parallel_retry_ladder_matches_sequential() {
        let (a, b) = hard_pair();
        let mk = |jobs| CrosscheckConfig {
            solver_budget: SolverBudget::conflicts(1),
            jobs,
            retry_rungs: 10,
            ..Default::default()
        };
        let seq = crosscheck(&a, &b, &mk(1));
        for jobs in [2, 4] {
            let par = crosscheck(&a, &b, &mk(jobs));
            assert_eq!(par.unknown, seq.unknown, "jobs={jobs}");
            assert_eq!(par.resolved_on_retry, seq.resolved_on_retry, "jobs={jobs}");
            assert_eq!(
                par.inconsistencies.len(),
                seq.inconsistencies.len(),
                "jobs={jobs}"
            );
            for (x, y) in seq.inconsistencies.iter().zip(&par.inconsistencies) {
                assert_eq!(x.witness, y.witness, "jobs={jobs}");
            }
        }
    }
}
