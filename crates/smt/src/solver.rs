//! Solver facade: term-level satisfiability checking with model extraction.
//!
//! The pipeline mirrors STP's: algebraic simplification and equality
//! propagation first (most of SOFT's feasibility checks die here — path
//! conditions pin many message bytes to constants), then bit-blasting to
//! CNF, then CDCL SAT. Models come back as [`Assignment`]s over the named
//! input bytes, which the harness turns into concrete reproduction messages.

use crate::bitblast::BitBlaster;
use crate::fxhash::{FxHashMap, FxHashSet};
use crate::incremental::IncrementalSolver;
use crate::sat::SatOutcome;
use crate::simplify::{mk_and, propagate_equalities, Preprocessed};
use crate::{Assignment, Term};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Resource budget for a single satisfiability query: a cap on CDCL
/// conflicts.
///
/// Mirrors the paper's practice of running every constraint query under
/// Cloud9/STP resource limits: a pathological query must degrade to an
/// explicit [`SatResult::Unknown`], never stall a worker or take down the
/// run. The cap counts conflicts, not time, so a budgeted verdict is a
/// pure function of the query and the budget at any `--jobs`. `None`
/// means unlimited, the default.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SolverBudget {
    /// Maximum CDCL conflicts per query.
    pub max_conflicts: Option<u64>,
}

impl SolverBudget {
    /// No limit.
    pub const fn unlimited() -> SolverBudget {
        SolverBudget {
            max_conflicts: None,
        }
    }

    /// Budget of `n` conflicts.
    pub const fn conflicts(n: u64) -> SolverBudget {
        SolverBudget {
            max_conflicts: Some(n),
        }
    }

    /// This budget with a finite cap multiplied by `factor` (saturating;
    /// an unlimited budget stays unlimited). The retry escalation ladder
    /// uses this to grow budgets geometrically — an Unknown verdict
    /// recorded under the smaller budget never `covers` the scaled one,
    /// so the verdict cache re-solves rather than shortcutting (the
    /// budget-aware cache contract).
    pub fn scaled(&self, factor: u64) -> SolverBudget {
        SolverBudget {
            max_conflicts: self.max_conflicts.map(|n| n.saturating_mul(factor)),
        }
    }

    /// True if the budget is unlimited.
    pub fn is_unlimited(&self) -> bool {
        self.max_conflicts.is_none()
    }

    /// True if this budget admits at least as much work as `other`
    /// (`None` = infinite). Used by the verdict cache: an `Unknown`
    /// produced under budget `B` is only reusable for queries whose budget
    /// is covered by `B` — a larger budget must re-solve.
    pub fn covers(&self, other: &SolverBudget) -> bool {
        match (self.max_conflicts, other.max_conflicts) {
            (None, _) => true,
            (Some(_), None) => false,
            (Some(x), Some(y)) => x >= y,
        }
    }
}

/// Result of a satisfiability query.
///
/// Models are behind an [`Arc`]: a cache hit (or a hit in a cross-worker
/// shared [`VerdictCache`]) hands out another reference instead of cloning
/// the whole assignment byte map.
#[derive(Debug, Clone, PartialEq)]
pub enum SatResult {
    /// Satisfiable, with a witness assignment.
    Sat(Arc<Assignment>),
    /// Unsatisfiable.
    Unsat,
    /// Resource budget exhausted before a verdict.
    Unknown,
}

impl SatResult {
    /// True for `Sat(_)`.
    pub fn is_sat(&self) -> bool {
        matches!(self, SatResult::Sat(_))
    }

    /// True for `Unsat`.
    pub fn is_unsat(&self) -> bool {
        matches!(self, SatResult::Unsat)
    }

    /// The model if satisfiable.
    pub fn model(&self) -> Option<&Assignment> {
        match self {
            SatResult::Sat(a) => Some(a.as_ref()),
            _ => None,
        }
    }

    /// The model behind its `Arc` if satisfiable (cheap to clone and share).
    pub fn model_arc(&self) -> Option<&Arc<Assignment>> {
        match self {
            SatResult::Sat(a) => Some(a),
            _ => None,
        }
    }
}

/// Cumulative query statistics, reported by the Table 3 bench.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Total `check` invocations.
    pub queries: u64,
    /// Queries answered by simplification alone (no SAT call).
    pub solved_by_simplification: u64,
    /// SAT conflicts across all queries.
    pub sat_conflicts: u64,
    /// SAT decisions across all queries.
    pub sat_decisions: u64,
    /// SAT propagations across all queries.
    pub sat_propagations: u64,
    /// CNF clauses generated across all queries.
    pub cnf_clauses: u64,
    /// CNF variables generated across all queries.
    pub cnf_vars: u64,
    /// Queries answered from the verdict cache.
    pub cache_hits: u64,
    /// Queries that ended `Unknown` (budget exhaustion), including cached
    /// exhaustion hits.
    pub unknown: u64,
    /// Entries in the verdict cache after the most recent insertion (the
    /// whole shared cache when one is attached, not just this solver's
    /// contributions).
    pub cache_size: u64,
    /// Queries probed against an attached incremental memo.
    pub assumption_probes: u64,
    /// Probes answered Unsat (published without a fresh solve).
    pub probe_unsat: u64,
    /// Clauses loaded into probe instances, summed over probes: each
    /// probe loads only its query's cone of the memo.
    pub probe_clauses: u64,
    /// Always 0: probes no longer record UNSAT cores. Kept so readers of
    /// the counter keep working.
    pub core_prunes: u64,
    /// Always 0: each probe starts from an empty SAT instance, so no
    /// learned clause is retained across queries. Kept so readers of the
    /// counter keep working.
    pub learned_retained: u64,
    /// Bit-blast CNF cache hits in the incremental memo (shared DAG
    /// nodes encoded once instead of once per query).
    pub cnf_cache_hits: u64,
    /// Nanoseconds spent bit-blasting terms to CNF (fresh and
    /// incremental paths combined). On the fresh path this includes
    /// resetting the reused instance, or rolling it back to its resident
    /// first conjunct, and taking the checkpoint; with no per-query
    /// teardown left, it and `search_ns` together cover nearly all
    /// fresh-solve time.
    pub bitblast_ns: u64,
    /// Nanoseconds spent in CDCL search (fresh and incremental paths
    /// combined); see `bitblast_ns` for the rest of a fresh solve.
    pub search_ns: u64,
    /// Always 0: the verdict cache has no entry bound to evict by (it
    /// lives only as long as the run that created it). Kept so readers of
    /// the counter keep working.
    pub cache_evictions: u64,
    /// Always 0: the incremental memo has no size bound to evict by.
    /// Kept so readers of the counter keep working.
    pub context_evictions: u64,
}

impl SolverStats {
    /// Accumulate another stats block into this one (used when merging
    /// per-worker solvers after a parallel run). `cache_size` is a gauge,
    /// not a counter: the maximum wins.
    pub fn merge(&mut self, other: &SolverStats) {
        self.queries += other.queries;
        self.solved_by_simplification += other.solved_by_simplification;
        self.sat_conflicts += other.sat_conflicts;
        self.sat_decisions += other.sat_decisions;
        self.sat_propagations += other.sat_propagations;
        self.cnf_clauses += other.cnf_clauses;
        self.cnf_vars += other.cnf_vars;
        self.cache_hits += other.cache_hits;
        self.unknown += other.unknown;
        self.cache_size = self.cache_size.max(other.cache_size);
        self.assumption_probes += other.assumption_probes;
        self.probe_unsat += other.probe_unsat;
        self.probe_clauses += other.probe_clauses;
        self.core_prunes += other.core_prunes;
        self.learned_retained += other.learned_retained;
        self.cnf_cache_hits += other.cnf_cache_hits;
        self.bitblast_ns += other.bitblast_ns;
        self.search_ns += other.search_ns;
        self.cache_evictions = self.cache_evictions.max(other.cache_evictions);
        self.context_evictions += other.context_evictions;
    }
}

/// Number of verdict-cache shards (power of two).
const CACHE_SHARDS: usize = 16;

/// One cached verdict: either a definitive answer, or a record that the
/// query exhausted a particular budget.
#[derive(Debug, Clone)]
enum CachedVerdict {
    /// Sat or Unsat — valid under any budget, cached forever.
    Decided(SatResult),
    /// The query returned Unknown under this budget. Reusable only for
    /// queries whose budget the recorded one covers; a later, larger
    /// budget misses the cache and retries the query.
    Exhausted(SolverBudget),
}

/// A concurrency-safe verdict cache, shareable between solvers.
///
/// Keys are *canonical* assertion sets: sorted by [`Term::structural_cmp`]
/// and deduped, so the key — and, because [`Solver::check`] evaluates the
/// canonical key order, the cached verdict and model — are pure functions of
/// the assertion set, independent of query order, thread timing, and
/// process. That is what lets worker threads reuse each other's feasibility
/// verdicts without breaking the byte-for-byte determinism guarantee of
/// parallel exploration. `Unknown` verdicts are budget-dependent, so they
/// are cached *with* the budget that produced them and only served to
/// queries running under the same or a smaller budget — a retry under a
/// larger budget re-solves and can upgrade the entry to a decided verdict.
/// Models are stored behind [`Arc`], so a hit is a pointer bump, not a
/// byte-map clone.
///
/// The cache has no entry cap: each one lives only as long as the
/// exploration or crosscheck that created it, so it holds at most that
/// run's distinct queries (a few hundred for an exploration, about one
/// per pair for a crosscheck). It is sharded only so that workers sharing
/// it rarely contend on one lock.
#[derive(Debug, Default)]
pub struct VerdictCache {
    shards: [Mutex<CacheShard>; CACHE_SHARDS],
}

/// One cache shard: canonical key → verdict.
type CacheShard = FxHashMap<Vec<Term>, CachedVerdict>;

/// Recover the guarded data even if another thread panicked while holding
/// the lock. Cache entries are only written atomically under the lock
/// (single `insert` calls), so a poisoned shard still holds a consistent
/// map — aborting the whole process (what `expect` did) would turn one
/// worker panic into a lost run.
fn recover<'m, T>(lock: &'m Mutex<T>) -> std::sync::MutexGuard<'m, T> {
    lock.lock().unwrap_or_else(|e| e.into_inner())
}

impl VerdictCache {
    /// Fresh, empty cache.
    pub fn new() -> Self {
        VerdictCache::default()
    }

    fn shard(&self, key: &[Term]) -> &Mutex<CacheShard> {
        // Combine the structural hashes of the key's terms; process-stable.
        let mut h = 0xcbf29ce484222325u64;
        for t in key {
            h = (h ^ t.structural_hash()).wrapping_mul(0x100000001b3);
        }
        &self.shards[(h as usize) & (CACHE_SHARDS - 1)]
    }

    /// Look up a verdict usable under `budget`.
    fn get(&self, key: &[Term], budget: &SolverBudget) -> Option<SatResult> {
        match recover(self.shard(key)).get(key)? {
            CachedVerdict::Decided(r) => Some(r.clone()),
            CachedVerdict::Exhausted(b) if b.covers(budget) => Some(SatResult::Unknown),
            _ => None,
        }
    }

    /// Record the verdict of solving `key` under `budget`.
    fn insert(&self, key: Vec<Term>, result: SatResult, budget: &SolverBudget) {
        let mut shard = recover(self.shard(&key));
        match result {
            SatResult::Unknown => {
                // Keep the largest failed budget on record; never shadow a
                // decided verdict another worker may have raced in.
                match shard.get(&key) {
                    Some(CachedVerdict::Decided(_)) => {}
                    Some(CachedVerdict::Exhausted(b)) if b.covers(budget) => {}
                    _ => {
                        shard.insert(key, CachedVerdict::Exhausted(*budget));
                    }
                }
            }
            decided => {
                shard.insert(key, CachedVerdict::Decided(decided));
            }
        }
    }

    /// Total number of cached verdicts across all shards (decided and
    /// budget-exhausted entries alike).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| recover(s).len()).sum()
    }

    /// Number of cached budget-exhaustion (`Unknown`) records.
    pub fn unknown_len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                recover(s)
                    .values()
                    .filter(|v| matches!(v, CachedVerdict::Exhausted(_)))
                    .count()
            })
            .sum()
    }

    /// True if no verdict is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Bitvector satisfiability solver.
#[derive(Debug, Default)]
pub struct Solver {
    /// Per-query resource budget; exhausted queries return Unknown.
    pub budget: SolverBudget,
    /// Cumulative statistics.
    pub stats: SolverStats,
    /// Memoized verdicts keyed by the canonical (structurally sorted,
    /// deduped) assertion set. Symbolic execution re-checks near-identical
    /// conjunctions constantly — replayed prefixes, shared sub-branches — so
    /// this cache carries a large fraction of the load. Models are cached
    /// too (they stay valid: terms are immutable and interned). By default
    /// each solver owns a private cache; [`Solver::with_cache`] attaches a
    /// shared one so parallel workers reuse each other's verdicts.
    cache: Arc<VerdictCache>,
    /// Optional incremental memo (see [`Solver::enable_incremental`]).
    /// When attached, every cache-missed query the simplifier leaves open
    /// is first probed on its cone of the memo; only the
    /// value-deterministic Unsat answer is published directly — Sat and
    /// Unknown probes fall through to the canonical fresh solve, so
    /// models and budget-limited Unknowns stay byte-identical to the
    /// non-incremental flow.
    incremental: Option<IncrementalSolver>,
    /// The bit-blaster and SAT instance of the fresh solve, built by the
    /// first query that reaches it and reset for every later one rather
    /// than rebuilt: once it has held the largest query, a fresh solve
    /// allocates no clause storage. The reset instance encodes each query
    /// to exactly the CNF a new one would, so verdicts and models do not
    /// depend on the queries before it.
    fresh: Option<BitBlaster>,
    /// The first residual conjunct whose encoding `fresh` holds at its
    /// checkpoint: a query that starts with the same conjunct rolls back
    /// to it instead of resetting and encoding it again.
    resident: Option<Term>,
}

impl Solver {
    /// Fresh solver with no budget limit and a private verdict cache.
    pub fn new() -> Self {
        Solver::default()
    }

    /// Fresh solver backed by a shared verdict cache.
    pub fn with_cache(cache: Arc<VerdictCache>) -> Self {
        // Spelled out rather than `..Solver::default()`, which would build
        // and drop a private cache on every call (one per concrete replay).
        Solver {
            budget: SolverBudget::default(),
            stats: SolverStats::default(),
            cache,
            incremental: None,
            fresh: None,
            resident: None,
        }
    }

    /// The verdict cache this solver reads and writes (clone the `Arc` to
    /// share it with another solver).
    pub fn cache(&self) -> &Arc<VerdictCache> {
        &self.cache
    }

    /// Attach an incremental memo (idempotent).
    ///
    /// The memo amortizes bit-blasting across the closely-related queries
    /// of one test: each condition encodes once, and a query's probe
    /// loads only the gates its own conditions reach. Attach one memo per
    /// (test, worker) — its value comes from queries sharing structure.
    pub fn enable_incremental(&mut self) {
        if self.incremental.is_none() {
            self.incremental = Some(IncrementalSolver::new());
        }
    }

    /// True if an incremental memo is attached.
    pub fn incremental_enabled(&self) -> bool {
        self.incremental.is_some()
    }

    /// Check satisfiability of the conjunction of `assertions`.
    ///
    /// The query is canonicalized first — sorted by structural order and
    /// deduped — and the canonical form is what gets solved and cached, so
    /// the verdict *and* the model are pure functions of the assertion set.
    pub fn check(&mut self, assertions: &[Term]) -> SatResult {
        self.stats.queries += 1;
        let mut key: Vec<Term> = assertions.to_vec();
        key.sort_unstable_by(Term::structural_cmp);
        key.dedup();
        if let Some(hit) = self.cache.get(&key, &self.budget) {
            self.stats.cache_hits += 1;
            if matches!(hit, SatResult::Unknown) {
                self.stats.unknown += 1;
            }
            return hit;
        }
        let result = self.check_uncached(&key);
        if matches!(result, SatResult::Unknown) {
            self.stats.unknown += 1;
        }
        self.cache.insert(key, result.clone(), &self.budget);
        self.stats.cache_size = self.cache.len() as u64;
        result
    }

    /// Probe the attached incremental memo for `key`, returning
    /// `Some(Unsat)` when the probe refutes the query. Sat and Unknown
    /// probe outcomes return `None` so the caller falls through to the
    /// canonical fresh solve — models and budget-limited Unknowns stay
    /// byte-identical to the non-incremental flow (Unsat is the one
    /// value-deterministic verdict a probe may publish).
    fn probe_incremental(&mut self, key: &[Term]) -> Option<SatResult> {
        // Probes are advisory, so their search effort is capped on top of
        // the query budget: a probe that cannot refute its query quickly
        // (hard Unsat, or Sat — which must re-solve fresh for a canonical
        // model anyway) aborts as Unknown and falls through, bounding the
        // overhead per query.
        const PROBE_CONFLICT_CAP: u64 = 512;
        let inc = self.incremental.as_mut()?;
        let mut probe_budget = self.budget;
        probe_budget.max_conflicts = Some(
            probe_budget
                .max_conflicts
                .map_or(PROBE_CONFLICT_CAP, |c| c.min(PROBE_CONFLICT_CAP)),
        );
        let probe = inc.probe(key, &probe_budget, &mut self.stats);
        matches!(probe, SatOutcome::Unsat).then_some(SatResult::Unsat)
    }

    fn check_uncached(&mut self, assertions: &[Term]) -> SatResult {
        // Phase 1: equality propagation and constant folding.
        let residual = match propagate_equalities(assertions) {
            Preprocessed::TriviallyFalse => {
                self.stats.solved_by_simplification += 1;
                return SatResult::Unsat;
            }
            Preprocessed::TriviallyTrue => {
                self.stats.solved_by_simplification += 1;
                return SatResult::Sat(Arc::new(Assignment::new()));
            }
            Preprocessed::Residual(r) => r,
        };
        // If the residual is pure bindings (var == const), it is SAT with
        // the obvious model — but distinguishing that from harder residue is
        // what the SAT call does anyway; only shortcut the all-binding case.
        if let Some(mut model) = Self::all_bindings_model(&residual) {
            self.stats.solved_by_simplification += 1;
            let full = mk_and(&residual);
            debug_assert!(model.eval_bool(&full));
            // Variables eliminated by equality propagation still need values
            // so the model satisfies the *original* assertions.
            complete_model(assertions, &mut model);
            assert!(
                assertions.iter().all(|a| model.eval_bool(a)),
                "simplification model must satisfy original assertions"
            );
            return SatResult::Sat(Arc::new(model));
        }
        // Phase 1.5: probe the incremental memo, if one is attached. Only
        // queries simplification could not decide reach this point —
        // exactly the ones worth real search — so the probe never competes
        // with the (much cheaper) rewriting phase. It runs on the
        // *original* canonical conjuncts, not the residual: those are the
        // group conditions shared across the test's pair matrix, which the
        // memo encodes once; a residual is new terms for every query.
        if let Some(refuted) = self.probe_incremental(assertions) {
            return refuted;
        }
        // Phase 2: bit-blast and solve, on the reused instance. The state
        // after the first residual conjunct stays resident: a query that
        // starts with the same conjunct rolls back to it, any other one
        // resets, encodes its own first conjunct and checkpoints. Either
        // way the instance then holds exactly what a new one would after
        // that conjunct, so the CNF, the search and the model are those of
        // a brand-new instance.
        let t0 = Instant::now();
        let bb = self.fresh.get_or_insert_with(BitBlaster::new);
        let (first, rest) = residual.split_first().expect("a residual is never empty");
        if self.resident.as_ref().is_some_and(|r| r.id() == first.id()) {
            bb.rollback();
        } else {
            // Named only once the checkpoint holds it, so a query that
            // panics on the way leaves no stale resident behind.
            self.resident = None;
            bb.reset();
            bb.assert_term(first);
            bb.checkpoint();
            self.resident = Some(first.clone());
        }
        bb.sat.max_conflicts = self.budget.max_conflicts;
        for t in rest {
            bb.assert_term(t);
        }
        self.stats.bitblast_ns += t0.elapsed().as_nanos() as u64;
        self.stats.cnf_clauses += bb.sat.num_clauses() as u64;
        self.stats.cnf_vars += bb.sat.num_vars() as u64;
        let t1 = Instant::now();
        let out = bb.sat.solve();
        self.stats.search_ns += t1.elapsed().as_nanos() as u64;
        self.stats.sat_conflicts += bb.sat.conflicts;
        self.stats.sat_decisions += bb.sat.decisions;
        self.stats.sat_propagations += bb.sat.propagations;
        match out {
            SatOutcome::Sat => {
                let mut model = bb.extract_assignment();
                // Re-apply bindings consumed by the preprocessor: evaluate
                // the original assertions and fill in pinned variables.
                complete_model(assertions, &mut model);
                assert!(
                    assertions.iter().all(|a| model.eval_bool(a)),
                    "solver model must satisfy original assertions"
                );
                SatResult::Sat(Arc::new(model))
            }
            SatOutcome::Unsat => SatResult::Unsat,
            SatOutcome::Unknown => SatResult::Unknown,
        }
    }

    /// If every residual conjunct is `var == const`, build the model directly.
    fn all_bindings_model(residual: &[Term]) -> Option<Assignment> {
        let mut model = Assignment::new();
        for c in residual {
            match c.op() {
                crate::term::Op::Cmp(crate::term::CmpOp::Eq, a, b) => {
                    if let (Some((name, _)), Some(v)) = (a.as_var(), b.as_bv_const()) {
                        if let Some(prev) = model.get(name) {
                            if prev != v {
                                return None; // conflicting bindings; let SAT decide
                            }
                        }
                        model.set(name, v);
                    } else {
                        return None;
                    }
                }
                _ => return None,
            }
        }
        Some(model)
    }

    /// Convenience: check a single term.
    pub fn check_one(&mut self, t: &Term) -> SatResult {
        self.check(std::slice::from_ref(t))
    }

    /// Check whether `a` and `b` can hold simultaneously (the intersection
    /// query at the heart of SOFT's inconsistency finder).
    pub fn intersect(&mut self, a: &Term, b: &Term) -> SatResult {
        self.check(&[a.clone(), b.clone()])
    }
}

/// Complete a (possibly partial) model against the assertions it came from.
///
/// Fills in variables that were eliminated by equality propagation so the
/// model satisfies the *original* assertions, not just the preprocessed
/// residual. Walks `var == const` bindings to a fixpoint; every productive
/// round binds at least one previously-unassigned variable, so the number
/// of distinct variables bounds the iteration (a fixed round cap would
/// silently truncate deeper binding chains).
///
/// [`Solver::check`] applies this to every `Sat` model before returning
/// it; the witness distillation pipeline re-applies it when turning a
/// stored model back into full concrete input bytes (journal-recovered
/// witnesses may predate bindings the preprocessor would pin today).
pub fn complete_model(assertions: &[Term], model: &mut Assignment) {
    let var_bound = {
        let mut vars: FxHashSet<u64> = FxHashSet::default();
        for a in assertions {
            vars.extend(crate::metrics::variable_ids(a));
        }
        vars.len()
    };
    for _ in 0..=var_bound {
        let mut changed = false;
        for a in assertions {
            for c in crate::simplify::conjuncts(a) {
                if let crate::term::Op::Cmp(crate::term::CmpOp::Eq, l, r) = c.op() {
                    if let Some((name, _)) = l.as_var() {
                        if model.get(name).is_none() {
                            let v = model.eval_bv(r);
                            model.set(name, v);
                            changed = true;
                        }
                    } else if let Some((name, _)) = r.as_var() {
                        if model.get(name).is_none() {
                            let v = model.eval_bv(l);
                            model.set(name, v);
                            changed = true;
                        }
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simplification_fast_path() {
        let x = Term::var("sv.x", 8);
        let mut s = Solver::new();
        let r = s.check(&[x.clone().eq(Term::bv_const(8, 5))]);
        assert!(r.is_sat());
        assert_eq!(r.model().unwrap().get("sv.x"), Some(5));
        assert_eq!(s.stats.solved_by_simplification, 1);

        let r = s.check(&[
            x.clone().eq(Term::bv_const(8, 5)),
            x.clone().eq(Term::bv_const(8, 6)),
        ]);
        assert!(r.is_unsat());
        assert_eq!(s.stats.solved_by_simplification, 2);
    }

    #[test]
    fn sat_path_produces_complete_model() {
        let x = Term::var("sv.a", 8);
        let y = Term::var("sv.b", 8);
        // x pinned by equality, y constrained by range: model must cover both.
        let mut s = Solver::new();
        let assertions = vec![
            x.clone().eq(Term::bv_const(8, 9)),
            y.clone().bvadd(x.clone()).ugt(Term::bv_const(8, 200)),
            y.clone().ult(Term::bv_const(8, 250)),
        ];
        let r = s.check(&assertions);
        let m = r.model().expect("should be sat");
        assert_eq!(m.get("sv.a"), Some(9));
        for a in &assertions {
            assert!(m.eval_bool(a));
        }
    }

    #[test]
    fn intersect_disjoint_ranges_unsat() {
        let p = Term::var("sv.p", 16);
        let a = p.clone().ult(Term::bv_const(16, 10));
        let b = p.clone().ugt(Term::bv_const(16, 20));
        let mut s = Solver::new();
        assert!(s.intersect(&a, &b).is_unsat());
    }

    #[test]
    fn intersect_overlapping_ranges_sat() {
        let p = Term::var("sv.q", 16);
        let a = p.clone().ult(Term::bv_const(16, 20));
        let b = p.clone().ugt(Term::bv_const(16, 10));
        let mut s = Solver::new();
        let r = s.intersect(&a, &b);
        let v = r.model().unwrap().get("sv.q").unwrap();
        assert!((11..20).contains(&v));
    }

    #[test]
    fn figure2_style_intersection() {
        // Agent 1 sends to controller iff p == 0xfffd (OFPP_CONTROLLER);
        // Agent 2 errors iff p >= 25 — the intersection is the inconsistency
        // input p = 0xfffd, exactly the §2.3 example.
        let p = Term::var("sv.port", 16);
        let a1_ctrl = p.clone().eq(Term::bv_const(16, 0xfffd));
        let a2_err = p.clone().uge(Term::bv_const(16, 25));
        let mut s = Solver::new();
        let r = s.intersect(&a1_ctrl, &a2_err);
        assert_eq!(r.model().unwrap().get("sv.port"), Some(0xfffd));
    }

    #[test]
    fn disjunction_queries() {
        // (x == 1 or x == 2) and x > 1 => x == 2
        let x = Term::var("sv.d", 8);
        let d = x
            .clone()
            .eq(Term::bv_const(8, 1))
            .or(x.clone().eq(Term::bv_const(8, 2)));
        let g = x.clone().ugt(Term::bv_const(8, 1));
        let mut s = Solver::new();
        let r = s.check(&[d, g]);
        assert_eq!(r.model().unwrap().get("sv.d"), Some(2));
    }

    #[test]
    fn cache_hits_repeated_queries() {
        let x = Term::var("svc.x", 8);
        let q = [
            x.clone().ult(Term::bv_const(8, 10)),
            x.clone().ugt(Term::bv_const(8, 3)),
        ];
        let mut s = Solver::new();
        let r1 = s.check(&q);
        assert_eq!(s.stats.cache_hits, 0);
        let r2 = s.check(&q);
        assert_eq!(s.stats.cache_hits, 1);
        assert_eq!(r1, r2);
        // Order-insensitive key.
        let q2 = [q[1].clone(), q[0].clone()];
        let r3 = s.check(&q2);
        assert_eq!(s.stats.cache_hits, 2);
        assert_eq!(r1, r3);
    }

    #[test]
    fn shared_cache_crosses_solvers() {
        let cache = Arc::new(VerdictCache::new());
        let x = Term::var("svs.x", 8);
        let q = [
            x.clone().ult(Term::bv_const(8, 10)),
            x.clone().ugt(Term::bv_const(8, 3)),
        ];
        let mut a = Solver::with_cache(Arc::clone(&cache));
        let ra = a.check(&q);
        assert_eq!(a.stats.cache_hits, 0);
        assert!(a.stats.cache_size >= 1);
        // A different solver sharing the cache answers without re-solving,
        // and hands back the *same* model allocation.
        let mut b = Solver::with_cache(Arc::clone(&cache));
        let rb = b.check(&[q[1].clone(), q[0].clone()]);
        assert_eq!(b.stats.cache_hits, 1);
        assert_eq!(ra, rb);
        match (&ra, &rb) {
            (SatResult::Sat(ma), SatResult::Sat(mb)) => assert!(Arc::ptr_eq(ma, mb)),
            other => panic!("expected Sat/Sat, got {other:?}"),
        }
        assert_eq!(cache.len() as u64, a.stats.cache_size);
    }

    #[test]
    fn model_completion_handles_deep_binding_chains() {
        // Chain of 16 aliased variables rooted at a constant; the old
        // fixed 8-round completion cap could leave the tail unassigned.
        let mut assertions = vec![Term::var("cm.v0", 8).eq(Term::bv_const(8, 7))];
        for i in 1..16 {
            assertions
                .push(Term::var(format!("cm.v{i}"), 8).eq(Term::var(format!("cm.v{}", i - 1), 8)));
        }
        let mut s = Solver::new();
        let r = s.check(&assertions);
        let m = r.model().expect("chain is satisfiable");
        for i in 0..16 {
            assert_eq!(m.get(&format!("cm.v{i}")), Some(7), "cm.v{i} incomplete");
        }
        for a in &assertions {
            assert!(m.eval_bool(a));
        }
    }

    #[test]
    fn unknown_on_budget_exhaustion() {
        // Force a non-trivial SAT instance with a tiny conflict budget.
        let xs: Vec<Term> = (0..12).map(|i| Term::var(format!("sv.u{i}"), 8)).collect();
        let mut sum = Term::bv_const(8, 0);
        for x in &xs {
            sum = sum.bvadd(x.clone().bvmul(x.clone()));
        }
        let hard = sum.eq(Term::bv_const(8, 0x5a));
        let mut s = Solver::new();
        s.budget = SolverBudget::conflicts(1);
        // Either it solves immediately (fine) or reports Unknown; it must
        // not claim Unsat.
        let r = s.check(&[hard]);
        assert!(!r.is_unsat());
    }

    /// A formula that exhausts a tiny conflict budget.
    fn hard_query() -> Term {
        let xs: Vec<Term> = (0..12).map(|i| Term::var(format!("sv.h{i}"), 8)).collect();
        let mut sum = Term::bv_const(8, 0);
        for x in &xs {
            sum = sum.bvadd(x.clone().bvmul(x.clone()));
        }
        sum.eq(Term::bv_const(8, 0x5a))
    }

    #[test]
    fn unknown_cached_per_budget_and_retried_under_larger() {
        let q = [hard_query()];
        let mut s = Solver::new();
        s.budget = SolverBudget::conflicts(1);
        let r = s.check(&q);
        assert_eq!(r, SatResult::Unknown);
        assert_eq!(s.stats.unknown, 1);
        assert_eq!(s.cache().unknown_len(), 1);

        // Same budget: served from cache, no re-solve.
        let conflicts_before = s.stats.sat_conflicts;
        let r = s.check(&q);
        assert_eq!(r, SatResult::Unknown);
        assert_eq!(s.stats.cache_hits, 1);
        assert_eq!(s.stats.sat_conflicts, conflicts_before, "must not re-solve");

        // Smaller budget (fewer conflicts allowed): still covered.
        // (Equal here since 1 is minimal; exercise covers() directly.)
        assert!(SolverBudget::conflicts(5).covers(&SolverBudget::conflicts(1)));
        assert!(!SolverBudget::conflicts(1).covers(&SolverBudget::conflicts(5)));
        assert!(SolverBudget::unlimited().covers(&SolverBudget::conflicts(5)));
        assert!(!SolverBudget::conflicts(1).covers(&SolverBudget::unlimited()));

        // Larger budget: cache miss, query retried and decided; the
        // decided verdict replaces the exhaustion record.
        s.budget = SolverBudget::unlimited();
        let r = s.check(&q);
        assert!(!matches!(r, SatResult::Unknown), "unlimited retry decides");
        assert_eq!(s.stats.cache_hits, 1, "larger budget must miss the cache");
        assert_eq!(
            s.cache().unknown_len(),
            0,
            "decided verdict replaces Unknown"
        );

        // And the decided verdict now serves even tiny-budget queries.
        s.budget = SolverBudget::conflicts(1);
        let r2 = s.check(&q);
        assert_eq!(r, r2);
        assert_eq!(s.stats.cache_hits, 2);
    }

    #[test]
    fn unknown_never_shadows_decided_verdict() {
        let cache = Arc::new(VerdictCache::new());
        let q = [hard_query()];
        // Worker A decides the query under an unlimited budget.
        let mut a = Solver::with_cache(Arc::clone(&cache));
        let ra = a.check(&q);
        assert!(!matches!(ra, SatResult::Unknown));
        // Worker B inserting an Unknown for the same key must not erase
        // A's decided verdict (insert is called through check's path only
        // on a miss, so exercise the guard directly via a tiny budget).
        cache.insert(
            {
                let mut k = q.to_vec();
                k.sort_unstable_by(Term::structural_cmp);
                k
            },
            SatResult::Unknown,
            &SolverBudget::conflicts(1),
        );
        let mut b = Solver::with_cache(Arc::clone(&cache));
        b.budget = SolverBudget::conflicts(1);
        assert_eq!(b.check(&q), ra, "decided verdict survives Unknown insert");
    }

    #[test]
    fn scaled_budget_grows_finite_dimensions_only() {
        let b = SolverBudget::conflicts(3);
        let s = b.scaled(4);
        assert_eq!(s.max_conflicts, Some(12));
        // The escalated budget is strictly larger, so a cached Unknown
        // recorded under `b` must not cover it (forcing a re-solve).
        assert!(s.covers(&b));
        assert!(!b.covers(&s));
        // Unlimited budgets are a fixpoint; saturation never wraps.
        assert_eq!(
            SolverBudget::unlimited().scaled(4),
            SolverBudget::unlimited()
        );
        assert_eq!(
            SolverBudget::conflicts(u64::MAX).scaled(4).max_conflicts,
            Some(u64::MAX)
        );
    }
}
