//! Incremental probing: a per-worker CNF memo, and one SAT instance per
//! probe loaded with only the query's own cone.
//!
//! A crosscheck test asks hundreds of closely-related questions — "can
//! group *i* of agent A and group *j* of agent B fire on the same input
//! that makes their replies differ?" — and every pair shares its group
//! conditions with the other pairs of the same row and column. The fresh
//! flow re-bitblasts those shared conditions for every pair.
//! [`IncrementalSolver`] instead keeps, per (test, worker):
//!
//! - **A CNF memo.** Each distinct term is bit-blasted **once** (the
//!   [`BitBlaster`] cache is keyed by hash-consed DAG node id, so shared
//!   subterms encode once even across distinct conditions). The memo
//!   holds no clauses: it records each gate's Tseitin definition (and,
//!   xor, mux) by output variable.
//! - **A cone probe.** A query over conjuncts `{t₁..tₙ}` walks the gate
//!   definitions back from the literals of `t₁..tₙ`, renumbers the
//!   variables it reaches compactly, and loads just those gates' clauses
//!   — for each gate only the half its polarity in the query needs —
//!   plus the units `t₁..tₙ` into one reused [`SatSolver`]. The probe's
//!   size is the query's own, however many conditions the memo has
//!   encoded for other pairs; the solver is [`SatSolver::reset`] between
//!   probes, keeping its allocations but no clause, learned clause or
//!   counter.
//!
//! Probes are **advisory accelerators**, not a replacement verdict path:
//! only Unsat — a value-deterministic answer — is published by the
//! facade ([`crate::Solver`]); Sat and Unknown probes fall through to
//! the canonical fresh solve so models and budget-limited Unknowns stay
//! byte-identical to the non-incremental flow.

use crate::bitblast::{BitBlaster, Gate, GateSink};
use crate::sat::{Lit, SatOutcome, SatSolver};
use crate::solver::{SolverBudget, SolverStats};
use crate::Term;
use std::fmt;
use std::time::Instant;

/// How the memo defines one of its variables.
#[derive(Debug, Clone, Copy)]
enum Def {
    /// A bit of a term variable: free.
    Input,
    /// The blaster's constant-true literal.
    True,
    /// The output of a gate.
    Gate(Gate),
}

/// The memo's gate store: one definition per variable.
#[derive(Default)]
struct GateDefs(Vec<Def>);

impl GateSink for GateDefs {
    fn new_var(&mut self) -> u32 {
        self.0.push(Def::Input);
        (self.0.len() - 1) as u32
    }

    fn unit(&mut self, l: Lit) {
        debug_assert!(!l.is_neg(), "the blaster asserts only its true literal");
        self.0[l.var() as usize] = Def::True;
    }

    fn define(&mut self, o: Lit, gate: Gate) {
        self.0[o.var() as usize] = Def::Gate(gate);
    }
}

/// A per-worker CNF memo answering assertion-set queries as cone probes
/// (see the module docs).
///
/// One instance per (test, worker): the memo grows with every condition
/// it encodes, so it should serve one test's conditions, which recur.
#[derive(Default)]
pub struct IncrementalSolver {
    /// Every term encoded so far, as gate definitions.
    memo: BitBlaster<GateDefs>,
    /// The probe instance, reset and reloaded for every probe.
    sat: SatSolver,
    /// Probe variable + 1 of each memo variable in the current cone;
    /// 0 outside it.
    renum: Vec<u32>,
    /// Polarities (bit 0: forced true, bit 1: forced false) each memo
    /// variable of the current cone is reached with; 0 outside it.
    pol: Vec<u8>,
    /// Memo variables of the current cone, in load order.
    cone: Vec<u32>,
}

impl fmt::Debug for IncrementalSolver {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("IncrementalSolver")
            .field("memo_vars", &self.memo.sat.0.len())
            .finish_non_exhaustive()
    }
}

impl IncrementalSolver {
    /// Fresh, empty memo.
    pub fn new() -> Self {
        IncrementalSolver::default()
    }

    /// Probe the conjunction of `key` under `budget`, adding the probe's
    /// effort to `stats` (`assumption_probes`, `probe_unsat`,
    /// `probe_clauses`, `cnf_cache_hits`, the SAT counters and times).
    ///
    /// Unsat answers are definitive under any budget. Sat means
    /// satisfiable, but the probe's model is not the canonical one, so
    /// callers wanting a model re-derive it; Unknown means the budget ran
    /// out on this probe, and a fresh solve may still decide.
    pub fn probe(
        &mut self,
        key: &[Term],
        budget: &SolverBudget,
        stats: &mut SolverStats,
    ) -> SatOutcome {
        stats.assumption_probes += 1;
        let t0 = Instant::now();
        let hits = self.memo.cache_hits;
        let roots: Vec<Lit> = key.iter().map(|t| self.memo.blast_bool(t)).collect();
        stats.cnf_cache_hits += self.memo.cache_hits - hits;
        stats.probe_clauses += self.load_cone(&roots);
        stats.bitblast_ns += t0.elapsed().as_nanos() as u64;
        self.sat.max_conflicts = budget.max_conflicts;
        let t1 = Instant::now();
        let out = self.sat.solve();
        stats.search_ns += t1.elapsed().as_nanos() as u64;
        stats.sat_conflicts += self.sat.conflicts;
        stats.sat_decisions += self.sat.decisions;
        stats.sat_propagations += self.sat.propagations;
        if out == SatOutcome::Unsat {
            stats.probe_unsat += 1;
        }
        out
    }

    /// Reset the probe instance and load the gates `roots` depend on,
    /// renumbered compactly, plus each root as a unit. Returns the number
    /// of clauses loaded.
    ///
    /// Each gate contributes only the half of its definition that the
    /// polarities it is reached with need (Plaisted–Greenbaum): an output
    /// only ever forced true needs `o → gate`, one only forced false
    /// needs `gate → o`. The result is equisatisfiable with the full
    /// Tseitin encoding, which is all an Unsat answer relies on.
    fn load_cone(&mut self, roots: &[Lit]) -> u64 {
        const POS: u8 = 1;
        const NEG: u8 = 2;
        /// The polarities `p` of literal `l`, seen on its variable.
        fn on_var(p: u8, l: Lit) -> u8 {
            if l.is_neg() {
                ((p & POS) << 1) | ((p & NEG) >> 1)
            } else {
                p
            }
        }
        let IncrementalSolver {
            memo,
            sat,
            renum,
            pol,
            cone,
        } = self;
        let defs = &memo.sat.0;
        sat.reset();
        renum.resize(defs.len(), 0);
        pol.resize(defs.len(), 0);
        let mut stack: Vec<(u32, u8)> = roots.iter().map(|&l| (l.var(), on_var(POS, l))).collect();
        while let Some((v, p)) = stack.pop() {
            let v = v as usize;
            let new = p & !pol[v];
            if new == 0 {
                continue;
            }
            if pol[v] == 0 {
                renum[v] = sat.new_var() + 1;
                cone.push(v as u32);
            }
            pol[v] |= new;
            match defs[v] {
                Def::Input | Def::True => {}
                Def::Gate(Gate::And(a, b)) => {
                    stack.push((a.var(), on_var(new, a)));
                    stack.push((b.var(), on_var(new, b)));
                }
                Def::Gate(Gate::Xor(a, b)) => {
                    stack.push((a.var(), POS | NEG));
                    stack.push((b.var(), POS | NEG));
                }
                Def::Gate(Gate::Mux(s, t, e)) => {
                    stack.push((s.var(), POS | NEG));
                    stack.push((t.var(), on_var(new, t)));
                    stack.push((e.var(), on_var(new, e)));
                }
            }
        }
        let lit = |l: Lit| Lit::new(renum[l.var() as usize] - 1, l.is_neg());
        let mut clauses = roots.len() as u64;
        for &v in cone.iter() {
            let o = Lit::pos(renum[v as usize] - 1);
            let p = pol[v as usize];
            match defs[v as usize] {
                Def::Input => {}
                Def::True => {
                    clauses += 1;
                    sat.add_unit(o);
                }
                Def::Gate(g) => {
                    let g = match g {
                        Gate::And(a, b) => Gate::And(lit(a), lit(b)),
                        Gate::Xor(a, b) => Gate::Xor(lit(a), lit(b)),
                        Gate::Mux(s, t, e) => Gate::Mux(lit(s), lit(t), lit(e)),
                    };
                    // A clause with `¬o` is half of `o → gate`; one with
                    // `o` is half of `gate → o`.
                    g.clauses(o, |c| {
                        let half = if c.contains(&o) { NEG } else { POS };
                        if p & half != 0 {
                            clauses += 1;
                            sat.add_gate_clause(c);
                        }
                    });
                }
            }
        }
        for &r in roots {
            sat.add_unit(lit(r));
        }
        for &v in cone.iter() {
            renum[v as usize] = 0;
            pol[v as usize] = 0;
        }
        cone.clear();
        clauses
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn port() -> Term {
        Term::var("inc.port", 16)
    }

    #[test]
    fn probe_answers_match_semantics_across_queries() {
        let p = port();
        let low = p.clone().ult(Term::bv_const(16, 10));
        let high = p.clone().ugt(Term::bv_const(16, 20));
        let mid = p.clone().eq(Term::bv_const(16, 15));
        let mut inc = IncrementalSolver::new();
        let mut stats = SolverStats::default();
        let b = SolverBudget::unlimited();
        let mut probe = |key: &[Term]| inc.probe(key, &b, &mut stats);
        assert_eq!(probe(&[low.clone(), high.clone()]), SatOutcome::Unsat);
        assert_eq!(probe(std::slice::from_ref(&low)), SatOutcome::Sat);
        assert_eq!(probe(std::slice::from_ref(&high)), SatOutcome::Sat);
        assert_eq!(probe(&[mid.clone(), low]), SatOutcome::Unsat);
        assert_eq!(probe(&[mid, high]), SatOutcome::Unsat);
        assert_eq!(stats.assumption_probes, 5);
        assert_eq!(stats.probe_unsat, 3);
    }

    #[test]
    fn shared_subterms_hit_the_cnf_cache() {
        let p = port();
        // Both conditions share the subterm `p + 1`.
        let bump = p.clone().bvadd(Term::bv_const(16, 1));
        let c1 = bump.clone().ugt(Term::bv_const(16, 5));
        let c2 = bump.ult(Term::bv_const(16, 100));
        let mut inc = IncrementalSolver::new();
        let mut stats = SolverStats::default();
        let b = SolverBudget::unlimited();
        assert_eq!(inc.probe(&[c1], &b, &mut stats), SatOutcome::Sat);
        let after_first = stats.cnf_cache_hits;
        assert_eq!(inc.probe(&[c2], &b, &mut stats), SatOutcome::Sat);
        assert!(
            stats.cnf_cache_hits > after_first,
            "second condition must reuse the shared subterm's CNF"
        );
    }

    #[test]
    fn cone_excludes_unrelated_conditions() {
        // A probe loads only its own cone: encoding 100 unrelated
        // conditions in the same memo must not grow the query's load.
        let p = port();
        let query = [
            p.clone().bvmul(p.clone()).ugt(Term::bv_const(16, 7)),
            p.ult(Term::bv_const(16, 300)),
        ];
        let mut inc = IncrementalSolver::new();
        let b = SolverBudget::unlimited();
        let load = |inc: &mut IncrementalSolver| {
            let mut stats = SolverStats::default();
            assert_eq!(inc.probe(&query, &b, &mut stats), SatOutcome::Sat);
            stats.probe_clauses
        };
        let alone = load(&mut inc);
        assert!(alone > 0);
        for i in 0..100u64 {
            let x = Term::var(format!("inc.cone{i}"), 16);
            let other = x.clone().bvadd(x).ugt(Term::bv_const(16, i));
            inc.probe(&[other], &b, &mut SolverStats::default());
        }
        assert_eq!(load(&mut inc), alone);
    }

    #[test]
    fn budget_limits_one_probe_not_the_memo() {
        // A hard query under a starved budget returns Unknown, a retry
        // under the same tiny budget does real work again, and the memo
        // still decides once unstarved.
        let xs: Vec<Term> = (0..12).map(|i| Term::var(format!("inc.h{i}"), 8)).collect();
        let mut sum = Term::bv_const(8, 0);
        for x in &xs {
            sum = sum.bvadd(x.clone().bvmul(x.clone()));
        }
        let hard = [sum.eq(Term::bv_const(8, 0x5a))];
        let mut inc = IncrementalSolver::new();
        let mut stats = SolverStats::default();
        let starved = SolverBudget::conflicts(2);
        assert_eq!(inc.probe(&hard, &starved, &mut stats), SatOutcome::Unknown);
        let c0 = stats.sat_conflicts;
        assert_ne!(inc.probe(&hard, &starved, &mut stats), SatOutcome::Unsat);
        assert!(stats.sat_conflicts > c0, "retry must get its own budget");
        assert_eq!(
            inc.probe(&hard, &SolverBudget::unlimited(), &mut stats),
            SatOutcome::Sat
        );
    }
}
