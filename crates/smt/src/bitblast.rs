//! Tseitin bit-blasting of bitvector terms to CNF.
//!
//! Every bitvector term is encoded as a little-endian vector of SAT literals;
//! boolean terms become single literals. Circuits follow the standard
//! constructions (ripple-carry adders, shift-and-add multipliers, restoring
//! long division, barrel shifters), which is also how STP lowers the
//! bitvector theory. Encodings are cached per term so the shared DAG
//! structure of path conditions translates to shared circuitry.
//!
//! Every circuit is built from three gates (and, xor, multiplexer). Where
//! a gate's definition goes is the blaster's [`GateSink`]: a
//! [`SatSolver`] receives each definition as its Tseitin clauses at once,
//! while the incremental probe's memo ([`crate::incremental`]) records the
//! definitions by output variable and loads only the ones a query needs.

use crate::fxhash::FxHashMap;
use crate::sat::{Lit, SatSolver};
use crate::term::{BvBinOp, BvUnaryOp, CmpOp, Op, Term};
use crate::Assignment;
use std::sync::Arc;

/// A gate over input literals; its output literal is named separately.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Gate {
    /// `a ∧ b`.
    And(Lit, Lit),
    /// `a ⊕ b`.
    Xor(Lit, Lit),
    /// `if s then t else e`.
    Mux(Lit, Lit, Lit),
}

impl Gate {
    /// Emit the Tseitin clauses of `o ↔ gate`, always in the same order.
    pub fn clauses(self, o: Lit, mut emit: impl FnMut(&[Lit])) {
        match self {
            Gate::And(a, b) => {
                emit(&[o.negate(), a]);
                emit(&[o.negate(), b]);
                emit(&[o, a.negate(), b.negate()]);
            }
            Gate::Xor(a, b) => {
                emit(&[a, b, o.negate()]);
                emit(&[a, b.negate(), o]);
                emit(&[a.negate(), b, o]);
                emit(&[a.negate(), b.negate(), o.negate()]);
            }
            Gate::Mux(s, t, e) => {
                emit(&[s.negate(), t.negate(), o]);
                emit(&[s.negate(), t, o.negate()]);
                emit(&[s, e.negate(), o]);
                emit(&[s, e, o.negate()]);
            }
        }
    }
}

/// Receiver of the bit-blaster's variables and gate definitions.
pub trait GateSink: Default {
    /// Allocate a fresh variable.
    fn new_var(&mut self) -> u32;
    /// Assert `l` (the blaster's constant-true literal).
    fn unit(&mut self, l: Lit);
    /// Define the fresh output literal `o` as `gate` over earlier literals.
    fn define(&mut self, o: Lit, gate: Gate);
}

impl GateSink for SatSolver {
    fn new_var(&mut self) -> u32 {
        SatSolver::new_var(self)
    }

    fn unit(&mut self, l: Lit) {
        self.add_clause(&[l]);
    }

    fn define(&mut self, o: Lit, gate: Gate) {
        gate.clauses(o, |c| {
            self.add_clause(c);
        });
    }
}

/// Bit-blasting context owning its gate sink (by default a SAT solver).
///
/// Encodings are cached per term, keyed by the hash-consed DAG node id
/// (interner ids are unique for the life of the process, and the cache
/// holds the [`Term`] alive through its key's origin anyway via the
/// global interner). In a long-lived memo this means each shared subterm
/// is lowered once per *memo*, not once per query.
pub struct BitBlaster<S: GateSink = SatSolver> {
    /// Where gate definitions go; for a [`SatSolver`], exposed for
    /// solving and statistics inspection.
    pub sat: S,
    /// Times a `blast_bv`/`blast_bool` lookup was served from the CNF
    /// cache instead of re-encoding the node.
    pub cache_hits: u64,
    bv_cache: FxHashMap<u64, Vec<Lit>>,
    bool_cache: FxHashMap<u64, Lit>,
    /// Each blasted variable's name and bits, pushed on its `bv_cache`
    /// miss. A variable is one interned node, so it misses once and is
    /// listed once.
    var_bits: Vec<(Arc<str>, Vec<Lit>)>,
    true_lit: Lit,
    /// Set by [`BitBlaster::checkpoint`]: the keys inserted into
    /// `bv_cache` and `bool_cache` since, and the `var_bits` length it
    /// saved.
    logging: bool,
    bv_log: Vec<u64>,
    bool_log: Vec<u64>,
    saved_var_bits: usize,
}

impl std::fmt::Debug for BitBlaster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BitBlaster")
            .field("vars", &self.sat.num_vars())
            .field("clauses", &self.sat.num_clauses())
            .finish_non_exhaustive()
    }
}

impl<S: GateSink> Default for BitBlaster<S> {
    fn default() -> Self {
        Self::new()
    }
}

impl<S: GateSink> BitBlaster<S> {
    /// Fresh context with an empty sink.
    pub fn new() -> Self {
        let mut sat = S::default();
        let t = sat.new_var();
        let true_lit = Lit::pos(t);
        sat.unit(true_lit);
        BitBlaster {
            sat,
            cache_hits: 0,
            bv_cache: FxHashMap::default(),
            bool_cache: FxHashMap::default(),
            var_bits: Vec::new(),
            true_lit,
            logging: false,
            bv_log: Vec::new(),
            bool_log: Vec::new(),
            saved_var_bits: 0,
        }
    }

    fn false_lit(&self) -> Lit {
        self.true_lit.negate()
    }

    fn const_lit(&self, b: bool) -> Lit {
        if b {
            self.true_lit
        } else {
            self.false_lit()
        }
    }

    fn fresh(&mut self) -> Lit {
        Lit::pos(self.sat.new_var())
    }

    // ------------------------------------------------------------- gates

    fn and_gate(&mut self, a: Lit, b: Lit) -> Lit {
        if a == self.true_lit {
            return b;
        }
        if b == self.true_lit {
            return a;
        }
        if a == self.false_lit() || b == self.false_lit() {
            return self.false_lit();
        }
        if a == b {
            return a;
        }
        if a == b.negate() {
            return self.false_lit();
        }
        let o = self.fresh();
        self.sat.define(o, Gate::And(a, b));
        o
    }

    fn or_gate(&mut self, a: Lit, b: Lit) -> Lit {
        self.and_gate(a.negate(), b.negate()).negate()
    }

    fn xor_gate(&mut self, a: Lit, b: Lit) -> Lit {
        if a == self.true_lit {
            return b.negate();
        }
        if a == self.false_lit() {
            return b;
        }
        if b == self.true_lit {
            return a.negate();
        }
        if b == self.false_lit() {
            return a;
        }
        if a == b {
            return self.false_lit();
        }
        if a == b.negate() {
            return self.true_lit;
        }
        let o = self.fresh();
        self.sat.define(o, Gate::Xor(a, b));
        o
    }

    fn iff_gate(&mut self, a: Lit, b: Lit) -> Lit {
        self.xor_gate(a, b).negate()
    }

    /// Multiplexer: `if s then t else e`.
    fn mux_gate(&mut self, s: Lit, t: Lit, e: Lit) -> Lit {
        if s == self.true_lit {
            return t;
        }
        if s == self.false_lit() {
            return e;
        }
        if t == e {
            return t;
        }
        let o = self.fresh();
        self.sat.define(o, Gate::Mux(s, t, e));
        o
    }

    /// Majority of three (carry function).
    fn maj_gate(&mut self, a: Lit, b: Lit, c: Lit) -> Lit {
        let ab = self.and_gate(a, b);
        let ac = self.and_gate(a, c);
        let bc = self.and_gate(b, c);
        let t = self.or_gate(ab, ac);
        self.or_gate(t, bc)
    }

    /// Full adder returning (sum, carry_out).
    fn full_adder(&mut self, a: Lit, b: Lit, cin: Lit) -> (Lit, Lit) {
        let ab = self.xor_gate(a, b);
        let s = self.xor_gate(ab, cin);
        let co = self.maj_gate(a, b, cin);
        (s, co)
    }

    // ------------------------------------------------------- word circuits

    /// Ripple-carry addition; returns (sum bits, carry out).
    fn adder(&mut self, a: &[Lit], b: &[Lit], mut carry: Lit) -> (Vec<Lit>, Lit) {
        let mut out = Vec::with_capacity(a.len());
        for i in 0..a.len() {
            let (s, co) = self.full_adder(a[i], b[i], carry);
            out.push(s);
            carry = co;
        }
        (out, carry)
    }

    fn negate_bits(&self, a: &[Lit]) -> Vec<Lit> {
        a.iter().map(|l| l.negate()).collect()
    }

    /// a - b as a + ~b + 1; returns (diff, carry). carry == 1 iff a >= b.
    fn subtractor(&mut self, a: &[Lit], b: &[Lit]) -> (Vec<Lit>, Lit) {
        let nb = self.negate_bits(b);
        self.adder(a, &nb, self.true_lit)
    }

    /// Unsigned a < b.
    fn ult_circuit(&mut self, a: &[Lit], b: &[Lit]) -> Lit {
        let (_, carry) = self.subtractor(a, b);
        carry.negate()
    }

    /// Equality of bit vectors.
    fn eq_circuit(&mut self, a: &[Lit], b: &[Lit]) -> Lit {
        let mut acc = self.true_lit;
        for i in 0..a.len() {
            let bit_eq = self.iff_gate(a[i], b[i]);
            acc = self.and_gate(acc, bit_eq);
        }
        acc
    }

    fn mux_word(&mut self, s: Lit, t: &[Lit], e: &[Lit]) -> Vec<Lit> {
        t.iter()
            .zip(e.iter())
            .map(|(&ti, &ei)| self.mux_gate(s, ti, ei))
            .collect()
    }

    /// Shift-and-add multiplication (modulo 2^w).
    fn multiplier(&mut self, a: &[Lit], b: &[Lit]) -> Vec<Lit> {
        let w = a.len();
        let f = self.false_lit();
        let mut acc = vec![f; w];
        for i in 0..w {
            // partial = (a << i) gated by b[i]
            let mut partial = vec![f; w];
            for j in 0..(w - i) {
                partial[i + j] = self.and_gate(a[j], b[i]);
            }
            let (sum, _) = self.adder(&acc, &partial, f);
            acc = sum;
        }
        acc
    }

    /// Restoring long division; returns (quotient, remainder) with the
    /// SMT-LIB convention for division by zero.
    fn divider(&mut self, a: &[Lit], b: &[Lit]) -> (Vec<Lit>, Vec<Lit>) {
        let w = a.len();
        let f = self.false_lit();
        // One extra bit in the remainder register avoids overflow.
        let mut rem: Vec<Lit> = vec![f; w + 1];
        let mut bx: Vec<Lit> = b.to_vec();
        bx.push(f);
        let mut quot = vec![f; w];
        for i in (0..w).rev() {
            // rem = (rem << 1) | a[i]
            rem.rotate_right(1);
            rem[0] = a[i];
            // if rem >= b { rem -= b; q[i] = 1 }
            let (diff, ge) = self.subtractor(&rem, &bx);
            quot[i] = ge;
            rem = self.mux_word(ge, &diff, &rem);
        }
        rem.truncate(w);
        // Division by zero: quotient = all ones, remainder = a.
        let zero = vec![f; w];
        let b_is_zero = self.eq_circuit(b, &zero);
        let ones = vec![self.true_lit; w];
        let q = self.mux_word(b_is_zero, &ones, &quot);
        let r = self.mux_word(b_is_zero, a, &rem);
        (q, r)
    }

    /// Barrel shifter. `dir_left` selects shl; `arith` selects ashr fill.
    fn shifter(&mut self, a: &[Lit], amt: &[Lit], dir_left: bool, arith: bool) -> Vec<Lit> {
        let w = a.len();
        let fill0 = self.false_lit();
        let sign = *a.last().expect("empty word");
        let fill = if arith { sign } else { fill0 };
        let mut cur: Vec<Lit> = a.to_vec();
        for (k, &amt_bit) in amt.iter().enumerate() {
            let sh = 1usize << k.min(63);
            if sh >= w {
                // This amount bit alone pushes everything out.
                let filled = vec![fill; w];
                cur = self.mux_word(amt_bit, &filled, &cur);
                continue;
            }
            let shifted: Vec<Lit> = (0..w)
                .map(|i| {
                    if dir_left {
                        if i >= sh {
                            cur[i - sh]
                        } else {
                            fill0
                        }
                    } else if i + sh < w {
                        cur[i + sh]
                    } else {
                        fill
                    }
                })
                .collect();
            cur = self.mux_word(amt_bit, &shifted, &cur);
        }
        cur
    }

    // --------------------------------------------------------- term lowering

    /// Lower a bitvector term to its literal vector (little-endian).
    pub fn blast_bv(&mut self, t: &Term) -> Vec<Lit> {
        if let Some(v) = self.bv_cache.get(&t.id()) {
            self.cache_hits += 1;
            return v.clone();
        }
        let bits: Vec<Lit> = match t.op() {
            Op::BvConst { width, value } => (0..*width)
                .map(|i| self.const_lit((value >> i) & 1 == 1))
                .collect(),
            Op::BvVar { name, width } => {
                let bits: Vec<Lit> = (0..*width).map(|_| self.fresh()).collect();
                self.var_bits.push((name.clone(), bits.clone()));
                bits
            }
            Op::BvUnary(op, a) => {
                let av = self.blast_bv(a);
                match op {
                    BvUnaryOp::Not => self.negate_bits(&av),
                    BvUnaryOp::Neg => {
                        let na = self.negate_bits(&av);
                        let zero = vec![self.false_lit(); av.len()];
                        let (s, _) = self.adder(&na, &zero, self.true_lit);
                        s
                    }
                }
            }
            Op::BvBin(op, a, b) => {
                let av = self.blast_bv(a);
                let bv = self.blast_bv(b);
                match op {
                    BvBinOp::And => av
                        .iter()
                        .zip(&bv)
                        .map(|(&x, &y)| self.and_gate(x, y))
                        .collect(),
                    BvBinOp::Or => av
                        .iter()
                        .zip(&bv)
                        .map(|(&x, &y)| self.or_gate(x, y))
                        .collect(),
                    BvBinOp::Xor => av
                        .iter()
                        .zip(&bv)
                        .map(|(&x, &y)| self.xor_gate(x, y))
                        .collect(),
                    BvBinOp::Add => {
                        let f = self.false_lit();
                        self.adder(&av, &bv, f).0
                    }
                    BvBinOp::Sub => self.subtractor(&av, &bv).0,
                    BvBinOp::Mul => self.multiplier(&av, &bv),
                    BvBinOp::UDiv => self.divider(&av, &bv).0,
                    BvBinOp::URem => self.divider(&av, &bv).1,
                    BvBinOp::Shl => self.shifter(&av, &bv, true, false),
                    BvBinOp::Lshr => self.shifter(&av, &bv, false, false),
                    BvBinOp::Ashr => self.shifter(&av, &bv, false, true),
                }
            }
            Op::BvConcat(h, l) => {
                let mut lv = self.blast_bv(l);
                let hv = self.blast_bv(h);
                lv.extend(hv);
                lv
            }
            Op::BvExtract { hi, lo, arg } => {
                let av = self.blast_bv(arg);
                av[*lo as usize..=*hi as usize].to_vec()
            }
            Op::BvIte(c, a, b) => {
                let cl = self.blast_bool(c);
                let av = self.blast_bv(a);
                let bv = self.blast_bv(b);
                self.mux_word(cl, &av, &bv)
            }
            _ => panic!("blast_bv on boolean term {t}"),
        };
        self.bv_cache.insert(t.id(), bits.clone());
        if self.logging {
            self.bv_log.push(t.id());
        }
        bits
    }

    /// Lower a boolean term to a single literal.
    pub fn blast_bool(&mut self, t: &Term) -> Lit {
        if let Some(&l) = self.bool_cache.get(&t.id()) {
            self.cache_hits += 1;
            return l;
        }
        let lit = match t.op() {
            Op::BoolConst(b) => self.const_lit(*b),
            Op::Not(a) => self.blast_bool(a).negate(),
            Op::And(a, b) => {
                let al = self.blast_bool(a);
                let bl = self.blast_bool(b);
                self.and_gate(al, bl)
            }
            Op::Or(a, b) => {
                let al = self.blast_bool(a);
                let bl = self.blast_bool(b);
                self.or_gate(al, bl)
            }
            Op::Implies(a, b) => {
                let al = self.blast_bool(a);
                let bl = self.blast_bool(b);
                self.or_gate(al.negate(), bl)
            }
            Op::Iff(a, b) => {
                let al = self.blast_bool(a);
                let bl = self.blast_bool(b);
                self.iff_gate(al, bl)
            }
            Op::Cmp(op, a, b) => {
                let av = self.blast_bv(a);
                let bv = self.blast_bv(b);
                match op {
                    CmpOp::Eq => self.eq_circuit(&av, &bv),
                    CmpOp::Ult => self.ult_circuit(&av, &bv),
                    CmpOp::Ule => self.ult_circuit(&bv, &av).negate(),
                    CmpOp::Slt => {
                        // Flip sign bits and compare unsigned.
                        let (mut af, mut bf) = (av, bv);
                        let n = af.len();
                        af[n - 1] = af[n - 1].negate();
                        bf[n - 1] = bf[n - 1].negate();
                        self.ult_circuit(&af, &bf)
                    }
                    CmpOp::Sle => {
                        let (mut af, mut bf) = (av, bv);
                        let n = af.len();
                        af[n - 1] = af[n - 1].negate();
                        bf[n - 1] = bf[n - 1].negate();
                        self.ult_circuit(&bf, &af).negate()
                    }
                }
            }
            _ => panic!("blast_bool on bitvector term {t}"),
        };
        self.bool_cache.insert(t.id(), lit);
        if self.logging {
            self.bool_log.push(t.id());
        }
        lit
    }
}

impl BitBlaster {
    /// Empty the context for a new formula, keeping the allocations of its
    /// SAT instance and caches: afterwards it encodes exactly what
    /// [`BitBlaster::new`] would, into the same variable numbering.
    pub fn reset(&mut self) {
        self.sat.reset();
        self.bv_cache.clear();
        self.bool_cache.clear();
        self.var_bits.clear();
        self.cache_hits = 0;
        self.logging = false;
        self.bv_log.clear();
        self.bool_log.clear();
        let t = self.sat.new_var();
        self.true_lit = Lit::pos(t);
        self.sat.unit(self.true_lit);
    }

    /// Save the context at level 0 (see [`SatSolver::checkpoint`]); from
    /// here on every term encoding is logged so that
    /// [`BitBlaster::rollback`] can forget it.
    pub fn checkpoint(&mut self) {
        self.sat.checkpoint();
        self.logging = true;
        self.bv_log.clear();
        self.bool_log.clear();
        self.saved_var_bits = self.var_bits.len();
    }

    /// Return to the last checkpoint: the SAT instance rolls back, and
    /// the terms encoded since leave the caches, so each is encoded again,
    /// into the same variables, when it next appears. The context then
    /// encodes exactly what it encoded after the checkpoint was taken.
    pub fn rollback(&mut self) {
        self.sat.rollback();
        for id in self.bv_log.drain(..) {
            self.bv_cache.remove(&id);
        }
        for id in self.bool_log.drain(..) {
            self.bool_cache.remove(&id);
        }
        self.var_bits.truncate(self.saved_var_bits);
    }

    /// Assert a boolean term as a top-level constraint.
    pub fn assert_term(&mut self, t: &Term) {
        let l = self.blast_bool(t);
        self.sat.add_clause(&[l]);
    }

    /// After a `Sat` outcome, read back the values of all blasted variables.
    pub fn extract_assignment(&self) -> Assignment {
        let mut a = Assignment::new();
        for (name, bits) in &self.var_bits {
            let mut v = 0u64;
            for (i, l) in bits.iter().enumerate() {
                let bit = self.sat.model_value(l.var()) != l.is_neg();
                if bit {
                    v |= 1 << i;
                }
            }
            a.set(name.as_ref(), v);
        }
        a
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sat::SatOutcome;

    /// Assert `t`, solve, and return the satisfying assignment (if SAT).
    fn solve_one(t: &Term) -> Option<Assignment> {
        let mut bb: BitBlaster = BitBlaster::new();
        bb.assert_term(t);
        match bb.sat.solve() {
            SatOutcome::Sat => {
                let a = bb.extract_assignment();
                assert!(a.eval_bool(t), "model must satisfy the asserted term");
                Some(a)
            }
            SatOutcome::Unsat => None,
            SatOutcome::Unknown => panic!("unexpected unknown"),
        }
    }

    #[test]
    fn simple_equality_solvable() {
        let x = Term::var("bb.x", 8);
        let t = x.clone().eq(Term::bv_const(8, 42));
        let a = solve_one(&t).unwrap();
        assert_eq!(a.get("bb.x"), Some(42));
    }

    #[test]
    fn addition_constraint() {
        let x = Term::var("bb.a", 8);
        let y = Term::var("bb.b", 8);
        let t = x
            .clone()
            .bvadd(y.clone())
            .eq(Term::bv_const(8, 100))
            .and(x.clone().eq(Term::bv_const(8, 58)));
        let a = solve_one(&t).unwrap();
        assert_eq!(a.get("bb.a"), Some(58));
        assert_eq!(a.get("bb.b"), Some(42));
    }

    #[test]
    fn contradiction_is_unsat() {
        let x = Term::var("bb.c", 8);
        let t = x
            .clone()
            .eq(Term::bv_const(8, 1))
            .and(x.eq(Term::bv_const(8, 2)));
        assert!(solve_one(&t).is_none());
    }

    #[test]
    fn range_constraints() {
        let x = Term::var("bb.r", 16);
        let t = x
            .clone()
            .ugt(Term::bv_const(16, 100))
            .and(x.clone().ult(Term::bv_const(16, 103)));
        let a = solve_one(&t).unwrap();
        let v = a.get("bb.r").unwrap();
        assert!(v == 101 || v == 102);
    }

    #[test]
    fn multiplication_factors() {
        // x * y == 77 with x,y > 1 forces {7, 11}.
        let x = Term::var("bb.m1", 8);
        let y = Term::var("bb.m2", 8);
        let t = x
            .clone()
            .bvmul(y.clone())
            .eq(Term::bv_const(8, 77))
            .and(x.clone().ugt(Term::bv_const(8, 1)))
            .and(y.clone().ugt(Term::bv_const(8, 1)))
            .and(x.clone().ult(Term::bv_const(8, 16)))
            .and(y.clone().ult(Term::bv_const(8, 16)));
        let a = solve_one(&t).unwrap();
        let (xv, yv) = (a.get("bb.m1").unwrap(), a.get("bb.m2").unwrap());
        assert_eq!(xv * yv, 77);
    }

    #[test]
    fn division_circuit_matches_semantics() {
        let x = Term::var("bb.d", 8);
        let t = x
            .clone()
            .bvudiv(Term::bv_const(8, 10))
            .eq(Term::bv_const(8, 7))
            .and(
                x.clone()
                    .bvurem(Term::bv_const(8, 10))
                    .eq(Term::bv_const(8, 3)),
            );
        let a = solve_one(&t).unwrap();
        assert_eq!(a.get("bb.d"), Some(73));
    }

    #[test]
    fn division_by_zero_smtlib() {
        let x = Term::var("bb.dz", 8);
        let zero = Term::bv_const(8, 0);
        let t = x
            .clone()
            .bvudiv(zero.clone())
            .eq(Term::bv_const(8, 0xff))
            .and(x.clone().bvurem(zero).eq(x.clone()))
            .and(x.eq(Term::bv_const(8, 5)));
        assert!(solve_one(&t).is_some());
    }

    #[test]
    fn symbolic_shift() {
        let x = Term::var("bb.s", 8);
        let s = Term::var("bb.samt", 8);
        let t = Term::bv_const(8, 1)
            .bvshl(s.clone())
            .eq(Term::bv_const(8, 16))
            .and(x.clone().bvlshr(s.clone()).eq(Term::bv_const(8, 0x0f)))
            .and(x.clone().eq(Term::bv_const(8, 0xf0)));
        let a = solve_one(&t).unwrap();
        assert_eq!(a.get("bb.samt"), Some(4));
    }

    #[test]
    fn shift_overflow_amount_gives_zero() {
        let s = Term::var("bb.so", 8);
        let t = Term::bv_const(8, 0xff)
            .bvshl(s.clone())
            .eq(Term::bv_const(8, 0))
            .and(s.clone().ult(Term::bv_const(8, 16)))
            .and(s.clone().ugt(Term::bv_const(8, 7)));
        let a = solve_one(&t).unwrap();
        let v = a.get("bb.so").unwrap();
        assert!((8..16).contains(&v));
    }

    #[test]
    fn signed_comparison_circuit() {
        let x = Term::var("bb.sc", 8);
        // x < 0 signed and x > 0x80 unsigned => x in 0x81..=0xff
        let t = x
            .clone()
            .slt(Term::bv_const(8, 0))
            .and(x.clone().ugt(Term::bv_const(8, 0x80)));
        let a = solve_one(&t).unwrap();
        assert!(a.get("bb.sc").unwrap() > 0x80);
    }

    #[test]
    fn ite_blasting() {
        let c = Term::var("bb.ic", 8);
        let cond = c.clone().eq(Term::bv_const(8, 1));
        let e = Term::ite_bv(cond, Term::bv_const(8, 10), Term::bv_const(8, 20));
        let t = e.eq(Term::bv_const(8, 10));
        let a = solve_one(&t).unwrap();
        assert_eq!(a.get("bb.ic"), Some(1));
    }

    #[test]
    fn wide_terms_blast() {
        let x = Term::var("bb.w", 64);
        let t = x
            .clone()
            .bvadd(Term::bv_const(64, 1))
            .eq(Term::bv_const(64, 0));
        let a = solve_one(&t).unwrap();
        assert_eq!(a.get("bb.w"), Some(u64::MAX));
    }

    #[test]
    fn neg_circuit() {
        let x = Term::var("bb.n", 8);
        let t = x.clone().bvneg().eq(Term::bv_const(8, 1));
        let a = solve_one(&t).unwrap();
        assert_eq!(a.get("bb.n"), Some(0xff));
    }
}
