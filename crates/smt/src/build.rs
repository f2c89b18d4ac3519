//! Smart constructors.
//!
//! Every constructor performs local rewriting before interning: constant
//! folding, algebraic identities, and a handful of structural rules
//! (extract-of-concat, equality-over-concat splitting) that matter for the
//! byte-granular message encodings SOFT produces. Because the symbolic
//! execution engine builds all agent-visible values through these
//! constructors, fully concrete executions fold to constants automatically —
//! concrete and symbolic execution share one code path, exactly as in a
//! KLEE/Cloud9-style engine.

use crate::term::{mask, BvBinOp, BvUnaryOp, CmpOp, Op, Sort, Term};
use std::sync::{Arc, OnceLock};

/// Constants below this value get a slot in [`SMALL_BV`].
const SMALL_BV_VALUES: usize = 256;

/// The widths with a row in [`SMALL_BV`]: flags, bytes and the 16- and
/// 32-bit message fields. A row costs its memory once any of its values
/// is built, so rarer widths go to the interner.
const SMALL_BV_WIDTHS: [u32; 4] = [1, 8, 16, 32];

/// Interned bitvector constants below [`SMALL_BV_VALUES`] of the widths in
/// [`SMALL_BV_WIDTHS`], one slot per (width, value), filled on first use.
/// Concrete execution builds such constants at every step (each input byte
/// is one); a filled slot hands out the node without hashing it or taking
/// an interner shard lock.
static SMALL_BV: [OnceLock<Term>; SMALL_BV_WIDTHS.len() * SMALL_BV_VALUES] =
    [const { OnceLock::new() }; SMALL_BV_WIDTHS.len() * SMALL_BV_VALUES];

/// The interned boolean constants, `[false, true]`, filled on first use.
static BOOL_CONSTS: [OnceLock<Term>; 2] = [const { OnceLock::new() }; 2];

/// Fold a binary bitvector operation on concrete values.
pub(crate) fn fold_bin(op: BvBinOp, w: u32, a: u64, b: u64) -> u64 {
    let m = mask(w);
    let r = match op {
        BvBinOp::And => a & b,
        BvBinOp::Or => a | b,
        BvBinOp::Xor => a ^ b,
        BvBinOp::Add => a.wrapping_add(b),
        BvBinOp::Sub => a.wrapping_sub(b),
        BvBinOp::Mul => a.wrapping_mul(b),
        BvBinOp::UDiv => a.checked_div(b).unwrap_or(m), // SMT-LIB: x / 0 = all ones
        BvBinOp::URem => {
            if b == 0 {
                a
            } else {
                a % b
            }
        }
        BvBinOp::Shl => {
            if b >= w as u64 {
                0
            } else {
                a << b
            }
        }
        BvBinOp::Lshr => {
            if b >= w as u64 {
                0
            } else {
                a >> b
            }
        }
        BvBinOp::Ashr => {
            let sign = (a >> (w - 1)) & 1;
            if b >= w as u64 {
                if sign == 1 {
                    m
                } else {
                    0
                }
            } else {
                let shifted = a >> b;
                if sign == 1 {
                    shifted | (m & !(m >> b))
                } else {
                    shifted
                }
            }
        }
    };
    r & m
}

/// Sign-extend `v` (a `w`-bit value) to i64 semantics within u64.
pub(crate) fn sext(v: u64, w: u32) -> i64 {
    let shift = 64 - w;
    ((v << shift) as i64) >> shift
}

/// Fold a comparison on concrete values of width `w`.
pub(crate) fn fold_cmp(op: CmpOp, w: u32, a: u64, b: u64) -> bool {
    match op {
        CmpOp::Eq => a == b,
        CmpOp::Ult => a < b,
        CmpOp::Ule => a <= b,
        CmpOp::Slt => sext(a, w) < sext(b, w),
        CmpOp::Sle => sext(a, w) <= sext(b, w),
    }
}

impl Term {
    // ---------------------------------------------------------------- leaves

    /// Bitvector constant of the given width; `value` is masked to fit.
    pub fn bv_const(width: u32, value: u64) -> Term {
        assert!((1..=64).contains(&width), "bv width must be 1..=64");
        let value = value & mask(width);
        let intern = || Term::intern(Op::BvConst { width, value }, Sort::Bv(width));
        match SMALL_BV_WIDTHS.iter().position(|&w| w == width) {
            Some(row) if value < SMALL_BV_VALUES as u64 => SMALL_BV
                [row * SMALL_BV_VALUES + value as usize]
                .get_or_init(intern)
                .clone(),
            _ => intern(),
        }
    }

    /// Named symbolic variable. The same (name, width) pair always returns
    /// the identical term, also across independent runs within a process.
    pub fn var(name: impl Into<Arc<str>>, width: u32) -> Term {
        assert!((1..=64).contains(&width), "bv width must be 1..=64");
        Term::intern(
            Op::BvVar {
                name: name.into(),
                width,
            },
            Sort::Bv(width),
        )
    }

    /// Boolean constant `true`.
    pub fn bool_true() -> Term {
        Term::bool_const(true)
    }

    /// Boolean constant `false`.
    pub fn bool_false() -> Term {
        Term::bool_const(false)
    }

    /// Boolean constant.
    pub fn bool_const(b: bool) -> Term {
        BOOL_CONSTS[b as usize]
            .get_or_init(|| Term::intern(Op::BoolConst(b), Sort::Bool))
            .clone()
    }

    // ------------------------------------------------------------ bv unary

    /// Bitwise complement.
    pub fn bvnot(self) -> Term {
        let w = self.width();
        if let Some(v) = self.as_bv_const() {
            return Term::bv_const(w, !v);
        }
        // ~~x = x
        if let Op::BvUnary(BvUnaryOp::Not, inner) = self.op() {
            return inner.clone();
        }
        Term::intern(Op::BvUnary(BvUnaryOp::Not, self), Sort::Bv(w))
    }

    /// Two's-complement negation.
    pub fn bvneg(self) -> Term {
        let w = self.width();
        if let Some(v) = self.as_bv_const() {
            return Term::bv_const(w, v.wrapping_neg());
        }
        if let Op::BvUnary(BvUnaryOp::Neg, inner) = self.op() {
            return inner.clone();
        }
        Term::intern(Op::BvUnary(BvUnaryOp::Neg, self), Sort::Bv(w))
    }

    // ------------------------------------------------------------- bv binary

    fn bvbin(op: BvBinOp, a: Term, b: Term) -> Term {
        let w = a.width();
        assert_eq!(w, b.width(), "width mismatch in {op}: {a} vs {b}");
        if let (Some(x), Some(y)) = (a.as_bv_const(), b.as_bv_const()) {
            return Term::bv_const(w, fold_bin(op, w, x, y));
        }
        // Identity / annihilator rules.
        let m = mask(w);
        match op {
            BvBinOp::And => {
                if a.as_bv_const() == Some(0) || b.as_bv_const() == Some(0) {
                    return Term::bv_const(w, 0);
                }
                if a.as_bv_const() == Some(m) {
                    return b;
                }
                if b.as_bv_const() == Some(m) {
                    return a;
                }
                if a == b {
                    return a;
                }
            }
            BvBinOp::Or => {
                if a.as_bv_const() == Some(m) || b.as_bv_const() == Some(m) {
                    return Term::bv_const(w, m);
                }
                if a.as_bv_const() == Some(0) {
                    return b;
                }
                if b.as_bv_const() == Some(0) {
                    return a;
                }
                if a == b {
                    return a;
                }
            }
            BvBinOp::Xor => {
                if a == b {
                    return Term::bv_const(w, 0);
                }
                if a.as_bv_const() == Some(0) {
                    return b;
                }
                if b.as_bv_const() == Some(0) {
                    return a;
                }
            }
            BvBinOp::Add => {
                if a.as_bv_const() == Some(0) {
                    return b;
                }
                if b.as_bv_const() == Some(0) {
                    return a;
                }
            }
            BvBinOp::Sub => {
                if b.as_bv_const() == Some(0) {
                    return a;
                }
                if a == b {
                    return Term::bv_const(w, 0);
                }
            }
            BvBinOp::Mul => {
                if a.as_bv_const() == Some(0) || b.as_bv_const() == Some(0) {
                    return Term::bv_const(w, 0);
                }
                if a.as_bv_const() == Some(1) {
                    return b;
                }
                if b.as_bv_const() == Some(1) {
                    return a;
                }
            }
            BvBinOp::UDiv => {
                if b.as_bv_const() == Some(1) {
                    return a;
                }
            }
            BvBinOp::URem => {
                if b.as_bv_const() == Some(1) {
                    return Term::bv_const(w, 0);
                }
            }
            BvBinOp::Shl | BvBinOp::Lshr => {
                if b.as_bv_const() == Some(0) {
                    return a;
                }
                if let Some(s) = b.as_bv_const() {
                    if s >= w as u64 {
                        return Term::bv_const(w, 0);
                    }
                }
                if a.as_bv_const() == Some(0) {
                    return Term::bv_const(w, 0);
                }
            }
            BvBinOp::Ashr => {
                if b.as_bv_const() == Some(0) {
                    return a;
                }
                if a.as_bv_const() == Some(0) {
                    return Term::bv_const(w, 0);
                }
            }
        }
        // Canonical operand order for commutative ops (const to the right).
        let (a, b) = match op {
            BvBinOp::And | BvBinOp::Or | BvBinOp::Xor | BvBinOp::Add | BvBinOp::Mul => {
                if a.is_const() || (a > b && !b.is_const()) {
                    (b, a)
                } else {
                    (a, b)
                }
            }
            _ => (a, b),
        };
        Term::intern(Op::BvBin(op, a, b), Sort::Bv(w))
    }

    /// Bitwise and.
    pub fn bvand(self, rhs: Term) -> Term {
        Term::bvbin(BvBinOp::And, self, rhs)
    }
    /// Bitwise or.
    pub fn bvor(self, rhs: Term) -> Term {
        Term::bvbin(BvBinOp::Or, self, rhs)
    }
    /// Bitwise xor.
    pub fn bvxor(self, rhs: Term) -> Term {
        Term::bvbin(BvBinOp::Xor, self, rhs)
    }
    /// Wrapping addition.
    pub fn bvadd(self, rhs: Term) -> Term {
        Term::bvbin(BvBinOp::Add, self, rhs)
    }
    /// Wrapping subtraction.
    pub fn bvsub(self, rhs: Term) -> Term {
        Term::bvbin(BvBinOp::Sub, self, rhs)
    }
    /// Wrapping multiplication.
    pub fn bvmul(self, rhs: Term) -> Term {
        Term::bvbin(BvBinOp::Mul, self, rhs)
    }
    /// Unsigned division (x/0 = all-ones).
    pub fn bvudiv(self, rhs: Term) -> Term {
        Term::bvbin(BvBinOp::UDiv, self, rhs)
    }
    /// Unsigned remainder (x%0 = x).
    pub fn bvurem(self, rhs: Term) -> Term {
        Term::bvbin(BvBinOp::URem, self, rhs)
    }
    /// Left shift (shift amounts >= width yield 0).
    pub fn bvshl(self, rhs: Term) -> Term {
        Term::bvbin(BvBinOp::Shl, self, rhs)
    }
    /// Logical right shift.
    pub fn bvlshr(self, rhs: Term) -> Term {
        Term::bvbin(BvBinOp::Lshr, self, rhs)
    }
    /// Arithmetic right shift.
    pub fn bvashr(self, rhs: Term) -> Term {
        Term::bvbin(BvBinOp::Ashr, self, rhs)
    }

    // ------------------------------------------------------- structure ops

    /// Concatenation: `self` becomes the high bits. Total width must be <=64.
    pub fn concat(self, lo: Term) -> Term {
        let (wh, wl) = (self.width(), lo.width());
        assert!(wh + wl <= 64, "concat width {} + {} > 64", wh, wl);
        let w = wh + wl;
        if let (Some(h), Some(l)) = (self.as_bv_const(), lo.as_bv_const()) {
            return Term::bv_const(w, (h << wl) | l);
        }
        // (concat (extract hi m x) (extract m-1 lo x)) = (extract hi lo x)
        if let (
            Op::BvExtract {
                hi: h1,
                lo: l1,
                arg: a1,
            },
            Op::BvExtract {
                hi: h2,
                lo: l2,
                arg: a2,
            },
        ) = (self.op(), lo.op())
        {
            if a1 == a2 && *l1 == *h2 + 1 {
                return a1.clone().extract(*h1, *l2);
            }
        }
        Term::intern(Op::BvConcat(self, lo), Sort::Bv(w))
    }

    /// Extract bits `hi..=lo` (inclusive, LSB-based). Result width hi-lo+1.
    pub fn extract(self, hi: u32, lo: u32) -> Term {
        let w = self.width();
        assert!(hi >= lo && hi < w, "bad extract [{hi}:{lo}] of width {w}");
        let rw = hi - lo + 1;
        if rw == w {
            return self;
        }
        if let Some(v) = self.as_bv_const() {
            return Term::bv_const(rw, v >> lo);
        }
        match self.op() {
            // extract of extract composes
            Op::BvExtract {
                lo: ilo, arg: iarg, ..
            } => {
                return iarg.clone().extract(ilo + hi, ilo + lo);
            }
            // extract of concat descends into the covering half when possible
            Op::BvConcat(h, l) => {
                let wl = l.width();
                if hi < wl {
                    return l.clone().extract(hi, lo);
                }
                if lo >= wl {
                    return h.clone().extract(hi - wl, lo - wl);
                }
                // Straddles the seam: split into two extracts.
                let high_part = h.clone().extract(hi - wl, 0);
                let low_part = l.clone().extract(wl - 1, lo);
                return high_part.concat(low_part);
            }
            _ => {}
        }
        Term::intern(Op::BvExtract { hi, lo, arg: self }, Sort::Bv(rw))
    }

    /// Zero-extend to `new_width`.
    pub fn zext(self, new_width: u32) -> Term {
        let w = self.width();
        assert!(new_width >= w && new_width <= 64);
        if new_width == w {
            return self;
        }
        Term::bv_const(new_width - w, 0).concat(self)
    }

    /// Sign-extend to `new_width`.
    pub fn sext_to(self, new_width: u32) -> Term {
        let w = self.width();
        assert!(new_width >= w && new_width <= 64);
        if new_width == w {
            return self;
        }
        if let Some(v) = self.as_bv_const() {
            return Term::bv_const(new_width, sext(v, w) as u64);
        }
        let sign = self.clone().extract(w - 1, w - 1);
        let ones = Term::bv_const(new_width - w, mask(new_width - w));
        let zeros = Term::bv_const(new_width - w, 0);
        let ext = Term::ite_bv(sign.eq(Term::bv_const(1, 1)), ones, zeros);
        ext.concat(self)
    }

    /// Bitvector if-then-else.
    pub fn ite_bv(cond: Term, then: Term, els: Term) -> Term {
        assert_eq!(cond.sort(), Sort::Bool);
        assert_eq!(then.width(), els.width());
        if let Some(c) = cond.as_bool_const() {
            return if c { then } else { els };
        }
        if then == els {
            return then;
        }
        let w = then.width();
        Term::intern(Op::BvIte(cond, then, els), Sort::Bv(w))
    }

    // ------------------------------------------------------------- booleans

    /// Boolean negation.
    #[allow(clippy::should_implement_trait)] // mirrors SMT-LIB naming; Term is not `Copy`-friendly for ops
    pub fn not(self) -> Term {
        assert_eq!(self.sort(), Sort::Bool);
        if let Some(b) = self.as_bool_const() {
            return Term::bool_const(!b);
        }
        if let Op::Not(inner) = self.op() {
            return inner.clone();
        }
        Term::intern(Op::Not(self), Sort::Bool)
    }

    /// Boolean conjunction.
    pub fn and(self, rhs: Term) -> Term {
        assert_eq!(self.sort(), Sort::Bool);
        assert_eq!(rhs.sort(), Sort::Bool);
        match (self.as_bool_const(), rhs.as_bool_const()) {
            (Some(false), _) | (_, Some(false)) => return Term::bool_false(),
            (Some(true), _) => return rhs,
            (_, Some(true)) => return self,
            _ => {}
        }
        if self == rhs {
            return self;
        }
        Term::intern(Op::And(self, rhs), Sort::Bool)
    }

    /// Boolean disjunction.
    pub fn or(self, rhs: Term) -> Term {
        assert_eq!(self.sort(), Sort::Bool);
        assert_eq!(rhs.sort(), Sort::Bool);
        match (self.as_bool_const(), rhs.as_bool_const()) {
            (Some(true), _) | (_, Some(true)) => return Term::bool_true(),
            (Some(false), _) => return rhs,
            (_, Some(false)) => return self,
            _ => {}
        }
        if self == rhs {
            return self;
        }
        Term::intern(Op::Or(self, rhs), Sort::Bool)
    }

    /// Boolean implication.
    pub fn implies(self, rhs: Term) -> Term {
        self.not().or(rhs)
    }

    /// Boolean equivalence.
    pub fn iff(self, rhs: Term) -> Term {
        assert_eq!(self.sort(), Sort::Bool);
        assert_eq!(rhs.sort(), Sort::Bool);
        match (self.as_bool_const(), rhs.as_bool_const()) {
            (Some(a), Some(b)) => return Term::bool_const(a == b),
            (Some(true), _) => return rhs,
            (_, Some(true)) => return self,
            (Some(false), _) => return rhs.not(),
            (_, Some(false)) => return self.not(),
            _ => {}
        }
        if self == rhs {
            return Term::bool_true();
        }
        Term::intern(Op::Iff(self, rhs), Sort::Bool)
    }

    // ---------------------------------------------------------- comparisons

    fn cmp_op(op: CmpOp, a: Term, b: Term) -> Term {
        let w = a.width();
        assert_eq!(w, b.width(), "width mismatch in comparison: {a} vs {b}");
        if let (Some(x), Some(y)) = (a.as_bv_const(), b.as_bv_const()) {
            return Term::bool_const(fold_cmp(op, w, x, y));
        }
        if a == b {
            return Term::bool_const(matches!(op, CmpOp::Eq | CmpOp::Ule | CmpOp::Sle));
        }
        // Canonicalize Eq operand order *before* rule matching so rewrites
        // that pattern-match on (expr, const) fire regardless of how the
        // caller oriented the equality (parsing rebuilds in printed order).
        let (a, b) = if op == CmpOp::Eq && (a.is_const() || (a > b && !b.is_const())) {
            (b, a)
        } else {
            (a, b)
        };
        match op {
            CmpOp::Eq => {
                // (= (concat h l) c) splits bytewise: crucial for message
                // field comparisons against constants.
                if let (Op::BvConcat(h, l), Some(c)) = (a.op(), b.as_bv_const()) {
                    let wl = l.width();
                    let wh = h.width();
                    let hc = Term::bv_const(wh, c >> wl);
                    let lc = Term::bv_const(wl, c);
                    return h.clone().eq(hc).and(l.clone().eq(lc));
                }
                // (= (bvadd x c1) c2) -> (= x (bvsub c2 c1)); same for sub
                // and xor. Keeps offset arithmetic from hiding equalities.
                if let (Op::BvBin(bop, x, c1), Some(c2)) = (a.op(), b.as_bv_const()) {
                    if let Some(c1v) = c1.as_bv_const() {
                        match bop {
                            BvBinOp::Add => {
                                return x.clone().eq(Term::bv_const(w, c2.wrapping_sub(c1v)));
                            }
                            BvBinOp::Sub => {
                                return x.clone().eq(Term::bv_const(w, c2.wrapping_add(c1v)));
                            }
                            BvBinOp::Xor => {
                                return x.clone().eq(Term::bv_const(w, c2 ^ c1v));
                            }
                            _ => {}
                        }
                    }
                }
                // (= (ite c t e) k) with const branches resolves to c or !c.
                if let (Op::BvIte(c, t, e), Some(k)) = (a.op(), b.as_bv_const()) {
                    if let (Some(tv), Some(ev)) = (t.as_bv_const(), e.as_bv_const()) {
                        return match (tv == k, ev == k) {
                            (true, true) => Term::bool_true(),
                            (true, false) => c.clone(),
                            (false, true) => c.clone().not(),
                            (false, false) => Term::bool_false(),
                        };
                    }
                }
            }
            CmpOp::Ult => {
                // x < 0 is false; x < 1 is x == 0; max < x is false
                if b.as_bv_const() == Some(0) {
                    return Term::bool_false();
                }
                if a.as_bv_const() == Some(mask(w)) {
                    return Term::bool_false();
                }
                if b.as_bv_const() == Some(1) {
                    return a.eq(Term::bv_const(w, 0));
                }
            }
            CmpOp::Ule => {
                if a.as_bv_const() == Some(0) {
                    return Term::bool_true();
                }
                if b.as_bv_const() == Some(mask(w)) {
                    return Term::bool_true();
                }
            }
            _ => {}
        }
        Term::intern(Op::Cmp(op, a, b), Sort::Bool)
    }

    /// Equality (bitvector operands, boolean result).
    pub fn eq(self, rhs: Term) -> Term {
        Term::cmp_op(CmpOp::Eq, self, rhs)
    }
    /// Disequality.
    pub fn ne(self, rhs: Term) -> Term {
        self.eq(rhs).not()
    }
    /// Unsigned less-than.
    pub fn ult(self, rhs: Term) -> Term {
        Term::cmp_op(CmpOp::Ult, self, rhs)
    }
    /// Unsigned less-or-equal.
    pub fn ule(self, rhs: Term) -> Term {
        Term::cmp_op(CmpOp::Ule, self, rhs)
    }
    /// Unsigned greater-than.
    pub fn ugt(self, rhs: Term) -> Term {
        rhs.ult(self)
    }
    /// Unsigned greater-or-equal.
    pub fn uge(self, rhs: Term) -> Term {
        rhs.ule(self)
    }
    /// Signed less-than.
    pub fn slt(self, rhs: Term) -> Term {
        Term::cmp_op(CmpOp::Slt, self, rhs)
    }
    /// Signed less-or-equal.
    pub fn sle(self, rhs: Term) -> Term {
        Term::cmp_op(CmpOp::Sle, self, rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_folding_arith() {
        let a = Term::bv_const(8, 200);
        let b = Term::bv_const(8, 100);
        assert_eq!(a.clone().bvadd(b.clone()).as_bv_const(), Some(44)); // wraps
        assert_eq!(a.clone().bvsub(b.clone()).as_bv_const(), Some(100));
        assert_eq!(b.clone().bvsub(a.clone()).as_bv_const(), Some(156));
        assert_eq!(
            a.clone().bvmul(b.clone()).as_bv_const(),
            Some((200 * 100) % 256)
        );
        assert_eq!(a.clone().bvudiv(b.clone()).as_bv_const(), Some(2));
        assert_eq!(a.bvurem(b).as_bv_const(), Some(0));
    }

    #[test]
    fn division_by_zero_follows_smtlib() {
        let a = Term::bv_const(8, 7);
        let z = Term::bv_const(8, 0);
        assert_eq!(a.clone().bvudiv(z.clone()).as_bv_const(), Some(0xff));
        assert_eq!(a.bvurem(z).as_bv_const(), Some(7));
    }

    #[test]
    fn shift_semantics() {
        let a = Term::bv_const(8, 0b1000_0001);
        assert_eq!(
            a.clone().bvshl(Term::bv_const(8, 1)).as_bv_const(),
            Some(0b10)
        );
        assert_eq!(
            a.clone().bvlshr(Term::bv_const(8, 1)).as_bv_const(),
            Some(0b0100_0000)
        );
        assert_eq!(
            a.clone().bvashr(Term::bv_const(8, 1)).as_bv_const(),
            Some(0b1100_0000)
        );
        assert_eq!(a.clone().bvshl(Term::bv_const(8, 9)).as_bv_const(), Some(0));
        assert_eq!(a.bvashr(Term::bv_const(8, 9)).as_bv_const(), Some(0xff));
    }

    #[test]
    fn identities_eliminate_ops() {
        let x = Term::var("bx", 8);
        let zero = Term::bv_const(8, 0);
        let ones = Term::bv_const(8, 0xff);
        assert_eq!(x.clone().bvand(zero.clone()), zero);
        assert_eq!(x.clone().bvand(ones.clone()), x);
        assert_eq!(x.clone().bvor(zero.clone()), x);
        assert_eq!(x.clone().bvxor(x.clone()), zero);
        assert_eq!(x.clone().bvadd(zero.clone()), x);
        assert_eq!(x.clone().bvsub(x.clone()), zero);
        assert_eq!(x.clone().bvmul(Term::bv_const(8, 1)), x);
    }

    #[test]
    fn double_negation_cancels() {
        let x = Term::var("dn", 8);
        assert_eq!(x.clone().bvnot().bvnot(), x);
        assert_eq!(x.clone().bvneg().bvneg(), x);
        let c = x.eq(Term::bv_const(8, 3));
        assert_eq!(c.clone().not().not(), c);
    }

    #[test]
    fn extract_of_concat_descends() {
        let h = Term::var("h", 8);
        let l = Term::var("l", 8);
        let c = h.clone().concat(l.clone());
        assert_eq!(c.clone().extract(7, 0), l);
        assert_eq!(c.clone().extract(15, 8), h);
        assert_eq!(c.clone().extract(15, 0), c);
    }

    #[test]
    fn extract_of_extract_composes() {
        let x = Term::var("ee", 32);
        let a = x.clone().extract(23, 8); // 16 bits
        let b = a.extract(7, 0); // low 8 of those = bits 15..8 of x
        assert_eq!(b, x.extract(15, 8));
    }

    #[test]
    fn concat_of_adjacent_extracts_fuses() {
        let x = Term::var("ce", 32);
        let hi = x.clone().extract(31, 16);
        let lo = x.clone().extract(15, 0);
        assert_eq!(hi.concat(lo), x);
    }

    #[test]
    fn eq_on_concat_splits_bytewise() {
        let a = Term::var("sa", 8);
        let b = Term::var("sb", 8);
        let e = a.clone().concat(b.clone()).eq(Term::bv_const(16, 0x1234));
        let expected = a
            .eq(Term::bv_const(8, 0x12))
            .and(b.eq(Term::bv_const(8, 0x34)));
        assert_eq!(e, expected);
    }

    #[test]
    fn zext_and_sext() {
        assert_eq!(Term::bv_const(8, 0x80).zext(16).as_bv_const(), Some(0x0080));
        assert_eq!(
            Term::bv_const(8, 0x80).sext_to(16).as_bv_const(),
            Some(0xff80)
        );
        assert_eq!(
            Term::bv_const(8, 0x7f).sext_to(16).as_bv_const(),
            Some(0x007f)
        );
        let x = Term::var("zx", 8);
        assert_eq!(x.clone().zext(16).extract(7, 0), x);
    }

    #[test]
    fn bool_shortcuts() {
        let t = Term::bool_true();
        let f = Term::bool_false();
        let x = Term::var("bb", 8).eq(Term::bv_const(8, 1));
        assert_eq!(x.clone().and(t.clone()), x);
        assert_eq!(x.clone().and(f.clone()), f);
        assert_eq!(x.clone().or(t.clone()), t);
        assert_eq!(x.clone().or(f.clone()), x);
        assert_eq!(x.clone().and(x.clone()), x);
        assert_eq!(f.clone().implies(x.clone()), t);
        assert_eq!(x.clone().iff(x.clone()), t);
    }

    #[test]
    fn comparisons_fold_and_simplify() {
        let x = Term::var("cmp", 8);
        assert_eq!(
            Term::bv_const(8, 3)
                .ult(Term::bv_const(8, 5))
                .as_bool_const(),
            Some(true)
        );
        assert_eq!(
            x.clone().ult(Term::bv_const(8, 0)).as_bool_const(),
            Some(false)
        );
        assert_eq!(
            x.clone().ule(Term::bv_const(8, 0xff)).as_bool_const(),
            Some(true)
        );
        assert_eq!(x.clone().eq(x.clone()).as_bool_const(), Some(true));
        assert_eq!(
            x.clone().ult(Term::bv_const(8, 1)),
            x.eq(Term::bv_const(8, 0))
        );
    }

    #[test]
    fn signed_comparisons_fold() {
        // 0xff is -1 signed
        assert_eq!(
            Term::bv_const(8, 0xff)
                .slt(Term::bv_const(8, 0))
                .as_bool_const(),
            Some(true)
        );
        assert_eq!(
            Term::bv_const(8, 0x7f)
                .slt(Term::bv_const(8, 0x80))
                .as_bool_const(),
            Some(false)
        );
    }

    #[test]
    fn ite_simplifies() {
        let c = Term::var("ic", 8).eq(Term::bv_const(8, 1));
        let a = Term::bv_const(8, 10);
        let b = Term::bv_const(8, 20);
        assert_eq!(Term::ite_bv(Term::bool_true(), a.clone(), b.clone()), a);
        assert_eq!(Term::ite_bv(Term::bool_false(), a.clone(), b.clone()), b);
        assert_eq!(Term::ite_bv(c.clone(), a.clone(), a.clone()), a);
        // (= (ite c 10 20) 10) == c
        let e = Term::ite_bv(c.clone(), a.clone(), b.clone()).eq(a.clone());
        assert_eq!(e, c);
        let e2 = Term::ite_bv(c.clone(), a.clone(), b.clone()).eq(b);
        assert_eq!(e2, c.clone().not());
        let e3 = Term::ite_bv(c, a.clone(), a).eq(Term::bv_const(8, 99));
        assert_eq!(e3.as_bool_const(), Some(false));
    }
}
