//! Concrete evaluation of terms under a variable assignment.
//!
//! Used to validate solver models, to turn a model into concrete reproduction
//! messages, and in tests as a ground-truth oracle for the bit-blaster.

use crate::build::{fold_bin, fold_cmp};
use crate::fxhash::FxHashMap;
use crate::term::{mask, BvUnaryOp, Op, Term};

/// A (partial) assignment of variable names to concrete values.
///
/// Values are stored masked to the variable width. Unassigned variables
/// evaluate to 0 (matching how models treat don't-care variables).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Assignment {
    values: std::collections::HashMap<String, u64>, // lint-exempt: names parsed from artifacts
}

/// A concrete value: either a bitvector (width, value) or a boolean.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Value {
    /// A bitvector value of the given width.
    Bv {
        /// Width in bits.
        width: u32,
        /// Value, masked to `width` bits.
        value: u64,
    },
    /// A boolean value.
    Bool(bool),
}

impl Value {
    /// The bitvector payload; panics on booleans.
    pub fn as_bv(self) -> u64 {
        match self {
            Value::Bv { value, .. } => value,
            Value::Bool(_) => panic!("expected bitvector value"),
        }
    }

    /// The boolean payload; panics on bitvectors.
    pub fn as_bool(self) -> bool {
        match self {
            Value::Bool(b) => b,
            Value::Bv { .. } => panic!("expected boolean value"),
        }
    }
}

impl Assignment {
    /// Empty assignment (all variables default to 0).
    pub fn new() -> Self {
        Self::default()
    }

    /// Set a variable by name.
    pub fn set(&mut self, name: impl Into<String>, value: u64) {
        self.values.insert(name.into(), value);
    }

    /// Look up a variable by name.
    pub fn get(&self, name: &str) -> Option<u64> {
        self.values.get(name).copied()
    }

    /// Iterate over (name, value) pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u64)> {
        self.values.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Number of assigned variables.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True if no variable is assigned.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Evaluate `term` under this assignment. Unassigned variables read 0.
    pub fn eval(&self, term: &Term) -> Value {
        let mut memo: FxHashMap<u64, Value> = FxHashMap::default();
        self.eval_memo(term, &mut memo)
    }

    /// Evaluate a boolean term to a bool.
    pub fn eval_bool(&self, term: &Term) -> bool {
        self.eval(term).as_bool()
    }

    /// Evaluate a bitvector term to its value.
    pub fn eval_bv(&self, term: &Term) -> u64 {
        self.eval(term).as_bv()
    }

    fn eval_memo(&self, term: &Term, memo: &mut FxHashMap<u64, Value>) -> Value {
        if let Some(v) = memo.get(&term.id()) {
            return *v;
        }
        let v = match term.op() {
            Op::BvConst { width, value } => Value::Bv {
                width: *width,
                value: *value,
            },
            Op::BvVar { name, width } => Value::Bv {
                width: *width,
                value: self.get(name).unwrap_or(0) & mask(*width),
            },
            Op::BvUnary(op, a) => {
                let av = self.eval_memo(a, memo);
                let w = a.width();
                let value = match op {
                    BvUnaryOp::Not => !av.as_bv() & mask(w),
                    BvUnaryOp::Neg => av.as_bv().wrapping_neg() & mask(w),
                };
                Value::Bv { width: w, value }
            }
            Op::BvBin(op, a, b) => {
                let w = a.width();
                let av = self.eval_memo(a, memo).as_bv();
                let bv = self.eval_memo(b, memo).as_bv();
                Value::Bv {
                    width: w,
                    value: fold_bin(*op, w, av, bv),
                }
            }
            Op::BvConcat(h, l) => {
                let hv = self.eval_memo(h, memo).as_bv();
                let lv = self.eval_memo(l, memo).as_bv();
                Value::Bv {
                    width: h.width() + l.width(),
                    value: (hv << l.width()) | lv,
                }
            }
            Op::BvExtract { hi, lo, arg } => {
                let av = self.eval_memo(arg, memo).as_bv();
                Value::Bv {
                    width: hi - lo + 1,
                    value: (av >> lo) & mask(hi - lo + 1),
                }
            }
            Op::BvIte(c, t, e) => {
                if self.eval_memo(c, memo).as_bool() {
                    self.eval_memo(t, memo)
                } else {
                    self.eval_memo(e, memo)
                }
            }
            Op::BoolConst(b) => Value::Bool(*b),
            Op::Not(a) => Value::Bool(!self.eval_memo(a, memo).as_bool()),
            Op::And(a, b) => {
                Value::Bool(self.eval_memo(a, memo).as_bool() && self.eval_memo(b, memo).as_bool())
            }
            Op::Or(a, b) => {
                Value::Bool(self.eval_memo(a, memo).as_bool() || self.eval_memo(b, memo).as_bool())
            }
            Op::Implies(a, b) => {
                Value::Bool(!self.eval_memo(a, memo).as_bool() || self.eval_memo(b, memo).as_bool())
            }
            Op::Iff(a, b) => {
                Value::Bool(self.eval_memo(a, memo).as_bool() == self.eval_memo(b, memo).as_bool())
            }
            Op::Cmp(op, a, b) => {
                let w = a.width();
                let av = self.eval_memo(a, memo).as_bv();
                let bv = self.eval_memo(b, memo).as_bv();
                Value::Bool(fold_cmp(*op, w, av, bv))
            }
        };
        memo.insert(term.id(), v);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_basic_expression() {
        let x = Term::var("ev.x", 8);
        let y = Term::var("ev.y", 8);
        let e = x.clone().bvadd(y.clone()).bvmul(Term::bv_const(8, 2));
        let mut a = Assignment::new();
        a.set("ev.x", 10);
        a.set("ev.y", 20);
        assert_eq!(a.eval_bv(&e), 60);
    }

    #[test]
    fn eval_unassigned_defaults_to_zero() {
        let x = Term::var("ev.unset", 16);
        let a = Assignment::new();
        assert_eq!(a.eval_bv(&x), 0);
        assert!(a.eval_bool(&x.eq(Term::bv_const(16, 0))));
    }

    #[test]
    fn eval_masks_oversized_assignments() {
        let x = Term::var("ev.narrow", 4);
        let mut a = Assignment::new();
        a.set("ev.narrow", 0xff);
        assert_eq!(a.eval_bv(&x), 0xf);
    }

    #[test]
    fn eval_ite_and_bool_ops() {
        let x = Term::var("ev.i", 8);
        let cond = x.clone().ult(Term::bv_const(8, 5));
        let e = Term::ite_bv(cond.clone(), Term::bv_const(8, 1), Term::bv_const(8, 2));
        let mut a = Assignment::new();
        a.set("ev.i", 3);
        assert_eq!(a.eval_bv(&e), 1);
        assert!(a.eval_bool(&cond));
        a.set("ev.i", 9);
        assert_eq!(a.eval_bv(&e), 2);
        assert!(!a.eval_bool(&cond));
        assert!(a.eval_bool(&cond.clone().implies(Term::bool_false())));
        assert!(a.eval_bool(&cond.iff(Term::bool_false())));
    }

    #[test]
    fn eval_concat_extract_roundtrip() {
        let x = Term::var("ev.c", 8);
        let y = Term::var("ev.d", 8);
        let w = x.clone().concat(y.clone());
        let mut a = Assignment::new();
        a.set("ev.c", 0xab);
        a.set("ev.d", 0xcd);
        assert_eq!(a.eval_bv(&w), 0xabcd);
        assert_eq!(a.eval_bv(&w.clone().extract(15, 8)), 0xab);
        assert_eq!(a.eval_bv(&w.extract(11, 4)), 0xbc);
    }
}
