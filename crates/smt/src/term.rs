//! Hash-consed bitvector/boolean terms.
//!
//! Terms are immutable DAG nodes interned in a global table: structurally
//! equal terms are pointer-equal, so downstream code (path conditions,
//! grouping, bit-blasting caches) can hash and compare terms in O(1).
//!
//! Variables are identified by *name*, not by a creation counter. This is
//! load-bearing for SOFT's two-phase design: agent A and agent B are
//! symbolically executed in separate runs (possibly on separate machines),
//! and their path conditions are later conjoined. Both runs name the input
//! bytes identically (e.g. `m0.b5` for byte 5 of message 0), so the solver
//! sees the same variable in both conditions.

use std::collections::hash_map::{Entry, RandomState};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Sort (type) of a term: boolean or a bitvector of width 1..=64.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Sort {
    /// The boolean sort.
    Bool,
    /// Bitvector of the given width in bits (1..=64).
    Bv(u32),
}

impl Sort {
    /// Width of a bitvector sort. Panics on `Bool`.
    pub fn width(self) -> u32 {
        match self {
            Sort::Bv(w) => w,
            Sort::Bool => panic!("Sort::width called on Bool"),
        }
    }

    /// True if this is a bitvector sort.
    pub fn is_bv(self) -> bool {
        matches!(self, Sort::Bv(_))
    }
}

/// Unary bitvector operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BvUnaryOp {
    /// Bitwise complement.
    Not,
    /// Two's-complement negation.
    Neg,
}

/// Binary bitvector operators (both operands share the result width).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BvBinOp {
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Wrapping multiplication.
    Mul,
    /// Unsigned division; division by zero yields all-ones (SMT-LIB).
    UDiv,
    /// Unsigned remainder; remainder by zero yields the dividend (SMT-LIB).
    URem,
    /// Left shift; shifts >= width yield zero.
    Shl,
    /// Logical right shift; shifts >= width yield zero.
    Lshr,
    /// Arithmetic right shift; shifts >= width replicate the sign bit.
    Ashr,
}

/// Comparison predicates (bitvector x bitvector -> bool).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// Equality.
    Eq,
    /// Unsigned less-than.
    Ult,
    /// Unsigned less-or-equal.
    Ule,
    /// Signed less-than.
    Slt,
    /// Signed less-or-equal.
    Sle,
}

/// The operator/children of a term node.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Op {
    /// Bitvector literal. `value` is truncated to `width` bits.
    BvConst {
        /// Width in bits (1..=64).
        width: u32,
        /// Literal value, masked to `width` bits.
        value: u64,
    },
    /// Named symbolic bitvector variable.
    BvVar {
        /// Stable variable name (identity across runs).
        name: Arc<str>,
        /// Width in bits (1..=64).
        width: u32,
    },
    /// Unary bitvector operation.
    BvUnary(BvUnaryOp, Term),
    /// Binary bitvector operation.
    BvBin(BvBinOp, Term, Term),
    /// `hi ++ lo` concatenation; result width = hi.width + lo.width (<= 64).
    BvConcat(Term, Term),
    /// Bits `hi..=lo` (inclusive, zero-based from LSB) of `arg`.
    BvExtract {
        /// Highest extracted bit (inclusive).
        hi: u32,
        /// Lowest extracted bit (inclusive).
        lo: u32,
        /// The source bitvector.
        arg: Term,
    },
    /// Bitvector if-then-else: `cond` is boolean; branches share a width.
    BvIte(Term, Term, Term),
    /// Boolean literal.
    BoolConst(bool),
    /// Boolean negation.
    Not(Term),
    /// Boolean conjunction.
    And(Term, Term),
    /// Boolean disjunction.
    Or(Term, Term),
    /// Boolean implication.
    Implies(Term, Term),
    /// Boolean equivalence.
    Iff(Term, Term),
    /// Bitvector comparison predicate.
    Cmp(CmpOp, Term, Term),
}

/// Interned term node.
#[derive(Debug)]
pub struct TermData {
    pub(crate) op: Op,
    pub(crate) sort: Sort,
    pub(crate) id: u64,
    /// Number of boolean/bitvector operator applications in the DAG rooted
    /// here, counted over the DAG (shared nodes counted once). Leaves count 0.
    pub(crate) dag_ops: u64,
    /// Structural hash: a pure function of the term's structure (operator,
    /// constants, variable names, child structural hashes). Unlike `id`,
    /// which depends on interning order and therefore on thread timing when
    /// terms are built concurrently, `shash` is identical across processes
    /// and runs. It anchors the process-independent total order of
    /// [`Term::structural_cmp`].
    pub(crate) shash: u64,
    /// Variable signature: one bit per variable occurring in the DAG
    /// rooted here, chosen by the variable's structural hash (a 64-bit
    /// Bloom filter). A term whose signature shares no bit with a set of
    /// variables contains none of them.
    pub(crate) vsig: u64,
}

/// A hash-consed term. Cheap to clone; equality and hashing are O(1).
#[derive(Clone)]
pub struct Term(pub(crate) Arc<TermData>);

impl PartialEq for Term {
    fn eq(&self, other: &Self) -> bool {
        self.0.id == other.0.id
    }
}
impl Eq for Term {}

impl Hash for Term {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.0.id.hash(state);
    }
}

impl PartialOrd for Term {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Term {
    /// Orders by interning id: O(1), but interning ids depend on
    /// construction order and are therefore not stable across runs when
    /// terms are built from multiple threads. Use
    /// [`Term::structural_cmp`] for any ordering that can reach observable
    /// output.
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.id.cmp(&other.0.id)
    }
}

/// Number of interner shards. A power of two so shard selection is a mask.
const INTERNER_SHARDS: usize = 16;

/// One interner shard. Its keys carry variable names and constants parsed
/// from artifacts, so it keeps the std keyed hasher: a crafted artifact
/// cannot flood one bucket (every other term-keyed map hashes interner ids
/// with [`crate::fxhash`]).
type InternTable = std::collections::HashMap<Op, Term, RandomState>; // lint-exempt: parsed keys

/// The global interner, sharded by structural hash so concurrent term
/// construction from worker threads does not serialize on one lock. Ids are
/// allocated from a single atomic counter, so they stay globally unique but
/// are *not* stable across runs when interning races; all
/// determinism-sensitive ordering goes through [`Term::structural_cmp`]
/// instead.
struct Interner {
    shards: [Mutex<InternTable>; INTERNER_SHARDS],
    next_id: AtomicU64,
}

fn interner() -> &'static Interner {
    static INTERNER: OnceLock<Interner> = OnceLock::new();
    INTERNER.get_or_init(|| Interner {
        shards: std::array::from_fn(|_| Mutex::new(InternTable::default())),
        next_id: AtomicU64::new(0),
    })
}

// ------------------------------------------------------- structural hashing
//
// FNV-1a over the term structure with a splitmix64 finalizer. Written out
// explicitly (rather than via `DefaultHasher`) because the value must be
// identical across processes: it canonicalizes solver-cache keys, which in
// turn makes solver models — and anything concretized from them — identical
// between a `--jobs 1` and a `--jobs 4` run.

fn fnv1a(h: u64, x: u64) -> u64 {
    let mut h = h;
    for i in 0..8 {
        h ^= (x >> (8 * i)) & 0xff;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

fn fnv1a_str(h: u64, s: &str) -> u64 {
    let mut h = h;
    for b in s.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e3779b97f4a7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// Small stable discriminant per operator kind (order is part of the
/// canonical term order; append-only).
fn op_rank(op: &Op) -> u64 {
    match op {
        Op::BvConst { .. } => 0,
        Op::BvVar { .. } => 1,
        Op::BvUnary(..) => 2,
        Op::BvBin(..) => 3,
        Op::BvConcat(..) => 4,
        Op::BvExtract { .. } => 5,
        Op::BvIte(..) => 6,
        Op::BoolConst(_) => 7,
        Op::Not(_) => 8,
        Op::And(..) => 9,
        Op::Or(..) => 10,
        Op::Implies(..) => 11,
        Op::Iff(..) => 12,
        Op::Cmp(..) => 13,
    }
}

fn structural_hash(op: &Op) -> u64 {
    let mut h = fnv1a(0xcbf29ce484222325, op_rank(op));
    match op {
        Op::BvConst { width, value } => {
            h = fnv1a(h, *width as u64);
            h = fnv1a(h, *value);
        }
        Op::BvVar { name, width } => {
            h = fnv1a_str(h, name);
            h = fnv1a(h, *width as u64);
        }
        Op::BvUnary(o, _) => h = fnv1a(h, *o as u64),
        Op::BvBin(o, _, _) => h = fnv1a(h, *o as u64),
        Op::BvExtract { hi, lo, .. } => {
            h = fnv1a(h, *hi as u64);
            h = fnv1a(h, *lo as u64);
        }
        Op::BoolConst(b) => h = fnv1a(h, *b as u64),
        Op::Cmp(o, _, _) => h = fnv1a(h, *o as u64),
        Op::BvConcat(..)
        | Op::BvIte(..)
        | Op::Not(_)
        | Op::And(..)
        | Op::Or(..)
        | Op::Implies(..)
        | Op::Iff(..) => {}
    }
    for c in op.children() {
        h = fnv1a(h, c.0.shash);
    }
    splitmix64(h)
}

/// Mask selecting the low `width` bits (width 1..=64).
pub fn mask(width: u32) -> u64 {
    debug_assert!((1..=64).contains(&width));
    if width == 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    }
}

impl Term {
    /// Intern `op` with the given sort, reusing an existing node if present.
    ///
    /// Thread-safe: the interner is sharded by structural hash, so builders
    /// running on different worker threads only contend when constructing
    /// structurally colliding nodes.
    pub(crate) fn intern(op: Op, sort: Sort) -> Term {
        let shash = structural_hash(&op);
        let interner = interner();
        let shard = &interner.shards[(shash as usize) & (INTERNER_SHARDS - 1)];
        // Poison recovery: nothing inside the critical section unwinds in
        // normal operation, and the map is only a cache of canonical nodes —
        // recovering beats aborting every thread that touches the interner.
        let mut table = shard.lock().unwrap_or_else(|e| e.into_inner());
        let slot = match table.entry(op) {
            Entry::Occupied(hit) => return hit.get().clone(),
            Entry::Vacant(slot) => slot,
        };
        let (dag_ops, vsig) = Self::summarize(slot.key(), shash);
        let id = interner.next_id.fetch_add(1, Ordering::Relaxed);
        let t = Term(Arc::new(TermData {
            op: slot.key().clone(),
            sort,
            id,
            dag_ops,
            shash,
            vsig,
        }));
        slot.insert(t).clone()
    }

    /// Approximate DAG op count and variable signature of a new node.
    ///
    /// The op count is 1 + the children's counts. This over-counts shared
    /// sub-DAGs (it is really a tree count bounded by the DAG count), but
    /// is maintained in O(1) per node; the exact tree-size metric the paper
    /// reports ("number of boolean operations in a path condition") is
    /// computed by [`crate::metrics`]. The signature is the union of the
    /// children's, or for a variable one bit picked by its structural hash.
    fn summarize(op: &Op, shash: u64) -> (u64, u64) {
        match op {
            Op::BvConst { .. } | Op::BoolConst(_) => (0, 0),
            Op::BvVar { .. } => (0, 1 << (shash & 63)),
            _ => op.children().fold((1, 0), |(ops, sig), c| {
                (ops.saturating_add(c.0.dag_ops), sig | c.0.vsig)
            }),
        }
    }

    /// The operator of this term.
    pub fn op(&self) -> &Op {
        &self.0.op
    }

    /// The sort of this term.
    pub fn sort(&self) -> Sort {
        self.0.sort
    }

    /// Bitvector width; panics if the term is boolean.
    pub fn width(&self) -> u32 {
        self.0.sort.width()
    }

    /// Unique interning id (stable within a process).
    pub fn id(&self) -> u64 {
        self.0.id
    }

    /// Cached upper bound on the number of operator applications.
    pub fn size_hint(&self) -> u64 {
        self.0.dag_ops
    }

    /// Variable signature of this term (see [`TermData::vsig`]).
    pub(crate) fn var_sig(&self) -> u64 {
        self.0.vsig
    }

    /// Process-independent structural hash of this term.
    ///
    /// Interning ids ([`Term::id`]) depend on construction order, which is
    /// racy under parallel exploration; the structural hash depends only on
    /// the term's shape, so it is identical across runs and machines.
    pub fn structural_hash(&self) -> u64 {
        self.0.shash
    }

    /// Total order on terms that is a pure function of term structure.
    ///
    /// Use this — never [`Ord`], which compares interning ids — wherever the
    /// ordering can influence observable output (canonical solver-cache
    /// keys, canonical query order). Two terms compare `Equal` iff they are
    /// the same interned node. The fast path compares structural hashes; the
    /// recursive structural walk only runs on (astronomically rare) hash
    /// collisions.
    pub fn structural_cmp(&self, other: &Term) -> std::cmp::Ordering {
        use std::cmp::Ordering as O;
        if self.0.id == other.0.id {
            return O::Equal;
        }
        match self.0.shash.cmp(&other.0.shash) {
            O::Equal => self.structural_cmp_slow(other),
            o => o,
        }
    }

    /// Structural tie-break on hash collision: operator rank, scalar fields,
    /// then children left-to-right.
    fn structural_cmp_slow(&self, other: &Term) -> std::cmp::Ordering {
        use std::cmp::Ordering as O;
        if self.0.id == other.0.id {
            return O::Equal;
        }
        let (a, b) = (self.op(), other.op());
        let rank = op_rank(a).cmp(&op_rank(b));
        if rank != O::Equal {
            return rank;
        }
        let scalars = match (a, b) {
            (
                Op::BvConst {
                    width: wa,
                    value: va,
                },
                Op::BvConst {
                    width: wb,
                    value: vb,
                },
            ) => (*wa, *va).cmp(&(*wb, *vb)),
            (
                Op::BvVar {
                    name: na,
                    width: wa,
                },
                Op::BvVar {
                    name: nb,
                    width: wb,
                },
            ) => (na.as_ref(), *wa).cmp(&(nb.as_ref(), *wb)),
            (Op::BvUnary(oa, _), Op::BvUnary(ob, _)) => (*oa as u64).cmp(&(*ob as u64)),
            (Op::BvBin(oa, ..), Op::BvBin(ob, ..)) => (*oa as u64).cmp(&(*ob as u64)),
            (Op::BvExtract { hi: ha, lo: la, .. }, Op::BvExtract { hi: hb, lo: lb, .. }) => {
                (*ha, *la).cmp(&(*hb, *lb))
            }
            (Op::BoolConst(ba), Op::BoolConst(bb)) => ba.cmp(bb),
            (Op::Cmp(oa, ..), Op::Cmp(ob, ..)) => (*oa as u64).cmp(&(*ob as u64)),
            _ => O::Equal,
        };
        if scalars != O::Equal {
            return scalars;
        }
        // Equal ranks: the same variant, so the same number of children.
        for (x, y) in a.children().zip(b.children()) {
            match x.structural_cmp(y) {
                O::Equal => {}
                o => return o,
            }
        }
        O::Equal
    }

    /// True if the term is a bitvector or boolean constant.
    pub fn is_const(&self) -> bool {
        matches!(self.op(), Op::BvConst { .. } | Op::BoolConst(_))
    }

    /// The constant value if this is a bitvector constant.
    pub fn as_bv_const(&self) -> Option<u64> {
        match self.op() {
            Op::BvConst { value, .. } => Some(*value),
            _ => None,
        }
    }

    /// The constant value if this is a boolean constant.
    pub fn as_bool_const(&self) -> Option<bool> {
        match self.op() {
            Op::BoolConst(b) => Some(*b),
            _ => None,
        }
    }

    /// Variable name if this is a `BvVar`.
    pub fn as_var(&self) -> Option<(&str, u32)> {
        match self.op() {
            Op::BvVar { name, width } => Some((name, *width)),
            _ => None,
        }
    }
}

impl Op {
    /// Child terms, in declaration order. Structural hashes and
    /// [`Term::structural_cmp`] depend on this order. The iterator holds
    /// at most three references inline, so a walk allocates nothing per
    /// node.
    pub fn children(&self) -> impl Iterator<Item = &Term> {
        let kids = match self {
            Op::BvConst { .. } | Op::BvVar { .. } | Op::BoolConst(_) => [None; 3],
            Op::BvUnary(_, a) | Op::BvExtract { arg: a, .. } | Op::Not(a) => [Some(a), None, None],
            Op::BvBin(_, a, b)
            | Op::BvConcat(a, b)
            | Op::And(a, b)
            | Op::Or(a, b)
            | Op::Implies(a, b)
            | Op::Iff(a, b)
            | Op::Cmp(_, a, b) => [Some(a), Some(b), None],
            Op::BvIte(c, t, e) => [Some(c), Some(t), Some(e)],
        };
        kids.into_iter().flatten()
    }
}

impl fmt::Display for BvUnaryOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            BvUnaryOp::Not => "bvnot",
            BvUnaryOp::Neg => "bvneg",
        })
    }
}

impl fmt::Display for BvBinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            BvBinOp::And => "bvand",
            BvBinOp::Or => "bvor",
            BvBinOp::Xor => "bvxor",
            BvBinOp::Add => "bvadd",
            BvBinOp::Sub => "bvsub",
            BvBinOp::Mul => "bvmul",
            BvBinOp::UDiv => "bvudiv",
            BvBinOp::URem => "bvurem",
            BvBinOp::Shl => "bvshl",
            BvBinOp::Lshr => "bvlshr",
            BvBinOp::Ashr => "bvashr",
        })
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CmpOp::Eq => "=",
            CmpOp::Ult => "bvult",
            CmpOp::Ule => "bvule",
            CmpOp::Slt => "bvslt",
            CmpOp::Sle => "bvsle",
        })
    }
}

impl fmt::Display for Term {
    /// SMT-LIB-flavoured s-expression rendering.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.op() {
            Op::BvConst { width, value } => write!(
                f,
                "#x{value:0>width$x}",
                width = (*width as usize).div_ceil(4)
            ),
            Op::BvVar { name, .. } => write!(f, "{name}"),
            Op::BvUnary(op, a) => write!(f, "({op} {a})"),
            Op::BvBin(op, a, b) => write!(f, "({op} {a} {b})"),
            Op::BvConcat(a, b) => write!(f, "(concat {a} {b})"),
            Op::BvExtract { hi, lo, arg } => write!(f, "((_ extract {hi} {lo}) {arg})"),
            Op::BvIte(c, t, e) => write!(f, "(ite {c} {t} {e})"),
            Op::BoolConst(b) => write!(f, "{b}"),
            Op::Not(a) => write!(f, "(not {a})"),
            Op::And(a, b) => write!(f, "(and {a} {b})"),
            Op::Or(a, b) => write!(f, "(or {a} {b})"),
            Op::Implies(a, b) => write!(f, "(=> {a} {b})"),
            Op::Iff(a, b) => write!(f, "(iff {a} {b})"),
            Op::Cmp(op, a, b) => write!(f, "({op} {a} {b})"),
        }
    }
}

impl fmt::Debug for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Term[{}]({})", self.0.id, self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_dedupes_structurally_equal_terms() {
        let a = Term::bv_const(8, 42);
        let b = Term::bv_const(8, 42);
        assert_eq!(a, b);
        assert_eq!(a.id(), b.id());
        let x = Term::var("x", 8);
        let y = Term::var("x", 8);
        assert_eq!(x, y, "same-named vars must be the same term");
    }

    #[test]
    fn distinct_terms_get_distinct_ids() {
        let a = Term::bv_const(8, 1);
        let b = Term::bv_const(8, 2);
        let c = Term::bv_const(16, 1);
        assert_ne!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn mask_boundaries() {
        assert_eq!(mask(1), 1);
        assert_eq!(mask(8), 0xff);
        assert_eq!(mask(16), 0xffff);
        assert_eq!(mask(64), u64::MAX);
    }

    #[test]
    fn sort_accessors() {
        assert!(Sort::Bv(8).is_bv());
        assert!(!Sort::Bool.is_bv());
        assert_eq!(Sort::Bv(12).width(), 12);
    }

    #[test]
    fn display_renders_sexpr() {
        let x = Term::var("x", 8);
        let y = Term::var("y", 8);
        let e = x.clone().bvadd(y.clone()).eq(Term::bv_const(8, 0));
        assert_eq!(format!("{e}"), "(= (bvadd x y) #x00)");
    }

    #[test]
    fn structural_hash_is_structural() {
        // Same structure => same hash, even when built separately.
        let a = Term::var("sh.x", 8).bvadd(Term::bv_const(8, 3));
        let b = Term::var("sh.x", 8).bvadd(Term::bv_const(8, 3));
        assert_eq!(a.structural_hash(), b.structural_hash());
        // Different structure => (virtually always) different hash.
        let c = Term::var("sh.x", 8).bvadd(Term::bv_const(8, 4));
        assert_ne!(a.structural_hash(), c.structural_hash());
    }

    #[test]
    fn structural_cmp_is_total_and_consistent() {
        let terms = vec![
            Term::var("sc.a", 8),
            Term::var("sc.b", 8),
            Term::bv_const(8, 1),
            Term::var("sc.a", 8).bvadd(Term::var("sc.b", 8)),
            Term::var("sc.a", 8).eq(Term::bv_const(8, 1)),
            Term::bool_true(),
        ];
        for x in &terms {
            assert_eq!(x.structural_cmp(x), std::cmp::Ordering::Equal);
            for y in &terms {
                assert_eq!(x.structural_cmp(y), y.structural_cmp(x).reverse());
                // Equal only for the identical interned node.
                if x.structural_cmp(y) == std::cmp::Ordering::Equal {
                    assert_eq!(x, y);
                }
            }
        }
    }

    #[test]
    fn children_yield_operands_in_declaration_order() {
        // Structural hashes and `structural_cmp` fold the children in this
        // order, so it is part of every term's identity across processes.
        let (x, y, z) = (
            Term::var("ch.x", 8),
            Term::var("ch.y", 8),
            Term::var("ch.z", 8),
        );
        let (p, q) = (x.clone().ult(y.clone()), y.clone().ult(z.clone()));
        let cases: Vec<(Op, Vec<&Term>)> = vec![
            (Op::BvConst { width: 8, value: 1 }, vec![]),
            (
                Op::BvVar {
                    name: "ch.x".into(),
                    width: 8,
                },
                vec![],
            ),
            (Op::BvUnary(BvUnaryOp::Neg, x.clone()), vec![&x]),
            (Op::BvBin(BvBinOp::Sub, x.clone(), y.clone()), vec![&x, &y]),
            (Op::BvConcat(y.clone(), x.clone()), vec![&y, &x]),
            (
                Op::BvExtract {
                    hi: 3,
                    lo: 1,
                    arg: z.clone(),
                },
                vec![&z],
            ),
            (Op::BvIte(p.clone(), x.clone(), y.clone()), vec![&p, &x, &y]),
            (Op::BoolConst(true), vec![]),
            (Op::Not(p.clone()), vec![&p]),
            (Op::And(p.clone(), q.clone()), vec![&p, &q]),
            (Op::Or(q.clone(), p.clone()), vec![&q, &p]),
            (Op::Implies(p.clone(), q.clone()), vec![&p, &q]),
            (Op::Iff(q.clone(), p.clone()), vec![&q, &p]),
            (Op::Cmp(CmpOp::Slt, z.clone(), x.clone()), vec![&z, &x]),
        ];
        for (op, want) in &cases {
            assert_eq!(op.children().collect::<Vec<_>>(), *want, "{op:?}");
        }
        // One case per variant: `op_rank` numbers the variants densely.
        let ranks: std::collections::BTreeSet<u64> =
            cases.iter().map(|(op, _)| op_rank(op)).collect();
        assert_eq!(ranks, (0..cases.len() as u64).collect());
    }

    #[test]
    fn concurrent_interning_dedupes() {
        // Hammer the sharded interner from several threads building the
        // same terms; structural equality must still imply pointer equality.
        let ids: Vec<Vec<u64>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        (0..256u64)
                            .map(|i| {
                                Term::var("ci.x", 16)
                                    .bvadd(Term::bv_const(16, i))
                                    .eq(Term::bv_const(16, 7))
                                    .id()
                            })
                            .collect()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for other in &ids[1..] {
            assert_eq!(&ids[0], other, "racing interners must agree on nodes");
        }
    }
}
