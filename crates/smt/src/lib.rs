//! # soft-smt — bitvector constraint solving for SOFT
//!
//! This crate is the reproduction's stand-in for STP [Ganesh & Dill, CAV'07],
//! the solver the SOFT paper uses both inside its symbolic execution engine
//! (path feasibility) and in its inconsistency finder (input-subspace
//! intersection). It provides:
//!
//! - **Terms** ([`Term`]): hash-consed bitvector/boolean expressions with
//!   named variables, built through simplifying smart constructors.
//! - **Evaluation** ([`Assignment`]): concrete evaluation under a model.
//! - **Simplification** ([`simplify`]): conjunction-level equality
//!   propagation, balanced disjunction trees for grouping.
//! - **Bit-blasting** ([`bitblast::BitBlaster`]): Tseitin encoding to CNF.
//! - **SAT** ([`sat::SatSolver`]): a CDCL solver (watched literals, VSIDS,
//!   1UIP learning, Luby restarts).
//! - **A solver facade** ([`Solver`]): simplify → blast → solve → model.
//! - **Wire format** ([`sexpr`]): self-describing serialization so SOFT's
//!   two phases can run on different machines (§2.4 of the paper).
//!
//! ```
//! use soft_smt::{Solver, Term};
//!
//! // "Which 16-bit port is >= 25 and equals OFPP_CONTROLLER (0xfffd)?"
//! let port = Term::var("packet_out.port", 16);
//! let a = port.clone().uge(Term::bv_const(16, 25));
//! let b = port.clone().eq(Term::bv_const(16, 0xfffd));
//! let mut solver = Solver::new();
//! let model = solver.check(&[a, b]);
//! assert_eq!(model.model().unwrap().get("packet_out.port"), Some(0xfffd));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bitblast;
mod build;
mod eval;
pub mod fxhash;
pub mod incremental;
pub mod metrics;
pub mod sat;
pub mod sexpr;
pub mod simplify;
mod solver;
mod term;

pub use eval::{Assignment, Value};
pub use incremental::IncrementalSolver;
pub use solver::{complete_model, SatResult, Solver, SolverBudget, SolverStats, VerdictCache};
pub use term::{mask, BvBinOp, BvUnaryOp, CmpOp, Op, Sort, Term};
