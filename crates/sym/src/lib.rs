//! # soft-sym — a symbolic execution engine for deterministic agents
//!
//! The reproduction's stand-in for Cloud9, the engine the paper builds SOFT
//! on. Programs under test are deterministic Rust functions that route all
//! symbolic control flow through [`ExecCtx::branch`]; the engine explores
//! the execution tree by deterministic re-execution with forced decision
//! prefixes, maintaining a path condition per path and invoking the
//! [`soft_smt`] solver for branch feasibility. For each explored path it
//! records the path condition, the emitted output trace, coverage, and the
//! terminal outcome (including agent crashes) — exactly the artifacts
//! SOFT's grouping and crosschecking phases consume.
//!
//! ```
//! use soft_smt::Term;
//! use soft_sym::{explore, ExecCtx, ExplorerConfig};
//!
//! // A toy agent: forward small ports, reject the rest.
//! let ex = explore(&ExplorerConfig::default(), |ctx: &mut ExecCtx<'_, &str>| {
//!     let port = Term::var("doc.port", 16);
//!     if ctx.branch("port_ok", &port.ult(Term::bv_const(16, 25)))? {
//!         ctx.emit("FWD");
//!     } else {
//!         ctx.emit("ERR");
//!     }
//!     Ok(())
//! });
//! assert_eq!(ex.stats.paths, 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod buf;
mod coverage;
mod ctx;
mod explorer;
mod strategy;

pub use buf::SymBuf;
pub use coverage::{Coverage, CoverageUniverse, PathCoverage};
pub use ctx::{ExecCtx, PathOutcome, PathResult, RunEnd, Stop};
pub use explorer::{
    explore, explore_seeded, Exploration, ExplorationStats, ExplorerConfig, PathSink, ResumeSeed,
    SeedPending,
};
pub use strategy::Strategy;
