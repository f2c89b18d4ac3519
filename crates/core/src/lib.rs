//! # soft-core — SOFT: Systematic OpenFlow Testing
//!
//! A reproduction of *"A SOFT Way for OpenFlow Switch Interoperability
//! Testing"* (Kuźniar, Perešíni, Canini, Venzano, Kostić; CoNEXT 2012).
//!
//! SOFT finds interoperability inconsistencies between OpenFlow agent
//! implementations without an a-priori definition of correct behaviour and
//! without simultaneous access to the implementations:
//!
//! 1. **Phase 1** (per vendor): symbolically execute the agent on
//!    structured symbolic OpenFlow messages and state probes; record, for
//!    every explored path, the *path condition* (an input equivalence
//!    class) and the *normalized output trace*.
//! 2. **Grouping**: merge the path conditions that share an output into
//!    one balanced disjunction per distinct output result.
//! 3. **Phase 2** (crosschecking): for every pair of *different* outputs
//!    from two agents, ask a constraint solver whether the two input
//!    subspaces intersect. Every satisfiable intersection is an
//!    inconsistency, and the model is a concrete reproduction test case.
//!
//! ```
//! use soft_agents::AgentKind;
//! use soft_core::{report, Soft};
//! use soft_harness::suite;
//!
//! // Crosscheck the Reference Switch against Open vSwitch on the
//! // "Packet Out" test of the paper's Table 1.
//! let soft = Soft::new();
//! let pair = soft
//!     .run_pair(
//!         AgentKind::Reference,
//!         AgentKind::OpenVSwitch,
//!         &suite::packet_out(),
//!     )
//!     .expect("grouping");
//! assert!(!pair.result.inconsistencies.is_empty());
//! // Every inconsistency carries a concrete reproduction witness.
//! let causes = report::dedupe(&pair.result.inconsistencies);
//! assert!(!causes.is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod crosscheck;
pub mod group;
pub mod regression;
pub mod replay;
pub mod report;
mod soft;

pub use crosscheck::{
    crosscheck, crosscheck_durable, CheckSeeds, CrosscheckConfig, CrosscheckResult, Inconsistency,
    UnverifiedPair, VerdictSink, RETRY_FACTOR,
};
pub use group::{
    group_paths, group_paths_with, GroupError, GroupedResults, OutputGroup, TreeShape,
};
pub use regression::{condition_diff, regression_check, ConditionDiff, RegressionReport};
pub use replay::{
    concretize_inputs, replay, run_concrete, run_concrete_raw, ReplayError, ReplayOutcome,
};
pub use report::{classify_outputs, signature, DivergenceKind};
pub use soft::{PairReport, Soft};
