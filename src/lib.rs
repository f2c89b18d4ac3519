//! # soft — Systematic OpenFlow Testing
//!
//! Umbrella crate re-exporting the whole SOFT reproduction: the solver
//! stack, the symbolic execution engine, the OpenFlow 1.0 protocol layer,
//! the data-plane substrate, the agents under test, the test harness, and
//! the grouping/crosschecking pipeline. See `soft_core` for the pipeline
//! entry points and the repository README for a tour.

#![forbid(unsafe_code)]

pub mod serve;
pub mod session;

pub use serve::{agent_fingerprint, serve, ServeConfig};
pub use session::{
    check_settings, create_out_dir, run_session, BaselineSeed, SessionConfig, SessionReport,
    TestOutcome,
};
pub use soft_fleet::{run_router, Ring, RouterConfig};
pub use soft_serve::default_sigpipe;

pub use soft_agents as agents;
pub use soft_conform as conform;
pub use soft_core as core;
pub use soft_dataplane as dataplane;
pub use soft_fleet as fleet;
pub use soft_harness as harness;
pub use soft_openflow as openflow;
pub use soft_protocol as protocol;
pub use soft_smt as smt;
pub use soft_sym as sym;
pub use soft_tlv as tlv;
pub use soft_witness as witness;

pub use soft_agents::AgentKind;
pub use soft_core::{PairReport, Soft};
pub use soft_harness::suite;
