//! # soft-harness — the SOFT test driver
//!
//! Emulates the controller and network around an agent under test (§4.1):
//! defines the evaluation test suite (Table 1, the Table 5 concretization
//! ablations, the Figure 4 message-count study), drives symbolic
//! exploration of an agent over a test's input sequence with probe-drop
//! detection and output normalization, and serializes the per-vendor
//! phase-1 artifacts that the crosschecking phase consumes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod input;
pub mod journal;
pub mod json;
mod pool;
pub mod proto;
pub mod recorded;
pub mod runner;
pub mod store;
pub use soft_agents::suite;
pub mod wire;

pub use input::{Input, TestCase};
pub use journal::{
    atomic_write, check_fingerprint, fnv64_hex, phase1_fingerprint, run_unit_durable,
    session_fingerprint, CorpusRec, JournalError, SessionJournal, SessionRecovery, SessionUnitSink,
    UnitRecovery, VerdictRec,
};
pub use pool::par_map;
pub use proto::JobSpec;
pub use recorded::{symbolize_frame, RecordedTrace, Symbolize};
pub use runner::{run_matrix, run_test, ObservedOutput, PathRecord, TestRun};
pub use store::{job_key, logical_key, ResultStore, StoreEntry};
pub use wire::{encode_run, TestRunFile};
