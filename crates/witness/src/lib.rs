//! # soft-witness — witness distillation
//!
//! SOFT's crosscheck output is a list of inconsistencies, each carrying a
//! solver model: an assignment of the symbolic input bytes under which two
//! agents provably behave differently. A model is a *proof sketch*, not a
//! deliverable — it references the test's symbolic structure, pins bytes
//! to incidental values, and cannot be handed to a vendor without the
//! whole SOFT toolchain behind it.
//!
//! This crate distills models into a **witness corpus**: standalone,
//! wire-format OpenFlow reproductions that are
//!
//! - **valid** — every message survives a lossless parse round-trip;
//! - **confirmed** — both agents were replayed concretely and the traces
//!   observably diverge (witnesses that fail confirmation are kept as
//!   `Unconfirmed` entries with the reason, never dropped);
//! - **1-minimal** — field-aware ddmin zeroed every free byte that can be
//!   zeroed without losing the divergence;
//! - **clustered** — grouped by (divergence kind, signature pair) into
//!   root-cause buckets, the automated cut of the paper's Table 3;
//! - **replayable** — the corpus file is self-contained, fingerprinted,
//!   and re-checkable with `soft repro` on a machine with no phase-1
//!   artifacts;
//! - **generative** — a seeded neighborhood fuzzer mutates confirmed
//!   witnesses field-wise and feeds newly divergent inputs back in.
//!
//! Everything is deterministic: the corpus is byte-identical for any
//! `--jobs` value and any run count, because parallel stages write
//! results back by item index and the fuzzer derives its streams
//! statelessly from `(seed, witness, step)`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod corpus;
pub mod distill;
pub mod fuzz;
mod memo;
pub mod minimize;
pub mod rng;

pub use corpus::{
    ClusterSummary, ConcreteInput, Corpus, CorpusEntry, Origin, ReplayItem, Status,
    DEFAULT_PROTOCOL,
};
pub use distill::{
    assemble, distill, draft_witness, reproduce_corpus, DistillConfig, DistillReport, DistillStats,
    WitnessDraft, DEFAULT_SEED,
};
pub use minimize::{free_positions, minimize, residual_bytes, Minimized};
pub use rng::{stream_seed, SplitMix64};
