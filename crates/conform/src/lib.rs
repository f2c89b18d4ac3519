//! # soft-conform — fault-tolerant over-the-wire conformance replay
//!
//! Everything else in this repository compares *models* in-process. This
//! crate closes the loop the paper actually cares about: take the
//! distilled witness corpus and replay it **over a real TCP control
//! channel** against a device under test, OFTest-style, classifying the
//! DUT per root-cause cluster as reference-like, ovs-like, or novel.
//!
//! The wire is allowed to be hostile. Every frame-level operation has a
//! deadline; every witness has a retry budget with jittered exponential
//! backoff on a fresh connection; persistent transport failure degrades
//! the witness to an explicit `Flaky` verdict carrying the full error
//! chain, and a DUT that never accepts a connection yields `Unreachable`
//! — degradations are verdict classes, never silent drops, the same
//! never-lie discipline as `Unknown` solver verdicts.
//!
//! The transport is a trait, so one harness drives three backends:
//!
//! - a real switch socket ([`TcpConnector`]);
//! - our own agents behind a loopback listener ([`LoopbackDut`]) — the CI
//!   self-test that must classify the reference/OVS pair correctly from
//!   the corpus alone;
//! - a deterministic, splitmix64-seeded fault injector
//!   ([`FaultyConnector`]) layering torn frames, byte truncation, stalls
//!   past the deadline, connection resets, and reordered keepalive
//!   replies over either of the above.
//!
//! The load-bearing property, enforced by [`loopback_self_test`]: under
//! any fault schedule that eventually lets traffic through, the verdicts
//! are byte-identical to a clean run.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backoff;
pub mod classifier;
pub mod frames;
pub mod handshake;
pub mod loopback;
pub mod replayer;
pub mod selftest;
pub mod transport;

pub use backoff::BackoffPolicy;
pub use classifier::{
    agent_for_id, expected_signature, expected_signature_for, kind_for_id, run_conform,
    run_conform_with, ConformReport, ExitClass, Verdict, VerdictCounts, WitnessReport,
};
pub use frames::{encode_event, event_token, frame_token, render_signature};
pub use handshake::{handshake, HandshakeInfo};
pub use loopback::LoopbackDut;
pub use replayer::{replay_witness, Observation, ReplayConfig, WireOutcome};
pub use selftest::{loopback_self_test, loopback_self_test_with, SelfTestReport};
pub use transport::{AcceptWaker, Acceptor};
pub use transport::{Channel, Connector, FaultyConnector, RecvEvent, TcpConnector, Wire};
