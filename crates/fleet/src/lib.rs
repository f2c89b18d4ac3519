//! soft-fleet: multi-machine sharded serving for the SOFT pipeline.
//!
//! One `soft route` front-end spreads `soft submit` jobs across many
//! `soft serve` back-ends:
//!
//! - [`ring`] — the consistent-hash ring (virtual nodes) that gives
//!   every job content key a stable owner and an ordered list of
//!   replica successors.
//! - [`job`] — job identity shared with the serve daemon, so the router
//!   computes byte-identical content keys.
//! - [`conn`] — the client-connection loop the router and the serve
//!   daemon share.
//! - [`router`] — the front-end itself: placement, gossip-driven
//!   work-stealing, failover, and fleet-wide duplicate coalescing.
//!
//! The back-end half of the protocol (steal registry, replica ingest,
//! membership frames) lives in `soft serve` and `soft-harness`; apart
//! from [`conn`], this crate holds what runs *outside* the daemons.

pub mod conn;
pub mod job;
pub mod ring;
pub mod router;

pub use job::{agent_fingerprint, fingerprint_with_build, resolve, ResolvedJob};
pub use ring::Ring;
pub use router::{fleet_request, run_router, RouterConfig};
