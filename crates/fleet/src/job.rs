//! Job identity, shared by the serve daemon and the fleet router.
//!
//! The router must compute the *same* content key a back-end will store
//! an entry under — ring placement, duplicate coalescing, and replica
//! lookup all hang off that key — so the protocol registry, agent and
//! test lookup, and fingerprint computation live here, in the one crate
//! both sides depend on.

use soft_agents::OF10;
use soft_harness::journal::fnv64_hex;
use soft_harness::proto::JobSpec;
use soft_harness::TestCase;
use soft_protocol::{AgentRef, Protocol};
use soft_tlv::TLV;

/// Every protocol this build can serve. Adding a protocol is one entry
/// here; job keys fold the protocol id, so entries of different
/// protocols can never alias in the store.
pub static PROTOCOLS: [&dyn Protocol; 2] = [&OF10, &TLV];

/// Resolve a protocol id (`"of10"`, `"tlv"`) against the registry.
pub fn protocol_by_id(id: &str) -> Option<&'static dyn Protocol> {
    PROTOCOLS.iter().copied().find(|p| p.id() == id)
}

/// Resolve an agent name under `proto` to a handle.
pub fn agent_by_name(proto: &'static dyn Protocol, name: &str) -> Option<AgentRef> {
    proto.agent_id(name).map(|agent| AgentRef {
        protocol: proto,
        agent,
    })
}

/// Fingerprint of an agent's current code, computed without any
/// solving: the FNV hash of its complete coverage universe (every
/// instruction-block and branch-site label) folded with the build-time
/// source hash of the model-defining crates (the protocol's
/// [`Protocol::build_fingerprint`]). The label set alone is not
/// enough — a change that flips a branch constant or an emitted output
/// keeps every label while changing behaviour — so the build hash
/// covers what the universe cannot see: an unchanged fingerprint
/// certifies unchanged model *sources*, not just an unchanged label
/// set.
pub fn agent_fingerprint(agent: impl Into<AgentRef>) -> String {
    let agent = agent.into();
    fingerprint_with_build(agent.protocol.build_fingerprint(), agent)
}

/// [`agent_fingerprint`] under an explicit build hash (test seam).
pub fn fingerprint_with_build(build: &str, agent: impl Into<AgentRef>) -> String {
    let agent = agent.into();
    let u = agent.make().universe();
    let mut parts: Vec<&str> = vec!["agent", agent.id(), "build", build, "blocks"];
    parts.extend(u.blocks.iter().copied());
    parts.push("branch_sites");
    parts.extend(u.branch_sites.iter().copied());
    fnv64_hex(&parts)
}

/// A job spec validated against the protocol registry, with both
/// fingerprints settled (client override wins; the override is what
/// lets tests and remote clients declare "this agent changed").
pub struct ResolvedJob {
    /// The validated spec, verbatim.
    pub spec: JobSpec,
    /// The resolved protocol.
    pub protocol: &'static dyn Protocol,
    /// Parsed agent A.
    pub agent_a: AgentRef,
    /// Parsed agent B.
    pub agent_b: AgentRef,
    /// The resolved test case.
    pub test: TestCase,
    /// Settled fingerprint of agent A.
    pub fp_a: String,
    /// Settled fingerprint of agent B.
    pub fp_b: String,
}

/// Validate `spec` and settle its fingerprints.
pub fn resolve(spec: JobSpec) -> Result<ResolvedJob, String> {
    let protocol = protocol_by_id(&spec.protocol)
        .ok_or_else(|| format!("unknown protocol '{}'", spec.protocol))?;
    let agent_a = agent_by_name(protocol, &spec.agent_a)
        .ok_or_else(|| format!("unknown agent '{}'", spec.agent_a))?;
    let agent_b = agent_by_name(protocol, &spec.agent_b)
        .ok_or_else(|| format!("unknown agent '{}'", spec.agent_b))?;
    let test = protocol
        .find_test(&spec.test)
        .ok_or_else(|| format!("unknown test '{}'", spec.test))?;
    let fp_a = spec
        .fp_a
        .clone()
        .unwrap_or_else(|| agent_fingerprint(agent_a));
    let fp_b = spec
        .fp_b
        .clone()
        .unwrap_or_else(|| agent_fingerprint(agent_b));
    Ok(ResolvedJob {
        spec,
        protocol,
        agent_a,
        agent_b,
        test,
        fp_a,
        fp_b,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use soft_agents::AgentKind;
    use std::collections::HashSet;

    #[test]
    fn fingerprints_are_deterministic_and_distinct() {
        for agent in AgentKind::all() {
            assert_eq!(agent_fingerprint(agent), agent_fingerprint(agent));
        }
        let fps: HashSet<String> = AgentKind::all()
            .iter()
            .map(|&a| agent_fingerprint(a))
            .collect();
        assert_eq!(fps.len(), AgentKind::all().len(), "agents must not collide");
    }

    #[test]
    fn fingerprints_fold_in_the_build_hash() {
        // A source change that keeps the label universe intact still
        // changes the build hash, which must change every fingerprint —
        // otherwise a restarted daemon would serve stale artifacts.
        assert_eq!(soft_agents::BUILD_FINGERPRINT.len(), 16);
        assert!(soft_agents::BUILD_FINGERPRINT
            .chars()
            .all(|c| c.is_ascii_hexdigit()));
        for agent in AgentKind::all() {
            assert_ne!(
                fingerprint_with_build("0000000000000000", agent),
                fingerprint_with_build("ffffffffffffffff", agent),
                "build hash must reach the fingerprint of {}",
                agent.id()
            );
        }
    }

    #[test]
    fn registry_resolves_both_protocols() {
        assert_eq!(protocol_by_id("of10").unwrap().id(), "of10");
        assert_eq!(protocol_by_id("tlv").unwrap().id(), "tlv");
        assert!(protocol_by_id("of99").is_none());
        let strict = agent_by_name(&TLV, "strict").unwrap();
        assert_eq!(strict.id(), "strict");
        assert_eq!(strict.protocol.id(), "tlv");
        assert!(agent_by_name(&TLV, "reference").is_none());
        // Same-named agents under different protocols would still get
        // distinct fingerprints: the protocol's build hash is folded in.
        assert_ne!(
            agent_fingerprint(strict),
            agent_fingerprint(AgentKind::Reference)
        );
    }

    fn spec(protocol: &str, a: &str, b: &str, t: &str) -> JobSpec {
        JobSpec {
            protocol: protocol.to_string(),
            agent_a: a.to_string(),
            agent_b: b.to_string(),
            test: t.to_string(),
            seed: 1,
            budget_conflicts: None,
            fuzz: 0,
            retry_rungs: 0,
            fp_a: None,
            fp_b: None,
        }
    }

    #[test]
    fn resolve_validates_agents_and_tests() {
        assert!(resolve(spec("of10", "reference", "ovs", "queue_config")).is_ok());
        assert!(resolve(spec("of10", "nope", "ovs", "queue_config")).is_err());
        assert!(resolve(spec("of10", "reference", "ovs", "no_such_test")).is_err());
        assert!(resolve(spec("bogus", "reference", "ovs", "queue_config")).is_err());
        // A fingerprint override wins over the computed fingerprint.
        let mut s = spec("of10", "reference", "ovs", "queue_config");
        s.fp_a = Some("deadbeefdeadbeef".to_string());
        let rj = resolve(s).unwrap();
        assert_eq!(rj.fp_a, "deadbeefdeadbeef");
        assert_eq!(rj.fp_b, agent_fingerprint(AgentKind::OpenVSwitch));
    }

    #[test]
    fn resolve_is_protocol_scoped() {
        let rj = resolve(spec("tlv", "strict", "lenient", "echo")).expect("tlv job");
        assert_eq!(rj.protocol.id(), "tlv");
        assert_eq!(rj.agent_a.id(), "strict");
        // OpenFlow agents and tests do not leak into the TLV namespace.
        assert!(resolve(spec("tlv", "reference", "ovs", "echo")).is_err());
        assert!(resolve(spec("tlv", "strict", "lenient", "queue_config")).is_err());
        assert!(resolve(spec("of10", "strict", "lenient", "queue_config")).is_err());
    }
}
