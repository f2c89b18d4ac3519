//! End-to-end determinism of the parallel pipeline: for any `--jobs`
//! value, SOFT must produce the *same* phase-1 artifacts and the *same*
//! phase-2 inconsistency set as the sequential run. This is the contract
//! that makes parallelism safe for the §2.4 vendor workflow — artifacts
//! produced on a 32-core vendor machine must be byte-compatible with
//! ones produced on a laptop.

use soft::core::Soft;
use soft::harness::{encode_run, suite, TestRun};
use soft::AgentKind;
use std::time::Duration;

/// Artifact with the timing field zeroed so equality sees only content.
fn canonical(mut run: TestRun) -> String {
    run.wall = Duration::ZERO;
    encode_run(&run)
}

#[test]
fn explored_artifact_identical_across_jobs() {
    let test = suite::packet_out();
    for agent in [AgentKind::Reference, AgentKind::OpenVSwitch] {
        let seq = canonical(Soft::new().phase1(agent, &test));
        for jobs in [2, 4] {
            let par = canonical(Soft::new().with_jobs(jobs).phase1(agent, &test));
            assert_eq!(
                seq,
                par,
                "{} artifact differs between jobs=1 and jobs={jobs}",
                agent.id()
            );
        }
    }
}

#[test]
fn explored_artifact_json_identical_across_jobs() {
    // Byte-level check on the wire form: what a vendor actually ships.
    let test = suite::queue_config();
    let seq = canonical(Soft::new().phase1(AgentKind::Reference, &test));
    let par = canonical(Soft::new().with_jobs(4).phase1(AgentKind::Reference, &test));
    assert_eq!(seq, par);
}

#[test]
fn full_pipeline_identical_across_jobs() {
    let test = suite::flow_mod();
    let seq = Soft::new()
        .run_pair(AgentKind::Reference, AgentKind::OpenVSwitch, &test)
        .expect("pipeline");
    let par = Soft::new()
        .with_jobs(4)
        .run_pair(AgentKind::Reference, AgentKind::OpenVSwitch, &test)
        .expect("pipeline");
    assert_eq!(seq.result.queries, par.result.queries);
    assert_eq!(seq.result.unknown, par.result.unknown);
    assert_eq!(
        seq.result.inconsistencies.len(),
        par.result.inconsistencies.len()
    );
    for (a, b) in seq
        .result
        .inconsistencies
        .iter()
        .zip(par.result.inconsistencies.iter())
    {
        assert_eq!(a.output_a, b.output_a);
        assert_eq!(a.output_b, b.output_b);
        assert_eq!(a.witness, b.witness, "witness models must match exactly");
    }
}

#[test]
fn parallel_phase1_shares_solver_work() {
    // The shared verdict cache must actually be exercised when several
    // workers explore the same program: cache size is reported and > 0.
    let run = Soft::new()
        .with_jobs(4)
        .phase1(AgentKind::Reference, &suite::flow_mod());
    assert!(run.stats.solver.queries > 0);
    assert!(
        run.stats.solver.cache_size > 0,
        "verdict cache never filled"
    );
}
