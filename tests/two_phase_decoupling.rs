//! The decoupled two-phase workflow of §2.4.
//!
//! Vendors run phase 1 independently and ship JSON artifacts; the
//! crosschecking party works from the artifacts alone. These tests verify
//! that the artifact round-trip is lossless — the crosscheck result
//! computed from serialized artifacts is identical to the in-process one,
//! which is what lets `soft run` group its explored paths in memory.

use soft::core::Soft;
use soft::harness::{encode_run, json, suite, TestRunFile};
use soft::AgentKind;
use std::fs;

#[test]
fn artifact_roundtrip_preserves_crosscheck_results() {
    let soft = Soft::new();
    let test = suite::packet_out();

    // In-process pipeline.
    let direct = soft
        .run_pair(AgentKind::Reference, AgentKind::OpenVSwitch, &test)
        .expect("pipeline");

    // Decoupled pipeline: each "vendor" exports JSON; the third party
    // imports, groups, and crosschecks without touching any agent.
    let file_a = soft.phase1_artifact(AgentKind::Reference, &test);
    let file_b = soft.phase1_artifact(AgentKind::OpenVSwitch, &test);
    let json_a = file_a.to_json();
    let json_b = file_b.to_json();

    let imported_a = TestRunFile::from_json(&json_a).expect("vendor A artifact parses");
    let imported_b = TestRunFile::from_json(&json_b).expect("vendor B artifact parses");
    let grouped_a = soft.group_artifact(&imported_a).expect("group A");
    let grouped_b = soft.group_artifact(&imported_b).expect("group B");
    let decoupled = soft.phase2(&grouped_a, &grouped_b);

    assert_eq!(
        direct.result.inconsistencies.len(),
        decoupled.inconsistencies.len(),
        "decoupling must not change the inconsistency count"
    );
    // The output pairs must match one-to-one.
    let key =
        |i: &soft::core::Inconsistency| (format!("{:?}", i.output_a), format!("{:?}", i.output_b));
    let mut direct_keys: Vec<_> = direct.result.inconsistencies.iter().map(key).collect();
    let mut decoupled_keys: Vec<_> = decoupled.inconsistencies.iter().map(key).collect();
    direct_keys.sort();
    decoupled_keys.sort();
    assert_eq!(direct_keys, decoupled_keys);
}

#[test]
fn artifacts_survive_the_filesystem() {
    let soft = Soft::new();
    let test = suite::queue_config();
    let dir = std::env::temp_dir().join("soft_phase1_artifacts");
    fs::create_dir_all(&dir).unwrap();

    for kind in [AgentKind::Reference, AgentKind::OpenVSwitch] {
        let artifact = soft.phase1_artifact(kind, &test);
        let path = dir.join(format!("{}_{}.json", kind.id(), test.id));
        fs::write(&path, artifact.to_json()).unwrap();
        let back = TestRunFile::from_json(&fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(back, artifact);
    }

    // Crosscheck purely from the files.
    let read = |k: AgentKind| {
        let path = dir.join(format!("{}_{}.json", k.id(), test.id));
        TestRunFile::from_json(&fs::read_to_string(path).unwrap()).unwrap()
    };
    let ga = soft.group_artifact(&read(AgentKind::Reference)).unwrap();
    let gb = soft.group_artifact(&read(AgentKind::OpenVSwitch)).unwrap();
    let result = soft.phase2(&ga, &gb);
    assert!(
        !result.inconsistencies.is_empty(),
        "queue-config crash divergence must be found from files alone"
    );
}

#[test]
fn grouping_counts_match_between_direct_and_artifact() {
    let soft = Soft::new();
    let test = suite::stats_request();
    for kind in [AgentKind::Reference, AgentKind::OpenVSwitch] {
        let run = soft.phase1(kind, &test);
        let direct = soft.group(&run).expect("grouping");
        let artifact = TestRunFile::from_run(&run);
        let via_artifact = soft.group_artifact(&artifact).unwrap();
        assert_eq!(direct.num_results(), via_artifact.num_results());
        assert_eq!(direct.num_paths(), via_artifact.num_paths());
        for (i, (d, a)) in direct.groups.iter().zip(&via_artifact.groups).enumerate() {
            assert_eq!(d.output, a.output, "{kind:?} group {i}: output");
            assert!(d.condition == a.condition, "{kind:?} group {i}: condition");
            assert_eq!(d.path_count, a.path_count, "{kind:?} group {i}: path count");
        }
    }
}

/// `soft run` publishes `encode_run(&run)` and groups `run.paths` in
/// memory rather than parsing its own artifacts back. That is the phased
/// flow only if the artifact reads back as exactly the explored run:
/// `from_wire(to_wire(t)) == t` for every condition and output term.
#[test]
fn published_artifact_reads_back_as_the_explored_run() {
    let soft = Soft::new().with_jobs(2);
    let interop = [
        suite::packet_out(),
        suite::stats_request(),
        suite::set_config(),
        suite::cs_flow_mods(),
        suite::concrete(),
        suite::short_symb(),
        suite::queue_config(),
        suite::timeout_flow_mod(),
    ];
    for test in &interop {
        for kind in [AgentKind::Reference, AgentKind::OpenVSwitch] {
            let run = soft.phase1(kind, test);
            let at = format!("{}/{}", kind.id(), test.id);
            let text = encode_run(&run);
            // The printer the phased flow uses lays the same text out
            // again: checks the bytes without the new writer.
            assert_eq!(json::parse(&text).unwrap().to_string(), text, "{at}");
            let copy = TestRunFile::from_run(&run);
            assert_eq!(text, copy.to_json(), "{at}");
            let file = TestRunFile::from_json(&text).unwrap();
            assert_eq!(file, copy, "{at}");
            let paths = file.to_paths().unwrap();
            assert_eq!(paths.len(), run.paths.len(), "{at}");
            for (i, (back, explored)) in paths.iter().zip(&run.paths).enumerate() {
                assert!(
                    back.condition == explored.condition,
                    "{at} path {i}: condition"
                );
                assert_eq!(back.output, explored.output, "{at} path {i}: output");
            }
        }
    }
}
