//! The decoupled two-phase workflow of §2.4.
//!
//! Vendors run phase 1 independently and ship JSON artifacts; the
//! crosschecking party works from the artifacts alone. These tests verify
//! that the artifact round-trip is lossless — the crosscheck result
//! computed from serialized artifacts is identical to the in-process one,
//! which is what lets `soft run` group its explored paths in memory.

use soft::core::Soft;
use soft::harness::{decode_run, encode_run, json, suite};
use soft::witness::SplitMix64;
use soft::AgentKind;
use std::collections::HashSet;
use std::fs;
use std::mem::discriminant;
use std::time::{Duration, Instant};

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
    let json_a = encode_run(&soft.phase1(AgentKind::Reference, &test));
    let json_b = encode_run(&soft.phase1(AgentKind::OpenVSwitch, &test));

    let imported_a = decode_run(&json_a).expect("vendor A artifact parses");
    let imported_b = decode_run(&json_b).expect("vendor B artifact parses");
    let grouped_a = soft.group(&imported_a).expect("group A");
    let grouped_b = soft.group(&imported_b).expect("group B");
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
    let dir = std::env::temp_dir().join("soft_phased_artifacts");
    fs::create_dir_all(&dir).unwrap();

    for kind in [AgentKind::Reference, AgentKind::OpenVSwitch] {
        let text = encode_run(&soft.phase1(kind, &test));
        let path = dir.join(format!("{}_{}.json", kind.id(), test.id));
        fs::write(&path, &text).unwrap();
        let back = decode_run(&fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(encode_run(&back), text);
    }

    // Crosscheck purely from the files.
    let read = |k: AgentKind| {
        let path = dir.join(format!("{}_{}.json", k.id(), test.id));
        decode_run(&fs::read_to_string(path).unwrap()).unwrap()
    };
    let ga = soft.group(&read(AgentKind::Reference)).unwrap();
    let gb = soft.group(&read(AgentKind::OpenVSwitch)).unwrap();
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
        let artifact = decode_run(&encode_run(&run)).unwrap();
        let via_artifact = soft.group(&artifact).unwrap();
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
            // The tree printer lays the same text out again: checks the
            // bytes without the artifact writer.
            assert_eq!(json::parse(&text).unwrap().to_string(), text, "{at}");
            let back = decode_run(&text).unwrap();
            assert_eq!(encode_run(&back), text, "{at}");
            assert_eq!((&back.agent, &back.test), (&run.agent, &run.test), "{at}");
            assert_eq!(back.stats.truncated, run.stats.truncated, "{at}");
            assert_eq!(back.paths.len(), run.paths.len(), "{at}");
            for (i, (back, explored)) in back.paths.iter().zip(&run.paths).enumerate() {
                assert!(
                    back.condition == explored.condition,
                    "{at} path {i}: condition"
                );
                assert_eq!(back.output, explored.output, "{at} path {i}: output");
                assert_eq!(
                    back.constraint_size, explored.constraint_size,
                    "{at} path {i}: constraint size"
                );
            }
        }
    }
}

/// `decode_run` reads bytes from outside the process: a damaged artifact
/// must come back as an `Err`, never a panic, and reading must take time
/// linear in the artifact's size.
#[test]
fn decode_run_rejects_damaged_artifacts_in_linear_time() {
    let run = Soft::new().phase1(AgentKind::Reference, &suite::packet_out());
    let full = encode_run(&run);
    // A few kilobytes of real paths: the shortest one with each event
    // kind, and the shortest with no event.
    let mut small = run.clone();
    small.paths.sort_by_key(|p| p.constraint_size);
    let mut seen = HashSet::new();
    small.paths.retain(|p| {
        let mut kinds: Vec<_> = p
            .output
            .events
            .iter()
            .map(|e| Some(discriminant(e)))
            .collect();
        if kinds.is_empty() {
            kinds.push(None);
        }
        kinds
            .into_iter()
            .fold(false, |fresh, k| seen.insert(k) | fresh)
    });
    let text = encode_run(&small);
    assert!(text.is_ascii() && text.contains("\"events\":[]"));
    assert_eq!(decode_run(&text).unwrap().paths.len(), small.paths.len());

    for cut in 0..text.len() {
        assert!(decode_run(&text[..cut]).is_err(), "{cut}-byte prefix read");
    }

    let mut rng = SplitMix64::new(0x50f7);
    let mut rejected = 0;
    for _ in 0..2000 {
        let mut bytes = text.clone().into_bytes();
        let at = rng.below(bytes.len() as u64) as usize;
        // Flip one of the low seven bits: the text stays ASCII.
        bytes[at] ^= 1 << rng.below(7);
        let flipped = String::from_utf8(bytes).unwrap();
        let read = std::panic::catch_unwind(|| decode_run(&flipped).is_err());
        rejected += read.unwrap_or_else(|_| panic!("flip at byte {at} panicked")) as usize;
    }
    assert!(rejected > 0);

    let rejects = |damaged: String, what: &str| {
        assert!(decode_run(&damaged).is_err(), "{what} was read");
    };
    rejects(
        text.replacen(",\"truncated\":false", "", 1),
        "a missing field",
    );
    rejects(
        text.replacen("\"crashed\":false", "\"crashed\":0", 1),
        "a mistyped field",
    );
    rejects(format!("[{text}]"), "a non-object top level");
    // Each damage in an event put in place of the first empty event list,
    // beside the same event undamaged, which must read.
    let nest = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
    let of_reply = |msg_type: u32, fields: &str| {
        format!(r#"{{"kind":"of_reply","msg_type":{msg_type},"fields":[{fields}],"body":[]}}"#)
    };
    let error = r#"{"kind":"error","xid":"(c 32 0)","etype":"(c 16 1)","code":"(c 16 1)"}"#;
    let cases = [
        (
            "an unknown event kind",
            error.to_string(),
            error.replace("error", "eror"),
        ),
        (
            "a missing event field",
            error.to_string(),
            error.replace(r#","code":"(c 16 1)""#, ""),
        ),
        ("msg_type above 255", of_reply(255, ""), of_reply(256, "")),
        (
            "an unknown reply field",
            of_reply(17, r#"["xid","(c 32 1)"]"#),
            of_reply(17, r#"["vid","(c 32 1)"]"#),
        ),
        (
            "a reply field entry that is not a pair",
            of_reply(17, r#"["xid","(c 32 1)"]"#),
            of_reply(17, r#"["xid"]"#),
        ),
        (
            "a reply field entry longer than a pair",
            of_reply(17, r#"["xid","(c 32 1)"]"#),
            of_reply(17, r#"["xid","(c 32 1)","(c 32 1)"]"#),
        ),
        (
            "a buffer byte whose sort is not Bv(8)",
            r#"{"kind":"normal_forward","data":["(c 8 1)"]}"#.to_string(),
            r#"{"kind":"normal_forward","data":["(c 16 1)"]}"#.to_string(),
        ),
        (
            "nesting deeper than MAX_DEPTH",
            format!(r#"{{"kind":"probe_dropped","skipped":{}}}"#, nest(10)),
            format!(r#"{{"kind":"probe_dropped","skipped":{}}}"#, nest(100)),
        ),
    ];
    for (what, good, bad) in cases {
        let with =
            |event: &str| text.replacen("\"events\":[]", &format!("\"events\":[{event}]"), 1);
        assert!(
            decode_run(&with(&good)).is_ok(),
            "{what}: the undamaged event was refused"
        );
        rejects(with(&bad), what);
    }

    // The paths eight times over: a reader quadratic in its input would
    // take 64 times as long, a linear one 8.
    let at = full.find("\"paths\":[").unwrap() + "\"paths\":[".len();
    let end = full.rfind("],\"wall_ms\"").unwrap();
    let body = &full[at..end];
    let eight = format!("{}{}{}", &full[..at], [body; 8].join(","), &full[end..]);
    assert_eq!(decode_run(&eight).unwrap().paths.len(), 8 * run.paths.len());
    let time = |text: &str| -> Duration {
        (0..5)
            .map(|_| {
                let t0 = Instant::now();
                decode_run(text).unwrap();
                t0.elapsed()
            })
            .min()
            .unwrap()
    };
    let (one, eight) = (time(&full), time(&eight));
    assert!(eight < one * 16, "1x {one:?}, 8x {eight:?}");
}
