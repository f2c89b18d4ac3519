//! Witness distillation properties, verified end to end and independently
//! of the pipeline's own bookkeeping: wire validity, concrete divergence,
//! 1-minimality, corpus round-tripping, and determinism across `--jobs`.

use soft::core::run_concrete;
use soft::harness::{json, suite, Input};
use soft::openflow::parse::roundtrips;
use soft::witness::{
    distill, free_positions, minimize, reproduce_corpus, ConcreteInput, Corpus, DistillConfig,
    Origin, SplitMix64, Status,
};
use soft::{AgentKind, Soft};
use std::time::{Duration, Instant};

fn distill_packet_out(
    cfg: &DistillConfig,
) -> (soft::harness::TestCase, soft::witness::DistillReport) {
    let soft = Soft::new();
    let test = suite::packet_out();
    let pair = soft
        .run_pair(AgentKind::Reference, AgentKind::OpenVSwitch, &test)
        .expect("pipeline");
    let report = distill(
        &test,
        &pair.result,
        &pair.grouped_a,
        &pair.grouped_b,
        AgentKind::Reference,
        AgentKind::OpenVSwitch,
        cfg,
    );
    (test, report)
}

/// Independent divergence oracle: wire-valid and concretely diverging,
/// checked with the public replay API rather than distill's internals.
fn diverges(inputs: &[ConcreteInput]) -> bool {
    if inputs.iter().any(|i| match i {
        ConcreteInput::Message(b) => !roundtrips(b),
        _ => false,
    }) {
        return false;
    }
    let concrete: Vec<Input> = inputs.iter().map(|i| i.to_input()).collect();
    let (Ok(oa), Ok(ob)) = (
        run_concrete(AgentKind::Reference, &concrete),
        run_concrete(AgentKind::OpenVSwitch, &concrete),
    ) else {
        return false;
    };
    oa != ob
}

/// Every confirmed witness is valid OpenFlow wire format, reproduces a
/// divergence under independent replay, and is 1-minimal: zeroing any
/// single remaining nonzero free byte destroys the reproduction.
#[test]
fn confirmed_witnesses_are_valid_diverging_and_one_minimal() {
    let (test, report) = distill_packet_out(&DistillConfig {
        fuzz_tries: 2,
        ..DistillConfig::default()
    });
    assert!(report.stats.confirmed > 0, "stats: {:?}", report.stats);
    let free = free_positions(&test);
    for (idx, entry) in report.corpus.entries.iter().enumerate() {
        if !entry.is_confirmed() {
            continue;
        }
        for msg in entry.messages() {
            assert!(roundtrips(msg), "witness #{idx} is not wire-valid");
        }
        assert!(diverges(&entry.inputs), "witness #{idx} does not diverge");
        for (input_idx, positions) in free.iter().enumerate() {
            for &p in positions {
                let mut mutant = entry.inputs.clone();
                let bytes = match &mut mutant[input_idx] {
                    ConcreteInput::Message(b) => b,
                    ConcreteInput::Probe { packet, .. } => packet,
                    ConcreteInput::AdvanceTime { .. } => continue,
                };
                if p >= bytes.len() || bytes[p] == 0 {
                    continue;
                }
                bytes[p] = 0;
                assert!(
                    !diverges(&mutant),
                    "witness #{idx} is not 1-minimal: byte {p} of input {input_idx} \
                     can be zeroed without losing the divergence"
                );
            }
        }
    }
}

/// Export → import → re-export is byte-identical, through a real file.
#[test]
fn corpus_round_trips_byte_identically_through_disk() {
    let (_, report) = distill_packet_out(&DistillConfig::default());
    let dir = std::env::temp_dir().join("soft_witness_roundtrip");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("corpus.json");
    report.corpus.save(&path, false).expect("save");
    let loaded = Corpus::load(&path).expect("load");
    assert_eq!(loaded, report.corpus);
    assert_eq!(
        loaded.to_json_string(),
        report.corpus.to_json_string(),
        "re-export must be byte-identical"
    );
    // A corrupted payload must be refused on import.
    let text = std::fs::read_to_string(&path).unwrap();
    let corrupt = text.replacen("\"entries\"", "\"entriez\"", 1);
    std::fs::write(dir.join("bad.json"), corrupt).unwrap();
    let err = Corpus::load(&dir.join("bad.json")).expect_err("must refuse");
    assert!(err.contains("fingerprint"), "{err}");
}

/// The corpus — including fuzz-derived entries — is byte-identical for
/// any worker count and across repeated runs.
#[test]
fn distillation_is_deterministic_across_jobs_and_runs() {
    let cfg1 = DistillConfig {
        fuzz_tries: 3,
        ..DistillConfig::default()
    };
    let cfg4 = DistillConfig {
        jobs: 4,
        ..cfg1.clone()
    };
    let (_, r1) = distill_packet_out(&cfg1);
    let (_, r4) = distill_packet_out(&cfg4);
    let (_, r1again) = distill_packet_out(&cfg1);
    assert_eq!(r1.corpus.to_json_string(), r4.corpus.to_json_string());
    assert_eq!(r1.corpus.to_json_string(), r1again.corpus.to_json_string());
    // Covers `replays_run` too: the memo runs each distinct candidate
    // once, whichever worker asks first.
    assert_eq!(r1.stats, r4.stats);
    // The memo answers repeated candidates without changing which ones
    // are checked: the check count is the one computed before the memo,
    // and fewer replays run than are checked.
    assert_eq!(r1.stats.replays, 1845);
    assert!(r1.stats.replays_run < r1.stats.replays, "{:?}", r1.stats);
    // A different fuzz seed is allowed to produce a different corpus, but
    // the distilled (non-fuzz) entries must be unaffected by it.
    let (_, other_seed) = distill_packet_out(&DistillConfig {
        seed: 0xDEAD_BEEF,
        ..cfg1.clone()
    });
    let distilled_only = |c: &Corpus| -> Vec<ConcreteInput> {
        c.entries
            .iter()
            .filter(|e| matches!(e.origin, Origin::Distilled { .. }))
            .flat_map(|e| e.inputs.clone())
            .collect()
    };
    assert_eq!(
        distilled_only(&r1.corpus),
        distilled_only(&other_seed.corpus)
    );
}

/// Minimization is idempotent and divergence-preserving on real
/// witnesses: re-minimizing a distilled entry changes nothing.
#[test]
fn minimization_is_idempotent_and_divergence_preserving() {
    let (test, report) = distill_packet_out(&DistillConfig::default());
    let free = free_positions(&test);
    let out = |inputs: &[ConcreteInput]| {
        diverges(inputs).then(|| {
            let concrete: Vec<Input> = inputs.iter().map(|i| i.to_input()).collect();
            (
                run_concrete(AgentKind::Reference, &concrete).unwrap(),
                run_concrete(AgentKind::OpenVSwitch, &concrete).unwrap(),
            )
        })
    };
    let mut checked = 0;
    for entry in &report.corpus.entries {
        if !entry.is_confirmed() {
            continue;
        }
        let spans =
            |bytes: &[u8]| soft::protocol::Protocol::message_spans(&soft::agents::OF10, bytes);
        let again = minimize(&entry.inputs, &free, &spans, out).expect("still diverges");
        assert_eq!(
            again.inputs, entry.inputs,
            "minimization must be idempotent"
        );
        assert!(diverges(&again.inputs));
        checked += 1;
    }
    assert!(checked > 0);
}

/// Every confirmed corpus entry replays through the public
/// `reproduce_corpus` API with its recorded signature, at any job count.
#[test]
fn reproduce_confirms_the_whole_corpus() {
    let (_, report) = distill_packet_out(&DistillConfig {
        fuzz_tries: 2,
        ..DistillConfig::default()
    });
    for jobs in [1, 3] {
        for (idx, outcome) in reproduce_corpus(
            &report.corpus,
            AgentKind::Reference,
            AgentKind::OpenVSwitch,
            jobs,
        ) {
            outcome.unwrap_or_else(|e| panic!("witness #{idx} failed with {jobs} jobs: {e}"));
        }
    }
}

/// Witnesses that cannot be confirmed surface as `Unconfirmed` entries
/// with a reason — the corpus never silently drops a witness.
#[test]
fn unconfirmable_witnesses_are_reported_not_dropped() {
    let soft = Soft::new();
    let test = suite::packet_out();
    let pair = soft
        .run_pair(AgentKind::Reference, AgentKind::OpenVSwitch, &test)
        .expect("pipeline");
    // Replaying against an identical pair: nothing can diverge.
    let report = distill(
        &test,
        &pair.result,
        &pair.grouped_a,
        &pair.grouped_b,
        AgentKind::OpenVSwitch,
        AgentKind::OpenVSwitch,
        &DistillConfig {
            fuzz_tries: 0,
            ..DistillConfig::default()
        },
    );
    assert_eq!(report.stats.confirmed, 0);
    assert_eq!(report.stats.unconfirmed, report.stats.witnesses);
    assert_eq!(report.corpus.entries.len(), report.stats.witnesses);
    assert!(report.stats.witnesses > 0);
    for e in &report.corpus.entries {
        match &e.status {
            Status::Unconfirmed { reason } => {
                assert!(!reason.is_empty());
                assert!(!e.inputs.is_empty(), "inputs are retained for triage");
            }
            s => panic!("expected unconfirmed, got {s:?}"),
        }
    }
}

/// `text` with its fingerprint recomputed over its payload, as a writer
/// that damaged the corpus before fingerprinting it would leave it; `None`
/// if the file no longer parses as JSON with a `corpus` field.
fn refingerprint(text: &str) -> Option<String> {
    let body = json::parse(text).ok()?.get("corpus")?.to_string();
    let fnv = body.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ b as u64).wrapping_mul(0x1_0000_01b3)
    });
    Some(format!(r#"{{"fingerprint":"{fnv:016x}","corpus":{body}}}"#))
}

/// `soft repro` and `soft conform` load corpora from outside the process:
/// a damaged corpus must come back as an `Err`, never a panic, and
/// loading must take time linear in the file's size.
#[test]
fn corpus_loading_rejects_damaged_files_in_linear_time() {
    let (_, report) = distill_packet_out(&DistillConfig::default());
    let full = report.corpus;
    // A few kilobytes of real entries: the first of each origin and
    // cluster, plus a copy of the first with a probe and a time step
    // appended and marked unconfirmed, so every input kind and both
    // statuses are read.
    let mut small = full.clone();
    let mut seen = Vec::new();
    small.entries.retain(|e| {
        let key = (
            matches!(e.origin, Origin::Distilled { .. }),
            e.status.clone(),
        );
        let fresh = !seen.contains(&key);
        seen.push(key);
        fresh
    });
    let mut mixed = small.entries[0].clone();
    mixed.inputs.push(ConcreteInput::Probe {
        in_port: 2,
        packet: vec![0xab; 14],
    });
    mixed.inputs.push(ConcreteInput::AdvanceTime { now: 300 });
    mixed.status = Status::Unconfirmed {
        reason: "replayed traces do not diverge".into(),
    };
    small.entries.push(mixed);
    assert!(small.entries.len() >= 4, "{} entries", small.entries.len());
    let text = small.to_json_string();
    assert!(text.is_ascii());
    assert_eq!(Corpus::from_json_str(&text).unwrap(), small);

    for cut in 0..text.len() {
        assert!(
            Corpus::from_json_str(&text[..cut]).is_err(),
            "{cut}-byte prefix read"
        );
    }

    // Half the flips keep the recorded fingerprint, which refuses them;
    // the other half recompute it, so the damage reaches the entry
    // reader, the hex decoder and the integer range checks.
    let mut rng = SplitMix64::new(0x50f7);
    let (mut refused_past_fingerprint, mut read) = (0, 0);
    for flip in 0..2000 {
        let mut bytes = text.clone().into_bytes();
        let at = rng.below(bytes.len() as u64) as usize;
        // Flip one of the low seven bits: the text stays ASCII.
        bytes[at] ^= 1 << rng.below(7);
        let mut damaged = String::from_utf8(bytes).unwrap();
        if flip % 2 == 1 {
            match refingerprint(&damaged) {
                Some(again) => damaged = again,
                None => continue,
            }
        }
        let loaded = std::panic::catch_unwind(|| Corpus::from_json_str(&damaged))
            .unwrap_or_else(|_| panic!("flip {flip} at byte {at} panicked"));
        match loaded {
            Ok(_) => read += 1,
            Err(e) if !e.contains("fingerprint") => refused_past_fingerprint += 1,
            Err(_) => {}
        }
    }
    assert!(refused_past_fingerprint > 0 && read > 0);

    let rejects = |damaged: &str, what: &str| {
        let damaged = refingerprint(damaged).expect("still JSON");
        let err = Corpus::from_json_str(&damaged).expect_err(what);
        assert!(!err.contains("fingerprint"), "{what}: {err}");
    };
    let hex = text.find(r#""hex":""#).unwrap() + r#""hex":""#.len();
    rejects(
        &format!("{}0{}", &text[..hex], &text[hex..]),
        "an odd-length hex string",
    );
    rejects(
        &format!("{}\\u20ac{}", &text[..hex], &text[hex + 1..]),
        "a non-ASCII hex digit",
    );
    rejects(
        &text.replacen(r#""now":300"#, r#""now":65536"#, 1),
        "now above u16",
    );
    rejects(
        &text.replacen(r#""in_port":2"#, r#""in_port":70000"#, 1),
        "in_port above u16",
    );
    rejects(
        &text.replacen(r#""msg_types":[13]"#, r#""msg_types":[269]"#, 1),
        "a message type above 255",
    );
    rejects(
        &text.replacen(r#""cluster":0"#, r#""cluster":18446744073709551615"#, 1),
        "a cluster id past the entries",
    );

    // The entries eight times over: a reader quadratic in its input would
    // take 64 times as long, a linear one 8.
    let mut eight = full.clone();
    eight.entries = (0..8).flat_map(|_| full.entries.clone()).collect();
    let (one, eight) = (full.to_json_string(), eight.to_json_string());
    let time = |text: &str| -> Duration {
        (0..5)
            .map(|_| {
                let t0 = Instant::now();
                Corpus::from_json_str(text).unwrap();
                t0.elapsed()
            })
            .min()
            .unwrap()
    };
    let (one, eight) = (time(&one), time(&eight));
    assert!(eight < one * 16, "1x {one:?}, 8x {eight:?}");
}
