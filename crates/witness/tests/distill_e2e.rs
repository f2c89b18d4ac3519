//! End-to-end distillation tests over the OpenFlow protocol pair
//! (moved out of `src/distill.rs` so the witness crate sources stay
//! protocol-agnostic; see `tools/lint_protocol_layering.sh`).

use soft_agents::AgentKind;
use soft_core::Soft;
use soft_harness::suite;
use soft_witness::{
    assemble, distill, draft_witness, reproduce_corpus, DistillConfig, DistillReport, DistillStats,
    Status, WitnessDraft,
};

fn queue_config_report(cfg: &DistillConfig) -> DistillReport {
    let soft = Soft::new();
    let test = suite::queue_config();
    let pair = soft
        .run_pair(AgentKind::Reference, AgentKind::OpenVSwitch, &test)
        .expect("pipeline");
    distill(
        &test,
        &pair.result,
        &pair.grouped_a,
        &pair.grouped_b,
        AgentKind::Reference,
        AgentKind::OpenVSwitch,
        cfg,
    )
}

#[test]
fn queue_config_distills_and_reproduces() {
    let report = queue_config_report(&DistillConfig::default());
    assert!(report.stats.confirmed > 0, "stats: {:?}", report.stats);
    assert_eq!(
        report.stats.confirmed + report.stats.unconfirmed,
        report.stats.witnesses
    );
    for (_, r) in reproduce_corpus(
        &report.corpus,
        AgentKind::Reference,
        AgentKind::OpenVSwitch,
        1,
    ) {
        r.expect("every confirmed entry must reproduce");
    }
}

#[test]
fn corpus_is_jobs_invariant() {
    let base = queue_config_report(&DistillConfig::default());
    let par = queue_config_report(&DistillConfig {
        jobs: 4,
        ..DistillConfig::default()
    });
    assert_eq!(
        base.corpus.to_json_string(),
        par.corpus.to_json_string(),
        "corpus must be byte-identical for any --jobs"
    );
    assert_eq!(base.stats, par.stats);
}

#[test]
fn precomputed_drafts_assemble_identically() {
    // The streaming session drafts witnesses eagerly (out of band) and
    // hands them to assemble; the corpus must be byte-identical to the
    // batch pipeline no matter which slots were precomputed.
    let soft = Soft::new();
    let test = suite::queue_config();
    let pair = soft
        .run_pair(AgentKind::Reference, AgentKind::OpenVSwitch, &test)
        .expect("pipeline");
    let cfg = DistillConfig::default();
    let batch = distill(
        &test,
        &pair.result,
        &pair.grouped_a,
        &pair.grouped_b,
        AgentKind::Reference,
        AgentKind::OpenVSwitch,
        &cfg,
    );
    assert!(!pair.result.inconsistencies.is_empty(), "need a slot");
    // Precompute every other draft; leave the rest to assemble.
    let slots: Vec<Option<WitnessDraft>> = pair
        .result
        .inconsistencies
        .iter()
        .enumerate()
        .map(|(k, inc)| {
            (k % 2 == 0).then(|| {
                draft_witness(
                    &test,
                    inc,
                    &pair.grouped_a,
                    &pair.grouped_b,
                    AgentKind::Reference,
                    AgentKind::OpenVSwitch,
                )
            })
        })
        .collect();
    let mixed = assemble(
        &test,
        &pair.result,
        slots,
        &pair.grouped_a,
        &pair.grouped_b,
        AgentKind::Reference,
        AgentKind::OpenVSwitch,
        &cfg,
    );
    assert_eq!(batch.corpus.to_json_string(), mixed.corpus.to_json_string());
    // Every count agrees but the replays run, which covers only the
    // drafts assemble makes itself.
    let but_runs = |s: &DistillStats| DistillStats {
        replays_run: 0,
        ..s.clone()
    };
    assert_eq!(but_runs(&batch.stats), but_runs(&mixed.stats));
}

#[test]
fn identical_agents_yield_unconfirmed_not_silence() {
    // Distill the ref-vs-ovs inconsistencies, then confirm against an
    // *identical* pair: nothing can diverge, and the never-lie rule
    // says every witness must surface as unconfirmed, not vanish.
    let soft = Soft::new();
    let test = suite::queue_config();
    let pair = soft
        .run_pair(AgentKind::Reference, AgentKind::OpenVSwitch, &test)
        .expect("pipeline");
    let report = distill(
        &test,
        &pair.result,
        &pair.grouped_a,
        &pair.grouped_b,
        AgentKind::Reference,
        AgentKind::Reference,
        &DistillConfig {
            fuzz_tries: 0,
            ..DistillConfig::default()
        },
    );
    assert_eq!(report.stats.confirmed, 0);
    assert_eq!(report.stats.unconfirmed, report.stats.witnesses);
    assert!(report.stats.witnesses > 0);
    for e in &report.corpus.entries {
        match &e.status {
            Status::Unconfirmed { reason } => assert!(!reason.is_empty()),
            s => panic!("expected unconfirmed, got {s:?}"),
        }
    }
}
