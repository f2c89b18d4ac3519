//! The witness distillation pipeline.
//!
//! Turns crosscheck inconsistencies (solver models over symbolic input
//! bytes) into a [`Corpus`] of minimal, clustered, independently
//! replayable wire-format reproductions:
//!
//! 1. **model extraction** — complete the stored witness against the two
//!    recorded path conditions ([`soft_smt::complete_model`]), then
//!    concretize the test inputs under it;
//! 2. **wire validation** — every protocol message must survive a
//!    lossless parse→unparse round-trip
//!    ([`soft_protocol::Protocol::roundtrips`]);
//! 3. **replay confirmation** — both agents run concretely
//!    ([`soft_core::run_concrete`]); the traces must actually diverge;
//! 4. **minimization** — field-aware ddmin to a 1-minimal core
//!    ([`crate::minimize`]);
//! 5. **clustering** — confirmed witnesses are grouped by
//!    (divergence kind, normalized signature pair): the automated cut of
//!    the paper's Table 3 root-cause analysis;
//! 6. **neighborhood fuzzing** — seeded, field-wise mutations of
//!    confirmed witnesses; newly divergent mutants are minimized and fed
//!    back into the corpus ([`crate::fuzz`]).
//!
//! A witness that fails any confirmation stage becomes an `Unconfirmed`
//! corpus entry carrying the reason — reported, never dropped. Stage 1–4
//! and 6 are parallel per witness over `--jobs`; results are
//! byte-identical for any worker count.

use crate::corpus::{ConcreteInput, Corpus, CorpusEntry, Origin, Status};
use crate::fuzz::mutate;
use crate::minimize::{free_positions, minimize, residual_bytes};
use crate::rng::{stream_seed, SplitMix64};
use soft_core::{
    classify_outputs, concretize_inputs, run_concrete, signature, CrosscheckResult, GroupedResults,
    Inconsistency,
};
use soft_harness::{par_map, Input, ObservedOutput, TestCase};
use soft_protocol::{AgentRef, Protocol};
use soft_smt::complete_model;

/// Default base seed for the neighborhood fuzzer ("SOFT" on a hex
/// keypad). Override with `--seed`.
pub const DEFAULT_SEED: u64 = 0x50F7;

/// Distillation configuration.
#[derive(Debug, Clone)]
pub struct DistillConfig {
    /// Worker threads for the per-witness stages (output is identical for
    /// any value).
    pub jobs: usize,
    /// Base seed for the neighborhood fuzzer.
    pub seed: u64,
    /// Fuzz mutations attempted per confirmed witness (0 disables).
    pub fuzz_tries: usize,
}

impl Default for DistillConfig {
    fn default() -> DistillConfig {
        DistillConfig {
            jobs: 1,
            seed: DEFAULT_SEED,
            fuzz_tries: 4,
        }
    }
}

/// Aggregate distillation statistics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DistillStats {
    /// Inconsistencies fed into the pipeline.
    pub witnesses: usize,
    /// Witnesses confirmed (wire-valid, diverging, minimized).
    pub confirmed: usize,
    /// Witnesses reported as unconfirmed (with reasons, in the corpus).
    pub unconfirmed: usize,
    /// Divergent fuzz mutants added to the corpus.
    pub fuzz_added: usize,
    /// Total concrete replay-pair evaluations spent.
    pub replays: usize,
    /// Distinct root-cause clusters among confirmed entries.
    pub clusters: usize,
    /// Free (originally symbolic) bytes across all corpus entries.
    pub free_bytes: usize,
    /// Free bytes still nonzero after minimization.
    pub residual_bytes: usize,
}

/// The distillation result: the corpus plus its statistics.
#[derive(Debug, Clone)]
pub struct DistillReport {
    /// The distilled corpus (save with [`Corpus::save`]).
    pub corpus: Corpus,
    /// Aggregate statistics.
    pub stats: DistillStats,
}

/// Convert concretized harness inputs into corpus form. Panics if any
/// input is still symbolic — `concretize_inputs` guarantees it is not.
fn to_concrete(inputs: &[Input]) -> Vec<ConcreteInput> {
    inputs
        .iter()
        .map(|i| match i {
            Input::Message(m) => ConcreteInput::Message(
                m.as_concrete()
                    .expect("concretized message must be concrete"),
            ),
            Input::Probe { in_port, packet } => ConcreteInput::Probe {
                in_port: *in_port,
                packet: packet
                    .buf
                    .as_concrete()
                    .expect("concretized probe must be concrete"),
            },
            Input::AdvanceTime { now } => ConcreteInput::AdvanceTime { now: *now },
        })
        .collect()
}

/// Every protocol message input survives a lossless parse round-trip.
fn wire_valid(proto: &dyn Protocol, inputs: &[ConcreteInput]) -> bool {
    inputs.iter().all(|i| match i {
        ConcreteInput::Message(bytes) => proto.roundtrips(bytes),
        _ => true,
    })
}

/// The divergence oracle: `Some(outputs)` iff the candidate is wire-valid
/// and the two agents' concrete traces differ. Counts every call in
/// `replays`.
fn evaluate(
    a: AgentRef,
    b: AgentRef,
    inputs: &[ConcreteInput],
    replays: &mut usize,
) -> Option<(ObservedOutput, ObservedOutput)> {
    *replays += 1;
    if !wire_valid(a.protocol, inputs) {
        return None;
    }
    let concrete: Vec<Input> = inputs.iter().map(|i| i.to_input()).collect();
    let oa = run_concrete(a, &concrete).ok()?;
    let ob = run_concrete(b, &concrete).ok()?;
    (oa != ob).then_some((oa, ob))
}

/// One witness through stages 1–4 (model completion, wire validation,
/// replay confirmation, minimization), before clustering. `outcome` is
/// the replayed output pair for confirmed witnesses, or the refusal
/// reason. A draft is a pure function of its inputs, so a caller may
/// compute drafts itself (e.g. to time them) and hand them to
/// [`assemble`] — byte-identical to batch [`distill`].
pub struct WitnessDraft {
    inputs: Vec<ConcreteInput>,
    outcome: Result<(ObservedOutput, ObservedOutput), String>,
    replays: usize,
    free_bytes: usize,
    residual: usize,
}

impl WitnessDraft {
    /// The witness survived every confirmation stage.
    pub fn is_confirmed(&self) -> bool {
        self.outcome.is_ok()
    }
}

/// A draft tagged with where it came from (assembly stage only).
struct Draft {
    origin: Origin,
    inner: WitnessDraft,
}

fn unconfirmed(
    inputs: Vec<ConcreteInput>,
    free: &[Vec<usize>],
    reason: String,
    replays: usize,
) -> WitnessDraft {
    let free_bytes = free.iter().map(Vec::len).sum();
    let residual = residual_bytes(&inputs, free);
    WitnessDraft {
        inputs,
        outcome: Err(reason),
        replays,
        free_bytes,
        residual,
    }
}

/// Stages 1–4 for one inconsistency: complete the stored model, validate
/// the wire format, confirm divergence by concrete replay on both agents,
/// and minimize. Deterministic — independent of when or where it runs.
pub fn draft_witness(
    test: &TestCase,
    inc: &Inconsistency,
    grouped_a: &GroupedResults,
    grouped_b: &GroupedResults,
    a: impl Into<AgentRef>,
    b: impl Into<AgentRef>,
) -> WitnessDraft {
    let (a, b) = (a.into(), b.into());
    let free = free_positions(test);
    let mut replays = 0;

    // Stage 1: complete the model against the recorded path conditions,
    // so bytes the solver never had to pin get their implied values (a
    // journal-recovered witness may be partial).
    let mut witness = inc.witness.clone();
    let cond_a = grouped_a
        .groups
        .iter()
        .find(|g| g.output == inc.output_a)
        .map(|g| g.condition.clone());
    let cond_b = grouped_b
        .groups
        .iter()
        .find(|g| g.output == inc.output_b)
        .map(|g| g.condition.clone());
    if let (Some(ca), Some(cb)) = (&cond_a, &cond_b) {
        complete_model(&[ca.clone(), cb.clone()], &mut witness);
        if !witness.eval_bool(ca) || !witness.eval_bool(cb) {
            let inputs = to_concrete(&concretize_inputs(test, &witness));
            return unconfirmed(
                inputs,
                &free,
                "stored model does not satisfy the recorded path conditions".into(),
                replays,
            );
        }
    }
    let inputs = to_concrete(&concretize_inputs(test, &witness));

    // Stage 2: wire validation.
    if !wire_valid(a.protocol, &inputs) {
        return unconfirmed(
            inputs,
            &free,
            format!(
                "witness is not valid {} wire format (parse round-trip failed)",
                a.protocol.wire_name()
            ),
            replays,
        );
    }

    // Stage 3: replay confirmation — with per-agent reasons, so a failed
    // witness says *which* side refused and why.
    let concrete: Vec<Input> = inputs.iter().map(|i| i.to_input()).collect();
    replays += 1;
    let oa = match run_concrete(a, &concrete) {
        Ok(o) => o,
        Err(e) => {
            let reason = format!("concrete replay of {} failed: {e}", a.id());
            return unconfirmed(inputs, &free, reason, replays);
        }
    };
    let ob = match run_concrete(b, &concrete) {
        Ok(o) => o,
        Err(e) => {
            let reason = format!("concrete replay of {} failed: {e}", b.id());
            return unconfirmed(inputs, &free, reason, replays);
        }
    };
    if oa == ob {
        return unconfirmed(
            inputs,
            &free,
            "replayed traces do not diverge".into(),
            replays,
        );
    }

    // Stage 4: minimization (re-confirms divergence at every step).
    let spans = |m: &[u8]| a.protocol.message_spans(m);
    let minimized = minimize(&inputs, &free, &spans, |candidate| {
        evaluate(a, b, candidate, &mut replays)
    })
    .expect("stage 3 confirmed the starting inputs diverge");
    let residual = residual_bytes(&minimized.inputs, &free);
    WitnessDraft {
        free_bytes: free.iter().map(Vec::len).sum(),
        residual,
        inputs: minimized.inputs,
        outcome: Ok((minimized.output_a, minimized.output_b)),
        replays,
    }
}

/// Stage 6: fuzz the neighborhood of one confirmed witness. Returns
/// divergent, minimized mutants in step order.
fn fuzz_one(
    parent_index: usize,
    parent_inputs: &[ConcreteInput],
    free: &[Vec<usize>],
    a: AgentRef,
    b: AgentRef,
    cfg: &DistillConfig,
) -> Vec<Draft> {
    let spans = |m: &[u8]| a.protocol.message_spans(m);
    let mut out = Vec::new();
    for step in 0..cfg.fuzz_tries {
        let mut rng = SplitMix64::new(stream_seed(cfg.seed, parent_index as u64, step as u64));
        let Some(mutant) = mutate(parent_inputs, free, &spans, &mut rng) else {
            continue;
        };
        let origin = Origin::Fuzzed {
            parent: parent_index,
            step,
        };
        let mut replays = 0;
        if evaluate(a, b, &mutant, &mut replays).is_none() {
            out.push(Draft {
                origin,
                inner: WitnessDraft {
                    inputs: Vec::new(), // marker: not divergent, dropped later
                    outcome: Err(String::new()),
                    replays,
                    free_bytes: 0,
                    residual: 0,
                },
            });
            continue;
        }
        let minimized = minimize(&mutant, free, &spans, |candidate| {
            evaluate(a, b, candidate, &mut replays)
        })
        .expect("the mutant was just confirmed divergent");
        out.push(Draft {
            origin,
            inner: WitnessDraft {
                free_bytes: free.iter().map(Vec::len).sum(),
                residual: residual_bytes(&minimized.inputs, free),
                inputs: minimized.inputs,
                outcome: Ok((minimized.output_a, minimized.output_b)),
                replays,
            },
        })
    }
    out
}

/// Run the full distillation pipeline over a crosscheck result.
///
/// `grouped_a`/`grouped_b` are the same grouped results the crosscheck
/// consumed; they supply the path conditions for model completion. The
/// returned corpus is deterministic: byte-identical for any `cfg.jobs`.
pub fn distill(
    test: &TestCase,
    result: &CrosscheckResult,
    grouped_a: &GroupedResults,
    grouped_b: &GroupedResults,
    a: impl Into<AgentRef>,
    b: impl Into<AgentRef>,
    cfg: &DistillConfig,
) -> DistillReport {
    let none = (0..result.inconsistencies.len()).map(|_| None).collect();
    assemble(test, result, none, grouped_a, grouped_b, a, b, cfg)
}

/// Stages 5–6 plus corpus assembly over a mix of precomputed and missing
/// drafts. `drafts[k]`, when present, must be the output of
/// [`draft_witness`] for `result.inconsistencies[k]`, computed by the
/// caller; `None` slots are drafted here (in parallel over `cfg.jobs`). The
/// result is byte-identical however the drafts are split between the two
/// sources.
#[allow(clippy::too_many_arguments)]
pub fn assemble(
    test: &TestCase,
    result: &CrosscheckResult,
    drafts: Vec<Option<WitnessDraft>>,
    grouped_a: &GroupedResults,
    grouped_b: &GroupedResults,
    a: impl Into<AgentRef>,
    b: impl Into<AgentRef>,
    cfg: &DistillConfig,
) -> DistillReport {
    let (a, b) = (a.into(), b.into());
    assert_eq!(
        drafts.len(),
        result.inconsistencies.len(),
        "one draft slot per inconsistency"
    );
    // Stages 1–4 for the missing slots, parallel per witness.
    let missing: Vec<usize> = (0..drafts.len()).filter(|&k| drafts[k].is_none()).collect();
    let (fresh, _) = par_map(
        cfg.jobs,
        &missing,
        || (),
        |_, &k| draft_witness(test, &result.inconsistencies[k], grouped_a, grouped_b, a, b),
    );
    let mut slots = drafts;
    for (k, d) in missing.into_iter().zip(fresh) {
        slots[k] = Some(d);
    }
    let drafts: Vec<Draft> = slots
        .into_iter()
        .enumerate()
        .map(|(k, d)| Draft {
            origin: Origin::Distilled { inconsistency: k },
            inner: d.expect("every slot filled above"),
        })
        .collect();

    // Stage 6, parallel per confirmed parent. The fuzzer mutates the
    // *minimized* witness: its neighborhood is the irreducible core, so
    // mutations probe the bytes that matter.
    let free = free_positions(test);
    let parents: Vec<usize> = (0..drafts.len())
        .filter(|&i| drafts[i].inner.outcome.is_ok())
        .collect();
    let (fuzz_results, _) = par_map(
        cfg.jobs,
        &parents,
        || (),
        |_, &p| {
            let Origin::Distilled { inconsistency } = drafts[p].origin else {
                unreachable!("parents are distilled drafts");
            };
            fuzz_one(inconsistency, &drafts[p].inner.inputs, &free, a, b, cfg)
        },
    );

    // Stage 5 + assembly, sequential and order-deterministic: distilled
    // entries first (inconsistency order), then fuzz mutants (parent,
    // step order), deduplicated by exact input bytes; clusters are keyed
    // by (divergence kind, signature pair) in first-seen order.
    let mut stats = DistillStats {
        witnesses: result.inconsistencies.len(),
        ..DistillStats::default()
    };
    let mut clusters: Vec<(String, String)> = Vec::new();
    let mut entries: Vec<CorpusEntry> = Vec::new();
    fn push(
        proto: &dyn Protocol,
        draft: Draft,
        stats: &mut DistillStats,
        clusters: &mut Vec<(String, String)>,
        entries: &mut Vec<CorpusEntry>,
    ) {
        let (status, kind, sig) = match &draft.inner.outcome {
            Ok((oa, ob)) => {
                let kind = classify_outputs(oa, ob).label().to_string();
                let sig = format!("{} / {}", signature(oa), signature(ob));
                let key = (kind.clone(), sig.clone());
                let cluster = match clusters.iter().position(|k| *k == key) {
                    Some(c) => c,
                    None => {
                        clusters.push(key);
                        clusters.len() - 1
                    }
                };
                (Status::Confirmed { cluster }, kind, sig)
            }
            Err(reason) => (
                Status::Unconfirmed {
                    reason: reason.clone(),
                },
                String::new(),
                String::new(),
            ),
        };
        stats.free_bytes += draft.inner.free_bytes;
        stats.residual_bytes += draft.inner.residual;
        let msg_types = draft
            .inner
            .inputs
            .iter()
            .filter_map(|i| match i {
                ConcreteInput::Message(b) => Some(proto.message_type(b).unwrap_or(0)),
                _ => None,
            })
            .collect();
        entries.push(CorpusEntry {
            origin: draft.origin,
            status,
            inputs: draft.inner.inputs,
            kind,
            signature: sig,
            msg_types,
            free_bytes: draft.inner.free_bytes,
            residual_bytes: draft.inner.residual,
        });
    }

    for draft in drafts {
        stats.replays += draft.inner.replays;
        match draft.inner.outcome {
            Ok(_) => stats.confirmed += 1,
            Err(_) => stats.unconfirmed += 1,
        }
        push(a.protocol, draft, &mut stats, &mut clusters, &mut entries);
    }
    for draft in fuzz_results.into_iter().flatten() {
        stats.replays += draft.inner.replays;
        if draft.inner.outcome.is_err() {
            continue; // non-divergent mutant: not a witness, just spent replays
        }
        if entries.iter().any(|e| e.inputs == draft.inner.inputs) {
            continue; // rediscovered an existing witness
        }
        stats.fuzz_added += 1;
        push(a.protocol, draft, &mut stats, &mut clusters, &mut entries);
    }
    stats.clusters = clusters.len();

    DistillReport {
        corpus: Corpus {
            protocol: a.protocol.id().to_string(),
            test: test.id.to_string(),
            agent_a: a.id().to_string(),
            agent_b: b.id().to_string(),
            seed: cfg.seed,
            entries,
        },
        stats,
    }
}

/// Replay a saved corpus: every confirmed entry is re-run concretely and
/// must reproduce its recorded divergence signature. Returns, per
/// confirmed entry index, `Ok(())` or a description of the failure.
/// Unconfirmed entries are skipped (they carry no claim to re-check).
pub fn reproduce_corpus(
    corpus: &Corpus,
    a: impl Into<AgentRef>,
    b: impl Into<AgentRef>,
    jobs: usize,
) -> Vec<(usize, Result<(), String>)> {
    let (a, b) = (a.into(), b.into());
    let confirmed = corpus.confirmed();
    let (outcomes, _) = par_map(
        jobs,
        &confirmed,
        || (),
        |_, &i| {
            let entry = &corpus.entries[i];
            if !wire_valid(a.protocol, &entry.inputs) {
                return Err(format!(
                    "entry is not valid {} wire format",
                    a.protocol.wire_name()
                ));
            }
            let concrete: Vec<Input> = entry.inputs.iter().map(|inp| inp.to_input()).collect();
            let oa =
                run_concrete(a, &concrete).map_err(|e| format!("replay of {}: {e}", a.id()))?;
            let ob =
                run_concrete(b, &concrete).map_err(|e| format!("replay of {}: {e}", b.id()))?;
            if oa == ob {
                return Err("traces no longer diverge".to_string());
            }
            let sig = format!("{} / {}", signature(&oa), signature(&ob));
            if sig != entry.signature {
                return Err(format!(
                    "divergence signature changed: recorded '{}', replayed '{sig}'",
                    entry.signature
                ));
            }
            Ok(())
        },
    );
    confirmed.into_iter().zip(outcomes).collect()
}
