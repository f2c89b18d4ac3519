//! Field-aware witness minimization (ddmin-style greedy to fixpoint).
//!
//! A solver model pins every symbolic input byte, but most of those
//! values are incidental: the solver picked *something*, not something
//! that matters. Minimization drives every free byte it can back to the
//! canonical unassigned value `0` — the solver's own don't-care
//! convention — while re-confirming after every step that the candidate
//! is still valid wire format and still concretely diverges.
//!
//! Two pass granularities, repeated to a joint fixpoint:
//!
//! 1. **field spans** from the protocol's field-span API
//!    ([`soft_protocol::Protocol::message_spans`], threaded in as the
//!    `spans` closure): whole protocol fields zeroed at once (fast
//!    progress, respects field semantics);
//! 2. **single bytes**: every remaining nonzero free byte individually.
//!
//! The fixpoint over single-byte passes makes the result 1-minimal (no
//! single free byte can be zeroed without losing the divergence) and the
//! procedure idempotent: minimizing a minimized witness changes nothing.

use crate::corpus::ConcreteInput;
use soft_harness::{Input, ObservedOutput, TestCase};

/// Exact field partition of a concrete message, supplied by the protocol
/// under test ([`soft_protocol::Protocol::message_spans`]). Passed as a
/// closure so this crate stays protocol-agnostic.
pub type SpanFn<'a> = &'a dyn Fn(&[u8]) -> Vec<(usize, usize)>;

/// A minimized, re-confirmed witness.
#[derive(Debug, Clone)]
pub struct Minimized {
    /// The minimized concrete inputs.
    pub inputs: Vec<ConcreteInput>,
    /// Agent A's replayed output on the minimized inputs.
    pub output_a: ObservedOutput,
    /// Agent B's replayed output on the minimized inputs.
    pub output_b: ObservedOutput,
}

/// Per-input free byte positions: the indices that were *symbolic* in the
/// original test, i.e. the only bytes a witness is allowed to vary.
/// Concrete bytes (headers, builder-pinned fields) are structural and
/// never touched.
pub fn free_positions(test: &TestCase) -> Vec<Vec<usize>> {
    test.inputs
        .iter()
        .map(|i| {
            let bytes = match i {
                Input::Message(m) => m.bytes(),
                Input::Probe { packet, .. } => packet.buf.bytes(),
                Input::AdvanceTime { .. } => return Vec::new(),
            };
            bytes
                .iter()
                .enumerate()
                .filter(|(_, t)| t.as_bv_const().is_none())
                .map(|(p, _)| p)
                .collect()
        })
        .collect()
}

/// Zero-out candidate groups, coarse to fine: protocol field spans
/// (intersected with the free positions) for messages, then every free
/// position individually. Spans are computed from the *current* bytes, so
/// length-bearing fields already zeroed reshape later groups correctly.
fn groups(
    inputs: &[ConcreteInput],
    free: &[Vec<usize>],
    spans: SpanFn<'_>,
) -> Vec<(usize, Vec<usize>)> {
    let mut out: Vec<(usize, Vec<usize>)> = Vec::new();
    // Pass-1 groups: field spans restricted to free positions.
    for (idx, input) in inputs.iter().enumerate() {
        if let ConcreteInput::Message(bytes) = input {
            for (start, end) in spans(bytes) {
                let span: Vec<usize> = free[idx]
                    .iter()
                    .copied()
                    .filter(|&p| p >= start && p < end)
                    .collect();
                if span.len() > 1 {
                    out.push((idx, span));
                }
            }
        }
    }
    // Pass-2 groups: every free byte on its own (messages and probes).
    for (idx, positions) in free.iter().enumerate() {
        for &p in positions {
            out.push((idx, vec![p]));
        }
    }
    out
}

fn zeroed(inputs: &[ConcreteInput], idx: usize, span: &[usize]) -> Option<Vec<ConcreteInput>> {
    let mut out = inputs.to_vec();
    let bytes = match &mut out[idx] {
        ConcreteInput::Message(b) => b,
        ConcreteInput::Probe { packet, .. } => packet,
        ConcreteInput::AdvanceTime { .. } => return None,
    };
    let mut changed = false;
    for &p in span {
        if p < bytes.len() && bytes[p] != 0 {
            bytes[p] = 0;
            changed = true;
        }
    }
    changed.then_some(out)
}

/// Minimize `inputs` under the divergence oracle `check`.
///
/// `check` must return `Some((output_a, output_b))` iff the candidate is
/// wire-valid and the two agents concretely diverge on it; minimization
/// only ever *keeps* candidates the oracle confirms. Returns `None` if the
/// starting inputs themselves do not diverge (nothing to minimize — the
/// caller reports the witness as unconfirmed instead).
pub fn minimize<F>(
    inputs: &[ConcreteInput],
    free: &[Vec<usize>],
    spans: SpanFn<'_>,
    mut check: F,
) -> Option<Minimized>
where
    F: FnMut(&[ConcreteInput]) -> Option<(ObservedOutput, ObservedOutput)>,
{
    let (mut out_a, mut out_b) = check(inputs)?;
    let mut current = inputs.to_vec();
    loop {
        let mut progressed = false;
        for (idx, span) in groups(&current, free, spans) {
            let Some(candidate) = zeroed(&current, idx, &span) else {
                continue; // span already all-zero
            };
            if let Some((a, b)) = check(&candidate) {
                current = candidate;
                out_a = a;
                out_b = b;
                progressed = true;
            }
        }
        if !progressed {
            break;
        }
    }
    Some(Minimized {
        inputs: current,
        output_a: out_a,
        output_b: out_b,
    })
}

/// Count the free bytes still holding nonzero values: the irreducible
/// core of the reproduction after minimization.
pub fn residual_bytes(inputs: &[ConcreteInput], free: &[Vec<usize>]) -> usize {
    inputs
        .iter()
        .zip(free)
        .map(|(input, positions)| {
            let bytes: &[u8] = match input {
                ConcreteInput::Message(b) => b,
                ConcreteInput::Probe { packet, .. } => packet,
                ConcreteInput::AdvanceTime { .. } => return 0,
            };
            positions
                .iter()
                .filter(|&&p| p < bytes.len() && bytes[p] != 0)
                .count()
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memo::Memo;
    use soft_harness::ObservedOutput;
    use std::cell::Cell;
    use std::collections::HashSet;

    fn out() -> ObservedOutput {
        ObservedOutput {
            events: Vec::new(),
            crashed: false,
        }
    }

    /// Synthetic oracle: diverges iff byte 9 of the only message is
    /// nonzero OR bytes 8 and 10 are both nonzero.
    fn oracle(inputs: &[ConcreteInput]) -> Option<(ObservedOutput, ObservedOutput)> {
        let ConcreteInput::Message(b) = &inputs[0] else {
            return None;
        };
        (b[9] != 0 || (b[8] != 0 && b[10] != 0)).then(|| (out(), out()))
    }

    /// Synthetic field partition: one span over the free payload.
    fn spans(_: &[u8]) -> Vec<(usize, usize)> {
        vec![(8, 12)]
    }

    fn start() -> (Vec<ConcreteInput>, Vec<Vec<usize>>) {
        let mut bytes = vec![1, 20, 0, 12, 0, 0, 0, 0, 7, 9, 3, 5];
        bytes[3] = 12;
        (
            vec![ConcreteInput::Message(bytes)],
            vec![vec![8, 9, 10, 11]],
        )
    }

    #[test]
    fn reaches_a_one_minimal_core() {
        let (inputs, free) = start();
        let m = minimize(&inputs, &free, &spans, oracle).expect("diverges");
        let ConcreteInput::Message(b) = &m.inputs[0] else {
            panic!()
        };
        // Only byte 9 is needed; everything else zeroes out.
        assert_eq!(&b[8..12], &[0, 9, 0, 0]);
        assert_eq!(residual_bytes(&m.inputs, &free), 1);
        // 1-minimality: zeroing the survivor kills the divergence.
        let dead = zeroed(&m.inputs, 0, &[9]).unwrap();
        assert!(oracle(&dead).is_none());
    }

    #[test]
    fn is_idempotent() {
        let (inputs, free) = start();
        let once = minimize(&inputs, &free, &spans, oracle).unwrap();
        let twice = minimize(&once.inputs, &free, &spans, oracle).unwrap();
        assert_eq!(once.inputs, twice.inputs);
    }

    #[test]
    fn a_memoized_oracle_minimizes_alike_and_runs_each_candidate_once() {
        let (inputs, free) = start();
        let plain = minimize(&inputs, &free, &spans, oracle).unwrap();
        let memo = Memo::new();
        let runs = Cell::new(0);
        let mut checks = 0;
        let mut asked = HashSet::new();
        let memoized = minimize(&inputs, &free, &spans, |candidate| {
            checks += 1;
            asked.insert(candidate.to_vec());
            memo.get(candidate, || {
                runs.set(runs.get() + 1);
                oracle(candidate)
            })
        })
        .unwrap();
        assert_eq!(memoized.inputs, plain.inputs);
        assert_eq!(memoized.output_a, plain.output_a);
        assert_eq!(memoized.output_b, plain.output_b);
        // The second pass re-offers zeroings the first refused: those
        // checks are answered without running the oracle.
        assert_eq!(runs.get(), asked.len());
        assert_eq!(memo.len(), asked.len());
        assert!(runs.get() < checks, "{} runs, {checks} checks", runs.get());
    }

    #[test]
    fn refuses_non_diverging_start() {
        let inputs = vec![ConcreteInput::Message(vec![
            1, 20, 0, 12, 0, 0, 0, 0, 0, 0, 0, 0,
        ])];
        assert!(minimize(&inputs, &[vec![8, 9, 10, 11]], &spans, oracle).is_none());
    }
}
