//! A once-per-candidate memo of the divergence oracle.
//!
//! Distillation re-checks divergence by concrete replay at every ddmin
//! step and every fuzz mutant, and most candidates recur: a ddmin pass
//! re-offers the zeroings an earlier pass refused, witnesses of one root
//! cause minimize through the same intermediate inputs, and a fuzz
//! mutant's minimization reaches inputs the drafts already replayed.
//! Replay is a pure function of the inputs (the property `soft repro`
//! relies on), so one distill keeps one memo keyed by the exact candidate
//! inputs and replays each distinct candidate once.
//!
//! Each key holds a [`OnceLock`]: a worker that asks for a candidate
//! another worker is replaying waits for that answer instead of replaying
//! it again, so each distinct candidate runs exactly once at any worker
//! count, and the number of runs is the number of keys.

use crate::corpus::ConcreteInput;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

/// Answers of a pure oracle over candidate inputs, computed once per
/// distinct candidate and shared by every worker holding the memo.
pub(crate) struct Memo<V> {
    cells: Mutex<HashMap<Vec<ConcreteInput>, Arc<OnceLock<V>>>>,
}

impl<V: Clone> Memo<V> {
    /// An empty memo.
    pub(crate) fn new() -> Memo<V> {
        Memo {
            cells: Mutex::new(HashMap::new()),
        }
    }

    /// The answer for `inputs`: computed by `run` if no caller asked for
    /// these inputs before, otherwise the first caller's answer (waiting
    /// for it if that caller is still computing it).
    pub(crate) fn get(&self, inputs: &[ConcreteInput], run: impl FnOnce() -> V) -> V {
        let cell = {
            let mut cells = self.cells.lock().unwrap_or_else(|e| e.into_inner());
            match cells.get(inputs) {
                Some(cell) => Arc::clone(cell),
                None => Arc::clone(cells.entry(inputs.to_vec()).or_default()),
            }
        };
        cell.get_or_init(run).clone()
    }

    /// Distinct candidates asked for so far: each one ran exactly once.
    pub(crate) fn len(&self) -> usize {
        self.cells.lock().unwrap_or_else(|e| e.into_inner()).len()
    }
}
