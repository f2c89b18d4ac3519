//! The session pipeline (`soft run`).
//!
//! The phased CLI runs SOFT as separate commands with artifacts on disk
//! between them, and `distill` re-solves the crosscheck `check` already
//! solved. A [`run_session`] call runs the same stages in one process,
//! per test:
//!
//! - both agents are explored concurrently, each by `jobs / 2` explorer
//!   workers;
//! - each phase-1 artifact is encoded straight from its explored run
//!   and published, and the explored paths are grouped in memory (a
//!   term reads back from its wire form as itself, so these are the
//!   groups `check` builds from the published files);
//! - the canonical crosscheck pass solves every group pair once over
//!   `jobs` workers;
//! - [`distill`] turns the pass's inconsistencies into the witness corpus
//!   over `jobs` workers, exactly as `soft distill` does.
//!
//! **Determinism invariant**: for the same seed and inputs the session
//! publishes byte-identical artifacts (modulo recorded wall-clock) to
//! the phased flow, at any `--jobs`. Every stage merges its results in
//! canonical order, whatever worker produced them.
//!
//! One [`SessionJournal`] write-ahead log covers the whole session —
//! path, verdict, and corpus records interleaved — so `--resume`
//! restarts mid-pipeline: finished tests republish their journaled
//! corpus verbatim, finished paths replay concretely, decided verdicts
//! seed the crosscheck, and only the genuinely unfinished work re-runs.

use soft_core::{
    condition_diff, crosscheck_durable, CheckSeeds, CrosscheckConfig, GroupedResults, Soft,
    VerdictSink, RETRY_FACTOR,
};
use soft_harness::journal::{
    atomic_write, run_unit_durable, session_fingerprint, SessionJournal, SessionRecovery,
    UnitRecovery, VerdictRec,
};
use soft_harness::json::Json;
use soft_harness::{decode_run, encode_run, run_test, TestCase, TestRun};
use soft_protocol::AgentRef;
use soft_smt::{SatResult, SolverBudget};
use soft_sym::ExplorerConfig;
use soft_witness::{distill, DistillConfig};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard};

/// Recover the guarded data even if a sibling worker panicked while
/// holding the lock; all session state is mutated field-wise, so a
/// poisoned lock still guards usable state.
fn recover<T>(lock: &Mutex<T>) -> MutexGuard<'_, T> {
    lock.lock().unwrap_or_else(|e| e.into_inner())
}

/// Everything `soft run` needs to know; one value drives the whole
/// multi-test session.
#[derive(Debug, Clone)]
pub struct SessionConfig {
    /// First agent under test.
    pub agent_a: AgentRef,
    /// Second agent under test.
    pub agent_b: AgentRef,
    /// Tests to run, in order.
    pub tests: Vec<TestCase>,
    /// Total worker threads: `jobs / 2` explorer workers per agent (the
    /// two agents explore concurrently), then `jobs` crosscheck and
    /// distill workers. Results are identical for any value.
    pub jobs: usize,
    /// PRNG seed (exploration strategy + witness fuzzer).
    pub seed: u64,
    /// Per-query solver budget for every phase.
    pub solver_budget: SolverBudget,
    /// Budget-escalation retry rungs for Unknown crosscheck verdicts.
    pub retry_rungs: u32,
    /// Fuzz mutations per confirmed witness (0 disables).
    pub fuzz_tries: usize,
    /// Prefix for published artifacts: `{prefix}{agent}_{test}.json` and
    /// `{prefix}corpus_{test}.json`.
    pub out_prefix: String,
    /// Session write-ahead journal path (`None` disables durability).
    pub journal: Option<PathBuf>,
    /// Resume from an existing journal instead of truncating it.
    pub resume: bool,
    /// Fsync journal appends and artifact publishes.
    pub fsync: bool,
    /// Give crosscheck workers incremental CNF memos
    /// (honored only while the session budget is unlimited; artifacts
    /// are byte-identical either way).
    /// Deliberately excluded from the journal fingerprint: a journal
    /// written under either setting describes the same work.
    pub incremental: bool,
    /// Cross-run baseline for diff-based partial re-solving (the `soft
    /// serve` store path). Honored only for single-test sessions — a
    /// baseline describes one job — and, like `incremental`, excluded
    /// from the journal fingerprint: seeding only short-circuits solver
    /// work whose verdicts are pure functions of the inputs, so the
    /// published bytes are identical with or without it.
    pub baseline: Option<BaselineSeed>,
}

/// A previous run of the *same logical job* (same pair, test, budget,
/// seed), used to pre-decide crosscheck pairs whose endpoint groups are
/// provably unchanged (see [`soft_core::condition_diff`]).
#[derive(Debug, Clone)]
pub struct BaselineSeed {
    /// The baseline's published phase-1 artifact text for agent A.
    pub artifact_a: String,
    /// The baseline's published phase-1 artifact text for agent B.
    pub artifact_b: String,
    /// The baseline's full canonical verdict matrix (baseline indices).
    pub verdicts: Vec<VerdictRec>,
}

/// What one test produced, for CLI reporting and exit-code policy.
#[derive(Debug, Clone)]
pub struct TestOutcome {
    /// Test identifier.
    pub test: String,
    /// Effective paths explored for agent A.
    pub paths_a: usize,
    /// Effective paths explored for agent B.
    pub paths_b: usize,
    /// Either side's exploration was truncated by budget limits.
    pub truncated: bool,
    /// Crosscheck inconsistencies found.
    pub inconsistencies: usize,
    /// Pairs left Unknown after all retry rungs.
    pub unverified: usize,
    /// Witnesses confirmed by concrete replay.
    pub confirmed: usize,
    /// Distinct root-cause clusters among confirmed witnesses.
    pub clusters: usize,
    /// Divergent fuzz mutants added to the corpus.
    pub fuzz_added: usize,
    /// Where the witness corpus was published.
    pub corpus_path: PathBuf,
    /// The corpus was republished verbatim from the journal (the test
    /// had already finished before a resume).
    pub replayed: bool,
    /// Group pairs crosschecked (`|groups A| × |groups B|`; 0 on replay).
    pub pairs_total: usize,
    /// Pairs pre-decided from the cross-run baseline diff.
    pub seeded_pairs: usize,
    /// Pair verdicts the canonical crosscheck pass freshly delivered
    /// (solved rather than taken from a seed); 0 means the whole matrix
    /// was answered from seeds without touching a solver.
    pub check_queries: usize,
    /// The full canonical verdict matrix, sorted by pair — what the
    /// serve store persists so the *next* run can diff-seed from it.
    pub verdicts: Vec<VerdictRec>,
}

/// The session's aggregate result, one outcome per test.
#[derive(Debug, Clone)]
pub struct SessionReport {
    /// Per-test outcomes, in the configured test order.
    pub outcomes: Vec<TestOutcome>,
}

impl SessionReport {
    /// Total inconsistencies across all tests.
    pub fn inconsistencies(&self) -> usize {
        self.outcomes.iter().map(|o| o.inconsistencies).sum()
    }

    /// Total unverified pairs across all tests.
    pub fn unverified(&self) -> usize {
        self.outcomes.iter().map(|o| o.unverified).sum()
    }

    /// Any test's exploration was truncated.
    pub fn truncated(&self) -> bool {
        self.outcomes.iter().any(|o| o.truncated)
    }
}

/// The crosscheck settings string journal fingerprints hash: `soft run`
/// folds it into the session fingerprint, `check` and `distill` into the
/// check fingerprint. One definition, so a given configuration
/// identifies the same work in both flows.
pub fn check_settings(check: &CrosscheckConfig) -> String {
    // The text is frozen so older journals still resume: the budget once
    // had propagation and time dimensions and was written with `{:?}`,
    // and the retry ladder once had a configurable factor and cap.
    format!(
        "budget=SolverBudget {{ max_conflicts: {:?}, max_propagations: None, \
         time_limit: None }};rungs={};factor={RETRY_FACTOR};cap=None",
        check.solver_budget.max_conflicts, check.retry_rungs
    )
}

/// Create the directory that files published under `out` land in: the
/// parent of `{out}_`, so `out` may be one file's path or a prefix
/// (`dir/` or `dir/name_`). Commands call this before any work, journal
/// or not, so a run never explores only to fail at its first publish.
pub fn create_out_dir(out: &str) -> Result<(), String> {
    match Path::new(&format!("{out}_")).parent() {
        Some(dir) if !dir.as_os_str().is_empty() => {
            std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))
        }
        _ => Ok(()),
    }
}

/// Run the whole session: explore, group, crosscheck, and
/// distill every configured test through one pipeline, publishing the
/// same artifacts the phased commands would (modulo recorded wall-clock)
/// for any `jobs` value.
pub fn run_session(cfg: &SessionConfig) -> Result<SessionReport, String> {
    create_out_dir(&cfg.out_prefix)?;
    let base_explorer = ExplorerConfig {
        solver_budget: cfg.solver_budget,
        seed: cfg.seed,
        ..ExplorerConfig::default()
    };
    let check_cfg = CrosscheckConfig {
        solver_budget: cfg.solver_budget,
        jobs: cfg.jobs.max(1),
        retry_rungs: cfg.retry_rungs,
        incremental: cfg.incremental,
    };
    let n_units = cfg.tests.len() * 2;
    let (journal, recovery) = match &cfg.journal {
        Some(path) => {
            let fingerprint = session_fingerprint(
                cfg.agent_a,
                cfg.agent_b,
                &cfg.tests,
                &base_explorer,
                &check_settings(&check_cfg),
                &format!("seed={};fuzz={}", cfg.seed, cfg.fuzz_tries),
            );
            let (journal, recovery) = SessionJournal::open(
                path,
                cfg.resume,
                cfg.fsync,
                &fingerprint,
                n_units,
                cfg.tests.len(),
            )
            .map_err(|e| format!("journal {}: {e}", path.display()))?;
            (Some(journal), recovery)
        }
        None => (
            None,
            SessionRecovery {
                units: (0..n_units).map(|_| UnitRecovery::default()).collect(),
                verdicts: vec![Vec::new(); cfg.tests.len()],
                corpora: vec![None; cfg.tests.len()],
            },
        ),
    };
    let mut outcomes = Vec::with_capacity(cfg.tests.len());
    for (t, test) in cfg.tests.iter().enumerate() {
        outcomes.push(run_one_test(
            cfg,
            &base_explorer,
            &check_cfg,
            journal.as_ref(),
            &recovery,
            t,
            test,
        )?);
    }
    if let Some(j) = &journal {
        if let Some(e) = j.take_error() {
            return Err(format!("session journal write failed: {e}"));
        }
    }
    Ok(SessionReport { outcomes })
}

/// The session's [`VerdictSink`]: journals every canonical verdict and
/// collects it for the session report (the serve store persists them).
/// Seeded pairs are not re-delivered here; `run_one_test` merges them
/// back in.
struct VerdictLog<'a> {
    journal: Option<&'a SessionJournal>,
    t: usize,
    collected: &'a Mutex<Vec<VerdictRec>>,
}

impl VerdictSink for VerdictLog<'_> {
    fn on_verdict(&self, i: usize, j: usize, verdict: &SatResult, budget: &SolverBudget) {
        if let Some(journal) = self.journal {
            journal.record_verdict(self.t, i, j, verdict, budget);
        }
        recover(self.collected).push(VerdictRec {
            i,
            j,
            verdict: verdict.clone(),
            budget: *budget,
        });
    }
}

fn summary_u64(summary: &Json, key: &str) -> usize {
    summary.field(key).and_then(Json::as_u64).unwrap_or(0) as usize
}

fn summary_bool(summary: &Json, key: &str) -> bool {
    summary.field(key).and_then(Json::as_bool).unwrap_or(false)
}

#[allow(clippy::too_many_arguments)]
fn run_one_test(
    cfg: &SessionConfig,
    base_explorer: &ExplorerConfig,
    check_cfg: &CrosscheckConfig,
    journal: Option<&SessionJournal>,
    recovery: &SessionRecovery,
    t: usize,
    test: &TestCase,
) -> Result<TestOutcome, String> {
    let corpus_path = PathBuf::from(format!("{}corpus_{}.json", cfg.out_prefix, test.id));
    // A journaled corpus means the test fully finished before a resume
    // (the record is written after the corpus artifact is published):
    // republish the exact bytes and skip every phase.
    if let Some(rec) = &recovery.corpora[t] {
        atomic_write(&corpus_path, rec.data.as_bytes(), cfg.fsync)
            .map_err(|e| format!("write {}: {e}", corpus_path.display()))?;
        return Ok(TestOutcome {
            test: test.id.to_string(),
            paths_a: summary_u64(&rec.summary, "paths_a"),
            paths_b: summary_u64(&rec.summary, "paths_b"),
            truncated: summary_bool(&rec.summary, "truncated"),
            inconsistencies: summary_u64(&rec.summary, "inconsistencies"),
            unverified: summary_u64(&rec.summary, "unverified"),
            confirmed: summary_u64(&rec.summary, "confirmed"),
            clusters: summary_u64(&rec.summary, "clusters"),
            fuzz_added: summary_u64(&rec.summary, "fuzz_added"),
            corpus_path,
            replayed: true,
            pairs_total: 0,
            seeded_pairs: 0,
            check_queries: 0,
            verdicts: recovery.verdicts[t].clone(),
        });
    }

    // --- Stage 1: explore both agents concurrently. With a journal each
    // side writes its paths ahead through its unit sink and replays what
    // an interrupted run already journaled.
    let explorer_cfg = ExplorerConfig {
        workers: (cfg.jobs / 2).max(1),
        ..base_explorer.clone()
    };
    let explore_side = |agent: AgentRef, unit: usize| -> Result<TestRun, String> {
        match journal {
            Some(j) => run_unit_durable(
                agent,
                test,
                &explorer_cfg,
                &recovery.units[unit],
                &j.unit_sink(unit),
            )
            .map_err(|e| format!("exploring {}/{}: {e}", agent.id(), test.id)),
            None => Ok(run_test(agent, test, &explorer_cfg)),
        }
    };
    let panicked =
        |agent: AgentRef| format!("exploring {}/{}: engine panicked", agent.id(), test.id);
    let (run_a, run_b) = std::thread::scope(|scope| {
        let a = scope.spawn(|| explore_side(cfg.agent_a, 2 * t));
        let b = scope.spawn(|| explore_side(cfg.agent_b, 2 * t + 1));
        (
            a.join().unwrap_or_else(|_| Err(panicked(cfg.agent_a))),
            b.join().unwrap_or_else(|_| Err(panicked(cfg.agent_b))),
        )
    });
    let (run_a, run_b) = (run_a?, run_b?);

    // --- Stage 2: publish each phase-1 artifact straight from its run,
    // then group the explored paths in memory. A term reads back from
    // its wire form as itself (`from_wire(to_wire(t)) == t`, guarded by
    // `tests/two_phase_decoupling.rs`), so these are the groups the
    // phased `check` builds from the published files.
    let soft = Soft::new();
    let publish_and_group = |run: &TestRun| -> Result<GroupedResults, String> {
        let path = format!("{}{}_{}.json", cfg.out_prefix, run.agent, run.test);
        atomic_write(Path::new(&path), encode_run(run).as_bytes(), cfg.fsync)
            .map_err(|e| format!("write {path}: {e}"))?;
        soft.group(run).map_err(|e| format!("{path}: {e}"))
    };
    let grouped_a = publish_and_group(&run_a)?;
    let grouped_b = publish_and_group(&run_b)?;
    if let Some(j) = journal {
        if let Some(e) = j.take_error() {
            return Err(format!("session journal write failed: {e}"));
        }
    }
    let (paths_a, paths_b) = (run_a.paths.len(), run_b.paths.len());
    let truncated = run_a.stats.truncated || run_b.stats.truncated;
    drop((run_a, run_b));

    // --- Stage 3: the canonical crosscheck pass, seeded by
    // journal-recovered verdicts.
    let mut seeds = CheckSeeds::new();
    for v in &recovery.verdicts[t] {
        seeds.insert(v.i, v.j, v.verdict.clone(), v.budget);
    }
    // Cross-run baseline: pre-decide every pair whose two endpoint
    // groups are provably unchanged from the stored run (same output
    // class, structurally identical condition). A verdict is a pure
    // function of (conditions, outputs, budget), so these reuse the
    // stored result verbatim with zero solver queries; only pairs
    // touching an impacted group re-solve. Journal-recovered verdicts
    // (same run, current indices) take precedence and are never
    // overwritten here.
    let mut seeded_pairs = 0usize;
    let mut seeded_recs: Vec<VerdictRec> = Vec::new();
    if let Some(base) = cfg.baseline.as_ref().filter(|_| cfg.tests.len() == 1) {
        let group_base = |text: &str, side: &str| {
            decode_run(text)
                .and_then(|run| soft.group(&run).map_err(|e| e.to_string()))
                .map_err(|e| format!("baseline artifact {side}: {e}"))
        };
        let base_a = group_base(&base.artifact_a, "A")?;
        let base_b = group_base(&base.artifact_b, "B")?;
        if base_a.test == test.id && base_b.test == test.id {
            let map_a = condition_diff(&base_a, &grouped_a).baseline_to_current();
            let map_b = condition_diff(&base_b, &grouped_b).baseline_to_current();
            let journaled: std::collections::HashSet<(usize, usize)> =
                recovery.verdicts[t].iter().map(|v| (v.i, v.j)).collect();
            for v in &base.verdicts {
                let (Some(&ci), Some(&cj)) = (map_a.get(&v.i), map_b.get(&v.j)) else {
                    continue;
                };
                if journaled.contains(&(ci, cj)) {
                    continue;
                }
                seeds.insert(ci, cj, v.verdict.clone(), v.budget);
                seeded_pairs += 1;
                seeded_recs.push(VerdictRec {
                    i: ci,
                    j: cj,
                    verdict: v.verdict.clone(),
                    budget: v.budget,
                });
            }
        }
    }
    let collected: Mutex<Vec<VerdictRec>> = Mutex::new(Vec::new());
    let sink = VerdictLog {
        journal,
        t,
        collected: &collected,
    };
    let result = crosscheck_durable(&grouped_a, &grouped_b, check_cfg, Some(&seeds), Some(&sink));
    if let Some(j) = journal {
        if let Some(e) = j.take_error() {
            return Err(format!("session journal write failed: {e}"));
        }
    }

    // --- Stage 4: distill the inconsistencies into the witness corpus.
    let distill_cfg = DistillConfig {
        jobs: cfg.jobs.max(1),
        seed: cfg.seed,
        fuzz_tries: cfg.fuzz_tries,
    };
    let report = distill(
        test,
        &result,
        &grouped_a,
        &grouped_b,
        cfg.agent_a,
        cfg.agent_b,
        &distill_cfg,
    );
    let corpus_text = report.corpus.to_json_string();
    atomic_write(&corpus_path, corpus_text.as_bytes(), cfg.fsync)
        .map_err(|e| format!("write {}: {e}", corpus_path.display()))?;

    // The full canonical matrix: seeds (journal-recovered + baseline)
    // that short-circuited solving, overlaid by everything the sink saw
    // freshly delivered — a re-solved pair (e.g. an Unknown seed retried
    // under a bigger budget) supersedes its seed. Sorted by pair so the
    // stored matrix is deterministic.
    let mut matrix: HashMap<(usize, usize), VerdictRec> = HashMap::new();
    for v in recovery.verdicts[t].iter().chain(&seeded_recs) {
        matrix.insert((v.i, v.j), v.clone());
    }
    let mut fresh = recover(&collected);
    let check_queries = fresh.len();
    for v in fresh.drain(..) {
        matrix.insert((v.i, v.j), v);
    }
    drop(fresh);
    let mut verdicts: Vec<VerdictRec> = matrix.into_values().collect();
    verdicts.sort_by_key(|v| (v.i, v.j));

    let outcome = TestOutcome {
        test: test.id.to_string(),
        paths_a,
        paths_b,
        truncated,
        inconsistencies: result.inconsistencies.len(),
        unverified: result.unverified.len(),
        confirmed: report.stats.confirmed,
        clusters: report.stats.clusters,
        fuzz_added: report.stats.fuzz_added,
        corpus_path: corpus_path.clone(),
        replayed: false,
        pairs_total: grouped_a.groups.len() * grouped_b.groups.len(),
        seeded_pairs,
        check_queries,
        verdicts,
    };
    // Journaled last, after the corpus artifact is durably published: a
    // corpus record is the test's commit point.
    if let Some(j) = journal {
        let summary = Json::Object(vec![
            ("paths_a".to_string(), Json::UInt(outcome.paths_a as u64)),
            ("paths_b".to_string(), Json::UInt(outcome.paths_b as u64)),
            ("truncated".to_string(), Json::Bool(outcome.truncated)),
            (
                "inconsistencies".to_string(),
                Json::UInt(outcome.inconsistencies as u64),
            ),
            (
                "unverified".to_string(),
                Json::UInt(outcome.unverified as u64),
            ),
            (
                "confirmed".to_string(),
                Json::UInt(outcome.confirmed as u64),
            ),
            ("clusters".to_string(), Json::UInt(outcome.clusters as u64)),
            (
                "fuzz_added".to_string(),
                Json::UInt(outcome.fuzz_added as u64),
            ),
        ]);
        j.record_corpus(t, &summary, &corpus_text);
        if let Some(e) = j.take_error() {
            return Err(format!("session journal write failed: {e}"));
        }
    }
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_settings_text_is_frozen() {
        // Journal fingerprints hash this text; a change would make
        // `--resume` refuse every journal written before it.
        assert_eq!(
            check_settings(&CrosscheckConfig::default()),
            "budget=SolverBudget { max_conflicts: None, max_propagations: None, \
             time_limit: None };rungs=0;factor=4;cap=None"
        );
        let budgeted = CrosscheckConfig {
            solver_budget: SolverBudget::conflicts(50),
            retry_rungs: 2,
            ..CrosscheckConfig::default()
        };
        assert_eq!(
            check_settings(&budgeted),
            "budget=SolverBudget { max_conflicts: Some(50), max_propagations: None, \
             time_limit: None };rungs=2;factor=4;cap=None"
        );
    }
}
