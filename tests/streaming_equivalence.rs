//! Streaming-vs-phased equivalence (the PR 5 determinism invariant).
//!
//! `soft run` must publish byte-identical artifacts to the phased
//! `phase1 + check + distill` sequence — modulo the recorded wall-clock
//! — for every seed, at any `--jobs`. The session explores both agents
//! concurrently and drafts witnesses while the crosscheck is still
//! solving, so this is the test that proves none of that scheduling
//! freedom leaks into the published bytes.

use soft::core::{crosscheck, CrosscheckConfig};
use soft::harness::{run_test, suite, TestCase, TestRunFile};
use soft::smt::{SatResult, SolverBudget};
use soft::sym::ExplorerConfig;
use soft::witness::{distill, DistillConfig};
use soft::{run_session, AgentKind, SessionConfig, TestOutcome};
use std::fs;
use std::path::PathBuf;

const FUZZ_TRIES: usize = 4;
const RETRY_RUNGS: u32 = 2;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("soft_stream_eq_{tag}_{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// Zero out the `"wall_ms": <n>` field — the only artifact byte range
/// that may legitimately differ between two runs of the same work.
fn normalize_wall(text: &str) -> String {
    let Some(at) = text.find("\"wall_ms\":") else {
        return text.to_string();
    };
    let tail = &text[at + "\"wall_ms\":".len()..];
    let value_len = tail
        .char_indices()
        .take_while(|(_, c)| c.is_ascii_digit() || *c == '.' || *c == ' ')
        .count();
    format!("{}\"wall_ms\": 0{}", &text[..at], &tail[value_len..])
}

/// The phased pipeline, library-level but CLI-faithful: explore both
/// agents, serialize + re-parse the wire artifacts (exactly what
/// `check` consumes), group, crosscheck, distill. Returns the two
/// artifact texts and the corpus text.
fn phased(seed: u64, jobs: usize) -> (String, String, String) {
    let test = suite::queue_config();
    let explorer = ExplorerConfig {
        solver_budget: SolverBudget::unlimited(),
        workers: jobs,
        seed,
        ..ExplorerConfig::default()
    };
    let run_a = run_test(AgentKind::Reference, &test, &explorer);
    let run_b = run_test(AgentKind::OpenVSwitch, &test, &explorer);
    let text_a = TestRunFile::from_run(&run_a).to_json();
    let text_b = TestRunFile::from_run(&run_b).to_json();
    let soft = soft::Soft::new();
    let ga = soft
        .group_artifact(&TestRunFile::from_json(&text_a).expect("parse A"))
        .expect("group A");
    let gb = soft
        .group_artifact(&TestRunFile::from_json(&text_b).expect("parse B"))
        .expect("group B");
    let check = CrosscheckConfig {
        solver_budget: SolverBudget::unlimited(),
        jobs: jobs.max(1),
        retry_rungs: RETRY_RUNGS,
        ..CrosscheckConfig::default()
    };
    let result = crosscheck(&ga, &gb, &check);
    let report = distill(
        &test,
        &result,
        &ga,
        &gb,
        AgentKind::Reference,
        AgentKind::OpenVSwitch,
        &DistillConfig {
            jobs: jobs.max(1),
            seed,
            fuzz_tries: FUZZ_TRIES,
        },
    );
    (text_a, text_b, report.corpus.to_json_string())
}

/// One `soft run` session over `queue_config`; returns the published
/// artifact bytes read back from disk.
fn streaming(tag: &str, seed: u64, jobs: usize, incremental: bool) -> (String, String, String) {
    let (a, b, corpus, _) = session(tag, suite::queue_config(), seed, jobs, incremental);
    (a, b, corpus)
}

/// One `soft run` session over `test`; returns the published artifact
/// bytes read back from disk and the session's outcome for the test.
fn session(
    tag: &str,
    test: TestCase,
    seed: u64,
    jobs: usize,
    incremental: bool,
) -> (String, String, String, TestOutcome) {
    let id = test.id;
    let dir = temp_dir(tag);
    let prefix = format!("{}/", dir.display());
    let cfg = SessionConfig {
        agent_a: AgentKind::Reference.into(),
        agent_b: AgentKind::OpenVSwitch.into(),
        tests: vec![test],
        jobs,
        seed,
        solver_budget: SolverBudget::unlimited(),
        retry_rungs: RETRY_RUNGS,
        fuzz_tries: FUZZ_TRIES,
        out_prefix: prefix.clone(),
        journal: None,
        resume: false,
        fsync: false,
        incremental,
        baseline: None,
    };
    let mut report = run_session(&cfg).expect("session");
    assert_eq!(report.outcomes.len(), 1);
    let text_a =
        fs::read_to_string(format!("{prefix}reference_{id}.json")).expect("read artifact A");
    let text_b = fs::read_to_string(format!("{prefix}ovs_{id}.json")).expect("read artifact B");
    let corpus = fs::read_to_string(format!("{prefix}corpus_{id}.json")).expect("read corpus");
    let _ = fs::remove_dir_all(&dir);
    (text_a, text_b, corpus, report.outcomes.remove(0))
}

/// The canonical verdict matrix in comparable form, one
/// `(i, j, verdict, budget)` per pair, with each Sat model's assignments
/// in sorted variable order (the model map has no stable order of its
/// own).
fn verdict_matrix(outcome: &TestOutcome) -> Vec<(usize, usize, String, SolverBudget)> {
    outcome
        .verdicts
        .iter()
        .map(|v| {
            let verdict = match &v.verdict {
                SatResult::Sat(model) => {
                    let mut vars: Vec<(&str, u64)> = model.iter().collect();
                    vars.sort_unstable();
                    format!("Sat{vars:?}")
                }
                other => format!("{other:?}"),
            };
            (v.i, v.j, verdict, v.budget)
        })
        .collect()
}

/// The property itself: for each seed in the matrix, the streaming
/// session at `--jobs 1` and `--jobs 8` publishes byte-identical
/// artifacts to the phased sequence (wall-clock zeroed), and the witness
/// corpus matches byte-for-byte with no normalization at all.
#[test]
fn streaming_matches_phased_for_every_seed_and_jobs() {
    for (s, &seed) in [0x50F7u64, 7].iter().enumerate() {
        let (ref_a, ref_b, ref_corpus) = phased(seed, 2);
        let (norm_a, norm_b) = (normalize_wall(&ref_a), normalize_wall(&ref_b));
        for jobs in [1usize, 8] {
            let tag = format!("s{s}_j{jobs}");
            let (got_a, got_b, got_corpus) = streaming(&tag, seed, jobs, true);
            assert_eq!(
                normalize_wall(&got_a),
                norm_a,
                "artifact A diverged (seed {seed:#x}, jobs {jobs})"
            );
            assert_eq!(
                normalize_wall(&got_b),
                norm_b,
                "artifact B diverged (seed {seed:#x}, jobs {jobs})"
            );
            assert_eq!(
                got_corpus, ref_corpus,
                "corpus diverged (seed {seed:#x}, jobs {jobs})"
            );
        }
    }
}

/// The incremental-solver equivalence gate: the per-test CNF memos
/// (CNF caching, cone probes before the fresh solve) are a
/// pure speed lever — with them on or off the session publishes
/// byte-identical artifacts and corpora at any `--jobs`, and decides
/// every group pair identically: same verdict, same Sat model, same
/// budget stamp, and as many freshly solved pairs. Probes publish only
/// Unsat verdicts, which are value-deterministic, so nothing
/// history-dependent can leak into the results. `set_config` carries the
/// heaviest probe and search traffic; `packet_out` has 92 Sat pairs.
#[test]
fn incremental_on_and_off_publish_identical_bytes() {
    let seed = 0x50F7u64;
    for test in [
        suite::queue_config(),
        suite::set_config(),
        suite::packet_out(),
    ] {
        let id = test.id;
        for jobs in [1usize, 8] {
            let (off_a, off_b, off_corpus, off) = session(
                &format!("inc_off_{id}_j{jobs}"),
                test.clone(),
                seed,
                jobs,
                false,
            );
            let (on_a, on_b, on_corpus, on) = session(
                &format!("inc_on_{id}_j{jobs}"),
                test.clone(),
                seed,
                jobs,
                true,
            );
            assert_eq!(
                normalize_wall(&on_a),
                normalize_wall(&off_a),
                "artifact A diverged with incremental solving ({id}, jobs {jobs})"
            );
            assert_eq!(
                normalize_wall(&on_b),
                normalize_wall(&off_b),
                "artifact B diverged with incremental solving ({id}, jobs {jobs})"
            );
            assert_eq!(
                on_corpus, off_corpus,
                "corpus diverged with incremental solving ({id}, jobs {jobs})"
            );
            let (on_v, off_v) = (verdict_matrix(&on), verdict_matrix(&off));
            assert!(!off_v.is_empty(), "{id}: empty verdict matrix");
            assert_eq!(
                on_v.len(),
                off_v.len(),
                "verdict matrix size diverged with incremental solving ({id}, jobs {jobs})"
            );
            if let Some((x, y)) = on_v.iter().zip(&off_v).find(|(x, y)| x != y) {
                panic!(
                    "pair verdict diverged with incremental solving ({id}, jobs {jobs}): \
                     on {x:?}, off {y:?}"
                );
            }
            assert_eq!(
                on.check_queries, off.check_queries,
                "fresh-solve count diverged with incremental solving ({id}, jobs {jobs})"
            );
        }
    }
}

/// The long-lived-process invariant behind `soft serve`: two sequential
/// jobs inside ONE process must publish artifacts byte-identical to the
/// same jobs run in separate processes. The pipeline shares process-wide
/// state across runs — the term interner, verdict caches, the
/// atomic-write temp-name counter — and none of it may leak into the
/// published bytes, or a daemon's answers would drift from the CLI's.
/// (Separate-process bytes are pinned by
/// `streaming_matches_phased_for_every_seed_and_jobs`, which compares
/// against a phased reference; here the first in-process run doubles as
/// that fresh-process reference for the second and third.)
#[test]
fn back_to_back_in_process_runs_publish_identical_bytes() {
    let seed = 0x50F7u64;
    let (first_a, first_b, first_corpus) = streaming("b2b_1", seed, 2, true);
    // Same job again in the same process: warmed interner and caches.
    let (second_a, second_b, second_corpus) = streaming("b2b_2", seed, 2, true);
    assert_eq!(
        normalize_wall(&second_a),
        normalize_wall(&first_a),
        "artifact A drifted on an in-process re-run"
    );
    assert_eq!(
        normalize_wall(&second_b),
        normalize_wall(&first_b),
        "artifact B drifted on an in-process re-run"
    );
    assert_eq!(
        second_corpus, first_corpus,
        "corpus drifted on an in-process re-run"
    );
    // An unrelated job in between must not perturb the one after it.
    let _ = streaming("b2b_other", 7, 1, true);
    let (third_a, third_b, third_corpus) = streaming("b2b_3", seed, 2, true);
    assert_eq!(normalize_wall(&third_a), normalize_wall(&first_a));
    assert_eq!(normalize_wall(&third_b), normalize_wall(&first_b));
    assert_eq!(third_corpus, first_corpus);
}

/// The session honors a solver budget end to end: a starved budget may
/// leave pairs unverified, but the session must still complete cleanly
/// and stay deterministic across job counts.
#[test]
fn starved_session_is_clean_and_deterministic() {
    let budget = SolverBudget::conflicts(1);
    let mk = |tag: &str, jobs: usize| {
        let dir = temp_dir(tag);
        let prefix = format!("{}/", dir.display());
        let cfg = SessionConfig {
            agent_a: AgentKind::Reference.into(),
            agent_b: AgentKind::OpenVSwitch.into(),
            tests: vec![suite::queue_config()],
            jobs,
            seed: 1,
            solver_budget: budget,
            retry_rungs: 0,
            fuzz_tries: 0,
            out_prefix: prefix.clone(),
            journal: None,
            resume: false,
            fsync: false,
            incremental: true,
            baseline: None,
        };
        let report = run_session(&cfg).expect("session");
        let corpus =
            fs::read_to_string(format!("{prefix}corpus_queue_config.json")).expect("corpus");
        let _ = fs::remove_dir_all(&dir);
        (report, corpus)
    };
    let (r1, c1) = mk("starved_j1", 1);
    let (r8, c8) = mk("starved_j8", 8);
    assert_eq!(
        r1.outcomes[0].inconsistencies, r8.outcomes[0].inconsistencies,
        "starved verdict counts diverged across jobs"
    );
    assert_eq!(
        r1.outcomes[0].unverified, r8.outcomes[0].unverified,
        "starved unverified counts diverged across jobs"
    );
    assert_eq!(c1, c8, "starved corpus diverged across jobs");
}
