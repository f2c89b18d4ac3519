//! Resume semantics of the seeded explorer: journaled decision prefixes
//! are perfect checkpoints. Re-running with `replay` = the recorded
//! decision sequences and `frontier` = the not-yet-explored prefixes must
//! reproduce the uninterrupted exploration exactly — same canonical path
//! set, same coverage, same outcome counters — at any worker count, with
//! zero fresh branches for the replayed part.

use soft_smt::Term;
use soft_sym::{
    explore, explore_seeded, ExecCtx, Exploration, ExplorerConfig, PathOutcome, PathResult,
    PathSink, ResumeSeed, RunEnd, SeedPending, Stop,
};
use std::collections::BTreeMap;
use std::sync::Mutex;

/// A toy agent with a crash branch and nested forks (7 paths).
fn agent(ctx: &mut ExecCtx<'_, String>) -> RunEnd {
    let ty = Term::var("rs.type", 8);
    let port = Term::var("rs.port", 16);
    ctx.cover("entry");
    if ctx.branch("is_hello", &ty.clone().eq(Term::bv_const(8, 0)))? {
        ctx.cover("hello");
        ctx.emit("HELLO".into());
    } else if ctx.branch("is_pkt", &ty.clone().eq(Term::bv_const(8, 13)))? {
        ctx.cover("pkt");
        if ctx.branch("ctrl", &port.clone().eq(Term::bv_const(16, 0xfffd)))? {
            return Err(Stop::crash("ctrl port crash"));
        } else if ctx.branch("small", &port.clone().ult(Term::bv_const(16, 25)))? {
            ctx.cover("fwd");
            ctx.emit("FWD".into());
        } else {
            ctx.cover("drop");
            ctx.emit("DROP".into());
        }
    } else if ctx.branch("is_stats", &ty.clone().eq(Term::bv_const(8, 16)))? {
        ctx.cover("stats");
        ctx.emit("STATS".into());
    } else {
        ctx.cover("err");
        ctx.emit("ERR".into());
    }
    Ok(())
}

/// What a write-ahead journal would persist per path.
#[derive(Clone)]
struct Record {
    origin: Vec<bool>,
    decisions: Vec<bool>,
    pending: Vec<(Vec<bool>, String)>,
}

#[derive(Default)]
struct Collect(Mutex<Vec<Record>>);

impl PathSink<String> for Collect {
    fn on_path(&self, origin: &[bool], result: &PathResult<String>, pending: &[(Vec<bool>, &str)]) {
        self.0
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(Record {
                origin: origin.to_vec(),
                decisions: result.decisions.clone(),
                pending: pending
                    .iter()
                    .map(|(p, s)| (p.clone(), s.to_string()))
                    .collect(),
            });
    }
}

/// Rebuild a [`ResumeSeed`] from a journal prefix, the way recovery does:
/// replay every recorded decision sequence, and re-schedule the frontier
/// `({root} ∪ scheduled pendings) − consumed origins`.
fn seed_from(records: &[Record]) -> ResumeSeed {
    let mut candidates: BTreeMap<Vec<bool>, String> = BTreeMap::new();
    candidates.insert(Vec::new(), "<root>".to_string());
    for r in records {
        for (p, s) in &r.pending {
            candidates.insert(p.clone(), s.clone());
        }
    }
    for r in records {
        candidates.remove(&r.origin);
    }
    ResumeSeed {
        replay: records.iter().map(|r| r.decisions.clone()).collect(),
        frontier: candidates
            .into_iter()
            .map(|(prefix, site)| SeedPending { prefix, site })
            .collect(),
    }
}

fn fingerprint(ex: &Exploration<String>) -> Vec<(Vec<bool>, Vec<String>, bool)> {
    ex.paths
        .iter()
        .map(|p| {
            (
                p.decisions.clone(),
                p.trace.clone(),
                matches!(p.outcome, PathOutcome::Crashed(_)),
            )
        })
        .collect()
}

fn explore_with_sink(cfg: &ExplorerConfig) -> (Exploration<String>, Vec<Record>) {
    let sink = Collect::default();
    let ex = explore_seeded(cfg, agent, None, Some(&sink));
    let records = sink.0.into_inner().unwrap_or_else(|e| e.into_inner());
    (ex, records)
}

#[test]
fn full_replay_reexplores_nothing() {
    let cfg = ExplorerConfig::default();
    let (reference, records) = explore_with_sink(&cfg);
    assert_eq!(reference.stats.paths, records.len(), "every path journaled");

    let seed = seed_from(&records);
    assert!(seed.frontier.is_empty(), "a complete journal owes no paths");
    let resumed = explore_seeded(&cfg, agent, Some(&seed), None);
    assert_eq!(fingerprint(&reference), fingerprint(&resumed));
    assert_eq!(
        resumed.stats.fresh_branches, 0,
        "pure replay must not fork or consult the solver for branches"
    );
    assert_eq!(reference.coverage, resumed.coverage);
    assert_eq!(reference.stats.completed, resumed.stats.completed);
    assert_eq!(reference.stats.crashed, resumed.stats.crashed);
    assert!(!resumed.stats.truncated);
}

#[test]
fn partial_journal_resumes_to_identical_exploration() {
    let cfg = ExplorerConfig::default();
    let (reference, records) = explore_with_sink(&cfg);
    // Cut the journal at every possible interruption point.
    for cut in 0..=records.len() {
        let seed = seed_from(&records[..cut]);
        let resumed = explore_seeded(&cfg, agent, Some(&seed), None);
        assert_eq!(
            fingerprint(&reference),
            fingerprint(&resumed),
            "resume from a {cut}-record journal diverged"
        );
        assert_eq!(reference.coverage, resumed.coverage, "cut={cut}");
        assert_eq!(reference.stats.instructions, resumed.stats.instructions);
    }
}

#[test]
fn resumed_exploration_is_worker_count_independent() {
    let cfg = ExplorerConfig::default();
    let (reference, records) = explore_with_sink(&cfg);
    let seed = seed_from(&records[..records.len() / 2]);
    for workers in [2, 4] {
        let cfg_n = ExplorerConfig {
            workers,
            ..ExplorerConfig::default()
        };
        let resumed = explore_seeded(&cfg_n, agent, Some(&seed), None);
        assert_eq!(
            fingerprint(&reference),
            fingerprint(&resumed),
            "workers={workers}"
        );
        assert_eq!(reference.coverage, resumed.coverage, "workers={workers}");
    }
}

#[test]
fn sink_fires_once_per_new_path_on_resume() {
    let cfg = ExplorerConfig::default();
    let (reference, records) = explore_with_sink(&cfg);
    let cut = records.len() / 2;
    let seed = seed_from(&records[..cut]);
    let resume_sink = Collect::default();
    let resumed = explore_seeded(&cfg, agent, Some(&seed), Some(&resume_sink));
    let new_records = resume_sink
        .0
        .into_inner()
        .unwrap_or_else(|e| e.into_inner());
    assert_eq!(
        new_records.len(),
        reference.stats.paths - cut,
        "resume journals exactly the paths the interrupted run owed"
    );
    // The union of old and new records is a complete journal.
    let mut all = records[..cut].to_vec();
    all.extend(new_records);
    let full = seed_from(&all);
    assert!(full.frontier.is_empty());
    assert_eq!(full.replay.len(), resumed.stats.paths);
}

#[test]
fn unseeded_explore_matches_seeded_with_empty_seed() {
    let cfg = ExplorerConfig::default();
    let plain = explore(&cfg, agent);
    let seeded = explore_seeded(&cfg, agent, Some(&ResumeSeed::default()), None);
    assert_eq!(fingerprint(&plain), fingerprint(&seeded));
}
