//! Graceful-degradation guarantees, end to end: an injected agent panic is
//! contained as a crash output (the run completes and stays deterministic
//! at any worker count), and a budget-exhausted solver query degrades to
//! an explicit unverified pair — never a fabricated verdict.

use soft::core::report::{classify, DivergenceKind};
use soft::core::{group_paths, CrosscheckConfig, Soft};
use soft::harness::{encode_run, run_test, suite, ObservedOutput, PathRecord, TestRun};
use soft::protocol::TraceEvent;
use soft::smt::{SatResult, Solver, SolverBudget, Term, VerdictCache};
use soft::sym::ExplorerConfig;
use soft::AgentKind;
use std::sync::Arc;
use std::time::Duration;

/// Artifact with the timing field zeroed so equality sees only content.
fn canonical(mut run: TestRun) -> String {
    run.wall = Duration::ZERO;
    encode_run(&run)
}

#[test]
fn injected_panic_contained_as_crash_output() {
    // The panicky agent unwinds on exactly one branch of one symbolic path
    // (the unbuffered Packet Out). The exploration must catch the unwind,
    // record the path as crashed, and still run to exhaustion.
    let test = suite::packet_out();
    let run = run_test(AgentKind::Panicky, &test, &ExplorerConfig::default());
    assert!(
        !run.stats.truncated,
        "a contained agent panic must not truncate the exploration"
    );
    assert_eq!(run.stats.engine_panics, 0, "the engine itself never panics");
    assert!(
        run.stats.caught_panics >= 1,
        "the injected panic must be caught and counted"
    );
    assert!(
        run.crash_count() >= 1,
        "the panicking path must be recorded as a crash output"
    );
    assert!(
        run.stats.caught_panics <= run.stats.crashed,
        "caught panics are a subset of crashed paths"
    );
    // Paths not reaching the injected fault are unaffected.
    assert!(run.paths.iter().any(|p| !p.output.crashed));
}

#[test]
fn crashed_path_is_grouped_and_crosschecked() {
    // Externally a panic looks like the TCP connection dying, so the crash
    // must flow through grouping and surface in the crosscheck against the
    // unmodified reference as a crash-vs-survive inconsistency.
    let test = suite::packet_out();
    let report = Soft::new()
        .run_pair(AgentKind::Reference, AgentKind::Panicky, &test)
        .expect("pipeline");
    assert!(
        report.grouped_b.groups.iter().any(|g| g.output.crashed),
        "the crash output must form its own group"
    );
    assert!(report.result.fully_verified());
    let crash_incs: Vec<_> = report
        .result
        .inconsistencies
        .iter()
        .filter(|inc| inc.output_a.crashed != inc.output_b.crashed)
        .collect();
    assert!(
        !crash_incs.is_empty(),
        "crash-vs-survive divergence must be discovered"
    );
    for inc in crash_incs {
        assert_eq!(classify(inc), DivergenceKind::CrashVsSurvive);
        // The witness pins real input bytes: it satisfies both conditions.
        assert!(!inc.witness.is_empty());
    }
}

#[test]
fn artifacts_deterministic_across_jobs_with_crashes() {
    // The shipped artifact must be byte-identical whether the exploration
    // that caught the panic ran on one worker or many.
    let test = suite::packet_out();
    let seq = Soft::new().phase1(AgentKind::Panicky, &test);
    assert!(seq.paths.iter().any(|p| p.output.crashed));
    let seq_json = canonical(seq);
    for jobs in [2, 4] {
        let par = canonical(
            Soft::new()
                .with_jobs(jobs)
                .phase1(AgentKind::Panicky, &test),
        );
        assert_eq!(
            seq_json, par,
            "artifact differs between jobs=1 and jobs={jobs}"
        );
    }
}

/// A sum-of-squares equation the CDCL search cannot settle within a
/// one-conflict budget (the smt crate's hard-query shape).
fn hard_query(prefix: &str) -> Term {
    let mut sum = Term::bv_const(8, 0);
    for i in 0..12 {
        let x = Term::var(format!("{prefix}.h{i}"), 8);
        sum = sum.bvadd(x.clone().bvmul(x));
    }
    sum.eq(Term::bv_const(8, 0x5a))
}

fn out(tag: u16) -> ObservedOutput {
    ObservedOutput {
        events: vec![TraceEvent::Error {
            xid: Term::bv_const(32, 0),
            etype: Term::bv_const(16, 1),
            code: Term::bv_const(16, tag as u64),
        }],
        crashed: false,
    }
}

fn path(cond: Term, o: ObservedOutput) -> PathRecord {
    PathRecord {
        constraint_size: soft::smt::metrics::op_count(&cond),
        condition: cond,
        output: o,
    }
}

#[test]
fn budget_exhaustion_degrades_to_unverified_and_retries() {
    // Phase 2 under a starvation budget: the undecided pair is surfaced as
    // unverified — never dropped, never misreported as a verdict.
    let a = group_paths("a", "t", &[path(hard_query("dg"), out(1))]).expect("grouping");
    let b = group_paths(
        "b",
        "t",
        &[path(
            Term::var("dg.h0", 8).ult(Term::bv_const(8, 200)),
            out(2),
        )],
    )
    .expect("grouping");
    let mut starved = Soft::new();
    starved.checker.solver_budget = SolverBudget::conflicts(1);
    let capped = starved.phase2(&a, &b);
    assert_eq!(capped.unknown, 1);
    assert_eq!(capped.unverified.len(), 1, "listed, not silently dropped");
    assert!(capped.inconsistencies.is_empty(), "no fabricated verdict");
    assert_eq!(capped.unverified[0].budget, SolverBudget::conflicts(1));
    // The default (unlimited) budget decides the very same pair.
    let full = Soft::new().phase2(&a, &b);
    assert!(full.fully_verified());
    assert_eq!(full.inconsistencies.len(), 1);
}

#[test]
fn unknown_verdicts_cached_per_budget_and_shared() {
    // The cross-worker verdict cache records the exhausted budget with the
    // Unknown: an equal-or-smaller budget reuses it, a larger budget (here
    // unlimited) re-solves and replaces it with the decided verdict.
    let q = hard_query("dgc");
    let cache = Arc::new(VerdictCache::new());
    let mut small = Solver::with_cache(Arc::clone(&cache));
    small.budget = SolverBudget::conflicts(1);
    assert_eq!(small.check(std::slice::from_ref(&q)), SatResult::Unknown);
    assert_eq!(cache.unknown_len(), 1, "the Unknown is cached");
    assert_eq!(small.check(std::slice::from_ref(&q)), SatResult::Unknown);
    assert_eq!(small.stats.queries, 2);
    let mut big = Solver::with_cache(Arc::clone(&cache));
    let decided = big.check(&[q]);
    assert!(
        decided.is_sat() || decided.is_unsat(),
        "an unlimited retry must decide the query"
    );
    assert_eq!(
        cache.unknown_len(),
        0,
        "the decided verdict replaces the cached Unknown"
    );
}

#[test]
fn parallel_crosscheck_with_unknowns_is_deterministic() {
    // One starved pair plus ordinary decidable pairs: the unverified list
    // and the inconsistency set must be identical for every job count.
    let p = Term::var("dgp.p", 8);
    let a = group_paths(
        "a",
        "t",
        &[
            path(
                p.clone().ult(Term::bv_const(8, 50)).and(hard_query("dgp")),
                out(1),
            ),
            path(p.clone().uge(Term::bv_const(8, 50)), out(2)),
        ],
    )
    .expect("grouping");
    let b = group_paths(
        "b",
        "t",
        &[
            path(p.clone().ult(Term::bv_const(8, 100)), out(3)),
            path(p.clone().uge(Term::bv_const(8, 100)), out(4)),
        ],
    )
    .expect("grouping");
    let cfg = |jobs| CrosscheckConfig {
        solver_budget: SolverBudget::conflicts(1),
        jobs,
        ..Default::default()
    };
    let seq = soft::core::crosscheck(&a, &b, &cfg(1));
    for jobs in [2, 4] {
        let par = soft::core::crosscheck(&a, &b, &cfg(jobs));
        assert_eq!(par.queries, seq.queries, "jobs={jobs}");
        assert_eq!(par.unknown, seq.unknown, "jobs={jobs}");
        assert_eq!(par.unverified.len(), seq.unverified.len(), "jobs={jobs}");
        for (x, y) in seq.unverified.iter().zip(&par.unverified) {
            assert_eq!(x.output_a, y.output_a, "jobs={jobs}");
            assert_eq!(x.output_b, y.output_b, "jobs={jobs}");
        }
        assert_eq!(
            par.inconsistencies.len(),
            seq.inconsistencies.len(),
            "jobs={jobs}"
        );
        for (x, y) in seq.inconsistencies.iter().zip(&par.inconsistencies) {
            assert_eq!(x.witness, y.witness, "jobs={jobs}");
        }
    }
}
