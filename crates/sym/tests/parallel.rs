//! Parallel-exploration determinism: for every strategy and worker count,
//! an exhaustive `explore` run must produce an identical exploration —
//! same canonically-ordered paths (conditions, traces, outcomes, decision
//! prefixes, concretized values), same coverage, same aggregate counters.
//! Worker threads share a verdict cache and race on the frontier, so this
//! holds only because solver models are pure functions of the (canonically
//! sorted) assertion set.

use soft_smt::Term;
use soft_sym::{explore, ExecCtx, Exploration, ExplorerConfig, RunEnd, Stop, Strategy};

/// A toy switch agent: mixed nesting, a crash branch, and concretized
/// outputs (the part that would diverge first if models were not
/// deterministic across workers).
fn switch_program(ctx: &mut ExecCtx<'_, String>) -> RunEnd {
    let ty = Term::var("pp.type", 8);
    let port = Term::var("pp.port", 16);
    ctx.cover("entry");
    if ctx.branch("is_hello", &ty.clone().eq(Term::bv_const(8, 0)))? {
        ctx.cover("hello");
        ctx.emit("HELLO".into());
    } else if ctx.branch("is_packet_out", &ty.clone().eq(Term::bv_const(8, 13)))? {
        ctx.cover("packet_out");
        if ctx.branch("ctrl_port", &port.clone().eq(Term::bv_const(16, 0xfffd)))? {
            ctx.cover("ctrl");
            ctx.emit("CTRL".into());
        } else if ctx.branch("small_port", &port.clone().ult(Term::bv_const(16, 25)))? {
            ctx.cover("fwd");
            let v = ctx.concretize(&port)?;
            ctx.emit(format!("FWD:{v}"));
        } else {
            ctx.cover("err");
            ctx.emit("ERR".into());
        }
    } else if ctx.branch("bad_version", &ty.clone().eq(Term::bv_const(8, 0xee)))? {
        return Err(Stop::crash("parser crash on type 0xee"));
    } else {
        ctx.cover("ignored");
        ctx.emit("IGNORED".into());
    }
    Ok(())
}

/// A wider tree: 16 leaves, every one ending in a concretization.
fn wide_program(ctx: &mut ExecCtx<'_, u64>) -> RunEnd {
    let x = Term::var("pw.x", 8);
    ctx.cover("entry");
    for i in 0..4u32 {
        ctx.branch("bit", &x.clone().extract(i, i).eq(Term::bv_const(1, 1)))?;
    }
    let v = ctx.concretize(&x)?;
    ctx.emit(v);
    Ok(())
}

/// Render everything observable about an exploration, with wall-clock and
/// solver statistics excluded (cache-hit counts legitimately depend on
/// worker interleaving; results may not).
fn snapshot<Out: std::fmt::Debug>(ex: &Exploration<Out>) -> String {
    let mut s = String::new();
    for p in &ex.paths {
        s.push_str(&format!("decisions={:?} cond=[", p.decisions));
        for c in &p.condition {
            s.push_str(&format!("{c};"));
        }
        s.push_str(&format!(
            "] trace={:?} outcome={:?} over_approx={}\n",
            p.trace, p.outcome, p.over_approx
        ));
    }
    let mut blocks: Vec<_> = ex.coverage.blocks.iter().collect();
    blocks.sort_unstable();
    let mut branches: Vec<_> = ex.coverage.branches.iter().collect();
    branches.sort_unstable();
    s.push_str(&format!("blocks={blocks:?} branches={branches:?}\n"));
    s.push_str(&format!(
        "paths={} completed={} crashed={} aborted={} instructions={} fresh={} truncated={}\n",
        ex.stats.paths,
        ex.stats.completed,
        ex.stats.crashed,
        ex.stats.aborted,
        ex.stats.instructions,
        ex.stats.fresh_branches,
        ex.stats.truncated
    ));
    s
}

const ALL_STRATEGIES: [Strategy; 4] = [
    Strategy::Dfs,
    Strategy::Bfs,
    Strategy::Random,
    Strategy::CoverageInterleaved,
];

#[test]
fn workers_do_not_change_results_switch_program() {
    for strategy in ALL_STRATEGIES {
        let base = ExplorerConfig {
            strategy,
            ..Default::default()
        };
        let reference = snapshot(&explore(&base, switch_program));
        for workers in [2, 4] {
            let cfg = ExplorerConfig {
                workers,
                ..base.clone()
            };
            let got = snapshot(&explore(&cfg, switch_program));
            assert_eq!(
                reference, got,
                "strategy {strategy:?} diverged with {workers} workers"
            );
        }
    }
}

#[test]
fn workers_do_not_change_results_wide_program() {
    for strategy in ALL_STRATEGIES {
        let base = ExplorerConfig {
            strategy,
            ..Default::default()
        };
        let reference = explore(&base, wide_program);
        assert_eq!(reference.stats.paths, 16);
        let reference = snapshot(&reference);
        for workers in [2, 4] {
            let cfg = ExplorerConfig {
                workers,
                ..base.clone()
            };
            let got = snapshot(&explore(&cfg, wide_program));
            assert_eq!(
                reference, got,
                "strategy {strategy:?} diverged with {workers} workers"
            );
        }
    }
}

#[test]
fn parallel_max_paths_still_truncates() {
    let cfg = ExplorerConfig {
        max_paths: Some(3),
        workers: 4,
        ..Default::default()
    };
    let ex = explore(&cfg, wide_program);
    assert!(ex.stats.truncated);
    assert!(ex.stats.paths >= 3, "got {} paths", ex.stats.paths);
}

/// Burns well past the exploration budget before its first branch, so the
/// deadline can only fire *inside* the path.
fn sleepy_program(ctx: &mut ExecCtx<'_, u32>) -> RunEnd {
    std::thread::sleep(std::time::Duration::from_millis(50));
    let x = Term::var("sl.x", 8);
    if ctx.branch("b", &x.clone().eq(Term::bv_const(8, 1)))? {
        ctx.emit(1);
    } else {
        ctx.emit(0);
    }
    Ok(())
}

#[test]
fn parallel_time_limit_fires_mid_path() {
    let cfg = ExplorerConfig {
        time_limit: Some(std::time::Duration::from_millis(5)),
        workers: 2,
        ..Default::default()
    };
    let ex = explore(&cfg, sleepy_program);
    assert!(ex.stats.truncated);
    assert_eq!(ex.stats.completed, 0);
    assert!(
        ex.stats.aborted >= 1,
        "deadline should abort the path mid-run"
    );
}

#[test]
fn sequential_time_limit_fires_mid_path() {
    let cfg = ExplorerConfig {
        time_limit: Some(std::time::Duration::from_millis(5)),
        ..Default::default()
    };
    let ex = explore(&cfg, sleepy_program);
    // The first path starts inside the budget, sleeps past it, and is cut
    // off at its first branch; truncation is reported even though the
    // frontier never grew.
    assert!(ex.stats.truncated);
    assert_eq!(ex.stats.completed, 0);
    assert!(
        ex.stats.aborted >= 1,
        "deadline should abort the path mid-run"
    );
}
