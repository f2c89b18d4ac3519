//! # soft-bench — benchmark harness regenerating every table and figure
//!
//! One bench target per table/figure of the paper's evaluation (§5), plus
//! ablations for the design decisions DESIGN.md calls out and self-timed
//! micro-benchmarks of the hot kernels. The table targets are
//! `harness = false` binaries that print the same rows the paper reports;
//! run them all with `cargo bench`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use soft_agents::AgentKind;
use soft_harness::{run_test, TestCase, TestRun};
use soft_sym::ExplorerConfig;
use std::time::Instant;

/// Format a `Duration` like the paper's time columns (s / m / h).
pub fn fmt_time(d: std::time::Duration) -> String {
    let s = d.as_secs_f64();
    if s < 60.0 {
        format!("{s:.2}s")
    } else if s < 3600.0 {
        format!("{:.1}m", s / 60.0)
    } else {
        format!("{:.1}h", s / 3600.0)
    }
}

/// Run one (agent, test) pair with timing, printing nothing.
pub fn timed_run(
    kind: AgentKind,
    test: &TestCase,
    cfg: &ExplorerConfig,
) -> (TestRun, std::time::Duration) {
    let t0 = Instant::now();
    let run = run_test(kind, test, cfg);
    (run, t0.elapsed())
}

/// Whether a quick, bounded run was requested (`SOFT_BENCH_QUICK=1`);
/// the table benches then cap exploration so CI stays fast.
pub fn quick_mode() -> bool {
    std::env::var("SOFT_BENCH_QUICK")
        .map(|v| v == "1")
        .unwrap_or(false)
}

/// Default explorer configuration for benches, honoring quick mode.
pub fn bench_config() -> ExplorerConfig {
    ExplorerConfig {
        max_paths: if quick_mode() { Some(500) } else { None },
        ..Default::default()
    }
}
