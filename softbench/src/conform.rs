//! The `conform_replay` workload: repeated clean loopback self-test
//! passes of the conformance replayer — both agents served behind real
//! TCP listeners, every witness of the interop corpora replayed over the
//! wire and classified. TCP transport, handshake, framing and the
//! classifier run in no other workload.
//!
//! Set-up distills the corpora with `soft run`. Fault seeds are left out:
//! their time comes from the configured stall deadlines, not from the
//! program's own work.

use crate::audit::audit_once;
use crate::stats::{p90, Metrics};
use crate::trace::{self, Recorder};
use crate::{proc, Ctx, Outcome};
use soft_agents::{AgentKind, OF10};
use soft_conform::{
    handshake, loopback_self_test_with, replay_witness, Channel, Connector, LoopbackDut,
    ReplayConfig, TcpConnector, WireOutcome,
};
use soft_protocol::Protocol;
use soft_witness::{Corpus, SplitMix64};
use std::time::{Duration, Instant};

/// The interop tests whose corpora hold witnesses that discriminate the
/// two agents (the other three have no confirmed witness).
pub const CONFORM_TESTS: [&str; 5] = [
    "packet_out",
    "stats_request",
    "cs_flow_mods",
    "queue_config",
    "timeout_flow_mod",
];

/// Set-up repetitions whose median is `setup_s`.
const SETUP_REPS: usize = 3;
/// Connect timeout of the replayer's TCP connector.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(2);

/// Distill and load the corpora.
fn setup(ctx: &Ctx, rep: usize) -> Result<Vec<Corpus>, String> {
    let dir = ctx.work.join(format!("setup{rep}"));
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let corpora = CONFORM_TESTS
        .iter()
        .map(|test| {
            let audited = audit_once(ctx, test, &format!("{}/", dir.display()), true)?;
            Corpus::load(&audited.corpus)
        })
        .collect();
    let _ = std::fs::remove_dir_all(&dir);
    corpora
}

/// Run the conformance workload.
pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let mut corpora = Vec::new();
    for rep in 0..SETUP_REPS {
        let t0 = Instant::now();
        match setup(ctx, rep) {
            Ok(c) => corpora = c,
            Err(e) => {
                out.fail(e);
                return out;
            }
        }
        setups.push(t0.elapsed().as_secs_f64());
    }
    out.metrics.set_median("setup_s", &setups);

    let cfg = ReplayConfig::new(ctx.seed);
    let rec = ctx.trace.as_ref();
    let mut passes = Vec::new();
    let mut peaks = Vec::new();
    let start = Instant::now();
    for pass in 0.. {
        if pass > 0 && start.elapsed().as_secs_f64() >= ctx.seconds {
            break;
        }
        // The replayer and both loopback agents run in this process, so
        // a pass's peak memory is this process's, measured from here.
        if let Err(e) = proc::reset_own_vm_hwm() {
            out.fail(e);
            return out;
        }
        let t0 = Instant::now();
        for (k, corpus) in corpora.iter().enumerate() {
            out.attempted += 2;
            let req = (pass * corpora.len() + k) as u64;
            let st = trace::span(rec, "conform.self_test", 0, req, |_| {
                loopback_self_test_with(&OF10, corpus, &[], &cfg)
            });
            let verdict = st.and_then(|st| {
                let sides = (st.report_a.classification(), st.report_b.classification());
                match (st.passed(), sides.0.as_str(), sides.1.as_str()) {
                    (true, "reference-like", "ovs-like") => Ok(()),
                    _ => Err(format!(
                        "{}: self-test classified the sides {} and {} ({})",
                        corpus.test,
                        sides.0,
                        sides.1,
                        st.failures.join("; ")
                    )),
                }
            });
            if let Err(e) = verdict {
                out.fail(e);
            }
        }
        passes.push(t0.elapsed().as_secs_f64());
        peaks.push(proc::own_vm_hwm_mb().unwrap_or(0.0));
        if let Some(rec) = rec {
            if let Err(e) = sweep(rec, &corpora, &cfg, pass) {
                out.fail(e);
            }
        }
    }
    out.metrics.set_median("pass_s", &passes);
    out.metrics.set_median("peak_rss_mb", &peaks);
    let witnesses: usize = corpora.iter().map(|c| c.entries.len()).sum();
    out.notes.push(format!(
        "conform_s: one pass replays {witnesses} corpus entries against each of 2 agents"
    ));
    if let Some(s) = crate::stats::summarize(&passes) {
        out.notes.push(s.line("conform_s", "s"));
    }
    if let Some(rec) = rec {
        out.metrics.extend(layer_metrics(rec));
    }
    out
}

/// The traced sweep: per corpus and agent, one timed handshake on a
/// fresh connection, then every witness replayed with a timed
/// `replay_witness` call.
fn sweep(
    rec: &Recorder,
    corpora: &[Corpus],
    cfg: &ReplayConfig,
    pass: usize,
) -> Result<(), String> {
    let dialect = OF10.dialect();
    for (k, corpus) in corpora.iter().enumerate() {
        let req = (pass * corpora.len() + k) as u64;
        for agent in [AgentKind::Reference, AgentKind::OpenVSwitch] {
            let dut = LoopbackDut::spawn(agent).map_err(|e| format!("loopback: {e}"))?;
            let mut conn = TcpConnector::new(dut.addr(), CONNECT_TIMEOUT);
            rec.span("conform.handshake", 0, req, |_| {
                let wire = conn.connect().map_err(|e| format!("connect: {e}"))?;
                handshake(&mut Channel::new(wire, cfg.op_timeout))
            })?;
            let mut rng = SplitMix64::new(cfg.backoff.seed);
            for item in corpus.replay_items() {
                if item.wire_msgs.is_empty() {
                    continue;
                }
                let outcome = rec.span("conform.replay", 0, req, |_| {
                    replay_witness(dialect, &mut conn, &item.wire_msgs, cfg, &mut rng)
                });
                if !matches!(outcome, WireOutcome::Observed(_)) {
                    return Err(format!(
                        "{} witness #{}: no clean observation over loopback",
                        corpus.test, item.index
                    ));
                }
            }
        }
    }
    Ok(())
}

fn layer_metrics(rec: &Recorder) -> Metrics {
    let spans = rec.spans();
    let ms = |name: &str| -> Vec<f64> {
        trace::durations(&spans, name)
            .iter()
            .map(|s| s * 1e3)
            .collect()
    };
    let (handshakes, replays) = (ms("conform.handshake"), ms("conform.replay"));
    let mut m = Metrics::default();
    m.set_median("conform.handshake_p50_ms", &handshakes);
    m.set_median("conform.replay_p50_ms", &replays);
    if let Some(v) = p90(&replays) {
        m.set("conform.replay_p90_ms", v, replays.len());
    }
    m
}
