//! The `interop_audit` and `eth_audit` workloads: `soft run` of
//! `reference` vs `ovs`, one fresh process per test, as a CLI user runs
//! it (cold caches every time), with `--jobs 2 --fuzz 4`, a journal and
//! no fsync.
//!
//! A pass audits every test of the workload once. Untraced passes time
//! the processes. A traced pass also audits the same tests in-process
//! with every phase a separate timed call into its layer — explore,
//! encode, write, parse, group, crosscheck, draft, assemble, journal — so
//! the layer times of the phased pipeline can be read beside the
//! streaming session's wall time.

use crate::oracle::{parse_run_line, Tuple};
use crate::stats::ratio;
use crate::trace::{self, Recorder};
use crate::{proc, Ctx, Outcome};
use soft_agents::{AgentKind, OF10};
use soft_core::{crosscheck_durable, CrosscheckConfig, GroupedResults, Soft, VerdictSink};
use soft_harness::journal::{run_unit_durable, SessionJournal, UnitRecovery};
use soft_harness::json::Json;
use soft_harness::{atomic_write, TestCase, TestRunFile};
use soft_protocol::{Protocol, TraceEvent};
use soft_smt::{SatResult, SolverBudget, SolverStats};
use soft_sym::{ExplorerConfig, PathResult, PathSink};
use soft_witness::{assemble, draft_witness, reproduce_corpus, Corpus, DistillConfig};
use std::collections::{BTreeMap, HashSet};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

/// The eight interop tests whose audits finish in seconds.
pub const INTEROP_TESTS: [&str; 8] = [
    "packet_out",
    "stats_request",
    "set_config",
    "cs_flow_mods",
    "concrete",
    "short_symb",
    "queue_config",
    "timeout_flow_mod",
];

/// An audit workload.
pub struct AuditWorkload {
    /// The tests one pass audits.
    pub tests: &'static [&'static str],
    /// Whether the crosscheck keeps a persistent incremental solver
    /// context per worker (`soft run`'s default) or solves every query
    /// afresh (`--no-incremental`).
    pub incremental: bool,
}

/// `interop_audit`: time spread across every layer.
pub const INTEROP: AuditWorkload = AuditWorkload {
    tests: &INTEROP_TESTS,
    incremental: true,
};

/// `eth_audit`: the paper's Table-1 Flow Mod test restricted to Ethernet
/// fields, the crosscheck-heavy audit. It solves every query afresh: with
/// incremental contexts one audit takes 30 to 51 s depending on the load
/// of the host's other tenants, for the same solver work, which no bound
/// can gate (README, Findings).
pub const ETH: AuditWorkload = AuditWorkload {
    tests: &["eth_flow_mod"],
    incremental: false,
};

/// Worker threads per audit (the machine this was tuned on has 2 cores).
pub const JOBS: usize = 2;
/// Fuzz mutations per confirmed witness.
pub const FUZZ: usize = 4;
/// Set-up repetitions whose median is `setup_s`: one `soft tests` takes
/// about 1.5 ms, so many repetitions cost nothing and steady the median.
const SETUP_REPS: usize = 21;

/// One finished `soft run` process whose outcome matched the oracle.
pub struct Audited {
    /// Spawn to exit.
    pub wall_s: f64,
    /// Peak resident memory of the process, MB.
    pub peak_mb: f64,
    /// The published witness corpus.
    pub corpus: PathBuf,
}

/// Run `soft run` on `test`, publishing under `prefix`, and check its
/// outcome line and exit code against the oracle. `incremental: false`
/// adds `--no-incremental`.
pub fn audit_once(
    ctx: &Ctx,
    test: &str,
    prefix: &str,
    incremental: bool,
) -> Result<Audited, String> {
    let mut cmd = Command::new(&ctx.soft);
    cmd.args([
        "run",
        "--agents",
        "reference,ovs",
        "--test",
        test,
        "--jobs",
        &JOBS.to_string(),
        "--fuzz",
        &FUZZ.to_string(),
        "--seed",
        &ctx.seed.to_string(),
        "--no-fsync",
        "--out",
        prefix,
    ]);
    if !incremental {
        cmd.arg("--no-incremental");
    }
    let done = proc::run(&mut cmd)?;
    let got = parse_run_line(&done.stdout, test)?;
    ctx.expected.check(test, &got)?;
    let want_exit = if got.inconsistencies > 0 {
        2
    } else if got.unverified > 0 {
        3
    } else {
        0
    };
    if done.status.code() != Some(want_exit) {
        return Err(format!(
            "{test}: soft run exited {:?}, expected {want_exit}",
            done.status.code()
        ));
    }
    Ok(Audited {
        wall_s: done.wall.as_secs_f64(),
        peak_mb: done.peak_mb,
        corpus: PathBuf::from(format!("{prefix}corpus_{test}.json")),
    })
}

/// Every confirmed witness of the corpus at `path` must reproduce its
/// divergence on the concrete agents. Corpora already checked (same
/// bytes) are skipped.
fn check_reproduces(path: &Path, seen: &mut HashSet<String>) -> Result<(), String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    if !seen.insert(text.clone()) {
        return Ok(());
    }
    let corpus = Corpus::from_json_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    for (idx, outcome) in
        reproduce_corpus(&corpus, AgentKind::Reference, AgentKind::OpenVSwitch, JOBS)
    {
        outcome.map_err(|e| format!("{} witness #{idx} does not reproduce: {e}", corpus.test))?;
    }
    Ok(())
}

/// Median of `SETUP_REPS` runs of `soft tests`, which must list every
/// test of the workload.
fn setup(ctx: &Ctx, tests: &[&str]) -> Result<Vec<f64>, String> {
    let mut walls = Vec::new();
    for _ in 0..SETUP_REPS {
        let done = proc::run(Command::new(&ctx.soft).arg("tests"))?;
        let listed: HashSet<&str> = done
            .stdout
            .lines()
            .filter_map(|l| l.split_whitespace().next())
            .collect();
        if let Some(missing) = tests.iter().find(|t| !listed.contains(**t)) {
            return Err(format!("soft tests does not list '{missing}'"));
        }
        walls.push(done.wall.as_secs_f64());
    }
    Ok(walls)
}

/// The `soft run` processes of one pass.
#[derive(Default)]
struct ChildPass {
    /// Summed process wall time.
    wall_s: f64,
    /// Published corpus per test.
    corpora: BTreeMap<&'static str, PathBuf>,
}

/// Run an audit workload.
pub fn run(ctx: &Ctx, workload: &AuditWorkload) -> Outcome {
    let tests = workload.tests;
    let mut out = Outcome::default();
    match setup(ctx, tests) {
        Ok(walls) => out.metrics.set_median("setup_s", &walls),
        Err(e) => {
            out.fail(e);
            return out;
        }
    }
    let mut pass_walls = Vec::new();
    let mut pass_peaks = Vec::new();
    let mut per_test: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut layers: Vec<BTreeMap<&'static str, f64>> = Vec::new();
    let mut seen = HashSet::new();
    let start = Instant::now();
    for pass in 0.. {
        if pass > 0 && start.elapsed().as_secs_f64() >= ctx.seconds {
            break;
        }
        let dir = ctx.work.join(format!("pass{pass}"));
        if let Err(e) = std::fs::create_dir_all(&dir) {
            out.fail(format!("create {}: {e}", dir.display()));
            return out;
        }
        let mut child = ChildPass::default();
        let mut peak = 0.0f64;
        for &test in tests {
            out.attempted += 1;
            let prefix = format!("{}/{test}_", dir.display());
            let audited = audit_once(ctx, test, &prefix, workload.incremental)
                .and_then(|a| check_reproduces(&a.corpus, &mut seen).map(|()| a));
            match audited {
                Ok(a) => {
                    child.wall_s += a.wall_s;
                    peak = peak.max(a.peak_mb);
                    per_test.entry(test).or_default().push(a.wall_s * 1e3);
                    child.corpora.insert(test, a.corpus);
                }
                Err(e) => out.fail(e),
            }
        }
        pass_walls.push(child.wall_s);
        pass_peaks.push(peak);
        if let Some(rec) = &ctx.trace {
            out.attempted += tests.len() as u64;
            match traced_pass(ctx, rec, pass, workload, &dir, &child, &mut seen) {
                Ok(values) => layers.push(values),
                Err(e) => out.fail(e),
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
    out.metrics.set_median("pass_s", &pass_walls);
    out.metrics.set_median("peak_rss_mb", &pass_peaks);
    for (test, ms) in &per_test {
        if let Some(s) = crate::stats::summarize(ms) {
            out.notes.push(s.line(&format!("audit_ms[{test}]"), "ms"));
        }
    }
    if let Some(s) = crate::stats::summarize(&pass_walls) {
        out.notes
            .push(s.line("audit_s (one pass over all tests)", "s"));
    }
    for name in layers
        .first()
        .map(|l| l.keys().copied().collect::<Vec<_>>())
        .unwrap_or_default()
    {
        let samples: Vec<f64> = layers.iter().filter_map(|l| l.get(name).copied()).collect();
        out.metrics.set_median(name, &samples);
    }
    out
}

/// Per-test facts of one in-process phased audit.
#[derive(Default)]
struct Phased {
    paths: u64,
    groups: u64,
    pairs: u64,
    artifact_bytes: u64,
    journal_bytes: u64,
    solver: SolverStats,
    witnesses: u64,
    confirmed: u64,
    replays: u64,
    fuzz_added: u64,
    corpus: PathBuf,
}

/// One traced pass: the in-process phased audit of every test, returning
/// the pass's per-layer metric values. Each phased corpus must reproduce
/// and equal byte for byte the one the pass's `soft run` process
/// published.
fn traced_pass(
    ctx: &Ctx,
    rec: &Recorder,
    pass: usize,
    workload: &AuditWorkload,
    dir: &Path,
    child: &ChildPass,
    seen: &mut HashSet<String>,
) -> Result<BTreeMap<&'static str, f64>, String> {
    let tests = workload.tests;
    let first_span = rec.spans().len();
    let mut sum = Phased::default();
    rec.span("bench.pass", 0, pass as u64, |root| {
        for (t, test) in tests.iter().enumerate() {
            let req = (pass * tests.len() + t) as u64;
            let phased = rec.span("bench.audit", root, req, |id| {
                phased_audit(ctx, rec, id, req, test, workload.incremental, dir)
            })?;
            check_reproduces(&phased.corpus, seen)?;
            if let Some(published) = child.corpora.get(test) {
                let read =
                    |p: &Path| std::fs::read(p).map_err(|e| format!("read {}: {e}", p.display()));
                if read(published)? != read(&phased.corpus)? {
                    return Err(format!(
                        "{test}: the phased corpus differs from the one soft run published"
                    ));
                }
            }
            sum.paths += phased.paths;
            sum.groups += phased.groups;
            sum.pairs += phased.pairs;
            sum.artifact_bytes += phased.artifact_bytes;
            sum.journal_bytes += phased.journal_bytes;
            sum.solver.merge(&phased.solver);
            sum.witnesses += phased.witnesses;
            sum.confirmed += phased.confirmed;
            sum.replays += phased.replays;
            sum.fuzz_added += phased.fuzz_added;
        }
        Ok::<(), String>(())
    })?;
    let spans = &rec.spans()[first_span..];
    let own = trace::self_by_name(spans);
    let t = |name: &str| own.get(name).copied().unwrap_or(0.0);
    let phased_s: f64 = trace::self_by_layer(spans)
        .iter()
        .filter(|(layer, _)| **layer != "bench")
        .map(|(_, s)| s)
        .sum();
    let s = &sum.solver;
    let crosscheck_s = t("core.crosscheck");
    let mut values = BTreeMap::from([
        ("sym.explore_s", t("sym.explore")),
        ("sym.paths", sum.paths as f64),
        ("harness.json_encode_s", t("harness.json_encode")),
        ("harness.json_parse_s", t("harness.json_parse")),
        ("harness.artifact_mb", sum.artifact_bytes as f64 / 1e6),
        ("harness.atomic_write_s", t("harness.atomic_write")),
        ("harness.journal_s", t("harness.journal")),
        ("harness.journal_mb", sum.journal_bytes as f64 / 1e6),
        ("core.group_s", t("core.group")),
        ("core.groups", sum.groups as f64),
        ("core.crosscheck_s", crosscheck_s),
        ("core.pairs", sum.pairs as f64),
        ("core.pairs_per_s", ratio(sum.pairs as f64, crosscheck_s)),
        ("smt.queries", s.queries as f64),
        (
            "smt.simplified_frac",
            ratio(s.solved_by_simplification as f64, s.queries as f64),
        ),
        (
            "smt.cache_hit_frac",
            ratio(s.cache_hits as f64, s.queries as f64),
        ),
        ("smt.bitblast_worker_s", s.bitblast_ns as f64 / 1e9),
        ("smt.search_worker_s", s.search_ns as f64 / 1e9),
        ("smt.sat_conflicts", s.sat_conflicts as f64),
        (
            "smt.probe_unsat_frac",
            ratio(s.probe_unsat as f64, s.assumption_probes as f64),
        ),
        ("smt.core_prunes", s.core_prunes as f64),
        ("smt.cnf_cache_hits", s.cnf_cache_hits as f64),
        ("smt.learned_retained", s.learned_retained as f64),
        (
            "smt.evictions",
            (s.cache_evictions + s.context_evictions) as f64,
        ),
        ("witness.draft_worker_s", t("witness.draft")),
        ("witness.assemble_s", t("witness.assemble")),
        (
            "witness.replays_per_witness",
            ratio(sum.replays as f64, sum.witnesses as f64),
        ),
        (
            "witness.confirmed_frac",
            ratio(sum.confirmed as f64, sum.witnesses as f64),
        ),
        ("witness.fuzz_added", sum.fuzz_added as f64),
    ]);
    values.insert("session.overlap_frac", 1.0 - ratio(child.wall_s, phased_s));
    Ok(values)
}

/// Journals each explored path, timing every append as a child span of
/// the exploration.
struct TimedJournal<'a> {
    inner: &'a dyn PathSink<TraceEvent>,
    rec: &'a Recorder,
    parent: u64,
    req: u64,
}

impl PathSink<TraceEvent> for TimedJournal<'_> {
    fn on_path(
        &self,
        origin: &[bool],
        result: &PathResult<TraceEvent>,
        pending: &[(Vec<bool>, &str)],
    ) {
        self.rec
            .span("harness.journal", self.parent, self.req, |_| {
                self.inner.on_path(origin, result, pending)
            });
    }
}

/// Journals each crosscheck verdict, timing every append.
struct TimedVerdicts<'a> {
    journal: &'a SessionJournal,
    rec: &'a Recorder,
    parent: u64,
    req: u64,
}

impl VerdictSink for TimedVerdicts<'_> {
    fn on_verdict(&self, i: usize, j: usize, verdict: &SatResult, budget: &SolverBudget) {
        self.rec
            .span("harness.journal", self.parent, self.req, |_| {
                self.journal.record_verdict(0, i, j, verdict, budget)
            });
    }
}

/// The shared state of one in-process phased audit.
struct Phase<'a> {
    ctx: &'a Ctx,
    rec: &'a Recorder,
    parent: u64,
    req: u64,
    test: &'a TestCase,
    journal: &'a SessionJournal,
    dir: &'a Path,
}

impl Phase<'_> {
    fn span<R>(&self, name: &'static str, f: impl FnOnce(u64) -> R) -> R {
        self.rec.span(name, self.parent, self.req, f)
    }

    /// Explore, publish, re-read and group one side; returns the groups,
    /// the path count and the artifact size.
    fn side(&self, agent: AgentKind, unit: usize) -> Result<(GroupedResults, u64, u64), String> {
        let cfg = ExplorerConfig {
            seed: self.ctx.seed,
            workers: JOBS,
            ..ExplorerConfig::default()
        };
        let unit_sink = self.journal.unit_sink(unit);
        let run = self
            .span("sym.explore", |id| {
                let sink = TimedJournal {
                    inner: &unit_sink,
                    rec: self.rec,
                    parent: id,
                    req: self.req,
                };
                run_unit_durable(agent, self.test, &cfg, &UnitRecovery::default(), &sink)
            })
            .map_err(|e| format!("{}: explore {}: {e}", self.test.id, agent.id()))?;
        let text = self.span("harness.json_encode", |_| {
            TestRunFile::from_run(&run).to_json()
        });
        let path = self
            .dir
            .join(format!("phased_{}_{}.json", agent.id(), self.test.id));
        self.span("harness.atomic_write", |_| {
            atomic_write(&path, text.as_bytes(), false)
        })
        .map_err(|e| format!("write {}: {e}", path.display()))?;
        let parsed = self
            .span("harness.json_parse", |_| TestRunFile::from_json(&text))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        let grouped = self
            .span("core.group", |_| Soft::new().group_artifact(&parsed))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        Ok((grouped, run.paths.len() as u64, text.len() as u64))
    }
}

/// The in-process phased audit of one test, checked against the oracle.
fn phased_audit(
    ctx: &Ctx,
    rec: &Recorder,
    parent: u64,
    req: u64,
    test: &str,
    incremental: bool,
    dir: &Path,
) -> Result<Phased, String> {
    let tc = OF10
        .find_test(test)
        .ok_or_else(|| format!("unknown test '{test}'"))?;
    let (a, b) = (AgentKind::Reference, AgentKind::OpenVSwitch);
    let wal = dir.join(format!("phased_{test}.wal"));
    let (journal, _) = SessionJournal::open(&wal, false, false, "softbench", 2, 1)
        .map_err(|e| format!("journal {}: {e}", wal.display()))?;
    let phase = Phase {
        ctx,
        rec,
        parent,
        req,
        test: &tc,
        journal: &journal,
        dir,
    };
    let (ga, paths_a, bytes_a) = phase.side(a, 0)?;
    let (gb, paths_b, bytes_b) = phase.side(b, 1)?;
    let check_cfg = CrosscheckConfig {
        jobs: JOBS,
        incremental,
        ..CrosscheckConfig::default()
    };
    let result = phase.span("core.crosscheck", |id| {
        let sink = TimedVerdicts {
            journal: &journal,
            rec,
            parent: id,
            req,
        };
        crosscheck_durable(&ga, &gb, &check_cfg, None, Some(&sink))
    });
    let drafts = result
        .inconsistencies
        .iter()
        .map(|inc| Some(phase.span("witness.draft", |_| draft_witness(&tc, inc, &ga, &gb, a, b))))
        .collect();
    let distill_cfg = DistillConfig {
        jobs: JOBS,
        seed: ctx.seed,
        fuzz_tries: FUZZ,
    };
    let report = phase.span("witness.assemble", |_| {
        assemble(&tc, &result, drafts, &ga, &gb, a, b, &distill_cfg)
    });
    let corpus = phase.span("harness.json_encode", |_| report.corpus.to_json_string());
    let corpus_path = dir.join(format!("phased_corpus_{test}.json"));
    phase
        .span("harness.atomic_write", |_| {
            atomic_write(&corpus_path, corpus.as_bytes(), false)
        })
        .map_err(|e| format!("write {}: {e}", corpus_path.display()))?;
    let summary = Json::Object(vec![(
        "confirmed".to_string(),
        Json::UInt(report.stats.confirmed as u64),
    )]);
    if let Some(e) = phase.span("harness.journal", |_| {
        journal.record_corpus(0, &summary, &corpus);
        journal.take_error()
    }) {
        return Err(format!("journal {}: {e}", wal.display()));
    }

    let got = Tuple {
        paths_a,
        paths_b,
        inconsistencies: result.inconsistencies.len() as u64,
        unverified: result.unverified.len() as u64,
        confirmed: report.stats.confirmed as u64,
        clusters: report.stats.clusters as u64,
    };
    ctx.expected
        .check(test, &got)
        .map_err(|e| format!("phased {e}"))?;
    Ok(Phased {
        paths: paths_a + paths_b,
        groups: (ga.groups.len() + gb.groups.len()) as u64,
        pairs: (ga.groups.len() * gb.groups.len()) as u64,
        artifact_bytes: bytes_a + bytes_b + corpus.len() as u64,
        journal_bytes: std::fs::metadata(&wal).map(|m| m.len()).unwrap_or(0),
        solver: result.solver,
        witnesses: report.stats.witnesses as u64,
        confirmed: report.stats.confirmed as u64,
        replays: report.stats.replays as u64,
        fuzz_added: report.stats.fuzz_added as u64,
        corpus: corpus_path,
    })
}
