//! `soft` — the command-line front end, mirroring the paper's three tools
//! (§4): the test harness (`phase1`), the grouping tool + inconsistency
//! finder (`check`), and a report generator with concrete reproductions
//! and optional replay validation (`report`).
//!
//! The vendor-side and crosscheck-side commands communicate only through
//! JSON artifacts, so they can run on different machines (§2.4):
//!
//! ```text
//! # vendor A (has only its own agent):
//! soft phase1 --agent reference --test packet_out --out ref.json
//! # vendor B:
//! soft phase1 --agent ovs --test packet_out --out ovs.json
//! # third party (no agent code needed):
//! soft check ref.json ovs.json
//! soft report ref.json ovs.json --replay
//! ```
//!
//! The phased commands share `soft run`'s durability machinery: `phase1`
//! explores each combination through [`run_unit_durable`] into a
//! [`SessionJournal`] holding one exploration unit, and `check`/`distill`
//! journal their verdicts into one holding a single test.

use soft::agents::OF10;
use soft::conform::{
    loopback_self_test_with, run_conform_with, ConformReport, Connector, ExitClass,
    FaultyConnector, LoopbackDut, ReplayConfig, TcpConnector, Verdict,
};
use soft::core::report::{classify, dedupe, describe, describe_unverified, reproduce};
use soft::core::{crosscheck_durable, replay, CheckSeeds, CrosscheckConfig, GroupedResults, Soft};
use soft::fleet::job::{agent_by_name, protocol_by_id};
use soft::harness::json::Json;
use soft::harness::{
    atomic_write, check_fingerprint, encode_run, phase1_fingerprint, run_matrix, run_test,
    run_unit_durable, JournalError, SessionJournal, TestCase, TestRun, TestRunFile,
};
use soft::protocol::{AgentRef, Protocol};
use soft::smt::{SatResult, SolverBudget};
use soft::witness::{
    distill, reproduce_corpus, Corpus, CorpusEntry, DistillConfig, Status, DEFAULT_SEED,
};
use soft::{check_settings, create_out_dir, run_session, AgentKind, SessionConfig};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Exit code when inconsistencies were found (like a linter).
const EXIT_INCONSISTENT: u8 = 2;
/// Exit code when some output pairs stayed undecided within the solver
/// budget: the run is sound but incomplete — rerun with a larger
/// `--solver-budget`.
const EXIT_UNVERIFIED: u8 = 3;
/// Exit code when exploration was truncated (path/time limit hit, or an
/// engine panic was contained): artifacts cover only part of the input
/// space.
const EXIT_TRUNCATED: u8 = 4;
/// Exit code when a conformance DUT never accepted a connection for some
/// witness: no behavioral claim could be made at all.
const EXIT_UNREACHABLE: u8 = 5;

/// Resolve `--protocol` (default `of10`) against the registry.
fn parse_protocol(cmd: &str, args: &[String]) -> Result<&'static dyn Protocol, ExitCode> {
    let id = flag_value(args, "--protocol").unwrap_or_else(|| "of10".to_string());
    protocol_by_id(&id).ok_or_else(|| {
        eprintln!("{cmd}: unknown --protocol '{id}' (known: of10, tlv)");
        usage()
    })
}

/// Resolve the protocol a corpus file records (absent field = OpenFlow).
fn corpus_protocol(cmd: &str, corpus: &Corpus) -> Result<&'static dyn Protocol, ExitCode> {
    protocol_by_id(&corpus.protocol).ok_or_else(|| {
        eprintln!(
            "{cmd}: corpus speaks unknown protocol '{}' (this build knows: of10, tlv)",
            corpus.protocol
        );
        ExitCode::FAILURE
    })
}

/// One synopsis line per subcommand form: the usage text, and the list of
/// flags each subcommand accepts (see [`known_flags`]).
const SYNOPSIS: &str = concat!(
    "  soft tests [--protocol of10|tlv]\n",
    "  soft run [--protocol of10|tlv] --agents <a>,<b> --test <id|all> [--out PREFIX] [--jobs N] [--seed S] [--fuzz N] [--solver-budget N] [--retry-unknown RUNGS] [--no-incremental] [--journal FILE|--no-journal] [--resume] [--no-fsync]\n",
    "  soft phase1 --agent <reference|ovs|modified|panicky|all> --test <id|all> --out <file-or-prefix> [--jobs N] [--seed S] [--solver-budget N] [--journal FILE|--no-journal] [--resume] [--no-fsync]\n",
    "  soft check <a.json> <b.json> [--jobs N] [--solver-budget N] [--retry-unknown RUNGS] [--journal FILE|--no-journal] [--resume] [--no-fsync]\n",
    "  soft report <a.json> <b.json> [--replay] [--json FILE] [--store DIR] [--seed S] [--solver-budget N] [--retry-unknown RUNGS]\n",
    "  soft distill <a.json> <b.json> --out <corpus.json> [--jobs N] [--seed S] [--fuzz N] [--solver-budget N] [--retry-unknown RUNGS] [--journal FILE|--no-journal] [--resume] [--no-fsync]\n",
    "  soft repro <corpus.json> [--jobs N]\n",
    "  soft regress <baseline.json> <candidate.json>\n",
    "  soft serve --store DIR [--port N] [--jobs N] [--no-fsync]\n",
    "  soft route --backends HOST:PORT,HOST:PORT,... [--port N] [--vnodes N] [--replicas N] [--addr-file FILE]\n",
    "  soft fleet (--addr HOST:PORT | --addr-file FILE) [--json FILE]\n",
    "  soft conform <corpus.json> (--addr HOST:PORT | --self-test) [--retries N] [--op-timeout-ms N] [--fault-seed S]... [--seed S] [--json FILE]\n",
    "  soft conform-dut [--protocol of10|tlv] --agent <id> [--port N]\n",
    "  soft submit (--addr HOST:PORT | --store DIR) [--protocol of10|tlv] --agents <a>,<b> --test <id> [--seed S] [--fuzz N] [--solver-budget N] [--retry-unknown RUNGS] [--fp-a HEX] [--fp-b HEX] [--out PREFIX] [--json FILE]\n",
    "  soft submit (--addr HOST:PORT | --store DIR) (--status [--json FILE] | --drain)",
);

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n{SYNOPSIS}\n\nserve runs a continuously-incremental audit daemon on 127.0.0.1: jobs\narrive over a framed-JSON TCP socket (the bound address is printed and\npublished at <store>/addr), shard across a bounded worker pool, and\nland in a persistent content-addressed store. Re-submitting an\nunchanged job is answered from the store with zero solver queries and\nbyte-identical artifacts; after an agent changes, the stored run seeds\na diff that re-solves only the impacted group pairs. SIGTERM drains\ngracefully (a second SIGTERM exits at once); accepted-but-unfinished\njobs recover from their journals on restart. submit sends one job (or\n--status/--drain) and exits with the usual verdict codes; report\n--json --store DIR embeds the daemon's counters.\n\nroute runs the fleet front-end on 127.0.0.1: submit speaks to it\nexactly as to a single daemon, while jobs shard over the --backends\nlist via a consistent-hash ring (--vnodes virtual nodes each). Jobs\nqueued on a saturated back-end are work-stolen to idle replicas;\npublished results are pushed to --replicas ring successors, so a\nback-end killed mid-job degrades to a re-routed solve and an\nunchanged re-audit is answered from any surviving replica. Duplicate\nsubmissions coalesce fleet-wide. fleet prints the router's topology\nand health view; --drain at the router drains every back-end.\n\nconform replays a witness corpus OVER THE WIRE, OFTest-style: it dials\nthe DUT's OpenFlow 1.0 control channel (--addr), performs the\nHELLO/FEATURES handshake with an echo keepalive, replays every witness\nbehind a sentinel barrier, and classifies the DUT per root-cause\ncluster as reference-like, ovs-like, or novel. Transport is\nfault-tolerant: per-operation deadlines, jittered-backoff retries on\nfresh connections (--retries, --op-timeout-ms), and explicit degraded\nverdicts — flaky (connected but never completed, full error chain\nrecorded) and unreachable (never connected). --self-test serves both\ncorpus agents behind loopback listeners and requires correct\nclassification of each; every --fault-seed re-runs through a\ndeterministic splitmix64 fault injector (torn frames, truncation,\nstalls, resets, reordered echoes) and requires verdicts byte-identical\nto the clean run. conform-dut serves one agent on a TCP port for\nexternal harnesses.\n\nrun drives the whole pipeline — explore, group, crosscheck, distill —\nthrough one session: both agents explore concurrently, the witnesses\ndistill from the one crosscheck, and one journal (<out>session.wal) covers everything so\n--resume continues mid-pipeline. It publishes the same artifacts the\nphased commands would (<out><agent>_<test>.json, <out>corpus_<test>.json),\nbyte-identical modulo recorded wall-clock.\n\n--solver-budget caps the SAT conflicts spent per solver query; exhausted\nqueries degrade to Unknown (reported, never misclassified).\n--retry-unknown re-solves Unknown pairs under geometrically escalated\nbudgets (x4 per rung) before reporting them unverified.\n--no-incremental disables the per-test incremental solver memos\n(CNF caching, cone probes before the fresh solve); artifacts are\nbyte-identical either way — the flag is a speed lever for comparison.\n--protocol selects the protocol under audit (default of10, the
OpenFlow 1.0 models). tlv is a compact tag-length-value echo/handshake
protocol with two intentionally divergent agents (strict, lenient) that
exercises the same explore/group/crosscheck/distill kernel end to end.
Corpora record their protocol, so repro and conform need no flag.

--seed sets the base seed for every pseudo-random choice (exploration\nstrategies and the distill fuzzer); default 0x50F7. Same seed, same bytes.\n\ndistill turns crosscheck witnesses into a standalone corpus of minimal,\nclustered, wire-format reproductions (--fuzz N mutants per witness,\ndefault 4); repro replays a corpus and exits {EXIT_INCONSISTENT} if any confirmed\nwitness no longer reproduces its recorded divergence.\n\nDurability: run, phase1, check and distill write a write-ahead journal\nnext to their output (<out>.wal / <a>.check.wal unless --journal\noverrides) and publish artifacts atomically; --resume continues an\ninterrupted run from the journal, producing byte-identical artifacts for\nany --jobs value. --no-fsync trades crash durability for speed.\n\nexit codes: 0 clean; 1 usage or I/O error; {EXIT_INCONSISTENT} inconsistencies found;\n{EXIT_UNVERIFIED} pairs left unverified by the solver budget; {EXIT_TRUNCATED} exploration truncated;\n{EXIT_UNREACHABLE} conformance DUT unreachable.\n\nResults are identical for every --jobs value; only wall-clock changes."
    );
    ExitCode::FAILURE
}

/// Extract the value following a `--flag`.
fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// Extract every value of a repeatable `--flag`.
fn flag_values(args: &[String], flag: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < args.len() {
        if args[i] == flag {
            if let Some(v) = args.get(i + 1) {
                out.push(v.clone());
            }
            i += 2;
        } else {
            i += 1;
        }
    }
    out
}

/// Parse a u64 in decimal or `0x…` hex.
fn parse_u64(v: &str) -> Result<u64, String> {
    let parsed = match v.strip_prefix("0x").or_else(|| v.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => v.parse::<u64>(),
    };
    parsed.map_err(|_| format!("expected a u64 (decimal or 0x hex), got '{v}'"))
}

/// Parse `--jobs N` (default 1). `Err` on malformed or zero values.
fn jobs_flag(args: &[String]) -> Result<usize, String> {
    match flag_value(args, "--jobs") {
        None => Ok(1),
        Some(v) => match v.parse::<usize>() {
            Ok(n) if n >= 1 => Ok(n),
            _ => Err(format!("--jobs must be a positive integer, got '{v}'")),
        },
    }
}

/// Parse `--solver-budget N` (SAT conflicts per query; default unlimited).
/// `Err` on malformed or zero values.
fn budget_flag(args: &[String]) -> Result<SolverBudget, String> {
    match flag_value(args, "--solver-budget") {
        None => Ok(SolverBudget::unlimited()),
        Some(v) => match v.parse::<u64>() {
            Ok(n) if n >= 1 => Ok(SolverBudget::conflicts(n)),
            _ => Err(format!(
                "--solver-budget must be a positive conflict count, got '{v}'"
            )),
        },
    }
}

/// Parse `--seed S` (decimal or `0x…` hex; default [`DEFAULT_SEED`]).
fn seed_flag(args: &[String]) -> Result<u64, String> {
    match flag_value(args, "--seed") {
        None => Ok(DEFAULT_SEED),
        Some(v) => parse_u64(&v).map_err(|e| format!("--seed: {e}")),
    }
}

/// Parse `--fuzz N` (mutants per confirmed witness; default 4).
fn fuzz_flag(args: &[String]) -> Result<usize, String> {
    match flag_value(args, "--fuzz") {
        None => Ok(4),
        Some(v) => v
            .parse::<usize>()
            .map_err(|_| format!("--fuzz must be a mutation count, got '{v}'")),
    }
}

/// Parse `--retry-unknown RUNGS` (default 0 = no escalation retries).
fn retry_flag(args: &[String]) -> Result<u32, String> {
    match flag_value(args, "--retry-unknown") {
        None => Ok(0),
        Some(v) => v
            .parse::<u32>()
            .map_err(|_| format!("--retry-unknown must be a rung count, got '{v}'")),
    }
}

/// Journal-related flags shared by phase1 and check.
struct JournalFlags {
    /// Journaling enabled (the default; `--no-journal` turns it off).
    enabled: bool,
    /// Custom journal path (`--journal FILE`); commands derive a default
    /// next to their output otherwise.
    path: Option<String>,
    /// Resume from an existing journal.
    resume: bool,
    /// fsync journal appends and artifact publishes (`--no-fsync` off).
    fsync: bool,
}

fn journal_flags(args: &[String]) -> Result<JournalFlags, String> {
    let enabled = !args.iter().any(|a| a == "--no-journal");
    let path = flag_value(args, "--journal");
    let resume = args.iter().any(|a| a == "--resume");
    let fsync = !args.iter().any(|a| a == "--no-fsync");
    if !enabled && (path.is_some() || resume) {
        return Err("--no-journal conflicts with --journal/--resume".to_string());
    }
    Ok(JournalFlags {
        enabled,
        path,
        resume,
        fsync,
    })
}

/// The flags shared across the pipeline commands, parsed in one place so
/// every command validates them identically and reports errors with a
/// uniform `<cmd>: <message>` prefix. Commands read the subset their
/// usage line documents; the rest parse to their defaults.
struct CommonArgs {
    jobs: usize,
    budget: SolverBudget,
    seed: u64,
    fuzz: usize,
    retry_rungs: u32,
    journal: JournalFlags,
}

/// Parse the shared flags, or print `<cmd>: <error>` plus the usage text
/// and return the usage exit code.
fn common_args(cmd: &str, args: &[String]) -> Result<CommonArgs, ExitCode> {
    let parsed = (|| {
        Ok(CommonArgs {
            jobs: jobs_flag(args)?,
            budget: budget_flag(args)?,
            seed: seed_flag(args)?,
            fuzz: fuzz_flag(args)?,
            retry_rungs: retry_flag(args)?,
            journal: journal_flags(args)?,
        })
    })();
    parsed.map_err(|e: String| {
        eprintln!("{cmd}: {e}");
        usage()
    })
}

fn cmd_tests(args: &[String]) -> ExitCode {
    let proto = match parse_protocol("tests", args) {
        Ok(p) => p,
        Err(code) => return code,
    };
    println!("{:<20} {:<4} description", "id", "#in");
    for t in proto.tests() {
        println!("{:<20} {:<4} {}", t.id, t.inputs.len(), t.description);
    }
    ExitCode::SUCCESS
}

fn cmd_phase1(args: &[String]) -> ExitCode {
    let common = match common_args("phase1", args) {
        Ok(c) => c,
        Err(code) => return code,
    };
    let (jobs, budget, seed, journal) = (common.jobs, common.budget, common.seed, common.journal);
    let Some(out) = flag_value(args, "--out") else {
        eprintln!("phase1: missing --out");
        return usage();
    };
    let agents: Vec<AgentRef> = match flag_value(args, "--agent").as_deref() {
        Some("all") => [
            AgentKind::Reference,
            AgentKind::OpenVSwitch,
            AgentKind::Modified,
        ]
        .map(AgentRef::from)
        .to_vec(),
        Some(a) => match agent_by_name(&OF10, a) {
            Some(k) => vec![k],
            None => {
                eprintln!("phase1: unknown --agent '{a}'");
                return usage();
            }
        },
        None => {
            eprintln!("phase1: missing --agent");
            return usage();
        }
    };
    let tests: Vec<TestCase> = match flag_value(args, "--test").as_deref() {
        Some("all") => OF10.tests(),
        Some(t) => match OF10.find_test(t) {
            Some(tc) => vec![tc],
            None => {
                eprintln!("phase1: unknown --test '{t}' (see `soft tests`)");
                return usage();
            }
        },
        None => {
            eprintln!("phase1: missing --test");
            return usage();
        }
    };
    // A single combination spends `--jobs` *within* its exploration and
    // `--out` is the artifact path. Matrix mode (`--agent all` and/or
    // `--test all`) fans `--jobs` out across the agent x test
    // combinations and `--out` is a prefix: one artifact
    // `<out><agent>_<test>.json` per combination. Each artifact's journal
    // is `<artifact>.wal` unless `--journal` names the single one's.
    let single = agents.len() == 1 && tests.len() == 1;
    if let Err(e) = create_out_dir(&out) {
        eprintln!("phase1: {e}");
        return ExitCode::FAILURE;
    }
    let artifact_path = |agent: &str, test: &str| {
        if single {
            out.clone()
        } else {
            format!("{out}{agent}_{test}.json")
        }
    };
    let cfg = soft::sym::ExplorerConfig {
        solver_budget: budget,
        workers: if single { jobs } else { 1 },
        seed,
        ..Default::default()
    };
    let explore = |agent: AgentRef, test: &TestCase| -> Result<TestRun, JournalError> {
        if !journal.enabled {
            return Ok(run_test(agent, test, &cfg));
        }
        let path = match &journal.path {
            Some(p) if single => PathBuf::from(p),
            _ => PathBuf::from(format!("{}.wal", artifact_path(agent.id(), test.id))),
        };
        let fp = phase1_fingerprint(agent, test, &cfg);
        let (wal, recovery) =
            SessionJournal::open(&path, journal.resume, journal.fsync, &fp, 1, 0)?;
        let run = run_unit_durable(agent, test, &cfg, &recovery.units[0], &wal.unit_sink(0))?;
        match wal.take_error() {
            Some(e) => Err(JournalError::Io(e)),
            None => Ok(run),
        }
    };
    eprintln!(
        "symbolically executing {} agent(s) x {} test(s) with {jobs} job(s) ...",
        agents.len(),
        tests.len()
    );
    let runs = run_matrix(&agents, &tests, if single { 1 } else { jobs }, explore);
    let mut truncated: Vec<String> = Vec::new();
    let mut failed = 0usize;
    for run in &runs {
        let run = match run {
            Ok(r) => r,
            Err(e) => {
                eprintln!("phase1: {e}");
                failed += 1;
                continue;
            }
        };
        eprintln!(
            "  {}/{}: {} paths, instruction coverage {:.1}%, wall {} ms",
            run.agent,
            run.test,
            run.paths.len(),
            run.instruction_pct,
            run.wall.as_millis()
        );
        let path = artifact_path(&run.agent, &run.test);
        if let Err(e) = atomic_write(Path::new(&path), encode_run(run).as_bytes(), journal.fsync) {
            eprintln!("phase1: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        if run.stats.truncated {
            truncated.push(format!("{}/{}", run.agent, run.test));
        }
        println!("{path}");
    }
    if failed > 0 {
        eprintln!("phase1: {failed} combination(s) failed to journal or resume");
        return ExitCode::FAILURE;
    }
    if !truncated.is_empty() {
        eprintln!(
            "phase1: {} run(s) truncated ({}) — artifacts cover part of the input space",
            truncated.len(),
            truncated.join(", ")
        );
        return ExitCode::from(EXIT_TRUNCATED);
    }
    ExitCode::SUCCESS
}

/// The streaming pipeline: phase1 + check + distill for one agent pair,
/// as a single session. Publishes the same artifacts the phased commands
/// would (byte-identical modulo recorded wall-clock), under one journal.
fn cmd_run(args: &[String]) -> ExitCode {
    let common = match common_args("run", args) {
        Ok(c) => c,
        Err(code) => return code,
    };
    let proto = match parse_protocol("run", args) {
        Ok(p) => p,
        Err(code) => return code,
    };
    let Some(agents_arg) = flag_value(args, "--agents") else {
        eprintln!("run: missing --agents (e.g. --agents reference,ovs)");
        return usage();
    };
    let parts: Vec<&str> = agents_arg.split(',').collect();
    if parts.len() != 2 {
        eprintln!("run: --agents takes exactly two comma-separated agents, got '{agents_arg}'");
        return usage();
    }
    let (Some(agent_a), Some(agent_b)) = (
        agent_by_name(proto, parts[0]),
        agent_by_name(proto, parts[1]),
    ) else {
        eprintln!(
            "run: unknown agent in --agents '{agents_arg}' (protocol {}, known: {})",
            proto.id(),
            proto.agent_ids().join(", ")
        );
        return usage();
    };
    let tests: Vec<TestCase> = match flag_value(args, "--test").as_deref() {
        Some("all") => proto.tests(),
        Some(t) => match proto.find_test(t) {
            Some(tc) => vec![tc],
            None => {
                eprintln!("run: unknown --test '{t}' (see `soft tests`)");
                return usage();
            }
        },
        None => {
            eprintln!("run: missing --test");
            return usage();
        }
    };
    let out = flag_value(args, "--out").unwrap_or_default();
    let cfg = SessionConfig {
        agent_a,
        agent_b,
        tests,
        jobs: common.jobs,
        seed: common.seed,
        solver_budget: common.budget,
        retry_rungs: common.retry_rungs,
        fuzz_tries: common.fuzz,
        out_prefix: out.clone(),
        journal: common.journal.enabled.then(|| {
            PathBuf::from(
                common
                    .journal
                    .path
                    .clone()
                    .unwrap_or_else(|| format!("{out}session.wal")),
            )
        }),
        resume: common.journal.resume,
        fsync: common.journal.fsync,
        incremental: !args.iter().any(|a| a == "--no-incremental"),
        baseline: None,
    };
    eprintln!(
        "streaming {} vs {} through {} test(s) with {} job(s) ...",
        agent_a.id(),
        agent_b.id(),
        cfg.tests.len(),
        cfg.jobs
    );
    let report = match run_session(&cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("run: {e}");
            return ExitCode::FAILURE;
        }
    };
    for o in &report.outcomes {
        println!(
            "{}: {}+{} paths, {} inconsistencies, {} unverified, {} confirmed witness(es) in {} cluster(s) -> {}{}",
            o.test,
            o.paths_a,
            o.paths_b,
            o.inconsistencies,
            o.unverified,
            o.confirmed,
            o.clusters,
            o.corpus_path.display(),
            if o.replayed { " (resumed)" } else { "" }
        );
    }
    if report.truncated() {
        eprintln!("run: exploration truncated — artifacts cover part of the input space");
    }
    if report.inconsistencies() > 0 {
        ExitCode::from(EXIT_INCONSISTENT)
    } else if report.unverified() > 0 {
        ExitCode::from(EXIT_UNVERIFIED)
    } else if report.truncated() {
        ExitCode::from(EXIT_TRUNCATED)
    } else {
        ExitCode::SUCCESS
    }
}

fn load_artifact(path: &str) -> Result<TestRunFile, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    TestRunFile::from_json(&text).map_err(|e| format!("cannot parse {path}: {e}"))
}

/// How a crosscheck should run: parallelism, budget, escalation ladder,
/// and (for `check`) the verdict journal.
struct CheckOpts {
    jobs: usize,
    budget: SolverBudget,
    retry_rungs: u32,
    /// Verdict journal path; `None` runs without one (`report`, or
    /// `--no-journal`).
    journal: Option<PathBuf>,
    resume: bool,
    fsync: bool,
}

/// Everything a crosscheck produces, kept together so downstream
/// commands (report, distill) can reuse the grouped conditions.
struct CheckedPair {
    result: soft::core::CrosscheckResult,
    file_a: TestRunFile,
    file_b: TestRunFile,
    grouped_a: GroupedResults,
    grouped_b: GroupedResults,
}

fn crosscheck_artifacts(
    a_path: &str,
    b_path: &str,
    opts: &CheckOpts,
) -> Result<CheckedPair, String> {
    let a_text =
        std::fs::read_to_string(a_path).map_err(|e| format!("cannot read {a_path}: {e}"))?;
    let b_text =
        std::fs::read_to_string(b_path).map_err(|e| format!("cannot read {b_path}: {e}"))?;
    let fa = TestRunFile::from_json(&a_text).map_err(|e| format!("cannot parse {a_path}: {e}"))?;
    let fb = TestRunFile::from_json(&b_text).map_err(|e| format!("cannot parse {b_path}: {e}"))?;
    if fa.test != fb.test {
        return Err(format!(
            "artifacts are for different tests: '{}' vs '{}'",
            fa.test, fb.test
        ));
    }
    let soft = Soft::new();
    let ga = soft.group_artifact(&fa)?;
    let gb = soft.group_artifact(&fb)?;
    let cfg = CrosscheckConfig {
        solver_budget: opts.budget,
        jobs: opts.jobs.max(1),
        retry_rungs: opts.retry_rungs,
        ..Default::default()
    };
    let result = match &opts.journal {
        None => crosscheck_durable(&ga, &gb, &cfg, None, None),
        Some(jpath) => {
            // The journal is keyed to the exact artifact bytes and solver
            // settings: any change invalidates the recorded verdicts.
            let fp = check_fingerprint(&a_text, &b_text, &check_settings(&cfg));
            let (journal, recovery) =
                SessionJournal::open(jpath, opts.resume, opts.fsync, &fp, 0, 1)
                    .map_err(|e| e.to_string())?;
            let mut seeds = CheckSeeds::new();
            for r in &recovery.verdicts[0] {
                seeds.insert(r.i, r.j, r.verdict.clone(), r.budget);
            }
            let sink = |i: usize, j: usize, verdict: &SatResult, budget: &SolverBudget| {
                journal.record_verdict(0, i, j, verdict, budget)
            };
            let result = crosscheck_durable(&ga, &gb, &cfg, Some(&seeds), Some(&sink));
            if let Some(e) = journal.take_error() {
                return Err(format!("cannot append to {}: {e}", jpath.display()));
            }
            result
        }
    };
    Ok(CheckedPair {
        result,
        file_a: fa,
        file_b: fb,
        grouped_a: ga,
        grouped_b: gb,
    })
}

/// The synopsis lines of subcommand `cmd`.
fn synopsis_lines(cmd: &str) -> impl Iterator<Item = &'static str> {
    let prefix = format!("  soft {cmd} ");
    SYNOPSIS.lines().filter(move |l| l.starts_with(&prefix))
}

/// The flags the synopsis lines of `cmd` list, each with whether it takes
/// a value (`--jobs N`) or stands alone (`--resume`); `None` if `cmd` has
/// no synopsis line.
fn known_flags(cmd: &str) -> Option<Vec<(&'static str, bool)>> {
    let mut lines = synopsis_lines(cmd).peekable();
    lines.peek()?;
    let mut flags = Vec::new();
    for line in lines {
        let mut rest = line;
        while let Some(at) = rest.find("--") {
            rest = &rest[at..];
            let end = rest
                .find(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
                .unwrap_or(rest.len());
            let (flag, after) = rest.split_at(end);
            let takes_value = after
                .strip_prefix(' ')
                .is_some_and(|v| v.starts_with(|c: char| c.is_ascii_alphanumeric() || c == '<'));
            flags.push((flag, takes_value));
            rest = after;
        }
    }
    Some(flags)
}

/// Fail with exit 1, naming the flag, if `args` hold a `--flag` the
/// synopsis of `cmd` does not list (a misspelt flag must not silently
/// fall back to a default).
fn reject_unknown_flags(cmd: &str, args: &[String]) -> Result<(), ExitCode> {
    let Some(known) = known_flags(cmd) else {
        return Ok(());
    };
    let mut i = 0;
    while i < args.len() {
        if args[i].starts_with("--") {
            match known.iter().find(|(flag, _)| *flag == args[i]) {
                Some(&(_, takes_value)) => i += takes_value as usize,
                None => {
                    eprintln!("{cmd}: unknown flag '{}'; usage:", args[i]);
                    for line in synopsis_lines(cmd) {
                        eprintln!("{line}");
                    }
                    return Err(ExitCode::FAILURE);
                }
            }
        }
        i += 1;
    }
    Ok(())
}

/// Collect the non-flag arguments of `cmd`, skipping the values of its
/// flags that take one.
fn positional<'a>(cmd: &str, args: &'a [String]) -> Vec<&'a String> {
    let known = known_flags(cmd).unwrap_or_default();
    let mut out = Vec::new();
    let mut i = 0;
    while i < args.len() {
        if args[i].starts_with("--") {
            let takes_value = known.iter().any(|&(flag, v)| v && flag == args[i]);
            i += takes_value as usize;
        } else {
            out.push(&args[i]);
        }
        i += 1;
    }
    out
}

/// The exit code for a finished crosscheck, by severity: divergences found
/// beats undecided pairs beats truncated inputs beats clean.
fn verdict_exit_code(
    result: &soft::core::CrosscheckResult,
    fa: &TestRunFile,
    fb: &TestRunFile,
) -> ExitCode {
    if !result.inconsistencies.is_empty() {
        // Non-zero exit like a linter: divergences found.
        ExitCode::from(EXIT_INCONSISTENT)
    } else if !result.unverified.is_empty() {
        ExitCode::from(EXIT_UNVERIFIED)
    } else if fa.truncated || fb.truncated {
        ExitCode::from(EXIT_TRUNCATED)
    } else {
        ExitCode::SUCCESS
    }
}

fn cmd_check(args: &[String]) -> ExitCode {
    let common = match common_args("check", args) {
        Ok(c) => c,
        Err(code) => return code,
    };
    let journal = common.journal;
    let paths = positional("check", args);
    if paths.len() != 2 {
        eprintln!("check: expected exactly two artifacts, got {}", paths.len());
        return usage();
    }
    let opts = CheckOpts {
        jobs: common.jobs,
        budget: common.budget,
        retry_rungs: common.retry_rungs,
        journal: journal.enabled.then(|| {
            PathBuf::from(
                journal
                    .path
                    .clone()
                    .unwrap_or_else(|| format!("{}.check.wal", paths[0])),
            )
        }),
        resume: journal.resume,
        fsync: journal.fsync,
    };
    match crosscheck_artifacts(paths[0], paths[1], &opts) {
        Ok(CheckedPair {
            result,
            file_a: fa,
            file_b: fb,
            ..
        }) => {
            println!(
                "{} vs {} on '{}': {} queries, {} inconsistencies, {} unverified",
                fa.agent,
                fb.agent,
                fa.test,
                result.queries,
                result.inconsistencies.len(),
                result.unverified.len()
            );
            if result.resolved_on_retry > 0 {
                println!(
                    "{} pair(s) resolved on budget-escalation retry",
                    result.resolved_on_retry
                );
            }
            if fa.truncated || fb.truncated {
                eprintln!(
                    "check: input artifact(s) truncated — verdict covers part of the input space"
                );
            }
            verdict_exit_code(&result, &fa, &fb)
        }
        Err(e) => {
            eprintln!("check: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The `report --json` solver section: cumulative query statistics of
/// the crosscheck pass, including the incremental-memo counters
/// (assumption probes, clauses loaded into probes, CNF cache hits).
/// `core_prunes`, `learned_retained` and `context_evictions` always read
/// 0 and stay for readers of the section.
fn solver_json(s: &soft::smt::SolverStats) -> Json {
    Json::Object(vec![
        ("queries".into(), Json::UInt(s.queries)),
        (
            "solved_by_simplification".into(),
            Json::UInt(s.solved_by_simplification),
        ),
        ("cache_hits".into(), Json::UInt(s.cache_hits)),
        ("unknown".into(), Json::UInt(s.unknown)),
        ("sat_conflicts".into(), Json::UInt(s.sat_conflicts)),
        ("sat_decisions".into(), Json::UInt(s.sat_decisions)),
        ("sat_propagations".into(), Json::UInt(s.sat_propagations)),
        ("cnf_clauses".into(), Json::UInt(s.cnf_clauses)),
        ("cnf_vars".into(), Json::UInt(s.cnf_vars)),
        ("assumption_probes".into(), Json::UInt(s.assumption_probes)),
        ("probe_unsat".into(), Json::UInt(s.probe_unsat)),
        ("probe_clauses".into(), Json::UInt(s.probe_clauses)),
        ("core_prunes".into(), Json::UInt(s.core_prunes)),
        ("learned_retained".into(), Json::UInt(s.learned_retained)),
        ("cnf_cache_hits".into(), Json::UInt(s.cnf_cache_hits)),
        ("cache_evictions".into(), Json::UInt(s.cache_evictions)),
        ("context_evictions".into(), Json::UInt(s.context_evictions)),
        ("bitblast_ns".into(), Json::UInt(s.bitblast_ns)),
        ("search_ns".into(), Json::UInt(s.search_ns)),
    ])
}

/// The machine-readable witness block of a `report --json` root cause.
fn witness_json(entry: &CorpusEntry) -> Json {
    match &entry.status {
        Status::Confirmed { cluster } => Json::Object(vec![
            ("status".into(), Json::Str("confirmed".into())),
            ("cluster".into(), Json::UInt(*cluster as u64)),
            (
                "msg_types".into(),
                Json::Array(
                    entry
                        .msg_types
                        .iter()
                        .map(|&t| Json::UInt(t as u64))
                        .collect(),
                ),
            ),
            (
                "minimized_bytes".into(),
                Json::UInt(entry.messages().iter().map(|m| m.len() as u64).sum()),
            ),
            (
                "residual_bytes".into(),
                Json::UInt(entry.residual_bytes as u64),
            ),
            (
                "repro".into(),
                Json::Array(
                    entry
                        .messages()
                        .iter()
                        .map(|m| Json::Str(soft::witness::corpus::hex(m)))
                        .collect(),
                ),
            ),
        ]),
        Status::Unconfirmed { reason } => Json::Object(vec![
            ("status".into(), Json::Str("unconfirmed".into())),
            ("reason".into(), Json::Str(reason.clone())),
        ]),
    }
}

fn cmd_report(args: &[String]) -> ExitCode {
    let common = match common_args("report", args) {
        Ok(c) => c,
        Err(code) => return code,
    };
    let seed = common.seed;
    let paths = positional("report", args);
    if paths.len() != 2 {
        eprintln!(
            "report: expected exactly two artifacts, got {}",
            paths.len()
        );
        return usage();
    }
    let do_replay = args.iter().any(|a| a == "--replay");
    // Reporting is a read-only analysis: it honors the retry ladder but
    // never journals.
    let opts = CheckOpts {
        jobs: 1,
        budget: common.budget,
        retry_rungs: common.retry_rungs,
        journal: None,
        resume: false,
        fsync: true,
    };
    let checked = match crosscheck_artifacts(paths[0], paths[1], &opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("report: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (result, fa, fb) = (&checked.result, &checked.file_a, &checked.file_b);
    let test = OF10.find_test(&fa.test);
    let agents = (
        agent_by_name(&OF10, &fa.agent),
        agent_by_name(&OF10, &fb.agent),
    );
    // Distill the witnesses up front (no fuzzing): the report shows the
    // minimized, replay-confirmed reproduction instead of the raw solver
    // model bytes.
    let distilled = match (&test, agents) {
        (Some(test), (Some(a), Some(b))) if !result.inconsistencies.is_empty() => Some(distill(
            test,
            result,
            &checked.grouped_a,
            &checked.grouped_b,
            a,
            b,
            &DistillConfig {
                jobs: 1,
                seed,
                fuzz_tries: 0,
            },
        )),
        _ => None,
    };
    let entry_for = |idx: usize| -> Option<&CorpusEntry> {
        distilled.as_ref().and_then(|r| {
            r.corpus.entries.iter().find(|e| {
                matches!(e.origin, soft::witness::Origin::Distilled { inconsistency }
                    if inconsistency == idx)
            })
        })
    };
    let causes = dedupe(&result.inconsistencies);
    println!(
        "== {} vs {} on '{}': {} inconsistencies, {} root-cause buckets ==",
        fa.agent,
        fb.agent,
        fa.test,
        result.inconsistencies.len(),
        causes.len()
    );
    for cause in &causes {
        let inc = &result.inconsistencies[cause.members[0]];
        let entry = entry_for(cause.members[0]);
        println!(
            "\n[{}] {} instance(s)",
            classify(inc).label(),
            cause.members.len()
        );
        for line in describe(inc).lines().skip(1) {
            // The distilled summary below supersedes the raw model dump.
            if entry.is_some() && line.trim_start().starts_with("witness:") {
                continue;
            }
            println!("{line}");
        }
        match entry {
            Some(e) => match &e.status {
                Status::Confirmed { cluster } => {
                    let minimized: usize = e.messages().iter().map(|m| m.len()).sum();
                    println!(
                        "  witness: cluster {cluster}, msg types {:?}, minimized {minimized} \
                         bytes, residual {}/{} free bytes",
                        e.msg_types, e.residual_bytes, e.free_bytes
                    );
                    for (i, msg) in e.messages().iter().enumerate() {
                        println!("  repro msg{i}: {}", soft::witness::corpus::hex(msg));
                    }
                }
                Status::Unconfirmed { reason } => {
                    println!("  witness: UNCONFIRMED — {reason}");
                    if let Some(test) = &test {
                        // Fall back to the raw model bytes: an unconfirmed
                        // witness is still reported, never dropped.
                        for (i, msg) in reproduce(test, inc).iter().enumerate() {
                            let hex: String = msg.iter().map(|b| format!("{b:02x}")).collect();
                            println!("  repro msg{i} (unconfirmed model): {hex}");
                        }
                    }
                }
            },
            None => {
                if let Some(test) = &test {
                    for (i, msg) in reproduce(test, inc).iter().enumerate() {
                        let hex: String = msg.iter().map(|b| format!("{b:02x}")).collect();
                        println!("  repro msg{i}: {hex}");
                    }
                }
            }
        }
        if do_replay {
            if let (Some(test), (Some(a), Some(b))) = (&test, agents) {
                let r = replay(test, inc, a, b);
                println!(
                    "  replay: diverges={} matches_prediction={}",
                    r.diverges(),
                    r.matches_prediction()
                );
            } else {
                println!("  replay: unknown test or agent ids; skipped");
            }
        }
    }
    if let Some(json_path) = flag_value(args, "--json") {
        // Machine-readable report. Format 2: adds the distilled `witness`
        // block per root cause; format-1 consumers that ignore unknown
        // fields keep working (kind/signature/instances are unchanged).
        let causes_json: Vec<Json> = causes
            .iter()
            .map(|cause| {
                let mut fields = vec![
                    ("kind".into(), Json::Str(cause.kind.label().into())),
                    ("signature".into(), Json::Str(cause.signature.clone())),
                    ("instances".into(), Json::UInt(cause.members.len() as u64)),
                ];
                if let Some(e) = entry_for(cause.members[0]) {
                    fields.push(("witness".into(), witness_json(e)));
                }
                Json::Object(fields)
            })
            .collect();
        let mut report_fields = vec![
            ("format".into(), Json::UInt(2)),
            ("agent_a".into(), Json::Str(fa.agent.clone())),
            ("agent_b".into(), Json::Str(fb.agent.clone())),
            ("test".into(), Json::Str(fa.test.clone())),
            (
                "inconsistencies".into(),
                Json::UInt(result.inconsistencies.len() as u64),
            ),
            (
                "unverified".into(),
                Json::UInt(result.unverified.len() as u64),
            ),
            ("solver".into(), solver_json(&result.solver)),
            ("root_causes".into(), Json::Array(causes_json)),
        ];
        // `--store DIR` folds the serve daemon's store-wide counters
        // (jobs served, store hits, pairs skipped via diff, queue
        // depth, per-phase latency) into the machine-readable report.
        if let Some(store) = flag_value(args, "--store") {
            let stats_path = Path::new(&store).join("serve_stats.json");
            match std::fs::read_to_string(&stats_path)
                .map_err(|e| e.to_string())
                .and_then(|t| soft::harness::json::parse(&t))
            {
                Ok(stats) => report_fields.push(("serve".into(), stats)),
                Err(e) => {
                    eprintln!("report: cannot read {}: {e}", stats_path.display());
                    return ExitCode::FAILURE;
                }
            }
        }
        let report_json = Json::Object(report_fields);
        if let Err(e) = atomic_write(
            Path::new(&json_path),
            report_json.to_string().as_bytes(),
            true,
        ) {
            eprintln!("report: cannot write {json_path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("\n{json_path}");
    }
    if !result.unverified.is_empty() {
        println!(
            "\n== {} pair(s) UNVERIFIED within the solver budget ==",
            result.unverified.len()
        );
        for uv in &result.unverified {
            println!();
            for line in describe_unverified(uv).lines() {
                println!("{line}");
            }
        }
    }
    verdict_exit_code(result, fa, fb)
}

fn cmd_distill(args: &[String]) -> ExitCode {
    let common = match common_args("distill", args) {
        Ok(c) => c,
        Err(code) => return code,
    };
    let (jobs, seed, fuzz_tries, journal) = (common.jobs, common.seed, common.fuzz, common.journal);
    let Some(out) = flag_value(args, "--out") else {
        eprintln!("distill: missing --out");
        return usage();
    };
    let paths = positional("distill", args);
    if paths.len() != 2 {
        eprintln!(
            "distill: expected exactly two artifacts, got {}",
            paths.len()
        );
        return usage();
    }
    if let Err(e) = create_out_dir(&out) {
        eprintln!("distill: {e}");
        return ExitCode::FAILURE;
    }
    let opts = CheckOpts {
        jobs,
        budget: common.budget,
        retry_rungs: common.retry_rungs,
        journal: journal.enabled.then(|| {
            PathBuf::from(
                journal
                    .path
                    .clone()
                    .unwrap_or_else(|| format!("{}.check.wal", paths[0])),
            )
        }),
        resume: journal.resume,
        fsync: journal.fsync,
    };
    let checked = match crosscheck_artifacts(paths[0], paths[1], &opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("distill: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (result, fa, fb) = (&checked.result, &checked.file_a, &checked.file_b);
    let Some(test) = OF10.find_test(&fa.test) else {
        eprintln!("distill: unknown test '{}' (see `soft tests`)", fa.test);
        return ExitCode::FAILURE;
    };
    let (Some(a), Some(b)) = (
        agent_by_name(&OF10, &fa.agent),
        agent_by_name(&OF10, &fb.agent),
    ) else {
        eprintln!(
            "distill: unknown agent ids '{}'/'{}' — cannot replay",
            fa.agent, fb.agent
        );
        return ExitCode::FAILURE;
    };
    let report = distill(
        &test,
        result,
        &checked.grouped_a,
        &checked.grouped_b,
        a,
        b,
        &DistillConfig {
            jobs,
            seed,
            fuzz_tries,
        },
    );
    let s = &report.stats;
    println!(
        "{} vs {} on '{}': {} witness(es) -> {} confirmed, {} unconfirmed, {} fuzz-added, {} root-cause cluster(s)",
        fa.agent, fb.agent, fa.test, s.witnesses, s.confirmed, s.unconfirmed, s.fuzz_added, s.clusters
    );
    println!(
        "  {} replay pair(s); free bytes minimized {} -> {} residual",
        s.replays, s.free_bytes, s.residual_bytes
    );
    for c in report.corpus.clusters() {
        println!(
            "  cluster {}: [{}] {} — {} witness(es)",
            c.id, c.kind, c.signature, c.members
        );
    }
    for (i, e) in report.corpus.entries.iter().enumerate() {
        if let Status::Unconfirmed { reason } = &e.status {
            println!("  unconfirmed #{i}: {reason}");
        }
    }
    if let Err(e) = report.corpus.save(Path::new(&out), journal.fsync) {
        eprintln!("distill: cannot write {out}: {e}");
        return ExitCode::FAILURE;
    }
    println!("{out}");
    verdict_exit_code(result, fa, fb)
}

fn cmd_repro(args: &[String]) -> ExitCode {
    let common = match common_args("repro", args) {
        Ok(c) => c,
        Err(code) => return code,
    };
    let jobs = common.jobs;
    let paths = positional("repro", args);
    if paths.len() != 1 {
        eprintln!(
            "repro: expected exactly one corpus file, got {}",
            paths.len()
        );
        return usage();
    }
    let corpus = match Corpus::load(Path::new(paths[0])) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("repro: {e}");
            return ExitCode::FAILURE;
        }
    };
    let proto = match corpus_protocol("repro", &corpus) {
        Ok(p) => p,
        Err(code) => return code,
    };
    let (Some(a), Some(b)) = (
        agent_by_name(proto, &corpus.agent_a),
        agent_by_name(proto, &corpus.agent_b),
    ) else {
        eprintln!(
            "repro: unknown agent ids '{}'/'{}' in corpus (protocol {})",
            corpus.agent_a,
            corpus.agent_b,
            proto.id()
        );
        return ExitCode::FAILURE;
    };
    let outcomes = reproduce_corpus(&corpus, a, b, jobs);
    let confirmed = outcomes.len();
    let skipped = corpus.entries.len() - confirmed;
    let mut failures = 0usize;
    for (idx, outcome) in &outcomes {
        match outcome {
            Ok(()) => println!(
                "witness #{idx}: reproduces [{}] {}",
                corpus.entries[*idx].kind, corpus.entries[*idx].signature
            ),
            Err(e) => {
                failures += 1;
                println!("witness #{idx}: FAILED — {e}");
            }
        }
    }
    println!(
        "{} vs {} on '{}': {}/{confirmed} confirmed witness(es) reproduce ({skipped} unconfirmed entr{} skipped)",
        corpus.agent_a,
        corpus.agent_b,
        corpus.test,
        confirmed - failures,
        if skipped == 1 { "y" } else { "ies" }
    );
    if failures > 0 {
        ExitCode::from(EXIT_INCONSISTENT)
    } else {
        ExitCode::SUCCESS
    }
}

/// Build the conform replay config from CLI flags.
fn conform_config(args: &[String]) -> Result<ReplayConfig, String> {
    let mut cfg = ReplayConfig::new(seed_flag(args)?);
    if let Some(v) = flag_value(args, "--retries") {
        match v.parse::<u32>() {
            Ok(n) if n >= 1 => {
                cfg.attempts = n;
                cfg.backoff.attempts = n;
            }
            _ => return Err(format!("--retries must be a positive integer, got '{v}'")),
        }
    }
    if let Some(v) = flag_value(args, "--op-timeout-ms") {
        match v.parse::<u64>() {
            Ok(n) if n >= 1 => cfg.op_timeout = std::time::Duration::from_millis(n),
            _ => {
                return Err(format!(
                    "--op-timeout-ms must be a positive millisecond count, got '{v}'"
                ))
            }
        }
    }
    Ok(cfg)
}

fn print_conform_report(report: &ConformReport) {
    let c = report.counts();
    println!(
        "conform: {} vs {} on '{}' against {}",
        report.agent_a, report.agent_b, report.test, report.dut
    );
    println!("  classification: {}", report.classification());
    println!(
        "  verdicts: matches_a={} matches_b={} matches_both={} novel={} flaky={} unreachable={} skipped={}",
        c.matches_a, c.matches_b, c.matches_both, c.novel, c.flaky, c.unreachable, c.skipped
    );
    // Per-cluster rollup over confirmed witnesses.
    let mut clusters: std::collections::BTreeMap<usize, Vec<&'static str>> = Default::default();
    for w in &report.witnesses {
        if let Some(cl) = w.cluster {
            clusters.entry(cl).or_default().push(w.verdict.name());
        }
    }
    for (cl, verdicts) in &clusters {
        let mut counts: std::collections::BTreeMap<&str, usize> = Default::default();
        for v in verdicts {
            *counts.entry(v).or_default() += 1;
        }
        let parts: Vec<String> = counts.iter().map(|(v, n)| format!("{v}={n}")).collect();
        println!("  cluster {cl}: {}", parts.join(" "));
    }
    for w in &report.witnesses {
        match w.verdict {
            Verdict::Novel => println!(
                "  witness #{}: NOVEL — observed {} (expected A {} / B {})",
                w.index,
                w.observed.as_deref().unwrap_or("-"),
                w.expected_a,
                w.expected_b
            ),
            Verdict::Flaky | Verdict::Unreachable => println!(
                "  witness #{}: {} after {} attempts — {}",
                w.index,
                w.verdict.name(),
                w.attempts,
                w.detail.last().map(String::as_str).unwrap_or("no detail")
            ),
            Verdict::Skipped => println!(
                "  witness #{}: skipped — {}",
                w.index,
                w.detail.first().map(String::as_str).unwrap_or("no reason")
            ),
            _ => {}
        }
    }
}

fn conform_exit(report: &ConformReport) -> ExitCode {
    match report.exit_class() {
        ExitClass::Unreachable => ExitCode::from(EXIT_UNREACHABLE),
        ExitClass::Novel => ExitCode::from(EXIT_INCONSISTENT),
        ExitClass::Flaky => ExitCode::from(EXIT_UNVERIFIED),
        ExitClass::Clean => ExitCode::SUCCESS,
    }
}

fn cmd_conform(args: &[String]) -> ExitCode {
    let paths = positional("conform", args);
    if paths.len() != 1 {
        eprintln!(
            "conform: expected exactly one corpus file, got {}",
            paths.len()
        );
        return usage();
    }
    let corpus = match Corpus::load(Path::new(paths[0])) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("conform: {e}");
            return ExitCode::FAILURE;
        }
    };
    let cfg = match conform_config(args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("conform: {e}");
            return usage();
        }
    };
    let mut fault_seeds = Vec::new();
    for v in flag_values(args, "--fault-seed") {
        match parse_u64(&v) {
            Ok(s) => fault_seeds.push(s),
            Err(e) => {
                eprintln!("conform: --fault-seed: {e}");
                return usage();
            }
        }
    }
    let self_test = args.iter().any(|a| a == "--self-test");
    let addr = flag_value(args, "--addr");
    let proto = match corpus_protocol("conform", &corpus) {
        Ok(p) => p,
        Err(code) => return code,
    };

    if self_test && addr.is_none() {
        let st = match loopback_self_test_with(proto, &corpus, &fault_seeds, &cfg) {
            Ok(st) => st,
            Err(e) => {
                eprintln!("conform: self-test: {e}");
                return ExitCode::FAILURE;
            }
        };
        for line in &st.summary {
            println!("conform self-test: {line}");
        }
        if let Some(json_path) = flag_value(args, "--json") {
            let j = Json::Object(vec![
                ("passed".into(), Json::Bool(st.passed())),
                (
                    "failures".into(),
                    Json::Array(st.failures.iter().map(|f| Json::Str(f.clone())).collect()),
                ),
                ("side_a".into(), st.report_a.to_json()),
                ("side_b".into(), st.report_b.to_json()),
            ]);
            if let Err(e) = atomic_write(Path::new(&json_path), j.to_string().as_bytes(), true) {
                eprintln!("conform: writing {json_path}: {e}");
                return ExitCode::FAILURE;
            }
        }
        return if st.passed() {
            println!("conform self-test: PASS");
            ExitCode::SUCCESS
        } else {
            for f in &st.failures {
                eprintln!("conform self-test: FAIL — {f}");
            }
            ExitCode::FAILURE
        };
    }

    let Some(addr) = addr else {
        eprintln!("conform: pass exactly one of --addr HOST:PORT or --self-test");
        return usage();
    };
    if self_test {
        eprintln!("conform: --addr and --self-test are mutually exclusive");
        return usage();
    }
    let connect_timeout = cfg.op_timeout.max(std::time::Duration::from_secs(1));
    let mut conn = TcpConnector::new(&addr, connect_timeout);
    let report = match run_conform_with(proto, &corpus, &mut conn, &cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("conform: {e}");
            return ExitCode::FAILURE;
        }
    };
    print_conform_report(&report);
    // Chaos passes: each fault seed must reproduce the clean verdicts.
    let mut mismatch = false;
    for &seed in &fault_seeds {
        let inner: Box<dyn Connector> = Box::new(TcpConnector::new(&addr, connect_timeout));
        let mut faulty = FaultyConnector::with_dialect(inner, seed, proto.dialect());
        match run_conform_with(proto, &corpus, &mut faulty, &cfg) {
            Ok(r2) if r2.verdict_fingerprint() == report.verdict_fingerprint() => {
                println!("conform: fault seed {seed:#x} reproduced the clean verdicts exactly");
            }
            Ok(_) => {
                mismatch = true;
                eprintln!(
                    "conform: fault seed {seed:#x} CHANGED verdicts — harness not fault-tolerant"
                );
            }
            Err(e) => {
                mismatch = true;
                eprintln!("conform: fault seed {seed:#x}: {e}");
            }
        }
    }
    if let Some(json_path) = flag_value(args, "--json") {
        if let Err(e) = atomic_write(
            Path::new(&json_path),
            report.to_json().to_string().as_bytes(),
            true,
        ) {
            eprintln!("conform: writing {json_path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    if mismatch {
        ExitCode::FAILURE
    } else {
        conform_exit(&report)
    }
}

fn cmd_conform_dut(args: &[String]) -> ExitCode {
    let proto = match parse_protocol("conform-dut", args) {
        Ok(p) => p,
        Err(code) => return code,
    };
    let Some(agent_str) = flag_value(args, "--agent") else {
        eprintln!("conform-dut: --agent is required");
        return usage();
    };
    let Some(kind) = agent_by_name(proto, &agent_str) else {
        eprintln!(
            "conform-dut: unknown agent '{agent_str}' (protocol {}, known: {})",
            proto.id(),
            proto.agent_ids().join(", ")
        );
        return usage();
    };
    let port: u16 = match flag_value(args, "--port") {
        None => 0,
        Some(v) => match v.parse() {
            Ok(p) => p,
            Err(_) => {
                eprintln!("conform-dut: --port must be a port number, got '{v}'");
                return usage();
            }
        },
    };
    let dut = match LoopbackDut::spawn_on(kind, port) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("conform-dut: bind: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("conform-dut: serving {} on {}", kind.id(), dut.addr());
    // Serve until killed; the listener thread owns all the work.
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}

fn cmd_regress(args: &[String]) -> ExitCode {
    let paths = positional("regress", args);
    if paths.len() != 2 {
        eprintln!(
            "regress: expected exactly two artifacts, got {}",
            paths.len()
        );
        return usage();
    }
    let (fa, fb) = match (load_artifact(paths[0]), load_artifact(paths[1])) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("regress: {e}");
            return ExitCode::FAILURE;
        }
    };
    if fa.test != fb.test {
        eprintln!("regress: artifacts are for different tests");
        return ExitCode::FAILURE;
    }
    let soft = Soft::new();
    let (ga, gb) = match (soft.group_artifact(&fa), soft.group_artifact(&fb)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("regress: {e}");
            return ExitCode::FAILURE;
        }
    };
    let report = soft::core::regression::regression_check(
        &ga,
        &gb,
        &soft::core::CrosscheckConfig::default(),
    );
    println!(
        "baseline {} vs candidate {} on '{}': +{} output classes, -{} classes, {} shifted subspaces",
        fa.agent,
        fb.agent,
        fa.test,
        report.new_outputs.len(),
        report.removed_outputs.len(),
        report.shifts.len()
    );
    for shift in report.shifts.iter().take(5) {
        for line in describe(shift).lines() {
            println!("  {line}");
        }
    }
    if report.is_clean() {
        println!("clean");
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    }
}

/// The audit daemon: accept jobs over TCP, answer unchanged re-audits
/// from the persistent store, diff-seed changed ones.
fn cmd_serve(args: &[String]) -> ExitCode {
    let Some(store) = flag_value(args, "--store") else {
        eprintln!("serve: missing --store");
        return usage();
    };
    let port = match flag_value(args, "--port") {
        None => 0u16,
        Some(v) => match v.parse::<u16>() {
            Ok(p) => p,
            Err(_) => {
                eprintln!("serve: --port must be a TCP port, got '{v}'");
                return usage();
            }
        },
    };
    let workers = match jobs_flag(args) {
        Ok(n) => n,
        Err(e) => {
            eprintln!("serve: {e}");
            return usage();
        }
    };
    let cfg = soft::ServeConfig {
        store: PathBuf::from(store),
        port,
        workers,
        fsync: !args.iter().any(|a| a == "--no-fsync"),
    };
    match soft::serve(&cfg) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("serve: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Resolve the daemon address: `--addr HOST:PORT` directly, or the
/// `addr` file a daemon publishes under `--store DIR`.
fn serve_addr(args: &[String]) -> Result<String, String> {
    if let Some(addr) = flag_value(args, "--addr") {
        return Ok(addr);
    }
    let Some(store) = flag_value(args, "--store") else {
        return Err("missing --addr HOST:PORT (or --store DIR to read its addr file)".to_string());
    };
    let path = Path::new(&store).join("addr");
    std::fs::read_to_string(&path)
        .map(|s| s.trim().to_string())
        .map_err(|e| format!("cannot read {}: {e}", path.display()))
}

/// Submit one audit job (or a status/drain request) to a running daemon.
fn cmd_submit(args: &[String]) -> ExitCode {
    let addr = match serve_addr(args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("submit: {e}");
            return usage();
        }
    };
    if args.iter().any(|a| a == "--status") {
        return match soft::serve::request(&addr, &soft::harness::proto::status_request()) {
            Ok(reply) => {
                println!("{reply}");
                // `--json FILE` persists the exact status object — the
                // same counter set the daemon writes to
                // `serve_stats.json` on drain.
                if let Some(json_path) = flag_value(args, "--json") {
                    if let Err(e) =
                        atomic_write(Path::new(&json_path), reply.to_string().as_bytes(), true)
                    {
                        eprintln!("submit: cannot write {json_path}: {e}");
                        return ExitCode::FAILURE;
                    }
                    println!("{json_path}");
                }
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("submit: {e}");
                ExitCode::FAILURE
            }
        };
    }
    if args.iter().any(|a| a == "--drain") {
        return match soft::serve::request(&addr, &soft::harness::proto::drain_request()) {
            Ok(_) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("submit: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let common = match common_args("submit", args) {
        Ok(c) => c,
        Err(code) => return code,
    };
    let proto = match parse_protocol("submit", args) {
        Ok(p) => p,
        Err(code) => return code,
    };
    let Some(agents_arg) = flag_value(args, "--agents") else {
        eprintln!("submit: missing --agents (e.g. --agents reference,ovs)");
        return usage();
    };
    let parts: Vec<&str> = agents_arg.split(',').collect();
    if parts.len() != 2
        || agent_by_name(proto, parts[0]).is_none()
        || agent_by_name(proto, parts[1]).is_none()
    {
        eprintln!(
            "submit: --agents takes two known agents, got '{agents_arg}' (protocol {}, known: {})",
            proto.id(),
            proto.agent_ids().join(", ")
        );
        return usage();
    }
    let Some(test) = flag_value(args, "--test") else {
        eprintln!("submit: missing --test");
        return usage();
    };
    if proto.find_test(&test).is_none() {
        eprintln!("submit: unknown --test '{test}' (see `soft tests`)");
        return usage();
    }
    let spec = soft::harness::JobSpec {
        protocol: proto.id().to_string(),
        agent_a: parts[0].to_string(),
        agent_b: parts[1].to_string(),
        test,
        seed: common.seed,
        budget_conflicts: common.budget.max_conflicts,
        fuzz: common.fuzz as u64,
        retry_rungs: common.retry_rungs as u64,
        fp_a: flag_value(args, "--fp-a"),
        fp_b: flag_value(args, "--fp-b"),
    };
    let reply = match soft::serve::request(&addr, &spec.to_json()) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("submit: {e}");
            return ExitCode::FAILURE;
        }
    };
    if reply.field("type").and_then(Json::as_str) != Ok("result") {
        eprintln!("submit: server error: {reply}");
        return ExitCode::FAILURE;
    }
    let summary = reply.field("summary").cloned().unwrap_or(Json::Null);
    let s_u64 = |k: &str| summary.field(k).and_then(Json::as_u64).unwrap_or(0);
    let r_u64 = |k: &str| reply.field(k).and_then(Json::as_u64).unwrap_or(0);
    let store_hit = reply
        .field("store_hit")
        .and_then(Json::as_bool)
        .unwrap_or(false);
    println!(
        "{}: {} inconsistencies, {} unverified, {} confirmed witness(es){}; {} of {} pair(s) diff-seeded, {} solver queries",
        spec.test,
        s_u64("inconsistencies"),
        s_u64("unverified"),
        s_u64("confirmed"),
        if store_hit { " (store hit)" } else { "" },
        r_u64("seeded_pairs"),
        s_u64("pairs_total"),
        r_u64("check_queries"),
    );
    // `--out PREFIX` writes the returned artifacts exactly as a local
    // `soft run` would have published them.
    if let Some(out) = flag_value(args, "--out") {
        let write = |path: String, field: &str| -> Result<(), String> {
            let text = reply
                .field(field)
                .and_then(Json::as_str)
                .map_err(|e| format!("missing {field}: {e}"))?;
            atomic_write(Path::new(&path), text.as_bytes(), true)
                .map_err(|e| format!("cannot write {path}: {e}"))?;
            println!("{path}");
            Ok(())
        };
        let res = write(
            format!("{out}{}_{}.json", spec.agent_a, spec.test),
            "artifact_a",
        )
        .and_then(|()| {
            write(
                format!("{out}{}_{}.json", spec.agent_b, spec.test),
                "artifact_b",
            )
        })
        .and_then(|()| write(format!("{out}corpus_{}.json", spec.test), "corpus"));
        if let Err(e) = res {
            eprintln!("submit: {e}");
            return ExitCode::FAILURE;
        }
    }
    if let Some(json_path) = flag_value(args, "--json") {
        if let Err(e) = atomic_write(Path::new(&json_path), reply.to_string().as_bytes(), true) {
            eprintln!("submit: cannot write {json_path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("{json_path}");
    }
    let truncated = summary
        .field("truncated")
        .and_then(Json::as_bool)
        .unwrap_or(false);
    if s_u64("inconsistencies") > 0 {
        ExitCode::from(EXIT_INCONSISTENT)
    } else if s_u64("unverified") > 0 {
        ExitCode::from(EXIT_UNVERIFIED)
    } else if truncated {
        ExitCode::from(EXIT_TRUNCATED)
    } else {
        ExitCode::SUCCESS
    }
}

/// The fleet front-end: shard submitted jobs over serve back-ends on a
/// consistent-hash ring, with work-stealing, replication and failover.
fn cmd_route(args: &[String]) -> ExitCode {
    let Some(backends_arg) = flag_value(args, "--backends") else {
        eprintln!("route: missing --backends HOST:PORT,HOST:PORT,...");
        return usage();
    };
    let backends: Vec<String> = backends_arg
        .split(',')
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .collect();
    if backends.is_empty() {
        eprintln!("route: --backends needs at least one HOST:PORT");
        return usage();
    }
    let port = match flag_value(args, "--port") {
        None => 0u16,
        Some(v) => match v.parse::<u16>() {
            Ok(p) => p,
            Err(_) => {
                eprintln!("route: --port must be a TCP port, got '{v}'");
                return usage();
            }
        },
    };
    let parse_u32 = |flag: &str, default: u32, min: u32| -> Result<u32, String> {
        match flag_value(args, flag) {
            None => Ok(default),
            Some(v) => match v.parse::<u32>() {
                Ok(n) if n >= min => Ok(n),
                _ => Err(format!("{flag} must be an integer >= {min}, got '{v}'")),
            },
        }
    };
    let vnodes = match parse_u32("--vnodes", 64, 1) {
        Ok(n) => n,
        Err(e) => {
            eprintln!("route: {e}");
            return usage();
        }
    };
    let replicas = match parse_u32("--replicas", 1, 0) {
        Ok(n) => n,
        Err(e) => {
            eprintln!("route: {e}");
            return usage();
        }
    };
    let cfg = soft::RouterConfig {
        port,
        backends,
        vnodes,
        replicas,
        addr_file: flag_value(args, "--addr-file").map(PathBuf::from),
    };
    match soft::run_router(&cfg) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("route: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Query a running router's topology: per-back-end health, queue
/// depths, and the router's own routing counters.
fn cmd_fleet(args: &[String]) -> ExitCode {
    let addr = if let Some(addr) = flag_value(args, "--addr") {
        addr
    } else if let Some(path) = flag_value(args, "--addr-file") {
        match std::fs::read_to_string(&path) {
            Ok(s) => s.trim().to_string(),
            Err(e) => {
                eprintln!("fleet: cannot read {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        eprintln!("fleet: missing --addr HOST:PORT (or --addr-file FILE)");
        return usage();
    };
    let reply = match soft::serve::request(&addr, &soft::fleet::fleet_request()) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("fleet: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("{reply}");
    if let Some(json_path) = flag_value(args, "--json") {
        if let Err(e) = atomic_write(Path::new(&json_path), reply.to_string().as_bytes(), true) {
            eprintln!("fleet: cannot write {json_path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("{json_path}");
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().map(String::as_str);
    // One-shot commands end quietly when their stdout reader goes away
    // (`soft tests | head`); servers keep SIGPIPE ignored so a peer that
    // hangs up cannot kill them.
    if !matches!(cmd, Some("serve" | "route" | "conform-dut")) {
        soft::default_sigpipe();
    }
    if let Some(cmd) = cmd {
        if let Err(code) = reject_unknown_flags(cmd, &args[1..]) {
            return code;
        }
    }
    match cmd {
        Some("tests") => cmd_tests(&args[1..]),
        Some("run") => cmd_run(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("route") => cmd_route(&args[1..]),
        Some("fleet") => cmd_fleet(&args[1..]),
        Some("submit") => cmd_submit(&args[1..]),
        Some("phase1") => cmd_phase1(&args[1..]),
        Some("check") => cmd_check(&args[1..]),
        Some("report") => cmd_report(&args[1..]),
        Some("distill") => cmd_distill(&args[1..]),
        Some("repro") => cmd_repro(&args[1..]),
        Some("conform") => cmd_conform(&args[1..]),
        Some("conform-dut") => cmd_conform_dut(&args[1..]),
        Some("regress") => cmd_regress(&args[1..]),
        _ => usage(),
    }
}
