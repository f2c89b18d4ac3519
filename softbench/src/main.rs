//! `softbench` — the repository benchmark.
//!
//! ```text
//! softbench --workload <interop_audit|eth_audit|serve_mix|conform_replay>
//!           [--seed S] [--seconds N] [--trace 0|1] [--expected FILE]
//! ```
//!
//! One run sets up the workload, measures it for about `--seconds`,
//! checks every output against the oracle, prints each metric by name
//! with its unit and sample count, and ends with one JSON line:
//! `{"correct", "attempted", "failed", "metrics"}`. Untraced runs report
//! the end-to-end metrics; `--trace 1` reports the per-layer metrics,
//! prints each layer's self time and writes the spans as Chrome
//! trace-event JSON under `.bench_work/`. Any oracle mismatch makes the
//! run exit 1. See `README.md` for the metrics and workloads.

mod audit;
mod conform;
mod mix;
mod oracle;
mod proc;
mod serve_mix;
mod stats;
mod trace;

use oracle::Expected;
use soft_harness::json::Json;
use stats::{metric_line, Metrics};
use std::path::PathBuf;
use std::process::ExitCode;
use trace::Recorder;

/// End-to-end metrics, printed by every untraced run: (name, unit).
const END_TO_END: &[(&str, &str)] = &[("pass_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s")];

/// Per-layer metrics, printed by every traced run: (name, unit). A layer
/// a workload does not exercise reads 0 with no samples.
const PER_LAYER: &[(&str, &str)] = &[
    ("sym.explore_s", "s"),
    ("sym.paths", "count"),
    ("harness.json_encode_s", "s"),
    ("harness.json_parse_s", "s"),
    ("harness.artifact_mb", "MB"),
    ("harness.atomic_write_s", "s"),
    ("harness.journal_s", "s"),
    ("harness.journal_mb", "MB"),
    ("harness.store_lookup_ms", "ms"),
    ("harness.store_publish_ms", "ms"),
    ("core.group_s", "s"),
    ("core.groups", "count"),
    ("core.crosscheck_s", "s"),
    ("core.pairs", "count"),
    ("core.pairs_per_s", "1/s"),
    ("core.diff_s", "s"),
    ("core.seeded_frac", "ratio"),
    ("smt.queries", "count"),
    ("smt.simplified_frac", "ratio"),
    ("smt.cache_hit_frac", "ratio"),
    ("smt.bitblast_worker_s", "s"),
    ("smt.search_worker_s", "s"),
    ("smt.sat_conflicts", "count"),
    ("smt.probe_unsat_frac", "ratio"),
    ("smt.core_prunes", "count"),
    ("smt.cnf_cache_hits", "count"),
    ("smt.learned_retained", "count"),
    ("smt.evictions", "count"),
    ("witness.draft_worker_s", "s"),
    ("witness.assemble_s", "s"),
    ("witness.replays_per_witness", "ratio"),
    ("witness.confirmed_frac", "ratio"),
    ("witness.fuzz_added", "count"),
    ("serve.hit_p50_ms", "ms"),
    ("serve.hit_p90_ms", "ms"),
    ("serve.diff_p50_ms", "ms"),
    ("serve.cold_p50_ms", "ms"),
    ("serve.jobs_per_s", "1/s"),
    ("serve.lookup_ms_per_job", "ms"),
    ("serve.solve_ms_per_job", "ms"),
    ("serve.publish_ms_per_job", "ms"),
    ("serve.store_hit_frac", "ratio"),
    ("serve.reply_mb", "MB"),
    ("serve.rss_growth_mb_per_cycle", "MB"),
    ("conform.handshake_p50_ms", "ms"),
    ("conform.replay_p50_ms", "ms"),
    ("conform.replay_p90_ms", "ms"),
    ("session.overlap_frac", "ratio"),
];

/// Where runs keep their scratch files and traces, relative to the
/// directory the benchmark runs from.
const WORK_DIR: &str = ".bench_work";

const USAGE: &str =
    "usage: softbench --workload <interop_audit|eth_audit|serve_mix|conform_replay> \
                     [--seed S] [--seconds N] [--trace 0|1] [--expected FILE]";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    InteropAudit,
    EthAudit,
    ServeMix,
    ConformReplay,
}

impl Workload {
    const ALL: [(&'static str, Workload); 4] = [
        ("interop_audit", Workload::InteropAudit),
        ("eth_audit", Workload::EthAudit),
        ("serve_mix", Workload::ServeMix),
        ("conform_replay", Workload::ConformReplay),
    ];

    fn name(self) -> &'static str {
        Workload::ALL
            .iter()
            .find(|(_, w)| *w == self)
            .map(|(n, _)| *n)
            .expect("every workload is listed")
    }
}

/// Everything a workload needs to run.
pub struct Ctx {
    /// The `soft` binary under test.
    pub soft: PathBuf,
    /// This run's scratch directory (removed at the end).
    pub work: PathBuf,
    /// Workload seed; audits pass it to `soft run --seed`.
    pub seed: u64,
    /// Measurement time.
    pub seconds: f64,
    /// The correctness oracle.
    pub expected: Expected,
    /// Span recorder of a traced run.
    pub trace: Option<Recorder>,
}

/// What a workload run produced.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted: tests audited, jobs served, sides classified.
    pub attempted: u64,
    /// One message per failed operation.
    pub failures: Vec<String>,
    /// Measured metric values.
    pub metrics: Metrics,
    /// Further human-readable result lines.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Record a failed operation.
    pub fn fail(&mut self, msg: impl Into<String>) {
        self.failures.push(msg.into());
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    expected: Option<PathBuf>,
}

fn parse_u64(v: &str) -> Option<u64> {
    match v.strip_prefix("0x").or_else(|| v.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => v.parse().ok(),
    }
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: Workload::InteropAudit,
        seed: soft_witness::DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        expected: None,
    };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => {
                workload = Workload::ALL
                    .iter()
                    .find(|(n, _)| *n == value)
                    .map(|(_, w)| *w);
                if workload.is_none() {
                    return Err(format!("unknown workload '{value}'"));
                }
            }
            "--seed" => parsed.seed = parse_u64(value).ok_or(format!("bad --seed '{value}'"))?,
            "--seconds" => {
                parsed.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .ok_or(format!("bad --seconds '{value}'"))?
            }
            "--trace" => {
                parsed.trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got '{value}'")),
                }
            }
            "--expected" => parsed.expected = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    parsed.workload = workload.ok_or("missing --workload")?;
    Ok(parsed)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("softbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("softbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Run one workload and print its report; `Ok(correct)`.
fn run(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate own binary: {e}"))?;
    let soft = exe.with_file_name("soft");
    if !soft.is_file() {
        return Err(format!(
            "{} not found; build the softbench package",
            soft.display()
        ));
    }
    let expected = match &args.expected {
        Some(path) => Expected::load(path)?,
        None => Expected::committed(),
    };
    let name = args.workload.name();
    let work = PathBuf::from(WORK_DIR).join(format!("{name}-{}", std::process::id()));
    std::fs::create_dir_all(&work).map_err(|e| format!("create {}: {e}", work.display()))?;
    let ctx = Ctx {
        soft,
        work,
        seed: args.seed,
        seconds: args.seconds,
        expected,
        trace: args.trace.then(Recorder::default),
    };
    println!(
        "softbench: workload {name}, seed {:#x}, {} s, trace {}",
        ctx.seed,
        ctx.seconds,
        if args.trace { "on" } else { "off" }
    );
    let mut outcome = match args.workload {
        Workload::InteropAudit => audit::run(&ctx, &audit::INTEROP),
        Workload::EthAudit => audit::run(&ctx, &audit::ETH),
        Workload::ServeMix => serve_mix::run(&ctx),
        Workload::ConformReplay => conform::run(&ctx),
    };
    let _ = std::fs::remove_dir_all(&ctx.work);
    if let Some(rec) = &ctx.trace {
        print_trace(rec, name, ctx.seed)?;
    }
    for note in &outcome.notes {
        println!("{note}");
    }
    let list = if args.trace { PER_LAYER } else { END_TO_END };
    let mut values = Vec::new();
    for &(metric, unit) in list {
        let (value, n) = match outcome.metrics.get(metric) {
            Some(v) => v,
            None if args.trace => (0.0, 0),
            None => {
                outcome.fail(format!("{metric} was not measured"));
                (0.0, 0)
            }
        };
        println!("{}", metric_line(metric, value, unit, n));
        values.push((
            metric.to_string(),
            Json::Object(vec![
                ("value".to_string(), Json::Float(value)),
                ("unit".to_string(), Json::Str(unit.to_string())),
            ]),
        ));
    }
    let failed = outcome.failures.len() as u64;
    let attempted = outcome.attempted.max(failed).max(1);
    println!(
        "error_rate: {failed}/{attempted} = {:.6}",
        failed as f64 / attempted as f64
    );
    for f in &outcome.failures {
        println!("FAIL: {f}");
    }
    let correct = failed == 0;
    let result = Json::Object(vec![
        ("correct".to_string(), Json::Bool(correct)),
        ("attempted".to_string(), Json::UInt(attempted)),
        ("failed".to_string(), Json::UInt(failed)),
        ("metrics".to_string(), Json::Object(values)),
    ]);
    println!("{result}");
    Ok(correct)
}

/// Write the Chrome trace and print self time per layer and per call.
fn print_trace(rec: &Recorder, workload: &str, seed: u64) -> Result<(), String> {
    let path = PathBuf::from(WORK_DIR).join(format!("trace-{workload}-{seed:#x}.json"));
    rec.write_chrome(&path)
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    let spans = rec.spans();
    println!("trace: {} spans -> {}", spans.len(), path.display());
    for (layer, s) in trace::self_by_layer(&spans) {
        println!("self time {layer:<10} {s:>12.6} s");
    }
    for (name, s) in trace::self_by_name(&spans) {
        println!("self time   {name:<26} {s:>12.6} s");
    }
    Ok(())
}
