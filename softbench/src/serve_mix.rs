//! The `serve_mix` workload: one `soft serve --jobs 2 --no-fsync` daemon
//! in its own process, driven by two closed-loop clients (each waits for
//! its reply before sending its next job) over the seeded job sequence of
//! [`crate::mix`]. It puts the store's read path (hits) beside its write
//! path (publish after a cold solve) and beside a path that explores and
//! groups but skips the solver (diffs).
//!
//! Every reply is checked: a hit must return exactly the bytes the cold
//! solve of its key published, a diff must run no solver queries and
//! publish the cold solve's corpus, and every outcome must match the
//! oracle.

use crate::audit::{FUZZ, INTEROP_TESTS, JOBS};
use crate::mix::{self, Job, Kind};
use crate::oracle::{tuple_from_summary, Tuple};
use crate::stats::{ratio, summarize, Metrics};
use crate::trace::{self, Recorder};
use crate::{proc, Ctx, Outcome};
use soft_core::{condition_diff, GroupedResults, Soft};
use soft_harness::json::Json;
use soft_harness::proto::{self, JobSpec};
use soft_harness::store::{logical_key, ResultStore, StoreEntry};
use soft_harness::{fnv64_hex, TestRunFile};
use std::collections::HashMap;
use std::io::{BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Closed-loop clients, one connection each.
const CLIENTS: usize = 2;
/// Daemon start-ups whose median is `setup_s`.
const SETUP_REPS: usize = 3;
/// Measured cycles run whatever `--seconds` says: 4 cycles hold 128 hits,
/// enough for a p90 with ten samples beyond it.
const MIN_CYCLES: usize = 4;
/// How long a client waits for one reply before declaring the daemon hung.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);
/// Stored keys and diffs the traced run re-reads with direct store and
/// condition-diff calls.
const DIRECT_CALLS: usize = 16;

/// The daemon process and its store.
struct Daemon {
    child: Child,
    addr: String,
    store: PathBuf,
}

impl Daemon {
    /// Start a daemon on a fresh store; returns it with the time from
    /// spawn to its first answered status request.
    fn start(soft: &Path, store: &Path) -> Result<(Daemon, f64), String> {
        let _ = std::fs::remove_dir_all(store);
        std::fs::create_dir_all(store).map_err(|e| format!("create {}: {e}", store.display()))?;
        let t0 = Instant::now();
        let child = Command::new(soft)
            .args(["serve", "--store"])
            .arg(store)
            .args(["--jobs", &JOBS.to_string(), "--no-fsync"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn soft serve: {e}"))?;
        let mut daemon = Daemon {
            child,
            addr: String::new(),
            store: store.to_path_buf(),
        };
        let addr_file = store.join("addr");
        while daemon.addr.is_empty() {
            if t0.elapsed() > REPLY_TIMEOUT {
                return Err("soft serve never published its address".to_string());
            }
            if let Ok(Some(status)) = daemon.child.try_wait() {
                return Err(format!("soft serve exited at start-up: {status}"));
            }
            match std::fs::read_to_string(&addr_file) {
                Ok(a) if !a.trim().is_empty() => daemon.addr = a.trim().to_string(),
                _ => std::thread::sleep(Duration::from_millis(1)),
            }
        }
        daemon.status()?;
        Ok((daemon, t0.elapsed().as_secs_f64()))
    }

    fn status(&self) -> Result<Json, String> {
        let reply = Client::connect(&self.addr)?.call(&proto::status_request())?;
        match reply.field("type").and_then(Json::as_str) {
            Ok("status") => Ok(reply),
            _ => Err(format!("status request answered with {reply}")),
        }
    }

    /// Drain the daemon and wait for it to exit.
    fn stop(mut self) -> Result<(), String> {
        Client::connect(&self.addr)?.call(&proto::drain_request())?;
        let t0 = Instant::now();
        loop {
            match self.child.try_wait() {
                Ok(Some(_)) => return Ok(()),
                Ok(None) if t0.elapsed() < REPLY_TIMEOUT => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => return Err("soft serve did not drain in time".to_string()),
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // Already exited after a clean stop; otherwise never leave it behind.
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// One client connection speaking the daemon's framed JSON.
struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl Client {
    fn connect(addr: &str) -> Result<Client, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_read_timeout(Some(REPLY_TIMEOUT))
            .map_err(|e| format!("set timeout: {e}"))?;
        let read_half = stream.try_clone().map_err(|e| format!("clone: {e}"))?;
        Ok(Client {
            reader: BufReader::new(read_half),
            writer: BufWriter::new(stream),
        })
    }

    fn call(&mut self, msg: &Json) -> Result<Json, String> {
        proto::write_frame(&mut self.writer, msg).map_err(|e| format!("send: {e}"))?;
        self.writer.flush().map_err(|e| format!("send: {e}"))?;
        proto::read_frame(&mut self.reader)?.ok_or_else(|| "daemon hung up".to_string())
    }
}

fn spec(job: &Job) -> JobSpec {
    JobSpec {
        protocol: "of10".to_string(),
        agent_a: "reference".to_string(),
        agent_b: "ovs".to_string(),
        test: job.test.to_string(),
        seed: job.seed,
        budget_conflicts: None,
        fuzz: FUZZ as u64,
        retry_rungs: 0,
        fp_a: job.fp_a.clone(),
        fp_b: None,
    }
}

/// One answered (or failed) job: latency in ms and the reply.
type Answer = Result<(f64, Json), String>;

/// Run one cycle's jobs over the clients; returns the cycle's wall time
/// and the answers in job order.
fn run_cycle(
    clients: &mut [Client],
    jobs: &[Job],
    rec: Option<&Recorder>,
    req_base: u64,
) -> (f64, Vec<Answer>) {
    let next = AtomicUsize::new(0);
    let answers: Mutex<Vec<Option<Answer>>> = Mutex::new(vec![None; jobs.len()]);
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for client in clients.iter_mut() {
            let (next, answers) = (&next, &answers);
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(job) = jobs.get(i) else { break };
                let msg = spec(job).to_json();
                let name = match job.kind {
                    Kind::Hit => "serve.hit",
                    Kind::Diff => "serve.diff",
                    Kind::Cold => "serve.cold",
                };
                let sent = Instant::now();
                let reply = trace::span(rec, name, 0, req_base + i as u64, |_| client.call(&msg));
                let ms = sent.elapsed().as_secs_f64() * 1e3;
                answers.lock().expect("a client thread panicked")[i] = Some(reply.map(|r| (ms, r)));
            });
        }
    });
    let wall = t0.elapsed().as_secs_f64();
    let answers = answers
        .into_inner()
        .expect("a client thread panicked")
        .into_iter()
        .map(|a| a.unwrap_or_else(|| Err("job never ran".to_string())))
        .collect();
    (wall, answers)
}

/// What a cold solve published for one (test, seed).
struct Published {
    /// The store's content key.
    key: String,
    /// Digest of both artifacts, the corpus and the summary.
    digest: String,
    /// Digest of the corpus alone.
    corpus: String,
    tuple: Tuple,
}

/// Replies checked so far, and what the traced run needs from them.
#[derive(Default)]
struct Ledger {
    published: HashMap<(&'static str, u64), Published>,
    /// (cold key, diff key) of every diff served.
    diffs: Vec<(String, String)>,
    seeded_pairs: u64,
    diff_pairs: u64,
    reply_bytes: Vec<f64>,
}

impl Ledger {
    fn check(&mut self, ctx: &Ctx, job: &Job, reply: &Json) -> Result<(), String> {
        if reply.field("type").and_then(Json::as_str) != Ok("result") {
            return Err(format!(
                "{} {}: daemon answered {reply}",
                job.kind.name(),
                job.test
            ));
        }
        let text = |k: &str| reply.field(k).and_then(Json::as_str);
        let summary = reply.field("summary")?;
        let tuple = tuple_from_summary(summary)?;
        ctx.expected.check(job.test, &tuple)?;
        let store_hit = reply.field("store_hit").and_then(Json::as_bool)?;
        let corpus = fnv64_hex(&[text("corpus")?]);
        let digest = fnv64_hex(&[
            text("artifact_a")?,
            text("artifact_b")?,
            text("corpus")?,
            &summary.to_string(),
        ]);
        self.reply_bytes.push(reply.to_string().len() as f64);
        let what = format!("{} {} seed {:#x}", job.kind.name(), job.test, job.seed);
        let key = text("key")?.to_string();
        if job.kind == Kind::Cold {
            if store_hit {
                return Err(format!("{what}: a new seed was answered from the store"));
            }
            self.published.insert(
                (job.test, job.seed),
                Published {
                    key,
                    digest,
                    corpus,
                    tuple,
                },
            );
            return Ok(());
        }
        let cold = self
            .published
            .get(&(job.test, job.seed))
            .ok_or_else(|| format!("{what}: refers to a seed never solved"))?;
        match job.kind {
            Kind::Hit if !store_hit => Err(format!("{what}: not answered from the store")),
            Kind::Hit if digest != cold.digest => {
                Err(format!("{what}: bytes differ from the cold reply"))
            }
            Kind::Diff if store_hit => Err(format!("{what}: answered from the store")),
            Kind::Diff if reply.field("check_queries").and_then(Json::as_u64)? != 0 => {
                Err(format!("{what}: ran solver queries"))
            }
            Kind::Diff if corpus != cold.corpus || tuple != cold.tuple => {
                Err(format!("{what}: corpus differs from the cold solve"))
            }
            Kind::Diff => {
                self.seeded_pairs += reply.field("seeded_pairs").and_then(Json::as_u64)?;
                self.diff_pairs += summary.field("pairs_total").and_then(Json::as_u64)?;
                self.diffs.push((cold.key.clone(), key));
                Ok(())
            }
            _ => Ok(()),
        }
    }
}

/// Run the serve workload.
pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let rec = ctx.trace.as_ref();
    let store = ctx.work.join("store");
    let mut setups = Vec::new();
    let mut daemon = None;
    for rep in 0..SETUP_REPS {
        match Daemon::start(&ctx.soft, &store) {
            Ok((d, s)) => {
                setups.push(s);
                if rep + 1 < SETUP_REPS {
                    if let Err(e) = d.stop() {
                        out.fail(e);
                    }
                } else {
                    daemon = Some(d);
                }
            }
            Err(e) => {
                out.fail(e);
                return out;
            }
        }
    }
    out.metrics.set_median("setup_s", &setups);
    let daemon = daemon.expect("the last start-up keeps its daemon");
    let mut clients = Vec::new();
    for _ in 0..CLIENTS {
        match Client::connect(&daemon.addr) {
            Ok(c) => clients.push(c),
            Err(e) => {
                out.fail(e);
                return out;
            }
        }
    }

    let mut ledger = Ledger::default();
    let mut latencies: HashMap<Kind, Vec<f64>> = HashMap::new();
    let mut cycle_walls = Vec::new();
    let mut measured_jobs = 0usize;
    // The daemon's peak memory after cycle 0 and after MIN_CYCLES more.
    let mut peaks = [0.0; 2];
    let mut start = Instant::now();
    for c in 0.. {
        let enough = cycle_walls.len() >= MIN_CYCLES;
        if enough && start.elapsed().as_secs_f64() >= ctx.seconds {
            break;
        }
        let jobs = mix::cycle(ctx.seed, c, &INTEROP_TESTS);
        let (wall, answers) = run_cycle(&mut clients, &jobs, rec, (c * 1000) as u64);
        for (job, answer) in jobs.iter().zip(answers) {
            out.attempted += 1;
            match answer.and_then(|(ms, reply)| ledger.check(ctx, job, &reply).map(|()| ms)) {
                Ok(ms) if c > 0 => latencies.entry(job.kind).or_default().push(ms),
                Ok(_) => {}
                Err(e) => out.fail(e),
            }
        }
        if c == 0 {
            // Cycle 0 only seeds the store; measurement starts after it.
            start = Instant::now();
        } else {
            cycle_walls.push(wall);
            measured_jobs += jobs.len();
        }
        if c == 0 || c == MIN_CYCLES {
            peaks[c.min(1)] = proc::vm_hwm_mb(daemon.child.id()).unwrap_or(0.0);
        }
    }
    drop(clients);
    let status = daemon.status();
    // The daemon's memory keeps growing over later cycles by an amount
    // that varies from run to run, so `peak_rss_mb` is the peak after
    // cycle 0, which solves each test once; the growth is reported apart.
    out.metrics.set("peak_rss_mb", peaks[0], 1);
    out.metrics.set_median("pass_s", &cycle_walls);
    let store_root = daemon.store.clone();
    if let Err(e) = daemon.stop() {
        out.fail(e);
    }

    let jobs_per_s = ratio(measured_jobs as f64, cycle_walls.iter().sum());
    out.notes.push(format!(
        "jobs_per_s: {jobs_per_s:.4} 1/s (n={measured_jobs})"
    ));
    let mut layer = Metrics::default();
    for (kind, name90) in [
        (Kind::Hit, Some("serve.hit_p90_ms")),
        (Kind::Diff, None),
        (Kind::Cold, None),
    ] {
        let Some(s) = summarize(latencies.get(&kind).map_or(&[][..], |v| v)) else {
            continue;
        };
        out.notes.push(s.line(&format!("{}_ms", kind.name()), "ms"));
        let name50 = match kind {
            Kind::Hit => "serve.hit_p50_ms",
            Kind::Diff => "serve.diff_p50_ms",
            Kind::Cold => "serve.cold_p50_ms",
        };
        layer.set(name50, s.p50, s.n);
        if let (Some(name), Some(p90)) = (name90, s.p90) {
            layer.set(name, p90, s.n);
        }
    }
    if rec.is_none() {
        return out;
    }
    layer.set("serve.jobs_per_s", jobs_per_s, measured_jobs);
    layer.set(
        "serve.rss_growth_mb_per_cycle",
        (peaks[1] - peaks[0]) / MIN_CYCLES as f64,
        MIN_CYCLES,
    );
    match status {
        Ok(status) => {
            let u = |k: &str| status.field(k).and_then(Json::as_u64).unwrap_or(0) as f64;
            let served = u("jobs_served");
            let solved = served - u("store_hits");
            layer.set(
                "serve.lookup_ms_per_job",
                ratio(u("lookup_ms"), served),
                served as usize,
            );
            layer.set(
                "serve.solve_ms_per_job",
                ratio(u("solve_ms"), solved),
                solved as usize,
            );
            layer.set(
                "serve.publish_ms_per_job",
                ratio(u("publish_ms"), solved),
                solved as usize,
            );
            layer.set(
                "serve.store_hit_frac",
                ratio(u("store_hits"), served),
                served as usize,
            );
        }
        Err(e) => out.fail(e),
    }
    let replies = ledger.reply_bytes.len();
    layer.set(
        "serve.reply_mb",
        ratio(ledger.reply_bytes.iter().sum::<f64>() / 1e6, replies as f64),
        replies,
    );
    layer.set(
        "core.seeded_frac",
        ratio(ledger.seeded_pairs as f64, ledger.diff_pairs as f64),
        ledger.diffs.len(),
    );
    if let Err(e) = direct_calls(ctx, &store_root, &ledger, &mut layer) {
        out.fail(e);
    }
    out.metrics.extend(layer);
    out
}

/// The traced run's direct calls on the drained daemon's store: lookups
/// of stored keys, publishes of those entries into a private store, and
/// the condition diff between each diff job's baseline and its result.
fn direct_calls(
    ctx: &Ctx,
    root: &Path,
    ledger: &Ledger,
    layer: &mut Metrics,
) -> Result<(), String> {
    let rec = ctx
        .trace
        .as_ref()
        .expect("direct calls run only when traced");
    let store = ResultStore::open(root, false).map_err(|e| format!("open store: {e}"))?;
    let private = ResultStore::open(&ctx.work.join("private_store"), false)
        .map_err(|e| format!("open private store: {e}"))?;
    let lookup = |key: &str| -> Result<StoreEntry, String> {
        rec.span("harness.store_lookup", 0, 0, |_| store.lookup(key))?
            .ok_or_else(|| format!("stored key {key} is missing"))
    };
    let mut keys: Vec<&String> = ledger.published.values().map(|p| &p.key).collect();
    keys.sort();
    for key in keys.iter().take(DIRECT_CALLS) {
        let entry = lookup(key)?;
        let spec = entry.spec.as_ref().ok_or("stored entry has no spec")?;
        rec.span("harness.store_publish", 0, 0, |_| {
            private.publish(key, &logical_key(spec), &entry)
        })
        .map_err(|e| format!("publish {key}: {e}"))?;
    }
    let group = |text: &str| -> Result<GroupedResults, String> {
        let file = rec.span("harness.json_parse", 0, 0, |_| TestRunFile::from_json(text))?;
        rec.span("core.group", 0, 0, |_| Soft::new().group_artifact(&file))
    };
    let mut diff_s = Vec::new();
    for (base_key, diff_key) in ledger.diffs.iter().take(DIRECT_CALLS) {
        let (base, cur) = (lookup(base_key)?, lookup(diff_key)?);
        let sides = [
            (group(&base.artifact_a)?, group(&cur.artifact_a)?),
            (group(&base.artifact_b)?, group(&cur.artifact_b)?),
        ];
        let t0 = Instant::now();
        for (b, c) in &sides {
            let diff = rec.span("core.diff", 0, 0, |_| condition_diff(b, c));
            if diff.impacted != 0 {
                return Err(format!("{diff_key}: unchanged agents changed groups"));
            }
        }
        diff_s.push(t0.elapsed().as_secs_f64());
    }
    let ms = |name: &str| -> Vec<f64> {
        trace::durations(&rec.spans(), name)
            .iter()
            .map(|s| s * 1e3)
            .collect()
    };
    layer.set_median("harness.store_lookup_ms", &ms("harness.store_lookup"));
    layer.set_median("harness.store_publish_ms", &ms("harness.store_publish"));
    layer.set_median("core.diff_s", &diff_s);
    Ok(())
}
