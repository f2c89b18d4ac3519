//! `soft serve` — a continuously-incremental audit daemon.
//!
//! The phased CLI and even `soft run` are batch tools: every invocation
//! pays full exploration and solving, then exits. A long-lived CI or
//! vendor-lab deployment re-audits the *same* agent pairs after every
//! code change, and most changes leave most path conditions untouched.
//! `serve` turns the streaming session into a daemon in front of a
//! persistent, content-addressed result store
//! ([`soft_harness::store`]):
//!
//! - an **unchanged** re-audit (same agent fingerprints, same job
//!   parameters) is answered straight from the store — zero solver
//!   queries, byte-identical artifacts;
//! - a **changed** agent misses on its content key but hits the
//!   fingerprint-free logical index; the stored run becomes a baseline,
//!   and [`soft_core::condition_diff`] pre-decides every crosscheck
//!   pair whose endpoint groups are provably unchanged, so only
//!   diff-impacted pairs re-solve (see [`crate::SessionConfig`]
//!   `baseline`).
//!
//! Jobs arrive over a local TCP socket speaking the journal's framed
//! JSON protocol ([`soft_harness::proto`]); concurrent jobs shard
//! across a bounded worker pool. Every accepted job is recorded
//! in-flight and journaled under a per-job WAL, so a killed daemon
//! resumes exactly the unfinished work on restart. One SIGTERM drains
//! (stop accepting, finish in-flight); a second exits immediately —
//! the WAL makes that safe.

use crate::{run_session, BaselineSeed, SessionConfig, TestOutcome};
use soft_conform::Acceptor;
use soft_fleet::conn::serve_clients;
pub use soft_fleet::job::agent_fingerprint;
use soft_fleet::job::{resolve, ResolvedJob};
use soft_fleet::Ring;
use soft_harness::json::Json;
use soft_harness::proto::{self, FleetView, JobSpec};
use soft_harness::store::{job_key, logical_key, ResultStore, StoreEntry};
use soft_smt::SolverBudget;
use std::collections::HashSet;
use std::io::{BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// See `session::recover`: locks guard slot-wise state, so a sibling
/// panic leaves usable data behind a poisoned mutex.
fn recover<T>(lock: &Mutex<T>) -> MutexGuard<'_, T> {
    lock.lock().unwrap_or_else(|e| e.into_inner())
}

/// How the daemon runs: where the store lives, where to listen, how
/// many jobs may solve at once.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Store root directory (created if absent).
    pub store: PathBuf,
    /// TCP port on 127.0.0.1; `0` binds an ephemeral port (published in
    /// `<store>/addr` either way).
    pub port: u16,
    /// Worker-pool size: jobs solving concurrently (each job itself
    /// runs single-threaded; determinism is per job).
    pub workers: usize,
    /// Fsync store publishes and per-job journals.
    pub fsync: bool,
}

/// Store-wide counters, monotone over the daemon's lifetime (except
/// `queue_depth`, a gauge). Persisted to `serve_stats.json` on drain
/// and returned by the `status` request.
#[derive(Debug, Default)]
struct Counters {
    jobs_served: AtomicU64,
    store_hits: AtomicU64,
    diff_jobs: AtomicU64,
    pairs_total: AtomicU64,
    pairs_skipped_via_diff: AtomicU64,
    check_queries: AtomicU64,
    recovered_jobs: AtomicU64,
    job_errors: AtomicU64,
    queue_depth: AtomicU64,
    /// Worker-pool size — a gauge set once at startup, gossiped to the
    /// fleet router so it can tell "busy" from "saturated".
    workers: AtomicU64,
    /// Store entries this daemon pushed to ring successors.
    replica_pushes: AtomicU64,
    /// Replica pushes that failed (successor down; non-fatal).
    replica_push_failures: AtomicU64,
    /// Store entries accepted from ring predecessors.
    replica_ingests: AtomicU64,
    /// Queued routed jobs released back to the router via `steal`.
    jobs_stolen: AtomicU64,
    lookup_ns: AtomicU64,
    solve_ns: AtomicU64,
    publish_ns: AtomicU64,
}

impl Counters {
    fn to_json(&self) -> Json {
        let u = |a: &AtomicU64| Json::UInt(a.load(Ordering::Relaxed));
        Json::Object(vec![
            ("type".to_string(), Json::Str("status".to_string())),
            ("jobs_served".to_string(), u(&self.jobs_served)),
            ("store_hits".to_string(), u(&self.store_hits)),
            ("diff_jobs".to_string(), u(&self.diff_jobs)),
            ("pairs_total".to_string(), u(&self.pairs_total)),
            (
                "pairs_skipped_via_diff".to_string(),
                u(&self.pairs_skipped_via_diff),
            ),
            ("check_queries".to_string(), u(&self.check_queries)),
            ("recovered_jobs".to_string(), u(&self.recovered_jobs)),
            ("job_errors".to_string(), u(&self.job_errors)),
            ("queue_depth".to_string(), u(&self.queue_depth)),
            ("workers".to_string(), u(&self.workers)),
            ("replica_pushes".to_string(), u(&self.replica_pushes)),
            (
                "replica_push_failures".to_string(),
                u(&self.replica_push_failures),
            ),
            ("replica_ingests".to_string(), u(&self.replica_ingests)),
            ("jobs_stolen".to_string(), u(&self.jobs_stolen)),
            (
                "lookup_ms".to_string(),
                Json::UInt(self.lookup_ns.load(Ordering::Relaxed) / 1_000_000),
            ),
            (
                "solve_ms".to_string(),
                Json::UInt(self.solve_ns.load(Ordering::Relaxed) / 1_000_000),
            ),
            (
                "publish_ms".to_string(),
                Json::UInt(self.publish_ns.load(Ordering::Relaxed) / 1_000_000),
            ),
        ])
    }
}

/// Counting semaphore bounding concurrent solver work.
struct Pool {
    permits: Mutex<usize>,
    cv: Condvar,
}

impl Pool {
    fn new(n: usize) -> Pool {
        Pool {
            permits: Mutex::new(n.max(1)),
            cv: Condvar::new(),
        }
    }

    fn acquire(&self) -> Permit<'_> {
        let mut p = recover(&self.permits);
        while *p == 0 {
            p = self.cv.wait(p).unwrap_or_else(|e| e.into_inner());
        }
        *p -= 1;
        Permit(self)
    }

    /// [`Pool::acquire`], but abandon the wait once `cancel` is set —
    /// the path a queued routed job takes when the router steals it.
    /// The stealer sets `cancel` and then calls [`Pool::wake`].
    fn acquire_unless(&self, cancel: &AtomicBool) -> Option<Permit<'_>> {
        let mut p = recover(&self.permits);
        loop {
            if *p > 0 {
                *p -= 1;
                return Some(Permit(self));
            }
            if cancel.load(Ordering::Relaxed) {
                return None;
            }
            p = self.cv.wait(p).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Wake every waiter so it re-checks its cancel flag. Notifying under
    /// the permit lock closes the race with a waiter about to block: it
    /// either checks its flag after this lock (and sees it set) or is
    /// already parked on the condvar (and is woken).
    fn wake(&self) {
        let _permits = recover(&self.permits);
        self.cv.notify_all();
    }
}

/// A held worker slot, returned on drop — so a job that panics cannot
/// leak its permit and permanently shrink the pool.
struct Permit<'a>(&'a Pool);

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        *recover(&self.0.permits) += 1;
        self.0.cv.notify_one();
    }
}

/// Content keys currently being solved. Two concurrent submissions of
/// the same job must never both reach `run_session`: they would share
/// one WAL path and one artifact staging prefix, and two appenders
/// interleaving frames in one journal corrupts it beyond torn-tail
/// recovery. The second claimant blocks until the first finishes, then
/// proceeds into `run_job`, whose first step — the store lookup — now
/// hits the freshly published entry (or re-runs if the first failed).
struct RunningJobs {
    keys: Mutex<HashSet<String>>,
    cv: Condvar,
}

impl RunningJobs {
    fn new() -> RunningJobs {
        RunningJobs {
            keys: Mutex::new(HashSet::new()),
            cv: Condvar::new(),
        }
    }

    fn claim(&self, key: &str) -> KeyClaim<'_> {
        let mut keys = recover(&self.keys);
        while keys.contains(key) {
            keys = self.cv.wait(keys).unwrap_or_else(|e| e.into_inner());
        }
        keys.insert(key.to_string());
        KeyClaim {
            jobs: self,
            key: key.to_string(),
        }
    }
}

/// Exclusive right to run the job under `key`; released on drop, so a
/// panicking job never wedges its key for later submissions.
struct KeyClaim<'a> {
    jobs: &'a RunningJobs,
    key: String,
}

impl Drop for KeyClaim<'_> {
    fn drop(&mut self) {
        recover(&self.jobs.keys).remove(&self.key);
        self.jobs.cv.notify_all();
    }
}

/// Routed jobs waiting for a worker permit, oldest first. A router
/// `steal` pops entries and flips their cancel flags; the parked
/// handler then answers `stolen` instead of solving, and the router
/// re-places the job on an idle replica. Only jobs the router marked
/// `routed` register here — direct submissions are never stolen.
#[derive(Default)]
struct StealRegistry {
    waiting: Mutex<Vec<(String, Arc<AtomicBool>)>>,
}

impl StealRegistry {
    /// Park `key` as stealable; the returned guard deregisters it.
    fn park(&self, key: &str) -> StealSlot<'_> {
        let flag = Arc::new(AtomicBool::new(false));
        recover(&self.waiting).push((key.to_string(), Arc::clone(&flag)));
        StealSlot {
            registry: self,
            flag,
        }
    }

    /// Release up to `max` of the oldest parked jobs; returns how many.
    fn steal(&self, max: u64) -> u64 {
        let mut waiting = recover(&self.waiting);
        let n = (max as usize).min(waiting.len());
        for (_, flag) in waiting.drain(..n) {
            flag.store(true, Ordering::Relaxed);
        }
        n as u64
    }
}

/// One parked stealable job; deregisters on drop (whether the job won a
/// permit or was stolen), so a panicking handler cannot leak an entry.
struct StealSlot<'a> {
    registry: &'a StealRegistry,
    flag: Arc<AtomicBool>,
}

impl Drop for StealSlot<'_> {
    fn drop(&mut self) {
        recover(&self.registry.waiting).retain(|(_, f)| !Arc::ptr_eq(f, &self.flag));
    }
}

struct ServeState {
    store: ResultStore,
    counters: Counters,
    pool: Pool,
    running: RunningJobs,
    /// Fleet membership, set by the router's `route` announcement;
    /// `None` outside fleet mode (replication then never triggers).
    fleet: Mutex<Option<FleetView>>,
    stealable: StealRegistry,
}

fn outcome_summary(o: &TestOutcome) -> Json {
    Json::Object(vec![
        ("paths_a".to_string(), Json::UInt(o.paths_a as u64)),
        ("paths_b".to_string(), Json::UInt(o.paths_b as u64)),
        ("truncated".to_string(), Json::Bool(o.truncated)),
        (
            "inconsistencies".to_string(),
            Json::UInt(o.inconsistencies as u64),
        ),
        ("unverified".to_string(), Json::UInt(o.unverified as u64)),
        ("confirmed".to_string(), Json::UInt(o.confirmed as u64)),
        ("clusters".to_string(), Json::UInt(o.clusters as u64)),
        ("fuzz_added".to_string(), Json::UInt(o.fuzz_added as u64)),
        ("pairs_total".to_string(), Json::UInt(o.pairs_total as u64)),
        (
            "seeded_pairs".to_string(),
            Json::UInt(o.seeded_pairs as u64),
        ),
        (
            "check_queries".to_string(),
            Json::UInt(o.check_queries as u64),
        ),
    ])
}

/// The `result` response: the exact published bytes plus per-serving
/// counters (`store_hit`/`seeded_pairs`/`check_queries` describe *this*
/// answer; `summary` describes the run that produced the stored entry).
fn result_response(
    key: &str,
    rj: &ResolvedJob,
    entry: &StoreEntry,
    store_hit: bool,
    seeded_pairs: u64,
    check_queries: u64,
) -> Json {
    Json::Object(vec![
        ("type".to_string(), Json::Str("result".to_string())),
        ("key".to_string(), Json::Str(key.to_string())),
        ("store_hit".to_string(), Json::Bool(store_hit)),
        ("agent_a".to_string(), Json::Str(rj.spec.agent_a.clone())),
        ("agent_b".to_string(), Json::Str(rj.spec.agent_b.clone())),
        ("test".to_string(), Json::Str(rj.spec.test.clone())),
        ("seeded_pairs".to_string(), Json::UInt(seeded_pairs)),
        ("check_queries".to_string(), Json::UInt(check_queries)),
        (
            "artifact_a".to_string(),
            Json::Str(entry.artifact_a.clone()),
        ),
        (
            "artifact_b".to_string(),
            Json::Str(entry.artifact_b.clone()),
        ),
        ("corpus".to_string(), Json::Str(entry.corpus.clone())),
        ("summary".to_string(), entry.summary.clone()),
    ])
}

fn add_ns(counter: &AtomicU64, since: Instant) {
    counter.fetch_add(since.elapsed().as_nanos() as u64, Ordering::Relaxed);
}

/// Serve one job: store hit, diff-seeded partial re-solve, or full run.
/// The caller holds a pool permit.
fn run_job(state: &ServeState, rj: &ResolvedJob, fsync: bool) -> Result<Json, String> {
    let key = job_key(&rj.fp_a, &rj.fp_b, &rj.spec);
    // Serialize per content key *before* the store lookup: a duplicate
    // of an in-flight job waits here, then answers from the store the
    // first runner just published.
    let _running = state.running.claim(&key);
    let logical = logical_key(&rj.spec);
    let t_lookup = Instant::now();
    if let Some(entry) = state.store.lookup(&key)? {
        add_ns(&state.counters.lookup_ns, t_lookup);
        state.counters.store_hits.fetch_add(1, Ordering::Relaxed);
        state.counters.jobs_served.fetch_add(1, Ordering::Relaxed);
        return Ok(result_response(&key, rj, &entry, true, 0, 0));
    }
    // Content miss: the latest entry for the same logical job (if any)
    // becomes the diff baseline. A missing or unreadable baseline just
    // means a full solve — never an error.
    let baseline = state
        .store
        .latest(&logical)
        .and_then(|bk| state.store.lookup(&bk).ok().flatten());
    add_ns(&state.counters.lookup_ns, t_lookup);
    let is_diff = baseline.is_some();
    state
        .store
        .record_inflight(&key, &rj.spec)
        .map_err(|e| format!("store inflight record: {e}"))?;
    let t_solve = Instant::now();
    let cfg = SessionConfig {
        agent_a: rj.agent_a,
        agent_b: rj.agent_b,
        tests: vec![rj.test.clone()],
        jobs: 1,
        seed: rj.spec.seed,
        solver_budget: match rj.spec.budget_conflicts {
            Some(c) => SolverBudget::conflicts(c),
            None => SolverBudget::unlimited(),
        },
        retry_rungs: rj.spec.retry_rungs as u32,
        fuzz_tries: rj.spec.fuzz as usize,
        out_prefix: state.store.out_prefix(&key),
        journal: Some(state.store.wal_path(&key)),
        // Always resume: a fresh job has no WAL (open starts one), a
        // recovered job continues exactly where the old daemon died.
        resume: true,
        fsync,
        incremental: true,
        baseline: baseline.map(|b| BaselineSeed {
            artifact_a: b.artifact_a,
            artifact_b: b.artifact_b,
            verdicts: b.verdicts,
        }),
    };
    let report = run_session(&cfg)?;
    add_ns(&state.counters.solve_ns, t_solve);
    let outcome = &report.outcomes[0];
    let t_publish = Instant::now();
    let read_back = |path: &str| -> Result<String, String> {
        std::fs::read_to_string(path).map_err(|e| format!("read back {path}: {e}"))
    };
    let prefix = state.store.out_prefix(&key);
    let staged = [
        format!("{prefix}{}_{}.json", rj.agent_a.id(), rj.test.id),
        format!("{prefix}{}_{}.json", rj.agent_b.id(), rj.test.id),
        format!("{prefix}corpus_{}.json", rj.test.id),
    ];
    let entry = StoreEntry {
        fp_a: rj.fp_a.clone(),
        fp_b: rj.fp_b.clone(),
        artifact_a: read_back(&staged[0])?,
        artifact_b: read_back(&staged[1])?,
        corpus: read_back(&staged[2])?,
        summary: outcome_summary(outcome),
        verdicts: outcome.verdicts.clone(),
        // Embedded so a corrupt index.json can be rebuilt from entries.
        spec: Some(rj.spec.clone()),
    };
    state
        .store
        .publish(&key, &logical, &entry)
        .map_err(|e| format!("store publish: {e}"))?;
    state.store.clear_inflight(&key);
    // The WAL only covers the gap between accept and publish, and the
    // staged files only carry the session's output to the entry; the
    // published entry now answers this key forever. Best effort: a crash
    // before this point leaves files the next run of the key overwrites.
    let _ = std::fs::remove_file(state.store.wal_path(&key));
    for path in &staged {
        let _ = std::fs::remove_file(path);
    }
    add_ns(&state.counters.publish_ns, t_publish);
    // In fleet mode, push the fresh entry to this key's ring successors
    // before replying: once the client sees the result, a replica
    // already holds it, so killing this daemon cannot orphan the key.
    replicate_out(state, &key, &logical, &entry);
    let c = &state.counters;
    c.jobs_served.fetch_add(1, Ordering::Relaxed);
    c.pairs_total
        .fetch_add(outcome.pairs_total as u64, Ordering::Relaxed);
    c.check_queries
        .fetch_add(outcome.check_queries as u64, Ordering::Relaxed);
    if is_diff {
        c.diff_jobs.fetch_add(1, Ordering::Relaxed);
        c.pairs_skipped_via_diff
            .fetch_add(outcome.seeded_pairs as u64, Ordering::Relaxed);
    }
    Ok(result_response(
        &key,
        rj,
        &entry,
        false,
        outcome.seeded_pairs as u64,
        outcome.check_queries as u64,
    ))
}

/// Push a freshly published entry to the key's ring successors (fleet
/// mode only). Push failures are counted, not fatal: the entry is
/// already durable locally, and a router failover degrades to a fresh
/// solve on the successor — never a lost result.
fn replicate_out(state: &ServeState, key: &str, logical: &str, entry: &StoreEntry) {
    let Some(view) = recover(&state.fleet).clone() else {
        return;
    };
    if view.replicas == 0 || view.backends.len() < 2 {
        return;
    }
    let ring = Ring::new(&view.backends, view.vnodes);
    let targets: Vec<String> = ring
        .successors(key)
        .into_iter()
        .filter(|&i| i != view.you)
        .take(view.replicas as usize)
        .map(|i| view.backends[i].clone())
        .collect();
    let msg = proto::replicate_message(key, logical, &entry.to_json());
    for addr in targets {
        match request(&addr, &msg) {
            Ok(reply) if reply.get("type").and_then(|t| t.as_str().ok()) == Some("replicated") => {
                state
                    .counters
                    .replica_pushes
                    .fetch_add(1, Ordering::Relaxed);
            }
            Ok(reply) => {
                state
                    .counters
                    .replica_push_failures
                    .fetch_add(1, Ordering::Relaxed);
                eprintln!("soft serve: replica {addr} rejected {key}: {reply}");
            }
            Err(e) => {
                state
                    .counters
                    .replica_push_failures
                    .fetch_add(1, Ordering::Relaxed);
                eprintln!("soft serve: replica push {key} -> {addr} failed: {e}");
            }
        }
    }
}

/// Accept a replicated store entry from a ring predecessor. Idempotent:
/// re-pushing a key this store already holds is an acknowledged no-op,
/// so crash-retried pushes and overlapping successor sets are safe.
fn handle_replicate(state: &ServeState, msg: &Json) -> Json {
    let get_str = |k: &str| -> Result<&str, String> { msg.field(k)?.as_str() };
    let parsed = (|| -> Result<(String, String, StoreEntry), String> {
        let key = get_str("key")?.to_string();
        let logical = get_str("logical")?.to_string();
        let entry = StoreEntry::from_json(msg.field("entry")?)?;
        Ok((key, logical, entry))
    })();
    let (key, logical, entry) = match parsed {
        Ok(t) => t,
        Err(e) => return proto::error_response(&format!("replicate: {e}")),
    };
    match state.store.ingest_replica(&key, &logical, &entry) {
        Ok(stored) => {
            if stored {
                state
                    .counters
                    .replica_ingests
                    .fetch_add(1, Ordering::Relaxed);
            }
            proto::replicated_response(stored)
        }
        Err(e) => proto::error_response(&format!("replicate {key}: {e}")),
    }
}

/// Serve one `job` frame: resolve, wait for a worker (steallably, if
/// the frame came through the router), then run. A routed job whose
/// wait is cancelled by a `steal` answers `stolen` and never solves.
fn serve_job_frame(state: &ServeState, msg: &Json, fsync: bool) -> Json {
    let rj = match JobSpec::from_json(msg).and_then(resolve) {
        Ok(rj) => rj,
        Err(e) => return proto::error_response(&e),
    };
    let routed = msg.get("routed").and_then(|v| v.as_bool().ok()) == Some(true);
    state.counters.queue_depth.fetch_add(1, Ordering::Relaxed);
    let permit = if routed {
        let key = job_key(&rj.fp_a, &rj.fp_b, &rj.spec);
        let slot = state.stealable.park(&key);
        let got = state.pool.acquire_unless(&slot.flag);
        drop(slot);
        state.counters.queue_depth.fetch_sub(1, Ordering::Relaxed);
        match got {
            Some(p) => p,
            None => return proto::stolen_response(&key),
        }
    } else {
        let p = state.pool.acquire();
        state.counters.queue_depth.fetch_sub(1, Ordering::Relaxed);
        p
    };
    let out = run_job(state, &rj, fsync);
    drop(permit);
    out.unwrap_or_else(|e| {
        state.counters.job_errors.fetch_add(1, Ordering::Relaxed);
        proto::error_response(&e)
    })
}

/// One request on a client connection.
fn handle_request(state: &ServeState, fsync: bool, kind: &str, msg: &Json) -> Json {
    match kind {
        "job" => serve_job_frame(state, msg, fsync),
        "status" => state.counters.to_json(),
        "route" => match FleetView::from_json(msg) {
            Ok(view) => {
                let workers = state.counters.workers.load(Ordering::Relaxed);
                let depth = state.counters.queue_depth.load(Ordering::Relaxed);
                *recover(&state.fleet) = Some(view);
                proto::registered_response(workers, depth)
            }
            Err(e) => proto::error_response(&e),
        },
        "steal" => {
            let max = msg.get("max").and_then(|v| v.as_u64().ok()).unwrap_or(0);
            let n = state.stealable.steal(max);
            state.pool.wake();
            state.counters.jobs_stolen.fetch_add(n, Ordering::Relaxed);
            proto::steal_ack(n)
        }
        "replicate" => handle_replicate(state, msg),
        other => proto::error_response(&format!("unknown request type '{other}'")),
    }
}

/// Run the daemon until drained (SIGTERM or a `drain` request).
///
/// Before accepting connections, every in-flight job left behind by a
/// killed predecessor is re-run — each resumes from its per-job WAL, so
/// finished exploration units replay and decided verdicts seed, exactly
/// like `soft run --resume`.
pub fn serve(cfg: &ServeConfig) -> Result<(), String> {
    let store = ResultStore::open(&cfg.store, cfg.fsync)
        .map_err(|e| format!("store {}: {e}", cfg.store.display()))?;
    let state = Arc::new(ServeState {
        store,
        counters: Counters::default(),
        pool: Pool::new(cfg.workers),
        running: RunningJobs::new(),
        fleet: Mutex::new(None),
        stealable: StealRegistry::default(),
    });
    state
        .counters
        .workers
        .store(cfg.workers.max(1) as u64, Ordering::Relaxed);
    soft_serve::install_sigterm_latch();
    soft_serve::steady_heap();
    for (key, spec) in state.store.list_inflight() {
        match resolve(spec) {
            Ok(rj) => {
                eprintln!("soft serve: recovering in-flight job {key}");
                match run_job(&state, &rj, cfg.fsync) {
                    Ok(_) => {
                        state
                            .counters
                            .recovered_jobs
                            .fetch_add(1, Ordering::Relaxed);
                    }
                    Err(e) => {
                        state.counters.job_errors.fetch_add(1, Ordering::Relaxed);
                        eprintln!("soft serve: recovery of {key} failed: {e}");
                    }
                }
            }
            Err(e) => {
                // The spec itself is invalid (suite changed?): drop it
                // rather than crash-looping on every restart.
                eprintln!("soft serve: dropping unrecoverable job {key}: {e}");
                state.store.clear_inflight(&key);
            }
        }
    }
    let acceptor = Acceptor::bind(cfg.port).map_err(|e| format!("bind 127.0.0.1: {e}"))?;
    let addr = acceptor.local_addr();
    state
        .store
        .write_addr(&addr.to_string())
        .map_err(|e| format!("publish addr: {e}"))?;
    println!("soft serve: listening on {addr}");
    let st = Arc::clone(&state);
    let fsync = cfg.fsync;
    let conns = serve_clients(acceptor, move |kind, msg| {
        handle_request(&st, fsync, kind, msg)
    })?;
    eprintln!(
        "soft serve: draining ({} connection(s) open) ...",
        conns.len()
    );
    // A second SIGTERM exits now: in-flight jobs stay recorded and their
    // WALs survive; the next daemon resumes them.
    let aborted = loop {
        if conns.iter().all(|h| h.is_finished()) {
            break false;
        }
        if soft_serve::sigterm_count() >= 2 {
            eprintln!("soft serve: second SIGTERM — exiting immediately");
            break true;
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    state
        .store
        .write_stats(&state.counters.to_json())
        .map_err(|e| format!("persist stats: {e}"))?;
    if !aborted {
        eprintln!("soft serve: drained");
    }
    Ok(())
}

/// Client side: send one request frame to `addr`, return the reply.
///
/// The connect is retried under the shared jittered-backoff ladder: a
/// daemon that is still binding its socket (or briefly restarting) is a
/// transient condition, not a submit failure. The full per-attempt error
/// chain is reported if the ladder runs out.
pub fn request(addr: &str, msg: &Json) -> Result<Json, String> {
    let policy = soft_conform::BackoffPolicy::quick(4, 0x50F7);
    let stream = policy
        .run(|| TcpStream::connect(addr))
        .map_err(|chain| format!("connect {addr}: {}", chain.join("; ")))?;
    let read_half = stream
        .try_clone()
        .map_err(|e| format!("clone stream: {e}"))?;
    let mut writer = BufWriter::new(stream);
    proto::write_frame(&mut writer, msg).map_err(|e| format!("send: {e}"))?;
    writer.flush().map_err(|e| format!("send: {e}"))?;
    let mut reader = BufReader::new(read_half);
    proto::read_frame(&mut reader)?.ok_or_else(|| "server closed without replying".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acquire_unless_yields_to_a_steal_and_wakes_on_a_free_permit() {
        let pool = Pool::new(1);
        let held = pool.acquire();
        // Pre-cancelled wait: no permit is available, so the cancel
        // wins immediately.
        let cancelled = AtomicBool::new(true);
        assert!(pool.acquire_unless(&cancelled).is_none());
        // A live wait ends when the permit frees.
        let free = AtomicBool::new(false);
        std::thread::scope(|s| {
            let waiter = s.spawn(|| pool.acquire_unless(&free).is_some());
            std::thread::sleep(Duration::from_millis(50));
            drop(held);
            assert!(waiter.join().unwrap(), "freed permit must win the wait");
        });
    }

    #[test]
    fn steal_and_wake_release_a_blocked_waiter() {
        let pool = Pool::new(1);
        let held = pool.acquire();
        let reg = StealRegistry::default();
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::scope(|s| {
            s.spawn(|| {
                let slot = reg.park("key");
                let _ = tx.send(pool.acquire_unless(&slot.flag).is_none());
            });
            // Let the waiter park and block on the condvar, then steal it
            // the way the `steal` handler does.
            while recover(&reg.waiting).is_empty() {
                std::thread::yield_now();
            }
            std::thread::sleep(Duration::from_millis(50));
            assert_eq!(reg.steal(1), 1);
            pool.wake();
            let got = rx.recv_timeout(Duration::from_secs(10));
            // Free the permit so a waiter the wake missed still returns
            // and the scope can join.
            drop(held);
            assert_eq!(got, Ok(true), "a steal must wake its parked waiter");
        });
    }

    #[test]
    fn steal_registry_releases_oldest_first_and_slots_deregister() {
        let reg = StealRegistry::default();
        let a = reg.park("key_a");
        let b = reg.park("key_b");
        let c = reg.park("key_c");
        assert_eq!(reg.steal(2), 2, "two parked jobs released");
        assert!(a.flag.load(Ordering::Relaxed), "oldest stolen first");
        assert!(b.flag.load(Ordering::Relaxed));
        assert!(!c.flag.load(Ordering::Relaxed), "newest survives");
        drop(c);
        assert_eq!(reg.steal(10), 0, "dropped slots are deregistered");
        drop(a);
        drop(b);
    }

    #[test]
    fn duplicate_keys_park_independently() {
        // Two connections can queue the same content key (the per-key
        // claim serializes them later, at run_job); the registry must
        // treat the slots as distinct so a steal of one cannot strand
        // the other's flag.
        let reg = StealRegistry::default();
        let first = reg.park("same_key");
        let second = reg.park("same_key");
        assert_eq!(reg.steal(1), 1);
        assert!(first.flag.load(Ordering::Relaxed));
        assert!(!second.flag.load(Ordering::Relaxed));
        drop(first);
        drop(second);
    }
}
