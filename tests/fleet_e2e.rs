//! End-to-end tests for `soft route` — the fleet front-end (PR 9
//! tentpole): three real back-end daemons plus a real router, driven
//! over the wire.
//!
//! The invariants under test are the fleet contract:
//! - concurrent duplicate submissions through *different* router
//!   connections solve exactly once fleet-wide and return identical
//!   bytes (router-side claim forwarding);
//! - an unchanged re-submission is answered from the store even after
//!   the key's owning back-end is SIGKILLed — the published entry was
//!   replicated to ring successors, so the failover target answers with
//!   zero solver queries and the exact stored bytes;
//! - SIGKILLing a back-end *mid-job* re-routes the job to a live ring
//!   successor, whose fresh solve publishes artifacts byte-identical to
//!   a single-daemon run of the same spec.

use soft::fleet::Ring;
use soft::harness::json::Json;
use soft::harness::JobSpec;
use std::fs;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Zero out the `"wall_ms": <n>` field — the only artifact byte range
/// that may legitimately differ between two runs of the same work.
fn normalize_wall(text: &str) -> String {
    let Some(at) = text.find("\"wall_ms\":") else {
        return text.to_string();
    };
    let tail = &text[at + "\"wall_ms\":".len()..];
    let value_len = tail
        .char_indices()
        .take_while(|(_, c)| c.is_ascii_digit() || *c == '.' || *c == ' ')
        .count();
    format!("{}\"wall_ms\": 0{}", &text[..at], &tail[value_len..])
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("soft_fleet_e2e_{tag}_{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// Wait for a process to publish its address file.
fn wait_addr(child: &mut Child, addr_file: &PathBuf, what: &str) -> String {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if let Ok(addr) = fs::read_to_string(addr_file) {
            let addr = addr.trim().to_string();
            if !addr.is_empty() {
                return addr;
            }
        }
        if Instant::now() >= deadline {
            let _ = child.kill();
            let _ = child.wait();
            panic!("{what} never published an addr");
        }
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// The caller owns every child and always kills or waits on it in
/// `Fleet::shutdown`; the lint can't see that ownership transfer.
#[allow(clippy::zombie_processes)]
fn spawn_backend(store: &PathBuf) -> (Child, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_soft"))
        .args(["serve", "--store"])
        .arg(store)
        .args(["--jobs", "2", "--no-fsync"])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn soft serve");
    let addr = wait_addr(&mut child, &store.join("addr"), "back-end");
    (child, addr)
}

#[allow(clippy::zombie_processes)]
fn spawn_router(backends: &[String], addr_file: &PathBuf) -> (Child, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_soft"))
        .args(["route", "--backends", &backends.join(",")])
        .args(["--replicas", "2"])
        .arg("--addr-file")
        .arg(addr_file)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn soft route");
    let addr = wait_addr(&mut child, addr_file, "router");
    (child, addr)
}

fn job(test: &str, seed: u64) -> JobSpec {
    JobSpec {
        protocol: "of10".to_string(),
        agent_a: "reference".to_string(),
        agent_b: "ovs".to_string(),
        test: test.to_string(),
        seed,
        budget_conflicts: None,
        fuzz: 2,
        retry_rungs: 0,
        fp_a: None,
        fp_b: None,
    }
}

/// The content key this spec will be stored under, computed exactly as
/// the router and the back-ends compute it.
fn key_of(spec: &JobSpec) -> String {
    let rj = soft::fleet::resolve(spec.clone()).expect("resolve");
    soft::harness::store::job_key(&rj.fp_a, &rj.fp_b, &rj.spec)
}

fn submit(addr: &str, spec: &JobSpec) -> Json {
    let reply = soft::serve::request(addr, &spec.to_json()).expect("submit");
    assert_eq!(
        reply.field("type").and_then(Json::as_str),
        Ok("result"),
        "server error: {reply}"
    );
    reply
}

fn str_field(v: &Json, key: &str) -> String {
    v.field(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|e| panic!("missing {key}: {e}"))
        .to_string()
}

fn u64_field(v: &Json, key: &str) -> u64 {
    v.field(key)
        .and_then(Json::as_u64)
        .unwrap_or_else(|e| panic!("missing {key}: {e}"))
}

struct Fleet {
    backends: Vec<Option<Child>>,
    backend_addrs: Vec<String>,
    stores: Vec<PathBuf>,
    router: Option<Child>,
    router_addr: String,
    dir: PathBuf,
}

impl Fleet {
    fn spawn() -> Fleet {
        let dir = temp_dir("fleet");
        let stores: Vec<PathBuf> = (0..3).map(|i| dir.join(format!("store{i}"))).collect();
        let mut backends = Vec::new();
        let mut backend_addrs = Vec::new();
        for store in &stores {
            fs::create_dir_all(store).expect("create store dir");
            let (child, addr) = spawn_backend(store);
            backends.push(Some(child));
            backend_addrs.push(addr);
        }
        let (router, router_addr) = spawn_router(&backend_addrs, &dir.join("router_addr"));
        Fleet {
            backends,
            backend_addrs,
            stores,
            router: Some(router),
            router_addr,
            dir,
        }
    }

    /// SIGKILL one back-end (no drain, no warning — the failure mode
    /// under test).
    fn kill_backend(&mut self, idx: usize) {
        if let Some(mut child) = self.backends[idx].take() {
            child.kill().expect("SIGKILL back-end");
            child.wait().expect("reap back-end");
        }
    }

    fn live_backends(&self) -> Vec<usize> {
        (0..self.backends.len())
            .filter(|&i| self.backends[i].is_some())
            .collect()
    }

    /// Wait for `child` to exit on its own, or kill it after 30s.
    fn reap(mut child: Child, what: &str) -> bool {
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match child.try_wait().expect("try_wait") {
                Some(st) => return st.success(),
                None if Instant::now() >= deadline => {
                    let _ = child.kill();
                    let _ = child.wait();
                    panic!("{what} did not exit within 30s of the drain");
                }
                None => std::thread::sleep(Duration::from_millis(50)),
            }
        }
    }

    /// Drain the whole fleet through the router and require clean exits
    /// from the router and every surviving back-end.
    fn drain_and_reap(mut self) {
        let ack = soft::serve::request(&self.router_addr, &soft::harness::proto::drain_request())
            .expect("drain router");
        assert_eq!(ack.field("type").and_then(Json::as_str), Ok("draining"));
        if let Some(router) = self.router.take() {
            assert!(Self::reap(router, "router"), "router exited uncleanly");
        }
        for (i, slot) in self.backends.iter_mut().enumerate() {
            if let Some(child) = slot.take() {
                assert!(
                    Self::reap(child, "back-end"),
                    "back-end {i} exited uncleanly"
                );
            }
        }
        let _ = fs::remove_dir_all(&self.dir);
    }

    /// Hard cleanup on panic paths.
    fn abort(mut self) {
        if let Some(mut router) = self.router.take() {
            let _ = router.kill();
            let _ = router.wait();
        }
        for slot in self.backends.iter_mut() {
            if let Some(mut child) = slot.take() {
                let _ = child.kill();
                let _ = child.wait();
            }
        }
    }
}

#[test]
fn fleet_survives_kills_with_identical_bytes_and_single_solves() {
    let mut fleet = Fleet::spawn();
    let router_addr = fleet.router_addr.clone();
    let backend_addrs = fleet.backend_addrs.clone();
    let ring = Ring::new(&backend_addrs, 64);

    let run = || -> PathBuf {
        // --- (c) Concurrent duplicates across different router
        // connections solve exactly once fleet-wide.
        let dup_spec = job("queue_config", 0x50F7);
        let replies: Vec<Json> = (0..2)
            .map(|_| {
                let addr = router_addr.clone();
                let spec = dup_spec.clone();
                std::thread::spawn(move || submit(&addr, &spec))
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().expect("submitter thread"))
            .collect();
        for f in ["artifact_a", "artifact_b", "corpus"] {
            assert_eq!(
                str_field(&replies[0], f),
                str_field(&replies[1], f),
                "duplicate submissions must return identical bytes ({f})"
            );
        }
        // Fleet-wide ledger: exactly one back-end solved, exactly once.
        // (The router coalesces the duplicate onto one dispatch; even if
        // timing let both through, the back-end's per-key claim would
        // turn the second into a store hit — either way, one solve.)
        let mut solves = 0;
        for addr in &backend_addrs {
            let status = soft::serve::request(addr, &soft::harness::proto::status_request())
                .expect("back-end status");
            solves += u64_field(&status, "jobs_served") - u64_field(&status, "store_hits");
        }
        assert_eq!(solves, 1, "duplicates must solve exactly once fleet-wide");

        // --- (a) Unchanged re-submission answers from the store; then
        // the owner dies and a *replica* answers — zero solver queries,
        // exact stored bytes, both times.
        let resub = submit(&router_addr, &dup_spec);
        assert_eq!(resub.field("store_hit").and_then(Json::as_bool), Ok(true));
        assert_eq!(u64_field(&resub, "check_queries"), 0);

        let owner = ring.owner(&key_of(&dup_spec)).expect("ring owner");
        fleet.kill_backend(owner);
        let failover = submit(&router_addr, &dup_spec);
        assert_eq!(
            failover.field("store_hit").and_then(Json::as_bool),
            Ok(true),
            "a replica must answer the dead owner's key from its store"
        );
        assert_eq!(
            u64_field(&failover, "check_queries"),
            0,
            "replica answer must not touch a solver"
        );
        for f in ["artifact_a", "artifact_b", "corpus"] {
            assert_eq!(
                str_field(&failover, f),
                str_field(&replies[0], f),
                "replica must serve the exact replicated bytes ({f})"
            );
        }

        // --- (b) SIGKILL mid-job: the job re-routes and completes on a
        // surviving back-end. set_config (~5k solver queries, under a
        // second) keeps the in-flight window wide enough to land the
        // kill; queue_config solves in tens of milliseconds.
        let solve_spec = job("set_config", 0x1234);
        let live = fleet.live_backends();
        let target = ring
            .successors(&key_of(&solve_spec))
            .into_iter()
            .find(|i| live.contains(i))
            .expect("a live successor");
        let inflight = fleet.stores[target]
            .join("inflight")
            .join(format!("{}.json", key_of(&solve_spec)));
        let submitter = {
            let addr = router_addr.clone();
            let spec = solve_spec.clone();
            std::thread::spawn(move || submit(&addr, &spec))
        };
        // The in-flight record appears before any solving starts and
        // survives until publish — the whole solve is the kill window.
        let deadline = Instant::now() + Duration::from_secs(30);
        while !inflight.exists() {
            assert!(
                Instant::now() < deadline,
                "job never reached back-end {target}"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
        fleet.kill_backend(target);
        let rerouted = submitter.join().expect("submitter thread");
        assert_eq!(
            rerouted.field("store_hit").and_then(Json::as_bool),
            Ok(false),
            "the re-routed job is a fresh solve on the survivor"
        );
        assert!(u64_field(&rerouted, "check_queries") > 0);

        // The router saw both deaths.
        let report = soft::serve::request(&router_addr, &soft::fleet::fleet_request())
            .expect("fleet report");
        let router_counters = report.field("router").expect("router counters");
        assert!(
            u64_field(router_counters, "failovers") >= 2,
            "both SIGKILLs must surface as failovers: {report}"
        );

        // Byte-identity of the re-routed solve against a single,
        // never-failing daemon running the same spec.
        let ref_store = temp_dir("fleet_ref");
        let (mut ref_child, ref_addr) = spawn_backend(&ref_store);
        let reference = std::panic::catch_unwind(|| submit(&ref_addr, &solve_spec));
        let _ = ref_child.kill();
        let _ = ref_child.wait();
        let reference = match reference {
            Ok(r) => r,
            Err(e) => std::panic::resume_unwind(e),
        };
        for f in ["artifact_a", "artifact_b", "corpus"] {
            assert_eq!(
                normalize_wall(&str_field(&rerouted, f)),
                normalize_wall(&str_field(&reference, f)),
                "re-routed artifacts diverged from a single-daemon run ({f})"
            );
        }
        ref_store
    };

    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(run)) {
        Ok(ref_store) => {
            fleet.drain_and_reap();
            let _ = fs::remove_dir_all(&ref_store);
        }
        Err(e) => {
            fleet.abort();
            std::panic::resume_unwind(e);
        }
    }
}

/// A router no client ever connected to sits blocked in `accept`; one
/// `soft submit --drain` must still stop it (exit 0 within 5 s). Its
/// only back-end is down, so there is nothing to forward the drain to.
#[test]
fn idle_router_stops_on_drain() {
    let dir = temp_dir("idle_router");
    let dead_backend = {
        let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap().to_string()
    };
    let (mut router, addr) = spawn_router(&[dead_backend], &dir.join("router_addr"));
    let drained = Command::new(env!("CARGO_BIN_EXE_soft"))
        .args(["submit", "--addr", &addr, "--drain"])
        .output()
        .expect("run soft submit --drain");
    let deadline = Instant::now() + Duration::from_secs(5);
    let status = loop {
        match router.try_wait().expect("try_wait") {
            Some(st) => break Some(st),
            None if Instant::now() >= deadline => break None,
            None => std::thread::sleep(Duration::from_millis(20)),
        }
    };
    if status.is_none() {
        let _ = router.kill();
        let _ = router.wait();
    }
    assert!(
        drained.status.success(),
        "drain submit failed: {}",
        String::from_utf8_lossy(&drained.stderr)
    );
    let status = status.expect("idle router did not stop within 5 s of the drain");
    assert!(status.success(), "router exited with {status}");
    let _ = fs::remove_dir_all(&dir);
}
