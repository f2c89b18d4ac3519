//! End-to-end tests for `soft serve` / `soft submit` (the PR 7
//! tentpole): a real daemon on an ephemeral port, driven over the wire.
//!
//! The invariants under test are the store contract:
//! - an unchanged job re-submitted is answered from the store with zero
//!   solver queries and byte-identical artifacts;
//! - a changed agent fingerprint forces a re-run, but the stored run
//!   diff-seeds it so only impacted pairs re-solve (here the code is
//!   actually unchanged, so *everything* seeds and the re-run issues
//!   zero fresh queries — the counters prove it);
//! - the baseline-seeding layer itself (library-level) re-solves only
//!   pairs touching a genuinely changed group.

use soft::harness::json::Json;
use soft::harness::JobSpec;
use soft::{run_session, AgentKind, BaselineSeed, SessionConfig};
use std::fs;
use std::net::TcpStream;
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
    let dir = std::env::temp_dir().join(format!("soft_serve_e2e_{tag}_{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// Spawn the daemon on an ephemeral port and wait for its published
/// address. The caller owns the child and always waits on (or kills)
/// it; the lint can't see the ownership transfer out of the poll loop.
#[allow(clippy::zombie_processes)]
fn spawn_daemon(store: &PathBuf) -> (Child, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_soft"))
        .args(["serve", "--store"])
        .arg(store)
        .args(["--jobs", "2", "--no-fsync"])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn soft serve");
    let addr_file = store.join("addr");
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if let Ok(addr) = fs::read_to_string(&addr_file) {
            let addr = addr.trim().to_string();
            if !addr.is_empty() {
                return (child, addr);
            }
        }
        if Instant::now() >= deadline {
            let _ = child.kill();
            let _ = child.wait();
            panic!("daemon never published an addr");
        }
        std::thread::sleep(Duration::from_millis(50));
    }
}

fn job() -> JobSpec {
    JobSpec {
        protocol: "of10".to_string(),
        agent_a: "reference".to_string(),
        agent_b: "ovs".to_string(),
        test: "queue_config".to_string(),
        seed: 0x50F7,
        budget_conflicts: None,
        fuzz: 2,
        retry_rungs: 0,
        fp_a: None,
        fp_b: None,
    }
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

#[test]
fn daemon_serves_hits_and_diff_seeded_reruns() {
    let store = temp_dir("daemon");
    let (mut child, addr) = spawn_daemon(&store);
    // Returns an idle-but-connected client stream: the daemon must
    // drain (below) even though this socket never sends a frame, and
    // it stays open until after the daemon has exited.
    let result = std::panic::catch_unwind(|| {
        // Cold store: the first submission solves for real.
        let first = submit(&addr, &job());
        assert_eq!(first.field("store_hit").and_then(Json::as_bool), Ok(false));
        assert!(
            u64_field(&first, "check_queries") > 0,
            "first run must solve"
        );

        // Unchanged job: answered from the store, zero solver queries,
        // byte-identical artifacts.
        let second = submit(&addr, &job());
        assert_eq!(second.field("store_hit").and_then(Json::as_bool), Ok(true));
        assert_eq!(u64_field(&second, "check_queries"), 0);
        for f in ["artifact_a", "artifact_b", "corpus"] {
            assert_eq!(
                str_field(&second, f),
                str_field(&first, f),
                "store hit must return the exact stored bytes ({f})"
            );
        }

        // "Agent changed" (fingerprint override, code identical): content
        // key misses, the stored run becomes the diff baseline, every
        // solvable pair seeds, and the re-run issues zero fresh queries.
        let mut changed = job();
        changed.fp_a = Some("1111111111111111".to_string());
        let third = submit(&addr, &changed);
        assert_eq!(third.field("store_hit").and_then(Json::as_bool), Ok(false));
        assert!(
            u64_field(&third, "seeded_pairs") > 0,
            "diff baseline must seed pairs"
        );
        assert_eq!(
            u64_field(&third, "check_queries"),
            0,
            "unchanged conditions must re-solve nothing"
        );
        // The published bytes are unaffected by how they were derived
        // (wall-clock is the one recorded field that may differ).
        for f in ["artifact_a", "artifact_b", "corpus"] {
            assert_eq!(
                normalize_wall(&str_field(&third, f)),
                normalize_wall(&str_field(&first, f)),
                "diff-seeded bytes diverged ({f})"
            );
        }

        // The store-wide counters saw all of it.
        let status = soft::serve::request(&addr, &soft::harness::proto::status_request())
            .expect("status request");
        assert_eq!(u64_field(&status, "jobs_served"), 3);
        assert_eq!(u64_field(&status, "store_hits"), 1);
        assert_eq!(u64_field(&status, "diff_jobs"), 1);
        assert!(u64_field(&status, "pairs_skipped_via_diff") > 0);
        assert_eq!(
            u64_field(&status, "check_queries"),
            u64_field(&first, "check_queries"),
            "only the cold run may have solved"
        );

        // An idle client — connected, never sends a frame — must not
        // block the drain below: the daemon's per-connection read
        // timeout turns drain into a hangup for it.
        let idle = TcpStream::connect(&addr).expect("idle connect");

        // Drain: the daemon persists its stats and exits cleanly.
        let ack = soft::serve::request(&addr, &soft::harness::proto::drain_request())
            .expect("drain request");
        assert_eq!(ack.field("type").and_then(Json::as_str), Ok("draining"));
        (idle, [str_field(&first, "key"), str_field(&third, "key")])
    });
    let deadline = Instant::now() + Duration::from_secs(30);
    let status = loop {
        match child.try_wait().expect("wait daemon") {
            Some(st) => break Some(st),
            None if Instant::now() >= deadline => break None,
            None => std::thread::sleep(Duration::from_millis(50)),
        }
    };
    if result.is_err() || status.is_none() {
        let _ = child.kill();
        let _ = child.wait();
    }
    let (_idle, keys) = match result {
        Ok(kept) => kept,
        Err(e) => std::panic::resume_unwind(e),
    };
    let status = status.expect("daemon failed to drain within 30s of the drain ack");
    assert!(status.success(), "daemon exited with {status}");
    assert!(
        fs::read_to_string(store.join("serve_stats.json"))
            .expect("stats persisted on drain")
            .contains("\"jobs_served\":3"),
        "drain must persist the counters"
    );
    // Publishing a key deletes its staged session output: the store
    // entry holds the same bytes.
    let staged: Vec<String> = fs::read_dir(store.join("out"))
        .expect("read out/")
        .map(|e| {
            e.expect("out/ entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .filter(|name| keys.iter().any(|k| name.starts_with(&format!("{k}_"))))
        .collect();
    assert!(
        staged.is_empty(),
        "published keys left staged files: {staged:?}"
    );
    let _ = fs::remove_dir_all(&store);
}

/// Two simultaneous submissions of the same job on a cold store must
/// not both solve: they would share one WAL path and one artifact
/// staging prefix, and two appenders interleaving frames in one journal
/// corrupts it. The daemon serializes per content key — the duplicate
/// waits for the first runner, then answers from the store.
#[test]
fn concurrent_duplicate_submissions_solve_once() {
    let store = temp_dir("dedup");
    let (mut child, addr) = spawn_daemon(&store); // --jobs 2: both submissions get a worker
    let result = std::panic::catch_unwind(|| {
        let replies: Vec<Json> = (0..2)
            .map(|_| {
                let addr = addr.clone();
                std::thread::spawn(move || submit(&addr, &job()))
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().expect("submitter thread"))
            .collect();
        let hits = replies
            .iter()
            .filter(|r| r.field("store_hit").and_then(Json::as_bool) == Ok(true))
            .count();
        assert_eq!(
            hits, 1,
            "exactly one submission may solve; its duplicate must wait and answer from the store"
        );
        for f in ["artifact_a", "artifact_b", "corpus"] {
            assert_eq!(
                str_field(&replies[0], f),
                str_field(&replies[1], f),
                "duplicate submissions must return identical bytes ({f})"
            );
        }
        let solved: Vec<&Json> = replies
            .iter()
            .filter(|r| r.field("store_hit").and_then(Json::as_bool) == Ok(false))
            .collect();
        let status = soft::serve::request(&addr, &soft::harness::proto::status_request())
            .expect("status request");
        assert_eq!(u64_field(&status, "jobs_served"), 2);
        assert_eq!(u64_field(&status, "store_hits"), 1);
        assert_eq!(
            u64_field(&status, "check_queries"),
            u64_field(solved[0], "check_queries"),
            "only the first runner may have touched a solver"
        );
        let ack = soft::serve::request(&addr, &soft::harness::proto::drain_request())
            .expect("drain request");
        assert_eq!(ack.field("type").and_then(Json::as_str), Ok("draining"));
    });
    let deadline = Instant::now() + Duration::from_secs(30);
    let status = loop {
        match child.try_wait().expect("wait daemon") {
            Some(st) => break Some(st),
            None if Instant::now() >= deadline => break None,
            None => std::thread::sleep(Duration::from_millis(50)),
        }
    };
    if result.is_err() || status.is_none() {
        let _ = child.kill();
        let _ = child.wait();
    }
    if let Err(e) = result {
        std::panic::resume_unwind(e);
    }
    assert!(
        status.expect("daemon failed to drain").success(),
        "daemon exited uncleanly"
    );
    let _ = fs::remove_dir_all(&store);
}

/// Library-level check of the invalidation-by-diff rule with a genuine
/// agent change: agent B "was" Reference in the baseline and "becomes"
/// Modified (a mutated Reference). Groups whose conditions survived the
/// mutation seed their stored verdicts; pairs touching a mutated group
/// re-solve — and only those.
#[test]
fn baseline_diff_reruns_only_impacted_pairs() {
    let run = |tag: &str, agent_b: AgentKind, baseline: Option<BaselineSeed>| {
        let dir = temp_dir(tag);
        let prefix = format!("{}/", dir.display());
        let cfg = SessionConfig {
            agent_a: AgentKind::OpenVSwitch.into(),
            agent_b: agent_b.into(),
            tests: vec![soft::suite::packet_out()],
            jobs: 2,
            seed: 0x50F7,
            solver_budget: soft::smt::SolverBudget::unlimited(),
            retry_rungs: 0,
            fuzz_tries: 0,
            out_prefix: prefix.clone(),
            journal: None,
            resume: false,
            fsync: false,
            incremental: true,
            baseline,
        };
        let report = run_session(&cfg).expect("session");
        let read = |name: String| fs::read_to_string(name).expect("artifact");
        let arts = (
            read(format!("{prefix}ovs_packet_out.json")),
            read(format!("{prefix}{}_packet_out.json", agent_b.id())),
            read(format!("{prefix}corpus_packet_out.json")),
        );
        let _ = fs::remove_dir_all(&dir);
        (report.outcomes.into_iter().next().expect("outcome"), arts)
    };

    // The stored run: OVS vs Reference.
    let (base_outcome, base_arts) = run("base", AgentKind::Reference, None);
    assert!(base_outcome.check_queries > 0);
    assert!(!base_outcome.verdicts.is_empty());

    // Reference run of the changed pair, with no baseline: the bytes the
    // diff-seeded run must reproduce, and its query count the ceiling.
    let (full_outcome, full_arts) = run("full", AgentKind::Modified, None);
    assert!(full_outcome.check_queries > 0);

    // The changed pair, seeded from the stored run.
    let seed = BaselineSeed {
        artifact_a: base_arts.0.clone(),
        artifact_b: base_arts.1.clone(),
        verdicts: base_outcome.verdicts.clone(),
    };
    let (diff_outcome, diff_arts) = run("diff", AgentKind::Modified, Some(seed));
    assert!(
        diff_outcome.seeded_pairs > 0,
        "groups untouched by the mutation must seed their verdicts"
    );
    assert!(
        diff_outcome.check_queries < full_outcome.check_queries,
        "diff seeding must shrink the solve set ({} !< {})",
        diff_outcome.check_queries,
        full_outcome.check_queries
    );
    assert_eq!(
        diff_outcome.check_queries + diff_outcome.seeded_pairs,
        full_outcome.check_queries,
        "every solvable pair is either seeded or freshly solved"
    );
    // Seeding is invisible in the published bytes.
    assert_eq!(
        normalize_wall(&diff_arts.0),
        normalize_wall(&full_arts.0),
        "artifact A diverged under seeding"
    );
    assert_eq!(
        normalize_wall(&diff_arts.1),
        normalize_wall(&full_arts.1),
        "artifact B diverged under seeding"
    );
    assert_eq!(diff_arts.2, full_arts.2, "corpus diverged under seeding");
}

/// `soft submit --status --json FILE` must persist exactly the counter
/// object the daemon itself writes to `serve_stats.json` on drain — one
/// counter set, two exits, no drift (the PR 9 satellite fix: `--json`
/// used to be silently ignored on `--status`).
#[test]
fn status_json_matches_persisted_stats() {
    let store = temp_dir("statusjson");
    let (mut child, addr) = spawn_daemon(&store);
    let status_path = store.join("status_snapshot.json");
    let result = std::panic::catch_unwind(|| {
        submit(&addr, &job());
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_soft"))
            .args(["submit", "--addr", &addr, "--status", "--json"])
            .arg(&status_path)
            .output()
            .expect("run soft submit --status --json");
        assert!(
            out.status.success(),
            "status submit failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let ack = soft::serve::request(&addr, &soft::harness::proto::drain_request())
            .expect("drain request");
        assert_eq!(ack.field("type").and_then(Json::as_str), Ok("draining"));
    });
    let deadline = Instant::now() + Duration::from_secs(30);
    let status = loop {
        match child.try_wait().expect("wait daemon") {
            Some(st) => break Some(st),
            None if Instant::now() >= deadline => break None,
            None => std::thread::sleep(Duration::from_millis(50)),
        }
    };
    if result.is_err() || status.is_none() {
        let _ = child.kill();
        let _ = child.wait();
    }
    if let Err(e) = result {
        std::panic::resume_unwind(e);
    }
    assert!(status.expect("daemon failed to drain").success());
    // No jobs ran between the snapshot and the drain, so the persisted
    // stats must agree with the snapshot exactly: same keys, same
    // values — field-for-field, not just the headline counters.
    let snapshot = soft::harness::json::parse(
        &fs::read_to_string(&status_path).expect("status snapshot written"),
    )
    .expect("snapshot parses");
    let stats = soft::harness::json::parse(
        &fs::read_to_string(store.join("serve_stats.json")).expect("stats persisted"),
    )
    .expect("stats parse");
    assert_eq!(
        snapshot, stats,
        "status reply and serve_stats.json must report one counter set"
    );
    let _ = fs::remove_dir_all(&store);
}

/// One daemon serves jobs of both protocols: an OpenFlow audit and a
/// TLV audit land in the same store under distinct keys (the job key
/// folds the protocol id), both produce confirmed-witness corpora, and
/// each resubmission is answered from the store.
#[test]
fn one_daemon_serves_both_protocols() {
    let store = temp_dir("dualproto");
    let (mut child, addr) = spawn_daemon(&store);
    let result = std::panic::catch_unwind(|| {
        let tlv_job = JobSpec {
            protocol: "tlv".to_string(),
            agent_a: "strict".to_string(),
            agent_b: "lenient".to_string(),
            test: "echo".to_string(),
            seed: 0x50F7,
            budget_conflicts: None,
            fuzz: 2,
            retry_rungs: 0,
            fp_a: None,
            fp_b: None,
        };
        let of_reply = submit(&addr, &job());
        let tlv_reply = submit(&addr, &tlv_job);
        for (name, reply) in [("of10", &of_reply), ("tlv", &tlv_reply)] {
            assert_eq!(
                reply.field("store_hit").and_then(Json::as_bool),
                Ok(false),
                "{name}: first submission must solve, not hit"
            );
            let summary = reply.field("summary").expect("summary");
            assert!(
                u64_field(summary, "confirmed") > 0,
                "{name}: expected a confirmed witness"
            );
        }
        // The two corpora speak different protocols — and say so.
        assert!(!str_field(&of_reply, "corpus").contains("\"protocol\""));
        assert!(str_field(&tlv_reply, "corpus").contains("\"protocol\":\"tlv\""));
        // Same daemon, same store: both jobs replay as store hits with
        // byte-identical artifacts.
        for (name, spec, first) in [
            ("of10", job(), &of_reply),
            ("tlv", tlv_job.clone(), &tlv_reply),
        ] {
            let again = submit(&addr, &spec);
            assert_eq!(
                again.field("store_hit").and_then(Json::as_bool),
                Ok(true),
                "{name}: resubmission must be a store hit"
            );
            assert_eq!(
                str_field(&again, "corpus"),
                str_field(first, "corpus"),
                "{name}: store hit must return the published bytes"
            );
        }
        let ack = soft::serve::request(&addr, &soft::harness::proto::drain_request())
            .expect("drain request");
        assert_eq!(ack.field("type").and_then(Json::as_str), Ok("draining"));
    });
    let deadline = Instant::now() + Duration::from_secs(30);
    let status = loop {
        match child.try_wait().expect("wait daemon") {
            Some(st) => break Some(st),
            None if Instant::now() >= deadline => break None,
            None => std::thread::sleep(Duration::from_millis(50)),
        }
    };
    if result.is_err() || status.is_none() {
        let _ = child.kill();
        let _ = child.wait();
    }
    if let Err(e) = result {
        std::panic::resume_unwind(e);
    }
    assert!(status.expect("daemon failed to drain").success());
    let _ = fs::remove_dir_all(&store);
}

/// A hostile length prefix on the wire must be rejected with a framed
/// error — not honored with an attempted multi-gigabyte allocation.
/// (The PR 9 satellite hardening: `read_frame` bounds the claimed
/// length *before* allocating and reads in chunks.)
#[test]
fn hostile_length_prefix_gets_a_framed_error_not_an_allocation() {
    use std::io::Write as _;
    let store = temp_dir("hostile");
    let (mut child, addr) = spawn_daemon(&store);
    let result = std::panic::catch_unwind(|| {
        let mut stream = TcpStream::connect(&addr).expect("connect");
        // Claimed length u32::MAX (4 GiB), arbitrary CRC: a corrupt or
        // hostile header, never a valid frame.
        stream.write_all(&u32::MAX.to_le_bytes()).expect("len");
        stream
            .write_all(&0xDEAD_BEEFu32.to_le_bytes())
            .expect("crc");
        stream.flush().expect("flush");
        let mut reader = std::io::BufReader::new(stream.try_clone().expect("clone"));
        let reply = soft::harness::proto::read_frame(&mut reader)
            .expect("daemon must reply, not hang or die")
            .expect("framed error, not EOF");
        assert_eq!(reply.field("type").and_then(Json::as_str), Ok("error"));
        let msg = str_field(&reply, "message");
        assert!(
            msg.contains("exceeds"),
            "error must name the bound violation, got: {msg}"
        );
        // The daemon survives to serve well-formed traffic.
        let status = soft::serve::request(&addr, &soft::harness::proto::status_request())
            .expect("status after hostile frame");
        assert_eq!(status.field("type").and_then(Json::as_str), Ok("status"));
        let ack = soft::serve::request(&addr, &soft::harness::proto::drain_request())
            .expect("drain request");
        assert_eq!(ack.field("type").and_then(Json::as_str), Ok("draining"));
    });
    let deadline = Instant::now() + Duration::from_secs(30);
    let status = loop {
        match child.try_wait().expect("wait daemon") {
            Some(st) => break Some(st),
            None if Instant::now() >= deadline => break None,
            None => std::thread::sleep(Duration::from_millis(50)),
        }
    };
    if result.is_err() || status.is_none() {
        let _ = child.kill();
        let _ = child.wait();
    }
    if let Err(e) = result {
        std::panic::resume_unwind(e);
    }
    assert!(status.expect("daemon failed to drain").success());
    let _ = fs::remove_dir_all(&store);
}

/// Wait up to `limit` for `child` to exit; kill it if it does not.
fn exit_within(child: &mut Child, limit: Duration) -> Option<std::process::ExitStatus> {
    let deadline = Instant::now() + limit;
    loop {
        match child.try_wait().expect("wait daemon") {
            Some(st) => return Some(st),
            None if Instant::now() >= deadline => {
                let _ = child.kill();
                let _ = child.wait();
                return None;
            }
            None => std::thread::sleep(Duration::from_millis(20)),
        }
    }
}

/// A daemon that never saw a job connection sits blocked in `accept`;
/// both stop sources must still wake it: SIGTERM (through the latch
/// watcher) and a `drain` request (through the accept wake). Either way
/// it exits 0 within 5 s and persists its counters.
#[test]
fn idle_daemon_stops_on_sigterm_and_on_drain() {
    for how in ["sigterm", "drain"] {
        let store = temp_dir(&format!("idle_{how}"));
        let (mut child, addr) = spawn_daemon(&store);
        if how == "sigterm" {
            let killed = Command::new("kill")
                .args(["-TERM", &child.id().to_string()])
                .status()
                .expect("run kill");
            assert!(killed.success(), "kill -TERM failed");
        } else {
            let ack = soft::serve::request(&addr, &soft::harness::proto::drain_request())
                .expect("drain request");
            assert_eq!(ack.field("type").and_then(Json::as_str), Ok("draining"));
        }
        let status = exit_within(&mut child, Duration::from_secs(5))
            .unwrap_or_else(|| panic!("idle daemon did not stop within 5 s of {how}"));
        assert!(status.success(), "{how}: daemon exited with {status}");
        assert!(
            store.join("serve_stats.json").exists(),
            "{how}: serve_stats.json not written"
        );
        let _ = fs::remove_dir_all(&store);
    }
}
