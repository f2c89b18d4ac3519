//! End-to-end tests of the `soft` command-line tool — the deployment
//! shape of §2.4: vendors produce artifacts, a third party crosschecks.

use std::path::PathBuf;
use std::process::Command;

fn soft_bin() -> PathBuf {
    // Integration tests live next to the binary in the same target dir.
    let mut p = std::env::current_exe().expect("test exe path");
    p.pop(); // deps/
    p.pop(); // debug/ or release/
    p.push(format!("soft{}", std::env::consts::EXE_SUFFIX));
    p
}

fn run(args: &[&str]) -> (String, String, Option<i32>) {
    let out = Command::new(soft_bin())
        .args(args)
        .output()
        .expect("spawn soft binary");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.code(),
    )
}

#[test]
fn tests_subcommand_lists_suite() {
    let (stdout, _, code) = run(&["tests"]);
    assert_eq!(code, Some(0));
    for id in ["packet_out", "set_config", "short_symb", "timeout_flow_mod"] {
        assert!(stdout.contains(id), "missing test id {id} in:\n{stdout}");
    }
}

#[test]
fn usage_on_bad_invocation() {
    let (_, stderr, code) = run(&[]);
    assert_eq!(code, Some(1));
    assert!(stderr.contains("usage"));
    let (_, stderr, code) = run(&["phase1", "--agent", "bogus"]);
    assert_eq!(code, Some(1));
    assert!(stderr.contains("unknown --agent") || stderr.contains("usage"));
}

#[test]
fn unknown_flags_are_rejected() {
    // `check` has no solver-path switch: the flag must fail, not be ignored.
    let (_, stderr, code) = run(&["check", "a.json", "b.json", "--no-incremental"]);
    assert_eq!(code, Some(1));
    assert!(
        stderr.contains("unknown flag '--no-incremental'"),
        "stderr: {stderr}"
    );
    // A misspelt flag on `run` must not run the default solver path.
    let dir = std::env::temp_dir().join("soft_cli_unknown_flag");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let prefix = format!("{}/", dir.display());
    let (stdout, stderr, code) = run(&[
        "run",
        "--agents",
        "reference,ovs",
        "--test",
        "concrete",
        "--no-incremntal",
        "--no-journal",
        "--out",
        &prefix,
    ]);
    assert_eq!(code, Some(1));
    assert!(
        stderr.contains("unknown flag '--no-incremntal'"),
        "stderr: {stderr}"
    );
    assert!(stdout.is_empty(), "nothing may run: {stdout}");
    assert!(!dir.join("corpus_concrete.json").exists());
    // A listed flag and its value pass the check.
    let (_, stderr, code) = run(&["tests", "--protocol", "tlv"]);
    assert_eq!(code, Some(0), "stderr: {stderr}");
}

#[test]
fn full_vendor_workflow() {
    let dir = std::env::temp_dir().join("soft_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let a = dir.join("ref.json");
    let b = dir.join("ovs.json");

    let (stdout, stderr, code) = run(&[
        "phase1",
        "--agent",
        "reference",
        "--test",
        "queue_config",
        "--out",
        a.to_str().unwrap(),
    ]);
    assert_eq!(code, Some(0), "stderr: {stderr}");
    assert!(stdout.trim().ends_with("ref.json"));

    let (_, _, code) = run(&[
        "phase1",
        "--agent",
        "ovs",
        "--test",
        "queue_config",
        "--out",
        b.to_str().unwrap(),
    ]);
    assert_eq!(code, Some(0));

    // check: exit code 2 signals divergences, like a linter.
    let (stdout, _, code) = run(&["check", a.to_str().unwrap(), b.to_str().unwrap()]);
    assert_eq!(code, Some(2));
    assert!(stdout.contains("1 inconsistencies"), "{stdout}");

    // report with replay validation; like check, it exits 2 on divergences.
    let report_json = dir.join("report.json");
    let (stdout, _, code) = run(&[
        "report",
        a.to_str().unwrap(),
        b.to_str().unwrap(),
        "--replay",
        "--json",
        report_json.to_str().unwrap(),
    ]);
    assert_eq!(code, Some(2));
    assert!(stdout.contains("agent terminates with an error"));
    assert!(stdout.contains("repro msg0: 0114000c"));
    assert!(stdout.contains("diverges=true matches_prediction=true"));
    // The solver section carries the fresh solves' CNF size.
    let json = std::fs::read_to_string(&report_json).expect("report --json output");
    for key in ["\"cnf_clauses\"", "\"cnf_vars\"", "\"sat_propagations\""] {
        assert!(json.contains(key), "report --json lacks {key}: {json}");
    }

    // An explicit (generous) solver budget decides every pair the same way.
    let (stdout, _, code) = run(&[
        "check",
        a.to_str().unwrap(),
        b.to_str().unwrap(),
        "--solver-budget",
        "1000000",
    ]);
    assert_eq!(code, Some(2));
    assert!(stdout.contains("0 unverified"), "{stdout}");
}

#[test]
fn streaming_run_workflow() {
    let dir = std::env::temp_dir().join("soft_cli_run");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let prefix = format!("{}/", dir.display());

    // One command replaces the whole phase1 + check + distill sequence;
    // like check, it exits 2 when inconsistencies were found.
    let (stdout, stderr, code) = run(&[
        "run",
        "--agents",
        "reference,ovs",
        "--test",
        "queue_config",
        "--out",
        &prefix,
        "--jobs",
        "4",
        "--no-fsync",
    ]);
    assert_eq!(code, Some(2), "stderr: {stderr}");
    assert!(stdout.contains("1 inconsistencies"), "{stdout}");
    assert!(stdout.contains("confirmed witness"), "{stdout}");
    for artifact in [
        "reference_queue_config.json",
        "ovs_queue_config.json",
        "corpus_queue_config.json",
        "session.wal",
    ] {
        assert!(
            dir.join(artifact).exists(),
            "missing published artifact {artifact}"
        );
    }

    // Re-running with --resume replays the finished test from the
    // journal instead of re-exploring.
    let (stdout, stderr, code) = run(&[
        "run",
        "--agents",
        "reference,ovs",
        "--test",
        "queue_config",
        "--out",
        &prefix,
        "--resume",
        "--no-fsync",
    ]);
    assert_eq!(code, Some(2), "stderr: {stderr}");
    assert!(stdout.contains("(resumed)"), "{stdout}");
}

#[test]
fn run_without_journal_creates_the_out_directory() {
    // Only the journal used to create the `--out` directory, so a
    // `--no-journal` run explored and then failed at its first publish.
    let dir = std::env::temp_dir().join("soft_cli_run_no_journal");
    let _ = std::fs::remove_dir_all(&dir);
    let prefix = format!("{}/nodir/x_", dir.display());
    let (stdout, stderr, code) = run(&[
        "run",
        "--agents",
        "reference,ovs",
        "--test",
        "short_symb",
        "--no-journal",
        "--no-fsync",
        "--out",
        &prefix,
    ]);
    assert!(matches!(code, Some(0) | Some(2)), "stderr: {stderr}");
    assert!(stdout.contains("short_symb:"), "{stdout}");
    for artifact in [
        "x_reference_short_symb.json",
        "x_ovs_short_symb.json",
        "x_corpus_short_symb.json",
    ] {
        assert!(
            dir.join("nodir").join(artifact).exists(),
            "missing published artifact {artifact}"
        );
    }
}

#[test]
fn phase1_and_distill_without_journal_create_the_out_directory() {
    // As for `run`: without a journal nothing else creates the `--out`
    // directory, so both commands did all their work and then failed to
    // publish.
    let dir = std::env::temp_dir().join(format!("soft_cli_nodir_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (a, b) = (dir.join("nodir/a.json"), dir.join("other/b.json"));
    for (agent, path) in [("reference", &a), ("ovs", &b)] {
        let (stdout, stderr, code) = run(&[
            "phase1",
            "--agent",
            agent,
            "--test",
            "short_symb",
            "--no-journal",
            "--no-fsync",
            "--out",
            path.to_str().unwrap(),
        ]);
        assert_eq!(code, Some(0), "stderr: {stderr}");
        assert!(stdout.contains(path.to_str().unwrap()), "{stdout}");
        assert!(path.exists(), "missing artifact {}", path.display());
    }
    let corpus = dir.join("corpora/c.json");
    let (stdout, stderr, code) = run(&[
        "distill",
        a.to_str().unwrap(),
        b.to_str().unwrap(),
        "--no-journal",
        "--no-fsync",
        "--out",
        corpus.to_str().unwrap(),
    ]);
    assert!(matches!(code, Some(0) | Some(2)), "{stdout}{stderr}");
    assert!(corpus.exists(), "missing corpus: {stdout}{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn run_flag_validation() {
    let (_, stderr, code) = run(&["run", "--test", "queue_config"]);
    assert_eq!(code, Some(1));
    assert!(stderr.contains("missing --agents"), "{stderr}");
    let (_, stderr, code) = run(&["run", "--agents", "reference", "--test", "queue_config"]);
    assert_eq!(code, Some(1));
    assert!(stderr.contains("exactly two"), "{stderr}");
    let (_, stderr, code) = run(&["run", "--agents", "reference,ovs"]);
    assert_eq!(code, Some(1));
    assert!(stderr.contains("--test"), "{stderr}");
}

#[test]
fn solver_budget_flag_is_validated() {
    let (_, stderr, code) = run(&["check", "a.json", "b.json", "--solver-budget", "zero"]);
    assert_eq!(code, Some(1));
    assert!(stderr.contains("--solver-budget"), "{stderr}");
    let (_, stderr, _) = run(&["nonsense"]);
    assert!(
        stderr.contains("--solver-budget"),
        "usage must document the budget flag:\n{stderr}"
    );
    assert!(
        stderr.contains("exit codes"),
        "usage must document exit codes:\n{stderr}"
    );
}

#[test]
fn panicky_agent_completes_phase1() {
    let dir = std::env::temp_dir().join("soft_cli_panicky");
    std::fs::create_dir_all(&dir).unwrap();
    let a = dir.join("panicky.json");
    // The injected panic is contained as a crash output: the run finishes,
    // the artifact is written, and the exit code is clean (not truncated).
    let (stdout, stderr, code) = run(&[
        "phase1",
        "--agent",
        "panicky",
        "--test",
        "packet_out",
        "--out",
        a.to_str().unwrap(),
    ]);
    assert_eq!(code, Some(0), "stderr: {stderr}");
    assert!(stdout.trim().ends_with("panicky.json"));
    let text = std::fs::read_to_string(&a).unwrap();
    assert!(text.contains("\"truncated\":false"), "run must complete");
}

#[test]
fn check_rejects_mismatched_tests() {
    let dir = std::env::temp_dir().join("soft_cli_mismatch");
    std::fs::create_dir_all(&dir).unwrap();
    let a = dir.join("a.json");
    let b = dir.join("b.json");
    run(&[
        "phase1",
        "--agent",
        "reference",
        "--test",
        "queue_config",
        "--out",
        a.to_str().unwrap(),
    ]);
    run(&[
        "phase1",
        "--agent",
        "ovs",
        "--test",
        "short_symb",
        "--out",
        b.to_str().unwrap(),
    ]);
    let (_, stderr, code) = run(&["check", a.to_str().unwrap(), b.to_str().unwrap()]);
    assert_eq!(code, Some(1));
    assert!(stderr.contains("different tests"));
}

#[test]
fn check_rejects_corrupt_artifacts() {
    let dir = std::env::temp_dir().join("soft_cli_corrupt");
    std::fs::create_dir_all(&dir).unwrap();
    let a = dir.join("bad.json");
    std::fs::write(&a, "{ not json").unwrap();
    let (_, stderr, code) = run(&["check", a.to_str().unwrap(), a.to_str().unwrap()]);
    assert_eq!(code, Some(1));
    assert!(stderr.contains("cannot parse"));
}

#[test]
fn regress_compares_artifacts_of_one_test() {
    let dir = std::env::temp_dir().join(format!("soft_cli_regress_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let art = |agent: &str, test: &str| {
        let path = dir.join(format!("{agent}_{test}.json"));
        let out = path.to_str().unwrap();
        let args = ["phase1", "--agent", agent, "--test", test, "--out", out];
        let (_, stderr, code) = run(&[&args[..], &["--no-journal"]].concat());
        assert_eq!(code, Some(0), "phase1: {stderr}");
        path.to_str().unwrap().to_string()
    };
    let (reference, ovs) = (art("reference", "queue_config"), art("ovs", "queue_config"));

    let (stdout, _, code) = run(&["regress", &reference, &reference]);
    assert_eq!(code, Some(0));
    assert_eq!(
        stdout,
        "baseline reference vs candidate reference on 'queue_config': +0 output classes, \
         -0 classes, 0 shifted subspaces\nclean\n"
    );
    let (stdout, _, code) = run(&["regress", &reference, &ovs]);
    assert_eq!(code, Some(2));
    let mut lines = stdout.lines();
    assert_eq!(
        lines.next(),
        Some(
            "baseline reference vs candidate ovs on 'queue_config': +0 output classes, \
             -1 classes, 1 shifted subspaces"
        )
    );
    assert_eq!(
        lines.next(),
        Some("  [queue_config] reference vs ovs: agent terminates with an error")
    );

    let (_, stderr, code) = run(&["regress", &reference, &art("ovs", "short_symb")]);
    assert_eq!(code, Some(1));
    assert!(stderr.contains("different tests"), "stderr: {stderr}");

    let corrupt = dir.join("corrupt.json");
    let text = std::fs::read_to_string(&ovs).unwrap();
    std::fs::write(&corrupt, &text[..text.len() / 2]).unwrap();
    let (_, stderr, code) = run(&["regress", &reference, corrupt.to_str().unwrap()]);
    assert_eq!(code, Some(1));
    assert!(stderr.contains("cannot parse"), "stderr: {stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn distill_resume_reuses_check_verdicts() {
    let dir = std::env::temp_dir().join(format!("soft_cli_distill_resume_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let (a, b) = (dir.join("ref.json"), dir.join("ovs.json"));
    for (agent, path) in [("reference", &a), ("ovs", &b)] {
        let (_, stderr, code) = run(&[
            "phase1",
            "--agent",
            agent,
            "--test",
            "queue_config",
            "--out",
            path.to_str().unwrap(),
            "--no-journal",
        ]);
        assert_eq!(code, Some(0), "stderr: {stderr}");
    }
    let (a, b) = (a.to_str().unwrap(), b.to_str().unwrap());
    let wal = dir.join("check.wal");
    let wal_arg = wal.to_str().unwrap();
    let (stdout, stderr, code) = run(&["check", a, b, "--journal", wal_arg, "--no-fsync"]);
    assert_eq!(code, Some(2), "{stdout}{stderr}");
    let wal_len = std::fs::metadata(&wal).unwrap().len();

    // `distill` runs the same crosscheck under the same fingerprint, so
    // resuming `check`'s journal finds every verdict decided: it appends
    // nothing and publishes the corpus a fresh distill would.
    let resumed = dir.join("resumed.json");
    let (stdout, stderr, code) = run(&[
        "distill",
        a,
        b,
        "--out",
        resumed.to_str().unwrap(),
        "--journal",
        wal_arg,
        "--resume",
        "--no-fsync",
    ]);
    assert_eq!(code, Some(2), "{stdout}{stderr}");
    assert_eq!(
        std::fs::metadata(&wal).unwrap().len(),
        wal_len,
        "distill --resume journaled verdicts check had already decided"
    );
    let fresh = dir.join("fresh.json");
    let (stdout, stderr, code) = run(&[
        "distill",
        a,
        b,
        "--out",
        fresh.to_str().unwrap(),
        "--no-journal",
    ]);
    assert_eq!(code, Some(2), "{stdout}{stderr}");
    assert_eq!(
        std::fs::read(&resumed).unwrap(),
        std::fs::read(&fresh).unwrap()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
#[cfg(unix)]
fn closed_stdout_ends_quietly() {
    // The reader of stdout is gone before the first write. The CLI must
    // end without a panic, not die with "failed printing to stdout:
    // Broken pipe" and exit code 101.
    let (reader, writer) = std::io::pipe().unwrap();
    drop(reader);
    let out = Command::new(soft_bin())
        .arg("tests")
        .stdout(writer)
        .output()
        .expect("spawn soft binary");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_ne!(out.status.code(), Some(101), "{stderr}");
}
