//! Smoke test: every workload at minimum size prints every metric named
//! in `BENCHMARK.json` with its unit, and a wrong expectation fails the
//! run. The workloads run real audits, so run this optimized:
//!
//! ```text
//! cargo test --release --manifest-path softbench/Cargo.toml
//! ```

use soft_harness::json::{parse, Json};
use std::path::{Path, PathBuf};
use std::process::Command;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("softbench sits inside the repository")
        .to_path_buf()
}

/// `(name, unit)` of every metric in `BENCHMARK.json` under `section`.
fn declared(section: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let doc = parse(&text).expect("BENCHMARK.json parses");
    doc.field(section)
        .and_then(Json::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let s = |k: &str| m.field(k).and_then(Json::as_str).expect(k).to_string();
            (s("name"), s("unit"))
        })
        .collect()
}

/// Run the benchmark from the repository root; returns the exit code and
/// the parsed last line of standard output.
fn softbench(args: &[&str]) -> (Option<i32>, Json) {
    let out = Command::new(env!("CARGO_BIN_EXE_softbench"))
        .args(args)
        .current_dir(repo_root())
        .output()
        .expect("run softbench");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    let result = parse(last).unwrap_or_else(|e| panic!("last line is not JSON ({e}):\n{stdout}"));
    (out.status.code(), result)
}

fn assert_prints_all(workload: &str, trace: &str, section: &str) {
    let (code, result) = softbench(&[
        "--workload",
        workload,
        "--seed",
        "3",
        "--seconds",
        "0.01",
        "--trace",
        trace,
    ]);
    assert_eq!(code, Some(0), "{workload}: {result}");
    assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{result}");
    assert_eq!(result.get("failed"), Some(&Json::UInt(0)), "{result}");
    let metrics = result.field("metrics").expect("metrics");
    for (name, unit) in declared(section) {
        let m = metrics
            .field(&name)
            .unwrap_or_else(|_| panic!("{workload} does not print {name}"));
        assert_eq!(m.field("unit").and_then(Json::as_str), Ok(unit.as_str()));
        assert!(m.field("value").and_then(Json::as_f64).is_ok(), "{name}");
    }
}

#[test]
fn interop_audit_prints_every_metric() {
    assert_prints_all("interop_audit", "0", "end_to_end");
    assert_prints_all("interop_audit", "1", "per_layer");
}

#[test]
fn eth_audit_prints_every_metric() {
    assert_prints_all("eth_audit", "0", "end_to_end");
}

#[test]
fn serve_mix_prints_every_metric() {
    assert_prints_all("serve_mix", "0", "end_to_end");
}

#[test]
fn conform_replay_prints_every_metric() {
    assert_prints_all("conform_replay", "0", "end_to_end");
}

#[test]
fn a_corrupted_expected_tuple_fails_the_run() {
    let committed =
        std::fs::read_to_string(repo_root().join("softbench/expected.tsv")).expect("expected.tsv");
    let corrupted = committed.replace(
        "short_symb        18      16      4",
        "short_symb        18      16      5",
    );
    assert_ne!(corrupted, committed, "the corruption must hit the table");
    let dir = repo_root().join(".bench_work");
    std::fs::create_dir_all(&dir).expect("create .bench_work");
    let path = dir.join(format!("corrupted_expected_{}.tsv", std::process::id()));
    std::fs::write(&path, corrupted).expect("write corrupted table");
    let (code, result) = softbench(&[
        "--workload",
        "interop_audit",
        "--seconds",
        "0.01",
        "--expected",
        path.to_str().expect("utf-8 temp path"),
    ]);
    let _ = std::fs::remove_file(&path);
    assert_ne!(code, Some(0), "{result}");
    assert_eq!(result.get("correct"), Some(&Json::Bool(false)), "{result}");
    assert_eq!(result.get("failed"), Some(&Json::UInt(1)), "{result}");
}
