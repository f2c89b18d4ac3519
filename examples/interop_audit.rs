//! Full interoperability audit: Reference Switch vs. Open vSwitch.
//!
//! Reproduces the paper's deployment model (§2.4): each "vendor" runs
//! phase 1 locally and exports a JSON artifact; a third party groups the
//! artifacts and crosschecks them, producing the inconsistency catalogue
//! of §5.1.2 with concrete reproduction messages.
//!
//! Run with: `cargo run --release --example interop_audit`

use soft::core::report::{classify, dedupe, describe, reproduce};
use soft::core::Soft;
use soft::harness::{decode_run, encode_run, suite};
use soft::AgentKind;
use std::fs;
use std::time::Instant;

fn main() {
    let soft = Soft::new();
    let dir = std::env::temp_dir().join("soft_audit");
    fs::create_dir_all(&dir).expect("create artifact dir");

    let mut tests = suite::table3_suite();
    tests.push(suite::flow_mod());
    tests.push(suite::queue_config());

    println!("== Phase 1: per-vendor symbolic execution ==\n");
    for test in &tests {
        for kind in [AgentKind::Reference, AgentKind::OpenVSwitch] {
            let t0 = Instant::now();
            let run = soft.phase1(kind, test);
            let path = dir.join(format!("{}_{}.json", kind.id(), test.id));
            soft::harness::atomic_write(&path, encode_run(&run).as_bytes(), true)
                .expect("write artifact");
            println!(
                "  {:<12} {:<13} {:>6} paths  {:>9.2?}  -> {}",
                test.id,
                kind.id(),
                run.paths.len(),
                t0.elapsed(),
                path.display()
            );
        }
    }

    println!("\n== Phase 2: crosschecking the shipped artifacts ==\n");
    let mut total_incs = 0usize;
    let mut total_causes = 0usize;
    for test in &tests {
        let read = |k: AgentKind| {
            let p = dir.join(format!("{}_{}.json", k.id(), test.id));
            decode_run(&fs::read_to_string(p).unwrap()).unwrap()
        };
        let ga = soft.group(&read(AgentKind::Reference)).unwrap();
        let gb = soft.group(&read(AgentKind::OpenVSwitch)).unwrap();
        let t0 = Instant::now();
        let result = soft.phase2(&ga, &gb);
        let causes = dedupe(&result.inconsistencies);
        println!(
            "{:<13} groups {}x{}  queries {:>4}  time {:>9.2?}  inconsistencies {:>3}  root causes {}",
            test.id,
            ga.num_results(),
            gb.num_results(),
            result.queries,
            t0.elapsed(),
            result.inconsistencies.len(),
            causes.len()
        );
        total_incs += result.inconsistencies.len();
        total_causes += causes.len();

        // Print one representative per root cause, with a reproduction.
        for cause in &causes {
            let inc = &result.inconsistencies[cause.members[0]];
            println!(
                "    - {} ({} instances)",
                classify(inc).label(),
                cause.members.len()
            );
            for line in describe(inc).lines().skip(1) {
                println!("    {line}");
            }
            for (i, msg) in reproduce(test, inc).iter().enumerate() {
                let hex: String = msg.iter().map(|b| format!("{b:02x}")).collect();
                println!("      repro msg{i}: {hex}");
            }
        }
        println!();
    }
    println!(
        "TOTAL: {total_incs} inconsistencies across {} tests, {total_causes} distinct root causes",
        tests.len()
    );
}
