//! Ablation: structured vs unstructured symbolic inputs (§3.2.1).
//!
//! The paper's key scalability insight is that inputs must adhere to valid
//! format boundaries: concrete message type, concrete length, concrete
//! action-list geometry. This bench feeds the Reference Switch the same
//! Packet Out content three ways:
//!
//!  1. fully structured (the Table 1 construction),
//!  2. structured body but symbolic type+length ("loose framing"),
//!  3. an entirely symbolic byte buffer of the same size.
//!
//! Expected shape: every relaxation multiplies the explored paths with no
//! gain in packet-out-relevant coverage — symbolic execution burns its
//! budget re-discovering the message grammar.

use soft_agents::AgentKind;
use soft_bench::{fmt_time, timed_run};
use soft_dataplane::tcp_probe;
use soft_harness::{Input, TestCase};
use soft_openflow::builder::{packet_out, ActionSpec};
use soft_sym::{ExplorerConfig, SymBuf};

fn main() {
    let payload = tcp_probe().buf.as_concrete().unwrap();
    let structured = packet_out(
        "s0",
        &[ActionSpec::Symbolic, ActionSpec::SymbolicOutput],
        &payload,
    );

    // Loose framing: same bytes but type and length symbolic again.
    let mut loose = SymBuf::symbolic("s1", structured.len());
    let reference = packet_out(
        "s1",
        &[ActionSpec::Symbolic, ActionSpec::SymbolicOutput],
        &payload,
    );
    for i in 0..structured.len() {
        if reference.u8(i).as_bv_const().is_some() && i != 1 && i != 2 && i != 3 {
            if let Some(v) = reference.u8(i).as_bv_const() {
                loose.set_u8(i, v as u8);
            }
        }
    }

    // Fully unstructured: every byte symbolic except the version.
    let mut unstructured = SymBuf::symbolic("s2", structured.len());
    unstructured.set_u8(0, 1);

    let cfg = ExplorerConfig {
        max_paths: Some(20_000),
        ..Default::default()
    };
    println!("== Ablation: structured vs unstructured inputs (Reference Switch) ==\n");
    println!(
        "{:<22} {:>8} {:>10} {:>10} {:>9}",
        "Input construction", "Paths", "PO-paths", "PO-share", "Time"
    );
    for (name, msg) in [
        ("structured (Table 1)", structured),
        ("symbolic type+len", loose),
        ("fully symbolic bytes", unstructured),
    ] {
        let test = TestCase::new("abl_struct", name, "", vec![Input::Message(msg)]);
        let (run, wall) = timed_run(AgentKind::Reference, &test, &cfg);
        // The metric that matters: how much of the exploration budget
        // reaches the Packet Out execution logic at all, vs being burned
        // rediscovering framing and dispatch.
        let po_paths = {
            // Re-explore to access per-path coverage.
            let ex = soft_sym::explore(&cfg, |ctx| {
                let mut a = AgentKind::Reference.make();
                a.on_connect(ctx)?;
                if let Input::Message(m) = &test.inputs[0] {
                    a.handle_message(ctx, m)?;
                }
                Ok(())
            });
            ex.paths
                .iter()
                .filter(|p| p.coverage.blocks.contains(&"packet_out.execute"))
                .count()
        };
        let share = 100.0 * po_paths as f64 / run.paths.len().max(1) as f64;
        println!(
            "{:<22} {:>8} {:>10} {:>9.1}% {:>9}",
            name,
            run.paths.len(),
            po_paths,
            share,
            fmt_time(wall),
        );
    }
    println!("\nWith structure, every path exercises Packet Out processing; relaxing");
    println!("the framing spends the exploration budget on dispatch/framing classes");
    println!("that never reach the handler under test — the §3.2.1 claim.");
}
