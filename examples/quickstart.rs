//! Quickstart: the paper's §2.3 worked example, end to end.
//!
//! Two toy "agents" process a Packet Out whose port is symbolic. Agent 1
//! knows the special controller port; Agent 2 does not. We symbolically
//! execute both, group paths by output, intersect the differing output
//! subspaces, and recover the concrete inconsistency input the paper
//! derives by hand: `p == OFPP_CONTROLLER`.
//!
//! Run with: `cargo run --release --example quickstart`

use soft::core::{crosscheck, group_paths, CrosscheckConfig};
use soft::harness::{ObservedOutput, PathRecord};
use soft::openflow::consts::port::OFPP_CONTROLLER;
use soft::protocol::TraceEvent;
use soft::smt::Term;
use soft::sym::{explore, ExecCtx, ExplorerConfig, RunEnd, SymBuf};

/// Figure 1, Agent 1: handles OFPP_CONTROLLER, forwards small ports,
/// rejects everything else.
fn agent1(ctx: &mut ExecCtx<'_, TraceEvent>) -> RunEnd {
    let p = Term::var("q.port", 16);
    if ctx.branch(
        "a1.is_ctrl",
        &p.clone().eq(Term::bv_const(16, OFPP_CONTROLLER as u64)),
    )? {
        ctx.emit(TraceEvent::PacketIn {
            buffer_id: Term::bv_const(32, 0),
            in_port: Term::bv_const(16, 1),
            reason: Term::bv_const(8, 1),
            data_len: Term::bv_const(16, 0),
            data: SymBuf::empty(),
        });
    } else if ctx.branch("a1.is_small", &p.clone().ult(Term::bv_const(16, 25)))? {
        ctx.emit(TraceEvent::DataPlaneTx {
            port: p,
            data: SymBuf::empty(),
        });
    } else {
        ctx.emit(TraceEvent::Error {
            xid: Term::bv_const(32, 0),
            etype: Term::bv_const(16, 2),
            code: Term::bv_const(16, 4),
        });
    }
    Ok(())
}

/// Figure 1, Agent 2: no controller-port support.
fn agent2(ctx: &mut ExecCtx<'_, TraceEvent>) -> RunEnd {
    let p = Term::var("q.port", 16);
    if ctx.branch("a2.is_small", &p.clone().ult(Term::bv_const(16, 25)))? {
        ctx.emit(TraceEvent::DataPlaneTx {
            port: p,
            data: SymBuf::empty(),
        });
    } else {
        ctx.emit(TraceEvent::Error {
            xid: Term::bv_const(32, 0),
            etype: Term::bv_const(16, 2),
            code: Term::bv_const(16, 4),
        });
    }
    Ok(())
}

fn paths_of<F>(program: F) -> Vec<PathRecord>
where
    F: Fn(&mut ExecCtx<'_, TraceEvent>) -> RunEnd + Sync,
{
    let ex = explore(&ExplorerConfig::default(), program);
    ex.effective_paths()
        .map(|p| {
            let condition = p.condition_term();
            PathRecord {
                constraint_size: soft::smt::metrics::op_count(&condition),
                condition,
                output: ObservedOutput {
                    events: soft::protocol::normalize_trace(&p.trace),
                    crashed: false,
                },
            }
        })
        .collect()
}

fn main() {
    println!("SOFT quickstart — the paper's Figure 1/2 example\n");

    // Phase 1: symbolically execute each agent in isolation.
    let paths1 = paths_of(agent1);
    let paths2 = paths_of(agent2);
    println!("Agent 1 explored {} paths (input subspaces)", paths1.len());
    println!(
        "Agent 2 explored {} paths (input subspaces)\n",
        paths2.len()
    );

    // Grouping: merge subspaces with identical outputs.
    let g1 = group_paths("agent1", "fig2", &paths1).expect("grouping");
    let g2 = group_paths("agent2", "fig2", &paths2).expect("grouping");
    println!("Agent 1 distinct outputs: {}", g1.num_results());
    println!("Agent 2 distinct outputs: {}\n", g2.num_results());

    // Phase 2: intersect subspaces of differing outputs.
    let result = crosscheck(&g1, &g2, &CrosscheckConfig::default());
    println!(
        "Crosscheck: {} solver queries, {} inconsistencies\n",
        result.queries,
        result.inconsistencies.len()
    );
    for inc in &result.inconsistencies {
        let port = inc.witness.get("q.port").unwrap_or(0);
        println!(
            "inconsistency: agent1 -> {}, agent2 -> {}",
            inc.output_a.events[0].kind(),
            inc.output_b.events[0].kind()
        );
        println!("  reproduction input: port = {port:#06x}");
        assert_eq!(port, OFPP_CONTROLLER as u64);
    }
    println!("\nThe recovered test case is exactly the paper's: p = OFPP_CONTROLLER.");
}
