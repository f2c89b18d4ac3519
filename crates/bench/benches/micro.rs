//! Micro-benchmarks of the hot kernels underneath SOFT: constraint
//! solving (SAT path and simplification path), bit-blasting, flow-match
//! condition construction, trace normalization, and grouping.
//!
//! Self-timed (no external harness): each kernel is warmed up, then run
//! for a fixed iteration count, reporting mean ns/iter.

use soft_core::group_paths;
use soft_dataplane::{tcp_probe, MatchFields};
use soft_harness::{ObservedOutput, PathRecord};
use soft_protocol::TraceEvent;
use soft_smt::{sexpr, Solver, Term};
use soft_sym::SymBuf;
use std::hint::black_box;
use std::time::Instant;

/// Run `f` `iters` times after a small warmup; print mean time per call.
fn bench<R>(group: &str, name: &str, iters: u32, mut f: impl FnMut() -> R) {
    for _ in 0..iters.div_ceil(10) {
        black_box(f());
    }
    let t0 = Instant::now();
    for _ in 0..iters {
        black_box(f());
    }
    let total = t0.elapsed();
    let per = total.as_nanos() / iters as u128;
    println!("{group}/{name:<28} {per:>12} ns/iter  ({iters} iters)");
}

fn bench_solving() {
    bench("solver", "simplification_fast_path", 2000, || {
        let x = Term::var("mb.s", 16);
        let q = vec![
            x.clone().eq(Term::bv_const(16, 0xfffd)),
            x.clone().uge(Term::bv_const(16, 25)),
        ];
        let mut s = Solver::new();
        s.check(black_box(&q))
    });
    bench("solver", "bitblast_range_query", 200, || {
        // Forces the SAT path: overlapping ranges with arithmetic.
        let x = Term::var("mb.r", 16);
        let y = Term::var("mb.r2", 16);
        let q = vec![
            x.clone().bvadd(y.clone()).ugt(Term::bv_const(16, 30000)),
            x.clone().ult(Term::bv_const(16, 20000)),
            y.clone().ult(Term::bv_const(16, 20000)),
        ];
        let mut s = Solver::new();
        s.check(black_box(&q))
    });
    bench("solver", "unsat_disjoint_ranges", 2000, || {
        let x = Term::var("mb.u", 16);
        let q = vec![
            x.clone().ult(Term::bv_const(16, 10)),
            x.clone().ugt(Term::bv_const(16, 20)),
        ];
        let mut s = Solver::new();
        s.check(black_box(&q))
    });
}

fn bench_terms() {
    let buf = SymBuf::symbolic("mb.m", 40);
    let pkt = tcp_probe();
    let in_port = Term::bv_const(16, 1);
    bench("terms", "build_match_conditions", 2000, || {
        let mf = MatchFields::parse(black_box(&buf), 0);
        mf.conditions(&in_port, &pkt)
    });

    let x = Term::var("mb.w", 16);
    let t = x
        .clone()
        .bvadd(Term::bv_const(16, 3))
        .bvmul(x.clone())
        .eq(Term::bv_const(16, 77))
        .and(x.clone().ult(Term::bv_const(16, 1000)));
    bench("terms", "wire_roundtrip", 5000, || {
        let w = sexpr::to_wire(black_box(&t));
        sexpr::from_wire(&w).unwrap()
    });

    let conds: Vec<Term> = (0..64)
        .map(|i| Term::var(format!("mb.c{i}"), 8).eq(Term::bv_const(8, i)))
        .collect();
    let big = soft_smt::simplify::mk_or_balanced(&conds);
    bench("terms", "op_count_metric", 5000, || {
        soft_smt::metrics::op_count(black_box(&big))
    });
}

fn bench_grouping() {
    let paths: Vec<PathRecord> = (0..256)
        .map(|i| {
            let cond = Term::var("mb.g", 16).eq(Term::bv_const(16, i));
            PathRecord {
                constraint_size: 1,
                condition: cond,
                output: ObservedOutput {
                    events: vec![TraceEvent::Error {
                        xid: Term::bv_const(32, 0),
                        etype: Term::bv_const(16, 1),
                        code: Term::bv_const(16, i % 8),
                    }],
                    crashed: false,
                },
            }
        })
        .collect();
    bench("grouping", "group_256_paths_8_outputs", 500, || {
        group_paths("a", "t", black_box(&paths)).expect("grouping")
    });

    let trace: Vec<TraceEvent> = (0..32)
        .map(|i| TraceEvent::PacketIn {
            buffer_id: Term::bv_const(32, i),
            in_port: Term::bv_const(16, 1),
            reason: Term::bv_const(8, 0),
            data_len: Term::bv_const(16, 64),
            data: SymBuf::concrete(&[0u8; 64]),
        })
        .collect();
    bench("grouping", "normalize_trace", 2000, || {
        soft_protocol::normalize_trace(black_box(&trace))
    });
}

fn main() {
    println!("== micro: hot-kernel benchmarks ==\n");
    bench_solving();
    bench_terms();
    bench_grouping();
}
