//! End-to-end tests of `soft conform`: the wire harness against loopback
//! DUTs, with and without fault injection, plus the unreachable path.

use soft::conform::handshake::{frame, handshake};
use soft::conform::{
    loopback_self_test, run_conform, Acceptor, Channel, Connector, ExitClass, LoopbackDut,
    ReplayConfig, TcpConnector, Verdict,
};
use soft::openflow::consts::msg_type;
use soft::witness::{ConcreteInput, Corpus, CorpusEntry, Origin, Status};
use std::time::{Duration, Instant};

fn entry(status: Status, inputs: Vec<ConcreteInput>) -> CorpusEntry {
    let msg_types = inputs
        .iter()
        .filter_map(|i| match i {
            ConcreteInput::Message(b) => Some(b.get(1).copied().unwrap_or(0)),
            _ => None,
        })
        .collect();
    CorpusEntry {
        origin: Origin::Distilled { inconsistency: 0 },
        status,
        inputs,
        kind: "test".into(),
        signature: String::new(),
        msg_types,
        free_bytes: 0,
        residual_bytes: 0,
    }
}

/// A hand-built corpus with one discriminating crash witness (queue
/// config for port 0: the reference model crashes, OVS replies), one
/// well-behaved witness, one projected probe-only entry, and one
/// unframable entry — every skip path is represented.
fn test_corpus() -> Corpus {
    let queue_cfg_port0 = frame(msg_type::QUEUE_GET_CONFIG_REQUEST, 0x11, &[0, 0, 0, 0]);
    let barrier = frame(msg_type::BARRIER_REQUEST, 0x22, &[]);
    let mut unframable = frame(msg_type::ECHO_REQUEST, 0x33, &[]);
    unframable[3] = 200; // length field disagrees with the byte count

    Corpus {
        protocol: "of10".into(),
        test: "conform-e2e".into(),
        agent_a: "reference".into(),
        agent_b: "ovs".into(),
        seed: 0x50F7,
        entries: vec![
            entry(
                Status::Confirmed { cluster: 0 },
                vec![ConcreteInput::Message(queue_cfg_port0)],
            ),
            entry(
                Status::Confirmed { cluster: 1 },
                vec![ConcreteInput::Message(barrier)],
            ),
            entry(
                Status::Unconfirmed {
                    reason: "probe-only".into(),
                },
                vec![ConcreteInput::Probe {
                    in_port: 1,
                    packet: vec![0u8; 60],
                }],
            ),
            entry(
                Status::Confirmed { cluster: 0 },
                vec![ConcreteInput::Message(unframable)],
            ),
        ],
    }
}

fn fast_cfg() -> ReplayConfig {
    let mut cfg = ReplayConfig::new(0x50F7);
    cfg.op_timeout = Duration::from_millis(600);
    cfg
}

/// The headline acceptance test: both loopback agents are classified
/// correctly from the corpus alone, and three fault-injection seeds
/// reproduce the clean verdicts byte-for-byte.
#[test]
fn loopback_self_test_classifies_and_survives_faults() {
    let corpus = test_corpus();
    let st = loopback_self_test(&corpus, &[1, 2, 3], &fast_cfg()).expect("self-test ran");
    assert!(
        st.passed(),
        "self-test failures:\n{}",
        st.failures.join("\n")
    );
    assert_eq!(st.report_a.classification(), "reference-like");
    assert_eq!(st.report_b.classification(), "ovs-like");
    assert_eq!(st.report_a.exit_class(), ExitClass::Clean);

    // The discriminating witness observed the crash on the wire.
    let w0 = &st.report_a.witnesses[0];
    assert_eq!(w0.verdict, Verdict::MatchesA);
    assert_eq!(w0.observed.as_deref(), Some("crash:"));
    // The projected and unframable entries were skipped with reasons.
    assert_eq!(st.report_a.witnesses[2].verdict, Verdict::Skipped);
    assert_eq!(st.report_a.witnesses[3].verdict, Verdict::Skipped);
    assert!(!st.report_a.witnesses[3].detail.is_empty());
}

/// A DUT that never accepts must yield clean Unreachable verdicts for
/// every replayable witness — never a panic, never a hang.
#[test]
fn unreachable_dut_degrades_cleanly() {
    // Bind and immediately drop a listener to get a port that refuses.
    let dead_addr = {
        let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap().to_string()
    };
    let corpus = test_corpus();
    let mut cfg = fast_cfg();
    cfg.attempts = 2;
    let mut conn = TcpConnector::new(&dead_addr, Duration::from_millis(300));
    let report = run_conform(&corpus, &mut conn, &cfg).expect("run completes");
    assert_eq!(report.exit_class(), ExitClass::Unreachable);
    for w in &report.witnesses {
        match &w.verdict {
            Verdict::Unreachable => {
                assert_eq!(w.attempts, 2);
                assert_eq!(w.detail.len(), 2, "every attempt recorded: {:?}", w.detail);
            }
            Verdict::Skipped => {}
            other => panic!("witness {} got {:?}", w.index, other),
        }
    }
}

/// A DUT that accepts and then goes silent must degrade to Flaky (the
/// connection existed, traffic never completed), with the error chain.
#[test]
fn silent_dut_degrades_to_flaky() {
    let acceptor = Acceptor::bind(0).unwrap();
    let addr = acceptor.local_addr().to_string();
    let waker = acceptor.waker();
    // Accept, say nothing, keep the connection open until the client
    // gives up on it.
    let accept = std::thread::spawn(move || {
        acceptor.run(|mut s| {
            let _ = std::io::copy(&mut s, &mut std::io::sink());
        })
    });

    let corpus = test_corpus();
    let mut cfg = fast_cfg();
    cfg.attempts = 2;
    cfg.op_timeout = Duration::from_millis(200);
    let mut conn = TcpConnector::new(&addr, Duration::from_millis(500));
    let report = run_conform(&corpus, &mut conn, &cfg).expect("run completes");
    waker.wake();
    accept.join().unwrap().unwrap();

    assert_eq!(report.exit_class(), ExitClass::Flaky);
    for w in &report.witnesses {
        match &w.verdict {
            Verdict::Flaky => {
                assert_eq!(w.detail.len(), 2);
                assert!(
                    w.detail[0].contains("deadline expired"),
                    "error chain should show the deadline: {:?}",
                    w.detail
                );
            }
            Verdict::Skipped => {}
            other => panic!("witness {} got {:?}", w.index, other),
        }
    }
}

/// Direct wire replay of the crash witness: the loopback DUT's close
/// must read as a clean EOF (crash observation), not transport damage.
#[test]
fn crash_is_observed_as_clean_eof() {
    let dut = LoopbackDut::spawn(soft::AgentKind::Reference).unwrap();
    let corpus = test_corpus();
    let mut conn = TcpConnector::new(dut.addr(), Duration::from_secs(2));
    let report = run_conform(&corpus, &mut conn, &fast_cfg()).expect("run completes");
    let w0 = &report.witnesses[0];
    assert_eq!(w0.verdict, Verdict::MatchesA, "detail: {:?}", w0.detail);
    assert_eq!(w0.attempts, 1, "a crash observation needs no retry");
    assert_eq!(w0.observed.as_deref(), Some("crash:"));
}

/// The loopback DUT accepts the moment a client connects: a connect
/// plus handshake takes well under a 5 ms accept-poll interval. Dropping
/// the DUT returns promptly whether it never accepted anything or an
/// idle client is still connected.
#[test]
fn loopback_accept_is_not_polled() {
    let dut = LoopbackDut::spawn(soft::AgentKind::Reference).unwrap();
    let mut conn = TcpConnector::new(dut.addr(), Duration::from_secs(2));
    let mut times: Vec<Duration> = (0..50)
        .map(|_| {
            let t0 = Instant::now();
            let wire = conn.connect().expect("connect");
            handshake(&mut Channel::new(wire, Duration::from_secs(2))).expect("handshake");
            t0.elapsed()
        })
        .collect();
    times.sort();
    let median = times[times.len() / 2];
    assert!(
        median < Duration::from_millis(2),
        "connect + handshake median {median:?}: is the accept polled?"
    );

    let t0 = Instant::now();
    drop(LoopbackDut::spawn(soft::AgentKind::Reference).unwrap());
    assert!(
        t0.elapsed() < Duration::from_secs(1),
        "drop of an unused DUT"
    );

    let idle = LoopbackDut::spawn(soft::AgentKind::Reference).unwrap();
    let wire = TcpConnector::new(idle.addr(), Duration::from_secs(2))
        .connect()
        .expect("connect");
    let mut client = Channel::new(wire, Duration::from_secs(2));
    handshake(&mut client).expect("handshake");
    let t0 = Instant::now();
    drop(idle);
    assert!(
        t0.elapsed() < Duration::from_secs(1),
        "drop with an idle client connected"
    );
    drop(client);
}
