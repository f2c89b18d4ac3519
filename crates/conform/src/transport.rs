//! Pluggable byte transports for the conformance harness.
//!
//! The OFTest "horseshoe" pattern: the harness connects to the control
//! plane of a device under test. [`Connector`] abstracts *how* — a real
//! switch socket ([`TcpConnector`]), our own agents behind a loopback
//! listener (the CI self-test), or either of those wrapped in the
//! deterministic fault injector ([`FaultyConnector`]). Everything above
//! this module speaks complete OpenFlow frames through [`Channel`], which
//! owns the incremental decoder and the per-operation deadline.
//!
//! Error taxonomy (load-bearing — the verdict classes depend on it):
//!
//! - connect refused/timed out → the attempt never exchanged bytes; if
//!   *every* attempt fails this way, the DUT is **Unreachable**.
//! - reset / torn frame / deadline expiry mid-exchange → transport
//!   failure; the witness retries on a fresh connection and degrades to
//!   **Flaky** when the budget runs out.
//! - clean EOF at a frame boundary → not an error: that is the DUT
//!   *closing its control channel*, the wire-observable form of a crash,
//!   and it is part of the observation.

use soft_agents::of10::OF10_DIALECT;
use soft_protocol::{FrameBuffer, FrameEvent, FrameIo, WireDialect};
use soft_witness::SplitMix64;
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{Ipv4Addr, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Socket poll granularity: reads block at most this long so deadlines
/// and shutdown flags stay responsive.
pub const POLL: Duration = Duration::from_millis(20);

/// One established byte-level connection to the DUT.
pub trait Wire: Send {
    /// Write all of `bytes`.
    fn send_all(&mut self, bytes: &[u8]) -> io::Result<()>;
    /// Read some bytes; `Ok(0)` is a clean EOF. `WouldBlock`/`TimedOut`
    /// means "nothing yet within one poll interval", not failure.
    fn recv(&mut self, buf: &mut [u8]) -> io::Result<usize>;
}

/// Factory for [`Wire`] connections — one fresh connection per replay
/// attempt, so a poisoned TCP session never leaks across retries.
pub trait Connector: Send {
    /// Establish a new connection.
    fn connect(&mut self) -> io::Result<Box<dyn Wire>>;
    /// Human-readable target description for reports.
    fn describe(&self) -> String;
}

pub(crate) fn is_poll_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Real TCP to a live switch (or the loopback DUT).
pub struct TcpConnector {
    addr: String,
    connect_timeout: Duration,
}

impl TcpConnector {
    /// Connector dialing `addr` (`host:port`).
    pub fn new(addr: &str, connect_timeout: Duration) -> TcpConnector {
        TcpConnector {
            addr: addr.to_string(),
            connect_timeout,
        }
    }
}

impl Connector for TcpConnector {
    fn connect(&mut self) -> io::Result<Box<dyn Wire>> {
        let mut last = io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("cannot resolve {}", self.addr),
        );
        for sa in self.addr.to_socket_addrs()? {
            match TcpStream::connect_timeout(&sa, self.connect_timeout) {
                Ok(stream) => {
                    stream.set_nodelay(true)?;
                    stream.set_read_timeout(Some(POLL))?;
                    stream.set_write_timeout(Some(Duration::from_secs(2)))?;
                    return Ok(Box::new(TcpWire { stream }));
                }
                Err(e) => last = e,
            }
        }
        Err(last)
    }

    fn describe(&self) -> String {
        format!("tcp://{}", self.addr)
    }
}

struct TcpWire {
    stream: TcpStream,
}

impl Wire for TcpWire {
    fn send_all(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.stream.write_all(bytes)
    }

    fn recv(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.stream.read(buf)
    }
}

/// The workspace's one accept loop (loopback DUT, `soft serve`, `soft
/// route`): `accept` blocks, so a new connection waits on no poll. A
/// stop is a flag plus one self-connect that returns the blocked
/// `accept`; that wake connection is dropped, never handed to a handler.
pub struct Acceptor {
    listener: TcpListener,
    waker: AcceptWaker,
}

/// Stops an [`Acceptor`]. Its flag also tells idle handlers to hang up.
#[derive(Clone)]
pub struct AcceptWaker {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
}

impl AcceptWaker {
    /// Set the stop flag and wake the blocked `accept` (idempotent).
    pub fn wake(&self) {
        if !self.stop.swap(true, Ordering::SeqCst) {
            let _ = TcpStream::connect(self.addr); // refused if the acceptor is gone
        }
    }

    /// Whether [`wake`](Self::wake) has been called.
    pub fn is_stopped(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }
}

impl Acceptor {
    /// Bind `127.0.0.1:port` (0 = ephemeral).
    pub fn bind(port: u16) -> io::Result<Acceptor> {
        let listener = TcpListener::bind((Ipv4Addr::LOCALHOST, port))?;
        let (addr, stop) = (listener.local_addr()?, Arc::default());
        Ok(Acceptor {
            listener,
            waker: AcceptWaker { addr, stop },
        })
    }

    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.waker.addr
    }

    /// A handle that stops [`run`](Self::run).
    pub fn waker(&self) -> AcceptWaker {
        self.waker.clone()
    }

    /// Accept until woken, running `handle` on a thread per connection.
    /// Finished threads are reaped as connections arrive; those still
    /// running at the stop are returned, the listener already closed.
    pub fn run<F>(self, handle: F) -> io::Result<Vec<JoinHandle<()>>>
    where
        F: Fn(TcpStream) + Send + Sync + 'static,
    {
        let handle = Arc::new(handle);
        let mut conns: Vec<JoinHandle<()>> = Vec::new();
        loop {
            let stream = match self.listener.accept() {
                Ok((stream, _)) => stream,
                Err(e) if e.kind() == io::ErrorKind::ConnectionAborted => continue,
                Err(e) => return Err(e),
            };
            if self.waker.is_stopped() {
                return Ok(conns);
            }
            conns.retain(|h| !h.is_finished());
            let handle = Arc::clone(&handle);
            conns.push(std::thread::spawn(move || handle(stream)));
        }
    }
}

/// What [`Channel::recv_frame`] saw before its deadline.
#[derive(Debug, PartialEq, Eq)]
pub enum RecvEvent {
    /// One complete OpenFlow frame.
    Frame(Vec<u8>),
    /// The peer closed cleanly at a frame boundary (crash observation).
    Closed,
}

/// Frame-level view of a [`Wire`]: incremental reassembly under the
/// protocol's framing rule plus a per-operation deadline.
pub struct Channel {
    wire: Box<dyn Wire>,
    dialect: &'static dyn WireDialect,
    buf: FrameBuffer,
    op_timeout: Duration,
    eof: bool,
}

impl Channel {
    /// Wrap `wire` with OpenFlow 1.0 framing; every frame-level operation
    /// gets `op_timeout`.
    pub fn new(wire: Box<dyn Wire>, op_timeout: Duration) -> Channel {
        Channel::with_dialect(wire, op_timeout, &OF10_DIALECT)
    }

    /// Wrap `wire` with an explicit protocol dialect.
    pub fn with_dialect(
        wire: Box<dyn Wire>,
        op_timeout: Duration,
        dialect: &'static dyn WireDialect,
    ) -> Channel {
        Channel {
            wire,
            dialect,
            buf: FrameBuffer::new(),
            op_timeout,
            eof: false,
        }
    }

    /// The dialect framing this channel.
    pub fn dialect(&self) -> &'static dyn WireDialect {
        self.dialect
    }

    /// Send one pre-encoded frame.
    pub fn send_frame(&mut self, frame: &[u8]) -> Result<(), String> {
        self.wire.send_all(frame).map_err(|e| format!("send: {e}"))
    }

    /// The next complete frame, or [`RecvEvent::Closed`] on clean EOF.
    /// Errors are transport failures: deadline expiry, resets, and EOF
    /// *inside* a frame (a torn frame is damage, not an observation).
    pub fn recv_frame(&mut self) -> Result<RecvEvent, String> {
        let deadline = Instant::now() + self.op_timeout;
        let mut buf = [0u8; 4096];
        loop {
            if let Some(f) = self.buf.next_frame(self.dialect)? {
                return Ok(RecvEvent::Frame(f));
            }
            if self.eof {
                return if self.buf.mid_frame() {
                    Err("peer closed mid-frame (torn frame)".to_string())
                } else {
                    Ok(RecvEvent::Closed)
                };
            }
            if Instant::now() >= deadline {
                return Err(format!(
                    "deadline expired after {} ms waiting for a frame",
                    self.op_timeout.as_millis()
                ));
            }
            match self.wire.recv(&mut buf) {
                Ok(0) => self.eof = true,
                Ok(n) => self.buf.push(&buf[..n]),
                Err(e) if is_poll_timeout(&e) => {}
                Err(e) => return Err(format!("recv: {e}")),
            }
        }
    }
}

impl FrameIo for Channel {
    fn send_frame(&mut self, frame: &[u8]) -> Result<(), String> {
        Channel::send_frame(self, frame)
    }

    fn recv_frame(&mut self) -> Result<FrameEvent, String> {
        Ok(match Channel::recv_frame(self)? {
            RecvEvent::Frame(f) => FrameEvent::Frame(f),
            RecvEvent::Closed => FrameEvent::Closed,
        })
    }
}

/// How a [`FaultyConnector`] sabotages one connection. Drawn per connect
/// from the seeded stream; `Clean` and the benign plans still let every
/// byte through, the breaking plans force a retry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FaultPlan {
    /// No interference.
    Clean,
    /// Connect is refused outright (breaking).
    RefuseConnect,
    /// Writes are shredded into 1–3 byte fragments (benign: the
    /// incremental decoder must reassemble).
    TornWrites,
    /// After N bytes written, the rest of a frame is truncated and the
    /// connection resets (breaking).
    ResetAfter(usize),
    /// After N successful reads every read stalls past any deadline
    /// (breaking).
    StallReads(u32),
    /// Harness keepalive ECHO replies are delivered *after* a later
    /// frame when one is concurrently available (benign: keepalives are
    /// correlated by xid, not order).
    DelayHarnessEcho,
}

/// Breaking plans allowed in a row before a non-breaking connection is
/// forced. With a per-witness retry budget of at least
/// `MAX_CONSECUTIVE_BREAKING + 1`, every witness is guaranteed an
/// attempt whose traffic gets through — the precondition of the
/// verdict-invariance property.
pub const MAX_CONSECUTIVE_BREAKING: u32 = 2;

/// Deterministic fault-injection wrapper around any [`Connector`],
/// seeded by splitmix64: same seed, same fault schedule, same verdicts.
pub struct FaultyConnector {
    inner: Box<dyn Connector>,
    dialect: &'static dyn WireDialect,
    rng: SplitMix64,
    seed: u64,
    consecutive_breaking: u32,
}

impl FaultyConnector {
    /// Wrap `inner` with the fault schedule derived from `seed`,
    /// reordering under OpenFlow 1.0 framing.
    pub fn new(inner: Box<dyn Connector>, seed: u64) -> FaultyConnector {
        FaultyConnector::with_dialect(inner, seed, &OF10_DIALECT)
    }

    /// As [`new`](Self::new) with an explicit protocol dialect (the
    /// `DelayHarnessEcho` plan must frame and recognize keepalives).
    pub fn with_dialect(
        inner: Box<dyn Connector>,
        seed: u64,
        dialect: &'static dyn WireDialect,
    ) -> FaultyConnector {
        FaultyConnector {
            inner,
            dialect,
            rng: SplitMix64::new(seed),
            seed,
            consecutive_breaking: 0,
        }
    }

    fn draw_plan(&mut self) -> FaultPlan {
        if self.consecutive_breaking >= MAX_CONSECUTIVE_BREAKING {
            return FaultPlan::Clean;
        }
        match self.rng.below(6) {
            0 => FaultPlan::Clean,
            1 => FaultPlan::RefuseConnect,
            2 => FaultPlan::TornWrites,
            3 => FaultPlan::ResetAfter(8 + self.rng.below(64) as usize),
            4 => FaultPlan::StallReads(self.rng.below(3) as u32),
            _ => FaultPlan::DelayHarnessEcho,
        }
    }
}

impl Connector for FaultyConnector {
    fn connect(&mut self) -> io::Result<Box<dyn Wire>> {
        let plan = self.draw_plan();
        let breaking = matches!(
            plan,
            FaultPlan::RefuseConnect | FaultPlan::ResetAfter(_) | FaultPlan::StallReads(_)
        );
        if breaking {
            self.consecutive_breaking += 1;
        } else {
            self.consecutive_breaking = 0;
        }
        if plan == FaultPlan::RefuseConnect {
            return Err(io::Error::new(
                io::ErrorKind::ConnectionRefused,
                "injected connect refusal",
            ));
        }
        let inner = self.inner.connect()?;
        Ok(Box::new(FaultyWire {
            inner,
            dialect: self.dialect,
            plan,
            chunk_rng: SplitMix64::new(self.rng.next_u64()),
            written: 0,
            reads_done: 0,
            buf: FrameBuffer::new(),
            ready: VecDeque::new(),
            held: None,
        }))
    }

    fn describe(&self) -> String {
        format!(
            "faulty(seed={:#x}) over {}",
            self.seed,
            self.inner.describe()
        )
    }
}

struct FaultyWire {
    inner: Box<dyn Wire>,
    dialect: &'static dyn WireDialect,
    plan: FaultPlan,
    chunk_rng: SplitMix64,
    written: usize,
    reads_done: u32,
    // DelayHarnessEcho machinery: frames cleared for delivery, and the
    // keepalive echo reply currently held back.
    buf: FrameBuffer,
    ready: VecDeque<u8>,
    held: Option<Vec<u8>>,
}

fn injected_reset() -> io::Error {
    io::Error::new(io::ErrorKind::ConnectionReset, "injected connection reset")
}

impl FaultyWire {
    /// DelayHarnessEcho read path: serve bytes from the cleared queue,
    /// refilling it frame-by-frame from the inner wire. A harness
    /// keepalive ECHO reply is held back while later frames overtake it;
    /// it is released as soon as no other frame is concurrently
    /// available, so traffic always eventually gets through.
    fn recv_reordered(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        loop {
            if !self.ready.is_empty() {
                let n = buf.len().min(self.ready.len());
                for b in buf.iter_mut().take(n) {
                    *b = self.ready.pop_front().expect("len checked");
                }
                return Ok(n);
            }
            let mut tmp = [0u8; 4096];
            match self.inner.recv(&mut tmp) {
                Ok(0) => {
                    if let Some(h) = self.held.take() {
                        self.ready.extend(h);
                        continue;
                    }
                    // A torn trailing frame must still reach the caller's
                    // decoder so the EOF is classified as torn, not clean.
                    let leftover = self.buf.take_buffered();
                    if !leftover.is_empty() {
                        self.ready.extend(leftover);
                        continue;
                    }
                    return Ok(0);
                }
                Ok(n) => {
                    self.buf.push(&tmp[..n]);
                    loop {
                        match self.buf.next_frame(self.dialect) {
                            Ok(Some(f)) => {
                                let is_keepalive_echo = self.dialect.is_keepalive_reply(&f);
                                if is_keepalive_echo && self.held.is_none() {
                                    self.held = Some(f);
                                } else {
                                    self.ready.extend(f);
                                    if let Some(h) = self.held.take() {
                                        self.ready.extend(h); // overtaken once; release
                                    }
                                }
                            }
                            Ok(None) => break,
                            Err(_) => {
                                // Unframable stream: stop interfering and
                                // pass the raw bytes through.
                                self.ready.extend(self.buf.take_buffered());
                                break;
                            }
                        }
                    }
                }
                Err(e) if is_poll_timeout(&e) => {
                    // Nothing else in flight: release the held frame
                    // rather than stall the keepalive forever.
                    if let Some(h) = self.held.take() {
                        self.ready.extend(h);
                        continue;
                    }
                    return Err(e);
                }
                Err(e) => return Err(e),
            }
        }
    }
}

impl Wire for FaultyWire {
    fn send_all(&mut self, bytes: &[u8]) -> io::Result<()> {
        match self.plan {
            FaultPlan::TornWrites => {
                let mut off = 0;
                while off < bytes.len() {
                    let n = (1 + self.chunk_rng.below(3) as usize).min(bytes.len() - off);
                    self.inner.send_all(&bytes[off..off + n])?;
                    off += n;
                }
                Ok(())
            }
            FaultPlan::ResetAfter(limit) => {
                if self.written >= limit {
                    return Err(injected_reset());
                }
                let allowed = (limit - self.written).min(bytes.len());
                self.inner.send_all(&bytes[..allowed])?;
                self.written += allowed;
                if allowed < bytes.len() {
                    // Byte-level truncation: part of the frame is on the
                    // wire, the rest never arrives.
                    return Err(injected_reset());
                }
                Ok(())
            }
            _ => self.inner.send_all(bytes),
        }
    }

    fn recv(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self.plan {
            FaultPlan::ResetAfter(limit) if self.written >= limit => Err(injected_reset()),
            FaultPlan::StallReads(after) if self.reads_done >= after => {
                Err(io::Error::new(io::ErrorKind::WouldBlock, "injected stall"))
            }
            FaultPlan::DelayHarnessEcho => self.recv_reordered(buf),
            _ => {
                let n = self.inner.recv(buf)?;
                if n > 0 {
                    self.reads_done += 1;
                }
                Ok(n)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::handshake::{self, HARNESS_XID_BASE};
    use soft_openflow::consts::msg_type;

    /// In-memory wire: scripted inbound bytes, captured outbound bytes.
    struct ScriptWire {
        inbound: VecDeque<Vec<u8>>,
        outbound: Vec<u8>,
    }

    impl ScriptWire {
        fn new(chunks: Vec<Vec<u8>>) -> ScriptWire {
            ScriptWire {
                inbound: chunks.into(),
                outbound: Vec::new(),
            }
        }
    }

    impl Wire for ScriptWire {
        fn send_all(&mut self, bytes: &[u8]) -> io::Result<()> {
            self.outbound.extend_from_slice(bytes);
            Ok(())
        }

        fn recv(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            match self.inbound.pop_front() {
                None => Ok(0),
                Some(chunk) => {
                    let n = buf.len().min(chunk.len());
                    buf[..n].copy_from_slice(&chunk[..n]);
                    if n < chunk.len() {
                        self.inbound.push_front(chunk[n..].to_vec());
                    }
                    Ok(n)
                }
            }
        }
    }

    #[test]
    fn acceptor_reaps_finished_handlers_and_never_dispatches_the_wake() {
        use std::sync::atomic::AtomicUsize;
        let acceptor = Acceptor::bind(0).unwrap();
        let addr = acceptor.local_addr();
        let waker = acceptor.waker();
        let served = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&served);
        let accept = std::thread::spawn(move || {
            acceptor.run(move |_stream| {
                counter.fetch_add(1, Ordering::SeqCst);
            })
        });
        for _ in 0..50 {
            // The handler drops its stream on return: EOF here means the
            // connection has closed on both sides.
            let mut client = TcpStream::connect(addr).unwrap();
            let mut rest = Vec::new();
            client.read_to_end(&mut rest).unwrap();
        }
        waker.wake();
        let held = accept.join().unwrap().unwrap();
        assert!(
            held.len() <= 2,
            "{} handler threads held after 50 closed connections",
            held.len()
        );
        assert_eq!(served.load(Ordering::SeqCst), 50, "the wake was dispatched");
    }

    #[test]
    fn idle_acceptor_stops_on_wake() {
        let acceptor = Acceptor::bind(0).unwrap();
        let waker = acceptor.waker();
        let accept = std::thread::spawn(move || acceptor.run(|_stream| {}));
        let t0 = Instant::now();
        waker.wake();
        waker.wake(); // idempotent
        assert!(accept.join().unwrap().unwrap().is_empty());
        assert!(waker.is_stopped());
        assert!(t0.elapsed() < Duration::from_secs(1));
    }

    #[test]
    fn channel_reassembles_split_frames() {
        let f = handshake::frame(msg_type::ECHO_REPLY, 7, &[1, 2]);
        let chunks = f.iter().map(|b| vec![*b]).collect();
        let mut ch = Channel::new(
            Box::new(ScriptWire::new(chunks)),
            Duration::from_millis(500),
        );
        assert_eq!(ch.recv_frame().unwrap(), RecvEvent::Frame(f));
        assert_eq!(ch.recv_frame().unwrap(), RecvEvent::Closed);
    }

    #[test]
    fn torn_eof_is_an_error_not_a_close() {
        let f = handshake::frame(msg_type::ECHO_REPLY, 7, &[1, 2]);
        let mut ch = Channel::new(
            Box::new(ScriptWire::new(vec![f[..5].to_vec()])),
            Duration::from_millis(500),
        );
        let err = ch.recv_frame().unwrap_err();
        assert!(err.contains("torn"), "{err}");
    }

    #[test]
    fn faulty_connector_forces_clean_after_breaking_streak() {
        // A connector that always succeeds underneath; count how many
        // consecutive connects the fault layer breaks at connect time.
        struct AlwaysOk;
        impl Connector for AlwaysOk {
            fn connect(&mut self) -> io::Result<Box<dyn Wire>> {
                Ok(Box::new(ScriptWire::new(vec![])))
            }
            fn describe(&self) -> String {
                "ok".into()
            }
        }
        for seed in 0..32u64 {
            let mut fc = FaultyConnector::new(Box::new(AlwaysOk), seed);
            let mut streak = 0u32;
            for _ in 0..200 {
                streak = if fc.connect().is_err() { streak + 1 } else { 0 };
                assert!(
                    streak <= MAX_CONSECUTIVE_BREAKING,
                    "seed {seed}: refusal streak exceeded the guarantee"
                );
            }
        }
    }

    #[test]
    fn delayed_echo_reply_is_reordered_but_delivered() {
        let keepalive = handshake::frame(msg_type::ECHO_REPLY, HARNESS_XID_BASE | 3, &[]);
        let err = handshake::frame(msg_type::ERROR, 9, &[0, 1, 0, 6]);
        let mut joined = keepalive.clone();
        joined.extend_from_slice(&err);
        let w = FaultyWire {
            inner: Box::new(ScriptWire::new(vec![joined])),
            dialect: &OF10_DIALECT,
            plan: FaultPlan::DelayHarnessEcho,
            chunk_rng: SplitMix64::new(0),
            written: 0,
            reads_done: 0,
            buf: FrameBuffer::new(),
            ready: VecDeque::new(),
            held: None,
        };
        let mut ch = Channel::new(Box::new(w), Duration::from_millis(500));
        // The error frame overtakes the keepalive; both still arrive.
        assert_eq!(ch.recv_frame().unwrap(), RecvEvent::Frame(err));
        assert_eq!(ch.recv_frame().unwrap(), RecvEvent::Frame(keepalive));
        assert_eq!(ch.recv_frame().unwrap(), RecvEvent::Closed);
    }
}
