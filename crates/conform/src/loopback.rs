//! A loopback device-under-test: an in-process agent behind a real TCP
//! listener.
//!
//! This closes the CI self-test loop: the conformance harness dials a
//! genuine socket, speaks the genuine wire protocol, and the "switch" on
//! the other end is one of our own models. The replayer must then
//! classify the reference agent as reference-like and the OVS agent as
//! ovs-like *from the corpus alone* — if it cannot, the harness (not the
//! DUT) is wrong.
//!
//! Fidelity notes:
//!
//! - Each accepted connection is a fresh switch (agents are
//!   connection-scoped, like a real control channel).
//! - Frames are fed to the model via [`run_concrete_raw`] so replies keep
//!   their real xids; only newly appended events are encoded and sent.
//! - A model crash closes the write side with a clean FIN and then drains
//!   the peer's remaining bytes briefly. Without the drain, unread client
//!   data would turn our close into a kernel RST and the harness would
//!   (correctly) classify the observation as transport damage instead of
//!   the crash it is.

use crate::transport::{is_poll_timeout, AcceptWaker, Acceptor, POLL};
use soft_core::run_concrete_raw;
use soft_harness::Input;
use soft_protocol::{AgentRef, FrameBuffer};
use soft_sym::SymBuf;
use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// An agent listening on a loopback TCP port until dropped.
pub struct LoopbackDut {
    addr: String,
    waker: AcceptWaker,
    accept_thread: Option<JoinHandle<()>>,
}

impl LoopbackDut {
    /// Bind `127.0.0.1:0` and serve `kind` to every connection.
    pub fn spawn(kind: impl Into<AgentRef>) -> std::io::Result<LoopbackDut> {
        LoopbackDut::spawn_on(kind, 0)
    }

    /// As [`spawn`](Self::spawn), on a caller-chosen port (0 = ephemeral).
    pub fn spawn_on(kind: impl Into<AgentRef>, port: u16) -> std::io::Result<LoopbackDut> {
        let kind = kind.into();
        let acceptor = Acceptor::bind(port)?;
        let addr = acceptor.local_addr().to_string();
        let waker = acceptor.waker();
        let stop = acceptor.waker();
        let accept_thread = std::thread::spawn(move || {
            let conns = acceptor
                .run(move |stream| serve_conn(kind, stream, &stop))
                .unwrap_or_default();
            for c in conns {
                let _ = c.join();
            }
        });
        Ok(LoopbackDut {
            addr,
            waker,
            accept_thread: Some(accept_thread),
        })
    }

    /// The `host:port` the DUT is listening on.
    pub fn addr(&self) -> &str {
        &self.addr
    }
}

impl Drop for LoopbackDut {
    fn drop(&mut self) {
        self.waker.wake();
        if let Some(h) = self.accept_thread.take() {
            let _ = h.join();
        }
    }
}

/// Serve one control-channel connection with a fresh instance of `kind`.
fn serve_conn(kind: AgentRef, mut stream: TcpStream, stop: &AcceptWaker) {
    let dialect = kind.protocol.dialect();
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(POLL));
    // The DUT may speak first (OpenFlow's unsolicited HELLO).
    let greeting = dialect.server_greeting();
    if !greeting.is_empty() && stream.write_all(&greeting).is_err() {
        return;
    }

    let mut inputs: Vec<Input> = Vec::new();
    let mut sent_events = 0usize;
    let mut dec = FrameBuffer::new();
    let mut buf = [0u8; 4096];
    loop {
        if stop.is_stopped() {
            return;
        }
        let n = match stream.read(&mut buf) {
            Ok(0) => return,
            Ok(n) => n,
            Err(e) if is_poll_timeout(&e) => continue,
            Err(_) => return,
        };
        dec.push(&buf[..n]);
        loop {
            let f = match dec.next_frame(dialect) {
                Ok(Some(f)) => f,
                Ok(None) => break,
                // Unframable stream: a real switch's TCP stack would keep
                // reading garbage forever; ours hangs up.
                Err(_) => return,
            };
            inputs.push(Input::Message(SymBuf::concrete(&f)));
            // Re-run the whole prefix on a fresh agent: the model is a
            // pure function of the input history, so this reproduces the
            // stateful switch without holding engine state across reads.
            let out = match run_concrete_raw(kind, &inputs) {
                Ok(out) => out,
                Err(_) => {
                    crash_close(&stream);
                    return;
                }
            };
            for e in &out.events[sent_events.min(out.events.len())..] {
                if let Ok(Some(wire)) = dialect.encode_event(e) {
                    if stream.write_all(&wire).is_err() {
                        return;
                    }
                }
            }
            sent_events = out.events.len();
            if out.crashed {
                crash_close(&stream);
                return;
            }
        }
    }
}

/// Make a model crash observable as a *clean* close: FIN our write side,
/// then keep draining the peer for a grace period so unread inbound bytes
/// cannot convert the close into an RST.
fn crash_close(stream: &TcpStream) {
    let _ = stream.shutdown(Shutdown::Write);
    let deadline = Instant::now() + Duration::from_secs(1);
    let mut sink = [0u8; 1024];
    let mut reader = stream;
    while Instant::now() < deadline {
        match reader.read(&mut sink) {
            Ok(0) => return,
            Ok(_) => {}
            Err(e) if is_poll_timeout(&e) => {}
            Err(_) => return,
        }
    }
}
