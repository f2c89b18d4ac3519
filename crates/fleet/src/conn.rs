//! The daemon side `soft serve` and `soft route` share: the accept
//! loop with its two stop sources, and the framed-JSON client
//! connection.

use soft_conform::{AcceptWaker, Acceptor};
use soft_harness::json::Json;
use soft_harness::proto::{self, FrameEvent};
use std::io::{BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::thread::JoinHandle;
use std::time::Duration;

/// Read timeout on daemon sockets: the granularity at which an idle
/// client connection re-checks the drain (without it one silent client
/// would pin the drain open), and the router's liveness-wait tick on its
/// back-end connections.
pub const CONN_READ_TIMEOUT: Duration = Duration::from_millis(200);

/// Accept clients until a `drain` request or SIGTERM stops the daemon;
/// `reply(type, frame)` answers every request but `drain`. Returns the
/// connections still open at the stop, the listener already closed.
pub fn serve_clients<F>(acceptor: Acceptor, reply: F) -> Result<Vec<JoinHandle<()>>, String>
where
    F: Fn(&str, &Json) -> Json + Send + Sync + 'static,
{
    let drain = acceptor.waker();
    // The SIGTERM handler can only bump an atomic, so this watcher is
    // the one poll left; a `drain` request wakes the accept itself.
    let watch = acceptor.waker();
    std::thread::spawn(move || {
        while !watch.is_stopped() {
            if soft_serve::sigterm_count() >= 1 {
                watch.wake();
            }
            std::thread::sleep(Duration::from_millis(20));
        }
    });
    acceptor
        .run(move |stream| serve_requests(stream, &drain, &reply))
        .map_err(|e| format!("accept: {e}"))
}

/// Serve one client until clean EOF — or until `drain` stops while the
/// client is idle at a frame boundary, in which case the connection is
/// hung up so the drain can complete. A `drain` request stops `drain`
/// and is acknowledged here; `reply(type, frame)` answers every other.
fn serve_requests(stream: TcpStream, drain: &AcceptWaker, reply: impl Fn(&str, &Json) -> Json) {
    let _ = stream.set_read_timeout(Some(CONN_READ_TIMEOUT));
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = BufWriter::new(stream);
    loop {
        let msg = match proto::read_frame_idle(&mut reader) {
            Ok(FrameEvent::Frame(m)) => m,
            Ok(FrameEvent::Eof) => return,
            Ok(FrameEvent::Idle) if drain.is_stopped() => return,
            Ok(FrameEvent::Idle) => continue,
            Err(e) => {
                let _ = proto::write_frame(&mut writer, &proto::error_response(&e));
                let _ = writer.flush();
                return;
            }
        };
        let kind = msg.field("type").and_then(Json::as_str).unwrap_or("");
        let out = if kind == "drain" {
            drain.wake();
            Json::Object(vec![(
                "type".to_string(),
                Json::Str("draining".to_string()),
            )])
        } else {
            reply(kind, &msg)
        };
        if proto::write_frame(&mut writer, &out).is_err() || writer.flush().is_err() {
            return;
        }
    }
}
