//! `soft route` — the fleet front-end.
//!
//! The router accepts the exact frames `soft submit` already speaks and
//! spreads them over a fleet of `soft serve` back-ends:
//!
//! - **Placement.** Each job's content key hashes onto the consistent
//!   ring ([`crate::Ring`]); the first *live* ring successor owns it.
//!   Ownership is what makes store hits work fleet-wide: the same key
//!   always lands where its entry (or a replica of it) lives.
//! - **Work-stealing.** Back-ends gossip queue depth through their
//!   status frames. When a back-end is saturated (queued jobs, or every
//!   worker busy) and a replica is idle, new jobs divert to the idle
//!   replica, and the router sends the saturated back-end a `steal`
//!   frame releasing already-queued jobs; those come back as `stolen`
//!   replies on their job connections and are re-dispatched.
//! - **Failover.** A dead back-end (connect refused, or the stream dies
//!   mid-job) is marked down and the job retries on the next live ring
//!   successor — a re-routed fresh solve at worst, a replica store hit
//!   at best. Never a lost job.
//! - **Claim forwarding.** Concurrent submissions of one content key —
//!   even on different router connections — coalesce onto a single
//!   dispatch; every waiter gets the one result. Combined with the
//!   back-ends' own per-key claims, a duplicate can never solve twice
//!   fleet-wide.
//!
//! The router holds no store and no solver: killing it loses nothing
//! but open connections.

use crate::conn::{serve_clients, CONN_READ_TIMEOUT};
use crate::job::resolve;
use crate::ring::Ring;
use soft_conform::{Acceptor, BackoffPolicy};
use soft_harness::journal::atomic_write;
use soft_harness::json::Json;
use soft_harness::proto::{self, FleetView, FrameEvent, JobSpec};
use soft_harness::store::job_key;
use std::collections::HashMap;
use std::io::{BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

/// Consecutive idle windows tolerated on a *control* exchange (status
/// probe, registration, steal, drain) before the back-end counts as
/// unresponsive. Job forwards have no such limit — solves take as long
/// as they take, and a dead peer shows up as a stream error instead.
const CONTROL_IDLE_LIMIT: u32 = 25;

/// How often the gossip thread probes back-end health and queue depth.
const GOSSIP_INTERVAL: Duration = Duration::from_millis(150);

/// A job bounced by `stolen` replies more than this many times stops
/// being stealable: the router pins it (no `routed` marker) to the next
/// back-end so rebalancing can never livelock a job.
const MAX_STEAL_BOUNCES: u32 = 3;

fn recover<T>(lock: &Mutex<T>) -> MutexGuard<'_, T> {
    lock.lock().unwrap_or_else(|e| e.into_inner())
}

/// How the router runs.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// TCP port on 127.0.0.1; `0` binds an ephemeral port.
    pub port: u16,
    /// Back-end addresses in ring-identity order.
    pub backends: Vec<String>,
    /// Virtual nodes per back-end on the hash ring.
    pub vnodes: u32,
    /// Ring successors each back-end pushes published entries to.
    pub replicas: u32,
    /// Publish the bound address here (atomic write), for clients.
    pub addr_file: Option<PathBuf>,
}

/// The router's live view of one back-end.
struct Backend {
    addr: String,
    /// Reachable and registered.
    alive: AtomicBool,
    /// Jobs this router currently has dispatched to it.
    active: AtomicU64,
    /// Last gossiped queue depth (jobs waiting for a worker there).
    queue_depth: AtomicU64,
    /// Worker-pool size learned at registration (0 = unknown).
    workers: AtomicU64,
}

#[derive(Default)]
struct RouterCounters {
    jobs_routed: AtomicU64,
    coalesced_jobs: AtomicU64,
    failovers: AtomicU64,
    steal_reroutes: AtomicU64,
    steals_requested: AtomicU64,
    balance_routes: AtomicU64,
}

impl RouterCounters {
    fn to_json(&self, state: &RouterState) -> Json {
        let u = |a: &AtomicU64| Json::UInt(a.load(Ordering::Relaxed));
        let alive = state
            .backends
            .iter()
            .filter(|b| b.alive.load(Ordering::Relaxed))
            .count() as u64;
        Json::Object(vec![
            ("jobs_routed".to_string(), u(&self.jobs_routed)),
            ("coalesced_jobs".to_string(), u(&self.coalesced_jobs)),
            ("failovers".to_string(), u(&self.failovers)),
            ("steal_reroutes".to_string(), u(&self.steal_reroutes)),
            ("steals_requested".to_string(), u(&self.steals_requested)),
            ("balance_routes".to_string(), u(&self.balance_routes)),
            ("backends_alive".to_string(), Json::UInt(alive)),
            (
                "backends_total".to_string(),
                Json::UInt(state.backends.len() as u64),
            ),
        ])
    }
}

/// One in-flight content key: the first submission dispatches, every
/// concurrent duplicate waits here for the shared result.
struct Ticket {
    slot: Mutex<Option<Json>>,
    cv: Condvar,
}

impl Ticket {
    fn new() -> Ticket {
        Ticket {
            slot: Mutex::new(None),
            cv: Condvar::new(),
        }
    }

    fn fulfill(&self, reply: Json) {
        *recover(&self.slot) = Some(reply);
        self.cv.notify_all();
    }

    fn wait(&self) -> Json {
        let mut slot = recover(&self.slot);
        loop {
            if let Some(reply) = slot.as_ref() {
                return reply.clone();
            }
            slot = self.cv.wait(slot).unwrap_or_else(|e| e.into_inner());
        }
    }
}

struct RouterState {
    cfg: RouterConfig,
    ring: Ring,
    backends: Vec<Backend>,
    claims: Mutex<HashMap<String, Arc<Ticket>>>,
    counters: RouterCounters,
}

/// Removes the claim on drop and, if the dispatcher never produced a
/// reply (panic path), fulfills the ticket with an error so coalesced
/// waiters cannot hang forever.
struct ClaimGuard<'a> {
    state: &'a RouterState,
    key: String,
    ticket: Arc<Ticket>,
}

impl Drop for ClaimGuard<'_> {
    fn drop(&mut self) {
        if recover(&self.ticket.slot).is_none() {
            drop(recover(&self.ticket.slot)); // release before fulfill relocks
            self.ticket
                .fulfill(proto::error_response("router dispatch aborted"));
        }
        recover(&self.state.claims).remove(&self.key);
    }
}

/// Send `msg` to `addr` and await one reply frame. `idle_limit` bounds
/// how many consecutive read-timeout windows to tolerate (`None` for
/// job forwards, which may legitimately be silent for minutes while the
/// back-end solves).
fn exchange(addr: &str, msg: &Json, idle_limit: Option<u32>) -> Result<Json, String> {
    let policy = BackoffPolicy::quick(3, 0x50F7);
    let stream = policy
        .run(|| TcpStream::connect(addr))
        .map_err(|chain| format!("connect {addr}: {}", chain.join("; ")))?;
    let _ = stream.set_read_timeout(Some(CONN_READ_TIMEOUT));
    let read_half = stream
        .try_clone()
        .map_err(|e| format!("clone stream: {e}"))?;
    let mut writer = BufWriter::new(stream);
    proto::write_frame(&mut writer, msg).map_err(|e| format!("send to {addr}: {e}"))?;
    writer.flush().map_err(|e| format!("send to {addr}: {e}"))?;
    let mut reader = BufReader::new(read_half);
    let mut idles = 0u32;
    loop {
        match proto::read_frame_idle(&mut reader)? {
            FrameEvent::Frame(reply) => return Ok(reply),
            FrameEvent::Eof => return Err(format!("{addr} closed before replying")),
            FrameEvent::Idle => {
                idles += 1;
                if let Some(limit) = idle_limit {
                    if idles > limit {
                        return Err(format!("{addr} unresponsive"));
                    }
                }
            }
        }
    }
}

impl RouterState {
    fn backend(&self, idx: usize) -> &Backend {
        &self.backends[idx]
    }

    fn mark_dead(&self, idx: usize) {
        let b = self.backend(idx);
        if b.alive.swap(false, Ordering::Relaxed) {
            eprintln!("soft route: back-end {} is down", b.addr);
        }
        b.queue_depth.store(0, Ordering::Relaxed);
    }

    /// A back-end with queued jobs, or every worker busy, should not
    /// receive more work while an idle replica exists.
    fn saturated(&self, idx: usize) -> bool {
        let b = self.backend(idx);
        if b.queue_depth.load(Ordering::Relaxed) > 0 {
            return true;
        }
        let w = b.workers.load(Ordering::Relaxed);
        w > 0 && b.active.load(Ordering::Relaxed) >= w
    }

    /// Pick the back-end for `key`: its first live ring successor, or —
    /// when that owner is saturated and an idle live replica exists —
    /// the idle replica (work-stealing at dispatch time). `avoid` skips
    /// the back-end that just released the job via `steal`.
    fn choose(&self, key: &str, avoid: Option<usize>) -> Option<usize> {
        let order = self.ring.successors(key);
        let live: Vec<usize> = order
            .iter()
            .copied()
            .filter(|&i| self.backend(i).alive.load(Ordering::Relaxed) && Some(i) != avoid)
            .collect();
        if live.is_empty() {
            // Only the avoided back-end (if any) is left alive.
            return order
                .into_iter()
                .find(|&i| self.backend(i).alive.load(Ordering::Relaxed));
        }
        let owner = live[0];
        if !self.saturated(owner) {
            return Some(owner);
        }
        match live.iter().copied().find(|&i| !self.saturated(i)) {
            Some(idle) => {
                self.counters.balance_routes.fetch_add(1, Ordering::Relaxed);
                Some(idle)
            }
            None => Some(owner),
        }
    }

    /// Register one back-end: announce the membership, learn its worker
    /// capacity and queue depth.
    fn register(&self, idx: usize) -> bool {
        let view = FleetView {
            backends: self.cfg.backends.clone(),
            you: idx,
            vnodes: self.cfg.vnodes,
            replicas: self.cfg.replicas,
        };
        let b = self.backend(idx);
        match exchange(&b.addr, &view.to_json(), Some(CONTROL_IDLE_LIMIT)) {
            Ok(reply) if reply.get("type").and_then(|t| t.as_str().ok()) == Some("registered") => {
                if let Some(w) = reply.get("workers").and_then(|v| v.as_u64().ok()) {
                    b.workers.store(w, Ordering::Relaxed);
                }
                if let Some(d) = reply.get("queue_depth").and_then(|v| v.as_u64().ok()) {
                    b.queue_depth.store(d, Ordering::Relaxed);
                }
                if !b.alive.swap(true, Ordering::Relaxed) {
                    eprintln!("soft route: back-end {} registered", b.addr);
                }
                true
            }
            _ => {
                b.alive.store(false, Ordering::Relaxed);
                false
            }
        }
    }

    /// One gossip round: (re-)register dead back-ends, refresh queue
    /// depths of live ones, and trigger steals when a saturated
    /// back-end coexists with an idle one.
    fn gossip_round(&self) {
        for idx in 0..self.backends.len() {
            let b = self.backend(idx);
            if !b.alive.load(Ordering::Relaxed) {
                self.register(idx);
                continue;
            }
            match exchange(&b.addr, &proto::status_request(), Some(CONTROL_IDLE_LIMIT)) {
                Ok(reply) => {
                    if let Some(d) = reply.get("queue_depth").and_then(|v| v.as_u64().ok()) {
                        b.queue_depth.store(d, Ordering::Relaxed);
                    }
                    if let Some(w) = reply.get("workers").and_then(|v| v.as_u64().ok()) {
                        if w > 0 {
                            b.workers.store(w, Ordering::Relaxed);
                        }
                    }
                }
                Err(_) => self.mark_dead(idx),
            }
        }
        // Steal pass: any queued work next to idle capacity moves.
        let idle_exists = (0..self.backends.len()).any(|i| {
            self.backend(i).alive.load(Ordering::Relaxed)
                && !self.saturated(i)
                && self.backend(i).queue_depth.load(Ordering::Relaxed) == 0
        });
        if !idle_exists {
            return;
        }
        for idx in 0..self.backends.len() {
            let b = self.backend(idx);
            let depth = b.queue_depth.load(Ordering::Relaxed);
            if !b.alive.load(Ordering::Relaxed) || depth == 0 {
                continue;
            }
            self.counters
                .steals_requested
                .fetch_add(1, Ordering::Relaxed);
            match exchange(
                &b.addr,
                &proto::steal_request(depth),
                Some(CONTROL_IDLE_LIMIT),
            ) {
                Ok(_) => b.queue_depth.store(0, Ordering::Relaxed),
                Err(_) => self.mark_dead(idx),
            }
        }
    }

    /// Dispatch one job frame until a back-end answers it. Walks the
    /// live ring successors on failure; honors `stolen` bounces up to
    /// [`MAX_STEAL_BOUNCES`], after which the job pins where it lands.
    fn dispatch(&self, key: &str, frame: &Json) -> Json {
        self.counters.jobs_routed.fetch_add(1, Ordering::Relaxed);
        let mut avoid = None;
        let mut bounces = 0u32;
        // Each live back-end may be tried a few times (steal bounces,
        // transient deaths); this cap only backstops pathology.
        let max_attempts = 4 * self.backends.len() as u32 + 8;
        for _ in 0..max_attempts {
            let Some(idx) = self.choose(key, avoid) else {
                return proto::error_response("no live back-end in the fleet");
            };
            avoid = None;
            let stealable = bounces < MAX_STEAL_BOUNCES;
            let marked = mark_routed(frame, stealable);
            let b = self.backend(idx);
            b.active.fetch_add(1, Ordering::Relaxed);
            let outcome = exchange(&b.addr, &marked, None);
            b.active.fetch_sub(1, Ordering::Relaxed);
            match outcome {
                Ok(reply) => {
                    if reply.get("type").and_then(|t| t.as_str().ok()) == Some("stolen") {
                        // The back-end released the queued job; place it
                        // elsewhere.
                        self.counters.steal_reroutes.fetch_add(1, Ordering::Relaxed);
                        bounces += 1;
                        avoid = Some(idx);
                        continue;
                    }
                    return reply;
                }
                Err(e) => {
                    // Connect failure or mid-job stream death: the
                    // back-end is gone. Fail over to the next live ring
                    // successor — a fresh solve there at worst.
                    eprintln!("soft route: job {key} failed over: {e}");
                    self.mark_dead(idx);
                    self.counters.failovers.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        proto::error_response("job bounced between back-ends too many times")
    }

    /// Serve one `job` frame end to end, coalescing duplicates of the
    /// same content key onto a single dispatch.
    fn serve_job(&self, msg: &Json) -> Json {
        let rj = match JobSpec::from_json(msg).and_then(resolve) {
            Ok(rj) => rj,
            Err(e) => return proto::error_response(&e),
        };
        let key = job_key(&rj.fp_a, &rj.fp_b, &rj.spec);
        let (ticket, runner) = {
            let mut claims = recover(&self.claims);
            match claims.get(&key) {
                Some(t) => (Arc::clone(t), false),
                None => {
                    let t = Arc::new(Ticket::new());
                    claims.insert(key.clone(), Arc::clone(&t));
                    (t, true)
                }
            }
        };
        if !runner {
            self.counters.coalesced_jobs.fetch_add(1, Ordering::Relaxed);
            return ticket.wait();
        }
        let guard = ClaimGuard {
            state: self,
            key: key.clone(),
            ticket: Arc::clone(&ticket),
        };
        let reply = self.dispatch(&key, msg);
        ticket.fulfill(reply.clone());
        drop(guard);
        reply
    }

    /// Fleet-wide `status`: every live back-end's counters summed,
    /// plus the router's own counters under `"router"`.
    fn aggregate_status(&self) -> Json {
        let mut sums: Vec<(String, u64)> = Vec::new();
        for b in &self.backends {
            if !b.alive.load(Ordering::Relaxed) {
                continue;
            }
            let Ok(reply) = exchange(&b.addr, &proto::status_request(), Some(CONTROL_IDLE_LIMIT))
            else {
                continue;
            };
            let Json::Object(fields) = reply else {
                continue;
            };
            for (k, v) in fields {
                let Ok(n) = v.as_u64() else { continue };
                match sums.iter_mut().find(|(name, _)| *name == k) {
                    Some((_, total)) => *total += n,
                    None => sums.push((k, n)),
                }
            }
        }
        let mut fields = vec![("type".to_string(), Json::Str("status".to_string()))];
        fields.extend(sums.into_iter().map(|(k, n)| (k, Json::UInt(n))));
        fields.push(("router".to_string(), self.counters.to_json(self)));
        Json::Object(fields)
    }

    /// Topology + per-back-end health for `soft fleet`.
    fn fleet_report(&self) -> Json {
        let backends = self
            .backends
            .iter()
            .map(|b| {
                Json::Object(vec![
                    ("addr".to_string(), Json::Str(b.addr.clone())),
                    (
                        "alive".to_string(),
                        Json::Bool(b.alive.load(Ordering::Relaxed)),
                    ),
                    (
                        "active".to_string(),
                        Json::UInt(b.active.load(Ordering::Relaxed)),
                    ),
                    (
                        "queue_depth".to_string(),
                        Json::UInt(b.queue_depth.load(Ordering::Relaxed)),
                    ),
                    (
                        "workers".to_string(),
                        Json::UInt(b.workers.load(Ordering::Relaxed)),
                    ),
                ])
            })
            .collect();
        Json::Object(vec![
            ("type".to_string(), Json::Str("fleet".to_string())),
            ("vnodes".to_string(), Json::UInt(self.cfg.vnodes as u64)),
            ("replicas".to_string(), Json::UInt(self.cfg.replicas as u64)),
            ("backends".to_string(), Json::Array(backends)),
            ("router".to_string(), self.counters.to_json(self)),
        ])
    }

    /// Forward `drain` to every live back-end (idempotent there).
    fn drain_backends(&self) {
        for b in &self.backends {
            if b.alive.load(Ordering::Relaxed) {
                let _ = exchange(&b.addr, &proto::drain_request(), Some(CONTROL_IDLE_LIMIT));
            }
        }
    }
}

/// The forwarded job frame: the client's object plus `routed: true`
/// (when stealable), which tells the back-end to register the queued
/// job with its steal registry. A pinned re-send (after too many steal
/// bounces) omits the marker so the job can no longer move.
fn mark_routed(frame: &Json, stealable: bool) -> Json {
    let Json::Object(fields) = frame else {
        return frame.clone();
    };
    let mut fields: Vec<(String, Json)> = fields
        .iter()
        .filter(|(k, _)| k != "routed")
        .cloned()
        .collect();
    if stealable {
        fields.push(("routed".to_string(), Json::Bool(true)));
    }
    Json::Object(fields)
}

/// One request on a router client connection.
fn handle_request(state: &RouterState, kind: &str, msg: &Json) -> Json {
    match kind {
        "job" => state.serve_job(msg),
        "status" => state.aggregate_status(),
        "fleet" => state.fleet_report(),
        other => proto::error_response(&format!("router does not accept '{other}'")),
    }
}

/// Build the `fleet` topology request.
pub fn fleet_request() -> Json {
    Json::Object(vec![("type".to_string(), Json::Str("fleet".to_string()))])
}

/// Run the router until drained (SIGTERM or a `drain` request). On the
/// way out, in-flight client connections finish first, then every live
/// back-end is drained.
pub fn run_router(cfg: &RouterConfig) -> Result<(), String> {
    if cfg.backends.is_empty() {
        return Err("router needs at least one back-end".to_string());
    }
    let state = Arc::new(RouterState {
        ring: Ring::new(&cfg.backends, cfg.vnodes),
        backends: cfg
            .backends
            .iter()
            .map(|addr| Backend {
                addr: addr.clone(),
                alive: AtomicBool::new(false),
                active: AtomicU64::new(0),
                queue_depth: AtomicU64::new(0),
                workers: AtomicU64::new(0),
            })
            .collect(),
        claims: Mutex::new(HashMap::new()),
        counters: RouterCounters::default(),
        cfg: cfg.clone(),
    });
    soft_serve::install_sigterm_latch();
    // Initial registration sweep: back-ends that are up learn the
    // membership before the first job arrives; the rest retry in gossip.
    let mut registered = 0;
    for idx in 0..state.backends.len() {
        if state.register(idx) {
            registered += 1;
        }
    }
    eprintln!(
        "soft route: {registered}/{} back-end(s) registered",
        state.backends.len()
    );
    let acceptor = Acceptor::bind(cfg.port).map_err(|e| format!("bind 127.0.0.1: {e}"))?;
    let addr = acceptor.local_addr();
    if let Some(path) = &cfg.addr_file {
        atomic_write(path, addr.to_string().as_bytes(), false)
            .map_err(|e| format!("publish addr {}: {e}", path.display()))?;
    }
    println!("soft route: listening on {addr}");
    let gossip_state = Arc::clone(&state);
    let gossip_drain = acceptor.waker();
    let gossip = std::thread::spawn(move || {
        while !gossip_drain.is_stopped() {
            gossip_state.gossip_round();
            std::thread::sleep(GOSSIP_INTERVAL);
        }
    });
    let st = Arc::clone(&state);
    let conns = serve_clients(acceptor, move |kind, msg| handle_request(&st, kind, msg))?;
    eprintln!(
        "soft route: draining ({} connection(s) open) ...",
        conns.len()
    );
    for h in conns {
        let _ = h.join();
    }
    let _ = gossip.join();
    // Client work is done; now drain the back-ends themselves so one
    // `--drain` (or SIGTERM) at the router stops the whole fleet.
    state.drain_backends();
    eprintln!("soft route: drained");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state(n: usize) -> RouterState {
        let backends: Vec<String> = (0..n).map(|i| format!("127.0.0.1:{}", 9100 + i)).collect();
        RouterState {
            ring: Ring::new(&backends, 64),
            backends: backends
                .iter()
                .map(|addr| Backend {
                    addr: addr.clone(),
                    alive: AtomicBool::new(true),
                    active: AtomicU64::new(0),
                    queue_depth: AtomicU64::new(0),
                    workers: AtomicU64::new(1),
                })
                .collect(),
            claims: Mutex::new(HashMap::new()),
            counters: RouterCounters::default(),
            cfg: RouterConfig {
                port: 0,
                backends,
                vnodes: 64,
                replicas: 1,
                addr_file: None,
            },
        }
    }

    #[test]
    fn choose_prefers_the_owner_then_live_successors() {
        let s = state(3);
        let owner = s.ring.owner("somekey").unwrap();
        assert_eq!(s.choose("somekey", None), Some(owner));
        // Owner dies: the next ring successor takes over.
        s.backends[owner].alive.store(false, Ordering::Relaxed);
        let next = s.ring.successors("somekey")[1];
        assert_eq!(s.choose("somekey", None), Some(next));
        // Everyone dies: explicit None, not a panic.
        for b in &s.backends {
            b.alive.store(false, Ordering::Relaxed);
        }
        assert_eq!(s.choose("somekey", None), None);
    }

    #[test]
    fn choose_diverts_from_a_saturated_owner_to_an_idle_replica() {
        let s = state(3);
        let order = s.ring.successors("balancekey");
        let (owner, idle) = (order[0], order[1]);
        // Owner saturated by gossiped queue depth.
        s.backends[owner].queue_depth.store(2, Ordering::Relaxed);
        assert_eq!(s.choose("balancekey", None), Some(idle));
        assert_eq!(s.counters.balance_routes.load(Ordering::Relaxed), 1);
        // All saturated: the owner keeps the job (it queues there).
        for b in &s.backends {
            b.queue_depth.store(2, Ordering::Relaxed);
        }
        assert_eq!(s.choose("balancekey", None), Some(owner));
        // Saturation by active-vs-workers counts too.
        for b in &s.backends {
            b.queue_depth.store(0, Ordering::Relaxed);
        }
        s.backends[owner].active.store(1, Ordering::Relaxed); // workers=1
        assert_eq!(s.choose("balancekey", None), Some(idle));
    }

    #[test]
    fn choose_honors_avoid_unless_it_is_the_last_backend_standing() {
        let s = state(3);
        let order = s.ring.successors("avoidkey");
        let owner = order[0];
        assert_eq!(s.choose("avoidkey", Some(owner)), Some(order[1]));
        for &i in &order[1..] {
            s.backends[i].alive.store(false, Ordering::Relaxed);
        }
        // Avoided but sole survivor: better there than nowhere.
        assert_eq!(s.choose("avoidkey", Some(owner)), Some(owner));
    }

    #[test]
    fn mark_routed_sets_and_strips_the_marker() {
        let frame = Json::Object(vec![
            ("type".to_string(), Json::Str("job".to_string())),
            ("seed".to_string(), Json::UInt(7)),
        ]);
        let routed = mark_routed(&frame, true);
        assert_eq!(
            routed.get("routed").and_then(|v| v.as_bool().ok()),
            Some(true)
        );
        let pinned = mark_routed(&routed, false);
        assert!(pinned.get("routed").is_none(), "pinning strips the marker");
        assert_eq!(pinned.get("seed").and_then(|v| v.as_u64().ok()), Some(7));
    }

    #[test]
    fn tickets_broadcast_one_result_to_every_waiter() {
        let t = Arc::new(Ticket::new());
        let waiters: Vec<_> = (0..4)
            .map(|_| {
                let t = Arc::clone(&t);
                std::thread::spawn(move || t.wait())
            })
            .collect();
        t.fulfill(proto::error_response("done"));
        for w in waiters {
            let got = w.join().unwrap();
            assert_eq!(got.field("message").unwrap().as_str().unwrap(), "done");
        }
    }
}
