//! Serializable phase-1 artifacts.
//!
//! SOFT's two phases are decoupled (§2.4): each vendor runs symbolic
//! execution on its own agent and ships only *intermediate results* — the
//! input-space partition (path conditions) and the output observed for
//! each subspace. This module defines that interchange format as JSON with
//! terms in the `soft-smt` wire syntax, so the crosschecking party needs
//! no access to the agent at all.
//!
//! One streaming writer lays the artifact out. [`encode_run`] feeds it an
//! explored [`TestRun`] directly — each term is printed into one reused
//! scratch buffer and escaped into the output, with no per-term `String`
//! and no JSON tree — and [`TestRunFile::to_json`] feeds it a parsed
//! artifact's wire strings, so both produce the same bytes for the same
//! run. [`TestRunFile::from_json`] is the one reader.

use crate::json::{self, Json};
use crate::runner::{ObservedOutput, PathRecord, TestRun};
use soft_protocol::TraceEvent;
use soft_smt::{sexpr, Term};
use soft_sym::SymBuf;

/// Serializable form of a term.
fn term_out(t: &Term) -> String {
    sexpr::to_wire(t)
}

fn term_in(s: &str) -> Result<Term, String> {
    sexpr::from_wire(s).map_err(|e| e.to_string())
}

/// Serializable form of a byte buffer: each byte as a wire term.
fn buf_out(b: &SymBuf) -> Vec<String> {
    b.bytes().iter().map(term_out).collect()
}

fn buf_in(v: &[String]) -> Result<SymBuf, String> {
    let mut b = SymBuf::empty();
    for s in v {
        let t = term_in(s)?;
        if t.sort() != soft_smt::Sort::Bv(8) {
            return Err(format!("buffer byte has sort {:?}", t.sort()));
        }
        b.push(t);
    }
    Ok(b)
}

/// Wire form of one trace event. Serialized as an internally tagged
/// object: `{"kind": "<snake_case variant>", ...fields}`.
#[derive(Debug, Clone, PartialEq)]
pub enum EventFile {
    /// OpenFlow error message.
    Error {
        /// Transaction id (wire term).
        xid: String,
        /// Error type (wire term).
        etype: String,
        /// Error code (wire term).
        code: String,
    },
    /// Packet In message.
    PacketIn {
        /// Buffer id (wire term).
        buffer_id: String,
        /// Ingress port (wire term).
        in_port: String,
        /// Reason (wire term).
        reason: String,
        /// Included data length (wire term).
        data_len: String,
        /// Data bytes (wire terms).
        data: Vec<String>,
    },
    /// Any other OpenFlow reply.
    OfReply {
        /// Reply message type.
        msg_type: u8,
        /// Named fields (name, wire term).
        fields: Vec<(String, String)>,
        /// Body bytes (wire terms).
        body: Vec<String>,
    },
    /// Data-plane transmission.
    DataPlaneTx {
        /// Egress port (wire term).
        port: String,
        /// Frame bytes (wire terms).
        data: Vec<String>,
    },
    /// Flooded frame.
    Flood {
        /// Ingress excluded from the flood set?
        exclude_ingress: bool,
        /// Frame bytes (wire terms).
        data: Vec<String>,
    },
    /// Handed to the traditional forwarding path.
    NormalForward {
        /// Frame bytes (wire terms).
        data: Vec<String>,
    },
    /// Probe produced no output.
    ProbeDropped,
}

impl EventFile {
    /// Convert from the in-memory event.
    pub fn from_event(e: &TraceEvent) -> EventFile {
        match e {
            TraceEvent::Error { xid, etype, code } => EventFile::Error {
                xid: term_out(xid),
                etype: term_out(etype),
                code: term_out(code),
            },
            TraceEvent::PacketIn {
                buffer_id,
                in_port,
                reason,
                data_len,
                data,
            } => EventFile::PacketIn {
                buffer_id: term_out(buffer_id),
                in_port: term_out(in_port),
                reason: term_out(reason),
                data_len: term_out(data_len),
                data: buf_out(data),
            },
            TraceEvent::OfReply {
                msg_type,
                fields,
                body,
            } => EventFile::OfReply {
                msg_type: *msg_type,
                fields: fields
                    .iter()
                    .map(|(n, t)| (n.to_string(), term_out(t)))
                    .collect(),
                body: buf_out(body),
            },
            TraceEvent::DataPlaneTx { port, data } => EventFile::DataPlaneTx {
                port: term_out(port),
                data: buf_out(data),
            },
            TraceEvent::Flood {
                exclude_ingress,
                data,
            } => EventFile::Flood {
                exclude_ingress: *exclude_ingress,
                data: buf_out(data),
            },
            TraceEvent::NormalForward { data } => EventFile::NormalForward {
                data: buf_out(data),
            },
            TraceEvent::ProbeDropped => EventFile::ProbeDropped,
        }
    }

    /// Convert back to the in-memory event. Field names are interned as
    /// static strings from a fixed vocabulary; unknown names are rejected.
    pub fn to_event(&self) -> Result<TraceEvent, String> {
        Ok(match self {
            EventFile::Error { xid, etype, code } => TraceEvent::Error {
                xid: term_in(xid)?,
                etype: term_in(etype)?,
                code: term_in(code)?,
            },
            EventFile::PacketIn {
                buffer_id,
                in_port,
                reason,
                data_len,
                data,
            } => TraceEvent::PacketIn {
                buffer_id: term_in(buffer_id)?,
                in_port: term_in(in_port)?,
                reason: term_in(reason)?,
                data_len: term_in(data_len)?,
                data: buf_in(data)?,
            },
            EventFile::OfReply {
                msg_type,
                fields,
                body,
            } => TraceEvent::OfReply {
                msg_type: *msg_type,
                fields: fields
                    .iter()
                    .map(|(n, t)| Ok((intern_field(n)?, term_in(t)?)))
                    .collect::<Result<Vec<_>, String>>()?,
                body: buf_in(body)?,
            },
            EventFile::DataPlaneTx { port, data } => TraceEvent::DataPlaneTx {
                port: term_in(port)?,
                data: buf_in(data)?,
            },
            EventFile::Flood {
                exclude_ingress,
                data,
            } => TraceEvent::Flood {
                exclude_ingress: *exclude_ingress,
                data: buf_in(data)?,
            },
            EventFile::NormalForward { data } => TraceEvent::NormalForward {
                data: buf_in(data)?,
            },
            EventFile::ProbeDropped => TraceEvent::ProbeDropped,
        })
    }
}

/// The fixed vocabulary of reply field names.
const FIELD_NAMES: [&str; 10] = [
    "xid",
    "stats_type",
    "flags",
    "miss_send_len",
    "datapath_id",
    "n_buffers",
    "n_tables",
    "port",
    "priority",
    "cookie",
];

fn intern_field(n: &str) -> Result<&'static str, String> {
    FIELD_NAMES
        .iter()
        .find(|f| **f == n)
        .copied()
        .ok_or_else(|| format!("unknown reply field '{n}'"))
}

/// Wire form of one explored path.
#[derive(Debug, Clone, PartialEq)]
pub struct PathFile {
    /// Path condition (wire term).
    pub condition: String,
    /// Whether the agent crashed.
    pub crashed: bool,
    /// Normalized output events.
    pub events: Vec<EventFile>,
}

/// Wire form of a whole test run — the phase-1 artifact a vendor ships.
#[derive(Debug, Clone, PartialEq)]
pub struct TestRunFile {
    /// Agent identifier.
    pub agent: String,
    /// Test identifier.
    pub test: String,
    /// Explored paths.
    pub paths: Vec<PathFile>,
    /// Exploration wall-clock time, milliseconds.
    pub wall_ms: u64,
    /// Instruction coverage percent.
    pub instruction_pct: f64,
    /// Branch coverage percent.
    pub branch_pct: f64,
    /// Whether exploration hit a configured limit.
    pub truncated: bool,
}

impl TestRunFile {
    /// Build the wire form of a test run.
    pub fn from_run(run: &TestRun) -> TestRunFile {
        TestRunFile {
            agent: run.agent.clone(),
            test: run.test.clone(),
            paths: run
                .paths
                .iter()
                .map(|p| PathFile {
                    condition: term_out(&p.condition),
                    crashed: p.output.crashed,
                    events: p.output.events.iter().map(EventFile::from_event).collect(),
                })
                .collect(),
            wall_ms: run.wall.as_millis() as u64,
            instruction_pct: run.instruction_pct,
            branch_pct: run.branch_pct,
            truncated: run.stats.truncated,
        }
    }

    /// Reconstruct the in-memory records (for the crosschecking phase —
    /// no agent access needed).
    pub fn to_paths(&self) -> Result<Vec<PathRecord>, String> {
        self.paths
            .iter()
            .map(|p| {
                let condition = term_in(&p.condition)?;
                let events = p
                    .events
                    .iter()
                    .map(EventFile::to_event)
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(PathRecord {
                    constraint_size: soft_smt::metrics::op_count(&condition),
                    condition,
                    output: ObservedOutput {
                        events,
                        crashed: p.crashed,
                    },
                })
            })
            .collect()
    }

    /// Serialize to JSON.
    pub fn to_json(&self) -> String {
        write_artifact(
            &RunHead {
                agent: &self.agent,
                test: &self.test,
                wall_ms: self.wall_ms,
                instruction_pct: self.instruction_pct,
                branch_pct: self.branch_pct,
                truncated: self.truncated,
            },
            self.paths
                .iter()
                .map(|p| (&p.condition, p.crashed, &p.events[..])),
        )
    }

    /// Parse from JSON.
    pub fn from_json(s: &str) -> Result<TestRunFile, String> {
        let v = json::parse(s)?;
        if !matches!(v, Json::Object(_)) {
            return Err("artifact must be a JSON object".into());
        }
        Ok(TestRunFile {
            agent: v.field("agent")?.as_str()?.to_string(),
            test: v.field("test")?.as_str()?.to_string(),
            paths: v
                .field("paths")?
                .as_array()?
                .iter()
                .map(PathFile::from_json_value)
                .collect::<Result<Vec<_>, _>>()?,
            wall_ms: v.field("wall_ms")?.as_u64()?,
            instruction_pct: v.field("instruction_pct")?.as_f64()?,
            branch_pct: v.field("branch_pct")?.as_f64()?,
            truncated: v.field("truncated")?.as_bool()?,
        })
    }
}

impl PathFile {
    fn from_json_value(v: &Json) -> Result<PathFile, String> {
        Ok(PathFile {
            condition: v.field("condition")?.as_str()?.to_string(),
            crashed: v.field("crashed")?.as_bool()?,
            events: v
                .field("events")?
                .as_array()?
                .iter()
                .map(EventFile::from_json_value)
                .collect::<Result<Vec<_>, _>>()?,
        })
    }
}

fn strings_in(v: &Json) -> Result<Vec<String>, String> {
    v.as_array()?
        .iter()
        .map(|s| Ok(s.as_str()?.to_string()))
        .collect()
}

impl EventFile {
    /// Parse from a JSON value (shared with the journal records).
    pub(crate) fn from_json_value(v: &Json) -> Result<EventFile, String> {
        let kind = v.field("kind")?.as_str()?;
        Ok(match kind {
            "error" => EventFile::Error {
                xid: v.field("xid")?.as_str()?.to_string(),
                etype: v.field("etype")?.as_str()?.to_string(),
                code: v.field("code")?.as_str()?.to_string(),
            },
            "packet_in" => EventFile::PacketIn {
                buffer_id: v.field("buffer_id")?.as_str()?.to_string(),
                in_port: v.field("in_port")?.as_str()?.to_string(),
                reason: v.field("reason")?.as_str()?.to_string(),
                data_len: v.field("data_len")?.as_str()?.to_string(),
                data: strings_in(v.field("data")?)?,
            },
            "of_reply" => {
                let msg_type = v.field("msg_type")?.as_u64()?;
                if msg_type > u8::MAX as u64 {
                    return Err(format!("msg_type {msg_type} out of range"));
                }
                EventFile::OfReply {
                    msg_type: msg_type as u8,
                    fields: v
                        .field("fields")?
                        .as_array()?
                        .iter()
                        .map(|pair| {
                            let pair = pair.as_array()?;
                            if pair.len() != 2 {
                                return Err("field entry must be a [name, term] pair".into());
                            }
                            Ok((pair[0].as_str()?.to_string(), pair[1].as_str()?.to_string()))
                        })
                        .collect::<Result<Vec<_>, String>>()?,
                    body: strings_in(v.field("body")?)?,
                }
            }
            "data_plane_tx" => EventFile::DataPlaneTx {
                port: v.field("port")?.as_str()?.to_string(),
                data: strings_in(v.field("data")?)?,
            },
            "flood" => EventFile::Flood {
                exclude_ingress: v.field("exclude_ingress")?.as_bool()?,
                data: strings_in(v.field("data")?)?,
            },
            "normal_forward" => EventFile::NormalForward {
                data: strings_in(v.field("data")?)?,
            },
            "probe_dropped" => EventFile::ProbeDropped,
            other => return Err(format!("unknown event kind '{other}'")),
        })
    }
}

/// A term as an artifact stores it: an in-memory [`Term`], printed to
/// wire syntax, or wire text already (a parsed artifact's).
trait WireTerm {
    fn wire_into(&self, out: &mut String);
}

impl WireTerm for Term {
    fn wire_into(&self, out: &mut String) {
        sexpr::write_wire(self, out);
    }
}

impl WireTerm for String {
    fn wire_into(&self, out: &mut String) {
        out.push_str(self);
    }
}

/// One event's fields, borrowed from a [`TraceEvent`] or an [`EventFile`]
/// for [`Writer::event`].
enum EventView<'a, N, T> {
    Error {
        xid: &'a T,
        etype: &'a T,
        code: &'a T,
    },
    PacketIn {
        buffer_id: &'a T,
        in_port: &'a T,
        reason: &'a T,
        data_len: &'a T,
        data: &'a [T],
    },
    OfReply {
        msg_type: u8,
        fields: &'a [(N, T)],
        body: &'a [T],
    },
    DataPlaneTx {
        port: &'a T,
        data: &'a [T],
    },
    Flood {
        exclude_ingress: bool,
        data: &'a [T],
    },
    NormalForward {
        data: &'a [T],
    },
    ProbeDropped,
}

/// An event the artifact writer can lay out.
trait WireEvent {
    type Name: AsRef<str>;
    type Term: WireTerm;
    fn view(&self) -> EventView<'_, Self::Name, Self::Term>;
}

impl WireEvent for TraceEvent {
    type Name = &'static str;
    type Term = Term;
    fn view(&self) -> EventView<'_, &'static str, Term> {
        match self {
            TraceEvent::Error { xid, etype, code } => EventView::Error { xid, etype, code },
            TraceEvent::PacketIn {
                buffer_id,
                in_port,
                reason,
                data_len,
                data,
            } => EventView::PacketIn {
                buffer_id,
                in_port,
                reason,
                data_len,
                data: data.bytes(),
            },
            TraceEvent::OfReply {
                msg_type,
                fields,
                body,
            } => EventView::OfReply {
                msg_type: *msg_type,
                fields,
                body: body.bytes(),
            },
            TraceEvent::DataPlaneTx { port, data } => EventView::DataPlaneTx {
                port,
                data: data.bytes(),
            },
            TraceEvent::Flood {
                exclude_ingress,
                data,
            } => EventView::Flood {
                exclude_ingress: *exclude_ingress,
                data: data.bytes(),
            },
            TraceEvent::NormalForward { data } => EventView::NormalForward { data: data.bytes() },
            TraceEvent::ProbeDropped => EventView::ProbeDropped,
        }
    }
}

impl WireEvent for EventFile {
    type Name = String;
    type Term = String;
    fn view(&self) -> EventView<'_, String, String> {
        match self {
            EventFile::Error { xid, etype, code } => EventView::Error { xid, etype, code },
            EventFile::PacketIn {
                buffer_id,
                in_port,
                reason,
                data_len,
                data,
            } => EventView::PacketIn {
                buffer_id,
                in_port,
                reason,
                data_len,
                data,
            },
            EventFile::OfReply {
                msg_type,
                fields,
                body,
            } => EventView::OfReply {
                msg_type: *msg_type,
                fields,
                body,
            },
            EventFile::DataPlaneTx { port, data } => EventView::DataPlaneTx { port, data },
            EventFile::Flood {
                exclude_ingress,
                data,
            } => EventView::Flood {
                exclude_ingress: *exclude_ingress,
                data,
            },
            EventFile::NormalForward { data } => EventView::NormalForward { data },
            EventFile::ProbeDropped => EventView::ProbeDropped,
        }
    }
}

/// What an artifact records besides its paths.
struct RunHead<'a> {
    agent: &'a str,
    test: &'a str,
    wall_ms: u64,
    instruction_pct: f64,
    branch_pct: f64,
    truncated: bool,
}

/// The one artifact layout: compact JSON, fields in the order
/// [`TestRunFile::from_json`] reads them, `paths` yielding each path's
/// condition, crash flag and events.
fn write_artifact<'a, E>(
    head: &RunHead,
    paths: impl Iterator<Item = (&'a E::Term, bool, &'a [E])>,
) -> String
where
    E: WireEvent + 'a,
{
    let mut out = String::new();
    let mut w = Writer::new(&mut out);
    w.out.push_str("{\"agent\":");
    json::write_string(head.agent, w.out);
    w.out.push_str(",\"test\":");
    json::write_string(head.test, w.out);
    w.out.push_str(",\"paths\":[");
    for (i, (condition, crashed, events)) in paths.enumerate() {
        if i > 0 {
            w.out.push(',');
        }
        w.out.push_str("{\"condition\":");
        w.term(condition);
        w.out.push_str(",\"crashed\":");
        Json::Bool(crashed).write_into(w.out);
        w.out.push_str(",\"events\":");
        w.events(events);
        w.out.push('}');
    }
    w.out.push_str("],\"wall_ms\":");
    Json::UInt(head.wall_ms).write_into(w.out);
    w.out.push_str(",\"instruction_pct\":");
    Json::Float(head.instruction_pct).write_into(w.out);
    w.out.push_str(",\"branch_pct\":");
    Json::Float(head.branch_pct).write_into(w.out);
    w.out.push_str(",\"truncated\":");
    Json::Bool(head.truncated).write_into(w.out);
    w.out.push('}');
    out
}

/// The phase-1 artifact of an explored run, written straight from its
/// terms: byte-identical to `TestRunFile::from_run(run).to_json()`
/// without building that copy.
pub fn encode_run(run: &TestRun) -> String {
    write_artifact(
        &RunHead {
            agent: &run.agent,
            test: &run.test,
            wall_ms: run.wall.as_millis() as u64,
            instruction_pct: run.instruction_pct,
            branch_pct: run.branch_pct,
            truncated: run.stats.truncated,
        },
        run.paths
            .iter()
            .map(|p| (&p.condition, p.output.crashed, &p.output.events[..])),
    )
}

/// Append `events` to `out` as the JSON array an artifact path (or a
/// journal output record) carries.
pub(crate) fn write_events(events: &[TraceEvent], out: &mut String) {
    Writer::new(out).events(events);
}

/// Streams JSON into `out`; each term's wire text is staged in the one
/// `scratch` buffer and escaped from there.
struct Writer<'o> {
    out: &'o mut String,
    scratch: String,
}

impl<'o> Writer<'o> {
    fn new(out: &'o mut String) -> Writer<'o> {
        Writer {
            out,
            scratch: String::new(),
        }
    }

    fn term(&mut self, t: &impl WireTerm) {
        self.scratch.clear();
        t.wire_into(&mut self.scratch);
        json::write_string(&self.scratch, self.out);
    }

    /// `,"key":` and the term as a JSON string.
    fn field(&mut self, key: &str, t: &impl WireTerm) {
        self.key(key);
        self.term(t);
    }

    /// `,"key":` and the terms as an array of JSON strings.
    fn terms<T: WireTerm>(&mut self, key: &str, ts: &[T]) {
        self.key(key);
        self.out.push('[');
        for (i, t) in ts.iter().enumerate() {
            if i > 0 {
                self.out.push(',');
            }
            self.term(t);
        }
        self.out.push(']');
    }

    /// `{"kind":"<kind>"`, the head of every event object.
    fn open(&mut self, kind: &str) {
        self.out.push_str("{\"kind\":\"");
        self.out.push_str(kind);
        self.out.push('"');
    }

    fn key(&mut self, key: &str) {
        self.out.push_str(",\"");
        self.out.push_str(key);
        self.out.push_str("\":");
    }

    fn events<E: WireEvent>(&mut self, events: &[E]) {
        self.out.push('[');
        for (i, e) in events.iter().enumerate() {
            if i > 0 {
                self.out.push(',');
            }
            self.event(e);
        }
        self.out.push(']');
    }

    /// One event as an internally tagged object:
    /// `{"kind":"<snake_case variant>",...fields}`.
    fn event<E: WireEvent>(&mut self, e: &E) {
        match e.view() {
            EventView::Error { xid, etype, code } => {
                self.open("error");
                self.field("xid", xid);
                self.field("etype", etype);
                self.field("code", code);
            }
            EventView::PacketIn {
                buffer_id,
                in_port,
                reason,
                data_len,
                data,
            } => {
                self.open("packet_in");
                self.field("buffer_id", buffer_id);
                self.field("in_port", in_port);
                self.field("reason", reason);
                self.field("data_len", data_len);
                self.terms("data", data);
            }
            EventView::OfReply {
                msg_type,
                fields,
                body,
            } => {
                self.open("of_reply");
                self.key("msg_type");
                Json::UInt(msg_type as u64).write_into(self.out);
                self.key("fields");
                self.out.push('[');
                for (i, (name, t)) in fields.iter().enumerate() {
                    if i > 0 {
                        self.out.push(',');
                    }
                    self.out.push('[');
                    json::write_string(name.as_ref(), self.out);
                    self.out.push(',');
                    self.term(t);
                    self.out.push(']');
                }
                self.out.push(']');
                self.terms("body", body);
            }
            EventView::DataPlaneTx { port, data } => {
                self.open("data_plane_tx");
                self.field("port", port);
                self.terms("data", data);
            }
            EventView::Flood {
                exclude_ingress,
                data,
            } => {
                self.open("flood");
                self.key("exclude_ingress");
                Json::Bool(exclude_ingress).write_into(self.out);
                self.terms("data", data);
            }
            EventView::NormalForward { data } => {
                self.open("normal_forward");
                self.terms("data", data);
            }
            EventView::ProbeDropped => self.open("probe_dropped"),
        }
        self.out.push('}');
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_event() -> TraceEvent {
        TraceEvent::PacketIn {
            buffer_id: Term::bv_const(32, 0),
            in_port: Term::var("w.in", 16),
            reason: Term::bv_const(8, 0),
            data_len: Term::bv_const(16, 2),
            data: SymBuf::concrete(&[0xab, 0xcd]),
        }
    }

    #[test]
    fn event_roundtrip() {
        let e = sample_event();
        let f = EventFile::from_event(&e);
        assert_eq!(f.to_event().unwrap(), e);

        let err = TraceEvent::Error {
            xid: Term::bv_const(32, 0),
            etype: Term::bv_const(16, 1),
            code: Term::bv_const(16, 6),
        };
        let f = EventFile::from_event(&err);
        assert_eq!(f.to_event().unwrap(), err);
    }

    #[test]
    fn of_reply_roundtrip_interns_fields() {
        let e = TraceEvent::OfReply {
            msg_type: 17,
            fields: vec![("stats_type", Term::bv_const(16, 3))],
            body: SymBuf::concrete(b"x"),
        };
        let f = EventFile::from_event(&e);
        assert_eq!(f.to_event().unwrap(), e);
    }

    #[test]
    fn unknown_field_rejected() {
        let f = EventFile::OfReply {
            msg_type: 17,
            fields: vec![("bogus".into(), "(c 16 1)".into())],
            body: vec![],
        };
        assert!(f.to_event().is_err());
    }

    #[test]
    fn run_file_json_roundtrip() {
        let cond = Term::var("w.x", 8).eq(Term::bv_const(8, 7));
        let run_file = TestRunFile {
            agent: "reference".into(),
            test: "packet_out".into(),
            paths: vec![PathFile {
                condition: sexpr::to_wire(&cond),
                crashed: true,
                events: vec![EventFile::from_event(&sample_event())],
            }],
            wall_ms: 12,
            instruction_pct: 26.2,
            branch_pct: 19.3,
            truncated: false,
        };
        let json = run_file.to_json();
        let back = TestRunFile::from_json(&json).unwrap();
        assert_eq!(back, run_file);
        let paths = back.to_paths().unwrap();
        assert_eq!(paths.len(), 1);
        assert_eq!(paths[0].condition, cond);
        assert!(paths[0].output.crashed);
    }

    #[test]
    fn corrupt_json_rejected() {
        assert!(TestRunFile::from_json("{").is_err());
        assert!(TestRunFile::from_json("{\"agent\": 3}").is_err());
    }
}
