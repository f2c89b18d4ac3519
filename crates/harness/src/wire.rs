//! Serializable phase-1 artifacts.
//!
//! SOFT's two phases are decoupled (§2.4): each vendor runs symbolic
//! execution on its own agent and ships only *intermediate results* — the
//! input-space partition (path conditions) and the output observed for
//! each subspace. This module defines that interchange format as JSON with
//! terms in the `soft-smt` wire syntax, so the crosschecking party needs
//! no access to the agent at all.
//!
//! [`encode_run`] is the one writer: it lays an explored [`TestRun`] out
//! directly, each term printed into one reused scratch buffer and escaped
//! into the output, with no per-term `String` and no JSON tree.
//! [`decode_run`] is its mirror and the one reader: it streams the text
//! through the JSON tokenizer and decodes each path straight into a
//! [`PathRecord`], each term read by `sexpr::from_wire` from its slice of
//! the text. The journal's `output` records carry the same event layout,
//! written by the same event writer.

use crate::json::{self, Json, Parser};
use crate::runner::{ObservedOutput, PathRecord, TestRun};
use soft_protocol::TraceEvent;
use soft_smt::{sexpr, Sort, Term};
use soft_sym::{Coverage, ExplorationStats, SymBuf};
use std::time::Duration;

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

/// The phase-1 artifact of an explored run: compact JSON, fields in the
/// order `agent`, `test`, `paths`, `wall_ms`, `instruction_pct`,
/// `branch_pct`, `truncated`.
pub fn encode_run(run: &TestRun) -> String {
    let mut out = String::new();
    let mut w = Writer::new(&mut out);
    w.out.push_str("{\"agent\":");
    json::write_string(&run.agent, w.out);
    w.out.push_str(",\"test\":");
    json::write_string(&run.test, w.out);
    w.out.push_str(",\"paths\":[");
    for (i, p) in run.paths.iter().enumerate() {
        if i > 0 {
            w.out.push(',');
        }
        w.out.push_str("{\"condition\":");
        w.term(&p.condition);
        w.out.push_str(",\"crashed\":");
        Json::Bool(p.output.crashed).write_into(w.out);
        w.out.push_str(",\"events\":");
        w.events(&p.output.events);
        w.out.push('}');
    }
    w.out.push_str("],\"wall_ms\":");
    Json::UInt(run.wall.as_millis() as u64).write_into(w.out);
    w.out.push_str(",\"instruction_pct\":");
    Json::Float(run.instruction_pct).write_into(w.out);
    w.out.push_str(",\"branch_pct\":");
    Json::Float(run.branch_pct).write_into(w.out);
    w.out.push_str(",\"truncated\":");
    Json::Bool(run.stats.truncated).write_into(w.out);
    w.out.push('}');
    out
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

    fn term(&mut self, t: &Term) {
        self.scratch.clear();
        sexpr::write_wire(t, &mut self.scratch);
        json::write_string(&self.scratch, self.out);
    }

    /// `,"key":` and the term as a JSON string.
    fn field(&mut self, key: &str, t: &Term) {
        self.key(key);
        self.term(t);
    }

    /// `,"key":` and the buffer's byte terms as an array of JSON strings.
    fn buf(&mut self, key: &str, b: &SymBuf) {
        self.key(key);
        self.out.push('[');
        for (i, t) in b.bytes().iter().enumerate() {
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

    fn events(&mut self, events: &[TraceEvent]) {
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
    fn event(&mut self, e: &TraceEvent) {
        match e {
            TraceEvent::Error { xid, etype, code } => {
                self.open("error");
                self.field("xid", xid);
                self.field("etype", etype);
                self.field("code", code);
            }
            TraceEvent::PacketIn {
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
                self.buf("data", data);
            }
            TraceEvent::OfReply {
                msg_type,
                fields,
                body,
            } => {
                self.open("of_reply");
                self.key("msg_type");
                Json::UInt(*msg_type as u64).write_into(self.out);
                self.key("fields");
                self.out.push('[');
                for (i, (name, t)) in fields.iter().enumerate() {
                    if i > 0 {
                        self.out.push(',');
                    }
                    self.out.push('[');
                    json::write_string(name, self.out);
                    self.out.push(',');
                    self.term(t);
                    self.out.push(']');
                }
                self.out.push(']');
                self.buf("body", body);
            }
            TraceEvent::DataPlaneTx { port, data } => {
                self.open("data_plane_tx");
                self.field("port", port);
                self.buf("data", data);
            }
            TraceEvent::Flood {
                exclude_ingress,
                data,
            } => {
                self.open("flood");
                self.key("exclude_ingress");
                Json::Bool(*exclude_ingress).write_into(self.out);
                self.buf("data", data);
            }
            TraceEvent::NormalForward { data } => {
                self.open("normal_forward");
                self.buf("data", data);
            }
            TraceEvent::ProbeDropped => self.open("probe_dropped"),
        }
        self.out.push('}');
    }
}

/// Read a phase-1 artifact back into the run [`encode_run`] wrote it
/// from. Members may come in any order and unknown ones are skipped; a
/// missing or mistyped member is an error. The artifact records no
/// coverage sets and, of the engine statistics, only `truncated`, so the
/// run's `coverage` is empty and its `stats` hold only that flag.
pub fn decode_run(text: &str) -> Result<TestRun, String> {
    let (mut agent, mut test, mut paths) = (None, None, None);
    let (mut wall_ms, mut instruction_pct, mut branch_pct, mut truncated) =
        (None, None, None, None);
    json::parse_with(text, |p| {
        p.object_with(0, |p, key| {
            match key {
                "agent" => agent = Some(p.str(1)?.to_string()),
                "test" => test = Some(p.str(1)?.to_string()),
                "paths" => {
                    let mut v = Vec::new();
                    p.array_with(1, |p| {
                        v.push(read_path(p)?);
                        Ok(())
                    })?;
                    paths = Some(v);
                }
                "wall_ms" => wall_ms = Some(p.value(1)?.as_u64()?),
                "instruction_pct" => instruction_pct = Some(p.value(1)?.as_f64()?),
                "branch_pct" => branch_pct = Some(p.value(1)?.as_f64()?),
                "truncated" => truncated = Some(p.value(1)?.as_bool()?),
                _ => drop(p.value(1)?),
            }
            Ok(())
        })
    })?;
    Ok(TestRun {
        agent: need(agent, "agent")?,
        test: need(test, "test")?,
        paths: need(paths, "paths")?,
        wall: Duration::from_millis(need(wall_ms, "wall_ms")?),
        stats: ExplorationStats {
            truncated: need(truncated, "truncated")?,
            ..ExplorationStats::default()
        },
        coverage: Coverage::default(),
        instruction_pct: need(instruction_pct, "instruction_pct")?,
        branch_pct: need(branch_pct, "branch_pct")?,
    })
}

fn need<T>(v: Option<T>, key: &str) -> Result<T, String> {
    v.ok_or_else(|| format!("missing field '{key}'"))
}

/// One path object, at depth 2 of an artifact.
fn read_path(p: &mut Parser) -> Result<PathRecord, String> {
    let (mut condition, mut crashed, mut events) = (None, None, None);
    p.object_with(2, |p, key| {
        match key {
            "condition" => condition = Some(read_term(p, 3)?),
            "crashed" => crashed = Some(p.value(3)?.as_bool()?),
            "events" => events = Some(read_events(p, 3)?),
            _ => drop(p.value(3)?),
        }
        Ok(())
    })?;
    let condition = need(condition, "condition")?;
    Ok(PathRecord {
        constraint_size: soft_smt::metrics::op_count(&condition),
        condition,
        output: ObservedOutput {
            events: need(events, "events")?,
            crashed: need(crashed, "crashed")?,
        },
    })
}

fn read_term(p: &mut Parser, depth: usize) -> Result<Term, String> {
    sexpr::from_wire(p.str(depth)?).map_err(|e| e.to_string())
}

/// An array of byte terms, each of sort `Bv(8)`.
fn read_buf(p: &mut Parser, depth: usize) -> Result<SymBuf, String> {
    let mut b = SymBuf::empty();
    p.array_with(depth, |p| {
        let t = read_term(p, depth + 1)?;
        if t.sort() != Sort::Bv(8) {
            return Err(format!("buffer byte has sort {:?}", t.sort()));
        }
        b.push(t);
        Ok(())
    })?;
    Ok(b)
}

fn read_events(p: &mut Parser, depth: usize) -> Result<Vec<TraceEvent>, String> {
    let mut events = Vec::new();
    p.array_with(depth, |p| {
        events.push(read_event(p, depth + 1)?);
        Ok(())
    })?;
    Ok(events)
}

/// A reply field entry: a `[name, term]` pair with a name from
/// [`FIELD_NAMES`].
fn read_field(p: &mut Parser, depth: usize) -> Result<(&'static str, Term), String> {
    let (mut name, mut term, mut n) = (None, None, 0);
    p.array_with(depth, |p| {
        match n {
            0 => name = Some(intern_field(p.str(depth + 1)?)?),
            1 => term = Some(read_term(p, depth + 1)?),
            _ => return Err("field entry must be a [name, term] pair".into()),
        }
        n += 1;
        Ok(())
    })?;
    name.zip(term)
        .ok_or_else(|| "field entry must be a [name, term] pair".into())
}

/// One event's members as read; its `kind`, which may come after them,
/// then picks the variant and the members it needs.
#[derive(Default)]
struct EventParts {
    kind: Option<String>,
    xid: Option<Term>,
    etype: Option<Term>,
    code: Option<Term>,
    buffer_id: Option<Term>,
    in_port: Option<Term>,
    reason: Option<Term>,
    data_len: Option<Term>,
    port: Option<Term>,
    data: Option<SymBuf>,
    body: Option<SymBuf>,
    msg_type: Option<u64>,
    fields: Option<Vec<(&'static str, Term)>>,
    exclude_ingress: Option<bool>,
}

fn read_event(p: &mut Parser, depth: usize) -> Result<TraceEvent, String> {
    let mut e = EventParts::default();
    let d = depth + 1;
    p.object_with(depth, |p, key| {
        match key {
            "kind" => e.kind = Some(p.str(d)?.to_string()),
            "xid" => e.xid = Some(read_term(p, d)?),
            "etype" => e.etype = Some(read_term(p, d)?),
            "code" => e.code = Some(read_term(p, d)?),
            "buffer_id" => e.buffer_id = Some(read_term(p, d)?),
            "in_port" => e.in_port = Some(read_term(p, d)?),
            "reason" => e.reason = Some(read_term(p, d)?),
            "data_len" => e.data_len = Some(read_term(p, d)?),
            "port" => e.port = Some(read_term(p, d)?),
            "data" => e.data = Some(read_buf(p, d)?),
            "body" => e.body = Some(read_buf(p, d)?),
            "msg_type" => e.msg_type = Some(p.value(d)?.as_u64()?),
            "fields" => {
                let mut fields = Vec::new();
                p.array_with(d, |p| {
                    fields.push(read_field(p, d + 1)?);
                    Ok(())
                })?;
                e.fields = Some(fields);
            }
            "exclude_ingress" => e.exclude_ingress = Some(p.value(d)?.as_bool()?),
            _ => drop(p.value(d)?),
        }
        Ok(())
    })?;
    Ok(match need(e.kind, "kind")?.as_str() {
        "error" => TraceEvent::Error {
            xid: need(e.xid, "xid")?,
            etype: need(e.etype, "etype")?,
            code: need(e.code, "code")?,
        },
        "packet_in" => TraceEvent::PacketIn {
            buffer_id: need(e.buffer_id, "buffer_id")?,
            in_port: need(e.in_port, "in_port")?,
            reason: need(e.reason, "reason")?,
            data_len: need(e.data_len, "data_len")?,
            data: need(e.data, "data")?,
        },
        "of_reply" => {
            let msg_type = need(e.msg_type, "msg_type")?;
            TraceEvent::OfReply {
                msg_type: u8::try_from(msg_type)
                    .map_err(|_| format!("msg_type {msg_type} out of range"))?,
                fields: need(e.fields, "fields")?,
                body: need(e.body, "body")?,
            }
        }
        "data_plane_tx" => TraceEvent::DataPlaneTx {
            port: need(e.port, "port")?,
            data: need(e.data, "data")?,
        },
        "flood" => TraceEvent::Flood {
            exclude_ingress: need(e.exclude_ingress, "exclude_ingress")?,
            data: need(e.data, "data")?,
        },
        "normal_forward" => TraceEvent::NormalForward {
            data: need(e.data, "data")?,
        },
        "probe_dropped" => TraceEvent::ProbeDropped,
        other => return Err(format!("unknown event kind '{other}'")),
    })
}

/// Kept only for softbench, which still reads and writes artifacts through
/// this name; the benchmark refresh (ROADMAP item 5) moves it onto
/// [`encode_run`] and [`decode_run`] and deletes this.
#[doc(hidden)]
pub struct TestRunFile(pub TestRun);

#[doc(hidden)]
impl TestRunFile {
    pub fn from_run(run: &TestRun) -> TestRunFile {
        TestRunFile(run.clone())
    }

    pub fn to_json(&self) -> String {
        encode_run(&self.0)
    }

    pub fn from_json(s: &str) -> Result<TestRunFile, String> {
        decode_run(s).map(TestRunFile)
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

    /// A one-path run whose path carries `events`.
    fn run_with(condition: Term, crashed: bool, events: Vec<TraceEvent>) -> TestRun {
        TestRun {
            agent: "reference".into(),
            test: "packet_out".into(),
            paths: vec![PathRecord {
                constraint_size: soft_smt::metrics::op_count(&condition),
                condition,
                output: ObservedOutput { events, crashed },
            }],
            wall: Duration::from_millis(12),
            stats: ExplorationStats::default(),
            coverage: Coverage::default(),
            instruction_pct: 26.2,
            branch_pct: 19.3,
        }
    }

    fn events_roundtrip(events: Vec<TraceEvent>) {
        let text = encode_run(&run_with(Term::bool_true(), false, events.clone()));
        let back = decode_run(&text).unwrap();
        assert_eq!(back.paths[0].output.events, events);
        assert_eq!(encode_run(&back), text);
    }

    #[test]
    fn event_roundtrip() {
        events_roundtrip(vec![
            sample_event(),
            TraceEvent::Error {
                xid: Term::bv_const(32, 0),
                etype: Term::bv_const(16, 1),
                code: Term::bv_const(16, 6),
            },
        ]);
    }

    #[test]
    fn of_reply_roundtrip_interns_fields() {
        events_roundtrip(vec![TraceEvent::OfReply {
            msg_type: 17,
            fields: vec![("stats_type", Term::bv_const(16, 3))],
            body: SymBuf::concrete(b"x"),
        }]);
    }

    #[test]
    fn unknown_field_rejected() {
        let reply = |name| TraceEvent::OfReply {
            msg_type: 17,
            fields: vec![(name, Term::bv_const(16, 1))],
            body: SymBuf::empty(),
        };
        let text = encode_run(&run_with(Term::bool_true(), false, vec![reply("xid")]));
        assert!(decode_run(&text).is_ok());
        let err = decode_run(&text.replace("\"xid\"", "\"bogus\"")).unwrap_err();
        assert!(err.contains("unknown reply field 'bogus'"), "{err}");
    }

    #[test]
    fn run_file_json_roundtrip() {
        let cond = Term::var("w.x", 8).eq(Term::bv_const(8, 7));
        let run = run_with(cond.clone(), true, vec![sample_event()]);
        let text = encode_run(&run);
        let back = decode_run(&text).unwrap();
        assert_eq!(encode_run(&back), text);
        assert_eq!(
            (back.agent.as_str(), back.test.as_str()),
            ("reference", "packet_out")
        );
        assert_eq!(back.wall, run.wall);
        assert_eq!((back.instruction_pct, back.branch_pct), (26.2, 19.3));
        assert!(!back.stats.truncated);
        assert_eq!(back.paths.len(), 1);
        assert_eq!(back.paths[0].condition, cond);
        assert_eq!(back.paths[0].constraint_size, run.paths[0].constraint_size);
        assert_eq!(back.paths[0].output, run.paths[0].output);
        // Members in another order, and unknown ones, read the same.
        let reordered = text.replacen(
            "{\"agent\":\"reference\",",
            "{\"extra\":[1,{\"x\":null}],\"agent\":\"reference\",",
            1,
        );
        assert_eq!(encode_run(&decode_run(&reordered).unwrap()), text);
    }

    #[test]
    fn corrupt_json_rejected() {
        assert!(decode_run("{").is_err());
        assert!(decode_run("{\"agent\": 3}").is_err());
        assert!(decode_run("[]").is_err());
        assert!(decode_run("").is_err());
    }
}
