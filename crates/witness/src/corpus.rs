//! The on-disk witness corpus.
//!
//! A corpus is the end product of distillation: a self-contained,
//! deterministic JSON file of concrete reproduction inputs that `soft
//! repro` can replay against the two agents without the original phase-1
//! artifacts. Like the write-ahead journals, the file is published with an
//! atomic temp+rename write and guarded by a fingerprint over its exact
//! payload: a hand-edited or torn corpus is refused on import instead of
//! silently replaying wrong bytes.
//!
//! Unconfirmable witnesses are *kept* in the corpus with their reason
//! (`status: "unconfirmed"`), never dropped — the same never-lie
//! discipline as `Unknown` solver verdicts.

use soft_dataplane::Packet;
use soft_harness::json::{self, Json};
use soft_harness::{atomic_write, Input};
use soft_sym::SymBuf;
use std::path::Path;

/// Corpus file format version.
pub const CORPUS_FORMAT: u64 = 1;

/// The protocol id corpora carried before they recorded one. Files for
/// this protocol omit the `protocol` field entirely so their bytes (and
/// hence their fingerprints) are unchanged from earlier formats.
pub const DEFAULT_PROTOCOL: &str = "of10";

/// One fully concrete test input.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ConcreteInput {
    /// An OpenFlow control message, as raw wire bytes.
    Message(Vec<u8>),
    /// A data-plane probe packet.
    Probe {
        /// Ingress port the probe arrives on.
        in_port: u16,
        /// Raw packet bytes.
        packet: Vec<u8>,
    },
    /// Advance the agent's virtual clock.
    AdvanceTime {
        /// New time, seconds since connection setup.
        now: u16,
    },
}

impl ConcreteInput {
    /// Convert back into a harness [`Input`] for concrete replay.
    pub fn to_input(&self) -> Input {
        match self {
            ConcreteInput::Message(bytes) => Input::Message(SymBuf::concrete(bytes)),
            ConcreteInput::Probe { in_port, packet } => Input::Probe {
                in_port: *in_port,
                packet: Packet::parse(&SymBuf::concrete(packet))
                    .expect("a fully concrete buffer always has parseable framing"),
            },
            ConcreteInput::AdvanceTime { now } => Input::AdvanceTime { now: *now },
        }
    }

    fn to_json(&self) -> Json {
        match self {
            ConcreteInput::Message(bytes) => Json::Object(vec![
                ("t".into(), Json::Str("msg".into())),
                ("hex".into(), Json::Str(hex(bytes))),
            ]),
            ConcreteInput::Probe { in_port, packet } => Json::Object(vec![
                ("t".into(), Json::Str("probe".into())),
                ("in_port".into(), Json::UInt(*in_port as u64)),
                ("hex".into(), Json::Str(hex(packet))),
            ]),
            ConcreteInput::AdvanceTime { now } => Json::Object(vec![
                ("t".into(), Json::Str("time".into())),
                ("now".into(), Json::UInt(*now as u64)),
            ]),
        }
    }

    fn from_json(j: &Json) -> Result<ConcreteInput, String> {
        match j.field("t")?.as_str()? {
            "msg" => Ok(ConcreteInput::Message(unhex(j.field("hex")?.as_str()?)?)),
            "probe" => Ok(ConcreteInput::Probe {
                in_port: as_u16(j.field("in_port")?)?,
                packet: unhex(j.field("hex")?.as_str()?)?,
            }),
            "time" => Ok(ConcreteInput::AdvanceTime {
                now: as_u16(j.field("now")?)?,
            }),
            other => Err(format!("unknown input kind '{other}'")),
        }
    }
}

/// Where a corpus entry came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Origin {
    /// Distilled from a crosscheck inconsistency (by index in the
    /// crosscheck result's inconsistency list).
    Distilled {
        /// Index of the source inconsistency.
        inconsistency: usize,
    },
    /// Produced by the neighborhood fuzzer mutating a confirmed witness.
    Fuzzed {
        /// Inconsistency index of the parent distilled witness.
        parent: usize,
        /// Mutation step within the parent's fuzz stream.
        step: usize,
    },
}

/// Distillation verdict for one entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Status {
    /// The witness is wire-valid, concretely diverging, and 1-minimal.
    Confirmed {
        /// Root-cause cluster id within this corpus.
        cluster: usize,
    },
    /// The model could not be confirmed as a reproduction; the reason is
    /// reported verbatim, and the (unminimized) inputs are retained.
    Unconfirmed {
        /// Why confirmation failed.
        reason: String,
    },
}

/// One distilled witness.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorpusEntry {
    /// Provenance of this entry.
    pub origin: Origin,
    /// Confirmation status (never silently dropped).
    pub status: Status,
    /// The concrete input sequence.
    pub inputs: Vec<ConcreteInput>,
    /// Divergence-kind label of the replayed outputs (empty if
    /// unconfirmed).
    pub kind: String,
    /// Normalized divergence signature `sig(A) / sig(B)` of the replayed
    /// outputs (empty if unconfirmed).
    pub signature: String,
    /// Message type byte of each OpenFlow message input.
    pub msg_types: Vec<u8>,
    /// Number of free (originally symbolic) input bytes.
    pub free_bytes: usize,
    /// Free bytes still at non-canonical (nonzero) values after
    /// minimization: the irreducible core of the reproduction.
    pub residual_bytes: usize,
}

impl CorpusEntry {
    /// The wire bytes of each OpenFlow message input.
    pub fn messages(&self) -> Vec<&[u8]> {
        self.inputs
            .iter()
            .filter_map(|i| match i {
                ConcreteInput::Message(b) => Some(b.as_slice()),
                _ => None,
            })
            .collect()
    }

    /// True if this entry is a confirmed reproduction.
    pub fn is_confirmed(&self) -> bool {
        matches!(self.status, Status::Confirmed { .. })
    }

    fn to_json(&self) -> Json {
        let mut fields: Vec<(String, Json)> = Vec::new();
        match self.origin {
            Origin::Distilled { inconsistency } => {
                fields.push(("origin".into(), Json::Str("distilled".into())));
                fields.push(("inconsistency".into(), Json::UInt(inconsistency as u64)));
            }
            Origin::Fuzzed { parent, step } => {
                fields.push(("origin".into(), Json::Str("fuzzed".into())));
                fields.push(("parent".into(), Json::UInt(parent as u64)));
                fields.push(("step".into(), Json::UInt(step as u64)));
            }
        }
        match &self.status {
            Status::Confirmed { cluster } => {
                fields.push(("status".into(), Json::Str("confirmed".into())));
                fields.push(("cluster".into(), Json::UInt(*cluster as u64)));
            }
            Status::Unconfirmed { reason } => {
                fields.push(("status".into(), Json::Str("unconfirmed".into())));
                fields.push(("reason".into(), Json::Str(reason.clone())));
            }
        }
        fields.push(("kind".into(), Json::Str(self.kind.clone())));
        fields.push(("signature".into(), Json::Str(self.signature.clone())));
        fields.push((
            "msg_types".into(),
            Json::Array(
                self.msg_types
                    .iter()
                    .map(|&t| Json::UInt(t as u64))
                    .collect(),
            ),
        ));
        fields.push(("free_bytes".into(), Json::UInt(self.free_bytes as u64)));
        fields.push((
            "residual_bytes".into(),
            Json::UInt(self.residual_bytes as u64),
        ));
        fields.push((
            "inputs".into(),
            Json::Array(self.inputs.iter().map(|i| i.to_json()).collect()),
        ));
        Json::Object(fields)
    }

    fn from_json(j: &Json) -> Result<CorpusEntry, String> {
        let origin = match j.field("origin")?.as_str()? {
            "distilled" => Origin::Distilled {
                inconsistency: j.field("inconsistency")?.as_u64()? as usize,
            },
            "fuzzed" => Origin::Fuzzed {
                parent: j.field("parent")?.as_u64()? as usize,
                step: j.field("step")?.as_u64()? as usize,
            },
            other => return Err(format!("unknown origin '{other}'")),
        };
        let status = match j.field("status")?.as_str()? {
            "confirmed" => Status::Confirmed {
                cluster: j.field("cluster")?.as_u64()? as usize,
            },
            "unconfirmed" => Status::Unconfirmed {
                reason: j.field("reason")?.as_str()?.to_string(),
            },
            other => return Err(format!("unknown status '{other}'")),
        };
        let msg_types = j
            .field("msg_types")?
            .as_array()?
            .iter()
            .map(|t| {
                let v = t.as_u64()?;
                u8::try_from(v).map_err(|_| format!("message type {v} exceeds u8"))
            })
            .collect::<Result<Vec<u8>, String>>()?;
        let inputs = j
            .field("inputs")?
            .as_array()?
            .iter()
            .map(ConcreteInput::from_json)
            .collect::<Result<Vec<ConcreteInput>, String>>()?;
        Ok(CorpusEntry {
            origin,
            status,
            inputs,
            kind: j.field("kind")?.as_str()?.to_string(),
            signature: j.field("signature")?.as_str()?.to_string(),
            msg_types,
            free_bytes: j.field("free_bytes")?.as_u64()? as usize,
            residual_bytes: j.field("residual_bytes")?.as_u64()? as usize,
        })
    }
}

/// One corpus entry prepared for over-the-wire replay (see
/// [`Corpus::replay_items`]).
#[derive(Debug, Clone)]
pub struct ReplayItem<'a> {
    /// Index of the entry within the corpus.
    pub index: usize,
    /// Root-cause cluster id, for confirmed entries.
    pub cluster: Option<usize>,
    /// The OpenFlow wire messages of the entry, in input order.
    pub wire_msgs: Vec<&'a [u8]>,
    /// True if the entry also had non-message inputs (probes, time
    /// steps) that cannot be sent over a control channel.
    pub projected: bool,
    /// The full entry, for status/kind/signature reporting.
    pub entry: &'a CorpusEntry,
}

/// Summary of one root-cause cluster.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterSummary {
    /// Cluster id (first-seen order over the corpus entries).
    pub id: usize,
    /// Divergence-kind label.
    pub kind: String,
    /// Normalized divergence signature.
    pub signature: String,
    /// Number of confirmed witnesses in the cluster.
    pub members: usize,
}

/// A distilled witness corpus for one (test, agent pair).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Corpus {
    /// Protocol id the witnesses speak (see
    /// [`soft_protocol::Protocol::id`]). Serialized only when it differs
    /// from [`DEFAULT_PROTOCOL`], so pre-existing OpenFlow corpora keep
    /// their exact bytes and fingerprints.
    pub protocol: String,
    /// Test identifier the witnesses belong to.
    pub test: String,
    /// First agent id.
    pub agent_a: String,
    /// Second agent id.
    pub agent_b: String,
    /// Base fuzzer seed the corpus was distilled with.
    pub seed: u64,
    /// The witnesses, in deterministic distillation order.
    pub entries: Vec<CorpusEntry>,
}

impl Corpus {
    /// Root-cause cluster summaries, in cluster-id order.
    pub fn clusters(&self) -> Vec<ClusterSummary> {
        let mut out: Vec<ClusterSummary> = Vec::new();
        for e in &self.entries {
            if let Status::Confirmed { cluster } = e.status {
                if cluster >= out.len() {
                    out.resize_with(cluster + 1, || ClusterSummary {
                        id: 0,
                        kind: String::new(),
                        signature: String::new(),
                        members: 0,
                    });
                }
                let c = &mut out[cluster];
                c.id = cluster;
                c.members += 1;
                if c.kind.is_empty() {
                    c.kind = e.kind.clone();
                    c.signature = e.signature.clone();
                }
            }
        }
        out
    }

    /// Indices of confirmed entries.
    pub fn confirmed(&self) -> Vec<usize> {
        (0..self.entries.len())
            .filter(|&i| self.entries[i].is_confirmed())
            .collect()
    }

    /// The corpus projected for over-the-wire replay: every entry —
    /// distilled witnesses and their fuzz neighborhood alike, confirmed
    /// or not — in corpus order, with the control-channel view of its
    /// inputs. Data-plane probes and virtual-time steps cannot cross a
    /// real OpenFlow control connection, so an item carries only the
    /// `Message` inputs and flags itself `projected` when anything was
    /// left behind; a wire harness must report (never hide) that its
    /// observation covers the projected sequence.
    pub fn replay_items(&self) -> Vec<ReplayItem<'_>> {
        self.entries
            .iter()
            .enumerate()
            .map(|(index, entry)| {
                let wire_msgs = entry.messages();
                ReplayItem {
                    index,
                    cluster: match entry.status {
                        Status::Confirmed { cluster } => Some(cluster),
                        Status::Unconfirmed { .. } => None,
                    },
                    projected: wire_msgs.len() != entry.inputs.len(),
                    wire_msgs,
                    entry,
                }
            })
            .collect()
    }

    fn body_json(&self) -> Json {
        let mut fields = vec![("format".into(), Json::UInt(CORPUS_FORMAT))];
        if self.protocol != DEFAULT_PROTOCOL {
            fields.push(("protocol".into(), Json::Str(self.protocol.clone())));
        }
        fields.extend([
            ("test".into(), Json::Str(self.test.clone())),
            ("agent_a".into(), Json::Str(self.agent_a.clone())),
            ("agent_b".into(), Json::Str(self.agent_b.clone())),
            ("seed".into(), Json::UInt(self.seed)),
            (
                "entries".into(),
                Json::Array(self.entries.iter().map(|e| e.to_json()).collect()),
            ),
        ]);
        Json::Object(fields)
    }

    /// Serialize, wrapping the payload with a fingerprint over its exact
    /// bytes (the WAL trick: imports refuse payloads that do not hash to
    /// their recorded fingerprint).
    pub fn to_json_string(&self) -> String {
        let mut body = String::new();
        self.body_json().write_into(&mut body);
        let mut out = String::with_capacity(body.len() + 64);
        Json::Object(vec![
            ("fingerprint".into(), Json::Str(fnv64_hex(&body))),
            ("corpus".into(), Json::Null), // placeholder, spliced below
        ])
        .write_into(&mut out);
        // Splice the body verbatim so the fingerprint covers the exact
        // serialized form (re-serialization is canonical, but splicing
        // makes the guarantee independent of that).
        out.truncate(out.len() - "null}".len());
        out.push_str(&body);
        out.push('}');
        out
    }

    /// Parse and fingerprint-check a corpus file's contents.
    pub fn from_json_str(text: &str) -> Result<Corpus, String> {
        let root = json::parse(text)?;
        let expect = root.field("fingerprint")?.as_str()?.to_string();
        let body = root.field("corpus")?;
        let mut canonical = String::new();
        body.write_into(&mut canonical);
        let got = fnv64_hex(&canonical);
        if got != expect {
            return Err(format!(
                "corpus fingerprint mismatch: recorded {expect}, payload hashes to {got} \
                 (corrupt or hand-edited file)"
            ));
        }
        let format = body.field("format")?.as_u64()?;
        if format != CORPUS_FORMAT {
            return Err(format!(
                "unsupported corpus format {format} (this build reads {CORPUS_FORMAT})"
            ));
        }
        let entries = body
            .field("entries")?
            .as_array()?
            .iter()
            .map(CorpusEntry::from_json)
            .collect::<Result<Vec<CorpusEntry>, String>>()?;
        // Cluster ids are assigned in first-seen order over the entries,
        // so each is below the entry count; `clusters()` sizes by them.
        for e in &entries {
            if let Status::Confirmed { cluster } = e.status {
                if cluster >= entries.len() {
                    return Err(format!(
                        "cluster id {cluster} out of range for {} entries",
                        entries.len()
                    ));
                }
            }
        }
        let protocol = match body.field("protocol") {
            Ok(p) => p.as_str()?.to_string(),
            Err(_) => DEFAULT_PROTOCOL.to_string(),
        };
        Ok(Corpus {
            protocol,
            test: body.field("test")?.as_str()?.to_string(),
            agent_a: body.field("agent_a")?.as_str()?.to_string(),
            agent_b: body.field("agent_b")?.as_str()?.to_string(),
            seed: body.field("seed")?.as_u64()?,
            entries,
        })
    }

    /// Atomically publish the corpus to `path` (temp + rename, like every
    /// other artifact).
    pub fn save(&self, path: &Path, fsync: bool) -> std::io::Result<()> {
        atomic_write(path, self.to_json_string().as_bytes(), fsync)
    }

    /// Load and fingerprint-check a corpus from `path`.
    pub fn load(path: &Path) -> Result<Corpus, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        Corpus::from_json_str(&text)
    }
}

/// Lowercase hex encoding.
pub fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(s: &str) -> Result<Vec<u8>, String> {
    if !s.len().is_multiple_of(2) {
        return Err(format!("odd-length hex string '{s}'"));
    }
    // By bytes: a non-ASCII character must be refused, not split.
    let digit = |c: u8| (c as char).to_digit(16);
    s.as_bytes()
        .chunks(2)
        .map(|pair| match (digit(pair[0]), digit(pair[1])) {
            (Some(hi), Some(lo)) => Ok((hi << 4 | lo) as u8),
            _ => Err(format!("invalid hex byte in '{s}'")),
        })
        .collect()
}

fn as_u16(j: &Json) -> Result<u16, String> {
    let v = j.as_u64()?;
    u16::try_from(v).map_err(|_| format!("value {v} exceeds u16"))
}

/// FNV-1a over the payload text, matching the journal fingerprint shape.
fn fnv64_hex(text: &str) -> String {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in text.as_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x1_0000_01b3);
    }
    format!("{h:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Corpus {
        Corpus {
            protocol: DEFAULT_PROTOCOL.into(),
            test: "queue_config".into(),
            agent_a: "reference".into(),
            agent_b: "ovs".into(),
            seed: 0x50F7,
            entries: vec![
                CorpusEntry {
                    origin: Origin::Distilled { inconsistency: 0 },
                    status: Status::Confirmed { cluster: 0 },
                    inputs: vec![
                        ConcreteInput::Message(vec![1, 20, 0, 12, 0, 0, 0, 0, 0, 0, 0, 0]),
                        ConcreteInput::Probe {
                            in_port: 1,
                            packet: vec![0; 14],
                        },
                        ConcreteInput::AdvanceTime { now: 5 },
                    ],
                    kind: "agent terminates with an error".into(),
                    signature: "crash: / error(2,0)+".into(),
                    msg_types: vec![20],
                    free_bytes: 4,
                    residual_bytes: 0,
                },
                CorpusEntry {
                    origin: Origin::Fuzzed { parent: 0, step: 3 },
                    status: Status::Unconfirmed {
                        reason: "replayed traces do not diverge".into(),
                    },
                    inputs: vec![ConcreteInput::Message(vec![
                        1, 20, 0, 12, 0, 0, 0, 0, 0, 1, 0, 0,
                    ])],
                    kind: String::new(),
                    signature: String::new(),
                    msg_types: vec![20],
                    free_bytes: 4,
                    residual_bytes: 1,
                },
            ],
        }
    }

    #[test]
    fn round_trips_byte_identically() {
        let c = sample();
        let text = c.to_json_string();
        let back = Corpus::from_json_str(&text).expect("parse");
        assert_eq!(back, c);
        assert_eq!(back.to_json_string(), text, "re-export must be identical");
    }

    #[test]
    fn protocol_field_defaults_and_round_trips() {
        // The default protocol is never serialized: the bytes (and so the
        // fingerprint) of pre-protocol corpora are preserved exactly.
        let of = sample();
        assert!(!of.to_json_string().contains("protocol"));
        // A non-default protocol is serialized and round-trips.
        let mut tlv = sample();
        tlv.protocol = "tlv".into();
        let text = tlv.to_json_string();
        assert!(text.contains("\"protocol\":\"tlv\""));
        let back = Corpus::from_json_str(&text).expect("parse");
        assert_eq!(back.protocol, "tlv");
        assert_eq!(back.to_json_string(), text);
    }

    #[test]
    fn fingerprint_guards_the_payload() {
        let text = sample().to_json_string();
        // Flip one payload character (a hex digit inside an entry).
        let pos = text.find("0114000c").expect("hex payload") + 2;
        let mut corrupt = text.clone();
        corrupt.replace_range(pos..pos + 1, "2");
        let err = Corpus::from_json_str(&corrupt).expect_err("must refuse");
        assert!(err.contains("fingerprint"), "{err}");
    }

    #[test]
    fn concrete_inputs_convert_back() {
        for i in &sample().entries[0].inputs {
            let _ = i.to_input(); // must not panic
        }
        assert_eq!(sample().entries[0].messages().len(), 1);
    }

    #[test]
    fn clusters_summarize_confirmed_entries() {
        let c = sample();
        let cl = c.clusters();
        assert_eq!(cl.len(), 1);
        assert_eq!(cl[0].members, 1);
        assert_eq!(cl[0].kind, "agent terminates with an error");
        assert_eq!(c.confirmed(), vec![0]);
    }

    #[test]
    fn replay_items_project_control_channel_inputs() {
        let c = sample();
        let items = c.replay_items();
        assert_eq!(items.len(), c.entries.len(), "no entry may be dropped");
        // Entry 0 mixes a message with a probe and a time step: the wire
        // view keeps only the message and flags the projection.
        assert_eq!(items[0].index, 0);
        assert_eq!(items[0].cluster, Some(0));
        assert_eq!(items[0].wire_msgs.len(), 1);
        assert!(items[0].projected);
        // Entry 1 is message-only and unconfirmed.
        assert_eq!(items[1].cluster, None);
        assert_eq!(items[1].wire_msgs.len(), 1);
        assert!(!items[1].projected);
    }

    #[test]
    fn hex_round_trip() {
        assert_eq!(
            unhex(&hex(&[0xde, 0xad, 0x00])).unwrap(),
            vec![0xde, 0xad, 0x00]
        );
        assert!(unhex("abc").is_err());
        assert!(unhex("zz").is_err());
        assert!(unhex("+a").is_err());
        assert!(unhex("\u{20ac}0").is_err());
    }
}
