//! Durability: write-ahead journaling, crash recovery, and atomic
//! artifact writes.
//!
//! EGT re-execution makes every explored path a perfect checkpoint: the
//! decision sequence alone reproduces the path concretely, with no forks
//! and no fresh solver queries. The journal exploits that — each record
//! persists one path's canonical decision prefix, normalized output,
//! coverage delta, and the sibling prefixes it scheduled. Recovery
//! replays the journaled prefixes and explores only the remaining
//! frontier `({root} ∪ all pendings) − all origins`, so a resumed run
//! produces byte-identical artifacts to an uninterrupted one at any
//! worker count.
//!
//! One journal format, [`SessionJournal`], serves `soft run` and the
//! phased commands alike; path, output, verdict, and corpus records are
//! each tagged with the exploration unit or test they belong to.
//!
//! On-disk format: a header record followed by data records, each framed
//! as `[u32 LE payload length][u32 LE CRC-32 of payload][JSON payload]`.
//! A torn or corrupted tail (the expected shape of a crash mid-append)
//! is detected by the checksum, reported, and truncated away; everything
//! before it is trusted. Artifacts themselves are published with
//! [`atomic_write`] (temp file in the same directory, fsync, rename), so
//! a reader never observes a half-written artifact.

use crate::input::TestCase;
use crate::json::Json;
use crate::runner::{agent_program, summarize, TestRun};
use soft_protocol::{normalize_trace, AgentRef, TraceEvent};
use soft_smt::{Assignment, SatResult, SolverBudget};
use soft_sym::{
    explore_seeded, ExplorerConfig, PathOutcome, PathResult, PathSink, ResumeSeed, SeedPending,
};
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard};

/// Recover the guarded data even if a sibling worker panicked while
/// holding the lock (same policy as the runner: slot-wise writes keep a
/// poisoned lock's state usable).
fn recover<T>(lock: &Mutex<T>) -> MutexGuard<'_, T> {
    lock.lock().unwrap_or_else(|e| e.into_inner())
}

// ---------------------------------------------------------------------------
// CRC-32 (IEEE), table-driven, computed at compile time.

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

const CRC32_TABLE: [u32; 256] = crc32_table();

/// CRC-32 (IEEE 802.3) of a byte string.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in data {
        c = CRC32_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

// ---------------------------------------------------------------------------
// Errors.

/// Everything that can go wrong while journaling or recovering.
#[derive(Debug)]
pub enum JournalError {
    /// Underlying filesystem failure.
    Io(io::Error),
    /// The journal body is damaged beyond the recoverable torn tail.
    Corrupt(String),
    /// The journal belongs to a different run configuration; resuming
    /// would silently produce wrong artifacts, so we refuse.
    Mismatch(String),
    /// A replayed path diverged from its journaled record — the agent,
    /// test, or engine changed since the journal was written.
    Replay(String),
    /// The run configuration cannot be journaled (e.g. wall-clock
    /// truncation, which replays non-deterministically).
    Unsupported(String),
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal I/O error: {e}"),
            JournalError::Corrupt(m) => write!(f, "journal corrupt: {m}"),
            JournalError::Mismatch(m) => write!(f, "journal mismatch: {m}"),
            JournalError::Replay(m) => write!(f, "journal replay divergence: {m}"),
            JournalError::Unsupported(m) => write!(f, "not journalable: {m}"),
        }
    }
}

impl std::error::Error for JournalError {}

impl From<io::Error> for JournalError {
    fn from(e: io::Error) -> Self {
        JournalError::Io(e)
    }
}

// ---------------------------------------------------------------------------
// Atomic artifact writes.

/// Write `data` to `path` atomically: temp file in the same directory,
/// flush (+ fsync unless disabled), rename over the target, then fsync
/// the directory so the rename itself is durable. A crash at any point
/// leaves either the old content or the new content, never a torn file.
///
/// A directory fsync that fails with a real I/O error propagates — the
/// publish is not durable and callers (a serve daemon acking a job, say)
/// must not pretend it is. Filesystems that cannot fsync directories at
/// all (ENOTSUP / EINVAL) are excused.
pub fn atomic_write(path: &Path, data: &[u8], fsync: bool) -> io::Result<()> {
    atomic_write_with(path, data, fsync, &sync_dir)
}

/// Per-process counter distinguishing temp files of concurrent writers
/// targeting the same path. The pid alone is not enough once several
/// daemon workers publish into one store directory.
static TMP_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// [`atomic_write`] with the directory-sync step injectable, so tests
/// can exercise the failure classification without a faulty filesystem.
fn atomic_write_with(
    path: &Path,
    data: &[u8],
    fsync: bool,
    sync_dir: &dyn Fn(&Path) -> io::Result<()>,
) -> io::Result<()> {
    let dir = match path.parent() {
        Some(d) if !d.as_os_str().is_empty() => d.to_path_buf(),
        _ => PathBuf::from("."),
    };
    let name = path
        .file_name()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "path has no file name"))?;
    let tmp = dir.join(format!(
        ".{}.tmp.{}.{}",
        name.to_string_lossy(),
        std::process::id(),
        TMP_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    ));
    let publish = (|| {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(data)?;
        if fsync {
            f.sync_all()?;
        }
        drop(f);
        fs::rename(&tmp, path)
    })();
    if publish.is_err() {
        let _ = fs::remove_file(&tmp);
        return publish;
    }
    if fsync {
        // The rename is only durable once the directory entry is synced.
        if let Err(e) = sync_dir(&dir) {
            if !dir_sync_refused(&e) {
                return Err(e);
            }
        }
    }
    Ok(())
}

/// Fsync a directory so a rename inside it becomes durable. On
/// platforms without directory fsync the step is a no-op.
fn sync_dir(dir: &Path) -> io::Result<()> {
    #[cfg(unix)]
    {
        fs::File::open(dir)?.sync_all()
    }
    #[cfg(not(unix))]
    {
        let _ = dir;
        Ok(())
    }
}

/// Is this a filesystem legitimately refusing directory fsync
/// (ENOTSUP / EINVAL), as opposed to a real I/O failure?
fn dir_sync_refused(err: &io::Error) -> bool {
    matches!(
        err.kind(),
        io::ErrorKind::Unsupported | io::ErrorKind::InvalidInput
    ) || matches!(err.raw_os_error(), Some(22) | Some(95))
}

// ---------------------------------------------------------------------------
// Record framing.

/// Append-only journal file handle.
pub struct JournalWriter {
    file: fs::File,
    fsync: bool,
    /// Pending frames not yet handed to the OS. With fsync on, every
    /// append flushes (durability per record); without it, frames batch
    /// up to [`FLUSH_THRESHOLD`] — a crash then loses at most the buffer,
    /// which resume simply re-explores.
    buf: Vec<u8>,
    /// Reused serialization buffer (records are built back to back).
    scratch: String,
}

/// No-fsync write batching bound.
const FLUSH_THRESHOLD: usize = 64 * 1024;

impl JournalWriter {
    fn new(file: fs::File, fsync: bool) -> Self {
        JournalWriter {
            file,
            fsync,
            buf: Vec::new(),
            scratch: String::new(),
        }
    }

    /// Append one record (length + checksum + payload) and make it
    /// durable if fsync is enabled.
    pub fn append(&mut self, record: &Json) -> io::Result<()> {
        self.append_with(|out| record.write_into(out))
    }

    /// Append one record whose JSON payload `write` lays out.
    fn append_with(&mut self, write: impl FnOnce(&mut String)) -> io::Result<()> {
        self.scratch.clear();
        write(&mut self.scratch);
        let payload = self.scratch.as_bytes();
        self.buf.reserve(payload.len() + 8);
        self.buf
            .extend_from_slice(&(payload.len() as u32).to_le_bytes());
        self.buf.extend_from_slice(&crc32(payload).to_le_bytes());
        self.buf.extend_from_slice(payload);
        if self.fsync {
            self.flush()?;
            self.file.sync_all()?;
        } else if self.buf.len() >= FLUSH_THRESHOLD {
            self.flush()?;
        }
        Ok(())
    }

    /// Hand any buffered frames to the OS (no fsync).
    pub fn flush(&mut self) -> io::Result<()> {
        if !self.buf.is_empty() {
            self.file.write_all(&self.buf)?;
            self.buf.clear();
        }
        Ok(())
    }
}

impl Drop for JournalWriter {
    fn drop(&mut self) {
        let _ = self.flush();
    }
}

/// What recovery found in a journal file.
struct RawRecovery {
    /// Parsed record payloads, in append order (header first).
    records: Vec<Json>,
    /// Byte length of the valid prefix.
    valid_len: u64,
    /// True if a torn or corrupted tail was dropped.
    dropped_tail: bool,
}

/// Scan the journal bytes, stopping at the first torn or corrupted
/// frame. Records are framed exactly like serve messages, so they are
/// read by the one frame reader, [`crate::proto::read_frame`]: a torn
/// header or payload, a checksum mismatch, non-UTF-8 text, unparseable
/// JSON and a length over the frame cap all end the scan. Everything
/// before the damage is returned; the damage itself is reported, not
/// fatal — a torn tail is the *expected* shape of a crash mid-append.
fn scan_records(bytes: &[u8]) -> RawRecovery {
    let mut records = Vec::new();
    let mut rest = bytes;
    loop {
        let valid_len = (bytes.len() - rest.len()) as u64;
        match crate::proto::read_frame(&mut rest) {
            Ok(Some(v)) => records.push(v),
            end => {
                return RawRecovery {
                    records,
                    valid_len,
                    dropped_tail: end.is_err(),
                }
            }
        }
    }
}

/// The one header kind this build writes and resumes. Journals with
/// another kind (the per-phase `phase1` and `check` journals of older
/// builds) are refused on resume, never parsed.
const JOURNAL_KIND: &str = "session";

/// Create a fresh journal at `path` whose header carries `fingerprint`.
fn fresh_journal(
    path: &Path,
    fingerprint: &str,
    fsync: bool,
) -> Result<JournalWriter, JournalError> {
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            fs::create_dir_all(dir)?;
        }
    }
    let file = fs::File::create(path)?;
    let mut w = JournalWriter::new(file, fsync);
    w.append(&Json::Object(vec![
        ("format".to_string(), Json::UInt(1)),
        ("kind".to_string(), Json::Str(JOURNAL_KIND.to_string())),
        (
            "fingerprint".to_string(),
            Json::Str(fingerprint.to_string()),
        ),
    ]))?;
    Ok(w)
}

/// Open an existing journal for resumption: scan it, verify the header
/// against [`JOURNAL_KIND`] and `fingerprint`, truncate any damaged
/// tail, and return the data records plus an append handle positioned
/// after the valid prefix. A missing or empty journal degrades to a
/// fresh start.
fn open_resume(
    path: &Path,
    fingerprint: &str,
    fsync: bool,
) -> Result<(Vec<Json>, JournalWriter), JournalError> {
    let bytes = match fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(e.into()),
    };
    let raw = scan_records(&bytes);
    if raw.records.is_empty() {
        // Nothing recoverable (missing, empty, or fully torn) — start over.
        return Ok((Vec::new(), fresh_journal(path, fingerprint, fsync)?));
    }
    let head = &raw.records[0];
    let format = head.get("format").and_then(|v| v.as_u64().ok());
    if format != Some(1) {
        return Err(JournalError::Corrupt(format!(
            "{}: unsupported journal format {format:?}",
            path.display()
        )));
    }
    let head_kind = head.get("kind").and_then(|v| v.as_str().ok()).unwrap_or("");
    if head_kind != JOURNAL_KIND {
        return Err(JournalError::Mismatch(format!(
            "{}: journal kind is '{head_kind}', this build resumes only \
             '{JOURNAL_KIND}' journals; delete the journal or drop --resume to start over",
            path.display()
        )));
    }
    let head_fp = head
        .get("fingerprint")
        .and_then(|v| v.as_str().ok())
        .unwrap_or("");
    if head_fp != fingerprint {
        return Err(JournalError::Mismatch(format!(
            "{}: journal fingerprint {head_fp} does not match this run's {fingerprint} \
             (different agent, test, seed, strategy, budget, or inputs); \
             delete the journal or drop --resume to start over",
            path.display()
        )));
    }
    // Trust the valid prefix; drop the damaged tail before appending.
    let file = fs::OpenOptions::new().write(true).open(path)?;
    file.set_len(raw.valid_len)?;
    let file = fs::OpenOptions::new().append(true).open(path)?;
    if raw.dropped_tail {
        file.sync_all()?;
    }
    let records = raw.records.into_iter().skip(1).collect();
    Ok((records, JournalWriter::new(file, fsync)))
}

// ---------------------------------------------------------------------------
// Record codecs.

/// Start a journal record: its kind plus the index it belongs to —
/// `"unit"` for exploration records, `"t"` (test) for verdict and corpus
/// records. Every journal record carries one.
fn record_head(kind: &str, tag: &str, index: usize) -> Vec<(String, Json)> {
    vec![
        ("rec".to_string(), Json::Str(kind.to_string())),
        (tag.to_string(), Json::UInt(index as u64)),
    ]
}

/// Decision sequence as a compact bitstring ("01…").
fn bits_out(bits: &[bool]) -> Json {
    Json::Str(bits.iter().map(|&b| if b { '1' } else { '0' }).collect())
}

fn bits_in(v: &Json) -> Result<Vec<bool>, String> {
    v.as_str()?
        .chars()
        .map(|c| match c {
            '0' => Ok(false),
            '1' => Ok(true),
            other => Err(format!("bad decision bit '{other}'")),
        })
        .collect()
}

/// FNV-1a 64-bit over a sequence of parts (with separators), rendered as
/// fixed-width hex. Deliberately avoids hashing any interner-dependent
/// representation: only stable identifiers and raw artifact text go in.
/// FNV-1a 64-bit hash over `parts` (unit-separated), hex-encoded.
/// Process-stable; the fingerprint primitive shared by journals and the
/// serve result store.
pub fn fnv64_hex(parts: &[&str]) -> String {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x1_0000_01b3);
        }
    };
    for p in parts {
        eat(p.as_bytes());
        eat(&[0x1f]); // unit separator: "ab"+"c" must differ from "a"+"bc"
    }
    format!("{h:016x}")
}

/// Wire form of a solver budget: `{"conflicts":N}`, or `{}` when
/// unlimited.
pub(crate) fn budget_out(b: &SolverBudget) -> Json {
    let mut o = Vec::new();
    if let Some(n) = b.max_conflicts {
        o.push(("conflicts".to_string(), Json::UInt(n)));
    }
    Json::Object(o)
}

/// Read a budget written by [`budget_out`]. Any other key is an error:
/// reading a record with a dimension this build does not know as
/// unlimited would let a journaled Unknown cover every budget and
/// suppress every re-solve.
pub(crate) fn budget_in(v: &Json) -> Result<SolverBudget, String> {
    let Json::Object(dims) = v else {
        return Err("budget is not an object".to_string());
    };
    let mut budget = SolverBudget::unlimited();
    for (key, n) in dims {
        match key.as_str() {
            "conflicts" => budget.max_conflicts = Some(n.as_u64()?),
            other => return Err(format!("unknown budget key '{other}'")),
        }
    }
    Ok(budget)
}

// ---------------------------------------------------------------------------
// Exploration records.

/// Identity of one phase-1 exploration, for refusing to resume a journal
/// written under a different configuration. Hashes only process-stable
/// inputs (ids, config scalars) — never `Term` debug output, whose
/// interner indices differ across processes. `workers` is deliberately
/// excluded: resuming with a different `--jobs` is supported and produces
/// identical artifacts.
pub fn phase1_fingerprint(
    agent: impl Into<AgentRef>,
    test: &TestCase,
    cfg: &ExplorerConfig,
) -> String {
    let agent = agent.into();
    fnv64_hex(&[
        "phase1",
        agent.id(),
        test.id,
        &test.inputs.len().to_string(),
        &cfg.seed.to_string(),
        &format!("{:?}", cfg.strategy),
        &cfg.max_depth.to_string(),
        &budget_out(&cfg.solver_budget).to_string(),
    ])
}

/// What one path record carries besides its decision sequence; used to
/// cross-check the replayed path against the journal on resume.
#[derive(Debug, Clone, PartialEq)]
struct RecordedPath {
    origin: Vec<bool>,
    outcome: &'static str,
    /// Normalized output, shared between all paths that referenced the
    /// same `output` record: its event array as the one event writer
    /// lays it out. It stays text because decoding it on open would
    /// intern the journaled terms before the replay builds them, and
    /// interning order picks the operand order of commutative terms
    /// (ROADMAP item 2): the resumed run would publish other bytes.
    events: Arc<str>,
    cov: String,
    pending: Vec<(Vec<bool>, String)>,
}

/// Order-independent digest of one path's coverage sets. The journal
/// stores this instead of the full block/branch lists: replay validation
/// only ever compares the sets whole, and serializing the lists would
/// dominate the journaling cost (they are the bulk of each record).
fn cov_digest(coverage: &soft_sym::PathCoverage) -> String {
    // XOR-folding per-element FNV hashes is order-independent, so the
    // digest needs no particular order (the lists come from sets and have
    // no duplicates, so XOR cancellation cannot occur).
    let elem = |bytes: &[u8], tag: u8| -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for &b in bytes.iter().chain(std::iter::once(&tag)) {
            h ^= b as u64;
            h = h.wrapping_mul(0x1_0000_01b3);
        }
        h
    };
    let mut acc_blocks = 0u64;
    for b in coverage.blocks.iter() {
        acc_blocks ^= elem(b.as_bytes(), 0);
    }
    let mut acc_branches = 0u64;
    for (site, dir) in coverage.branches.iter() {
        acc_branches ^= elem(site.as_bytes(), *dir as u8 + 1);
    }
    format!("{acc_blocks:016x}{acc_branches:016x}")
}

fn outcome_tag(outcome: &PathOutcome) -> &'static str {
    match outcome {
        PathOutcome::Completed => "completed",
        PathOutcome::Crashed(_) => "crashed",
        PathOutcome::Aborted(_) => "aborted",
    }
}

/// One distinct normalized output, stored once and referenced by id from
/// every path record that produced it. Most paths share few distinct
/// outputs (the grouping premise), so this keeps the journal — and the
/// per-path serialization cost — small.
fn write_output_record(out: &mut String, unit: usize, oid: u64, events: &[TraceEvent]) {
    // The record head `record_head("output", "unit", unit)` builds, with
    // the events streamed in the artifact's own event layout.
    let _ = write!(
        out,
        "{{\"rec\":\"output\",\"unit\":{unit},\"oid\":{oid},\"events\":"
    );
    crate::wire::write_events(events, out);
    out.push('}');
}

fn parse_output_record(v: &Json) -> Result<(u64, Arc<str>), String> {
    let oid = v.field("oid")?.as_u64()?;
    let events = v.field("events")?;
    events.as_array()?;
    Ok((oid, events.to_string().into()))
}

/// Serialize one freshly explored path for the journal. `oid` points at
/// the path's `output` record; aborted paths carry no observable output
/// (summarize drops them) and journal no reference.
fn path_record(
    unit: usize,
    origin: &[bool],
    result: &PathResult<soft_protocol::TraceEvent>,
    pending: &[(Vec<bool>, &str)],
    oid: Option<u64>,
) -> Json {
    let mut fields = record_head("path", "unit", unit);
    fields.extend([
        ("origin".to_string(), bits_out(origin)),
        ("decisions".to_string(), bits_out(&result.decisions)),
        (
            "outcome".to_string(),
            Json::Str(outcome_tag(&result.outcome).to_string()),
        ),
    ]);
    if let Some(oid) = oid {
        fields.push(("oid".to_string(), Json::UInt(oid)));
    }
    fields.push((
        "pending".to_string(),
        Json::Array(
            pending
                .iter()
                .map(|(p, s)| Json::Array(vec![bits_out(p), Json::Str(s.to_string())]))
                .collect(),
        ),
    ));
    fields.push(("cov".to_string(), Json::Str(cov_digest(&result.coverage))));
    Json::Object(fields)
}

fn parse_path_record(
    v: &Json,
    outputs: &BTreeMap<u64, Arc<str>>,
) -> Result<(Vec<bool>, RecordedPath), String> {
    let decisions = bits_in(v.field("decisions")?)?;
    let origin = bits_in(v.field("origin")?)?;
    let outcome = match v.field("outcome")?.as_str()? {
        "completed" => "completed",
        "crashed" => "crashed",
        "aborted" => "aborted",
        other => return Err(format!("unknown outcome '{other}'")),
    };
    // Output records are appended before any path record referencing
    // them, so a valid journal prefix always resolves.
    let events = match v.get("oid") {
        Some(oid) => {
            let oid = oid.as_u64()?;
            outputs
                .get(&oid)
                .cloned()
                .ok_or_else(|| format!("path references unknown output {oid}"))?
        }
        None => Arc::from("[]"),
    };
    let pending = v
        .field("pending")?
        .as_array()?
        .iter()
        .map(|p| {
            let pair = p.as_array()?;
            if pair.len() != 2 {
                return Err("pending entry is not a [bits, site] pair".to_string());
            }
            Ok((bits_in(&pair[0])?, pair[1].as_str()?.to_string()))
        })
        .collect::<Result<Vec<_>, String>>()?;
    let cov = v.field("cov")?.as_str()?.to_string();
    Ok((
        decisions,
        RecordedPath {
            origin,
            outcome,
            events,
            cov,
            pending,
        },
    ))
}

/// Rebuild the resume state from recovered path records: replay every
/// journaled decision sequence, and re-schedule the remaining frontier
/// `({root} ∪ all scheduled pendings) − all consumed origins`. Origins
/// (not decision prefixes) are subtracted because an aborted path's
/// decisions can differ from the frontier entry it consumed.
fn build_seed(recorded: &BTreeMap<Vec<bool>, RecordedPath>) -> ResumeSeed {
    let mut candidates: BTreeMap<Vec<bool>, String> = BTreeMap::new();
    candidates.insert(Vec::new(), "<root>".to_string());
    for r in recorded.values() {
        for (p, s) in &r.pending {
            candidates.insert(p.clone(), s.clone());
        }
    }
    for r in recorded.values() {
        candidates.remove(&r.origin);
    }
    ResumeSeed {
        replay: recorded.keys().cloned().collect(),
        frontier: candidates
            .into_iter()
            .map(|(prefix, site)| SeedPending { prefix, site })
            .collect(),
    }
}

/// Compare every journaled record against the path the resumed
/// exploration actually produced for the same decision sequence. Any
/// divergence means the agent, test, or engine changed under the journal
/// — resuming would fabricate artifacts, so it is a hard error.
fn validate_replay(
    recorded: &BTreeMap<Vec<bool>, RecordedPath>,
    paths: &[PathResult<soft_protocol::TraceEvent>],
) -> Result<(), JournalError> {
    if recorded.is_empty() {
        return Ok(());
    }
    let by_decisions: BTreeMap<&[bool], &PathResult<soft_protocol::TraceEvent>> =
        paths.iter().map(|p| (p.decisions.as_slice(), p)).collect();
    let mut replayed = String::new();
    for (decisions, rec) in recorded {
        let bits: String = decisions
            .iter()
            .map(|&b| if b { '1' } else { '0' })
            .collect();
        let p = by_decisions.get(decisions.as_slice()).ok_or_else(|| {
            JournalError::Replay(format!("journaled path [{bits}] was not reproduced"))
        })?;
        if outcome_tag(&p.outcome) != rec.outcome {
            return Err(JournalError::Replay(format!(
                "path [{bits}]: journaled outcome '{}' replayed as '{}'",
                rec.outcome,
                outcome_tag(&p.outcome)
            )));
        }
        if !matches!(p.outcome, PathOutcome::Aborted(_)) {
            replayed.clear();
            crate::wire::write_events(&normalize_trace(&p.trace), &mut replayed);
            if replayed != *rec.events {
                return Err(JournalError::Replay(format!(
                    "path [{bits}]: journaled output differs from replayed output"
                )));
            }
        }
        if cov_digest(&p.coverage) != rec.cov {
            return Err(JournalError::Replay(format!(
                "path [{bits}]: journaled coverage differs from replayed coverage"
            )));
        }
    }
    Ok(())
}

/// Configurations whose explorations cannot be replayed deterministically
/// are refused by every journaled entry point.
fn check_resumable(cfg: &ExplorerConfig) -> Result<(), JournalError> {
    if cfg.time_limit.is_some() {
        return Err(JournalError::Unsupported(
            "time-limited explorations replay non-deterministically; \
             run without --time-limit or without a journal"
                .to_string(),
        ));
    }
    if cfg.max_paths.is_some() {
        return Err(JournalError::Unsupported(
            "max-paths-truncated explorations are not resumable; \
             run without the path cap or without a journal"
                .to_string(),
        ));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Verdict records.

/// Identity of one crosscheck run: both artifact texts plus the solver
/// settings string (budget and retry ladder). Artifacts are hashed as
/// raw text — any re-exploration that changes them invalidates the
/// verdict journal.
pub fn check_fingerprint(a_text: &str, b_text: &str, settings: &str) -> String {
    fnv64_hex(&["check", a_text, b_text, settings])
}

/// One journaled crosscheck verdict, recovered on resume.
#[derive(Debug, Clone)]
pub struct VerdictRec {
    /// Path index in artifact A.
    pub i: usize,
    /// Path index in artifact B.
    pub j: usize,
    /// The solver's verdict (Sat carries the reconstructed witness).
    pub verdict: SatResult,
    /// The budget the verdict was decided under; Unknown verdicts are
    /// only reusable for budgets they cover.
    pub budget: SolverBudget,
}

/// A verdict as a JSON object: an element of a store entry's verdict
/// list. The journal's `verdict` record carries the same fields plus its
/// test tag.
pub(crate) fn verdict_record(
    i: usize,
    j: usize,
    verdict: &SatResult,
    budget: &SolverBudget,
) -> Json {
    let mut fields = vec![("rec".to_string(), Json::Str("verdict".to_string()))];
    fields.extend(verdict_fields(i, j, verdict, budget));
    Json::Object(fields)
}

fn verdict_fields(
    i: usize,
    j: usize,
    verdict: &SatResult,
    budget: &SolverBudget,
) -> Vec<(String, Json)> {
    let mut fields = vec![
        ("i".to_string(), Json::UInt(i as u64)),
        ("j".to_string(), Json::UInt(j as u64)),
    ];
    match verdict {
        SatResult::Sat(model) => {
            let mut pairs: Vec<(&str, u64)> = model.iter().collect();
            pairs.sort_unstable();
            fields.push(("verdict".to_string(), Json::Str("sat".to_string())));
            fields.push((
                "model".to_string(),
                Json::Array(
                    pairs
                        .iter()
                        .map(|(n, v)| Json::Array(vec![Json::Str(n.to_string()), Json::UInt(*v)]))
                        .collect(),
                ),
            ));
        }
        SatResult::Unsat => fields.push(("verdict".to_string(), Json::Str("unsat".to_string()))),
        SatResult::Unknown => {
            fields.push(("verdict".to_string(), Json::Str("unknown".to_string())))
        }
    }
    fields.push(("budget".to_string(), budget_out(budget)));
    fields
}

pub(crate) fn parse_verdict_record(v: &Json) -> Result<VerdictRec, String> {
    let rec = v.field("rec")?.as_str()?;
    if rec != "verdict" {
        return Err(format!("unexpected record type '{rec}'"));
    }
    let i = v.field("i")?.as_u64()? as usize;
    let j = v.field("j")?.as_u64()? as usize;
    let verdict = match v.field("verdict")?.as_str()? {
        "sat" => {
            let mut model = Assignment::new();
            for pair in v.field("model")?.as_array()? {
                let pair = pair.as_array()?;
                if pair.len() != 2 {
                    return Err("model entry is not a [name, value] pair".to_string());
                }
                model.set(pair[0].as_str()?, pair[1].as_u64()?);
            }
            SatResult::Sat(Arc::new(model))
        }
        "unsat" => SatResult::Unsat,
        "unknown" => SatResult::Unknown,
        other => return Err(format!("unknown verdict '{other}'")),
    };
    let budget = budget_in(v.field("budget")?)?;
    Ok(VerdictRec {
        i,
        j,
        verdict,
        budget,
    })
}

// ---------------------------------------------------------------------------
// The session journal: the one WAL format, for `soft run` and the phased
// commands alike.

/// Identity of one streaming session: the agent pair, the test list, the
/// exploration config, and the (opaque) crosscheck and distillation
/// settings strings. Like [`phase1_fingerprint`], only process-stable
/// scalars are hashed and worker counts are excluded — resuming at a
/// different `--jobs` is supported. Artifact text is *not* part of the
/// identity (the session produces the artifacts); replay validation
/// guards against the agents or tests changing under the journal.
pub fn session_fingerprint(
    agent_a: impl Into<AgentRef>,
    agent_b: impl Into<AgentRef>,
    tests: &[TestCase],
    cfg: &ExplorerConfig,
    check_settings: &str,
    distill_settings: &str,
) -> String {
    let (agent_a, agent_b) = (agent_a.into(), agent_b.into());
    let mut parts: Vec<String> = vec![
        "session".to_string(),
        agent_a.id().to_string(),
        agent_b.id().to_string(),
        cfg.seed.to_string(),
        format!("{:?}", cfg.strategy),
        cfg.max_depth.to_string(),
        budget_out(&cfg.solver_budget).to_string(),
        check_settings.to_string(),
        distill_settings.to_string(),
    ];
    for t in tests {
        parts.push(t.id.to_string());
        parts.push(t.inputs.len().to_string());
    }
    let refs: Vec<&str> = parts.iter().map(String::as_str).collect();
    fnv64_hex(&refs)
}

/// Everything the journal recovered about one (agent, test) exploration
/// unit of a session.
#[derive(Default)]
pub struct UnitRecovery {
    recorded: BTreeMap<Vec<bool>, RecordedPath>,
}

impl UnitRecovery {
    /// No paths were journaled for this unit (explore it from scratch).
    pub fn is_empty(&self) -> bool {
        self.recorded.is_empty()
    }

    /// Number of journaled paths.
    pub fn path_count(&self) -> usize {
        self.recorded.len()
    }

    /// Resume seed replaying the journaled paths and re-scheduling the
    /// remaining frontier (see [`build_seed`]).
    pub fn seed(&self) -> ResumeSeed {
        build_seed(&self.recorded)
    }

    /// Cross-check the resumed exploration against the journal; any
    /// divergence means the agent, test, or engine changed and resuming
    /// would fabricate artifacts.
    pub fn validate(
        &self,
        paths: &[PathResult<soft_protocol::TraceEvent>],
    ) -> Result<(), JournalError> {
        validate_replay(&self.recorded, paths)
    }
}

/// A journaled distillation result for one test: the published corpus
/// bytes plus the summary the CLI reported. On resume the corpus is
/// republished verbatim instead of re-running crosscheck + distillation.
#[derive(Debug, Clone)]
pub struct CorpusRec {
    /// The summary object journaled next to the corpus (counts, exit
    /// severity — whatever the session chose to stash).
    pub summary: Json,
    /// The exact corpus artifact text.
    pub data: String,
}

/// Everything a session journal recovered from its valid prefix: per-unit
/// path records, per-test crosscheck verdicts (superseding rules are the
/// caller's concern, see `soft_core::CheckSeeds`), and per-test finished
/// corpora.
pub struct SessionRecovery {
    /// One entry per exploration unit, in the caller's unit order.
    pub units: Vec<UnitRecovery>,
    /// Journaled verdicts per test, in journal order.
    pub verdicts: Vec<Vec<VerdictRec>>,
    /// Finished distillations per test (last record wins).
    pub corpora: Vec<Option<CorpusRec>>,
}

/// Write-ahead journal covering a whole streaming session: path, output,
/// verdict, and corpus records interleaved in one file. The phased
/// commands open the same journal with one unit (`phase1`) or one test
/// (`check`, `distill`). Thread-safe; I/O errors are stashed (the sink
/// traits are infallible) and surfaced via [`SessionJournal::take_error`].
pub struct SessionJournal {
    state: Mutex<SinkState>,
    failed: Mutex<Option<io::Error>>,
}

/// Journal state shared by the workers: the writer plus the dedup table
/// mapping each distinct normalized output (keyed by interned-term
/// identity, so hashing is cheap and process-local) to its output id.
/// The table and oid counter are shared by all units: units of one
/// session often produce identical normalized outputs.
struct SinkState {
    writer: JournalWriter,
    outputs: HashMap<Vec<soft_protocol::TraceEvent>, u64>,
    next_oid: u64,
}

impl SessionJournal {
    /// Open (or resume) a session journal for `n_units` exploration units
    /// and `n_tests` tests. Returns the journal handle plus everything
    /// recovered from an existing valid prefix (all-empty in fresh mode
    /// or when the file is missing/empty). The unit and test counts are
    /// fixed here so corrupt records cannot allocate unbounded recovery
    /// state.
    pub fn open(
        path: &Path,
        resume: bool,
        fsync: bool,
        fingerprint: &str,
        n_units: usize,
        n_tests: usize,
    ) -> Result<(SessionJournal, SessionRecovery), JournalError> {
        let (records, writer) = if resume {
            open_resume(path, fingerprint, fsync)?
        } else {
            (Vec::new(), fresh_journal(path, fingerprint, fsync)?)
        };
        let mut outputs: BTreeMap<u64, Arc<str>> = BTreeMap::new();
        let mut recovery = SessionRecovery {
            units: (0..n_units).map(|_| UnitRecovery::default()).collect(),
            verdicts: vec![Vec::new(); n_tests],
            corpora: vec![None; n_tests],
        };
        let unit_of = |r: &Json, bound: usize| -> Result<usize, JournalError> {
            let u = r
                .field("unit")
                .and_then(Json::as_u64)
                .map_err(JournalError::Corrupt)? as usize;
            if u >= bound {
                return Err(JournalError::Corrupt(format!(
                    "record for unit {u} out of range (session has {bound})"
                )));
            }
            Ok(u)
        };
        let test_of = |r: &Json, bound: usize| -> Result<usize, JournalError> {
            let t = r
                .field("t")
                .and_then(Json::as_u64)
                .map_err(JournalError::Corrupt)? as usize;
            if t >= bound {
                return Err(JournalError::Corrupt(format!(
                    "record for test {t} out of range (session has {bound})"
                )));
            }
            Ok(t)
        };
        for r in &records {
            match r.field("rec").and_then(Json::as_str) {
                Ok("output") => {
                    let (oid, events) = parse_output_record(r).map_err(JournalError::Corrupt)?;
                    outputs.insert(oid, events);
                }
                Ok("path") => {
                    let unit = unit_of(r, n_units)?;
                    let (decisions, rec) =
                        parse_path_record(r, &outputs).map_err(JournalError::Corrupt)?;
                    let recorded = &mut recovery.units[unit].recorded;
                    if let Some(prev) = recorded.get(&decisions) {
                        if *prev != rec {
                            return Err(JournalError::Corrupt(format!(
                                "unit {unit}: conflicting duplicate records for one \
                                 decision sequence"
                            )));
                        }
                        continue;
                    }
                    recorded.insert(decisions, rec);
                }
                Ok("verdict") => {
                    let t = test_of(r, n_tests)?;
                    let v = parse_verdict_record(r).map_err(JournalError::Corrupt)?;
                    recovery.verdicts[t].push(v);
                }
                Ok("corpus") => {
                    let t = test_of(r, n_tests)?;
                    let summary = r.field("summary").map_err(JournalError::Corrupt)?.clone();
                    let data = r
                        .field("data")
                        .and_then(Json::as_str)
                        .map_err(JournalError::Corrupt)?
                        .to_string();
                    recovery.corpora[t] = Some(CorpusRec { summary, data });
                }
                Ok(other) => {
                    return Err(JournalError::Corrupt(format!(
                        "unknown record kind '{other}'"
                    )));
                }
                Err(e) => return Err(JournalError::Corrupt(e)),
            }
        }
        // Resumed outputs are not rehydrated into the dedup table (journal
        // ids are not interned-term identities), so a resumed run may
        // re-journal a previously seen output under a fresh oid; that is
        // redundant but harmless, as long as fresh oids never collide with
        // recovered ones.
        let next_oid = outputs.keys().next_back().map_or(0, |m| m + 1);
        Ok((
            SessionJournal {
                state: Mutex::new(SinkState {
                    writer,
                    outputs: HashMap::new(),
                    next_oid,
                }),
                failed: Mutex::new(None),
            },
            recovery,
        ))
    }

    /// The path sink for one exploration unit; hand it to the explorer
    /// (possibly teed with a streaming sink). Replayed paths are ignored
    /// — they are already on record.
    pub fn unit_sink(&self, unit: usize) -> SessionUnitSink<'_> {
        SessionUnitSink {
            journal: self,
            unit,
        }
    }

    /// Append one decided (or exhausted) crosscheck verdict for `test`.
    pub fn record_verdict(
        &self,
        test: usize,
        i: usize,
        j: usize,
        verdict: &SatResult,
        budget: &SolverBudget,
    ) {
        let mut fields = record_head("verdict", "t", test);
        fields.extend(verdict_fields(i, j, verdict, budget));
        self.append(&Json::Object(fields));
    }

    /// Journal the finished distillation for `test`: the exact corpus
    /// artifact text plus a summary object of the caller's choosing.
    /// Written *after* the corpus artifact is published, so a journaled
    /// corpus implies the test is fully done.
    pub fn record_corpus(&self, test: usize, summary: &Json, data: &str) {
        let mut fields = record_head("corpus", "t", test);
        fields.push(("summary".to_string(), summary.clone()));
        fields.push(("data".to_string(), Json::Str(data.to_string())));
        self.append(&Json::Object(fields));
    }

    /// The first journaling I/O failure, if any occurred. Flushes any
    /// buffered frames first; call at unit/test boundaries and once at
    /// session end.
    pub fn take_error(&self) -> Option<io::Error> {
        if let Some(e) = recover(&self.failed).take() {
            return Some(e);
        }
        recover(&self.state).writer.flush().err()
    }

    fn stash(&self, e: io::Error) {
        let mut slot = recover(&self.failed);
        if slot.is_none() {
            *slot = Some(e);
        }
    }

    fn append(&self, rec: &Json) {
        let res = recover(&self.state).writer.append(rec);
        if let Err(e) = res {
            self.stash(e);
        }
    }

    /// The write-ahead hook: journal one freshly explored path before its
    /// siblings become claimable. The path's `output` record (if its
    /// output is new) is appended immediately before the path record
    /// under one lock hold, so any surviving journal prefix resolves every
    /// reference.
    fn append_path(
        &self,
        unit: usize,
        origin: &[bool],
        result: &PathResult<soft_protocol::TraceEvent>,
        pending: &[(Vec<bool>, &str)],
    ) {
        let events = match result.outcome {
            PathOutcome::Aborted(_) => None,
            _ => Some(normalize_trace(&result.trace)),
        };
        let mut st = recover(&self.state);
        let oid = events.map(|ev| match st.outputs.get(&ev) {
            Some(&oid) => oid,
            None => {
                let oid = st.next_oid;
                st.next_oid += 1;
                let res = st
                    .writer
                    .append_with(|out| write_output_record(out, unit, oid, &ev));
                if let Err(e) = res {
                    self.stash(e);
                }
                st.outputs.insert(ev, oid);
                oid
            }
        });
        let rec = path_record(unit, origin, result, pending, oid);
        if let Err(e) = st.writer.append(&rec) {
            self.stash(e);
        }
    }
}

/// One unit's [`PathSink`] view of a [`SessionJournal`]: tags every
/// record with the unit index.
pub struct SessionUnitSink<'a> {
    journal: &'a SessionJournal,
    unit: usize,
}

impl PathSink<soft_protocol::TraceEvent> for SessionUnitSink<'_> {
    fn on_path(
        &self,
        origin: &[bool],
        result: &PathResult<soft_protocol::TraceEvent>,
        pending: &[(Vec<bool>, &str)],
    ) {
        self.journal.append_path(self.unit, origin, result, pending);
    }
}

/// Explore one (agent, test) unit with write-ahead journaling and
/// resume: seed from the recovered unit state (an empty recovery
/// explores from scratch), emit every freshly explored path through
/// `sink` (a [`SessionJournal::unit_sink`]; replays are already on
/// record), validate the replay against the journal, and summarize. Replayed paths re-execute concretely — zero forks, zero
/// fresh-branch solver queries. The resulting [`TestRun`] is
/// byte-identical (modulo wall time) to [`crate::run_test`] for the same
/// unit at any worker count, interrupted or not.
pub fn run_unit_durable(
    agent: impl Into<AgentRef>,
    test: &TestCase,
    cfg: &ExplorerConfig,
    recovery: &UnitRecovery,
    sink: &dyn PathSink<soft_protocol::TraceEvent>,
) -> Result<TestRun, JournalError> {
    let agent = agent.into();
    check_resumable(cfg)?;
    let seed = recovery.seed();
    let ex = explore_seeded(cfg, agent_program(agent, test), Some(&seed), Some(sink));
    recovery.validate(&ex.paths)?;
    Ok(summarize(agent, test, ex))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use crate::suite;
    use soft_agents::AgentKind;
    use std::time::Duration;

    fn temp_path(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("soft_journal_{}_{}", std::process::id(), name))
    }

    fn write_records(path: &Path, payloads: &[&str]) {
        let file = fs::File::create(path).unwrap();
        let mut w = JournalWriter::new(file, false);
        for p in payloads {
            w.append(&json::parse(p).unwrap()).unwrap();
        }
    }

    #[test]
    fn crc32_known_vector() {
        // The classic check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn records_roundtrip() {
        let path = temp_path("roundtrip");
        write_records(&path, &[r#"{"a":1}"#, r#"{"b":[true,"x"]}"#]);
        let raw = scan_records(&fs::read(&path).unwrap());
        assert_eq!(raw.records.len(), 2);
        assert!(!raw.dropped_tail);
        assert_eq!(
            raw.records[1].get("b").unwrap().as_array().unwrap().len(),
            2
        );
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_tail_is_dropped_not_fatal() {
        let path = temp_path("torn");
        write_records(&path, &[r#"{"a":1}"#, r#"{"b":2}"#]);
        let full = fs::read(&path).unwrap();
        // Simulate a crash mid-append: a frame header promising more
        // bytes than the file holds.
        let mut torn = full.clone();
        torn.extend_from_slice(&100u32.to_le_bytes());
        torn.extend_from_slice(&0u32.to_le_bytes());
        torn.extend_from_slice(b"half");
        let raw = scan_records(&torn);
        assert_eq!(raw.records.len(), 2);
        assert!(raw.dropped_tail);
        assert_eq!(raw.valid_len as usize, full.len());
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupt_record_truncates_from_damage_onward() {
        let path = temp_path("corrupt");
        write_records(&path, &[r#"{"a":1}"#, r#"{"b":2}"#, r#"{"c":3}"#]);
        let mut bytes = fs::read(&path).unwrap();
        // Flip a payload byte inside the second record.
        let first_frame = 8 + r#"{"a":1}"#.len();
        bytes[first_frame + 8 + 2] ^= 0xFF;
        let raw = scan_records(&bytes);
        assert_eq!(raw.records.len(), 1, "records after the damage are dropped");
        assert!(raw.dropped_tail);
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn every_damaged_tail_truncates_at_the_last_good_record() {
        let path = temp_path("damaged_tails");
        write_records(&path, &[r#"{"a":1}"#, r#"{"b":2}"#]);
        let good = fs::read(&path).unwrap();
        fs::remove_file(&path).unwrap();
        let frame = |len: u32, payload: &[u8]| {
            let mut f = len.to_le_bytes().to_vec();
            f.extend_from_slice(&crc32(payload).to_le_bytes());
            f.extend_from_slice(payload);
            f
        };
        let tails: [(&str, Vec<u8>); 4] = [
            ("torn header", vec![7, 0, 0]),
            ("non-UTF-8 payload", frame(2, &[0xff, 0xfe])),
            ("unparseable JSON", frame(4, b"{\"a\"")),
            (
                "length over the frame cap",
                frame(crate::proto::MAX_FRAME_LEN + 1, b"{}"),
            ),
        ];
        for (what, tail) in tails {
            let mut bytes = good.clone();
            bytes.extend_from_slice(&tail);
            let raw = scan_records(&bytes);
            assert_eq!(raw.records.len(), 2, "{what}");
            assert!(raw.dropped_tail, "{what}");
            assert_eq!(raw.valid_len as usize, good.len(), "{what}");
        }
    }

    #[test]
    fn empty_and_missing_files_scan_clean() {
        let raw = scan_records(&[]);
        assert!(raw.records.is_empty());
        assert!(!raw.dropped_tail);
        assert_eq!(raw.valid_len, 0);
    }

    #[test]
    fn atomic_write_replaces_whole_file() {
        let path = temp_path("atomic_replace");
        atomic_write(&path, b"first version", true).unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"first version");
        atomic_write(&path, b"second", false).unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"second");
        // No temp droppings left behind.
        let dir = path.parent().unwrap();
        let name = path.file_name().unwrap().to_string_lossy().to_string();
        let leftovers: Vec<_> = fs::read_dir(dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(&name) && e.path() != path)
            .collect();
        assert!(leftovers.is_empty(), "temp files leaked: {leftovers:?}");
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn dir_sync_real_errors_propagate() {
        let path = temp_path("dirsync_err");
        let fail = |_: &Path| -> io::Result<()> { Err(io::Error::other("disk on fire")) };
        let err = atomic_write_with(&path, b"x", true, &fail).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::Other);
        // The rename happened before the failed sync, so the bytes are
        // on disk — the error reports the durability gap, not data loss.
        assert_eq!(fs::read(&path).unwrap(), b"x");
        // Without fsync the directory-sync step never runs at all.
        atomic_write_with(&path, b"y", false, &fail).unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"y");
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn dir_sync_refusals_are_excused() {
        let path = temp_path("dirsync_refused");
        let enotsup =
            |_: &Path| -> io::Result<()> { Err(io::Error::from(io::ErrorKind::Unsupported)) };
        atomic_write_with(&path, b"x", true, &enotsup).unwrap();
        let einval = |_: &Path| -> io::Result<()> { Err(io::Error::from_raw_os_error(22)) };
        atomic_write_with(&path, b"y", true, &einval).unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"y");
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn concurrent_writers_to_one_target_never_collide() {
        let path = temp_path("atomic_race");
        std::thread::scope(|s| {
            for t in 0..4u8 {
                let path = path.clone();
                s.spawn(move || {
                    let data = vec![b'a' + t; 64];
                    for _ in 0..50 {
                        atomic_write(&path, &data, false).unwrap();
                    }
                });
            }
        });
        // The survivor is one writer's payload in full, never a mix.
        let bytes = fs::read(&path).unwrap();
        assert_eq!(bytes.len(), 64);
        assert!(bytes.windows(2).all(|w| w[0] == w[1]));
        let dir = path.parent().unwrap();
        let name = path.file_name().unwrap().to_string_lossy().to_string();
        let leftovers: Vec<_> = fs::read_dir(dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(&name) && e.path() != path)
            .collect();
        assert!(leftovers.is_empty(), "temp files leaked: {leftovers:?}");
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn budget_roundtrips_through_wire_form() {
        for b in [SolverBudget::unlimited(), SolverBudget::conflicts(123)] {
            assert_eq!(budget_in(&budget_out(&b)).unwrap(), b);
        }
        assert_eq!(
            budget_out(&SolverBudget::conflicts(5)).to_string(),
            r#"{"conflicts":5}"#
        );
        assert_eq!(budget_out(&SolverBudget::unlimited()).to_string(), "{}");
    }

    #[test]
    fn budget_in_rejects_foreign_keys() {
        // A dimension read as "unlimited" would let a journaled Unknown
        // cover every budget, so anything but `conflicts` is refused.
        for text in [
            r#"{"propagations":99}"#,
            r#"{"conflicts":5,"time_us":1500}"#,
            r#"{"conflicts":"5"}"#,
            "null",
            "[]",
        ] {
            assert!(budget_in(&json::parse(text).unwrap()).is_err(), "{text}");
        }
    }

    #[test]
    fn verdict_records_roundtrip() {
        let mut model = Assignment::new();
        model.set("m0.x", 7);
        model.set("m0.y", 0xfffd);
        let cases = [
            (
                SatResult::Sat(Arc::new(model.clone())),
                SolverBudget::conflicts(10),
            ),
            (SatResult::Unsat, SolverBudget::unlimited()),
            (SatResult::Unknown, SolverBudget::conflicts(1)),
        ];
        for (k, (verdict, budget)) in cases.iter().enumerate() {
            let rec = parse_verdict_record(&verdict_record(k, k + 1, verdict, budget)).unwrap();
            assert_eq!(rec.i, k);
            assert_eq!(rec.j, k + 1);
            assert_eq!(rec.budget, *budget);
            match (&rec.verdict, verdict) {
                (SatResult::Sat(a), SatResult::Sat(b)) => assert_eq!(**a, **b),
                (SatResult::Unsat, SatResult::Unsat) => {}
                (SatResult::Unknown, SatResult::Unknown) => {}
                other => panic!("verdict did not roundtrip: {other:?}"),
            }
        }
    }

    /// One phase-1 exploration through the session journal, the way
    /// `soft phase1` runs it: one unit, no tests, keyed by the phase-1
    /// fingerprint.
    fn phase1_journaled(
        agent: AgentKind,
        test: &TestCase,
        cfg: &ExplorerConfig,
        path: &Path,
        resume: bool,
    ) -> Result<TestRun, JournalError> {
        let fp = phase1_fingerprint(agent, test, cfg);
        let (journal, recovery) = SessionJournal::open(path, resume, false, &fp, 1, 0)?;
        let run = run_unit_durable(agent, test, cfg, &recovery.units[0], &journal.unit_sink(0))?;
        match journal.take_error() {
            Some(e) => Err(JournalError::Io(e)),
            None => Ok(run),
        }
    }

    /// Each explored path's condition and observed output.
    fn paths(run: &TestRun) -> Vec<(&soft_smt::Term, &crate::ObservedOutput)> {
        run.paths
            .iter()
            .map(|p| (&p.condition, &p.output))
            .collect()
    }

    #[test]
    fn durable_run_matches_plain_run() {
        let tests = suite::table1_suite();
        let agent = AgentKind::Reference;
        let test = &tests[0];
        let cfg = ExplorerConfig::default();
        let plain = crate::run_test(agent, test, &cfg);
        let path = temp_path("fresh_run");
        let run = phase1_journaled(agent, test, &cfg, &path, false).unwrap();
        assert_eq!(paths(&run), paths(&plain));
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn resume_from_complete_journal_is_identical_and_appends_nothing() {
        let tests = suite::table1_suite();
        let agent = AgentKind::Reference;
        let test = &tests[0];
        let cfg = ExplorerConfig::default();
        let path = temp_path("resume_full");
        let first = phase1_journaled(agent, test, &cfg, &path, false).unwrap();
        let journal_after_first = fs::read(&path).unwrap();
        // Resume with a different worker count: replay everything, fork
        // nothing, append nothing.
        let cfg4 = ExplorerConfig {
            workers: 4,
            ..ExplorerConfig::default()
        };
        let resumed = phase1_journaled(agent, test, &cfg4, &path, true).unwrap();
        assert_eq!(paths(&first), paths(&resumed));
        assert_eq!(resumed.stats.fresh_branches, 0, "full replay must not fork");
        assert_eq!(fs::read(&path).unwrap(), journal_after_first);
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn resume_from_truncated_journal_completes_the_run() {
        let tests = suite::table1_suite();
        let agent = AgentKind::Reference;
        let test = &tests[0];
        let cfg = ExplorerConfig::default();
        let path = temp_path("resume_cut");
        let reference = phase1_journaled(agent, test, &cfg, &path, false).unwrap();
        // Keep the header plus the first two records; drop the rest plus
        // simulate a torn final append.
        let bytes = fs::read(&path).unwrap();
        let raw = scan_records(&bytes);
        assert!(raw.records.len() > 3, "need a few records to cut");
        let mut keep = 0usize;
        for _ in 0..3 {
            let len = u32::from_le_bytes(bytes[keep..keep + 4].try_into().unwrap()) as usize;
            keep += 8 + len;
        }
        let mut cut = bytes[..keep].to_vec();
        cut.extend_from_slice(&77u32.to_le_bytes()); // torn tail
        fs::write(&path, &cut).unwrap();
        let resumed = phase1_journaled(agent, test, &cfg, &path, true).unwrap();
        assert_eq!(paths(&reference), paths(&resumed));
        // The journal is complete again: a further resume owes nothing.
        let raw = scan_records(&fs::read(&path).unwrap());
        assert!(!raw.dropped_tail);
        let path_records = raw
            .records
            .iter()
            .filter(|r| matches!(r.get("rec").and_then(|t| t.as_str().ok()), Some("path")))
            .count();
        assert_eq!(
            path_records,
            reference.paths.len() + reference.stats.aborted
        );
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn resume_refuses_an_altered_output_record() {
        let tests = suite::table1_suite();
        let cfg = ExplorerConfig::default();
        let path = temp_path("altered_output");
        phase1_journaled(AgentKind::Reference, &tests[0], &cfg, &path, false).unwrap();
        // Rewrite the journal well-framed, with the first output record's
        // events replaced by an output no path produced.
        let mut records = scan_records(&fs::read(&path).unwrap()).records;
        let output = records
            .iter_mut()
            .find(|r| matches!(r.get("rec").and_then(|t| t.as_str().ok()), Some("output")))
            .expect("an output record");
        let Json::Object(fields) = output else {
            panic!("record is an object")
        };
        let events = fields.iter_mut().find(|(k, _)| k == "events").unwrap();
        events.1 = json::parse(
            r#"[{"kind":"error","xid":"(c 32 12345)","etype":"(c 16 9)","code":"(c 16 9)"}]"#,
        )
        .unwrap();
        let mut w = JournalWriter::new(fs::File::create(&path).unwrap(), false);
        for r in &records {
            w.append(r).unwrap();
        }
        match phase1_journaled(AgentKind::Reference, &tests[0], &cfg, &path, true) {
            Err(JournalError::Replay(m)) => assert!(
                m.contains("journaled output differs from replayed output"),
                "{m}"
            ),
            other => panic!("expected a replay divergence, got {:?}", other.map(|_| ())),
        }
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn resume_refuses_foreign_fingerprint() {
        let tests = suite::table1_suite();
        let cfg = ExplorerConfig::default();
        let path = temp_path("foreign");
        phase1_journaled(AgentKind::Reference, &tests[0], &cfg, &path, false).unwrap();
        // Same journal, different agent: must refuse, not fabricate.
        let err =
            phase1_journaled(AgentKind::OpenVSwitch, &tests[0], &cfg, &path, true).unwrap_err();
        assert!(matches!(err, JournalError::Mismatch(_)), "got {err}");
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn durable_refuses_unsupported_limits() {
        let tests = suite::table1_suite();
        let path = temp_path("limits");
        for cfg in [
            ExplorerConfig {
                time_limit: Some(Duration::from_secs(1)),
                ..ExplorerConfig::default()
            },
            ExplorerConfig {
                max_paths: Some(3),
                ..ExplorerConfig::default()
            },
        ] {
            let err =
                phase1_journaled(AgentKind::Reference, &tests[0], &cfg, &path, false).unwrap_err();
            assert!(matches!(err, JournalError::Unsupported(_)), "got {err}");
        }
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn check_journal_roundtrips_and_resumes() {
        // `soft check` opens the session journal with no units and one
        // test, keyed by the check fingerprint.
        let path = temp_path("checkj");
        let fp = check_fingerprint("artifact-a", "artifact-b", "budget=10");
        let (j, rec) = SessionJournal::open(&path, false, false, &fp, 0, 1).unwrap();
        assert!(rec.verdicts[0].is_empty());
        j.record_verdict(0, 0, 1, &SatResult::Unsat, &SolverBudget::conflicts(10));
        let mut model = Assignment::new();
        model.set("w.x", 3);
        j.record_verdict(
            0,
            2,
            0,
            &SatResult::Sat(Arc::new(model)),
            &SolverBudget::conflicts(10),
        );
        assert!(j.take_error().is_none());
        drop(j);
        let (_j2, rec) = SessionJournal::open(&path, true, false, &fp, 0, 1).unwrap();
        let seeds = &rec.verdicts[0];
        assert_eq!(seeds.len(), 2);
        assert!(seeds[0].verdict.is_unsat());
        assert_eq!(seeds[1].i, 2);
        assert_eq!(seeds[1].verdict.model().unwrap().get("w.x"), Some(3));
        // Wrong fingerprint refuses.
        let err = match SessionJournal::open(&path, true, false, "0000000000000000", 0, 1) {
            Ok(_) => panic!("foreign fingerprint accepted"),
            Err(e) => e,
        };
        assert!(matches!(err, JournalError::Mismatch(_)));
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn resume_refuses_retired_journal_kinds() {
        // Older builds wrote per-phase `phase1` and `check` journals in
        // the same container. Their records are untagged, so resuming one
        // must refuse up front instead of parsing it.
        let path = temp_path("retired");
        let fp = "00000000000000cd";
        for kind in ["phase1", "check"] {
            let head = format!(r#"{{"format":1,"kind":"{kind}","fingerprint":"{fp}"}}"#);
            write_records(
                &path,
                &[
                    &head,
                    r#"{"rec":"verdict","i":0,"j":0,"verdict":"unsat","budget":{}}"#,
                ],
            );
            let err = match SessionJournal::open(&path, true, false, fp, 1, 1) {
                Ok(_) => panic!("'{kind}' journal accepted"),
                Err(e) => e,
            };
            assert!(
                matches!(err, JournalError::Mismatch(_)),
                "{kind}: got {err}"
            );
        }
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn session_journal_roundtrips_all_record_kinds() {
        let tests = suite::table1_suite();
        let test = &tests[0];
        let cfg = ExplorerConfig::default();
        let path = temp_path("session");
        let fp = session_fingerprint(
            AgentKind::Reference,
            AgentKind::OpenVSwitch,
            std::slice::from_ref(test),
            &cfg,
            "budget=unlimited",
            "seed=0;fuzz=0",
        );
        let (j, rec) = SessionJournal::open(&path, false, false, &fp, 2, 1).unwrap();
        assert!(rec.units.iter().all(UnitRecovery::is_empty));
        assert!(rec.verdicts[0].is_empty() && rec.corpora[0].is_none());
        // Unit 0 explores through the journal; unit 1 stays untouched.
        let sink = j.unit_sink(0);
        let ex = explore_seeded(
            &cfg,
            agent_program(AgentKind::Reference.into(), test),
            None,
            Some(&sink),
        );
        j.record_verdict(0, 1, 2, &SatResult::Unsat, &SolverBudget::conflicts(10));
        let summary = Json::Object(vec![("inconsistencies".to_string(), Json::UInt(3))]);
        j.record_corpus(0, &summary, "{\"corpus\":true}");
        assert!(j.take_error().is_none());
        drop(j);
        let (_j2, rec) = SessionJournal::open(&path, true, false, &fp, 2, 1).unwrap();
        assert_eq!(rec.units[0].path_count(), ex.paths.len());
        rec.units[0].validate(&ex.paths).unwrap();
        assert!(rec.units[1].is_empty());
        // A full unit's seed replays everything and leaves no frontier.
        let seed = rec.units[0].seed();
        assert_eq!(seed.replay.len(), ex.paths.len());
        assert!(seed.frontier.is_empty());
        assert_eq!(rec.verdicts[0].len(), 1);
        assert!(rec.verdicts[0][0].verdict.is_unsat());
        let corpus = rec.corpora[0].as_ref().expect("corpus recovered");
        assert_eq!(corpus.data, "{\"corpus\":true}");
        assert_eq!(
            corpus.summary.field("inconsistencies").unwrap().as_u64(),
            Ok(3)
        );
        // Wrong fingerprint refuses.
        let err = match SessionJournal::open(&path, true, false, "0000000000000000", 2, 1) {
            Ok(_) => panic!("foreign fingerprint accepted"),
            Err(e) => e,
        };
        assert!(matches!(err, JournalError::Mismatch(_)));
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn session_journal_rejects_out_of_range_units_and_tests() {
        let path = temp_path("session_range");
        let fp = "00000000000000ab";
        let (j, _) = SessionJournal::open(&path, false, false, fp, 1, 1).unwrap();
        j.record_verdict(5, 0, 0, &SatResult::Unknown, &SolverBudget::conflicts(1));
        assert!(j.take_error().is_none());
        drop(j);
        let err = match SessionJournal::open(&path, true, false, fp, 1, 1) {
            Ok(_) => panic!("out-of-range test index accepted"),
            Err(e) => e,
        };
        assert!(matches!(err, JournalError::Corrupt(_)), "got {err}");
        fs::remove_file(&path).unwrap();
    }
}
