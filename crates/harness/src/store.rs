//! Persistent cross-run result store for `soft serve`.
//!
//! One entry per *content key* — [`job_key`] hashes the two agent
//! fingerprints plus every job parameter that affects the published
//! bytes (test, budget, seed, fuzz tries, retry rungs) — holding the
//! complete published output of one audit job: both phase-1 artifacts,
//! the witness corpus, the summary, and the full verdict matrix. A
//! re-submitted job whose key is present is answered from the store
//! without touching a solver.
//!
//! A second, fingerprint-free *logical key* ([`logical_key`]) indexes
//! the latest entry per (agent pair, test, budget, seed, fuzz, rungs).
//! When a job's content key misses but its logical key hits, the agent
//! changed: the stored entry becomes the baseline for the diff-based
//! partial re-solve (see `DESIGN.md` § Serve architecture).
//!
//! Layout under the store root (all files published via
//! [`crate::atomic_write`]):
//!
//! ```text
//! jobs/<key>.json      one store entry per content key
//! index.json           logical key -> latest content key
//! index.json.corrupt-* quarantined corrupt index snapshots (forensics)
//! inflight/<key>.json  jobs accepted but not yet published (recovery)
//! wal/<key>.wal        per-job session journal
//! out/<key>_*          per-job artifact staging area
//! serve_stats.json     store-wide counters, persisted on drain
//! addr                 the daemon's bound address, for clients
//! ```

use crate::journal::{atomic_write, fnv64_hex, parse_verdict_record, verdict_record, VerdictRec};
use crate::json::{self, Json};
use crate::proto::JobSpec;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Content key of one job: agent fingerprints + every byte-affecting
/// job parameter.
pub fn job_key(fp_a: &str, fp_b: &str, spec: &JobSpec) -> String {
    fnv64_hex(&[
        "job",
        &spec.protocol,
        fp_a,
        fp_b,
        &spec.test,
        &spec.budget_str(),
        &spec.seed.to_string(),
        &spec.fuzz.to_string(),
        &spec.retry_rungs.to_string(),
    ])
}

/// Fingerprint-free job identity: which audit this is, independent of
/// the agents' current code. Maps to the latest content key in the
/// index, which is what makes an older entry discoverable as a diff
/// baseline after an agent changes.
pub fn logical_key(spec: &JobSpec) -> String {
    fnv64_hex(&[
        "logical",
        &spec.protocol,
        &spec.agent_a,
        &spec.agent_b,
        &spec.test,
        &spec.budget_str(),
        &spec.seed.to_string(),
        &spec.fuzz.to_string(),
        &spec.retry_rungs.to_string(),
    ])
}

/// The complete published output of one audit job.
#[derive(Debug, Clone)]
pub struct StoreEntry {
    /// Fingerprint of agent A at publish time.
    pub fp_a: String,
    /// Fingerprint of agent B at publish time.
    pub fp_b: String,
    /// Phase-1 artifact text for agent A (exact published bytes).
    pub artifact_a: String,
    /// Phase-1 artifact text for agent B.
    pub artifact_b: String,
    /// Witness corpus text.
    pub corpus: String,
    /// The per-test summary object (verdict counts, solver stats).
    pub summary: Json,
    /// Full verdict matrix of the canonical crosscheck — the seed set
    /// for diff-based partial re-solves.
    pub verdicts: Vec<VerdictRec>,
    /// The job spec this entry was published for. Embedding the spec
    /// makes every entry self-describing: a lost or corrupt `index.json`
    /// can be rebuilt from the `jobs/` directory alone (see
    /// [`ResultStore::read_index`]). `None` for entries written before
    /// the spec was embedded — those stay addressable by content key but
    /// cannot be re-indexed.
    pub spec: Option<JobSpec>,
}

impl StoreEntry {
    /// Wire/disk form of the entry. Public because replication ships
    /// entries between back-ends inside `replicate` frames — the pushed
    /// bytes are exactly the published bytes.
    pub fn to_json(&self) -> Json {
        let mut fields: Vec<(String, Json)> = self
            .texts()
            .into_iter()
            .map(|(k, v)| (k.to_string(), Json::Str(v.clone())))
            .collect();
        fields.extend(self.rest().into_iter().map(|(k, v)| (k.to_string(), v)));
        Json::Object(fields)
    }

    /// Append the bytes `to_json().write_into` would, without first
    /// copying the artifacts and corpus into a JSON tree.
    pub fn write_into(&self, out: &mut String) {
        out.push('{');
        for (i, (k, v)) in self.texts().into_iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::write_string(k, out);
            out.push(':');
            json::write_string(v, out);
        }
        for (k, v) in self.rest() {
            out.push(',');
            json::write_string(k, out);
            out.push(':');
            v.write_into(out);
        }
        out.push('}');
    }

    /// The leading text fields, in wire order.
    fn texts(&self) -> [(&'static str, &String); 5] {
        [
            ("fp_a", &self.fp_a),
            ("fp_b", &self.fp_b),
            ("artifact_a", &self.artifact_a),
            ("artifact_b", &self.artifact_b),
            ("corpus", &self.corpus),
        ]
    }

    /// The fields after [`Self::texts`], in wire order.
    fn rest(&self) -> Vec<(&'static str, Json)> {
        let mut fields = vec![
            ("summary", self.summary.clone()),
            (
                "verdicts",
                Json::Array(
                    self.verdicts
                        .iter()
                        .map(|r| verdict_record(r.i, r.j, &r.verdict, &r.budget))
                        .collect(),
                ),
            ),
        ];
        if let Some(spec) = &self.spec {
            fields.push(("spec", spec.to_json()));
        }
        fields
    }

    /// Parse an entry from its wire/disk form.
    pub fn from_json(v: &Json) -> Result<StoreEntry, String> {
        let mut verdicts = Vec::new();
        for rec in v.field("verdicts")?.as_array()? {
            verdicts.push(parse_verdict_record(rec)?);
        }
        Ok(StoreEntry {
            fp_a: v.field("fp_a")?.as_str()?.to_string(),
            fp_b: v.field("fp_b")?.as_str()?.to_string(),
            artifact_a: v.field("artifact_a")?.as_str()?.to_string(),
            artifact_b: v.field("artifact_b")?.as_str()?.to_string(),
            corpus: v.field("corpus")?.as_str()?.to_string(),
            summary: v.field("summary")?.clone(),
            verdicts,
            // Pre-spec entries are valid; they just cannot be re-indexed.
            spec: v
                .field("spec")
                .ok()
                .and_then(|s| JobSpec::from_json(s).ok()),
        })
    }
}

/// Handle on a store root directory. All mutation goes through
/// [`crate::atomic_write`]; concurrent *processes* must not share a
/// root, but concurrent threads of one daemon may — entry files are
/// one-per-key, and [`ResultStore::publish`] serializes the shared
/// `index.json` update internally.
#[derive(Debug)]
pub struct ResultStore {
    root: PathBuf,
    fsync: bool,
    /// Guards the `index.json` read-modify-write in [`Self::publish`]:
    /// two unserialized publishers would each rewrite the index from a
    /// stale read, and the last writer would silently drop the other's
    /// logical→latest mapping (losing a diff baseline). Readers need no
    /// lock — `atomic_write` renames, so any read sees a full snapshot.
    index_lock: Mutex<()>,
}

impl ResultStore {
    /// Open (creating if needed) a store rooted at `root`.
    pub fn open(root: &Path, fsync: bool) -> io::Result<ResultStore> {
        for sub in ["jobs", "inflight", "wal", "out"] {
            fs::create_dir_all(root.join(sub))?;
        }
        Ok(ResultStore {
            root: root.to_path_buf(),
            fsync,
            index_lock: Mutex::new(()),
        })
    }

    /// The store root.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn entry_path(&self, key: &str) -> PathBuf {
        self.root.join("jobs").join(format!("{key}.json"))
    }

    /// Fetch the entry stored under `key`, if any. A present-but-corrupt
    /// entry is an error, not a miss — silently re-solving would mask
    /// store damage.
    pub fn lookup(&self, key: &str) -> Result<Option<StoreEntry>, String> {
        let path = self.entry_path(key);
        let text = match fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(format!("store read {}: {e}", path.display())),
        };
        let v = json::parse(&text).map_err(|e| format!("store entry {key}: {e}"))?;
        StoreEntry::from_json(&v).map(Some)
    }

    /// Publish `entry` under `key` and point `logical` at it in the
    /// index. The entry write lands before the index update, so a crash
    /// between the two leaves the index pointing at the older (still
    /// valid) entry.
    pub fn publish(&self, key: &str, logical: &str, entry: &StoreEntry) -> io::Result<()> {
        let mut text = String::new();
        entry.write_into(&mut text);
        atomic_write(&self.entry_path(key), text.as_bytes(), self.fsync)?;
        let _index_guard = self.index_lock.lock().unwrap_or_else(|e| e.into_inner());
        let mut index = self.read_index();
        index.retain(|(k, _)| k != logical);
        index.push((logical.to_string(), Json::Str(key.to_string())));
        index.sort_by(|a, b| a.0.cmp(&b.0));
        let mut out = String::new();
        Json::Object(index).write_into(&mut out);
        atomic_write(&self.root.join("index.json"), out.as_bytes(), self.fsync)
    }

    /// Ingest an entry replicated from a fleet peer. Entries are
    /// content-addressed and writes are atomic, so replication is
    /// idempotent: if `key` is already present and readable the push is
    /// a no-op (`Ok(false)`); otherwise the entry is published exactly
    /// as a local solve would have published it — including the
    /// logical→latest index update that makes it discoverable as a
    /// store hit or diff baseline on this replica (`Ok(true)`). A
    /// present-but-corrupt entry is repaired by re-publishing.
    pub fn ingest_replica(&self, key: &str, logical: &str, entry: &StoreEntry) -> io::Result<bool> {
        if let Ok(Some(_)) = self.lookup(key) {
            return Ok(false);
        }
        self.publish(key, logical, entry)?;
        Ok(true)
    }

    /// Read the logical index. A missing file is an empty index; a file
    /// that exists but does not parse as a JSON object is *damage* — the
    /// corrupt bytes are preserved under `index.json.corrupt-<n>` for
    /// forensics and the index is rebuilt from the content-addressed
    /// entries themselves (see [`Self::rebuild_index`]). Callers must
    /// hold `index_lock`: recovery rewrites `index.json`, and an
    /// unserialized reader racing a publisher could resurrect a stale
    /// mapping.
    fn read_index(&self) -> Vec<(String, Json)> {
        let path = self.root.join("index.json");
        let text = match fs::read_to_string(&path) {
            Ok(t) => t,
            Err(_) => return Vec::new(),
        };
        match json::parse(&text) {
            Ok(Json::Object(fields)) => fields,
            // Truncated write survived a crash, or external damage:
            // quarantine and rebuild rather than silently serving an
            // empty index (which would drop every diff baseline).
            _ => self.recover_index(&text),
        }
    }

    /// Quarantine the corrupt index bytes and rebuild `index.json` from
    /// the entries under `jobs/`. Returns the rebuilt index. Caller
    /// holds `index_lock`.
    fn recover_index(&self, corrupt: &str) -> Vec<(String, Json)> {
        for n in 0..10_000u32 {
            let q = self.root.join(format!("index.json.corrupt-{n}"));
            if !q.exists() {
                let _ = atomic_write(&q, corrupt.as_bytes(), self.fsync);
                break;
            }
        }
        let rebuilt = self.rebuild_index();
        let mut out = String::new();
        Json::Object(rebuilt.clone()).write_into(&mut out);
        let _ = atomic_write(&self.root.join("index.json"), out.as_bytes(), self.fsync);
        rebuilt
    }

    /// Reconstruct logical-key → latest-content-key mappings from the
    /// content-addressed entries. Each entry that embeds its [`JobSpec`]
    /// yields its logical key directly; when several entries share one
    /// (the agent changed between publishes), the most recently modified
    /// file wins, with the key as a deterministic tie-break. Entries
    /// without an embedded spec (pre-spec format, or unreadable) cannot
    /// be re-indexed and are skipped — they remain addressable by
    /// content key.
    fn rebuild_index(&self) -> Vec<(String, Json)> {
        use std::collections::BTreeMap;
        use std::time::SystemTime;
        let mut best: BTreeMap<String, (SystemTime, String)> = BTreeMap::new();
        let Ok(dir) = fs::read_dir(self.root.join("jobs")) else {
            return Vec::new();
        };
        for e in dir.filter_map(|e| e.ok()) {
            let name = e.file_name().to_string_lossy().to_string();
            let Some(key) = name.strip_suffix(".json") else {
                continue;
            };
            let Ok(text) = fs::read_to_string(e.path()) else {
                continue;
            };
            let Ok(v) = json::parse(&text) else {
                continue;
            };
            let Ok(entry) = StoreEntry::from_json(&v) else {
                continue;
            };
            let Some(spec) = entry.spec else {
                continue;
            };
            let mtime = e
                .metadata()
                .and_then(|m| m.modified())
                .unwrap_or(SystemTime::UNIX_EPOCH);
            let candidate = (mtime, key.to_string());
            match best.get_mut(&logical_key(&spec)) {
                Some(cur) if *cur >= candidate => {}
                Some(cur) => *cur = candidate,
                None => {
                    best.insert(logical_key(&spec), candidate);
                }
            }
        }
        best.into_iter()
            .map(|(logical, (_, key))| (logical, Json::Str(key)))
            .collect()
    }

    /// The latest content key published for `logical`, if any. Takes the
    /// index lock: a corrupt index triggers a rebuild-and-rewrite here,
    /// which must not interleave with a concurrent publish.
    pub fn latest(&self, logical: &str) -> Option<String> {
        let _index_guard = self.index_lock.lock().unwrap_or_else(|e| e.into_inner());
        self.read_index()
            .iter()
            .find(|(k, _)| k == logical)
            .and_then(|(_, v)| v.as_str().ok().map(str::to_string))
    }

    /// Record a job as accepted-but-unpublished; survives a crash so the
    /// daemon can re-run it on restart.
    pub fn record_inflight(&self, key: &str, spec: &JobSpec) -> io::Result<()> {
        let mut text = String::new();
        spec.to_json().write_into(&mut text);
        atomic_write(
            &self.root.join("inflight").join(format!("{key}.json")),
            text.as_bytes(),
            self.fsync,
        )
    }

    /// Drop a job's in-flight record (published or abandoned).
    pub fn clear_inflight(&self, key: &str) {
        let _ = fs::remove_file(self.root.join("inflight").join(format!("{key}.json")));
    }

    /// All in-flight records, sorted by key for deterministic recovery
    /// order.
    pub fn list_inflight(&self) -> Vec<(String, JobSpec)> {
        let mut out = Vec::new();
        let Ok(dir) = fs::read_dir(self.root.join("inflight")) else {
            return out;
        };
        for e in dir.filter_map(|e| e.ok()) {
            let name = e.file_name().to_string_lossy().to_string();
            let Some(key) = name.strip_suffix(".json") else {
                continue;
            };
            let Ok(text) = fs::read_to_string(e.path()) else {
                continue;
            };
            let Ok(v) = json::parse(&text) else {
                continue;
            };
            if let Ok(spec) = JobSpec::from_json(&v) {
                out.push((key.to_string(), spec));
            }
        }
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Per-job session journal path.
    pub fn wal_path(&self, key: &str) -> PathBuf {
        self.root.join("wal").join(format!("{key}.wal"))
    }

    /// Per-job artifact staging prefix (the session's `out_prefix`).
    pub fn out_prefix(&self, key: &str) -> String {
        format!("{}/{key}_", self.root.join("out").display())
    }

    /// Persist the store-wide counters object.
    pub fn write_stats(&self, stats: &Json) -> io::Result<()> {
        let mut text = String::new();
        stats.write_into(&mut text);
        atomic_write(
            &self.root.join("serve_stats.json"),
            text.as_bytes(),
            self.fsync,
        )
    }

    /// Publish the daemon's bound address for clients.
    pub fn write_addr(&self, addr: &str) -> io::Result<()> {
        atomic_write(&self.root.join("addr"), addr.as_bytes(), self.fsync)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use soft_smt::{SatResult, SolverBudget};

    fn spec() -> JobSpec {
        JobSpec {
            protocol: "of10".to_string(),
            agent_a: "reference".to_string(),
            agent_b: "ovs".to_string(),
            test: "queue_config".to_string(),
            seed: 7,
            budget_conflicts: None,
            fuzz: 4,
            retry_rungs: 2,
            fp_a: None,
            fp_b: None,
        }
    }

    fn temp_store(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("soft_store_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn entry() -> StoreEntry {
        StoreEntry {
            fp_a: "aa".to_string(),
            fp_b: "bb".to_string(),
            artifact_a: "{\"a\":1}".to_string(),
            artifact_b: "{\"b\":2}".to_string(),
            corpus: "{\"c\":3}".to_string(),
            summary: Json::Object(vec![("ok".to_string(), Json::Bool(true))]),
            verdicts: vec![VerdictRec {
                i: 0,
                j: 1,
                verdict: SatResult::Unsat,
                budget: SolverBudget::unlimited(),
            }],
            spec: None,
        }
    }

    #[test]
    fn keys_separate_fingerprints_and_params() {
        let s = spec();
        let k1 = job_key("aa", "bb", &s);
        assert_eq!(k1, job_key("aa", "bb", &s), "keys must be deterministic");
        assert_ne!(k1, job_key("aa", "cc", &s), "fingerprint must change key");
        let mut s2 = s.clone();
        s2.seed = 8;
        assert_ne!(k1, job_key("aa", "bb", &s2), "seed must change key");
        let mut s3 = s.clone();
        s3.budget_conflicts = Some(100);
        assert_ne!(k1, job_key("aa", "bb", &s3), "budget must change key");
        // Logical key ignores fingerprints but not parameters.
        assert_eq!(logical_key(&s), logical_key(&s));
        assert_ne!(logical_key(&s), logical_key(&s2));
    }

    #[test]
    fn streamed_entry_bytes_equal_the_json_tree_bytes() {
        let mut with_spec = entry();
        with_spec.artifact_a = "{\"quote\":\"\\\"\",\"nl\":\"\\n\"}\u{1}é".to_string();
        with_spec.spec = Some(spec());
        for e in [entry(), with_spec] {
            let (mut streamed, mut tree) = (String::new(), String::new());
            e.write_into(&mut streamed);
            e.to_json().write_into(&mut tree);
            assert_eq!(streamed, tree);
        }
    }

    #[test]
    fn entries_roundtrip_and_index_tracks_latest() {
        let root = temp_store("roundtrip");
        let store = ResultStore::open(&root, false).unwrap();
        let s = spec();
        let entry = entry();
        let key = job_key("aa", "bb", &s);
        let logical = logical_key(&s);
        assert!(store.lookup(&key).unwrap().is_none());
        store.publish(&key, &logical, &entry).unwrap();
        let got = store.lookup(&key).unwrap().expect("entry");
        assert_eq!(got.artifact_a, entry.artifact_a);
        assert_eq!(got.artifact_b, entry.artifact_b);
        assert_eq!(got.corpus, entry.corpus);
        assert_eq!(got.verdicts.len(), 1);
        assert!(matches!(got.verdicts[0].verdict, SatResult::Unsat));
        assert_eq!(store.latest(&logical).as_deref(), Some(key.as_str()));
        // A re-publish under a new fingerprint supersedes the index slot.
        let key2 = job_key("aa2", "bb", &s);
        store.publish(&key2, &logical, &entry).unwrap();
        assert_eq!(store.latest(&logical).as_deref(), Some(key2.as_str()));
        // The superseded entry stays addressable by content key.
        assert!(store.lookup(&key).unwrap().is_some());
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn concurrent_publishes_keep_every_index_mapping() {
        let root = temp_store("concurrent");
        let store = ResultStore::open(&root, false).unwrap();
        let entry = entry();
        // Eight publishers race on index.json; every logical→latest
        // mapping must survive the read-modify-write storm.
        std::thread::scope(|scope| {
            for t in 0..8u64 {
                let (store, entry) = (&store, &entry);
                scope.spawn(move || {
                    let mut s = spec();
                    s.seed = t;
                    store
                        .publish(&job_key("aa", "bb", &s), &logical_key(&s), entry)
                        .unwrap();
                });
            }
        });
        for t in 0..8u64 {
            let mut s = spec();
            s.seed = t;
            assert_eq!(
                store.latest(&logical_key(&s)).as_deref(),
                Some(job_key("aa", "bb", &s).as_str()),
                "publish race dropped the mapping for seed {t}"
            );
        }
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn corrupt_index_is_quarantined_and_rebuilt() {
        let root = temp_store("corrupt");
        let store = ResultStore::open(&root, false).unwrap();
        // Two logical jobs with embedded specs, one of them superseded
        // once (two content keys, same logical key), plus one pre-spec
        // entry that cannot be re-indexed.
        let s1 = spec();
        let mut s2 = spec();
        s2.seed = 99;
        let mut e1 = entry();
        e1.spec = Some(s1.clone());
        let mut e2 = entry();
        e2.spec = Some(s2.clone());
        let old_key = job_key("aa_old", "bb", &s1);
        let new_key = job_key("aa_new", "bb", &s1);
        let other_key = job_key("aa", "bb", &s2);
        store.publish(&old_key, &logical_key(&s1), &e1).unwrap();
        store.publish(&new_key, &logical_key(&s1), &e1).unwrap();
        store.publish(&other_key, &logical_key(&s2), &e2).unwrap();
        store
            .publish("prespec", "legacy-logical", &entry())
            .unwrap();
        // The superseded entry must *lose* the rebuild: backdate it so
        // the mtime ranking is unambiguous.
        let old_mtime = fs::metadata(store.entry_path(&new_key))
            .and_then(|m| m.modified())
            .unwrap()
            - std::time::Duration::from_secs(60);
        let f = fs::OpenOptions::new()
            .append(true)
            .open(store.entry_path(&old_key))
            .unwrap();
        f.set_modified(old_mtime).unwrap();
        drop(f);

        // Truncate the index mid-token, as a crash or disk fault would.
        fs::write(root.join("index.json"), "{\"trunc").unwrap();

        // The next read recovers: latest() serves the rebuilt mapping.
        assert_eq!(
            store.latest(&logical_key(&s1)).as_deref(),
            Some(new_key.as_str())
        );
        assert_eq!(
            store.latest(&logical_key(&s2)).as_deref(),
            Some(other_key.as_str())
        );
        // The pre-spec entry dropped out of the index but is still
        // addressable by content key.
        assert_eq!(store.latest("legacy-logical"), None);
        assert!(store.lookup("prespec").unwrap().is_some());
        // The corrupt bytes were preserved, and the rewritten index is
        // valid JSON that parses without another recovery pass.
        let quarantined = fs::read_to_string(root.join("index.json.corrupt-0")).unwrap();
        assert_eq!(quarantined, "{\"trunc");
        let reread = fs::read_to_string(root.join("index.json")).unwrap();
        assert!(matches!(json::parse(&reread), Ok(Json::Object(_))));
        // A second corruption lands in the next quarantine slot.
        fs::write(root.join("index.json"), "junk").unwrap();
        assert_eq!(
            store.latest(&logical_key(&s1)).as_deref(),
            Some(new_key.as_str())
        );
        assert_eq!(
            fs::read_to_string(root.join("index.json.corrupt-1")).unwrap(),
            "junk"
        );
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn entries_embed_their_spec_and_tolerate_its_absence() {
        let root = temp_store("spec_embed");
        let store = ResultStore::open(&root, false).unwrap();
        let s = spec();
        let mut e = entry();
        e.spec = Some(s.clone());
        store.publish("with_spec", &logical_key(&s), &e).unwrap();
        let got = store.lookup("with_spec").unwrap().expect("entry");
        assert_eq!(got.spec, Some(s));
        // An entry serialized before the spec field existed still loads.
        store.publish("no_spec", "l2", &entry()).unwrap();
        assert_eq!(store.lookup("no_spec").unwrap().expect("entry").spec, None);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn replica_ingest_is_idempotent_and_indexes_the_entry() {
        let root = temp_store("replica");
        let store = ResultStore::open(&root, false).unwrap();
        let s = spec();
        let key = job_key("aa", "bb", &s);
        let logical = logical_key(&s);
        // First push lands and becomes the logical latest.
        assert!(store.ingest_replica(&key, &logical, &entry()).unwrap());
        assert_eq!(store.latest(&logical).as_deref(), Some(key.as_str()));
        let first = fs::read_to_string(store.entry_path(&key)).unwrap();
        // Re-push of the same content is a no-op, byte for byte.
        assert!(!store.ingest_replica(&key, &logical, &entry()).unwrap());
        assert_eq!(fs::read_to_string(store.entry_path(&key)).unwrap(), first);
        // A corrupt entry under the key is repaired by the next push.
        fs::write(store.entry_path(&key), "garbage").unwrap();
        assert!(store.ingest_replica(&key, &logical, &entry()).unwrap());
        assert_eq!(fs::read_to_string(store.entry_path(&key)).unwrap(), first);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn inflight_records_roundtrip() {
        let root = temp_store("inflight");
        let store = ResultStore::open(&root, false).unwrap();
        let s = spec();
        assert!(store.list_inflight().is_empty());
        store.record_inflight("k1", &s).unwrap();
        let listed = store.list_inflight();
        assert_eq!(listed.len(), 1);
        assert_eq!(listed[0].0, "k1");
        assert_eq!(listed[0].1, s);
        store.clear_inflight("k1");
        assert!(store.list_inflight().is_empty());
        let _ = fs::remove_dir_all(&root);
    }
}
