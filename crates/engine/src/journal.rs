//! Append-only sweep journal: checkpoint/resume for long sweeps.
//!
//! A journal is a JSONL file of completed job results, one object per line:
//!
//! ```text
//! {"key":"<16-hex-digit content hash>","value":{...job-specific...}}
//! ```
//!
//! Keys are content hashes of everything that determines a job's result
//! (policy tag, cache configuration, trace digest — see [`job_key`] and
//! [`trace_digest`]), so a journal is safe to reuse across runs: a changed
//! input changes the key and simply misses. Records are appended and flushed
//! as each job finishes; loading is *lenient* — a corrupt or partial
//! trailing line (the signature of `kill -9` mid-append) is dropped, not
//! fatal — so an interrupted sweep resumes from every record that made it to
//! disk.
//!
//! # Durability
//!
//! Every record carries a trailing `"sum"` field: the FNV-1a hash of the
//! exact bytes that precede it on the line. Replay validates the checksum,
//! so a record corrupted *in place* (a flipped bit that still parses as
//! JSON — the one failure mode a torn-tail heuristic cannot see) is dropped
//! and counted in [`Journal::checksum_mismatches`] instead of silently
//! warm-booting a wrong result. Records written before checksums existed
//! have no `"sum"` field; they are accepted and counted in
//! [`Journal::unchecksummed`] for back-compat.
//!
//! How far a record travels toward the platter before `record` returns is
//! the [`SyncPolicy`]: [`SyncPolicy::Flush`] (the default) drains the
//! user-space buffer to the OS — surviving a process `kill -9` but not a
//! power loss — while [`SyncPolicy::Fsync`] adds `fdatasync`, surviving
//! both at the cost of one disk round-trip per record.
//!
//! Drivers install a process-wide journal once after argument parsing
//! ([`set_global_journal`]); deep call sites consult it through
//! [`with_global_journal`] without any plumbing, mirroring how
//! [`crate::set_default_jobs`] distributes the worker count.

use std::collections::HashMap;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use dynex_obs::json::{self, Json};

/// 64-bit FNV-1a hash — the workspace's dependency-free content hash.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Content digest of a reference stream (length-prefixed FNV-1a over the
/// little-endian words), used inside journal keys so a record can never be
/// replayed against a different trace.
///
/// The hash is byte-serial: its cost is one multiply's latency per byte,
/// and no part of the stream can be hashed before the part ahead of it.
/// `dynex_experiments::api::execute` therefore computes a missing digest on
/// a helper thread while the kernel runs, instead of splitting the hash.
pub fn trace_digest(addrs: &[u32]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(&(addrs.len() as u64).to_le_bytes());
    for &a in addrs {
        eat(&a.to_le_bytes());
    }
    hash
}

/// Builds a journal key from the parts that determine a job's result.
///
/// Parts are hashed with a separator so `["ab", "c"]` and `["a", "bc"]`
/// produce different keys. The key is the hash in fixed-width hex.
pub fn job_key(parts: &[&str]) -> String {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for part in parts {
        for &b in part.as_bytes() {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        hash ^= 0x1f; // unit separator: keeps part boundaries in the hash
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{hash:016x}")
}

/// A journal operation failure.
#[derive(Debug)]
pub enum JournalError {
    /// The journal file could not be opened, read, or appended to.
    Io {
        /// The journal path involved.
        path: PathBuf,
        /// The underlying I/O error.
        source: std::io::Error,
    },
    /// A value passed to [`Journal::record`] was not a valid JSON document.
    BadValue {
        /// The parse failure, with offset.
        message: String,
    },
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Io { path, source } => {
                write!(f, "journal {}: {source}", path.display())
            }
            JournalError::BadValue { message } => {
                write!(f, "journal record is not valid JSON: {message}")
            }
        }
    }
}

impl std::error::Error for JournalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            JournalError::Io { source, .. } => Some(source),
            JournalError::BadValue { .. } => None,
        }
    }
}

/// How far [`Journal::record`] pushes a record toward stable storage
/// before returning (module docs weigh the trade-off).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SyncPolicy {
    /// Drain the user-space buffer to the OS (`flush`). A `kill -9` after
    /// `record` returns cannot lose the record; an OS crash or power loss
    /// can. The default.
    #[default]
    Flush,
    /// Additionally `fdatasync` the file per record: the record survives
    /// power loss, at one storage round-trip per append.
    Fsync,
}

impl SyncPolicy {
    /// Parses a `--journal-sync` flag value.
    pub fn parse(value: &str) -> Result<SyncPolicy, String> {
        match value {
            "flush" => Ok(SyncPolicy::Flush),
            "fsync" => Ok(SyncPolicy::Fsync),
            other => Err(format!(
                "bad journal sync policy {other:?} (want flush or fsync)"
            )),
        }
    }
}

impl fmt::Display for SyncPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SyncPolicy::Flush => write!(f, "flush"),
            SyncPolicy::Fsync => write!(f, "fsync"),
        }
    }
}

/// The record suffix that carries the line checksum: `…,"sum":"<16hex>"}`.
const SUM_MARKER: &str = ",\"sum\":\"";

/// The checksum written into a record line: FNV-1a over every byte of the
/// line before its `,"sum":"…"}` suffix, in fixed-width hex.
fn line_checksum(prefix: &str) -> String {
    format!("{:016x}", fnv1a(prefix.as_bytes()))
}

/// An append-only JSONL checkpoint of completed job results.
///
/// # Examples
///
/// ```no_run
/// use dynex_engine::{job_key, Journal};
///
/// let mut journal = Journal::open("sweep.journal")?;
/// let key = job_key(&["fig5/de", "config...", "trace:abc"]);
/// if journal.lookup(&key).is_none() {
///     // ...run the job...
///     journal.record(&key, r#"{"misses":42}"#)?;
/// }
/// # Ok::<(), dynex_engine::JournalError>(())
/// ```
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    file: File,
    sync: SyncPolicy,
    entries: HashMap<String, Json>,
    dropped_lines: u64,
    duplicate_keys: u64,
    checksum_mismatches: u64,
    unchecksummed: u64,
    replayed: u64,
}

impl Journal {
    /// Opens (or creates) the journal at `path` with the default
    /// [`SyncPolicy::Flush`]; see [`Journal::open_with`].
    pub fn open<P: AsRef<Path>>(path: P) -> Result<Journal, JournalError> {
        Journal::open_with(path, SyncPolicy::Flush)
    }

    /// Opens (or creates) the journal at `path`, loading every intact
    /// record. Corrupt or partial lines — e.g. the torn tail left by a kill
    /// mid-append — are dropped and counted in
    /// [`Journal::dropped_lines`], never fatal; a parseable record whose
    /// `"sum"` checksum does not match its bytes is dropped and counted in
    /// [`Journal::checksum_mismatches`].
    pub fn open_with<P: AsRef<Path>>(path: P, sync: SyncPolicy) -> Result<Journal, JournalError> {
        let path = path.as_ref().to_path_buf();
        let io_err = |source| JournalError::Io {
            path: path.clone(),
            source,
        };
        let mut file = OpenOptions::new()
            .read(true)
            .create(true)
            .append(true)
            .open(&path)
            .map_err(io_err)?;

        let data = std::fs::read(&path).map_err(io_err)?;
        // Heal a torn tail: if the last append was cut off before its
        // newline, start the next record on a fresh line instead of
        // concatenating onto (and thereby corrupting) a new record.
        if data.last().is_some_and(|&b| b != b'\n') {
            file.write_all(b"\n").map_err(io_err)?;
        }

        let mut entries = HashMap::new();
        let mut dropped_lines = 0u64;
        let mut duplicate_keys = 0u64;
        let mut checksum_mismatches = 0u64;
        let mut unchecksummed = 0u64;
        for line in String::from_utf8_lossy(&data).lines() {
            if line.trim().is_empty() {
                continue;
            }
            // Checksum validation runs on the raw bytes, before parsing:
            // the writer always puts `"sum"` last, so the final marker on
            // the line splits the covered prefix from the checksum. A line
            // without the marker predates checksums — tolerated (and, when
            // it holds an accepted record, counted below).
            let has_sum = match line.rfind(SUM_MARKER) {
                Some(at) => {
                    let expected = line[at + SUM_MARKER.len()..].trim_end_matches("\"}");
                    if line_checksum(&line[..at]) != expected {
                        checksum_mismatches += 1;
                        continue;
                    }
                    true
                }
                None => false,
            };
            // Lenient load: anything that is not a well-formed record is a
            // torn write — skip it so resume still works.
            let record = match json::parse(line) {
                Ok(v) => v,
                Err(_) => {
                    dropped_lines += 1;
                    continue;
                }
            };
            match (
                record.get("key").and_then(Json::as_str),
                record.get("value"),
            ) {
                (Some(key), Some(value)) => {
                    // Dedup-on-replay guard: an append-only file legitimately
                    // accumulates repeated keys (re-recorded results, two
                    // runs racing on one journal before per-shard fan-out
                    // existed). Replay keeps the *last* record per key — the
                    // newest write — and counts the shadowed ones so bulk
                    // consumers ([`Journal::entries`]) can never observe a
                    // key twice.
                    if entries.insert(key.to_owned(), value.clone()).is_some() {
                        duplicate_keys += 1;
                    }
                    if !has_sum {
                        unchecksummed += 1;
                    }
                }
                _ => dropped_lines += 1,
            }
        }

        Ok(Journal {
            path,
            file,
            sync,
            entries,
            dropped_lines,
            duplicate_keys,
            checksum_mismatches,
            unchecksummed,
            replayed: 0,
        })
    }

    /// The journal's file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Number of records currently held (loaded at open + recorded since).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when the journal holds no records.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Corrupt/partial lines dropped while loading.
    pub fn dropped_lines(&self) -> u64 {
        self.dropped_lines
    }

    /// Well-formed records that were shadowed by a later record with the
    /// same key while loading (see the dedup-on-replay guard in
    /// [`Journal::open`]). Zero on a journal that never re-recorded a key.
    pub fn duplicate_keys(&self) -> u64 {
        self.duplicate_keys
    }

    /// Records dropped at load because their `"sum"` checksum did not match
    /// their bytes — in-place corruption, not a torn tail.
    pub fn checksum_mismatches(&self) -> u64 {
        self.checksum_mismatches
    }

    /// Accepted records that carried no `"sum"` field (written before
    /// checksums existed). Tolerated for back-compat, surfaced so an
    /// operator can see how much of a warm boot is unverifiable.
    pub fn unchecksummed(&self) -> u64 {
        self.unchecksummed
    }

    /// Lookups served from the journal since it was opened.
    pub fn replayed(&self) -> u64 {
        self.replayed
    }

    /// Iterates over every `(key, value)` record currently held, in
    /// unspecified order. Each key appears exactly once even when the
    /// on-disk file holds repeated appends for it — replay keeps the last
    /// record per key ([`Journal::duplicate_keys`] counts the shadowed
    /// ones). Unlike [`Journal::lookup`] this does not count toward
    /// [`Journal::replayed`] — it exists for bulk consumers (e.g.
    /// warm-starting a result cache from a journal at service boot).
    pub fn entries(&self) -> impl Iterator<Item = (&str, &Json)> {
        self.entries.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Returns the recorded value for `key`, if any, counting the hit in
    /// [`Journal::replayed`].
    pub fn lookup(&mut self, key: &str) -> Option<Json> {
        let hit = self.entries.get(key).cloned();
        if hit.is_some() {
            self.replayed += 1;
        }
        hit
    }

    /// Appends a record — with its `"sum"` line checksum — and pushes it
    /// toward disk per the journal's [`SyncPolicy`] before returning, so a
    /// crash after `record` never loses the result. `value_json` must be
    /// one complete JSON document.
    pub fn record(&mut self, key: &str, value_json: &str) -> Result<(), JournalError> {
        let value = json::parse(value_json).map_err(|e| JournalError::BadValue {
            message: e.to_string(),
        })?;
        let prefix = format!(
            "{{\"key\":\"{}\",\"value\":{}",
            json::escape(key),
            value_json
        );
        let line = format!("{prefix}{SUM_MARKER}{}\"}}\n", line_checksum(&prefix));
        let io_err = |source| JournalError::Io {
            path: self.path.clone(),
            source,
        };
        self.file.write_all(line.as_bytes()).map_err(io_err)?;
        self.file.flush().map_err(io_err)?;
        if self.sync == SyncPolicy::Fsync {
            self.file.sync_data().map_err(io_err)?;
        }
        self.entries.insert(key.to_owned(), value);
        Ok(())
    }
}

/// Process-wide journal installed by the driver; `None` when resume is off.
static GLOBAL_JOURNAL: Mutex<Option<Journal>> = Mutex::new(None);

/// Installs (or clears, with `None`) the process-wide journal consulted by
/// [`with_global_journal`]. Drivers call this once after parsing
/// `--resume <path>`.
pub fn set_global_journal(journal: Option<Journal>) {
    *GLOBAL_JOURNAL.lock().expect("journal lock") = journal;
}

/// Runs `f` against the process-wide journal, returning `None` when no
/// journal is installed. Deep call sites (figure sweeps) use this to consult
/// the checkpoint without threading a handle through every signature.
pub fn with_global_journal<R>(f: impl FnOnce(&mut Journal) -> R) -> Option<R> {
    GLOBAL_JOURNAL.lock().expect("journal lock").as_mut().map(f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_path(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let seq = SEQ.fetch_add(1, Ordering::SeqCst);
        std::env::temp_dir().join(format!(
            "dynex-journal-{}-{tag}-{seq}.jsonl",
            std::process::id()
        ))
    }

    #[test]
    fn fnv1a_known_vectors() {
        // Published FNV-1a test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn trace_digest_separates_length_and_content() {
        assert_ne!(trace_digest(&[]), trace_digest(&[0]));
        assert_ne!(trace_digest(&[1, 2]), trace_digest(&[2, 1]));
        assert_eq!(trace_digest(&[1, 2, 3]), trace_digest(&[1, 2, 3]));
    }

    #[test]
    fn trace_digest_bytes_are_pinned() {
        // Length-first FNV-1a over little-endian words: the bytes inside
        // every journal and result-cache key.
        let mut bytes = 3u64.to_le_bytes().to_vec();
        for a in [0x40u32, 0xdead_beec, 7] {
            bytes.extend_from_slice(&a.to_le_bytes());
        }
        assert_eq!(trace_digest(&[0x40, 0xdead_beec, 7]), fnv1a(&bytes));
        assert_eq!(trace_digest(&[]), fnv1a(&[0; 8]));
    }

    #[test]
    fn job_key_respects_part_boundaries() {
        assert_ne!(job_key(&["ab", "c"]), job_key(&["a", "bc"]));
        assert_ne!(job_key(&["a"]), job_key(&["a", ""]));
        assert_eq!(job_key(&["x", "y"]), job_key(&["x", "y"]));
        assert_eq!(job_key(&["x"]).len(), 16);
    }

    #[test]
    fn record_then_reopen_round_trips() {
        let path = temp_path("roundtrip");
        {
            let mut j = Journal::open(&path).unwrap();
            assert!(j.is_empty());
            j.record("k1", r#"{"misses":42,"accesses":100}"#).unwrap();
            j.record("k2", r#"[1,2]"#).unwrap();
            assert_eq!(j.len(), 2);
        }
        let mut j = Journal::open(&path).unwrap();
        assert_eq!(j.len(), 2);
        assert_eq!(j.dropped_lines(), 0);
        let v = j.lookup("k1").unwrap();
        assert_eq!(v.get("misses").and_then(Json::as_u64), Some(42));
        assert_eq!(j.lookup("missing"), None);
        assert_eq!(j.replayed(), 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_trailing_line_is_dropped_not_fatal() {
        let path = temp_path("torn");
        {
            let mut j = Journal::open(&path).unwrap();
            j.record("good", r#"{"v":1}"#).unwrap();
        }
        // Simulate a kill mid-append: a partial record with no closing brace.
        {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(b"{\"key\":\"half\",\"val").unwrap();
        }
        let mut j = Journal::open(&path).unwrap();
        assert_eq!(j.len(), 1);
        assert_eq!(j.dropped_lines(), 1);
        assert!(j.lookup("good").is_some());
        assert!(j.lookup("half").is_none());
        // Appending after recovery still works and lands on its own line.
        j.record("later", r#"{"v":2}"#).unwrap();
        drop(j);
        let mut j = Journal::open(&path).unwrap();
        assert!(j.lookup("later").is_some());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn record_rejects_malformed_values() {
        let path = temp_path("badvalue");
        let mut j = Journal::open(&path).unwrap();
        let err = j.record("k", "{not json").unwrap_err();
        assert!(matches!(err, JournalError::BadValue { .. }));
        assert!(j.is_empty());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn duplicate_keys_last_write_wins_on_reload() {
        let path = temp_path("dup");
        {
            let mut j = Journal::open(&path).unwrap();
            j.record("k", r#"{"v":1}"#).unwrap();
            j.record("k", r#"{"v":2}"#).unwrap();
        }
        let mut j = Journal::open(&path).unwrap();
        assert_eq!(j.len(), 1);
        assert_eq!(j.duplicate_keys(), 1);
        let v = j.lookup("k").unwrap();
        assert_eq!(v.get("v").and_then(Json::as_u64), Some(2));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn entries_never_yields_a_key_twice_even_with_raw_duplicate_lines() {
        // Regression test for the dedup-on-replay guard: hand-write the
        // JSONL (bypassing record()) the way an older run, a crashed
        // re-record, or two processes appending to one file would leave it.
        let path = temp_path("rawdup");
        std::fs::write(
            &path,
            concat!(
                "{\"key\":\"a\",\"value\":{\"v\":1}}\n",
                "{\"key\":\"b\",\"value\":{\"v\":10}}\n",
                "{\"key\":\"a\",\"value\":{\"v\":2}}\n",
                "{\"key\":\"a\",\"value\":{\"v\":3}}\n",
            ),
        )
        .unwrap();
        let j = Journal::open(&path).unwrap();
        assert_eq!(j.len(), 2);
        assert_eq!(j.duplicate_keys(), 2);
        assert_eq!(j.dropped_lines(), 0);
        // entries() is the warm-boot path: each key exactly once, the last
        // on-disk record winning.
        let mut seen = std::collections::HashMap::new();
        for (key, value) in j.entries() {
            let prior = seen.insert(key.to_owned(), value.clone());
            assert!(prior.is_none(), "entries() yielded key {key:?} twice");
        }
        assert_eq!(seen["a"].get("v").and_then(Json::as_u64), Some(3));
        assert_eq!(seen["b"].get("v").and_then(Json::as_u64), Some(10));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn open_error_names_the_path() {
        let bogus = Path::new("/nonexistent-dir-dynex/j.jsonl");
        let err = Journal::open(bogus).unwrap_err();
        assert!(err.to_string().contains("nonexistent-dir-dynex"));
    }

    #[test]
    fn records_carry_a_validating_checksum() {
        let path = temp_path("sum");
        {
            let mut j = Journal::open(&path).unwrap();
            j.record("k", r#"{"v":7}"#).unwrap();
        }
        let raw = std::fs::read_to_string(&path).unwrap();
        let line = raw.trim_end();
        let at = line.rfind(SUM_MARKER).expect("record carries a sum field");
        assert_eq!(
            &line[at + SUM_MARKER.len()..line.len() - 2],
            line_checksum(&line[..at]),
            "sum must hash the exact prefix bytes: {line}"
        );
        let j = Journal::open(&path).unwrap();
        assert_eq!(j.len(), 1);
        assert_eq!(j.checksum_mismatches(), 0);
        assert_eq!(j.unchecksummed(), 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupted_record_is_dropped_and_counted_not_warm_booted() {
        let path = temp_path("corrupt");
        {
            let mut j = Journal::open(&path).unwrap();
            j.record("good", r#"{"v":1}"#).unwrap();
            j.record("victim", r#"{"misses":100}"#).unwrap();
        }
        // Flip one digit inside the victim's *value* — the line still
        // parses as JSON, so only the checksum can catch it.
        let raw = std::fs::read_to_string(&path).unwrap();
        let flipped = raw.replace(r#"{"misses":100}"#, r#"{"misses":900}"#);
        assert_ne!(raw, flipped, "corruption must actually land");
        std::fs::write(&path, flipped).unwrap();

        let mut j = Journal::open(&path).unwrap();
        assert_eq!(j.checksum_mismatches(), 1);
        assert_eq!(j.len(), 1, "the corrupt record must not load");
        assert!(j.lookup("victim").is_none());
        assert!(j.lookup("good").is_some());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn legacy_records_without_sum_are_accepted_and_counted() {
        let path = temp_path("legacy");
        std::fs::write(&path, "{\"key\":\"old\",\"value\":{\"v\":5}}\n").unwrap();
        let mut j = Journal::open(&path).unwrap();
        assert_eq!(j.len(), 1);
        assert_eq!(j.unchecksummed(), 1);
        assert_eq!(j.checksum_mismatches(), 0);
        assert_eq!(
            j.lookup("old").unwrap().get("v").and_then(Json::as_u64),
            Some(5)
        );
        // New appends onto a legacy journal are checksummed.
        j.record("new", r#"{"v":6}"#).unwrap();
        drop(j);
        let j = Journal::open(&path).unwrap();
        assert_eq!(j.len(), 2);
        assert_eq!(j.unchecksummed(), 1, "only the legacy record is unverified");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn sync_policy_parses_and_fsync_round_trips() {
        assert_eq!(SyncPolicy::parse("flush").unwrap(), SyncPolicy::Flush);
        assert_eq!(SyncPolicy::parse("fsync").unwrap(), SyncPolicy::Fsync);
        let err = SyncPolicy::parse("paranoid").unwrap_err();
        assert!(err.contains("paranoid"), "{err}");
        assert_eq!(SyncPolicy::Flush.to_string(), "flush");
        assert_eq!(SyncPolicy::Fsync.to_string(), "fsync");

        let path = temp_path("fsync");
        {
            let mut j = Journal::open_with(&path, SyncPolicy::Fsync).unwrap();
            j.record("k", r#"{"v":1}"#).unwrap();
        }
        let mut j = Journal::open(&path).unwrap();
        assert!(j.lookup("k").is_some());
        std::fs::remove_file(&path).ok();
    }
}
