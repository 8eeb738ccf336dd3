//! The append-only session journal: write path, recovery scan, backends.

use crate::crc32::crc32;
use crate::error::{StoreError, StoreResult};
use crate::record::{JOp, Record, SnapshotPred, MAGIC, MAX_RECORD};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::{Arc, Mutex, PoisonError};

/// When the journal issues an `fsync` to its backend.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SyncPolicy {
    /// Never sync explicitly (fastest; durability left to the OS).
    Never,
    /// Sync at every session boundary — commit, rollback, snapshot. The
    /// default: a reported commit survives a crash.
    OnCommit,
    /// Sync after every record (slowest, smallest loss window).
    Always,
}

impl SyncPolicy {
    /// Parse `never|commit|always` (CLI flag form).
    pub fn parse(s: &str) -> Option<SyncPolicy> {
        match s {
            "never" => Some(SyncPolicy::Never),
            "commit" => Some(SyncPolicy::OnCommit),
            "always" => Some(SyncPolicy::Always),
            _ => None,
        }
    }
}

// ---------------------------------------------------------------------------
// Backends
// ---------------------------------------------------------------------------

/// Byte-level storage behind a [`Journal`]: an append-only stream with
/// truncate-and-reread support for recovery. Implemented by real files,
/// in-memory buffers (tests), and the fault-injection wrapper.
pub trait Backend: Send {
    /// Append bytes at the end of the stream.
    fn append(&mut self, bytes: &[u8]) -> std::io::Result<()>;
    /// Flush and fsync (durability barrier).
    fn sync(&mut self) -> std::io::Result<()>;
    /// Truncate the stream to `len` bytes.
    fn truncate(&mut self, len: u64) -> std::io::Result<()>;
    /// Read the entire current contents.
    fn read_all(&mut self) -> std::io::Result<Vec<u8>>;
    /// Replace the entire stream with `bytes`, as atomically as the medium
    /// allows, and leave the result durable. File backends write a fresh
    /// file, fsync it, and rename it over the old journal; a crash at any
    /// point leaves either the complete old stream or the complete new one,
    /// never a mixture. The default (for simple media where replacement is
    /// inherently atomic or atomicity is untestable) is
    /// truncate-append-sync.
    fn rotate(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.truncate(0)?;
        self.append(bytes)?;
        self.sync()
    }
}

/// A journal stored in a real file.
pub struct FileBackend {
    file: std::fs::File,
    path: std::path::PathBuf,
}

impl FileBackend {
    /// Open (or create) the journal file at `path`. A stale `<path>.tmp`
    /// left behind by a crash mid-rotation (before the atomic rename) is
    /// removed: the old journal is still complete, so the half-written
    /// replacement is garbage.
    pub fn open(path: &Path) -> std::io::Result<FileBackend> {
        let tmp = Self::tmp_path(path);
        if tmp.exists() {
            std::fs::remove_file(&tmp)?;
        }
        let file = std::fs::OpenOptions::new()
            .read(true)
            .create(true)
            .append(true)
            .open(path)?;
        Ok(FileBackend {
            file,
            path: path.to_path_buf(),
        })
    }

    fn tmp_path(path: &Path) -> std::path::PathBuf {
        let mut os = path.as_os_str().to_os_string();
        os.push(".tmp");
        std::path::PathBuf::from(os)
    }

    /// Fsync the journal's parent directory so a just-renamed file is
    /// durable under the old name's entry. Best effort: some filesystems
    /// refuse to fsync directories, which is not worth failing a rotation
    /// over.
    fn sync_dir(&self) {
        if let Some(parent) = self.path.parent() {
            let dir = if parent.as_os_str().is_empty() {
                Path::new(".")
            } else {
                parent
            };
            if let Ok(d) = std::fs::File::open(dir) {
                let _ = d.sync_all();
            }
        }
    }
}

impl Backend for FileBackend {
    fn append(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.file.write_all(bytes)
    }

    fn sync(&mut self) -> std::io::Result<()> {
        self.file.sync_data()
    }

    fn truncate(&mut self, len: u64) -> std::io::Result<()> {
        self.file.set_len(len)?;
        self.file.seek(SeekFrom::End(0)).map(|_| ())
    }

    fn read_all(&mut self) -> std::io::Result<Vec<u8>> {
        let mut buf = Vec::new();
        self.file.seek(SeekFrom::Start(0))?;
        self.file.read_to_end(&mut buf)?;
        self.file.seek(SeekFrom::End(0))?;
        Ok(buf)
    }

    /// Crash-safe file rotation: write the replacement to `<path>.tmp`,
    /// fsync it, rename it over the journal (atomic on POSIX), fsync the
    /// directory, and switch the open handle to the new file. A crash
    /// before the rename leaves the old journal untouched (the stale tmp
    /// is swept on the next open); a crash after it leaves the complete
    /// new journal.
    fn rotate(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        let tmp = Self::tmp_path(&self.path);
        let mut f = std::fs::OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(&tmp)?;
        f.write_all(bytes)?;
        f.sync_data()?;
        std::fs::rename(&tmp, &self.path)?;
        self.sync_dir();
        self.file = std::fs::OpenOptions::new()
            .read(true)
            .append(true)
            .open(&self.path)?;
        self.file.seek(SeekFrom::End(0)).map(|_| ())
    }
}

/// An in-memory journal whose byte buffer is shared: clones observe (and
/// survive) each other, which is what the fault-injection harness uses to
/// "re-mount the disk" after a simulated crash.
#[derive(Clone, Default)]
pub struct MemBackend {
    buf: Arc<Mutex<Vec<u8>>>,
}

impl MemBackend {
    /// Fresh empty in-memory backend.
    pub fn new() -> MemBackend {
        MemBackend::default()
    }

    /// A snapshot of the current bytes.
    pub fn bytes(&self) -> Vec<u8> {
        self.buf
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Replace the contents wholesale (harness: mount a truncated/corrupted
    /// image).
    pub fn set_bytes(&self, bytes: Vec<u8>) {
        *self.buf.lock().unwrap_or_else(PoisonError::into_inner) = bytes;
    }
}

impl Backend for MemBackend {
    fn append(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.buf
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .extend_from_slice(bytes);
        Ok(())
    }

    fn sync(&mut self) -> std::io::Result<()> {
        Ok(())
    }

    fn truncate(&mut self, len: u64) -> std::io::Result<()> {
        self.buf
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .truncate(len as usize);
        Ok(())
    }

    fn read_all(&mut self) -> std::io::Result<Vec<u8>> {
        Ok(self.bytes())
    }
}

// ---------------------------------------------------------------------------
// Recovery scan
// ---------------------------------------------------------------------------

/// What recovery reconstructed from a journal image: the latest snapshot,
/// the ops of every session committed after it, and how much of the tail
/// had to be discarded.
#[derive(Debug, Default)]
pub struct Replay {
    /// The latest durable snapshot, if any.
    pub snapshot: Option<Vec<SnapshotPred>>,
    /// Ops of all sessions committed after that snapshot, in order.
    pub ops: Vec<JOp>,
    /// Committed sessions replayed (after the snapshot).
    pub sessions_replayed: usize,
    /// Rolled-back sessions skipped.
    pub sessions_rolled_back: usize,
    /// Whether an in-flight session (trailing `Bes` without `Ees`) was
    /// discarded.
    pub discarded_in_flight: bool,
    /// Bytes truncated off the tail (torn records + in-flight session).
    pub truncated_bytes: u64,
    /// Why the scan stopped early, when it did (torn tail, CRC mismatch…).
    pub torn: Option<String>,
    /// Byte length of the valid, committed prefix (including magic).
    pub durable_len: u64,
}

/// Scan a journal image, tolerating any torn or corrupt tail: the scan
/// stops at the first invalid byte and the durable prefix ends at the last
/// *session boundary* before it. Never panics, whatever the input.
pub fn scan(bytes: &[u8]) -> StoreResult<Replay> {
    if bytes.is_empty() {
        // A journal that was never written: treat as fresh.
        return Ok(Replay {
            durable_len: 0,
            ..Replay::default()
        });
    }
    if bytes.len() < MAGIC.len() || &bytes[..MAGIC.len()] != MAGIC {
        return Err(StoreError::BadMagic);
    }
    let mut replay = Replay::default();
    let mut off = MAGIC.len();
    let mut boundary = off; // end of the last committed session boundary
    let mut in_session = false;
    let mut pending: Vec<JOp> = Vec::new();
    let mut torn: Option<String> = None;

    loop {
        if off == bytes.len() {
            break;
        }
        if off + 8 > bytes.len() {
            torn = Some("torn record header at end of journal".into());
            break;
        }
        let len = u32::from_le_bytes([bytes[off], bytes[off + 1], bytes[off + 2], bytes[off + 3]]);
        let crc = u32::from_le_bytes([
            bytes[off + 4],
            bytes[off + 5],
            bytes[off + 6],
            bytes[off + 7],
        ]);
        if len > MAX_RECORD {
            torn = Some("record length out of bounds".into());
            break;
        }
        let start = off + 8;
        let end = start + len as usize;
        if end > bytes.len() {
            torn = Some("torn record payload at end of journal".into());
            break;
        }
        let payload = &bytes[start..end];
        if crc32(payload) != crc {
            torn = Some("CRC mismatch — corrupted record".into());
            break;
        }
        let record = match Record::decode_payload(payload) {
            Ok(r) => r,
            Err(e) => {
                torn = Some(format!("undecodable record: {e}"));
                break;
            }
        };
        // Session grammar. A violation in the *stored* stream means the
        // writer crashed in a way framing cannot express (or the file was
        // tampered with); treat everything from here on as invalid tail.
        match record {
            Record::Bes => {
                if in_session {
                    torn = Some("BES inside an open session".into());
                    break;
                }
                in_session = true;
                pending.clear();
            }
            Record::Op(op) => {
                if !in_session {
                    torn = Some("op outside a session".into());
                    break;
                }
                pending.push(op);
            }
            Record::EesCommit => {
                if !in_session {
                    torn = Some("EES(commit) without BES".into());
                    break;
                }
                replay.ops.append(&mut pending);
                replay.sessions_replayed += 1;
                in_session = false;
                boundary = end;
            }
            Record::EesRollback => {
                if !in_session {
                    torn = Some("EES(rollback) without BES".into());
                    break;
                }
                pending.clear();
                replay.sessions_rolled_back += 1;
                in_session = false;
                boundary = end;
            }
            Record::Snapshot(preds) => {
                if in_session {
                    torn = Some("snapshot inside an open session".into());
                    break;
                }
                replay.snapshot = Some(preds);
                replay.ops.clear();
                replay.sessions_replayed = 0;
                boundary = end;
            }
        }
        off = end;
    }

    replay.discarded_in_flight = in_session;
    replay.torn = torn;
    replay.durable_len = boundary as u64;
    replay.truncated_bytes = bytes.len() as u64 - boundary as u64;
    Ok(replay)
}

// ---------------------------------------------------------------------------
// Journal (write path)
// ---------------------------------------------------------------------------

/// The write-ahead session journal.
///
/// Appends framed records through a [`Backend`]; [`Journal::open`] scans
/// the existing contents, truncates any invalid or in-flight tail, and
/// returns a [`Replay`] for the caller to reconstruct its state from.
pub struct Journal {
    backend: Box<dyn Backend>,
    policy: SyncPolicy,
    pos: u64,
}

impl Journal {
    /// Open a journal over `backend`: validate/initialise the magic, scan,
    /// truncate the tail to the durable prefix, and return the replay.
    pub fn open(
        mut backend: Box<dyn Backend>,
        policy: SyncPolicy,
    ) -> StoreResult<(Journal, Replay)> {
        let bytes = backend.read_all()?;
        let replay = scan(&bytes)?;
        if bytes.is_empty() {
            backend.append(MAGIC)?;
            backend.sync()?;
            let journal = Journal {
                backend,
                policy,
                pos: MAGIC.len() as u64,
            };
            return Ok((journal, replay));
        }
        if replay.durable_len < bytes.len() as u64 {
            backend.truncate(replay.durable_len)?;
            backend.sync()?;
        }
        let journal = Journal {
            backend,
            policy,
            pos: replay.durable_len,
        };
        Ok((journal, replay))
    }

    /// Open (or create) a journal file at `path`.
    pub fn open_path(path: &Path, policy: SyncPolicy) -> StoreResult<(Journal, Replay)> {
        let backend = FileBackend::open(path)?;
        Journal::open(Box::new(backend), policy)
    }

    /// Current end-of-journal byte offset (the next record starts here).
    pub fn position(&self) -> u64 {
        self.pos
    }

    /// The sync policy in force.
    pub fn policy(&self) -> SyncPolicy {
        self.policy
    }

    /// Append one record; syncs immediately under [`SyncPolicy::Always`].
    /// Returns the end offset of the record.
    pub fn append(&mut self, record: &Record) -> StoreResult<u64> {
        let framed = record.encode_framed();
        self.backend.append(&framed)?;
        self.pos += framed.len() as u64;
        if gom_obs::enabled() {
            gom_obs::counter_add("journal.appends", 1);
            gom_obs::counter_add("journal.bytes", framed.len() as u64);
        }
        if self.policy == SyncPolicy::Always {
            self.backend.sync()?;
            gom_obs::counter_add("journal.fsyncs", 1);
        }
        Ok(self.pos)
    }

    /// Rotate the journal: replace the entire stream with a fresh image
    /// holding just the magic and `record` (normally a
    /// [`Record::Snapshot`]), so the file stops growing with history the
    /// snapshot already subsumes. The replacement is crash-safe and always
    /// durable on return, whatever the sync policy: a rotation that could
    /// be half-lost would corrupt the *whole* journal, not just a tail.
    /// Returns the new end offset.
    pub fn rotate(&mut self, record: &Record) -> StoreResult<u64> {
        let mut image = Vec::with_capacity(MAGIC.len() + 64);
        image.extend_from_slice(MAGIC);
        image.extend_from_slice(&record.encode_framed());
        self.backend.rotate(&image)?;
        self.pos = image.len() as u64;
        if gom_obs::enabled() {
            gom_obs::counter_add("journal.rotations", 1);
            gom_obs::counter_add("journal.bytes", image.len() as u64);
        }
        Ok(self.pos)
    }

    /// Durability barrier at a session boundary: syncs under
    /// [`SyncPolicy::OnCommit`] and [`SyncPolicy::Always`].
    pub fn boundary_sync(&mut self) -> StoreResult<()> {
        if self.policy != SyncPolicy::Never {
            self.backend.sync()?;
            gom_obs::counter_add("journal.fsyncs", 1);
        }
        Ok(())
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::record::JConst;

    fn op(insert: bool, pred: &str, vals: &[i64]) -> JOp {
        JOp {
            insert,
            pred: pred.into(),
            tuple: vals.iter().map(|&n| JConst::Int(n)).collect(),
        }
    }

    fn write_session(j: &mut Journal, ops: &[JOp], commit: bool) {
        j.append(&Record::Bes).unwrap();
        for o in ops {
            j.append(&Record::Op(o.clone())).unwrap();
        }
        j.append(if commit {
            &Record::EesCommit
        } else {
            &Record::EesRollback
        })
        .unwrap();
        j.boundary_sync().unwrap();
    }

    #[test]
    fn committed_sessions_replay_in_order() {
        let mem = MemBackend::new();
        let (mut j, r0) = Journal::open(Box::new(mem.clone()), SyncPolicy::OnCommit).unwrap();
        assert_eq!(r0.sessions_replayed, 0);
        write_session(&mut j, &[op(true, "P", &[1]), op(true, "P", &[2])], true);
        write_session(&mut j, &[op(false, "P", &[1])], true);
        let (_, r) = Journal::open(Box::new(mem.clone()), SyncPolicy::OnCommit).unwrap();
        assert_eq!(r.sessions_replayed, 2);
        assert_eq!(r.ops.len(), 3);
        assert!(r.torn.is_none());
        assert!(!r.discarded_in_flight);
    }

    #[test]
    fn rolled_back_sessions_contribute_nothing() {
        let mem = MemBackend::new();
        let (mut j, _) = Journal::open(Box::new(mem.clone()), SyncPolicy::OnCommit).unwrap();
        write_session(&mut j, &[op(true, "P", &[1])], false);
        let (_, r) = Journal::open(Box::new(mem.clone()), SyncPolicy::OnCommit).unwrap();
        assert_eq!(r.sessions_replayed, 0);
        assert_eq!(r.sessions_rolled_back, 1);
        assert!(r.ops.is_empty());
    }

    #[test]
    fn in_flight_session_is_discarded_and_truncated() {
        let mem = MemBackend::new();
        let (mut j, _) = Journal::open(Box::new(mem.clone()), SyncPolicy::OnCommit).unwrap();
        write_session(&mut j, &[op(true, "P", &[1])], true);
        let committed_len = j.position();
        j.append(&Record::Bes).unwrap();
        j.append(&Record::Op(op(true, "P", &[2]))).unwrap();
        // no EES — crash here
        let (j2, r) = Journal::open(Box::new(mem.clone()), SyncPolicy::OnCommit).unwrap();
        assert!(r.discarded_in_flight);
        assert_eq!(r.sessions_replayed, 1);
        assert_eq!(r.ops.len(), 1);
        assert_eq!(j2.position(), committed_len);
        assert_eq!(mem.bytes().len() as u64, committed_len);
    }

    #[test]
    fn snapshot_resets_the_replay_base() {
        let mem = MemBackend::new();
        let (mut j, _) = Journal::open(Box::new(mem.clone()), SyncPolicy::OnCommit).unwrap();
        write_session(&mut j, &[op(true, "P", &[1])], true);
        j.append(&Record::Snapshot(vec![SnapshotPred {
            pred: "P".into(),
            arity: 1,
            rows: vec![vec![JConst::Int(1)]],
        }]))
        .unwrap();
        j.boundary_sync().unwrap();
        write_session(&mut j, &[op(true, "P", &[2])], true);
        let (_, r) = Journal::open(Box::new(mem.clone()), SyncPolicy::OnCommit).unwrap();
        assert!(r.snapshot.is_some());
        assert_eq!(r.sessions_replayed, 1); // only the post-snapshot session
        assert_eq!(r.ops.len(), 1);
    }

    #[test]
    fn rotate_replaces_history_with_one_record() {
        let mem = MemBackend::new();
        let (mut j, _) = Journal::open(Box::new(mem.clone()), SyncPolicy::OnCommit).unwrap();
        write_session(&mut j, &[op(true, "P", &[1]), op(true, "P", &[2])], true);
        write_session(&mut j, &[op(false, "P", &[1])], true);
        let history_len = j.position();
        let snap = Record::Snapshot(vec![SnapshotPred {
            pred: "P".into(),
            arity: 1,
            rows: vec![vec![JConst::Int(2)]],
        }]);
        let pos = j.rotate(&snap).unwrap();
        assert!(pos < history_len, "rotation must shrink the journal");
        assert_eq!(mem.bytes().len() as u64, pos);
        assert_eq!(pos, (MAGIC.len() + snap.encode_framed().len()) as u64);
        let (_, r) = Journal::open(Box::new(mem.clone()), SyncPolicy::OnCommit).unwrap();
        assert!(r.snapshot.is_some());
        assert_eq!(r.sessions_replayed, 0);
        assert!(r.ops.is_empty());
        assert!(r.torn.is_none());
    }

    #[test]
    fn file_backend_rotates_atomically_and_sweeps_stale_tmp() {
        let dir = std::env::temp_dir().join(format!("gom_store_rot_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("j.gom");
        let tmp = dir.join("j.gom.tmp");

        let backend = FileBackend::open(&path).unwrap();
        let (mut j, _) = Journal::open(Box::new(backend), SyncPolicy::OnCommit).unwrap();
        write_session(&mut j, &[op(true, "P", &[1])], true);
        j.rotate(&Record::Snapshot(vec![])).unwrap();
        assert!(!tmp.exists(), "rotation must not leave its tmp file");
        assert_eq!(std::fs::metadata(&path).unwrap().len(), j.position());
        // The rotated file keeps accepting appends.
        write_session(&mut j, &[op(true, "P", &[2])], true);
        drop(j);

        // A stale tmp (crash before rename) is swept; the journal scans.
        std::fs::write(&tmp, b"garbage").unwrap();
        let backend = FileBackend::open(&path).unwrap();
        assert!(!tmp.exists());
        let (_, r) = Journal::open(Box::new(backend), SyncPolicy::OnCommit).unwrap();
        assert!(r.snapshot.is_some());
        assert_eq!(r.sessions_replayed, 1);

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupted_crc_tail_truncates_to_boundary() {
        let mem = MemBackend::new();
        let (mut j, _) = Journal::open(Box::new(mem.clone()), SyncPolicy::OnCommit).unwrap();
        write_session(&mut j, &[op(true, "P", &[1])], true);
        let boundary = j.position();
        write_session(&mut j, &[op(true, "P", &[2])], true);
        // Corrupt one byte inside the second session's op payload.
        let mut bytes = mem.bytes();
        let target = boundary as usize + 8 + 1 + 8 + 2; // inside the Op record
        bytes[target] ^= 0xFF;
        mem.set_bytes(bytes);
        let (_, r) = Journal::open(Box::new(mem.clone()), SyncPolicy::OnCommit).unwrap();
        assert!(
            r.torn.as_deref().is_some_and(|t| t.contains("CRC")),
            "{r:?}"
        );
        assert_eq!(r.sessions_replayed, 1);
        assert_eq!(r.ops.len(), 1);
        assert_eq!(mem.bytes().len() as u64, boundary);
    }

    #[test]
    fn arbitrary_garbage_never_panics() {
        // Deterministic pseudo-random garbage, with and without magic.
        let mut rng = gom_obs::SplitMix64::new(0x1234_5678_9abc_def0);
        for trial in 0..64 {
            let mut bytes = Vec::new();
            if trial % 2 == 0 {
                bytes.extend_from_slice(MAGIC);
            }
            for _ in 0..(trial * 7 + 3) {
                bytes.push((rng.next() >> 33) as u8);
            }
            let _ = scan(&bytes); // must return, never panic
        }
    }

    #[test]
    fn every_prefix_of_a_valid_journal_scans_cleanly() {
        let mem = MemBackend::new();
        let (mut j, _) = Journal::open(Box::new(mem.clone()), SyncPolicy::OnCommit).unwrap();
        write_session(
            &mut j,
            &[op(true, "P", &[1]), op(false, "Q", &[2, 3])],
            true,
        );
        write_session(&mut j, &[op(true, "P", &[4])], false);
        let bytes = mem.bytes();
        for cut in 0..=bytes.len() {
            let prefix = &bytes[..cut];
            if cut < MAGIC.len() && cut > 0 {
                assert!(scan(prefix).is_err(), "cut={cut}: partial magic rejected");
            } else {
                let r = scan(prefix).unwrap();
                assert!(r.durable_len <= cut as u64);
            }
        }
    }
}
