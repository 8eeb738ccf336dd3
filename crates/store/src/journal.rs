//! The append-only session journal: write path, recovery scan, backends.

use crate::crc32::crc32;
use crate::error::{StoreError, StoreResult};
use crate::record::{frame_commit, frame_op, frame_snapshot, JOp, Record, SnapshotPred};
use crate::record::{MAGIC, MAX_RECORD};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::{Arc, Mutex, PoisonError};

/// When the journal issues an `fsync` to its backend.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SyncPolicy {
    /// Never sync explicitly (fastest; durability left to the OS).
    Never,
    /// Sync once per committed session, after its single append. The
    /// default: a reported commit survives a crash.
    OnCommit,
    /// Kept for compatibility: a commit is one append, so there is no
    /// finer point to sync at and this behaves exactly like
    /// [`SyncPolicy::OnCommit`].
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
    /// Bytes truncated off the tail: torn records, and ops of a session
    /// whose `EesCommit` never landed.
    pub truncated_bytes: u64,
    /// Why the scan stopped early, when it did (torn tail, CRC mismatch…).
    pub torn: Option<String>,
    /// Byte length of the valid, committed prefix (including magic).
    pub durable_len: u64,
}

/// Scan a journal image, tolerating any torn or corrupt tail: the scan
/// stops at the first invalid byte and the durable prefix ends at the last
/// session boundary (`EesCommit` or `Snapshot`) before it. Never panics,
/// whatever the input.
pub fn scan(bytes: &[u8]) -> StoreResult<Replay> {
    if bytes.is_empty() {
        // A journal that was never written: treat as fresh.
        return Ok(Replay::default());
    }
    if bytes.len() < MAGIC.len() || &bytes[..MAGIC.len()] != MAGIC {
        return Err(StoreError::BadMagic);
    }
    let mut replay = Replay::default();
    let mut off = MAGIC.len();
    let mut boundary = off; // end of the last session boundary
    let mut pending: Vec<JOp> = Vec::new();
    let mut torn: Option<String> = None;

    while off < bytes.len() {
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
        match Record::decode_payload(payload) {
            Ok(Record::Op(op)) => pending.push(op),
            Ok(Record::EesCommit) => {
                replay.ops.append(&mut pending);
                replay.sessions_replayed += 1;
                boundary = end;
            }
            // A snapshot between a session's ops and its commit cannot be
            // written (a session is one append); seeing one means the
            // image was tampered with, so the scan stops there.
            Ok(Record::Snapshot(_)) if !pending.is_empty() => {
                torn = Some("snapshot inside a session".into());
                break;
            }
            Ok(Record::Snapshot(preds)) => {
                replay.snapshot = Some(preds);
                replay.ops.clear();
                replay.sessions_replayed = 0;
                boundary = end;
            }
            Err(e) => {
                torn = Some(format!("undecodable record: {e}"));
                break;
            }
        }
        off = end;
    }

    replay.torn = torn;
    replay.durable_len = boundary as u64;
    replay.truncated_bytes = (bytes.len() - boundary) as u64;
    Ok(replay)
}

// ---------------------------------------------------------------------------
// Journal (write path)
// ---------------------------------------------------------------------------

/// The write-ahead session journal.
///
/// [`Journal::commit`] writes one evolution session per backend append;
/// [`Journal::open`] scans the existing contents, truncates any invalid or
/// uncommitted tail, and returns a [`Replay`] for the caller to
/// reconstruct its state from.
pub struct Journal {
    backend: Box<dyn Backend>,
    policy: SyncPolicy,
    pos: u64,
    /// Set when a failed write could not be truncated away: the tail past
    /// `pos` is unknown, so nothing more may be written until a reopen
    /// scans it.
    poisoned: bool,
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
        let pos = if bytes.is_empty() {
            backend.append(MAGIC)?;
            backend.sync()?;
            MAGIC.len() as u64
        } else {
            if replay.truncated_bytes > 0 {
                backend.truncate(replay.durable_len)?;
                backend.sync()?;
            }
            replay.durable_len
        };
        let journal = Journal {
            backend,
            policy,
            pos,
            poisoned: false,
        };
        Ok((journal, replay))
    }

    /// Open (or create) a journal file at `path`.
    pub fn open_path(path: &Path, policy: SyncPolicy) -> StoreResult<(Journal, Replay)> {
        let backend = FileBackend::open(path)?;
        Journal::open(Box::new(backend), policy)
    }

    /// Current end-of-journal byte offset: the end of the last commit or
    /// snapshot (the next commit starts here).
    pub fn position(&self) -> u64 {
        self.pos
    }

    /// The sync policy in force.
    pub fn policy(&self) -> SyncPolicy {
        self.policy
    }

    fn refuse_if_poisoned(&self) -> StoreResult<()> {
        if self.poisoned {
            return Err(StoreError::Poisoned(
                "a failed commit could not be truncated away; reopen the journal",
            ));
        }
        Ok(())
    }

    /// Commit one evolution session: frame `ops` and the `EesCommit`
    /// boundary into one buffer, write it with one backend append, and
    /// sync once unless the policy is [`SyncPolicy::Never`]. Returns the
    /// new end offset.
    ///
    /// A session holding a record the format cannot frame is refused with
    /// [`StoreError::TooLarge`] before any byte is written. If the append
    /// or the sync fails, the backend is truncated back to
    /// [`Self::position`] and the error returned: nothing of the failed
    /// commit stays behind, so the caller's session can stay open and a
    /// retry starts from a clean tail. If that truncate fails too, the
    /// tail is unknown, and every later commit and rotation is refused
    /// with [`StoreError::Poisoned`] until the journal is reopened.
    pub fn commit(&mut self, ops: &[JOp]) -> StoreResult<u64> {
        self.refuse_if_poisoned()?;
        let mut buf = Vec::new();
        for op in ops {
            frame_op(&mut buf, op)?;
        }
        frame_commit(&mut buf)?;
        let written = self.backend.append(&buf).and_then(|()| {
            gom_obs::counter_add("journal.appends", 1);
            gom_obs::counter_add("journal.bytes", buf.len() as u64);
            if self.policy == SyncPolicy::Never {
                return Ok(());
            }
            self.backend.sync()?;
            gom_obs::counter_add("journal.fsyncs", 1);
            Ok(())
        });
        if let Err(e) = written {
            if self.backend.truncate(self.pos).is_err() {
                self.poisoned = true;
            }
            return Err(e.into());
        }
        self.pos += buf.len() as u64;
        Ok(self.pos)
    }

    /// Rotate the journal: replace the entire stream with a fresh image
    /// holding just the magic and a snapshot of `preds`, so the file stops
    /// growing with history the snapshot already subsumes. The replacement
    /// is crash-safe and always durable on return, whatever the sync
    /// policy: a rotation that could be half-lost would corrupt the
    /// *whole* journal, not just a tail. Returns the new end offset. A
    /// snapshot record longer than [`MAX_RECORD`] is refused with
    /// [`StoreError::TooLarge`] and the journal is left untouched.
    pub fn rotate(&mut self, preds: &[SnapshotPred]) -> StoreResult<u64> {
        self.refuse_if_poisoned()?;
        let mut image = MAGIC.to_vec();
        frame_snapshot(&mut image, preds)?;
        self.backend.rotate(&image)?;
        self.pos = image.len() as u64;
        gom_obs::counter_add("journal.rotations", 1);
        gom_obs::counter_add("journal.bytes", image.len() as u64);
        Ok(self.pos)
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

    fn open_mem(mem: &MemBackend) -> (Journal, Replay) {
        Journal::open(Box::new(mem.clone()), SyncPolicy::OnCommit).unwrap()
    }

    /// A [`MemBackend`] that counts calls and fails on request: the next
    /// append writes `half_write` bytes and errors, a sync or truncate
    /// errors while its flag is set.
    #[derive(Clone, Default)]
    struct Flaky {
        mem: MemBackend,
        state: Arc<Mutex<FlakyState>>,
    }

    #[derive(Default)]
    struct FlakyState {
        appends: usize,
        syncs: usize,
        half_write: Option<usize>,
        fail_sync: bool,
        fail_truncate: bool,
    }

    impl Flaky {
        fn state(&self) -> std::sync::MutexGuard<'_, FlakyState> {
            self.state.lock().unwrap()
        }
    }

    impl Backend for Flaky {
        fn append(&mut self, bytes: &[u8]) -> std::io::Result<()> {
            self.state().appends += 1;
            let half_write = self.state().half_write.take();
            if let Some(n) = half_write {
                self.mem.append(&bytes[..n])?;
                return Err(std::io::Error::other("injected: disk full"));
            }
            self.mem.append(bytes)
        }
        fn sync(&mut self) -> std::io::Result<()> {
            self.state().syncs += 1;
            if self.state().fail_sync {
                return Err(std::io::Error::other("injected: sync failed"));
            }
            Ok(())
        }
        fn truncate(&mut self, len: u64) -> std::io::Result<()> {
            if self.state().fail_truncate {
                return Err(std::io::Error::other("injected: truncate failed"));
            }
            self.mem.truncate(len)
        }
        fn read_all(&mut self) -> std::io::Result<Vec<u8>> {
            self.mem.read_all()
        }
    }

    fn open_flaky(policy: SyncPolicy) -> (Flaky, Journal) {
        let flaky = Flaky::default();
        let (j, _) = Journal::open(Box::new(flaky.clone()), policy).unwrap();
        *flaky.state() = FlakyState::default();
        (flaky, j)
    }

    #[test]
    fn committed_sessions_replay_in_order() {
        let mem = MemBackend::new();
        let (mut j, r0) = open_mem(&mem);
        assert_eq!(r0.sessions_replayed, 0);
        j.commit(&[op(true, "P", &[1]), op(true, "P", &[2])])
            .unwrap();
        j.commit(&[op(false, "P", &[1])]).unwrap();
        j.commit(&[]).unwrap();
        let (_, r) = open_mem(&mem);
        assert_eq!(r.sessions_replayed, 3);
        assert_eq!(
            r.ops,
            [
                op(true, "P", &[1]),
                op(true, "P", &[2]),
                op(false, "P", &[1])
            ]
        );
        assert!(r.torn.is_none());
        assert_eq!(r.truncated_bytes, 0);
    }

    #[test]
    fn a_commit_is_one_append_and_one_sync() {
        for (policy, syncs) in [
            (SyncPolicy::Never, 0),
            (SyncPolicy::OnCommit, 1),
            (SyncPolicy::Always, 1),
        ] {
            let (flaky, mut j) = open_flaky(policy);
            j.commit(&[op(true, "P", &[1]), op(true, "Q", &[2, 3])])
                .unwrap();
            assert_eq!(flaky.state().appends, 1, "{policy:?}");
            assert_eq!(flaky.state().syncs, syncs, "{policy:?}");
            assert_eq!(flaky.mem.bytes().len() as u64, j.position());
        }
    }

    #[test]
    fn failed_append_leaves_no_bytes_and_a_retry_commits() {
        let (flaky, mut j) = open_flaky(SyncPolicy::OnCommit);
        j.commit(&[op(true, "P", &[1])]).unwrap();
        let before = flaky.mem.bytes();
        flaky.state().half_write = Some(11);
        assert!(matches!(
            j.commit(&[op(true, "P", &[2])]),
            Err(StoreError::Io(_))
        ));
        assert_eq!(
            flaky.mem.bytes(),
            before,
            "the half-written commit is truncated"
        );
        assert_eq!(j.position(), before.len() as u64);
        j.commit(&[op(true, "P", &[2])]).unwrap();
        let (_, r) = open_mem(&flaky.mem);
        assert_eq!(r.sessions_replayed, 2);
        assert_eq!(r.truncated_bytes, 0);
        assert!(r.torn.is_none());
    }

    #[test]
    fn unframeable_commit_is_refused_before_any_byte() {
        let (flaky, mut j) = open_flaky(SyncPolicy::OnCommit);
        j.commit(&[op(true, "P", &[1])]).unwrap();
        let pos = j.position();
        let long = JOp {
            insert: true,
            pred: "P".into(),
            tuple: vec![JConst::Sym("x".repeat((1 << 20) + 1))],
        };
        let wide = op(true, "P", &vec![0; usize::from(u16::MAX) + 1]);
        for bad in [long, wide] {
            let err = j.commit(&[op(true, "P", &[2]), bad]).unwrap_err();
            assert!(matches!(err, StoreError::TooLarge(_)), "{err}");
        }
        assert_eq!(flaky.state().appends, 1);
        assert_eq!(j.position(), pos);
        assert_eq!(flaky.mem.bytes().len() as u64, pos);
        j.commit(&[op(true, "P", &[3])]).unwrap();
    }

    #[test]
    fn failed_sync_truncates_the_commit() {
        let (flaky, mut j) = open_flaky(SyncPolicy::OnCommit);
        flaky.state().fail_sync = true;
        assert!(j.commit(&[op(true, "P", &[1])]).is_err());
        assert_eq!(flaky.mem.bytes(), MAGIC);
        assert_eq!(j.position(), MAGIC.len() as u64);
    }

    #[test]
    fn failed_truncate_poisons_the_journal_until_reopen() {
        let (flaky, mut j) = open_flaky(SyncPolicy::OnCommit);
        j.commit(&[op(true, "P", &[1])]).unwrap();
        let boundary = j.position();
        flaky.state().half_write = Some(11);
        flaky.state().fail_truncate = true;
        assert!(matches!(
            j.commit(&[op(true, "P", &[2])]),
            Err(StoreError::Io(_))
        ));
        flaky.state().fail_truncate = false;
        assert!(matches!(
            j.commit(&[op(true, "P", &[3])]),
            Err(StoreError::Poisoned(_))
        ));
        assert!(matches!(j.rotate(&[]), Err(StoreError::Poisoned(_))));
        assert_eq!(flaky.mem.bytes().len() as u64, boundary + 11);
        // Reopening scans the unknown tail and lands on the last boundary.
        let (mut j2, r) = open_mem(&flaky.mem);
        assert_eq!(r.sessions_replayed, 1);
        assert_eq!(r.truncated_bytes, 11);
        assert_eq!(j2.position(), boundary);
        j2.commit(&[op(true, "P", &[3])]).unwrap();
    }

    #[test]
    fn uncommitted_ops_are_a_torn_tail() {
        let mem = MemBackend::new();
        let (mut j, _) = open_mem(&mem);
        j.commit(&[op(true, "P", &[1])]).unwrap();
        let committed_len = j.position();
        // Ops of a session whose `EesCommit` never landed.
        let mut tail = mem.bytes();
        frame_op(&mut tail, &op(true, "P", &[2])).unwrap();
        frame_op(&mut tail, &op(true, "P", &[3])).unwrap();
        mem.set_bytes(tail);
        let (j2, r) = open_mem(&mem);
        assert!(r.truncated_bytes > 0);
        assert!(r.torn.is_none(), "whole records, just uncommitted");
        assert_eq!(r.sessions_replayed, 1);
        assert_eq!(r.ops.len(), 1);
        assert_eq!(j2.position(), committed_len);
        assert_eq!(mem.bytes().len() as u64, committed_len);
    }

    #[test]
    fn version_1_journals_are_refused() {
        let mut v1 = b"GOMJRNL1".to_vec();
        v1.extend_from_slice(&[1, 0, 0, 0]);
        assert!(matches!(scan(&v1), Err(StoreError::BadMagic)));
        let mem = MemBackend::new();
        mem.set_bytes(v1.clone());
        assert!(matches!(
            Journal::open(Box::new(mem.clone()), SyncPolicy::OnCommit),
            Err(StoreError::BadMagic)
        ));
        assert_eq!(mem.bytes(), v1, "a refused journal is left untouched");
    }

    #[test]
    fn snapshot_resets_the_replay_base() {
        let mem = MemBackend::new();
        let (mut j, _) = open_mem(&mem);
        j.commit(&[op(true, "P", &[1])]).unwrap();
        let mut bytes = mem.bytes();
        frame_snapshot(
            &mut bytes,
            &[SnapshotPred {
                pred: "P".into(),
                arity: 1,
                rows: vec![vec![JConst::Int(1)]],
            }],
        )
        .unwrap();
        mem.set_bytes(bytes);
        let (mut j, _) = open_mem(&mem);
        j.commit(&[op(true, "P", &[2])]).unwrap();
        let (_, r) = open_mem(&mem);
        assert!(r.snapshot.is_some());
        assert_eq!(r.sessions_replayed, 1); // only the post-snapshot session
        assert_eq!(r.ops.len(), 1);
    }

    #[test]
    fn rotate_replaces_history_with_one_record() {
        let mem = MemBackend::new();
        let (mut j, _) = open_mem(&mem);
        j.commit(&[op(true, "P", &[1]), op(true, "P", &[2])])
            .unwrap();
        j.commit(&[op(false, "P", &[1])]).unwrap();
        let history_len = j.position();
        let snap = [SnapshotPred {
            pred: "P".into(),
            arity: 1,
            rows: vec![vec![JConst::Int(2)]],
        }];
        let pos = j.rotate(&snap).unwrap();
        assert!(pos < history_len, "rotation must shrink the journal");
        assert_eq!(mem.bytes().len() as u64, pos);
        let mut image = MAGIC.to_vec();
        frame_snapshot(&mut image, &snap).unwrap();
        assert_eq!(mem.bytes(), image);
        let (_, r) = open_mem(&mem);
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

        let (mut j, _) = Journal::open_path(&path, SyncPolicy::OnCommit).unwrap();
        j.commit(&[op(true, "P", &[1])]).unwrap();
        j.rotate(&[]).unwrap();
        assert!(!tmp.exists(), "rotation must not leave its tmp file");
        assert_eq!(std::fs::metadata(&path).unwrap().len(), j.position());
        // The rotated file keeps accepting commits.
        j.commit(&[op(true, "P", &[2])]).unwrap();
        drop(j);

        // A stale tmp (crash before rename) is swept; the journal scans.
        std::fs::write(&tmp, b"garbage").unwrap();
        let (_, r) = Journal::open_path(&path, SyncPolicy::OnCommit).unwrap();
        assert!(!tmp.exists());
        assert!(r.snapshot.is_some());
        assert_eq!(r.sessions_replayed, 1);

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupted_crc_tail_truncates_to_boundary() {
        let mem = MemBackend::new();
        let (mut j, _) = open_mem(&mem);
        j.commit(&[op(true, "P", &[1])]).unwrap();
        let boundary = j.position();
        j.commit(&[op(true, "P", &[2])]).unwrap();
        // Corrupt one byte inside the second session's op payload.
        let mut bytes = mem.bytes();
        bytes[boundary as usize + 8 + 3] ^= 0xFF;
        mem.set_bytes(bytes);
        let (_, r) = open_mem(&mem);
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
        let (mut j, _) = open_mem(&mem);
        j.commit(&[op(true, "P", &[1]), op(false, "Q", &[2, 3])])
            .unwrap();
        j.commit(&[op(true, "P", &[4])]).unwrap();
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
