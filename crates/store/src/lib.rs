//! # gom-store — durable evolution-session journal
//!
//! The paper's §3.5 protocol makes the evolution session (BES…EES) the
//! atomicity unit: *"undoing the evolution session is always among the
//! repairs."* This crate gives that unit durability. A [`Journal`] is an
//! append-only stream of length-prefixed, CRC-32-checksummed records with
//! the grammar
//!
//! ```text
//! MAGIC (Snapshot | Op* EesCommit)*
//! ```
//!
//! * `Op` — one primitive change of a committed session's delta
//!   (predicates and symbols stored by *name*, so a journal replays into
//!   a fresh process);
//! * `EesCommit` — the session's commit boundary;
//! * `Snapshot` — a full EDB image, written only by [`Journal::rotate`];
//!   recovery replays from it.
//!
//! Only committed sessions reach the journal: [`Journal::commit`] frames a
//! session's ops and its `EesCommit` into one buffer and writes it with a
//! single backend append (plus one sync), so BES and rollback never touch
//! the disk. A commit whose append or sync fails is truncated away before
//! the error is returned.
//!
//! Recovery ([`Journal::open`] → [`Replay`]) replays committed sessions
//! onto the latest snapshot and discards anything else: a torn record, ops
//! without their `EesCommit`, or a CRC mismatch truncates the journal to
//! the last session boundary — never a panic, whatever the bytes. Derived
//! facts (the IDB) are **not** persisted; the consistency control
//! re-derives them by fixpoint after replay.
//!
//! [`FailpointWriter`] provides deterministic fault injection: it kills
//! the byte stream at the Nth byte so a test harness can prove the
//! recovery invariant — the recovered store equals either the pre-BES or
//! the post-EES state, never anything in between.
//!
//! The crate depends only on `gom-obs` (for its counters): it speaks
//! strings and integers, and `gom-core` translates between [`JOp`]s and
//! deductive-database tuples.

#![warn(missing_docs)]

mod crc32;
mod error;
mod failpoint;
mod journal;
mod record;

pub use crc32::crc32;
pub use error::{StoreError, StoreResult};
pub use failpoint::FailpointWriter;
pub use journal::{scan, Backend, FileBackend, Journal, MemBackend, Replay, SyncPolicy};
pub use record::{JConst, JOp, SnapshotPred, MAGIC, MAX_RECORD};
