//! gomd — a concurrent schema service over the gomflex schema manager.
//!
//! The paper's evolution protocol (BES … EES, §3.5) is inherently
//! single-writer: a session may hold the schema base inconsistent for as
//! long as repairs take. gomd makes that safe to share: readers run
//! against epoch-published immutable snapshots ([`snapshot`]), writers
//! serialise through a FIFO lock with bounded waiting ([`session`]), and
//! everything travels over a small length-prefixed protocol
//! ([`wire`], gom-wire/v1) on a Unix socket ([`server`]).
//!
//! The service assumes hostile clients and networks (DESIGN.md §14):
//! session leases with a reaper, per-connection I/O deadlines, load
//! shedding at a connection bound, idempotent EES commit tokens, and a
//! typed retry vocabulary the client backs off on ([`client`]). The
//! deterministic chaos proxy used to validate all of it lives in
//! [`fault`].
//!
//! `gomsh --serve <sock>` hosts a daemon; `gomsh --connect <sock>` speaks
//! to one with the familiar shell verbs.

pub mod client;
pub mod fault;
pub mod server;
pub mod session;
pub mod snapshot;
pub mod wire;

pub use client::{Client, RetryPolicy, RetryStats};
pub use fault::{FaultPlan, FaultProxy, FaultStats};
pub use server::{serve, Config, ServerHandle, SlowEntry};
pub use session::{Acquire, SessionLock};
pub use snapshot::{ReaderCache, Snapshot, SnapshotCell};
pub use wire::{ErrorKind, EvolutionOp, ReadEvent, Reply, Request};
