//! `gom-wire/v1` — the request/response protocol of the schema service.
//!
//! Every message travels as one frame:
//!
//! ```text
//! [len: u32 LE] [crc: u32 LE] [payload: len bytes]
//! ```
//!
//! where `crc` is the CRC-32 of the payload and the payload starts with a
//! one-byte tag. The framing is deliberately the same shape as the journal's
//! (`gom-store`), but the two formats are independent: the wire carries
//! *requests* in user vocabulary (type references as text, GOM source as
//! text), never interner indexes or journal records, so client and server
//! processes with different interning histories interoperate.
//!
//! The verb set mirrors the paper's session protocol plus the read-only
//! service verbs: `Bes` / `Op` / `Ees` / `Rollback` drive an evolution
//! session (single writer, FIFO queue), while `Query` / `Check` / `Lint` /
//! `Digest` run lock-free against the published epoch snapshot. Every
//! failure is a typed [`Reply::Error`]; a malformed or unlucky request can
//! never take the daemon down.
//!
//! The failure model adds three hostile-world verbs and replies:
//! `Renew` keeps an otherwise idle session's lease alive (any frame from
//! the holder renews implicitly), `Ees` carries an optional client-chosen
//! idempotency token echoed back in `Committed` (a retried commit whose
//! ack was lost is answered from the server's dedup cache, never applied
//! twice), and the server sheds excess connections with a structured
//! [`Reply::Overloaded`] instead of accepting-then-starving. A partial
//! frame that stalls past the per-connection I/O deadline is answered
//! with a typed `Timeout` error; a session whose lease the reaper expired
//! answers the zombie's next session frame with `LeaseExpired`.

use gom_store::crc32;
use std::io::{Read, Write};
use std::time::{Duration, Instant};

/// Protocol version, exchanged implicitly by the frame format tag space.
pub const WIRE_VERSION: u32 = 1;

/// Upper bound on one frame payload (defensive: a corrupt length field
/// must not trigger a huge allocation).
pub const MAX_FRAME: u32 = 1 << 24; // 16 MiB

/// One evolution primitive carried by a [`Request::Op`] frame, in user
/// vocabulary (`Name@Schema` type references, GOM source text).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EvolutionOp {
    /// Parse and lower GOM source into the session (or autocommit).
    Define(String),
    /// Add attribute `name : domain` to `ty`.
    AddAttr {
        /// Type reference (`Name@Schema`, builtin, or unique bare name).
        ty: String,
        /// Attribute name.
        name: String,
        /// Domain type reference.
        domain: String,
    },
    /// Delete attribute `name` from `ty`.
    DelAttr {
        /// Type reference.
        ty: String,
        /// Attribute name.
        name: String,
    },
    /// Delete a type with the given semantics
    /// (`restrict|reconnect|cascade|cascade-objects|orphan`).
    DelType {
        /// Type reference.
        ty: String,
        /// Deletion semantics keyword.
        semantics: String,
    },
}

/// A client request frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// Begin an evolution session (acquires the writer lock, FIFO).
    Bes,
    /// One evolution primitive — inside the session when the connection
    /// holds the writer lock, as a durable autocommit micro-session
    /// otherwise.
    Op(EvolutionOp),
    /// End the session: check; commit and publish a new epoch, or report
    /// violations (session stays open). `token`, when set, is a
    /// client-chosen idempotency token: the server remembers the committed
    /// `(epoch, changes)` under it, so a retried `Ees` whose ack was lost
    /// is answered from the cache instead of being applied twice.
    Ees {
        /// Optional idempotent-commit token (echoed in `Committed`).
        token: Option<u64>,
    },
    /// Roll the open session back and release the writer lock.
    Rollback,
    /// Datalog query against the published snapshot (lock-free).
    Query(String),
    /// Full consistency check against the published snapshot (lock-free).
    Check,
    /// Lint the published snapshot's schema base (lock-free).
    Lint,
    /// Service statistics: epoch, queue depth, obs table.
    Stats,
    /// The published snapshot's state digest (bit-identity testing).
    Digest,
    /// Ask the daemon to shut down gracefully.
    Shutdown,
    /// Pre-EES commit plan for the open session: impact footprint,
    /// breaking/non-breaking classification, `L06xx` diagnostics. Requires
    /// the writer lock (inspects the live session delta).
    Plan,
    /// Renew the session lease without doing any work. Any frame from the
    /// lock holder renews implicitly; `Renew` exists so an idle client
    /// (e.g. one waiting on user input mid-session) can keep its lease
    /// alive explicitly.
    Renew,
    /// Telemetry snapshot: vitals counters, per-verb latency histograms
    /// and the slow-request log, as one `gomd/metrics/v1` JSON payload
    /// (machine-readable counterpart of `Stats`). Lock-free.
    Metrics,
}

impl Request {
    /// The verb name, as used for per-verb latency histograms.
    pub fn verb(&self) -> &'static str {
        match self {
            Request::Bes => "bes",
            Request::Op(_) => "op",
            Request::Ees { .. } => "ees",
            Request::Rollback => "rollback",
            Request::Query(_) => "query",
            Request::Check => "check",
            Request::Lint => "lint",
            Request::Stats => "stats",
            Request::Digest => "digest",
            Request::Shutdown => "shutdown",
            Request::Plan => "plan",
            Request::Renew => "renew",
            Request::Metrics => "metrics",
        }
    }
}

/// Why a request failed, as a machine-readable class.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorKind {
    /// The writer lock could not be acquired before the timeout.
    Busy,
    /// The request violates the session protocol (e.g. `Ees` without a
    /// session).
    Protocol,
    /// The request itself is invalid (unknown type, bad query syntax…).
    BadRequest,
    /// The server failed internally; the session (if any) is still open.
    Internal,
    /// A partial frame stalled past the per-connection I/O deadline; the
    /// server closed the connection after this reply.
    Timeout,
    /// The session lease expired and the reaper rolled the session back;
    /// the lock was released. Start over with a fresh `Bes`.
    LeaseExpired,
}

impl ErrorKind {
    /// Stable lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            ErrorKind::Busy => "busy",
            ErrorKind::Protocol => "protocol",
            ErrorKind::BadRequest => "bad-request",
            ErrorKind::Internal => "internal",
            ErrorKind::Timeout => "timeout",
            ErrorKind::LeaseExpired => "lease-expired",
        }
    }

    /// Is a retry (with backoff) a sensible client reaction? `Busy` means
    /// the writer lock is contended; `Timeout` and `LeaseExpired` mean the
    /// client was too slow but the server state is clean again.
    pub fn retryable(self) -> bool {
        matches!(
            self,
            ErrorKind::Busy | ErrorKind::Timeout | ErrorKind::LeaseExpired
        )
    }
}

/// A server reply frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Reply {
    /// Success, with a human-readable confirmation.
    Ok(String),
    /// The session committed and a new epoch was published.
    Committed {
        /// The epoch the commit published.
        epoch: u64,
        /// Number of changes in the session's net delta.
        changes: u64,
        /// The idempotency token of the `Ees` that committed (0 when the
        /// client sent none). A replayed duplicate-token commit echoes
        /// the original epoch/changes under the same token.
        token: u64,
    },
    /// The check found violations; the session stays open.
    Violations(Vec<String>),
    /// Tabular query output.
    Rows {
        /// Column names.
        names: Vec<String>,
        /// Rows, rendered.
        rows: Vec<Vec<String>>,
    },
    /// A typed failure. The connection stays usable (except after
    /// `Timeout`, which the server follows with a close).
    Error {
        /// Failure class.
        kind: ErrorKind,
        /// Human-readable description.
        message: String,
    },
    /// The server is at its connection bound and shed this connection
    /// before reading any request; it closes the connection right after
    /// this frame. Retry with backoff.
    Overloaded {
        /// Connections being served when this one was shed.
        active: u64,
        /// The configured connection bound.
        max: u64,
    },
}

impl Reply {
    /// Convenience constructor for error replies.
    pub fn err(kind: ErrorKind, message: impl Into<String>) -> Reply {
        Reply::Error {
            kind,
            message: message.into(),
        }
    }
}

/// A frame that could not be decoded.
#[derive(Debug)]
pub struct WireError(pub String);

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "gom-wire: {}", self.0)
    }
}

impl std::error::Error for WireError {}

impl From<WireError> for std::io::Error {
    fn from(e: WireError) -> Self {
        std::io::Error::new(std::io::ErrorKind::InvalidData, e)
    }
}

type WireResult<T> = Result<T, WireError>;

fn corrupt(what: &str) -> WireError {
    WireError(what.to_string())
}

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

/// Write one frame.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> std::io::Result<()> {
    let mut head = [0u8; 8];
    head[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    head[4..].copy_from_slice(&crc32(payload).to_le_bytes());
    w.write_all(&head)?;
    w.write_all(payload)?;
    w.flush()
}

/// Read one frame's payload. `Ok(None)` means the peer closed the
/// connection cleanly at a frame boundary.
pub fn read_frame(r: &mut impl Read) -> std::io::Result<Option<Vec<u8>>> {
    let mut head = [0u8; 8];
    let mut got = 0;
    while got < head.len() {
        match r.read(&mut head[got..]) {
            Ok(0) => {
                if got == 0 {
                    return Ok(None);
                }
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "torn frame header",
                ));
            }
            Ok(n) => got += n,
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_le_bytes([head[0], head[1], head[2], head[3]]);
    let crc = u32::from_le_bytes([head[4], head[5], head[6], head[7]]);
    if len > MAX_FRAME {
        return Err(WireError(format!("frame length {len} out of bounds")).into());
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    if crc32(&payload) != crc {
        return Err(corrupt("frame CRC mismatch").into());
    }
    Ok(Some(payload))
}

/// Outcome of a deadline-aware frame read (see [`read_frame_deadline`]).
#[derive(Debug)]
pub enum ReadEvent {
    /// A complete, CRC-verified frame payload.
    Frame(Vec<u8>),
    /// The peer closed the connection cleanly at a frame boundary.
    Closed,
    /// A frame started arriving but did not complete within the deadline
    /// (a slow-loris partial frame). The stream is desynchronised; the
    /// caller should reply `Timeout` and close.
    Stalled,
    /// No frame had started and `keep_waiting` returned false (shutdown).
    Aborted,
}

/// Read one frame with a per-frame completion deadline.
///
/// The stream must have a short read timeout set (the poll tick): idle
/// waiting for the *first* byte of a frame is unbounded — an interactive
/// client may sit idle as long as it likes — but once any byte of a frame
/// has arrived, the rest must arrive within `frame_deadline` or the read
/// resolves to [`ReadEvent::Stalled`]. `keep_waiting` is consulted on
/// every idle poll tick; returning false aborts the wait (shutdown).
///
/// Errors are protocol failures (torn header mid-stream, CRC mismatch,
/// oversized length) or real I/O errors — never `WouldBlock`/`TimedOut`,
/// which this loop absorbs.
pub fn read_frame_deadline(
    r: &mut impl Read,
    frame_deadline: Duration,
    mut keep_waiting: impl FnMut() -> bool,
) -> std::io::Result<ReadEvent> {
    let mut head = [0u8; 8];
    let mut got = 0usize;
    let mut payload: Vec<u8> = Vec::new();
    let mut payload_len: Option<usize> = None;
    let mut filled = 0usize;
    let mut started: Option<Instant> = None;

    loop {
        let mut wait_outcome = |started: &Option<Instant>| -> Option<ReadEvent> {
            match started {
                Some(t0) if t0.elapsed() >= frame_deadline => Some(ReadEvent::Stalled),
                Some(_) => None,
                None if !keep_waiting() => Some(ReadEvent::Aborted),
                None => None,
            }
        };
        if payload_len.is_none() {
            // Header phase.
            match r.read(&mut head[got..]) {
                Ok(0) => {
                    if got == 0 {
                        return Ok(ReadEvent::Closed);
                    }
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::UnexpectedEof,
                        "torn frame header",
                    ));
                }
                Ok(n) => {
                    if started.is_none() {
                        started = Some(Instant::now());
                    }
                    got += n;
                    if got == head.len() {
                        let len = u32::from_le_bytes([head[0], head[1], head[2], head[3]]);
                        if len > MAX_FRAME {
                            return Err(
                                WireError(format!("frame length {len} out of bounds")).into()
                            );
                        }
                        payload = vec![0u8; len as usize];
                        payload_len = Some(len as usize);
                        filled = 0;
                    }
                }
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    if let Some(ev) = wait_outcome(&started) {
                        return Ok(ev);
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
            continue;
        }
        // Payload phase (len may be 0: fall through to the CRC check).
        let len = payload.len();
        if filled < len {
            match r.read(&mut payload[filled..]) {
                Ok(0) => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::UnexpectedEof,
                        "torn frame payload",
                    ));
                }
                Ok(n) => {
                    filled += n;
                    continue;
                }
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    if let Some(ev) = wait_outcome(&started) {
                        return Ok(ev);
                    }
                    continue;
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        let crc = u32::from_le_bytes([head[4], head[5], head[6], head[7]]);
        if crc32(&payload) != crc {
            return Err(corrupt("frame CRC mismatch").into());
        }
        return Ok(ReadEvent::Frame(payload));
    }
}

// ---------------------------------------------------------------------------
// Payload encoding
// ---------------------------------------------------------------------------

const REQ_BES: u8 = 1;
const REQ_OP: u8 = 2;
const REQ_EES: u8 = 3;
const REQ_ROLLBACK: u8 = 4;
const REQ_QUERY: u8 = 5;
const REQ_CHECK: u8 = 6;
const REQ_LINT: u8 = 7;
const REQ_STATS: u8 = 8;
const REQ_DIGEST: u8 = 9;
const REQ_SHUTDOWN: u8 = 10;
const REQ_PLAN: u8 = 11;
const REQ_RENEW: u8 = 12;
const REQ_METRICS: u8 = 13;

/// Tag opening a request-id envelope: `[0xE1][req_id: u64 LE][request]`.
/// Far outside the verb tag space so a bare request can never be mistaken
/// for an envelope (and vice versa).
const REQ_ENVELOPE: u8 = 0xE1;

const OP_DEFINE: u8 = 1;
const OP_ADD_ATTR: u8 = 2;
const OP_DEL_ATTR: u8 = 3;
const OP_DEL_TYPE: u8 = 4;

const REP_OK: u8 = 1;
const REP_COMMITTED: u8 = 2;
const REP_VIOLATIONS: u8 = 3;
const REP_ROWS: u8 = 4;
const REP_ERROR: u8 = 5;
const REP_OVERLOADED: u8 = 6;

const ERR_BUSY: u8 = 1;
const ERR_PROTOCOL: u8 = 2;
const ERR_BAD_REQUEST: u8 = 3;
const ERR_INTERNAL: u8 = 4;
const ERR_TIMEOUT: u8 = 5;
const ERR_LEASE_EXPIRED: u8 = 6;

fn put_u32(out: &mut Vec<u8>, n: u32) {
    out.extend_from_slice(&n.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, n: u64) {
    out.extend_from_slice(&n.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn put_str_list(out: &mut Vec<u8>, items: &[String]) {
    put_u32(out, items.len() as u32);
    for s in items {
        put_str(out, s);
    }
}

/// Cursor over a payload with bounds-checked reads.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize) -> WireResult<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or_else(|| corrupt("payload truncated"))?;
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> WireResult<u8> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> WireResult<u32> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> WireResult<u64> {
        let b = self.take(8)?;
        let mut buf = [0u8; 8];
        buf.copy_from_slice(b);
        Ok(u64::from_le_bytes(buf))
    }

    fn string(&mut self) -> WireResult<String> {
        let len = self.u32()?;
        if len > MAX_FRAME {
            return Err(corrupt("string length out of bounds"));
        }
        let bytes = self.take(len as usize)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| corrupt("string is not valid UTF-8"))
    }

    fn str_list(&mut self) -> WireResult<Vec<String>> {
        let n = self.u32()? as usize;
        let mut out = Vec::with_capacity(n.min(4096));
        for _ in 0..n {
            out.push(self.string()?);
        }
        Ok(out)
    }

    fn done(&self) -> WireResult<()> {
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(corrupt("trailing bytes in payload"))
        }
    }
}

impl Request {
    /// Encode the request payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Request::Bes => out.push(REQ_BES),
            Request::Ees { token } => {
                out.push(REQ_EES);
                match token {
                    Some(t) => {
                        out.push(1);
                        put_u64(&mut out, *t);
                    }
                    None => out.push(0),
                }
            }
            Request::Rollback => out.push(REQ_ROLLBACK),
            Request::Check => out.push(REQ_CHECK),
            Request::Lint => out.push(REQ_LINT),
            Request::Stats => out.push(REQ_STATS),
            Request::Digest => out.push(REQ_DIGEST),
            Request::Shutdown => out.push(REQ_SHUTDOWN),
            Request::Plan => out.push(REQ_PLAN),
            Request::Renew => out.push(REQ_RENEW),
            Request::Metrics => out.push(REQ_METRICS),
            Request::Query(q) => {
                out.push(REQ_QUERY);
                put_str(&mut out, q);
            }
            Request::Op(op) => {
                out.push(REQ_OP);
                match op {
                    EvolutionOp::Define(src) => {
                        out.push(OP_DEFINE);
                        put_str(&mut out, src);
                    }
                    EvolutionOp::AddAttr { ty, name, domain } => {
                        out.push(OP_ADD_ATTR);
                        put_str(&mut out, ty);
                        put_str(&mut out, name);
                        put_str(&mut out, domain);
                    }
                    EvolutionOp::DelAttr { ty, name } => {
                        out.push(OP_DEL_ATTR);
                        put_str(&mut out, ty);
                        put_str(&mut out, name);
                    }
                    EvolutionOp::DelType { ty, semantics } => {
                        out.push(OP_DEL_TYPE);
                        put_str(&mut out, ty);
                        put_str(&mut out, semantics);
                    }
                }
            }
        }
        out
    }

    /// Decode a request payload.
    pub fn decode(payload: &[u8]) -> WireResult<Request> {
        let mut r = Reader::new(payload);
        let req = match r.u8()? {
            REQ_BES => Request::Bes,
            REQ_EES => {
                let token = match r.u8()? {
                    0 => None,
                    1 => Some(r.u64()?),
                    _ => return Err(corrupt("bad ees token flag")),
                };
                Request::Ees { token }
            }
            REQ_ROLLBACK => Request::Rollback,
            REQ_CHECK => Request::Check,
            REQ_LINT => Request::Lint,
            REQ_STATS => Request::Stats,
            REQ_DIGEST => Request::Digest,
            REQ_SHUTDOWN => Request::Shutdown,
            REQ_PLAN => Request::Plan,
            REQ_RENEW => Request::Renew,
            REQ_METRICS => Request::Metrics,
            REQ_QUERY => Request::Query(r.string()?),
            REQ_OP => {
                let op = match r.u8()? {
                    OP_DEFINE => EvolutionOp::Define(r.string()?),
                    OP_ADD_ATTR => EvolutionOp::AddAttr {
                        ty: r.string()?,
                        name: r.string()?,
                        domain: r.string()?,
                    },
                    OP_DEL_ATTR => EvolutionOp::DelAttr {
                        ty: r.string()?,
                        name: r.string()?,
                    },
                    OP_DEL_TYPE => EvolutionOp::DelType {
                        ty: r.string()?,
                        semantics: r.string()?,
                    },
                    _ => return Err(corrupt("unknown op tag")),
                };
                Request::Op(op)
            }
            _ => return Err(corrupt("unknown request tag")),
        };
        r.done()?;
        Ok(req)
    }

    /// Encode the request wrapped in a request-id envelope
    /// (`[0xE1][req_id u64][request payload]`). Id 0 means "unassigned"
    /// and encodes as the bare request, so an id-less client and an
    /// id-aware client emit byte-identical frames for id 0.
    pub fn encode_with_id(&self, req_id: u64) -> Vec<u8> {
        if req_id == 0 {
            return self.encode();
        }
        let mut out = Vec::new();
        out.push(REQ_ENVELOPE);
        put_u64(&mut out, req_id);
        out.extend_from_slice(&self.encode());
        out
    }

    /// Decode a request payload that may or may not carry a request-id
    /// envelope. Bare requests (old clients, id-less tools) decode with
    /// id 0; enveloped requests yield the client-assigned id. The server
    /// always decodes through this so both wire dialects interoperate.
    pub fn decode_with_id(payload: &[u8]) -> WireResult<(u64, Request)> {
        if payload.first() == Some(&REQ_ENVELOPE) {
            let mut r = Reader::new(&payload[1..]);
            let req_id = r.u64()?;
            let req = Request::decode(&payload[1 + 8..])?;
            Ok((req_id, req))
        } else {
            Ok((0, Request::decode(payload)?))
        }
    }
}

impl Reply {
    /// Encode the reply payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Reply::Ok(msg) => {
                out.push(REP_OK);
                put_str(&mut out, msg);
            }
            Reply::Committed {
                epoch,
                changes,
                token,
            } => {
                out.push(REP_COMMITTED);
                put_u64(&mut out, *epoch);
                put_u64(&mut out, *changes);
                put_u64(&mut out, *token);
            }
            Reply::Overloaded { active, max } => {
                out.push(REP_OVERLOADED);
                put_u64(&mut out, *active);
                put_u64(&mut out, *max);
            }
            Reply::Violations(v) => {
                out.push(REP_VIOLATIONS);
                put_str_list(&mut out, v);
            }
            Reply::Rows { names, rows } => {
                out.push(REP_ROWS);
                put_str_list(&mut out, names);
                put_u32(&mut out, rows.len() as u32);
                for row in rows {
                    put_str_list(&mut out, row);
                }
            }
            Reply::Error { kind, message } => {
                out.push(REP_ERROR);
                out.push(match kind {
                    ErrorKind::Busy => ERR_BUSY,
                    ErrorKind::Protocol => ERR_PROTOCOL,
                    ErrorKind::BadRequest => ERR_BAD_REQUEST,
                    ErrorKind::Internal => ERR_INTERNAL,
                    ErrorKind::Timeout => ERR_TIMEOUT,
                    ErrorKind::LeaseExpired => ERR_LEASE_EXPIRED,
                });
                put_str(&mut out, message);
            }
        }
        out
    }

    /// Decode a reply payload.
    pub fn decode(payload: &[u8]) -> WireResult<Reply> {
        let mut r = Reader::new(payload);
        let rep = match r.u8()? {
            REP_OK => Reply::Ok(r.string()?),
            REP_COMMITTED => Reply::Committed {
                epoch: r.u64()?,
                changes: r.u64()?,
                token: r.u64()?,
            },
            REP_OVERLOADED => Reply::Overloaded {
                active: r.u64()?,
                max: r.u64()?,
            },
            REP_VIOLATIONS => Reply::Violations(r.str_list()?),
            REP_ROWS => {
                let names = r.str_list()?;
                let n = r.u32()? as usize;
                let mut rows = Vec::with_capacity(n.min(65_536));
                for _ in 0..n {
                    rows.push(r.str_list()?);
                }
                Reply::Rows { names, rows }
            }
            REP_ERROR => {
                let kind = match r.u8()? {
                    ERR_BUSY => ErrorKind::Busy,
                    ERR_PROTOCOL => ErrorKind::Protocol,
                    ERR_BAD_REQUEST => ErrorKind::BadRequest,
                    ERR_INTERNAL => ErrorKind::Internal,
                    ERR_TIMEOUT => ErrorKind::Timeout,
                    ERR_LEASE_EXPIRED => ErrorKind::LeaseExpired,
                    _ => return Err(corrupt("unknown error kind")),
                };
                Reply::Error {
                    kind,
                    message: r.string()?,
                }
            }
            _ => return Err(corrupt("unknown reply tag")),
        };
        r.done()?;
        Ok(rep)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn roundtrip_req(req: Request) {
        assert_eq!(Request::decode(&req.encode()).unwrap(), req);
    }

    fn roundtrip_rep(rep: Reply) {
        assert_eq!(Reply::decode(&rep.encode()).unwrap(), rep);
    }

    /// Every request variant, including the failure-model verbs — the
    /// exemplar set shared by the roundtrip, truncation, and mutation
    /// sweeps.
    fn all_requests() -> Vec<Request> {
        vec![
            Request::Bes,
            Request::Ees { token: None },
            Request::Ees {
                token: Some(0xDEAD_BEEF_0BAD_F00D),
            },
            Request::Rollback,
            Request::Check,
            Request::Lint,
            Request::Stats,
            Request::Digest,
            Request::Shutdown,
            Request::Plan,
            Request::Renew,
            Request::Metrics,
            Request::Query("Type(T, N, S)".into()),
            Request::Op(EvolutionOp::Define("schema S is end schema S;".into())),
            Request::Op(EvolutionOp::AddAttr {
                ty: "Car@CarSchema".into(),
                name: "fuelType".into(),
                domain: "string".into(),
            }),
            Request::Op(EvolutionOp::DelAttr {
                ty: "Car@CarSchema".into(),
                name: "λ-unicode".into(),
            }),
            Request::Op(EvolutionOp::DelType {
                ty: "Truck".into(),
                semantics: "cascade".into(),
            }),
        ]
    }

    /// Every reply variant, including `Overloaded` and the new error kinds.
    fn all_replies() -> Vec<Reply> {
        let mut reps = vec![
            Reply::Ok("BES".into()),
            Reply::Committed {
                epoch: 42,
                changes: 7,
                token: 0,
            },
            Reply::Committed {
                epoch: 43,
                changes: 1,
                token: u64::MAX,
            },
            Reply::Overloaded {
                active: 256,
                max: 256,
            },
            Reply::Violations(vec!["v1".into(), "v2".into()]),
            Reply::Rows {
                names: vec!["T".into(), "N".into()],
                rows: vec![
                    vec!["tid1".into(), "Car".into()],
                    vec![String::new(), "λ".into()],
                ],
            },
        ];
        for kind in [
            ErrorKind::Busy,
            ErrorKind::Protocol,
            ErrorKind::BadRequest,
            ErrorKind::Internal,
            ErrorKind::Timeout,
            ErrorKind::LeaseExpired,
        ] {
            reps.push(Reply::err(kind, "boom"));
        }
        reps
    }

    #[test]
    fn all_requests_roundtrip() {
        for req in all_requests() {
            roundtrip_req(req);
        }
    }

    #[test]
    fn all_replies_roundtrip() {
        for rep in all_replies() {
            roundtrip_rep(rep);
        }
    }

    /// Decoder never-panic property sweep: for every variant, (a) every
    /// strict truncation is a typed error, never a panic, and (b) ≥64
    /// seeded random single- and multi-byte mutations decode to either a
    /// typed error or some other valid value — the decoder must survive
    /// arbitrary bytes without panicking or over-allocating.
    #[test]
    fn decoder_survives_truncation_and_mutation() {
        let mut rng = gom_obs::SplitMix64::new(0x0C0F_FEE0_5EED);
        let mut sweep = |payload: Vec<u8>, decode: &dyn Fn(&[u8]) -> bool| {
            // Truncation at every byte offset: strictly shorter payloads
            // must be rejected (every variant encodes its exact length).
            for cut in 0..payload.len() {
                assert!(
                    !decode(&payload[..cut]),
                    "truncation at {cut}/{} decoded",
                    payload.len()
                );
            }
            // ≥64 random mutations: flip 1–4 bytes anywhere. The result
            // may decode (a flipped byte inside string content is still a
            // valid string) — the property is "returns, never panics".
            for _ in 0..64 {
                let mut bad = payload.clone();
                if bad.is_empty() {
                    continue;
                }
                let flips = 1 + (rng.next() as usize % 4);
                for _ in 0..flips {
                    let pos = rng.next() as usize % bad.len();
                    bad[pos] ^= (rng.next() % 255 + 1) as u8;
                }
                let _ = decode(&bad);
                // Random suffix extension must also never panic.
                let extra = rng.next() as usize % 16;
                for _ in 0..extra {
                    bad.push(rng.next() as u8);
                }
                let _ = decode(&bad);
            }
        };
        for req in all_requests() {
            sweep(req.encode(), &|b| Request::decode(b).is_ok());
            // The enveloped form must satisfy the same property.
            sweep(req.encode_with_id(0x1D_2D3D), &|b| {
                Request::decode_with_id(b).is_ok()
            });
        }
        for rep in all_replies() {
            sweep(rep.encode(), &|b| Reply::decode(b).is_ok());
        }
        // Pure noise payloads of every small length.
        for len in 0..128usize {
            let noise: Vec<u8> = (0..len).map(|_| rng.next() as u8).collect();
            let _ = Request::decode(&noise);
            let _ = Reply::decode(&noise);
        }
    }

    #[test]
    fn request_id_envelope_roundtrips_and_interoperates() {
        for req in all_requests() {
            // Enveloped form carries the id through.
            let (id, back) = Request::decode_with_id(&req.encode_with_id(77)).unwrap();
            assert_eq!(id, 77);
            assert_eq!(back, req);
            // A bare request decodes with id 0 — old clients keep working.
            let (id, back) = Request::decode_with_id(&req.encode()).unwrap();
            assert_eq!(id, 0);
            assert_eq!(back, req);
            // Id 0 encodes as the bare form (no envelope overhead).
            assert_eq!(req.encode_with_id(0), req.encode());
            // And u64::MAX survives.
            let (id, _) = Request::decode_with_id(&req.encode_with_id(u64::MAX)).unwrap();
            assert_eq!(id, u64::MAX);
        }
        // An envelope with nothing inside is a typed error.
        let mut bad = vec![0xE1u8];
        bad.extend_from_slice(&7u64.to_le_bytes());
        assert!(Request::decode_with_id(&bad).is_err());
        // The plain decoder rejects the envelope tag (it is not a verb).
        assert!(Request::decode(&Request::Bes.encode_with_id(9)).is_err());
    }

    #[test]
    fn frames_roundtrip_and_reject_corruption() {
        let payload = Request::Query("Attr(T, N, D)".into()).encode();
        let mut buf = Vec::new();
        write_frame(&mut buf, &payload).unwrap();
        let mut cursor = std::io::Cursor::new(buf.clone());
        let got = read_frame(&mut cursor).unwrap().expect("frame");
        assert_eq!(got, payload);
        // Clean EOF at a boundary.
        assert!(read_frame(&mut cursor).unwrap().is_none());
        // A flipped payload byte fails the CRC.
        let mut bad = buf.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x40;
        let mut cursor = std::io::Cursor::new(bad);
        assert!(read_frame(&mut cursor).is_err());
        // A torn header is an error, not a hang or a panic.
        let mut cursor = std::io::Cursor::new(buf[..5].to_vec());
        assert!(read_frame(&mut cursor).is_err());
        // An oversized length field is rejected before allocation.
        let mut huge = Vec::new();
        huge.extend_from_slice(&(MAX_FRAME + 1).to_le_bytes());
        huge.extend_from_slice(&0u32.to_le_bytes());
        let mut cursor = std::io::Cursor::new(huge);
        assert!(read_frame(&mut cursor).is_err());
    }

    /// A reader that yields its script of results one at a time, then
    /// `WouldBlock` forever — models a socket with a read timeout.
    struct ScriptedReader {
        chunks: Vec<Vec<u8>>,
        next: usize,
    }

    impl std::io::Read for ScriptedReader {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.next >= self.chunks.len() {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::WouldBlock,
                    "no more scripted bytes",
                ));
            }
            let chunk = &self.chunks[self.next];
            let n = chunk.len().min(buf.len());
            buf[..n].copy_from_slice(&chunk[..n]);
            if n == chunk.len() {
                self.next += 1;
            } else {
                self.chunks[self.next] = chunk[n..].to_vec();
            }
            Ok(n)
        }
    }

    #[test]
    fn deadline_reader_reassembles_dribbled_frames() {
        let payload = Request::Query("Attr(T, N, D)".into()).encode();
        let mut framed = Vec::new();
        write_frame(&mut framed, &payload).unwrap();
        // Dribble one byte per read with WouldBlock ticks in between.
        let mut r = ScriptedReader {
            chunks: framed.iter().map(|b| vec![*b]).collect(),
            next: 0,
        };
        match read_frame_deadline(&mut r, Duration::from_secs(5), || true).unwrap() {
            ReadEvent::Frame(got) => assert_eq!(got, payload),
            other => panic!("expected frame, got {other:?}"),
        }
    }

    #[test]
    fn deadline_reader_stalls_a_slow_loris_partial_frame() {
        let payload = Request::Bes.encode();
        let mut framed = Vec::new();
        write_frame(&mut framed, &payload).unwrap();
        // Only the first 5 bytes ever arrive: a partial header, then
        // silence. The read must resolve to Stalled, not loop forever.
        let mut r = ScriptedReader {
            chunks: vec![framed[..5].to_vec()],
            next: 0,
        };
        match read_frame_deadline(&mut r, Duration::from_millis(20), || true).unwrap() {
            ReadEvent::Stalled => {}
            other => panic!("expected stall, got {other:?}"),
        }
    }

    #[test]
    fn deadline_reader_idles_then_aborts_on_shutdown() {
        // No bytes at all: keep_waiting=false resolves to Aborted without
        // any deadline involvement (idle connections may wait forever).
        let mut r = ScriptedReader {
            chunks: vec![],
            next: 0,
        };
        let mut polls = 0;
        let ev = read_frame_deadline(&mut r, Duration::from_secs(600), || {
            polls += 1;
            polls < 3
        })
        .unwrap();
        assert!(matches!(ev, ReadEvent::Aborted), "got {ev:?}");
    }

    #[test]
    fn deadline_reader_rejects_corruption_and_eof() {
        let payload = Request::Check.encode();
        let mut framed = Vec::new();
        write_frame(&mut framed, &payload).unwrap();
        // CRC flip.
        let mut bad = framed.clone();
        let last = bad.len() - 1;
        bad[last] ^= 1;
        let mut r = ScriptedReader {
            chunks: vec![bad],
            next: 0,
        };
        assert!(read_frame_deadline(&mut r, Duration::from_secs(1), || true).is_err());
        // Clean close at a boundary.
        let mut r = std::io::Cursor::new(Vec::<u8>::new());
        match read_frame_deadline(&mut r, Duration::from_secs(1), || true).unwrap() {
            ReadEvent::Closed => {}
            other => panic!("expected closed, got {other:?}"),
        }
    }

    #[test]
    fn verbs_are_stable() {
        assert_eq!(Request::Bes.verb(), "bes");
        assert_eq!(Request::Query(String::new()).verb(), "query");
        assert_eq!(Request::Plan.verb(), "plan");
        assert_eq!(Request::Renew.verb(), "renew");
        assert_eq!(Request::Metrics.verb(), "metrics");
        assert_eq!(Request::Ees { token: Some(1) }.verb(), "ees");
        assert_eq!(ErrorKind::Busy.name(), "busy");
        assert_eq!(ErrorKind::Timeout.name(), "timeout");
        assert_eq!(ErrorKind::LeaseExpired.name(), "lease-expired");
        assert!(ErrorKind::Busy.retryable());
        assert!(!ErrorKind::BadRequest.retryable());
    }
}
