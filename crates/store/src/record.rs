//! Journal records and their wire format.
//!
//! Every record is framed as
//!
//! ```text
//! [len: u32 LE] [crc: u32 LE] [payload: len bytes]
//! ```
//!
//! where `crc` is the CRC-32 of the payload. The payload starts with a
//! one-byte tag. Identifiers are stored as UTF-8 strings — never as
//! interner indexes — so a journal replays into a *fresh* process whose
//! interner assigns different symbol numbers.
//!
//! Record sequence grammar (enforced by the recovery scan):
//!
//! ```text
//! journal  := MAGIC (Snapshot | session)*
//! session  := Op* EesCommit      -- written by one append
//! ```
//!
//! Ops with no `EesCommit` after them are a torn tail.

use crate::error::{StoreError, StoreResult};

/// File magic: identifies a gom evolution-session journal, version 2
/// (sessions framed as `Op* EesCommit`; version 1 had `Bes`/`EesRollback`
/// records and is refused).
pub const MAGIC: &[u8; 8] = b"GOMJRNL2";

/// Upper bound on a single record payload (defensive: a corrupt length
/// field must not trigger a huge allocation).
pub const MAX_RECORD: u32 = 1 << 26; // 64 MiB
/// Upper bound on one string inside a record.
const MAX_STR: u32 = 1 << 20; // 1 MiB

/// A constant as stored in the journal: portable across processes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JConst {
    /// A 64-bit integer.
    Int(i64),
    /// A symbol, stored by its string.
    Sym(String),
}

/// One base-predicate update, addressed by predicate *name*.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JOp {
    /// `true` = insert (`+P(t)`), `false` = delete (`−P(t)`).
    pub insert: bool,
    /// Predicate name.
    pub pred: String,
    /// The fact tuple.
    pub tuple: Vec<JConst>,
}

/// The full extension of one base predicate inside a snapshot.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SnapshotPred {
    /// Predicate name.
    pub pred: String,
    /// Declared arity (kept even when `rows` is empty).
    pub arity: u16,
    /// All stored facts, in deterministic (sorted) order.
    pub rows: Vec<Vec<JConst>>,
}

/// One decoded journal record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum Record {
    /// One primitive change of a committed session's delta.
    Op(JOp),
    /// End of a committed session (successful EES).
    EesCommit,
    /// A full EDB snapshot; recovery replays from the latest one.
    Snapshot(Vec<SnapshotPred>),
}

const TAG_OP: u8 = 2;
const TAG_EES_COMMIT: u8 = 3;
const TAG_SNAPSHOT: u8 = 5;

const CONST_INT: u8 = 0;
const CONST_SYM: u8 = 1;

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

fn put_u16(out: &mut Vec<u8>, n: u16) {
    out.extend_from_slice(&n.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, n: u32) {
    out.extend_from_slice(&n.to_le_bytes());
}

/// `n` as the integer type of its length field, or
/// [`StoreError::TooLarge`] naming the field.
fn fit<T: TryFrom<usize>>(n: usize, field: &'static str) -> StoreResult<T> {
    T::try_from(n).map_err(|_| StoreError::TooLarge(field))
}

fn put_str(out: &mut Vec<u8>, s: &str) -> StoreResult<()> {
    if s.len() > MAX_STR as usize {
        return Err(StoreError::TooLarge("string longer than 1 MiB"));
    }
    put_u32(out, s.len() as u32); // at most MAX_STR
    out.extend_from_slice(s.as_bytes());
    Ok(())
}

fn put_const(out: &mut Vec<u8>, c: &JConst) -> StoreResult<()> {
    match c {
        JConst::Int(n) => {
            out.push(CONST_INT);
            out.extend_from_slice(&n.to_le_bytes());
        }
        JConst::Sym(s) => {
            out.push(CONST_SYM);
            put_str(out, s)?;
        }
    }
    Ok(())
}

/// Append one framed record to `out`; `payload` writes the payload bytes.
/// A payload the recovery scan would reject — longer than [`MAX_RECORD`],
/// or with a length that does not fit its field — is refused with
/// [`StoreError::TooLarge`], and `out` must then be discarded.
fn frame(
    out: &mut Vec<u8>,
    payload: impl FnOnce(&mut Vec<u8>) -> StoreResult<()>,
) -> StoreResult<()> {
    let start = out.len();
    out.extend_from_slice(&[0; 8]);
    payload(out)?;
    let body = &out[start + 8..];
    if body.len() > MAX_RECORD as usize {
        return Err(StoreError::TooLarge("record longer than 64 MiB"));
    }
    let (len, crc) = (body.len() as u32, crate::crc32::crc32(body));
    out[start..start + 4].copy_from_slice(&len.to_le_bytes());
    out[start + 4..start + 8].copy_from_slice(&crc.to_le_bytes());
    Ok(())
}

/// Append a framed `Op` record.
pub(crate) fn frame_op(out: &mut Vec<u8>, op: &JOp) -> StoreResult<()> {
    frame(out, |out| {
        out.push(TAG_OP);
        out.push(u8::from(op.insert));
        put_str(out, &op.pred)?;
        put_u16(out, fit(op.tuple.len(), "tuple arity")?);
        for c in &op.tuple {
            put_const(out, c)?;
        }
        Ok(())
    })
}

/// Append a framed `EesCommit` record.
pub(crate) fn frame_commit(out: &mut Vec<u8>) -> StoreResult<()> {
    frame(out, |out| {
        out.push(TAG_EES_COMMIT);
        Ok(())
    })
}

/// Append a framed `Snapshot` record.
pub(crate) fn frame_snapshot(out: &mut Vec<u8>, preds: &[SnapshotPred]) -> StoreResult<()> {
    frame(out, |out| {
        out.push(TAG_SNAPSHOT);
        put_u32(out, fit(preds.len(), "snapshot predicate count")?);
        for sp in preds {
            put_str(out, &sp.pred)?;
            put_u16(out, sp.arity);
            put_u32(out, fit(sp.rows.len(), "snapshot row count")?);
            for row in &sp.rows {
                for c in row {
                    put_const(out, c)?;
                }
            }
        }
        Ok(())
    })
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

/// Cursor over a payload with bounds-checked reads.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize) -> StoreResult<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or(StoreError::Corrupt("record payload truncated"))?;
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> StoreResult<u8> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> StoreResult<u16> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self) -> StoreResult<u32> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn i64(&mut self) -> StoreResult<i64> {
        let b = self.take(8)?;
        let mut buf = [0u8; 8];
        buf.copy_from_slice(b);
        Ok(i64::from_le_bytes(buf))
    }

    fn string(&mut self) -> StoreResult<String> {
        let len = self.u32()?;
        if len > MAX_STR {
            return Err(StoreError::Corrupt("string length out of bounds"));
        }
        let bytes = self.take(len as usize)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| StoreError::Corrupt("string is not valid UTF-8"))
    }

    fn constant(&mut self) -> StoreResult<JConst> {
        match self.u8()? {
            CONST_INT => Ok(JConst::Int(self.i64()?)),
            CONST_SYM => Ok(JConst::Sym(self.string()?)),
            _ => Err(StoreError::Corrupt("unknown constant tag")),
        }
    }

    fn done(&self) -> StoreResult<()> {
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(StoreError::Corrupt("trailing bytes in record payload"))
        }
    }
}

impl Record {
    /// Decode a payload (framing already stripped and CRC verified).
    pub(crate) fn decode_payload(payload: &[u8]) -> StoreResult<Record> {
        let mut r = Reader::new(payload);
        let rec = match r.u8()? {
            TAG_EES_COMMIT => Record::EesCommit,
            TAG_OP => {
                let insert = match r.u8()? {
                    0 => false,
                    1 => true,
                    _ => return Err(StoreError::Corrupt("bad op direction")),
                };
                let pred = r.string()?;
                let arity = r.u16()? as usize;
                let mut tuple = Vec::with_capacity(arity.min(64));
                for _ in 0..arity {
                    tuple.push(r.constant()?);
                }
                Record::Op(JOp {
                    insert,
                    pred,
                    tuple,
                })
            }
            TAG_SNAPSHOT => {
                let npreds = r.u32()? as usize;
                let mut preds = Vec::with_capacity(npreds.min(1024));
                for _ in 0..npreds {
                    let pred = r.string()?;
                    let arity = r.u16()?;
                    let nrows = r.u32()? as usize;
                    let mut rows = Vec::with_capacity(nrows.min(1 << 16));
                    for _ in 0..nrows {
                        let mut row = Vec::with_capacity(arity as usize);
                        for _ in 0..arity {
                            row.push(r.constant()?);
                        }
                        rows.push(row);
                    }
                    preds.push(SnapshotPred { pred, arity, rows });
                }
                Record::Snapshot(preds)
            }
            _ => return Err(StoreError::Corrupt("unknown record tag")),
        };
        r.done()?;
        Ok(rec)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    /// Frame `rec`, strip and check the frame, and decode it back.
    fn roundtrip(rec: Record) {
        let mut framed = Vec::new();
        match &rec {
            Record::Op(op) => frame_op(&mut framed, op),
            Record::EesCommit => frame_commit(&mut framed),
            Record::Snapshot(preds) => frame_snapshot(&mut framed, preds),
        }
        .unwrap();
        let len = u32::from_le_bytes([framed[0], framed[1], framed[2], framed[3]]);
        assert_eq!(len as usize, framed.len() - 8);
        let crc = u32::from_le_bytes([framed[4], framed[5], framed[6], framed[7]]);
        assert_eq!(crc, crate::crc32::crc32(&framed[8..]));
        assert_eq!(Record::decode_payload(&framed[8..]).unwrap(), rec);
    }

    fn op_payload(op: &JOp) -> Vec<u8> {
        let mut framed = Vec::new();
        frame_op(&mut framed, op).unwrap();
        framed.split_off(8)
    }

    #[test]
    fn all_record_kinds_roundtrip() {
        roundtrip(Record::EesCommit);
        roundtrip(Record::Op(JOp {
            insert: true,
            pred: "Attr".into(),
            tuple: vec![
                JConst::Sym("tid4".into()),
                JConst::Sym("fuelType".into()),
                JConst::Int(-7),
            ],
        }));
        roundtrip(Record::Snapshot(vec![
            SnapshotPred {
                pred: "Type".into(),
                arity: 3,
                rows: vec![
                    vec![
                        JConst::Sym("tid1".into()),
                        JConst::Sym("Car".into()),
                        JConst::Sym("sid1".into()),
                    ],
                    vec![
                        JConst::Sym("tid2".into()),
                        JConst::Sym("Person".into()),
                        JConst::Sym("sid1".into()),
                    ],
                ],
            },
            SnapshotPred {
                pred: "Empty".into(),
                arity: 2,
                rows: vec![],
            },
        ]));
    }

    #[test]
    fn unicode_and_empty_symbols_roundtrip() {
        roundtrip(Record::Op(JOp {
            insert: false,
            pred: "P".into(),
            tuple: vec![JConst::Sym("λ→'quote'".into()), JConst::Sym(String::new())],
        }));
    }

    #[test]
    fn truncated_payload_is_an_error_not_a_panic() {
        let full = op_payload(&JOp {
            insert: true,
            pred: "Attr".into(),
            tuple: vec![JConst::Int(1)],
        });
        for cut in 0..full.len() {
            assert!(Record::decode_payload(&full[..cut]).is_err(), "cut={cut}");
        }
    }

    #[test]
    fn garbage_tags_rejected() {
        assert!(Record::decode_payload(&[0xFF]).is_err());
        assert!(Record::decode_payload(&[]).is_err());
        // The version-1 `Bes` and `EesRollback` tags are gone.
        assert!(Record::decode_payload(&[1]).is_err());
        assert!(Record::decode_payload(&[4]).is_err());
        // Op with bad direction byte.
        assert!(Record::decode_payload(&[TAG_OP, 9]).is_err());
    }
}
