//! Error type for the journal store.

use std::fmt;

/// Errors raised by the journal store.
#[derive(Debug)]
pub enum StoreError {
    /// An I/O error from the backing file (or a failpoint-injected crash).
    Io(std::io::Error),
    /// A record payload does not decode (the recovery scan treats it as
    /// the start of a torn tail).
    Corrupt(&'static str),
    /// The file does not start with the journal magic.
    BadMagic,
    /// A failed commit could not be truncated away, so the journal's tail
    /// is unknown: every later commit and rotation is refused until the
    /// journal is reopened (recovery then truncates the torn tail).
    Poisoned(&'static str),
    /// A record to be written does not fit the record format (the payload
    /// exceeds `MAX_RECORD`, or a length exceeds its field). Nothing was
    /// written.
    TooLarge(&'static str),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "journal I/O error: {e}"),
            StoreError::Corrupt(msg) => write!(f, "journal corrupt: {msg}"),
            StoreError::BadMagic => write!(f, "not a gom journal (bad magic)"),
            StoreError::Poisoned(msg) => write!(f, "journal refuses writes: {msg}"),
            StoreError::TooLarge(msg) => write!(f, "journal record too large: {msg}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// Result alias.
pub type StoreResult<T> = std::result::Result<T, StoreError>;
