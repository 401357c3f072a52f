//! The common error type for kernel operations.

use std::fmt;

use crate::ids::{Dba, ObjectId, Scn, TxnId};

/// Result alias used across the workspace.
pub type Result<T> = std::result::Result<T, Error>;

/// Errors surfaced by the storage, redo, recovery and column-store layers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// The referenced object does not exist (or was dropped).
    UnknownObject(ObjectId),
    /// The referenced block has not been formatted.
    UnknownBlock(Dba),
    /// A row slot was out of range for its block.
    BadSlot { dba: Dba, slot: u16 },
    /// The transaction is not active (already committed/aborted or unknown).
    TxnNotActive(TxnId),
    /// A change vector arrived out of SCN order for its worker.
    OutOfOrderApply { dba: Dba, have: Scn, got: Scn },
    /// Snapshot too old: the requested snapshot predates available versions.
    SnapshotTooOld { dba: Dba, snapshot: Scn },
    /// Row is write-locked by another active transaction (row locks are
    /// held until commit, per Oracle's locking model).
    WriteConflict { dba: Dba, slot: u16, holder: TxnId },
    /// Unique-key violation on the identity index.
    DuplicateKey(i64),
    /// Key not found on an index fetch.
    KeyNotFound(i64),
    /// The column name or ordinal is not part of the schema.
    UnknownColumn(String),
    /// Value type does not match the column type.
    TypeMismatch { column: String },
    /// Operation attempted against a read-only standby.
    StandbyReadOnly,
    /// The standby instance has no published QuerySCN yet.
    NoQueryScn,
    /// The in-memory store has no usable data for the object on this instance.
    NotPopulated(ObjectId),
    /// Transport endpoint disconnected.
    TransportClosed,
    /// A wire frame failed checksum or structural decoding.
    WireCorrupt(String),
    /// A durability I/O operation failed (message stringified so the
    /// error stays `Clone + Eq`).
    Io(String),
    /// Configuration rejected.
    Config(String),
    /// A query request asked for an impossible combination.
    InvalidQuery(String),
    /// A pipeline stage failed (error or panic); recorded by the runtime
    /// health state and surfaced to callers awaiting the pipeline.
    StageFailed {
        /// Name of the failing stage.
        stage: String,
        /// The error message or panic payload.
        reason: String,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::UnknownObject(o) => write!(f, "unknown object {o:?}"),
            Error::UnknownBlock(d) => write!(f, "unknown block {d:?}"),
            Error::BadSlot { dba, slot } => write!(f, "bad slot {slot} in {dba:?}"),
            Error::TxnNotActive(t) => write!(f, "transaction {t:?} is not active"),
            Error::OutOfOrderApply { dba, have, got } => {
                write!(f, "out-of-order apply on {dba:?}: have {have:?}, got {got:?}")
            }
            Error::SnapshotTooOld { dba, snapshot } => {
                write!(f, "snapshot too old on {dba:?} at {snapshot:?}")
            }
            Error::WriteConflict { dba, slot, holder } => {
                write!(f, "row {dba:?}/{slot} locked by {holder:?}")
            }
            Error::DuplicateKey(k) => write!(f, "duplicate key {k}"),
            Error::KeyNotFound(k) => write!(f, "key {k} not found"),
            Error::UnknownColumn(c) => write!(f, "unknown column `{c}`"),
            Error::TypeMismatch { column } => write!(f, "type mismatch for column `{column}`"),
            Error::StandbyReadOnly => write!(f, "standby database is read-only"),
            Error::NoQueryScn => write!(f, "no QuerySCN published yet"),
            Error::NotPopulated(o) => write!(f, "object {o:?} not populated in the IMCS"),
            Error::TransportClosed => write!(f, "redo transport closed"),
            Error::WireCorrupt(msg) => write!(f, "corrupt wire frame: {msg}"),
            Error::Io(msg) => write!(f, "durability i/o error: {msg}"),
            Error::Config(msg) => write!(f, "configuration error: {msg}"),
            Error::InvalidQuery(msg) => write!(f, "invalid query: {msg}"),
            Error::StageFailed { stage, reason } => {
                write!(f, "pipeline stage `{stage}` failed: {reason}")
            }
        }
    }
}

impl std::error::Error for Error {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = Error::BadSlot { dba: Dba(5), slot: 9 };
        assert_eq!(e.to_string(), "bad slot 9 in dba:5");
        assert!(Error::StandbyReadOnly.to_string().contains("read-only"));
        assert!(Error::DuplicateKey(42).to_string().contains("42"));
    }

    #[test]
    fn errors_are_comparable() {
        assert_eq!(Error::NoQueryScn, Error::NoQueryScn);
        assert_ne!(Error::UnknownObject(ObjectId(1)), Error::UnknownObject(ObjectId(2)));
    }
}
