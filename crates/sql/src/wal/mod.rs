//! Durability: write-ahead logging, checkpoints, and crash recovery.
//!
//! The paper makes the DBMS the system of record for EGML — tables, model
//! versions, and audit trails all live in the catalog — so losing them on
//! process exit is not an option. This module gives `flock-sql` an
//! ARIES-style redo log:
//!
//! * every commit appends length-prefixed, checksummed records (BEGIN, one
//!   logical redo record per catalog mutation, COMMIT, then the committed
//!   query-log and audit entries) to the active segment and — when
//!   [`DurabilityOptions::fsync_on_commit`] is set — fsyncs before the
//!   commit is acknowledged;
//! * a periodic checkpoint snapshots the whole committed state (table
//!   version chains, views, extension objects such as models, grants, and
//!   both logs) so recovery never replays unbounded history;
//! * [`recover`](crate::engine::Database::open_with_fs) loads the newest
//!   valid checkpoint and replays subsequent segments, discarding torn
//!   tails and transactions without a COMMIT record.
//!
//! All I/O goes through the [`DurableFs`] trait so tests can run the
//! engine against an in-memory filesystem ([`MemFs`]) and a deterministic
//! fault injector ([`FailpointFs`]) that kills the "process" at any chosen
//! write/fsync boundary.
//!
//! Serialization is a hand-rolled binary codec (not serde): the format is
//! explicitly versioned, byte-stable across platforms, and — because
//! recovery asserts bit-identical state — deterministic: maps are encoded
//! in sorted order and floats by their IEEE-754 bit pattern.

mod checkpoint;
pub(crate) mod codec;
mod fs;
mod manager;
mod record;

pub use checkpoint::Snapshot;
pub use codec::{checksum64, frame, frame_header, frame_with, FRAME_HEADER};
pub use fs::{DurableFs, FailpointFs, MemFs, StdFs};
pub(crate) use manager::build_snapshot;
pub use manager::{recover, RecoveredState, WalManager};
pub use record::{RedoOp, RowRuns, WalRecord};

/// Knobs for the durability subsystem.
///
/// `fsync_on_commit` is the classic latency/durability trade: when `true`
/// (the default) a commit is acknowledged only after its log records are
/// fsynced, so an acknowledged commit survives any crash; when `false`
/// records are appended but not synced, so a crash may lose a suffix of
/// recently acknowledged commits (recovery still lands on a consistent
/// committed prefix — never a torn or uncommitted state).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DurabilityOptions {
    /// Fsync the active segment before acknowledging each commit.
    pub fsync_on_commit: bool,
    /// Write a checkpoint after this many commits (0 disables automatic
    /// checkpoints; `Database::checkpoint_now` still works).
    pub checkpoint_every_commits: u64,
    /// How many checkpoints to retain. The older retained checkpoints (and
    /// the segments needed to replay from them) let recovery fall back if
    /// the newest checkpoint file is lost or corrupt. Clamped to >= 1.
    pub keep_checkpoints: usize,
}

impl Default for DurabilityOptions {
    fn default() -> Self {
        DurabilityOptions {
            fsync_on_commit: true,
            checkpoint_every_commits: 64,
            keep_checkpoints: 2,
        }
    }
}

impl DurabilityOptions {
    /// No fsync: buffered logging for bulk loads and benchmarks.
    pub fn buffered() -> Self {
        DurabilityOptions {
            fsync_on_commit: false,
            ..Default::default()
        }
    }
}

/// Deterministic digest of a state snapshot. Two states are bit-identical
/// iff their canonical encodings match, so comparing digests is how the
/// fault-injection harness asserts exact recovery.
pub fn digest(snapshot: &Snapshot) -> u64 {
    codec::checksum64(&checkpoint::encode_snapshot(snapshot))
}
