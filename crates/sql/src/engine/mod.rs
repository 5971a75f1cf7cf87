//! The database engine: sessions, transactions, DML, logging, auditing.
//!
//! Anatomy (one implementation of each decision):
//!
//! * [`database`] — the shared handle: committed state, knobs, open/recover.
//! * [`session`] — a connection: statement entry points, the plan cache
//!   front end, `SET`, and the `begin → handler(&mut Txn) → commit |
//!   rollback` wrapper every statement runs under.
//! * [`txn`] — the transaction seam: the working catalog, the three write
//!   primitives that record redo + conflict state, access checks, audit and
//!   query-log buffers, commit.
//! * [`query`] — the one SELECT pipeline (plan → ACL → session PREDICT
//!   strategy → rewriters → optimize → compile) and the one metered execution tail; top-level
//!   queries, `EXPLAIN`, training scans and subqueries all go through it.
//! * [`ddl`], [`dml`], [`models`] — statement handlers, `fn(&mut Txn,
//!   &StmtCtx, ..)`.
//! * [`background`] — the part merger and the continuous-query scheduler
//!   behind one ticker thread.

mod background;
mod database;
mod ddl;
mod dml;
mod models;
mod query;
mod session;
mod txn;

pub use database::{CommitHook, Database};
pub use session::{PreparedStatement, Session};
pub use txn::ObjectKey;

use crate::batch::RecordBatch;

/// Classification of a statement for the query log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StatementKind {
    Query,
    Insert,
    Update,
    Delete,
    Ddl,
    Txn,
    Grant,
    Other,
}

/// One entry in the query log; the provenance module's *lazy* capture mode
/// replays this log.
#[derive(Debug, Clone)]
pub struct QueryLogEntry {
    pub id: u64,
    pub txn_id: u64,
    pub user: String,
    pub sql: String,
    pub kind: StatementKind,
    pub tables_read: Vec<String>,
    pub tables_written: Vec<String>,
    /// Table versions produced by this statement (name, new version).
    pub versions_written: Vec<(String, u64)>,
    pub timestamp_ms: u64,
    /// Rows materialized by scans while executing this statement
    /// (0 for non-query statements).
    pub rows_scanned: u64,
    /// Rows returned to the client.
    pub rows_returned: u64,
    /// Wall time spent executing the physical plan, in microseconds.
    pub elapsed_us: u64,
    /// Operators that ran with parallel degree > 1.
    pub parallel_ops: u64,
}

/// Measured runtime of one executed query, folded into its log entry.
#[derive(Debug, Clone, Copy, Default)]
struct QueryRuntime {
    rows_scanned: u64,
    rows_returned: u64,
    elapsed_us: u64,
    parallel_ops: u64,
}

/// One audit record. Every data/model access and every privileged action
/// lands here — "auditably tracked" in the paper's words.
#[derive(Debug, Clone)]
pub struct AuditRecord {
    pub seq: u64,
    pub user: String,
    pub action: String,
    pub object: String,
    pub detail: String,
    pub timestamp_ms: u64,
}

fn now_ms() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

/// Result of executing one statement.
#[derive(Debug, Clone)]
pub struct QueryResult {
    /// Result rows for queries / EXPLAIN, `None` for DML/DDL.
    pub batch: Option<RecordBatch>,
    pub rows_affected: usize,
    pub message: String,
}

impl QueryResult {
    fn none(message: impl Into<String>) -> Self {
        QueryResult {
            batch: None,
            rows_affected: 0,
            message: message.into(),
        }
    }

    fn affected(n: usize, message: impl Into<String>) -> Self {
        QueryResult {
            batch: None,
            rows_affected: n,
            message: message.into(),
        }
    }

    /// A row-returning result (queries, `SHOW`, `DESCRIBE`).
    fn rows(batch: RecordBatch, message: impl Into<String>) -> Self {
        QueryResult {
            rows_affected: batch.num_rows(),
            batch: Some(batch),
            message: message.into(),
        }
    }
}
