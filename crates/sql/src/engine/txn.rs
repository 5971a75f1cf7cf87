//! The transaction seam. Every statement handler works on a [`Txn`]: it
//! reads the working catalog by reference, mutates it only through the
//! three write primitives (which record the redo op and the conflict base
//! state alongside the mutation), and buffers its audit and query-log rows
//! here until commit.

use super::database::{snapshot_of, Database, DbState};
use super::models::lineage_pinned_versions;
use super::{now_ms, AuditRecord, QueryLogEntry, QueryRuntime, StatementKind};
use crate::catalog::{AccessControl, Catalog, ObjectRef, Privilege};
use crate::error::{Result, SqlError};
use crate::sync;
use crate::table::Tail;
use crate::wal::{RedoOp, WalRecord};
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::Ordering;

/// Upper bound on rows per part flushed by offload.
const MAX_PART_ROWS: usize = 65_536;

/// Resident footprint estimate for a batch — the same coarse
/// 8-bytes-per-cell model the executor's memory accounting uses.
fn resident_bytes(b: &Tail) -> u64 {
    (b.num_rows() as u64) * (b.num_columns() as u64) * 8
}

/// One catalog object a transaction writes: the unit of conflict
/// detection, of install at commit, and of what commit hooks are told.
/// Names are lowercased.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ObjectKey {
    Table(String),
    View(String),
    Extension { kind: String, name: String },
}

impl std::fmt::Display for ObjectKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ObjectKey::Table(name) => write!(f, "table:{name}"),
            ObjectKey::View(name) => write!(f, "view:{name}"),
            ObjectKey::Extension { kind, name } => write!(f, "ext:{kind}:{name}"),
        }
    }
}

/// Base state of one object at transaction start, for conflict detection.
#[derive(Debug, Clone, PartialEq, Eq)]
enum BaseState {
    Absent,
    TableAt(u64),
    ExtensionAt(u64),
    ViewPresent,
}

pub(super) struct Txn {
    pub id: u64,
    /// The user every access check, audit row and log row is made for.
    pub user: String,
    catalog: Catalog,
    /// Objects this txn wrote, with the committed state they were based on.
    written: HashMap<ObjectKey, BaseState>,
    access_dirty: bool,
    /// True once any DDL ran (create/drop/alter of tables, views, or
    /// extension objects). A committing DDL txn bumps the database's DDL
    /// epoch, invalidating every cached plan.
    ddl: bool,
    /// Logical redo records, captured at mutation time in execution order.
    /// Replaying them over the base state reproduces the txn's effects.
    redo_buf: Vec<RedoOp>,
    log_buf: Vec<QueryLogEntry>,
    /// Interior-mutable so access checks need only `&Txn`: a statement's
    /// planner reads the working catalog by reference while its checks
    /// audit denials.
    audit_buf: RefCell<Vec<AuditRecord>>,
}

impl Txn {
    fn new(id: u64, user: &str, catalog: Catalog) -> Txn {
        Txn {
            id,
            user: user.to_string(),
            catalog,
            written: HashMap::new(),
            access_dirty: false,
            ddl: false,
            redo_buf: Vec::new(),
            log_buf: Vec::new(),
            audit_buf: RefCell::default(),
        }
    }

    /// Open a transaction on the committed state.
    pub fn begin(db: &Database, user: &str) -> Txn {
        let mut state = sync::write(&db.shared.state);
        let id = state.next_txn;
        state.next_txn += 1;
        Txn::new(id, user, state.catalog.clone())
    }

    /// A read-only view of the committed state for statements that run
    /// outside any transaction (cached SELECTs, `EXPLAIN`). It consumes no
    /// transaction id (its log rows carry txn 0) and is never committed:
    /// [`Txn::flush`] publishes what it logged.
    pub fn snapshot(db: &Database, user: &str) -> Txn {
        Txn::new(0, user, db.catalog())
    }

    /// The transaction's working catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    // ------------------------------------------------- write primitives

    /// Mutate the object behind `key`: `f` changes the working catalog and
    /// returns the redo op describing the change (`None` = nothing
    /// changed, nothing recorded). The committed state the write was based
    /// on is remembered for commit-time conflict detection.
    fn write<T>(
        &mut self,
        key: ObjectKey,
        ddl: bool,
        f: impl FnOnce(&mut Catalog, u64) -> Result<(T, Option<RedoOp>)>,
    ) -> Result<T> {
        let base = object_state(&self.catalog, &key);
        let (out, op) = f(&mut self.catalog, self.id)?;
        if let Some(op) = op {
            self.redo_buf.push(op);
            self.written.entry(key).or_insert(base);
            self.ddl |= ddl;
        }
        Ok(out)
    }

    /// Write a table; `ddl` marks schema-level changes (create, drop,
    /// alter, history truncation) as opposed to row writes.
    pub fn write_table<T>(
        &mut self,
        name: &str,
        ddl: bool,
        f: impl FnOnce(&mut Catalog, u64) -> Result<(T, Option<RedoOp>)>,
    ) -> Result<T> {
        self.write(ObjectKey::Table(name.to_ascii_lowercase()), ddl, f)
    }

    pub fn write_view<T>(
        &mut self,
        name: &str,
        f: impl FnOnce(&mut Catalog, u64) -> Result<(T, Option<RedoOp>)>,
    ) -> Result<T> {
        self.write(ObjectKey::View(name.to_ascii_lowercase()), true, f)
    }

    /// Write an extension object. `ddl: false` is for bookkeeping updates
    /// (the continuous-query cursor) that must not churn cached plans.
    pub fn write_extension<T>(
        &mut self,
        kind: &str,
        name: &str,
        ddl: bool,
        f: impl FnOnce(&mut Catalog, u64) -> Result<(T, Option<RedoOp>)>,
    ) -> Result<T> {
        let key = ObjectKey::Extension {
            kind: kind.to_string(),
            name: name.to_ascii_lowercase(),
        };
        self.write(key, ddl, f)
    }

    /// Users and grants, for modification (logged as one `AccessSet`).
    pub fn access_mut(&mut self) -> &mut AccessControl {
        self.access_dirty = true;
        &mut self.catalog.access
    }

    // ------------------------------------------------- access and audit

    pub fn check_access(&self, object: &ObjectRef, privilege: Privilege) -> Result<()> {
        let r = self.catalog.access.check(&self.user, object, privilege);
        if r.is_err() {
            self.audit("ACCESS DENIED", &object.name, &format!("{privilege:?}"));
        }
        r
    }

    /// A model is scoreable when the user holds Execute on it AND no
    /// policy hold is in force. Checked per-execute (not at plan time) so
    /// a hold placed by a continuous query bites immediately, including
    /// through cached plans.
    pub fn check_model_executable(&self, model: &str) -> Result<()> {
        self.check_access(&ObjectRef::extension(model), Privilege::Execute)?;
        let held = self.catalog.extension("model", model).is_ok_and(|obj| {
            obj.current().metadata.get("hold").and_then(|v| v.as_bool()) == Some(true)
        });
        if held {
            self.audit("HOLD BLOCKED", model, "model is on policy hold");
            return Err(SqlError::AccessDenied(format!("model '{model}' is on hold")));
        }
        Ok(())
    }

    /// What a query may touch: SELECT on every scanned table, EXECUTE (and
    /// no hold) on every scored model. A virtual table (`flock_metrics`)
    /// is not a catalog table and is readable by everyone.
    pub fn check_query_access(&self, tables: &[String], models: &[String]) -> Result<()> {
        for t in tables {
            if self.catalog.has_table(t) {
                self.check_access(&ObjectRef::table(t), Privilege::Select)?;
            }
        }
        models.iter().try_for_each(|m| self.check_model_executable(m))
    }

    pub fn require_superuser(&self, action: &str) -> Result<()> {
        if self.user.eq_ignore_ascii_case("admin") {
            Ok(())
        } else {
            Err(SqlError::AccessDenied(format!("{action} requires superuser")))
        }
    }

    pub fn audit(&self, action: &str, object: &str, detail: &str) {
        self.audit_buf.borrow_mut().push(AuditRecord {
            seq: 0, // assigned on flush
            user: self.user.clone(),
            action: action.to_string(),
            object: object.to_string(),
            detail: detail.to_string(),
            timestamp_ms: now_ms(),
        });
    }

    pub fn log(
        &mut self,
        sql: &str,
        kind: StatementKind,
        tables_read: Vec<String>,
        tables_written: Vec<String>,
        versions_written: Vec<(String, u64)>,
    ) {
        let runtime = QueryRuntime::default();
        self.log_runtime(sql, kind, tables_read, tables_written, versions_written, runtime);
    }

    pub fn log_runtime(
        &mut self,
        sql: &str,
        kind: StatementKind,
        tables_read: Vec<String>,
        tables_written: Vec<String>,
        versions_written: Vec<(String, u64)>,
        runtime: QueryRuntime,
    ) {
        self.log_buf.push(QueryLogEntry {
            id: 0, // assigned on flush
            txn_id: self.id,
            user: self.user.clone(),
            sql: sql.to_string(),
            kind,
            tables_read,
            tables_written,
            versions_written,
            timestamp_ms: now_ms(),
            rows_scanned: runtime.rows_scanned,
            rows_returned: runtime.rows_returned,
            elapsed_us: runtime.elapsed_us,
            parallel_ops: runtime.parallel_ops,
        });
    }

    // ------------------------------------------------- commit / abort

    /// Commit: conflict check, budget offload, write-ahead append, install.
    /// Returns the transaction id.
    pub fn commit(mut self, db: &Database) -> Result<u64> {
        let shared = &db.shared;
        let mut guard = sync::write(&shared.state);
        let state = &mut *guard;
        // Conflict detection: every written object must still be at its
        // base state in the committed catalog.
        for (key, base) in &self.written {
            if object_state(&state.catalog, key) != *base {
                return Err(SqlError::Transaction(format!(
                    "write-write conflict on '{key}' (txn {})",
                    self.id
                )));
            }
        }

        // Memory-budget offload rides this commit (durable databases
        // only). A part-write failure aborts the commit cleanly: nothing
        // reached the WAL and the committed catalog was never touched.
        if state.wal.is_some() {
            self.offload_over_budget(shared.table_memory_budget.load(Ordering::Relaxed))?;
        }

        // Write-ahead: encode and append the whole transaction (redo ops,
        // then its log and audit rows) before any in-memory install. An
        // I/O failure fails the commit outright — memory never runs ahead
        // of what the log accepted.
        let mut records = Vec::new();
        if state.wal.is_some() {
            let mut redo = self.redo_buf;
            if self.access_dirty {
                redo.push(RedoOp::AccessSet(self.catalog.access.dump()));
            }
            if !redo.is_empty() {
                records.push(WalRecord::Begin { txn_id: self.id });
                for op in redo {
                    records.push(WalRecord::Op {
                        txn_id: self.id,
                        op,
                    });
                }
                records.push(WalRecord::Commit { txn_id: self.id });
            }
        }
        append_logs(state, records, self.log_buf, self.audit_buf.into_inner())
            .map_err(|e| SqlError::Io(format!("wal append failed; commit aborted: {e}")))?;

        // Point of no return: install final states.
        for key in self.written.keys() {
            apply_object(&mut state.catalog, &self.catalog, key);
        }
        if self.access_dirty {
            state.catalog.access = self.catalog.access.clone();
        }

        // Committed DDL — or any grant/revoke — moves the epoch every
        // cached plan was validated against, so stale plans (including
        // ones a revoked user could still score through) die on their
        // next lookup.
        if self.ddl || self.access_dirty {
            shared.ddl_epoch.fetch_add(1, Ordering::Relaxed);
        }

        // Periodic checkpoint (best-effort: a failed checkpoint leaves the
        // previous one and the log intact, so it never loses data).
        if state.wal.as_mut().is_some_and(|w| w.note_commit()) {
            let snap = snapshot_of(state);
            if let Some(wal) = &mut state.wal {
                let _ = wal.checkpoint(&snap);
            }
        }

        // Commit hooks read the committed catalog under the read lock,
        // taken as the write lock drops: no commit lands while a hook
        // runs, so a hook that runs late sees the newest committed state
        // and cannot undo a later commit's effect.
        drop(guard);
        let hooks = sync::read(&shared.commit_hooks).clone();
        if !hooks.is_empty() {
            let keys: Vec<ObjectKey> = self.written.into_keys().collect();
            let state = sync::read(&shared.state);
            for hook in &hooks {
                hook(&state.catalog, &keys);
            }
        }
        Ok(self.id)
    }

    /// Abort, preserving the audit records — denied accesses and other
    /// security events must survive rollback. The failed transaction's
    /// query-log rows are dropped with it.
    pub fn abort(mut self, db: &Database) {
        self.log_buf.clear();
        self.flush(db);
    }

    /// Publish the buffered log and audit rows without committing anything
    /// else (how a [`Txn::snapshot`] ends).
    pub fn flush(self, db: &Database) {
        let audit = self.audit_buf.into_inner();
        if !(self.log_buf.is_empty() && audit.is_empty()) {
            // If the WAL rejects the rows they are dropped from memory
            // too: in-memory state never runs ahead of the log.
            let mut state = sync::write(&db.shared.state);
            let _ = append_logs(&mut state, Vec::new(), self.log_buf, audit);
        }
    }

    /// Commit-time offload: flush any written table whose resident bytes
    /// exceed the budget into disk parts and collapse its version history.
    /// Runs inside the committing transaction — the part-backed catalog
    /// installs with the commit and the history truncation rides the same
    /// WAL record batch, so a kill during the flush recovers to either the
    /// old state or the committed one, never a mix. Freshly flushed parts
    /// become reachable at the next checkpoint; until then a crash simply
    /// orphans them, and the next open queues them for deletion.
    fn offload_over_budget(&mut self, budget: u64) -> Result<()> {
        if budget == 0 {
            return Ok(());
        }
        let Some(store) = self.catalog.part_store().cloned() else {
            return Ok(());
        };
        let names: Vec<String> = self
            .written
            .keys()
            .filter_map(|k| match k {
                ObjectKey::Table(name) => Some(name.clone()),
                _ => None,
            })
            .collect();
        for name in names {
            let Ok(table) = self.catalog.table(&name) else {
                continue; // dropped in this transaction
            };
            let cur = table.current();
            if resident_bytes(&cur.data) <= budget {
                continue;
            }
            // Chunk so one part decodes back under half the budget: the
            // streaming scan's peak is then one part plus the tail.
            let ncols = cur.data.num_columns().max(1);
            let chunk_rows = ((budget as usize / (8 * ncols)) / 2).clamp(1, MAX_PART_ROWS);
            let mut parts = cur.parts.clone();
            for chunk in cur.data.collect()?.chunks(chunk_rows) {
                parts.push(store.write_part(&chunk, 0)?);
            }
            let tail = Tail::empty(cur.data.schema().clone());
            let pinned = lineage_pinned_versions(&self.catalog, &name);
            let table = self.catalog.table_mut(&name)?;
            let redo_table = table.name().to_string();
            table.replace_current_with_parts(parts, tail);
            // History versions hold the resident rows we just offloaded;
            // drop them unless a deployed model's lineage pins one (then
            // keep history and only the current version goes part-backed).
            if table
                .truncate_history_pinned(1, &pinned)
                .is_ok_and(|d| !d.is_empty())
            {
                self.redo_buf.push(RedoOp::TruncateHistory {
                    table: redo_table,
                    keep: 1,
                });
            }
        }
        Ok(())
    }
}

/// Number the log and audit rows, append them — after `records`, in one
/// write — to the WAL, and only then publish them in memory. Counters are
/// bumped only after the WAL accepts the records, so a failed append
/// consumes nothing.
fn append_logs(
    state: &mut DbState,
    mut records: Vec<WalRecord>,
    mut log: Vec<QueryLogEntry>,
    mut audit: Vec<AuditRecord>,
) -> std::io::Result<()> {
    let mut next_log_id = state.next_log_id;
    for e in &mut log {
        e.id = next_log_id;
        next_log_id += 1;
    }
    let mut next_audit_seq = state.next_audit_seq;
    for a in &mut audit {
        a.seq = next_audit_seq;
        next_audit_seq += 1;
    }
    if let Some(wal) = &mut state.wal {
        records.extend(log.iter().cloned().map(WalRecord::QueryLog));
        records.extend(audit.iter().cloned().map(WalRecord::Audit));
        if !records.is_empty() {
            wal.append(&records)?;
        }
    }
    state.next_log_id = next_log_id;
    state.next_audit_seq = next_audit_seq;
    state.query_log.extend(log);
    state.audit_log.extend(audit);
    Ok(())
}

/// Current committed state of the object behind `key`.
fn object_state(catalog: &Catalog, key: &ObjectKey) -> BaseState {
    match key {
        ObjectKey::Table(name) => match catalog.table(name) {
            Ok(t) => BaseState::TableAt(t.current_version()),
            Err(_) => BaseState::Absent,
        },
        ObjectKey::View(name) => match catalog.view(name) {
            Some(_) => BaseState::ViewPresent,
            None => BaseState::Absent,
        },
        ObjectKey::Extension { kind, name } => match catalog.extension(kind, name) {
            Ok(e) => BaseState::ExtensionAt(e.current().version),
            Err(_) => BaseState::Absent,
        },
    }
}

/// Copy the final state of `key` from `src` into `dst` (or remove it).
fn apply_object(dst: &mut Catalog, src: &Catalog, key: &ObjectKey) {
    match key {
        ObjectKey::Table(name) => dst.share_table(src, name),
        ObjectKey::View(name) => {
            let _ = dst.drop_view(name);
            if let Some(v) = src.view(name) {
                let _ = dst.create_view(v.clone());
            }
        }
        ObjectKey::Extension { kind, name } => {
            let _ = dst.drop_extension(kind, name);
            if let Ok(obj) = src.extension(kind, name) {
                let _ = dst.install_extension(obj.clone());
            }
        }
    }
}
