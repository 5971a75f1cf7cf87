//! The database engine: sessions, transactions, DML, logging, auditing.

use crate::ast::{
    AlterAction, ColumnDecl, Expr, GrantObject, InsertSource, PredictStrategy, Statement,
    WindowSpec,
};
use crate::batch::RecordBatch;
use crate::catalog::{Catalog, ObjectRef, Privilege, ViewDef};
use crate::column::ColumnVector;
use crate::error::{Result, SqlError};
use crate::exec::window::WindowAggState;
use crate::exec::{
    create_physical_plan, AdmissionController, AdmissionSlot, CancelHandle, CancelToken,
    EngineMetrics, EvalContext, ExecOptions, OpSnapshot, PhysExpr, PlanMetrics, QueryBudget,
};
use crate::stream::{compile_cq, CompiledCq, CqSpec, StreamSpec, CQ_KIND, STREAM_KIND};
use crate::lexer::Token;
use crate::optimizer::{optimize, OptimizerConfig};
use crate::plan::{plan_query, rewrite_expr, LogicalPlan, PlanContext, PlanRewriter, SubqueryRunner};
use crate::plancache::{bind_slots, normalize, CacheHit, CacheKey, CachedPlan, ParamSlot, PlanCache};
use crate::schema::{ColumnDef, Schema};
use crate::table::Table;
use crate::trainer::{NoTrainer, TrainSpec, TrainerRef};
use crate::types::{DataType, Value};
use crate::udf::{NoInference, ProviderRef};
use crate::wal::{DurabilityOptions, DurableFs, RedoOp, StdFs, WalManager, WalRecord};
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};

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

struct DbState {
    catalog: Catalog,
    next_txn: u64,
    next_log_id: u64,
    next_audit_seq: u64,
    query_log: Vec<QueryLogEntry>,
    audit_log: Vec<AuditRecord>,
    /// Write-ahead log; `None` for a purely in-memory database.
    wal: Option<WalManager>,
}

/// Canonical snapshot of the committed state (checkpoints and digests).
fn snapshot_of(state: &DbState) -> crate::wal::Snapshot {
    crate::wal::build_snapshot(
        &state.catalog,
        state.next_txn,
        state.next_log_id,
        state.next_audit_seq,
        &state.query_log,
        &state.audit_log,
    )
}

/// Upper bound on rows per part flushed by offload.
const MAX_PART_ROWS: usize = 65_536;
/// A merge folds at least this many consecutive same-level parts.
const MERGE_MIN_PARTS: usize = 4;
/// ... and never produces a part with more rows than this.
const MERGE_MAX_ROWS: u64 = 262_144;
/// Decoded-bytes cap for a merge when no memory budget is set.
const MERGE_DEFAULT_BYTES: u64 = 16 << 20;

/// Decoded-size cap for one merge: half the table memory budget (the
/// streaming scan decodes one part at a time, so this keeps a merged
/// part's decode within the same envelope), or a fixed default.
fn merge_byte_cap(budget: u64) -> u64 {
    if budget > 0 {
        (budget / 2).max(1)
    } else {
        MERGE_DEFAULT_BYTES
    }
}

/// Resident footprint estimate for a batch — the same coarse
/// 8-bytes-per-cell model the executor's memory accounting uses.
fn resident_bytes(b: &RecordBatch) -> u64 {
    (b.num_rows() as u64) * (b.num_columns() as u64) * 8
}

/// Reset the part store's inventory counters to the set of parts the live
/// catalog references (deduplicated: appends share parts across versions).
fn sync_part_inventory(catalog: &Catalog) {
    let Some(store) = catalog.part_store() else { return };
    let mut live: std::collections::BTreeMap<u64, &crate::parts::PartMeta> =
        std::collections::BTreeMap::new();
    for name in catalog.table_names() {
        if let Ok(t) = catalog.table(&name) {
            for v in t.versions() {
                for p in &v.parts {
                    live.insert(p.id, p);
                }
            }
        }
    }
    store.set_inventory(live.into_values());
}

/// Rewrite a snapshot into its fully resident logical form: each
/// part-backed version gets its parts decoded and prepended to the tail,
/// and its manifest cleared. Best-effort — an unreadable part leaves that
/// version physical (a state recovery would reject anyway).
fn logicalize_snapshot(
    snap: &mut crate::wal::Snapshot,
    store: Option<&Arc<crate::parts::PartStore>>,
) {
    let Some(store) = store else { return };
    for t in &mut snap.tables {
        for v in &mut t.versions {
            if v.parts.is_empty() {
                continue;
            }
            let mut batches = Vec::with_capacity(v.parts.len() + 1);
            let all_readable = v.parts.iter().all(|p| match store.read_part(p.id) {
                Ok(b) => {
                    batches.push(b);
                    true
                }
                Err(_) => false,
            });
            if !all_readable {
                continue;
            }
            batches.push(v.data.clone());
            if let Ok(full) = RecordBatch::concat(v.data.schema().clone(), &batches) {
                v.data = full;
                v.parts.clear();
            }
        }
    }
}

/// Fully materialize a table version: decode its disk parts (in order)
/// ahead of the resident tail. Full-rewrite paths (UPDATE/DELETE/ALTER)
/// go through this, so the new version they install never silently drops
/// rows that lived on disk.
fn materialize_version(
    catalog: &Catalog,
    v: &crate::table::TableVersion,
) -> Result<RecordBatch> {
    if v.parts.is_empty() {
        return Ok(v.data.clone());
    }
    let store = catalog.part_store().ok_or_else(|| {
        SqlError::Io("table has disk parts but no part store is attached".into())
    })?;
    let mut batches = Vec::with_capacity(v.parts.len() + 1);
    for p in &v.parts {
        batches.push(store.read_part(p.id)?);
    }
    batches.push(v.data.clone());
    RecordBatch::concat(v.data.schema().clone(), &batches)
}

/// One size-tiered merge step: find a run of [`MERGE_MIN_PARTS`]+
/// consecutive same-level parts in some table's current version whose
/// combined decoded size fits under `byte_cap`, fold them into a single
/// next-level part, and splice it in place. Decode and encode run outside
/// the catalog lock (parts are immutable); the splice re-verifies the run
/// is still current before swapping, and never deletes the source files —
/// older versions and older checkpoints may still reference them, so
/// reclamation belongs to checkpoint pruning. Purely physical: no WAL
/// record, no version bump, no logical-digest change.
fn merge_step(state: &RwLock<DbState>, byte_cap: u64) -> bool {
    let (name, start, run, store) = {
        let st = state.read();
        let Some(store) = st.catalog.part_store().cloned() else {
            return false;
        };
        let mut found = None;
        'tables: for name in st.catalog.table_names() {
            let Ok(table) = st.catalog.table(&name) else { continue };
            let parts = &table.current().parts;
            let mut i = 0;
            while i + MERGE_MIN_PARTS <= parts.len() {
                let level = parts[i].level;
                let mut j = i;
                let (mut rows, mut bytes) = (0u64, 0u64);
                while j < parts.len()
                    && parts[j].level == level
                    && rows + parts[j].rows <= MERGE_MAX_ROWS
                    && bytes + parts[j].decoded_bytes() <= byte_cap
                {
                    rows += parts[j].rows;
                    bytes += parts[j].decoded_bytes();
                    j += 1;
                }
                if j - i >= MERGE_MIN_PARTS {
                    found = Some((name.clone(), i, parts[i..j].to_vec()));
                    break 'tables;
                }
                i = if j > i { j } else { i + 1 };
            }
        }
        match found {
            Some((name, start, run)) => (name, start, run, store),
            None => return false,
        }
    };

    let mut batches = Vec::with_capacity(run.len());
    for m in &run {
        match store.read_part(m.id) {
            Ok(b) => batches.push(b),
            Err(_) => return false,
        }
    }
    let schema = batches[0].schema().clone();
    let Ok(folded) = RecordBatch::concat(schema, &batches) else {
        return false;
    };
    let Ok(merged) = store.write_part(&folded, run[0].level.saturating_add(1)) else {
        return false;
    };

    let mut st = state.write();
    let Ok(table) = st.catalog.table_mut(&name) else {
        store.remove_part(&merged);
        return false;
    };
    let cur = table.current();
    let still_current = cur.parts.len() >= start + run.len()
        && cur.parts[start..start + run.len()]
            .iter()
            .zip(&run)
            .all(|(a, b)| a.id == b.id);
    if !still_current {
        store.remove_part(&merged);
        return false;
    }
    let mut parts = cur.parts.clone();
    let tail = cur.data.clone();
    parts.splice(start..start + run.len(), [merged]);
    table.replace_current_with_parts(parts, tail);
    store.note_merged(run.len() as u64);
    true
}

/// Handle to the background part-merge thread: signals stop and joins on
/// drop (the last database handle dropping takes the thread with it).
struct MergerGuard {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl MergerGuard {
    fn spawn(state: Weak<RwLock<DbState>>, budget: Arc<AtomicU64>) -> MergerGuard {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = stop.clone();
        let handle = std::thread::Builder::new()
            .name("flock-part-merger".into())
            .spawn(move || loop {
                std::thread::sleep(std::time::Duration::from_millis(25));
                if flag.load(Ordering::Relaxed) {
                    return;
                }
                // Weak: the merger must not keep a closed database alive.
                let Some(state) = state.upgrade() else { return };
                let cap = merge_byte_cap(budget.load(Ordering::Relaxed));
                while merge_step(&state, cap) {
                    if flag.load(Ordering::Relaxed) {
                        return;
                    }
                }
            })
            .expect("spawning part merger");
        MergerGuard {
            stop,
            handle: Some(handle),
        }
    }
}

impl Drop for MergerGuard {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// Per-continuous-query runtime state, kept outside the catalog: the
/// compiled per-window pipeline plus incremental ingest/window state.
/// Purely a cache — a crash (or an emission conflict) discards it and the
/// next tick rebuilds it from the stream's retained rows, with the CQ's
/// durable `next_emit_ms` cursor suppressing re-emission of windows that
/// already reached the sink.
struct CqRuntime {
    /// Options epoch the pipeline was compiled under (provider / exec
    /// option changes recompile; the query text itself is immutable).
    options_epoch: u64,
    compiled: CompiledCq,
    /// Stream rows already folded into window state. The stream table is
    /// append-only, so `slice(rows_seen..)` is exactly the new events.
    rows_seen: usize,
    /// Max event time over *all* ingested rows (pre-WHERE), driving the
    /// watermark even when the filter drops every recent event.
    max_event_ms: Option<i64>,
    state: WindowAggState,
    /// Late events already folded into the engine-wide counter.
    late_reported: u64,
}

/// Handle to the background continuous-query scheduler thread: signals
/// stop and joins on drop, exactly like [`MergerGuard`].
struct StreamGuard {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl StreamGuard {
    fn spawn(weak: WeakDb) -> StreamGuard {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = stop.clone();
        let handle = std::thread::Builder::new()
            .name("flock-cq-scheduler".into())
            .spawn(move || loop {
                // Chunked sleep so large tick settings still join promptly.
                let tick = weak.stream_tick_ms.load(Ordering::Relaxed).max(1);
                let mut slept = 0u64;
                while slept < tick {
                    let step = (tick - slept).min(25);
                    std::thread::sleep(std::time::Duration::from_millis(step));
                    slept += step;
                    if flag.load(Ordering::Relaxed) {
                        return;
                    }
                }
                // Weak: the scheduler must not keep a closed database alive.
                let Some(db) = weak.upgrade() else { return };
                db.stream_tick_once();
            })
            .expect("spawning cq scheduler");
        StreamGuard {
            stop,
            handle: Some(handle),
        }
    }
}

impl Drop for StreamGuard {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// Commit observer: receives the committed catalog snapshot and the
/// conflict keys the transaction wrote (table names and `ext:kind:name`
/// extension keys). Fired outside the state lock; must not re-enter the
/// database.
pub type CommitHook = Arc<dyn Fn(&Catalog, &[String]) + Send + Sync>;

/// A shared, thread-safe database handle.
#[derive(Clone)]
pub struct Database {
    state: Arc<RwLock<DbState>>,
    provider: Arc<RwLock<ProviderRef>>,
    trainer: Arc<RwLock<TrainerRef>>,
    /// Observers fired after a transaction commits, outside the state
    /// lock, with the committed catalog snapshot and the written keys.
    /// Used by `flock-core` to keep its model registry in sync with
    /// engine-side model DDL (CREATE/RETRAIN/DROP MODEL).
    commit_hooks: Arc<RwLock<Vec<CommitHook>>>,
    options: Arc<RwLock<ExecOptions>>,
    optimizer: Arc<RwLock<OptimizerConfig>>,
    rewriters: Arc<RwLock<Vec<Arc<dyn PlanRewriter>>>>,
    metrics: Arc<EngineMetrics>,
    admission: Arc<AdmissionController>,
    last_query: Arc<RwLock<Option<OpSnapshot>>>,
    plan_cache: Arc<PlanCache>,
    /// Bumped when a transaction that ran DDL (or changed grants) commits;
    /// cached plans carry the epoch they were planned under.
    ddl_epoch: Arc<AtomicU64>,
    /// Bumped when exec options, optimizer config, plan rewriters, or the
    /// inference provider change — any of these can change what a plan
    /// compiles to.
    options_epoch: Arc<AtomicU64>,
    /// Engine-wide cap on a table's resident bytes (0 = offloading
    /// disabled). Commits that leave a written table over this budget
    /// flush its resident rows into disk parts as part of the commit.
    table_memory_budget: Arc<AtomicU64>,
    /// Background part-merge thread, if started. Dropped (stopped and
    /// joined) with the last handle to this database.
    merger: Arc<Mutex<Option<MergerGuard>>>,
    /// Continuous-query scheduler tick interval in milliseconds
    /// (engine-wide; also reachable as `SET stream_tick_ms = <ms>`).
    stream_tick_ms: Arc<AtomicU64>,
    /// Background continuous-query scheduler thread, if started.
    streams: Arc<Mutex<Option<StreamGuard>>>,
    /// Per-CQ incremental runtime state; the lock also serializes ticks,
    /// so the background scheduler and [`Database::stream_tick_now`] never
    /// interleave within one tick.
    stream_runtime: Arc<Mutex<HashMap<String, CqRuntime>>>,
}

/// Everything a background scheduler needs to reconstruct a [`Database`]
/// handle per tick without keeping the state alive: a weak state pointer
/// plus clones of the shared components. The reconstructed handle gets
/// fresh (empty) background-thread slots — schedulers never spawn peers.
struct WeakDb {
    state: Weak<RwLock<DbState>>,
    provider: Arc<RwLock<ProviderRef>>,
    trainer: Arc<RwLock<TrainerRef>>,
    commit_hooks: Arc<RwLock<Vec<CommitHook>>>,
    options: Arc<RwLock<ExecOptions>>,
    optimizer: Arc<RwLock<OptimizerConfig>>,
    rewriters: Arc<RwLock<Vec<Arc<dyn PlanRewriter>>>>,
    metrics: Arc<EngineMetrics>,
    admission: Arc<AdmissionController>,
    last_query: Arc<RwLock<Option<OpSnapshot>>>,
    plan_cache: Arc<PlanCache>,
    ddl_epoch: Arc<AtomicU64>,
    options_epoch: Arc<AtomicU64>,
    table_memory_budget: Arc<AtomicU64>,
    stream_tick_ms: Arc<AtomicU64>,
    stream_runtime: Arc<Mutex<HashMap<String, CqRuntime>>>,
}

impl WeakDb {
    fn upgrade(&self) -> Option<Database> {
        Some(Database {
            state: self.state.upgrade()?,
            provider: self.provider.clone(),
            trainer: self.trainer.clone(),
            commit_hooks: self.commit_hooks.clone(),
            options: self.options.clone(),
            optimizer: self.optimizer.clone(),
            rewriters: self.rewriters.clone(),
            metrics: self.metrics.clone(),
            admission: self.admission.clone(),
            last_query: self.last_query.clone(),
            plan_cache: self.plan_cache.clone(),
            ddl_epoch: self.ddl_epoch.clone(),
            options_epoch: self.options_epoch.clone(),
            table_memory_budget: self.table_memory_budget.clone(),
            merger: Arc::new(Mutex::new(None)),
            stream_tick_ms: self.stream_tick_ms.clone(),
            streams: Arc::new(Mutex::new(None)),
            stream_runtime: self.stream_runtime.clone(),
        })
    }
}

impl Default for Database {
    fn default() -> Self {
        Self::new()
    }
}

impl Database {
    pub fn new() -> Self {
        Self::from_state(DbState {
            catalog: Catalog::new(),
            next_txn: 1,
            next_log_id: 1,
            next_audit_seq: 1,
            query_log: Vec::new(),
            audit_log: Vec::new(),
            wal: None,
        })
    }

    fn from_state(state: DbState) -> Self {
        let metrics = Arc::new(EngineMetrics::default());
        let plan_cache = Arc::new(PlanCache::default());
        for (name, counter) in plan_cache.counters() {
            metrics.register(name, counter);
        }
        Database {
            state: Arc::new(RwLock::new(state)),
            provider: Arc::new(RwLock::new(Arc::new(NoInference))),
            trainer: Arc::new(RwLock::new(Arc::new(NoTrainer) as TrainerRef)),
            commit_hooks: Arc::new(RwLock::new(Vec::new())),
            options: Arc::new(RwLock::new(ExecOptions::default())),
            optimizer: Arc::new(RwLock::new(OptimizerConfig::default())),
            rewriters: Arc::new(RwLock::new(Vec::new())),
            metrics,
            admission: Arc::new(AdmissionController::new()),
            last_query: Arc::new(RwLock::new(None)),
            plan_cache,
            ddl_epoch: Arc::new(AtomicU64::new(0)),
            options_epoch: Arc::new(AtomicU64::new(0)),
            table_memory_budget: Arc::new(AtomicU64::new(0)),
            merger: Arc::new(Mutex::new(None)),
            stream_tick_ms: Arc::new(AtomicU64::new(25)),
            streams: Arc::new(Mutex::new(None)),
            stream_runtime: Arc::new(Mutex::new(HashMap::new())),
        }
    }

    fn weak(&self) -> WeakDb {
        WeakDb {
            state: Arc::downgrade(&self.state),
            provider: self.provider.clone(),
            trainer: self.trainer.clone(),
            commit_hooks: self.commit_hooks.clone(),
            options: self.options.clone(),
            optimizer: self.optimizer.clone(),
            rewriters: self.rewriters.clone(),
            metrics: self.metrics.clone(),
            admission: self.admission.clone(),
            last_query: self.last_query.clone(),
            plan_cache: self.plan_cache.clone(),
            ddl_epoch: self.ddl_epoch.clone(),
            options_epoch: self.options_epoch.clone(),
            table_memory_budget: self.table_memory_budget.clone(),
            stream_tick_ms: self.stream_tick_ms.clone(),
            stream_runtime: self.stream_runtime.clone(),
        }
    }

    /// Open (or create) a durable database in a directory on the real
    /// filesystem. Recovery runs first: the newest valid checkpoint is
    /// loaded and the log replayed, so the returned handle sees exactly the
    /// committed state of the previous process.
    pub fn open(path: impl AsRef<std::path::Path>, opts: DurabilityOptions) -> Result<Database> {
        let fs = StdFs::new(path).map_err(|e| SqlError::Io(format!("opening database: {e}")))?;
        let db = Self::open_with_fs(Arc::new(fs), opts)?;
        db.start_background_merge();
        db.start_stream_scheduler();
        Ok(db)
    }

    /// Open a durable database on any [`DurableFs`] — the fault-injection
    /// harness runs the whole engine against in-memory and failpoint
    /// filesystems through this entry point. The background merger is
    /// *not* started here (so fault-injection runs stay deterministic);
    /// call [`Database::start_background_merge`] if you want it.
    pub fn open_with_fs(fs: Arc<dyn DurableFs>, opts: DurabilityOptions) -> Result<Database> {
        let rec = crate::wal::recover(fs, opts)?;
        let store = Arc::new(
            crate::parts::PartStore::open(rec.manager.fs().clone())
                .map_err(|e| SqlError::Io(format!("opening part store: {e}")))?,
        );
        let mut catalog = rec.catalog;
        catalog.set_part_store(store.clone());
        sync_part_inventory(&catalog);
        let db = Self::from_state(DbState {
            catalog,
            next_txn: rec.next_txn,
            next_log_id: rec.next_log_id,
            next_audit_seq: rec.next_audit_seq,
            query_log: rec.query_log,
            audit_log: rec.audit_log,
            wal: Some(rec.manager),
        });
        for (name, counter) in store.metric_counters() {
            db.metrics.register(name, counter);
        }
        Ok(db)
    }

    /// Durability options, or `None` for an in-memory database.
    pub fn durability(&self) -> Option<DurabilityOptions> {
        self.state.read().wal.as_ref().map(|w| w.options())
    }

    /// Force a checkpoint now. Returns its sequence number, or `None` for
    /// an in-memory database.
    pub fn checkpoint_now(&self) -> Result<Option<u64>> {
        let mut state = self.state.write();
        let snap = snapshot_of(&state);
        let r = match &mut state.wal {
            Some(wal) => wal
                .checkpoint(&snap)
                .map(Some)
                .map_err(|e| SqlError::Io(format!("checkpoint failed: {e}"))),
            None => Ok(None),
        };
        sync_part_inventory(&state.catalog);
        r
    }

    /// Deterministic digest of the committed logical state (catalog, both
    /// logs, and the log/audit id counters). `next_txn` is excluded: txn
    /// ids consumed by rolled-back or read-only transactions are not — and
    /// need not be — persisted by a redo-only log, so the counter may
    /// legitimately differ across a recovery while the logical state is
    /// bit-identical.
    /// The digest is taken over the *logical* form of the snapshot: every
    /// part-backed version is materialized into resident rows first, so the
    /// digest is independent of physical layout — offloading history into
    /// disk parts or merging parts never changes it, and a recovery that
    /// replays the WAL into a fully resident state digests identically to
    /// the part-backed state it recovered.
    pub fn state_digest(&self) -> u64 {
        let state = self.state.read();
        let mut snap = snapshot_of(&state);
        snap.next_txn = 0;
        logicalize_snapshot(&mut snap, state.catalog.part_store());
        crate::wal::digest(&snap)
    }

    /// Set the engine-wide resident-bytes budget per table (0 disables
    /// offloading). Also reachable as `SET table_memory_budget = <bytes>`.
    pub fn set_table_memory_budget(&self, bytes: u64) {
        self.table_memory_budget.store(bytes, Ordering::Relaxed);
    }

    pub fn table_memory_budget(&self) -> u64 {
        self.table_memory_budget.load(Ordering::Relaxed)
    }

    /// Synchronously run merge steps until no more apply (what the
    /// background thread does continuously). Returns merges performed.
    /// Deterministic alternative for tests and fault-injection harnesses.
    pub fn merge_now(&self) -> usize {
        let cap = merge_byte_cap(self.table_memory_budget.load(Ordering::Relaxed));
        let mut n = 0;
        while merge_step(&self.state, cap) {
            n += 1;
        }
        n
    }

    /// Start the background part-merge thread (idempotent; no-op for
    /// in-memory databases). [`Database::open`] starts it automatically;
    /// [`Database::open_with_fs`] leaves it off so fault-injection runs
    /// stay deterministic.
    pub fn start_background_merge(&self) {
        let mut slot = self.merger.lock();
        if slot.is_some() || self.state.read().catalog.part_store().is_none() {
            return;
        }
        *slot = Some(MergerGuard::spawn(
            Arc::downgrade(&self.state),
            self.table_memory_budget.clone(),
        ));
    }

    /// Stop and join the background merge thread, if running.
    pub fn stop_background_merge(&self) {
        *self.merger.lock() = None;
    }

    /// Start the background continuous-query scheduler (idempotent).
    /// [`Database::open`] starts it automatically; in-memory databases and
    /// fault-injection harnesses call [`Database::stream_tick_now`] for a
    /// deterministic, synchronous tick instead.
    pub fn start_stream_scheduler(&self) {
        let mut slot = self.streams.lock();
        if slot.is_some() {
            return;
        }
        *slot = Some(StreamGuard::spawn(self.weak()));
    }

    /// Stop and join the continuous-query scheduler, if running.
    pub fn stop_stream_scheduler(&self) {
        *self.streams.lock() = None;
    }

    /// Set the scheduler tick interval (also `SET stream_tick_ms = <ms>`).
    pub fn set_stream_tick_ms(&self, ms: u64) {
        self.stream_tick_ms.store(ms.max(1), Ordering::Relaxed);
    }

    /// Run one scheduler tick synchronously: feed every registered
    /// continuous query its newly appended stream rows, close every window
    /// the watermark has passed, and emit closed windows into their sink
    /// tables. Returns the number of windows emitted. The deterministic
    /// alternative to the background scheduler for tests and harnesses.
    pub fn stream_tick_now(&self) -> usize {
        self.stream_tick_once()
    }

    /// One scheduler pass over every registered continuous query. Errors
    /// are per-CQ: a failing query is counted, its runtime discarded (the
    /// next tick rebuilds from the stream's retained rows under the
    /// durable emission cursor), and the others proceed.
    fn stream_tick_once(&self) -> usize {
        let catalog = self.catalog();
        let cqs: Vec<(String, String, serde_json::Value)> = catalog
            .extensions_of_kind(CQ_KIND)
            .into_iter()
            .map(|o| (o.name.clone(), o.owner.clone(), o.current().metadata.clone()))
            .collect();
        let mut runtimes = self.stream_runtime.lock();
        runtimes.retain(|k, _| catalog.has_extension(CQ_KIND, k));
        let mut emitted = 0usize;
        for (name, owner, meta) in cqs {
            self.metrics.stream_cq_ticks.fetch_add(1, Ordering::Relaxed);
            match self.tick_cq(&mut runtimes, &catalog, &name, &owner, &meta) {
                Ok(n) => emitted += n,
                Err(_) => {
                    runtimes.remove(&name);
                    self.metrics.stream_cq_errors.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        emitted
    }

    /// Tick one continuous query against a catalog snapshot: ingest the
    /// stream's new rows into incremental window state, close windows
    /// under the watermark, and emit them transactionally (sink append +
    /// cursor advance + any policy action commit or fail as one).
    fn tick_cq(
        &self,
        runtimes: &mut HashMap<String, CqRuntime>,
        catalog: &Catalog,
        name: &str,
        owner: &str,
        meta: &serde_json::Value,
    ) -> Result<usize> {
        let spec = CqSpec::from_metadata(meta)?;
        let stream_spec = StreamSpec::from_metadata(
            &catalog
                .extension(STREAM_KIND, &spec.stream)?
                .current()
                .metadata,
        )?;
        let table = catalog.table(&spec.stream)?;
        let data = materialize_version(catalog, table.current())?;
        let provider = self.inference_provider();
        let opt_epoch = self.options_epoch.load(Ordering::Relaxed);

        // (Re)build the runtime: missing, or the stream shrank under it
        // (dropped and recreated), or after a process restart. The durable
        // cursor suppresses re-emission during the replay below.
        let stale = match runtimes.get(name) {
            Some(rt) => rt.rows_seen > data.num_rows(),
            None => true,
        };
        if stale {
            let compiled = compile_cq(&spec, catalog, provider.as_ref())?;
            let state = WindowAggState::new(
                spec.window.size_ms,
                spec.window.slide_ms,
                compiled.agg_calls.clone(),
            );
            runtimes.insert(
                name.to_string(),
                CqRuntime {
                    options_epoch: opt_epoch,
                    compiled,
                    rows_seen: 0,
                    max_event_ms: None,
                    state,
                    late_reported: 0,
                },
            );
        }
        let rt = runtimes.get_mut(name).expect("runtime just ensured");
        if rt.options_epoch != opt_epoch {
            // provider / exec options moved: recompile the pipeline, keep
            // the window state (the query text is immutable).
            rt.compiled = compile_cq(&spec, catalog, provider.as_ref())?;
            rt.options_epoch = opt_epoch;
        }

        let eval_ctx = EvalContext::new(provider.clone(), owner.to_string(), 1);

        // Ingest rows appended since the last tick, in insertion order —
        // the same order the batch aggregate would scan them, which is the
        // bit-equality contract.
        let n = data.num_rows();
        if n > rt.rows_seen {
            let fresh = data.slice(rt.rows_seen, n - rt.rows_seen);
            rt.rows_seen = n;
            let et_all = event_times(&fresh, rt.compiled.et_index)?;
            if let Some(m) = et_all.iter().copied().max() {
                rt.max_event_ms = Some(rt.max_event_ms.map_or(m, |c| c.max(m)));
            }
            let (filtered, et) = match &rt.compiled.where_pred {
                Some(p) => {
                    let col = p.eval(&fresh, &eval_ctx)?;
                    let mask: Vec<bool> = (0..fresh.num_rows())
                        .map(|i| col.get(i).as_bool() == Some(true))
                        .collect();
                    let kept: Vec<i64> = et_all
                        .iter()
                        .zip(&mask)
                        .filter(|(_, keep)| **keep)
                        .map(|(t, _)| *t)
                        .collect();
                    (fresh.filter(&mask)?, kept)
                }
                None => (fresh, et_all),
            };
            if filtered.num_rows() > 0 {
                let group_cols: Vec<ColumnVector> = rt
                    .compiled
                    .group_exprs
                    .iter()
                    .map(|e| e.eval(&filtered, &eval_ctx))
                    .collect::<Result<_>>()?;
                let agg_cols: Vec<Option<ColumnVector>> = rt
                    .compiled
                    .agg_args
                    .iter()
                    .map(|a| a.as_ref().map(|e| e.eval(&filtered, &eval_ctx)).transpose())
                    .collect::<Result<_>>()?;
                rt.state.observe(&et, &group_cols, &agg_cols);
            }
            let late = rt.state.late_events;
            if late > rt.late_reported {
                self.metrics
                    .stream_late_events
                    .fetch_add(late - rt.late_reported, Ordering::Relaxed);
                rt.late_reported = late;
            }
        }

        // Close windows under the watermark, ascending by start.
        let Some(max_et) = rt.max_event_ms else {
            return Ok(0);
        };
        let watermark = max_et.saturating_sub(stream_spec.lag_ms);
        let closed = rt.state.close_ready(watermark);
        let Some(last_start) = closed.last().map(|c| c.start) else {
            return Ok(0);
        };
        // Replay suppression: windows below the durable cursor already
        // reached the sink before a crash/rebuild.
        let emit: Vec<_> = closed
            .into_iter()
            .filter(|c| spec.next_emit_ms.is_none_or(|cursor| c.start >= cursor))
            .collect();
        if emit.is_empty() {
            return Ok(0);
        }
        let emitted = emit.len();

        // Finalize each window: aggregate batch -> HAVING -> projection
        // (PREDICT here scores each window in one provider call).
        let mut sink_rows: Vec<Vec<Value>> = Vec::new();
        for w in &emit {
            let rows: Vec<Vec<Value>> = w
                .keys
                .iter()
                .zip(&w.aggs)
                .map(|(k, a)| k.0.iter().cloned().chain(a.iter().cloned()).collect())
                .collect();
            let mut agg_batch = RecordBatch::from_rows(rt.compiled.agg_schema.clone(), &rows)?;
            if let Some(h) = &rt.compiled.having {
                let col = h.eval(&agg_batch, &eval_ctx)?;
                let mask: Vec<bool> = (0..agg_batch.num_rows())
                    .map(|i| col.get(i).as_bool() == Some(true))
                    .collect();
                agg_batch = agg_batch.filter(&mask)?;
            }
            self.metrics
                .stream_windows_closed
                .fetch_add(1, Ordering::Relaxed);
            if agg_batch.num_rows() == 0 {
                continue;
            }
            let proj_cols: Vec<ColumnVector> = rt
                .compiled
                .proj_exprs
                .iter()
                .map(|e| e.eval(&agg_batch, &eval_ctx))
                .collect::<Result<_>>()?;
            if !rt.compiled.predict_models.is_empty() {
                self.metrics
                    .stream_predict_windows
                    .fetch_add(1, Ordering::Relaxed);
            }
            for r in 0..agg_batch.num_rows() {
                let mut row = Vec::with_capacity(1 + proj_cols.len());
                row.push(Value::Int(w.start));
                row.extend(proj_cols.iter().map(|c| c.get(r)));
                sink_rows.push(row);
            }
        }
        let sink_batch = RecordBatch::from_rows(
            Arc::new(rt.compiled.sink_schema.clone()),
            &sink_rows,
        )?;

        // Policy check over the emitted rows (the sink shape the breach
        // predicate was compiled against).
        let mut breach_rows = 0usize;
        if let Some(p) = &rt.compiled.when_pred {
            if sink_batch.num_rows() > 0 {
                let col = p.eval(&sink_batch, &eval_ctx)?;
                breach_rows = (0..sink_batch.num_rows())
                    .filter(|&i| col.get(i).as_bool() == Some(true))
                    .count();
            }
        }

        // One transaction: sink append + durable cursor advance + any
        // policy action. A crash lands wholly before or wholly after.
        let rows_emitted = sink_batch.num_rows();
        let mut new_spec = spec.clone();
        new_spec.next_emit_ms = Some(last_start + spec.window.slide_ms);
        let hold = spec.hold_model.clone();
        let retrain = spec.retrain_model.clone();
        let mut session = self.session(owner);
        let cq_name = name.to_string();
        let sink_name = spec.sink.clone();
        session.with_autocommit(move |s| {
            if sink_batch.num_rows() > 0 {
                s.append_batch_txn(&sink_name, sink_batch)?;
            }
            s.update_extension_txn(CQ_KIND, &cq_name, Vec::new(), new_spec.to_metadata(), false)?;
            if breach_rows > 0 {
                s.audit(
                    "POLICY BREACH",
                    &cq_name,
                    &format!("{breach_rows} breaching row(s) in closed window(s)"),
                );
                if let Some(m) = &hold {
                    s.hold_model_txn(m)?;
                }
                if let Some(m) = &retrain {
                    s.retrain_model_txn(m, &format!("policy breach in '{cq_name}'"))?;
                }
            }
            Ok(())
        })?;
        self.metrics
            .stream_rows_emitted
            .fetch_add(rows_emitted as u64, Ordering::Relaxed);
        if breach_rows > 0 {
            self.metrics
                .stream_policy_breaches
                .fetch_add(1, Ordering::Relaxed);
        }
        Ok(emitted)
    }

    /// Commit-time offload: flush any written table whose resident bytes
    /// exceed the budget into disk parts and collapse its version history.
    /// Runs inside the committing transaction — the part-backed catalog
    /// installs with the commit and the history truncation rides the same
    /// WAL record batch, so a kill during the flush recovers to either the
    /// old state or the committed one, never a mix. Freshly flushed parts
    /// become reachable at the next checkpoint; until then a crash simply
    /// orphans them for checkpoint pruning to sweep.
    fn offload_over_budget(&self, txn: &mut Txn) -> Result<()> {
        let budget = self.table_memory_budget.load(Ordering::Relaxed);
        if budget == 0 {
            return Ok(());
        }
        let Some(store) = txn.catalog.part_store().cloned() else {
            return Ok(());
        };
        let keys: Vec<String> = txn
            .written
            .keys()
            .filter(|k| k.starts_with("table:"))
            .cloned()
            .collect();
        for key in keys {
            let name = key["table:".len()..].to_string();
            let Ok(table) = txn.catalog.table(&name) else {
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
            for chunk in cur.data.chunks(chunk_rows) {
                parts.push(store.write_part(&chunk, 0)?);
            }
            let tail = RecordBatch::empty(cur.data.schema().clone());
            let pinned = lineage_pinned_versions(&txn.catalog, &name);
            let table = txn.catalog.table_mut(&name)?;
            let redo_table = table.name().to_string();
            table.replace_current_with_parts(parts, tail);
            // History versions hold the resident rows we just offloaded;
            // drop them unless a deployed model's lineage pins one (then
            // keep history and only the current version goes part-backed).
            if table
                .truncate_history_pinned(1, &pinned)
                .is_ok_and(|d| !d.is_empty())
            {
                txn.redo_buf.push(RedoOp::TruncateHistory {
                    table: redo_table,
                    keep: 1,
                });
            }
        }
        Ok(())
    }

    /// Cumulative engine-wide execution counters (the `flock_metrics`
    /// virtual table reads these).
    pub fn engine_metrics(&self) -> Arc<EngineMetrics> {
        self.metrics.clone()
    }

    /// Per-operator snapshot of the most recently executed query plan,
    /// across *all* sessions — concurrent sessions overwrite each other
    /// here. Use [`Session::last_query_metrics`] for the session-local
    /// snapshot.
    pub fn last_query_metrics(&self) -> Option<OpSnapshot> {
        self.last_query.read().clone()
    }

    /// The per-database admission controller (active-query gauge; the
    /// limit comes from [`ExecOptions::max_concurrent_queries`]).
    pub fn admission(&self) -> Arc<AdmissionController> {
        self.admission.clone()
    }

    /// Register a plan rewriter (e.g. the Flock cross-optimizer), applied
    /// after planning and before the relational optimizer.
    pub fn add_plan_rewriter(&self, rewriter: Arc<dyn PlanRewriter>) {
        self.rewriters.write().push(rewriter);
        self.options_epoch.fetch_add(1, Ordering::Relaxed);
    }

    /// Remove all registered plan rewriters.
    pub fn clear_plan_rewriters(&self) {
        self.rewriters.write().clear();
        self.options_epoch.fetch_add(1, Ordering::Relaxed);
    }

    /// The prepared-statement / plain-SQL plan cache.
    pub fn plan_cache(&self) -> Arc<PlanCache> {
        self.plan_cache.clone()
    }

    fn apply_rewriters(&self, mut plan: LogicalPlan, catalog: &Catalog) -> Result<LogicalPlan> {
        for r in self.rewriters.read().iter() {
            plan = r.rewrite(plan, catalog)?;
        }
        Ok(plan)
    }

    /// Open a session as `user` (the bootstrap superuser is "admin").
    pub fn session(&self, user: &str) -> Session {
        Session {
            db: self.clone(),
            user: user.to_string(),
            txn: None,
            cancel_flag: Arc::new(AtomicBool::new(false)),
            statement_timeout_ms: None,
            predict_strategy: None,
            last_query: None,
        }
    }

    /// Install the inference provider (done by `flock-core`).
    pub fn set_inference_provider(&self, provider: ProviderRef) {
        *self.provider.write() = provider;
        self.options_epoch.fetch_add(1, Ordering::Relaxed);
    }

    pub fn inference_provider(&self) -> ProviderRef {
        self.provider.read().clone()
    }

    /// Install the model trainer backing `CREATE MODEL` / `RETRAIN MODEL`
    /// (done by `flock-core`).
    pub fn set_model_trainer(&self, trainer: TrainerRef) {
        *self.trainer.write() = trainer;
        self.options_epoch.fetch_add(1, Ordering::Relaxed);
    }

    pub fn model_trainer(&self) -> TrainerRef {
        self.trainer.read().clone()
    }

    /// Register an observer fired after every successful commit, outside
    /// the state lock, with the committed catalog snapshot and the keys
    /// the transaction wrote. Hooks must not re-enter the database.
    pub fn add_commit_hook(&self, hook: CommitHook) {
        self.commit_hooks.write().push(hook);
    }

    /// Replace execution options (threading, default PREDICT strategy).
    /// Knobs are clamped into valid ranges — a zero-thread or zero-morsel
    /// configuration degrades to serial execution instead of panicking.
    pub fn set_exec_options(&self, options: ExecOptions) {
        *self.options.write() = options.validated();
        self.options_epoch.fetch_add(1, Ordering::Relaxed);
    }

    pub fn exec_options(&self) -> ExecOptions {
        self.options.read().clone()
    }

    pub fn set_optimizer_config(&self, config: OptimizerConfig) {
        *self.optimizer.write() = config;
        self.options_epoch.fetch_add(1, Ordering::Relaxed);
    }

    pub fn optimizer_config(&self) -> OptimizerConfig {
        *self.optimizer.read()
    }

    /// Snapshot of the committed catalog.
    pub fn catalog(&self) -> Catalog {
        self.state.read().catalog.clone()
    }

    /// Full query log (committed statements).
    pub fn query_log(&self) -> Vec<QueryLogEntry> {
        self.state.read().query_log.clone()
    }

    /// Full audit log.
    pub fn audit_log(&self) -> Vec<AuditRecord> {
        self.state.read().audit_log.clone()
    }

    /// Overlay the `flock_metrics` virtual table onto a catalog snapshot
    /// used for one query. A real user table of the same name shadows the
    /// virtual one; otherwise every user may SELECT it.
    fn overlay_metrics_table(&self, mut catalog: Catalog, user: &str) -> Catalog {
        if catalog.has_table("flock_metrics") {
            return catalog;
        }
        let schema = Schema::from_pairs(&[
            ("metric", crate::types::DataType::Text),
            ("value", crate::types::DataType::Int),
        ]);
        let rows: Vec<Vec<Value>> = self
            .metrics
            .rows()
            .into_iter()
            .map(|(name, v)| {
                vec![
                    Value::Text(name.to_string()),
                    Value::Int(i64::try_from(v).unwrap_or(i64::MAX)),
                ]
            })
            .collect();
        let built = (|| -> Result<Table> {
            let mut table = Table::new("flock_metrics", schema.clone(), 0)?;
            table.push_version(RecordBatch::from_rows(Arc::new(schema), &rows)?, 0)?;
            Ok(table)
        })();
        if let Ok(table) = built {
            if catalog.create_table(table).is_ok() {
                catalog
                    .access
                    .grant(user, ObjectRef::table("flock_metrics"), &[Privilege::Select]);
            }
        }
        catalog
    }

    /// Convenience: run a statement as admin with autocommit.
    pub fn execute(&self, sql: &str) -> Result<QueryResult> {
        self.session("admin").execute(sql)
    }

    /// Convenience: run a query as admin and return its batch.
    pub fn query(&self, sql: &str) -> Result<RecordBatch> {
        let res = self.execute(sql)?;
        res.batch
            .ok_or_else(|| SqlError::Execution("statement returned no rows".into()))
    }
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
}

/// Base state of one object at transaction start, for conflict detection.
#[derive(Debug, Clone, PartialEq, Eq)]
enum BaseState {
    Absent,
    TableAt(u64),
    ExtensionAt(u64),
    ViewPresent,
}

struct Txn {
    id: u64,
    catalog: Catalog,
    /// Objects this txn wrote, with the committed state they were based on.
    written: HashMap<String, BaseState>,
    access_dirty: bool,
    /// True once any DDL ran (create/drop/alter of tables, views, or
    /// extension objects). A committing DDL txn bumps the database's DDL
    /// epoch, invalidating every cached plan.
    ddl: bool,
    /// Logical redo records, captured at mutation time in execution order.
    /// Replaying them over the base state reproduces the txn's effects.
    redo_buf: Vec<RedoOp>,
    log_buf: Vec<QueryLogEntry>,
    audit_buf: Vec<AuditRecord>,
}

/// A connection bound to a user, holding at most one open transaction.
pub struct Session {
    db: Database,
    user: String,
    txn: Option<Txn>,
    /// Cancel flag for the statement currently executing; reset at each
    /// statement start, set from other threads via [`CancelHandle`].
    cancel_flag: Arc<AtomicBool>,
    /// Session-local `SET statement_timeout` override, in milliseconds
    /// (`None` = fall back to [`ExecOptions::statement_timeout_ms`]).
    statement_timeout_ms: Option<u64>,
    /// Session-local `SET predict_strategy` override. Applied to every
    /// `PREDICT(...)` whose statement did not pin a strategy explicitly,
    /// *before* plan rewriters run (xopt consumes `Auto`), and keyed into
    /// the plan cache so sessions with different overrides never share
    /// a cached plan.
    predict_strategy: Option<PredictStrategy>,
    /// This session's most recent query snapshot — unlike the engine-wide
    /// [`Database::last_query_metrics`], concurrent sessions cannot
    /// clobber it.
    last_query: Option<OpSnapshot>,
}

impl Session {
    pub fn user(&self) -> &str {
        &self.user
    }

    pub fn in_transaction(&self) -> bool {
        self.txn.is_some()
    }

    /// A handle other threads use to cancel this session's currently
    /// executing statement (the flag resets when the next statement
    /// starts). Cancellation is cooperative: the executor notices
    /// at the next operator entry / morsel / row-stride boundary and
    /// unwinds with [`SqlError::Cancelled`].
    pub fn cancel_handle(&self) -> CancelHandle {
        CancelHandle::new(self.cancel_flag.clone())
    }

    /// Session-local statement timeout in milliseconds, equivalent to
    /// `SET statement_timeout = <ms>`. `None` restores the engine default
    /// ([`ExecOptions::statement_timeout_ms`]); `Some(0)` disables the
    /// timeout for this session even when the engine sets one.
    pub fn set_statement_timeout(&mut self, ms: Option<u64>) {
        self.statement_timeout_ms = ms;
    }

    /// The effective session-local timeout override, if any.
    pub fn statement_timeout(&self) -> Option<u64> {
        self.statement_timeout_ms
    }

    /// Per-operator snapshot of this session's most recent query
    /// (including partial metrics of a cancelled / timed-out query).
    pub fn last_query_metrics(&self) -> Option<OpSnapshot> {
        self.last_query.clone()
    }

    /// Execute one SQL statement (autocommit unless inside BEGIN/COMMIT).
    ///
    /// Plain `SELECT` text outside a transaction takes a fast path: the
    /// raw token stream keys the plan cache, so repeating the same query
    /// text skips parse/plan/optimize. Literals stay inline on this path —
    /// value-dependent optimizations (e.g. threshold-based model pruning)
    /// still see them.
    pub fn execute(&mut self, sql: &str) -> Result<QueryResult> {
        if self.txn.is_none() {
            if let Ok(tokens) = crate::lexer::tokenize(sql) {
                if matches!(tokens.first(),
                    Some(Token::Ident(w)) if w.eq_ignore_ascii_case("SELECT"))
                {
                    return self.execute_select_tokens(tokens, sql);
                }
            }
        }
        let stmt = crate::parser::parse_statement(sql)?;
        self.execute_statement(stmt, sql)
    }

    /// Execute with `?` placeholders bound to `params`.
    pub fn execute_with_params(&mut self, sql: &str, params: &[Value]) -> Result<QueryResult> {
        let stmt = crate::parser::parse_statement(sql)?;
        let stmt = bind_parameters(stmt, params)?;
        self.execute_statement(stmt, sql)
    }

    /// Prepare a statement for repeated execution. `?` placeholders bind
    /// at execute time. Literal constants are parameterized out of queries,
    /// so executions that differ only in constants share one cached plan;
    /// the skip rules (LIMIT/OFFSET/VERSION, `DATE` literals, ORDER BY /
    /// GROUP BY ordinals) are documented on [`crate::plancache::normalize`].
    pub fn prepare(&mut self, sql: &str) -> Result<PreparedStatement> {
        let tokens = crate::lexer::tokenize(sql)?;
        let norm = normalize(&tokens);
        // Parse the normalized stream once: syntax errors surface at
        // prepare time, and the statement class picks the execute path.
        let (stmt, nparams) = crate::parser::parse_token_stream(norm.tokens.clone())?;
        debug_assert_eq!(nparams, norm.slots.len());
        let kind = match stmt {
            // Scalar/IN/EXISTS subqueries execute during planning, so such
            // a query cannot be planned parameter-generically; it falls
            // back to binding literals into the AST on every execute.
            Statement::Query(q) if !query_has_subqueries(&q) => PreparedKind::Query {
                tokens: norm.tokens,
                slots: norm.slots,
            },
            _ => {
                let (stmt, _) = crate::parser::parse_statement_with_params(sql)?;
                PreparedKind::Other {
                    stmt: Box::new(stmt),
                }
            }
        };
        let gauge = self.db.plan_cache.prepared_active.clone();
        gauge.fetch_add(1, Ordering::Relaxed);
        Ok(PreparedStatement {
            sql: sql.to_string(),
            kind,
            user_params: norm.user_params,
            gauge,
        })
    }

    /// Execute a prepared statement with `params` bound to its `?`
    /// placeholders. Queries go through the plan cache: steady state skips
    /// lex/parse/plan/optimize and jumps to the cached physical plan.
    pub fn execute_prepared(
        &mut self,
        prepared: &PreparedStatement,
        params: &[Value],
    ) -> Result<QueryResult> {
        if params.len() != prepared.user_params {
            return Err(SqlError::Plan(format!(
                "prepared statement expects {} parameter(s), got {}",
                prepared.user_params,
                params.len()
            )));
        }
        self.cancel_flag.store(false, Ordering::Relaxed);
        match &prepared.kind {
            PreparedKind::Query { tokens, slots } => {
                // An open user transaction bypasses the shared cache
                // entirely: a plan bound against uncommitted state must
                // not leak into (or out of) it.
                if self.txn.is_some() {
                    let (stmt, _) = crate::parser::parse_token_stream(tokens.clone())?;
                    let bound = bind_slots(slots, params)?;
                    let stmt = bind_parameters(stmt, &bound)?;
                    return self.run_in_txn(stmt, &prepared.sql);
                }
                let bound = Arc::new(bind_slots(slots, params)?);
                let key = CacheKey {
                    tokens: tokens.clone(),
                    param_types: bound.iter().map(Value::data_type).collect(),
                    predict: self.predict_strategy,
                };
                if let Some(result) = self.try_cached(&key, &bound, &prepared.sql)? {
                    return Ok(result);
                }
                let (stmt, _) = crate::parser::parse_token_stream(tokens.clone())?;
                let Statement::Query(q) = stmt else {
                    unreachable!("prepared Query kind parses back to a query");
                };
                self.plan_execute_insert(key, q, bound, &prepared.sql)
            }
            PreparedKind::Other { stmt } => {
                let stmt = bind_parameters((**stmt).clone(), params)?;
                self.execute_statement(stmt, &prepared.sql)
            }
        }
    }

    /// Cached execution of a plain `SELECT` given its raw token stream.
    fn execute_select_tokens(&mut self, tokens: Vec<Token>, sql: &str) -> Result<QueryResult> {
        self.cancel_flag.store(false, Ordering::Relaxed);
        let key = CacheKey {
            tokens,
            param_types: Vec::new(),
            predict: self.predict_strategy,
        };
        let params: Arc<Vec<Value>> = Arc::new(Vec::new());
        if let Some(result) = self.try_cached(&key, &params, sql)? {
            return Ok(result);
        }
        // Miss: parse the very tokens that keyed the lookup (never the raw
        // text — script execution reuses one text for many statements).
        let (stmt, _) = crate::parser::parse_token_stream(key.tokens.clone())?;
        match stmt {
            Statement::Query(q) => self.plan_execute_insert(key, q, params, sql),
            other => self.execute_statement(other, sql),
        }
    }

    /// Try to serve a query from the plan cache. `Ok(None)` means a miss
    /// (cold or invalidated) — the caller replans.
    fn try_cached(
        &mut self,
        key: &CacheKey,
        params: &Arc<Vec<Value>>,
        sql: &str,
    ) -> Result<Option<QueryResult>> {
        let db = self.db.clone();
        let provider = db.inference_provider();
        let epochs = (
            db.ddl_epoch.load(Ordering::Relaxed),
            db.options_epoch.load(Ordering::Relaxed),
            provider.plan_epoch(),
        );
        let catalog = db.catalog();
        let hit = db.plan_cache.lookup(key, epochs, |t| {
            catalog.table(t).ok().map(|tab| tab.current_version())
        });
        let entry = match hit {
            Ok(CacheHit::Ready(e)) => e,
            Ok(CacheHit::Rebind(e)) => {
                // Plain DML moved a table version under the plan: re-derive
                // only the physical plan (cheap — column data is
                // Arc-shared) from the cached logical plan and refresh the
                // entry in place.
                let options = self.session_options();
                let physical =
                    create_physical_plan(&e.logical, &catalog, provider.as_ref(), &options)?;
                let table_versions = e
                    .table_versions
                    .iter()
                    .map(|(t, _)| catalog.table(t).map(|tab| (t.clone(), tab.current_version())))
                    .collect::<Result<Vec<_>>>()?;
                db.plan_cache.insert(
                    key.clone(),
                    CachedPlan {
                        logical: e.logical.clone(),
                        physical,
                        tables: e.tables.clone(),
                        models: e.models.clone(),
                        table_versions,
                        ddl_epoch: e.ddl_epoch,
                        options_epoch: e.options_epoch,
                        model_epoch: e.model_epoch,
                    },
                )
            }
            Err(_) => return Ok(None),
        };
        // Per-execute ACL: a cached plan must never outlive a revocation.
        // (Revokes also bump the DDL epoch, but the check here makes the
        // property independent of epoch bookkeeping.)
        for t in &entry.tables {
            self.check_access(&catalog, &ObjectRef::table(t), Privilege::Select)?;
        }
        for m in &entry.models {
            self.check_model_executable(&catalog, m)?;
        }
        let options = self.session_options();
        let _slot = self.admit(&options)?;
        let cancel = self.statement_cancel(&options);
        self.run_physical(
            &entry.physical,
            provider,
            &options,
            cancel,
            params.clone(),
            entry.tables.clone(),
            sql,
        )
        .map(Some)
    }

    /// Cache-miss path: plan a query whose parameters stay unbound,
    /// execute it with `params`, and remember the plan under `key` unless
    /// the query is uncacheable.
    fn plan_execute_insert(
        &mut self,
        key: CacheKey,
        q: crate::ast::Query,
        params: Arc<Vec<Value>>,
        sql: &str,
    ) -> Result<QueryResult> {
        // Scalar/IN/EXISTS subqueries run at plan time; such a query can
        // neither stay parameter-generic nor be safely cached. (Prepared
        // statements filtered these out at prepare time, so params are
        // always empty here.)
        if query_has_subqueries(&q) {
            debug_assert!(params.is_empty());
            return self.run_in_txn(Statement::Query(q), sql);
        }
        // Typed parameters: wrap each `?i` in an identity CAST so type
        // derivation sees the bound type instead of a default.
        let q = annotate_param_types(q, &key.param_types)?;
        let catalog = self
            .db
            .overlay_metrics_table(self.db.catalog(), &self.user);
        let provider = self.db.inference_provider();
        let options = self.session_options();
        // Epochs are sampled BEFORE planning: if DDL commits concurrently,
        // the inserted entry is already stale and dies on first lookup.
        let epochs = (
            self.db.ddl_epoch.load(Ordering::Relaxed),
            self.db.options_epoch.load(Ordering::Relaxed),
            provider.plan_epoch(),
        );
        let cancel = self.statement_cancel(&options);
        let runner = EngineSubqueryRunner {
            catalog: &catalog,
            db: &self.db,
            user: &self.user,
            cancel: cancel.clone(),
        };
        let ctx = PlanContext::new(&catalog, provider.as_ref()).with_subqueries(&runner);
        let plan = plan_query(&q, &ctx)?;
        let (tables, models) = self.check_query_access(&catalog, &plan)?;
        let plan = self.apply_session_strategy(plan)?;
        let plan = self.db.apply_rewriters(plan, &catalog)?;
        let plan = optimize(plan, &self.db.optimizer_config())?;
        let physical = create_physical_plan(&plan, &catalog, provider.as_ref(), &options)?;

        // Record the bound version of every live (non-pinned) scan in the
        // *optimized* plan — that is what the physical plan snapshots.
        // Queries over the per-query `flock_metrics` overlay never cache.
        let mut table_versions = Vec::new();
        let mut cacheable = !tables
            .iter()
            .any(|t| t.eq_ignore_ascii_case("flock_metrics"));
        plan.visit(&mut |n| {
            if let LogicalPlan::Scan {
                table,
                version: None,
                ..
            } = n
            {
                if table.eq_ignore_ascii_case("flock_metrics") {
                    cacheable = false;
                } else {
                    match catalog.table(table) {
                        Ok(t) => table_versions.push((table.clone(), t.current_version())),
                        Err(_) => cacheable = false,
                    }
                }
            }
        });

        let slot = self.admit(&options)?;
        let result = self.run_physical(
            &physical,
            provider,
            &options,
            cancel,
            params,
            tables.clone(),
            sql,
        );
        drop(slot);
        // Insert even when execution failed (cancel/timeout/budget): the
        // plan itself is valid and the next execution should still hit.
        if cacheable {
            self.db.plan_cache.insert(
                key,
                CachedPlan {
                    logical: Arc::new(plan),
                    physical,
                    tables,
                    models,
                    table_versions,
                    ddl_epoch: epochs.0,
                    options_epoch: epochs.1,
                    model_epoch: epochs.2,
                },
            );
        }
        result
    }

    /// Shared execution tail for cached and freshly planned physical
    /// query plans: budget, eval context (with bound parameters), metered
    /// execution, metrics publication, and query logging.
    #[allow(clippy::too_many_arguments)]
    fn run_physical(
        &mut self,
        physical: &crate::exec::PhysicalPlan,
        provider: ProviderRef,
        options: &ExecOptions,
        cancel: CancelToken,
        params: Arc<Vec<Value>>,
        tables: Vec<String>,
        sql: &str,
    ) -> Result<QueryResult> {
        let budget = Arc::new(QueryBudget::limited(
            options.max_rows_budget,
            options.max_mem_bytes,
        ));
        let eval_ctx = EvalContext::new(provider, self.user.clone(), options.threads)
            .with_cancel(cancel)
            .with_budget(budget)
            .with_params(params);
        let plan_metrics = PlanMetrics::for_plan(physical);
        let started = std::time::Instant::now();
        let result = physical.execute_metered(&eval_ctx, &plan_metrics);
        let elapsed_us = started.elapsed().as_micros() as u64;
        let snapshot = plan_metrics.snapshot(physical);
        self.db.metrics.record_query(&snapshot);
        let rows_scanned = snapshot.rows_scanned();
        let parallel_ops = snapshot.parallel_ops();
        self.last_query = Some(snapshot.clone());
        *self.db.last_query.write() = Some(snapshot);
        let batch = match result {
            Ok(batch) => batch,
            Err(e) => {
                self.note_query_error(&e);
                return Err(e);
            }
        };
        let rows = batch.num_rows();
        let runtime = QueryRuntime {
            rows_scanned,
            rows_returned: rows as u64,
            elapsed_us,
            parallel_ops,
        };
        self.log_statement_runtime(sql, StatementKind::Query, tables, vec![], vec![], runtime);
        Ok(QueryResult {
            batch: Some(batch),
            rows_affected: rows,
            message: format!("{rows} row(s)"),
        })
    }

    /// Execute a whole script, statement by statement.
    pub fn execute_script(&mut self, sql: &str) -> Result<Vec<QueryResult>> {
        let stmts = crate::parser::parse_script(sql)?;
        let rendered: Vec<String> = stmts.iter().map(|_| sql.to_string()).collect();
        stmts
            .into_iter()
            .zip(rendered)
            .map(|(s, raw)| self.execute_statement(s, &raw))
            .collect()
    }

    /// Run a query and return the batch.
    pub fn query(&mut self, sql: &str) -> Result<RecordBatch> {
        self.execute(sql)?
            .batch
            .ok_or_else(|| SqlError::Execution("statement returned no rows".into()))
    }

    fn execute_statement(&mut self, stmt: Statement, sql: &str) -> Result<QueryResult> {
        // Every statement starts fresh: a cancel aimed at the previous
        // statement must not kill this one. (Commit/rollback are exempt
        // from cancellation entirely — aborting a commit mid-install is
        // exactly the partial-state hazard cancellation must avoid.)
        self.cancel_flag.store(false, Ordering::Relaxed);
        match stmt {
            Statement::Begin => self.begin(),
            Statement::Commit => self.commit(),
            Statement::Rollback => self.rollback(),
            Statement::Set { name, value } => self.run_set(&name, value),
            Statement::Explain { statement, analyze } => self.explain(*statement, analyze),
            other => self.run_in_txn(other, sql),
        }
    }

    /// `SET <var> = <value>` — session-local settings, outside any
    /// transaction (they are not transactional and never touch the WAL).
    fn run_set(&mut self, name: &str, value: Option<Expr>) -> Result<QueryResult> {
        match name.to_ascii_lowercase().as_str() {
            "statement_timeout" => {
                let ms = match value {
                    None => None, // SET statement_timeout = DEFAULT
                    Some(e) => {
                        let folded = crate::optimizer::fold_expr(e)?;
                        match folded {
                            // 0 is kept as an explicit override: it means
                            // "disabled for this session", shadowing any
                            // engine-wide ExecOptions::statement_timeout_ms.
                            Expr::Literal(Value::Int(i)) if i >= 0 => Some(i as u64),
                            other => {
                                return Err(SqlError::Plan(format!(
                                    "statement_timeout expects a non-negative integer \
                                     (milliseconds), got {other:?}"
                                )))
                            }
                        }
                    }
                };
                self.statement_timeout_ms = ms;
                Ok(QueryResult::none(match ms {
                    Some(0) => "statement_timeout = off".to_string(),
                    Some(v) => format!("statement_timeout = {v}ms"),
                    None => "statement_timeout = default".to_string(),
                }))
            }
            "table_memory_budget" => {
                let bytes = match value {
                    None => 0, // SET table_memory_budget = DEFAULT
                    Some(e) => {
                        let folded = crate::optimizer::fold_expr(e)?;
                        match folded {
                            Expr::Literal(Value::Int(i)) if i >= 0 => i as u64,
                            other => {
                                return Err(SqlError::Plan(format!(
                                    "table_memory_budget expects a non-negative integer \
                                     (bytes), got {other:?}"
                                )))
                            }
                        }
                    }
                };
                // Engine-wide, not session-local: offload happens at
                // commit, which serves every session.
                self.db.set_table_memory_budget(bytes);
                Ok(QueryResult::none(if bytes == 0 {
                    "table_memory_budget = off".to_string()
                } else {
                    format!("table_memory_budget = {bytes} bytes")
                }))
            }
            "stream_tick_ms" => {
                let ms = match value {
                    None => 25, // SET stream_tick_ms = DEFAULT
                    Some(e) => {
                        let folded = crate::optimizer::fold_expr(e)?;
                        match folded {
                            Expr::Literal(Value::Int(i)) if i > 0 => i as u64,
                            other => {
                                return Err(SqlError::Plan(format!(
                                    "stream_tick_ms expects a positive integer \
                                     (milliseconds), got {other:?}"
                                )))
                            }
                        }
                    }
                };
                // Engine-wide: one scheduler thread serves every session.
                self.db.set_stream_tick_ms(ms);
                Ok(QueryResult::none(format!("stream_tick_ms = {ms}ms")))
            }
            "predict_strategy" => {
                let strategy = match value {
                    None => None, // SET predict_strategy = DEFAULT
                    Some(e) => {
                        let folded = crate::optimizer::fold_expr(e)?;
                        let Expr::Literal(Value::Text(s)) = folded else {
                            return Err(SqlError::Plan(format!(
                                "predict_strategy expects a string literal, got {folded:?}"
                            )));
                        };
                        match s.to_ascii_lowercase().as_str() {
                            "auto" | "default" => None,
                            "row" => Some(PredictStrategy::Row),
                            "vectorized" => Some(PredictStrategy::Vectorized),
                            // Degree is resolved once at SET time from the
                            // engine-wide thread budget.
                            "parallel" => Some(PredictStrategy::Parallel(
                                self.db.exec_options().threads.max(1),
                            )),
                            other => {
                                return Err(SqlError::Plan(format!(
                                    "predict_strategy expects one of 'row' | 'vectorized' \
                                     | 'parallel' | 'auto', got '{other}'"
                                )))
                            }
                        }
                    }
                };
                self.predict_strategy = strategy;
                Ok(QueryResult::none(match strategy {
                    Some(PredictStrategy::Parallel(n)) => {
                        format!("predict_strategy = parallel({n})")
                    }
                    Some(s) => format!("predict_strategy = {s:?}").to_ascii_lowercase(),
                    None => "predict_strategy = default".to_string(),
                }))
            }
            other => Err(SqlError::Plan(format!(
                "unknown session variable '{other}'"
            ))),
        }
    }

    /// This session's effective [`ExecOptions`]: the engine-wide options
    /// with any `SET predict_strategy` override folded into
    /// `default_predict`, so `Auto` strategies that reach physical
    /// compilation untouched still resolve to the session's choice.
    fn session_options(&self) -> ExecOptions {
        let mut options = self.db.exec_options();
        if let Some(s) = self.predict_strategy {
            options.default_predict = s;
        }
        options
    }

    /// Apply the session `SET predict_strategy` override to a logical
    /// plan: every `PREDICT` that did not pin a strategy in SQL (i.e.
    /// still `Auto`) adopts the override. Must run *before*
    /// [`Database::apply_rewriters`] — the cross-optimizer's operator
    /// selection consumes `Auto` there, after which the override would be
    /// silently lost.
    fn apply_session_strategy(&self, plan: LogicalPlan) -> Result<LogicalPlan> {
        match self.predict_strategy {
            Some(s) => override_auto_predict(plan, s),
            None => Ok(plan),
        }
    }

    /// Cancellation token for one statement: the session's cancel flag
    /// plus the effective deadline (session `SET statement_timeout`
    /// overrides the engine-wide [`ExecOptions::statement_timeout_ms`]).
    fn statement_cancel(&self, options: &ExecOptions) -> CancelToken {
        let mut token = CancelToken::from_flag(self.cancel_flag.clone());
        let timeout_ms = self
            .statement_timeout_ms
            .unwrap_or(options.statement_timeout_ms);
        if timeout_ms > 0 {
            token = token.with_deadline(std::time::Duration::from_millis(timeout_ms));
        }
        token
    }

    /// Claim an admission slot for one query, or reject with a typed
    /// error. The RAII slot releases on every exit path, including
    /// cancellation/timeout unwinds.
    fn admit(&self, options: &ExecOptions) -> Result<AdmissionSlot> {
        self.db
            .admission
            .try_acquire(options.max_concurrent_queries)
            .ok_or_else(|| {
                self.db
                    .metrics
                    .admission_rejected
                    .fetch_add(1, Ordering::Relaxed);
                SqlError::Admission(format!(
                    "database is at max_concurrent_queries = {}",
                    options.max_concurrent_queries
                ))
            })
    }

    /// Fold a failed query's error kind into the engine counters.
    fn note_query_error(&self, e: &SqlError) {
        let m = &self.db.metrics;
        match e {
            SqlError::Cancelled(_) => m.queries_cancelled.fetch_add(1, Ordering::Relaxed),
            SqlError::Timeout(_) => m.queries_timed_out.fetch_add(1, Ordering::Relaxed),
            SqlError::Budget(_) => m.budget_rejected.fetch_add(1, Ordering::Relaxed),
            _ => 0,
        };
    }

    // ------------------------------------------------------- transactions

    pub fn begin(&mut self) -> Result<QueryResult> {
        if self.txn.is_some() {
            return Err(SqlError::Transaction("transaction already open".into()));
        }
        let mut state = self.db.state.write();
        let id = state.next_txn;
        state.next_txn += 1;
        self.txn = Some(Txn {
            id,
            catalog: state.catalog.clone(),
            written: HashMap::new(),
            access_dirty: false,
            ddl: false,
            redo_buf: Vec::new(),
            log_buf: Vec::new(),
            audit_buf: Vec::new(),
        });
        Ok(QueryResult::none(format!("BEGIN (txn {id})")))
    }

    pub fn commit(&mut self) -> Result<QueryResult> {
        let mut txn = self
            .txn
            .take()
            .ok_or_else(|| SqlError::Transaction("no open transaction".into()))?;
        let mut guard = self.db.state.write();
        let state = &mut *guard;
        // Conflict detection: every written object must still be at its
        // base state in the committed catalog.
        for (key, base) in &txn.written {
            let current = object_state(&state.catalog, key);
            if current != *base {
                return Err(SqlError::Transaction(format!(
                    "write-write conflict on '{key}' (txn {})",
                    txn.id
                )));
            }
        }

        // Memory-budget offload rides this commit (durable databases
        // only). A part-write failure aborts the commit cleanly: nothing
        // reached the WAL and the committed catalog was never touched.
        if state.wal.is_some() {
            self.db.offload_over_budget(&mut txn)?;
        }

        // Assign log ids up front (counters are bumped only after the WAL
        // accepts the records, so a failed commit consumes nothing).
        let mut log_entries = txn.log_buf;
        let mut next_log_id = state.next_log_id;
        for e in &mut log_entries {
            e.id = next_log_id;
            next_log_id += 1;
        }
        let mut audit_entries = txn.audit_buf;
        let mut next_audit_seq = state.next_audit_seq;
        for a in &mut audit_entries {
            a.seq = next_audit_seq;
            next_audit_seq += 1;
        }

        // Write-ahead: encode and append the whole transaction before any
        // in-memory install. An I/O failure fails the commit outright —
        // memory never runs ahead of what the log accepted.
        if let Some(wal) = state.wal.as_mut() {
            let mut redo = txn.redo_buf;
            if txn.access_dirty {
                redo.push(RedoOp::AccessSet(txn.catalog.access.dump()));
            }
            let mut records = Vec::new();
            if !redo.is_empty() {
                records.push(WalRecord::Begin { txn_id: txn.id });
                for op in redo {
                    records.push(WalRecord::Op {
                        txn_id: txn.id,
                        op,
                    });
                }
                records.push(WalRecord::Commit { txn_id: txn.id });
            }
            records.extend(log_entries.iter().cloned().map(WalRecord::QueryLog));
            records.extend(audit_entries.iter().cloned().map(WalRecord::Audit));
            if !records.is_empty() {
                wal.append(&records).map_err(|e| {
                    SqlError::Io(format!("wal append failed; commit aborted: {e}"))
                })?;
            }
        }

        // Point of no return: install final states.
        for key in txn.written.keys() {
            apply_object(&mut state.catalog, &txn.catalog, key);
        }
        if txn.access_dirty {
            state.catalog.access = txn.catalog.access.clone();
        }
        state.next_log_id = next_log_id;
        state.next_audit_seq = next_audit_seq;
        state.query_log.extend(log_entries);
        state.audit_log.extend(audit_entries);

        // Committed DDL — or any grant/revoke — moves the epoch every
        // cached plan was validated against, so stale plans (including
        // ones a revoked user could still score through) die on their
        // next lookup.
        if txn.ddl || txn.access_dirty {
            self.db.ddl_epoch.fetch_add(1, Ordering::Relaxed);
        }

        // Periodic checkpoint (best-effort: a failed checkpoint leaves the
        // previous one and the log intact, so it never loses data).
        if state.wal.as_mut().is_some_and(|w| w.note_commit()) {
            let snap = snapshot_of(state);
            if let Some(wal) = &mut state.wal {
                let _ = wal.checkpoint(&snap);
            }
            sync_part_inventory(&state.catalog);
        }
        let id = txn.id;

        // Commit hooks observe the committed snapshot outside the state
        // lock (they may take their own locks — e.g. the model registry).
        let hooks = self.db.commit_hooks.read().clone();
        let hook_ctx = if hooks.is_empty() {
            None
        } else {
            let keys: Vec<String> = txn.written.keys().cloned().collect();
            Some((state.catalog.clone(), keys))
        };
        drop(guard);
        if let Some((catalog, keys)) = hook_ctx {
            for hook in &hooks {
                hook(&catalog, &keys);
            }
        }
        Ok(QueryResult::none(format!("COMMIT (txn {id})")))
    }

    pub fn rollback(&mut self) -> Result<QueryResult> {
        let txn = self
            .txn
            .take()
            .ok_or_else(|| SqlError::Transaction("no open transaction".into()))?;
        Ok(QueryResult::none(format!("ROLLBACK (txn {})", txn.id)))
    }

    /// Run one statement inside the open transaction, or autocommit.
    fn run_in_txn(&mut self, stmt: Statement, sql: &str) -> Result<QueryResult> {
        if self.txn.is_some() {
            let result = self.dispatch(stmt, sql);
            if result.is_err() {
                // statement-level failure aborts the transaction
                self.abort_txn();
            }
            return result;
        }
        self.begin()?;
        match self.dispatch(stmt, sql) {
            Ok(res) => {
                self.commit()?;
                Ok(res)
            }
            Err(e) => {
                self.abort_txn();
                Err(e)
            }
        }
    }

    /// Abort the open transaction, preserving its audit records — denied
    /// accesses and other security events must survive rollback.
    fn abort_txn(&mut self) {
        if let Some(txn) = self.txn.take() {
            let mut state = self.db.state.write();
            flush_logs(&mut state, vec![], txn.audit_buf);
        }
    }

    fn txn_mut(&mut self) -> &mut Txn {
        self.txn.as_mut().expect("transaction must be open")
    }

    // ------------------------------------------------------- dispatch

    fn dispatch(&mut self, stmt: Statement, sql: &str) -> Result<QueryResult> {
        match stmt {
            Statement::Query(q) => self.run_query(&q, sql),
            Statement::Insert {
                table,
                columns,
                source,
            } => self.run_insert(&table, columns.as_deref(), source, sql),
            Statement::Update {
                table,
                assignments,
                selection,
            } => self.run_update(&table, &assignments, selection.as_ref(), sql),
            Statement::Delete { table, selection } => {
                self.run_delete(&table, selection.as_ref(), sql)
            }
            Statement::CreateTable {
                name,
                columns,
                if_not_exists,
            } => self.run_create_table(&name, &columns, if_not_exists, sql),
            Statement::DropTable { name, if_exists } => {
                self.run_drop_table(&name, if_exists, sql)
            }
            Statement::CreateView { name, query: _ } => {
                // store the original SQL text of the view body
                let body = sql.split_once(" AS ").map(|x| x.1)
                    .or_else(|| sql.split_once(" as ").map(|x| x.1))
                    .unwrap_or(sql)
                    .trim()
                    .trim_end_matches(';')
                    .to_string();
                let txn = self.txn_mut();
                let base = object_state(&txn.catalog, &format!("view:{}", name.to_ascii_lowercase()));
                txn.catalog.create_view(ViewDef {
                    name: name.clone(),
                    sql: body.clone(),
                })?;
                txn.redo_buf.push(RedoOp::CreateView {
                    name: name.clone(),
                    sql: body,
                });
                let key = format!("view:{}", name.to_ascii_lowercase());
                txn.written.entry(key).or_insert(base);
                txn.ddl = true;
                self.audit("CREATE VIEW", &name, "");
                Ok(QueryResult::none(format!("view '{name}' created")))
            }
            Statement::DropView { name } => {
                let txn = self.txn_mut();
                let key = format!("view:{}", name.to_ascii_lowercase());
                let base = object_state(&txn.catalog, &key);
                txn.catalog.drop_view(&name)?;
                txn.redo_buf.push(RedoOp::DropView { name: name.clone() });
                txn.written.entry(key).or_insert(base);
                txn.ddl = true;
                self.audit("DROP VIEW", &name, "");
                Ok(QueryResult::none(format!("view '{name}' dropped")))
            }
            Statement::AlterTable { name, action } => self.run_alter_table(&name, action, sql),
            Statement::ShowTables => self.show_tables(),
            Statement::Describe { name } => self.describe(&name),
            Statement::CreateUser { name } => {
                self.require_superuser("CREATE USER")?;
                let txn = self.txn_mut();
                txn.catalog.access.create_user(&name);
                txn.access_dirty = true;
                self.audit("CREATE USER", &name, "");
                Ok(QueryResult::none(format!("user '{name}' created")))
            }
            Statement::Grant {
                privileges,
                object,
                user,
            } => self.run_grant(&privileges, &object, &user, false),
            Statement::Revoke {
                privileges,
                object,
                user,
            } => self.run_grant(&privileges, &object, &user, true),
            Statement::CreateStream {
                name,
                columns,
                event_time,
                lag_ms,
                if_not_exists,
            } => self.run_create_stream(&name, &columns, &event_time, lag_ms, if_not_exists, sql),
            Statement::DropStream { name } => self.run_drop_stream(&name, sql),
            Statement::CreateContinuousQuery {
                name,
                stream,
                window,
                sink,
                query,
                when,
                hold_model,
                retrain_model,
            } => self.run_create_cq(
                &name,
                &stream,
                window,
                &sink,
                &query,
                when,
                hold_model,
                retrain_model,
                sql,
            ),
            Statement::DropContinuousQuery { name } => self.run_drop_cq(&name, sql),
            Statement::ShowStreams => self.show_streams(),
            Statement::CreateModel {
                name,
                kind,
                options,
                target,
                output,
                query,
            } => {
                let spec = TrainSpec {
                    name: name.clone(),
                    kind,
                    options,
                    target,
                    output: output
                        .unwrap_or_else(|| format!("{}_score", name.to_ascii_lowercase())),
                };
                self.run_create_model(&spec, &query, sql)
            }
            Statement::RetrainModel { name } => self.run_retrain_model(&name, sql),
            Statement::DropModel { name } => self.run_drop_model(&name, sql),
            Statement::Begin
            | Statement::Commit
            | Statement::Rollback
            | Statement::Set { .. }
            | Statement::Explain { .. } => {
                unreachable!("handled by execute_statement")
            }
        }
    }

    fn explain(&mut self, stmt: Statement, analyze: bool) -> Result<QueryResult> {
        let Statement::Query(q) = stmt else {
            return Err(SqlError::Plan("EXPLAIN supports only queries".into()));
        };
        let catalog = self
            .db
            .overlay_metrics_table(self.working_catalog(), &self.user);
        let provider = self.db.inference_provider();
        let options = self.session_options();
        let cancel = self.statement_cancel(&options);
        let runner = EngineSubqueryRunner {
            catalog: &catalog,
            db: &self.db,
            user: &self.user,
            cancel: cancel.clone(),
        };
        let ctx = PlanContext::new(&catalog, provider.as_ref()).with_subqueries(&runner);
        let plan = plan_query(&q, &ctx)?;

        // EXPLAIN ANALYZE actually executes, so it is subject to the same
        // access control as a plain query.
        if analyze {
            self.check_query_access(&catalog, &plan)?;
        }

        let plan = self.apply_session_strategy(plan)?;
        let plan = self.db.apply_rewriters(plan, &catalog)?;
        let optimized = optimize(plan, &self.db.optimizer_config())?;
        let text = if analyze {
            let _slot = self.admit(&options)?;
            let budget = Arc::new(QueryBudget::limited(
                options.max_rows_budget,
                options.max_mem_bytes,
            ));
            let physical =
                create_physical_plan(&optimized, &catalog, provider.as_ref(), &options)?;
            let eval_ctx = EvalContext::new(provider, self.user.clone(), options.threads)
                .with_cancel(cancel)
                .with_budget(budget);
            let plan_metrics = PlanMetrics::for_plan(&physical);
            let result = physical.execute_metered(&eval_ctx, &plan_metrics);
            // Partial metrics survive a cancelled/failed run: publish the
            // snapshot before propagating the error.
            let snapshot = plan_metrics.snapshot(&physical);
            self.db.metrics.record_query(&snapshot);
            let text = snapshot.render();
            self.last_query = Some(snapshot.clone());
            *self.db.last_query.write() = Some(snapshot);
            if let Err(e) = result {
                self.note_query_error(&e);
                return Err(e);
            }
            text
        } else {
            optimized.explain()
        };
        let schema = Arc::new(Schema::from_pairs(&[("plan", crate::types::DataType::Text)]));
        let rows: Vec<Vec<Value>> = text
            .lines()
            .map(|l| vec![Value::Text(l.to_string())])
            .collect();
        Ok(QueryResult {
            batch: Some(RecordBatch::from_rows(schema, &rows)?),
            rows_affected: 0,
            message: if analyze { "EXPLAIN ANALYZE" } else { "EXPLAIN" }.into(),
        })
    }

    /// ALTER TABLE: schema evolution as a new table version. Added columns
    /// backfill NULL; dropped columns disappear from the current schema but
    /// remain visible through time-travel reads of older versions.
    fn run_alter_table(
        &mut self,
        name: &str,
        action: AlterAction,
        sql: &str,
    ) -> Result<QueryResult> {
        let catalog = self.working_catalog();
        reject_stream_write(&catalog, name, "ALTER TABLE")?;
        self.check_access(&catalog, &ObjectRef::table(name), Privilege::Create)?;
        let table = catalog.table(name)?;
        let schema = table.schema().clone();
        let data = materialize_version(&catalog, table.current())?;

        let (new_schema, new_batch, detail) = match action {
            AlterAction::AddColumn(decl) => {
                if schema.index_of(&decl.name).is_some() {
                    return Err(SqlError::Catalog(format!(
                        "column '{}' already exists in '{name}'",
                        decl.name
                    )));
                }
                let mut cols: Vec<ColumnDef> = schema.columns().to_vec();
                cols.push(ColumnDef {
                    name: decl.name.clone(),
                    data_type: decl.data_type,
                    nullable: true,
                });
                let new_schema = Schema::new(cols);
                let mut columns = data.columns().to_vec();
                let mut fresh = ColumnVector::with_capacity(decl.data_type, data.num_rows());
                for _ in 0..data.num_rows() {
                    fresh.push_null();
                }
                columns.push(fresh);
                let batch = RecordBatch::new(Arc::new(new_schema.clone()), columns)?;
                (new_schema, batch, format!("ADD COLUMN {}", decl.name))
            }
            AlterAction::DropColumn(col) => {
                let idx = schema.index_of(&col).ok_or_else(|| {
                    SqlError::Catalog(format!("column '{col}' does not exist in '{name}'"))
                })?;
                if schema.len() == 1 {
                    return Err(SqlError::Constraint(
                        "cannot drop the last column of a table".into(),
                    ));
                }
                let keep: Vec<usize> = (0..schema.len()).filter(|&i| i != idx).collect();
                let new_schema = schema.project(&keep);
                let columns: Vec<ColumnVector> =
                    keep.iter().map(|&i| data.column(i).clone()).collect();
                let batch = RecordBatch::new(Arc::new(new_schema.clone()), columns)?;
                (new_schema, batch, format!("DROP COLUMN {col}"))
            }
        };

        let txn_id = self.txn_mut().id;
        let txn = self.txn_mut();
        let key = format!("table:{}", name.to_ascii_lowercase());
        let base = object_state(&txn.catalog, &key);
        let redo_data = new_batch.clone();
        let table = txn.catalog.table_mut(name)?;
        let redo_table = table.name().to_string();
        let version = table.evolve(new_schema, new_batch, txn_id)?;
        // The logged batch carries the evolved schema, so replay restores
        // the ALTER through the ordinary push-version path.
        txn.redo_buf.push(RedoOp::PushVersion {
            table: redo_table,
            version,
            txn_id,
            data: redo_data,
        });
        txn.written.entry(key).or_insert(base);
        txn.ddl = true;
        self.log_statement(
            sql,
            StatementKind::Ddl,
            vec![],
            vec![name.to_string()],
            vec![(name.to_string(), version)],
        );
        self.audit("ALTER TABLE", name, &detail);
        Ok(QueryResult::none(format!(
            "table '{name}' altered ({detail}); version {version}"
        )))
    }

    // -------------------------------------------------- data discovery

    /// `SHOW TABLES` — the catalog's discovery surface (paper §4.2:
    /// "Data Discovery support is virtually non-existent" in file-based
    /// workflows; a managed catalog fixes that).
    fn show_tables(&mut self) -> Result<QueryResult> {
        let catalog = self.working_catalog();
        let schema = Arc::new(Schema::from_pairs(&[
            ("name", crate::types::DataType::Text),
            ("columns", crate::types::DataType::Int),
            ("rows", crate::types::DataType::Int),
            ("version", crate::types::DataType::Int),
        ]));
        let mut rows: Vec<Vec<Value>> = Vec::new();
        for name in catalog.table_names() {
            // only list tables this user may read
            if catalog
                .access
                .check(&self.user, &ObjectRef::table(&name), Privilege::Select)
                .is_err()
            {
                continue;
            }
            let t = catalog.table(&name)?;
            rows.push(vec![
                Value::Text(name.clone()),
                Value::Int(t.schema().len() as i64),
                Value::Int(t.row_count() as i64),
                Value::Int(t.current_version() as i64),
            ]);
        }
        let batch = RecordBatch::from_rows(schema, &rows)?;
        Ok(QueryResult {
            rows_affected: batch.num_rows(),
            batch: Some(batch),
            message: "SHOW TABLES".into(),
        })
    }

    /// `DESCRIBE <table>` — per-column data profile straight from the
    /// table's statistics: type, nullability, null count, distinct count,
    /// and numeric min/max.
    fn describe(&mut self, name: &str) -> Result<QueryResult> {
        let catalog = self.working_catalog();
        self.check_access(&catalog, &ObjectRef::table(name), Privilege::Select)?;
        let table = catalog.table(name)?;
        let stats = &table.current().stats;
        let schema = Arc::new(Schema::from_pairs(&[
            ("column", crate::types::DataType::Text),
            ("type", crate::types::DataType::Text),
            ("nullable", crate::types::DataType::Bool),
            ("nulls", crate::types::DataType::Int),
            ("distinct", crate::types::DataType::Int),
            ("min", crate::types::DataType::Float),
            ("max", crate::types::DataType::Float),
        ]));
        let mut rows: Vec<Vec<Value>> = Vec::new();
        for (i, col) in table.schema().columns().iter().enumerate() {
            let cs = &stats.columns[i];
            rows.push(vec![
                Value::Text(col.name.clone()),
                Value::Text(col.data_type.to_string()),
                Value::Bool(col.nullable),
                Value::Int(cs.null_count as i64),
                Value::Int(cs.distinct_count as i64),
                cs.min.map(Value::Float).unwrap_or(Value::Null),
                cs.max.map(Value::Float).unwrap_or(Value::Null),
            ]);
        }
        let batch = RecordBatch::from_rows(schema, &rows)?;
        Ok(QueryResult {
            rows_affected: batch.num_rows(),
            batch: Some(batch),
            message: format!("DESCRIBE {name}"),
        })
    }

    // ------------------------------------------------------- queries

    fn working_catalog(&self) -> Catalog {
        match &self.txn {
            Some(t) => t.catalog.clone(),
            None => self.db.catalog(),
        }
    }

    /// Access control runs on the *pre-rewrite* plan: SELECT on every
    /// scanned table, EXECUTE on every referenced model. Rewriters may
    /// inline a model away, but inlining must not bypass its ACL.
    /// Returns the scanned table and model names — the query log wants the
    /// tables, and cached plans re-check both lists on every execute.
    fn check_query_access(
        &mut self,
        catalog: &Catalog,
        plan: &LogicalPlan,
    ) -> Result<(Vec<String>, Vec<String>)> {
        let mut tables = Vec::new();
        plan.visit(&mut |n| {
            if let LogicalPlan::Scan { table, .. } = n {
                tables.push(table.clone());
            }
        });
        for t in &tables {
            self.check_access(catalog, &ObjectRef::table(t), Privilege::Select)?;
        }
        let mut models = Vec::new();
        plan.visit_exprs(&mut |e| {
            e.walk(&mut |x| {
                if let Expr::Predict { model, .. } = x {
                    models.push(model.clone());
                }
            })
        });
        for m in &models {
            self.check_model_executable(catalog, m)?;
        }
        Ok((tables, models))
    }

    fn run_query(&mut self, q: &crate::ast::Query, sql: &str) -> Result<QueryResult> {
        let catalog = self
            .db
            .overlay_metrics_table(self.working_catalog(), &self.user);
        let provider = self.db.inference_provider();
        let options = self.session_options();
        let _slot = self.admit(&options)?;
        let cancel = self.statement_cancel(&options);
        let budget = Arc::new(QueryBudget::limited(
            options.max_rows_budget,
            options.max_mem_bytes,
        ));
        let runner = EngineSubqueryRunner {
            catalog: &catalog,
            db: &self.db,
            user: &self.user,
            cancel: cancel.clone(),
        };
        let ctx = PlanContext::new(&catalog, provider.as_ref()).with_subqueries(&runner);
        let plan = plan_query(q, &ctx)?;

        let (tables, _models) = self.check_query_access(&catalog, &plan)?;

        let plan = self.apply_session_strategy(plan)?;
        let plan = self.db.apply_rewriters(plan, &catalog)?;
        let plan = optimize(plan, &self.db.optimizer_config())?;

        let physical = create_physical_plan(&plan, &catalog, provider.as_ref(), &options)?;
        let eval_ctx = EvalContext::new(provider, self.user.clone(), options.threads)
            .with_cancel(cancel)
            .with_budget(budget);
        let plan_metrics = PlanMetrics::for_plan(&physical);
        let started = std::time::Instant::now();
        let result = physical.execute_metered(&eval_ctx, &plan_metrics);
        let elapsed_us = started.elapsed().as_micros() as u64;
        // Snapshot unconditionally: a cancelled / timed-out / over-budget
        // query still publishes the partial counters it accumulated.
        let snapshot = plan_metrics.snapshot(&physical);
        self.db.metrics.record_query(&snapshot);
        let rows_scanned = snapshot.rows_scanned();
        let parallel_ops = snapshot.parallel_ops();
        self.last_query = Some(snapshot.clone());
        *self.db.last_query.write() = Some(snapshot);
        let batch = match result {
            Ok(batch) => batch,
            Err(e) => {
                self.note_query_error(&e);
                return Err(e);
            }
        };
        let rows = batch.num_rows();
        let runtime = QueryRuntime {
            rows_scanned,
            rows_returned: rows as u64,
            elapsed_us,
            parallel_ops,
        };
        self.log_statement_runtime(sql, StatementKind::Query, tables, vec![], vec![], runtime);
        Ok(QueryResult {
            batch: Some(batch),
            rows_affected: rows,
            message: format!("{rows} row(s)"),
        })
    }

    // ------------------------------------------------------- DML

    fn run_insert(
        &mut self,
        table_name: &str,
        columns: Option<&[String]>,
        source: InsertSource,
        sql: &str,
    ) -> Result<QueryResult> {
        let catalog = self.working_catalog();
        self.check_access(&catalog, &ObjectRef::table(table_name), Privilege::Insert)?;
        let table = catalog.table(table_name)?;
        let schema = table.schema().clone();

        // Map provided columns to schema positions.
        let positions: Vec<usize> = match columns {
            Some(cols) => cols
                .iter()
                .map(|c| {
                    schema
                        .index_of(c)
                        .ok_or_else(|| SqlError::Plan(format!("unknown column '{c}'")))
                })
                .collect::<Result<_>>()?,
            None => (0..schema.len()).collect(),
        };

        let incoming: Vec<Vec<Value>> = match source {
            InsertSource::Values(rows) => {
                let provider = self.db.inference_provider();
                let empty = RecordBatch::empty(Arc::new(Schema::default()));
                let eval_ctx =
                    EvalContext::new(provider.clone(), self.user.clone(), 1)
                        .with_cancel(self.statement_cancel(&self.db.exec_options()));
                let mut out = Vec::with_capacity(rows.len());
                for row in rows {
                    if row.len() != positions.len() {
                        return Err(SqlError::Constraint(format!(
                            "INSERT row has {} values, expected {}",
                            row.len(),
                            positions.len()
                        )));
                    }
                    let mut vals = Vec::with_capacity(row.len());
                    for e in row {
                        let folded = crate::optimizer::fold_expr(e)?;
                        let compiled =
                            PhysExpr::compile(&folded, &Schema::default(), provider.as_ref())?;
                        vals.push(compiled.eval_row(&empty, 0, &eval_ctx)?);
                    }
                    out.push(vals);
                }
                out
            }
            InsertSource::Query(q) => {
                let res = self.run_query(&q, sql)?;
                let batch = res.batch.expect("query returns batch");
                if batch.num_columns() != positions.len() {
                    return Err(SqlError::Constraint(format!(
                        "INSERT source has {} columns, expected {}",
                        batch.num_columns(),
                        positions.len()
                    )));
                }
                (0..batch.num_rows()).map(|i| batch.row(i)).collect()
            }
        };

        // Build the appended rows as their own batch (the WAL logs just
        // this delta), then append it to the current snapshot.
        let n_inserted = incoming.len();
        let mut delta_cols: Vec<ColumnVector> = schema
            .columns()
            .iter()
            .map(|c| ColumnVector::with_capacity(c.data_type, n_inserted))
            .collect();
        for row in &incoming {
            for (ci, col) in delta_cols.iter_mut().enumerate() {
                let val = positions
                    .iter()
                    .position(|&p| p == ci)
                    .map(|slot| row[slot].clone())
                    .unwrap_or(Value::Null);
                if val.is_null() && !schema.column(ci).nullable {
                    return Err(SqlError::Constraint(format!(
                        "column '{}' is NOT NULL",
                        schema.column(ci).name
                    )));
                }
                col.push(val)?;
            }
        }
        let delta = RecordBatch::new(schema.clone(), delta_cols)?;
        let current = &catalog.table(table_name)?.current().data;
        let mut new_cols: Vec<ColumnVector> = current.columns().to_vec();
        for (dst, src) in new_cols.iter_mut().zip(delta.columns()) {
            dst.append(src)?;
        }
        let new_batch = RecordBatch::new(schema, new_cols)?;
        let version = self.install_table_version(table_name, new_batch, Some(delta))?;
        self.log_statement(
            sql,
            StatementKind::Insert,
            vec![],
            vec![table_name.to_string()],
            vec![(table_name.to_string(), version)],
        );
        self.audit("INSERT", table_name, &format!("{n_inserted} row(s)"));
        if catalog.has_extension(STREAM_KIND, table_name) {
            self.trim_stream_history(table_name)?;
        }
        Ok(QueryResult::affected(
            n_inserted,
            format!("{n_inserted} row(s) inserted"),
        ))
    }

    fn run_update(
        &mut self,
        table_name: &str,
        assignments: &[(String, Expr)],
        selection: Option<&Expr>,
        sql: &str,
    ) -> Result<QueryResult> {
        let catalog = self.working_catalog();
        reject_stream_write(&catalog, table_name, "UPDATE")?;
        self.check_access(&catalog, &ObjectRef::table(table_name), Privilege::Update)?;
        let table = catalog.table(table_name)?;
        let schema = table.schema().clone();
        let data = materialize_version(&catalog, table.current())?;
        let provider = self.db.inference_provider();
        let eval_ctx = EvalContext::new(provider.clone(), self.user.clone(), 1)
            .with_cancel(self.statement_cancel(&self.db.exec_options()));

        let pred = selection
            .map(|p| PhysExpr::compile(p, &schema, provider.as_ref()))
            .transpose()?;
        let compiled: Vec<(usize, PhysExpr)> = assignments
            .iter()
            .map(|(col, e)| {
                let idx = schema
                    .index_of(col)
                    .ok_or_else(|| SqlError::Plan(format!("unknown column '{col}'")))?;
                Ok((idx, PhysExpr::compile(e, &schema, provider.as_ref())?))
            })
            .collect::<Result<_>>()?;

        let mut rows: Vec<Vec<Value>> = (0..data.num_rows()).map(|i| data.row(i)).collect();
        let mut updated = 0usize;
        for (i, row) in rows.iter_mut().enumerate() {
            let hit = match &pred {
                Some(p) => p.eval_row(&data, i, &eval_ctx)?.as_bool() == Some(true),
                None => true,
            };
            if !hit {
                continue;
            }
            updated += 1;
            for (idx, e) in &compiled {
                let v = e.eval_row(&data, i, &eval_ctx)?;
                if v.is_null() && !schema.column(*idx).nullable {
                    return Err(SqlError::Constraint(format!(
                        "column '{}' is NOT NULL",
                        schema.column(*idx).name
                    )));
                }
                row[*idx] = v;
            }
        }
        let new_batch = RecordBatch::from_rows(schema, &rows)?;
        let version = self.install_table_version(table_name, new_batch, None)?;
        self.log_statement(
            sql,
            StatementKind::Update,
            vec![table_name.to_string()],
            vec![table_name.to_string()],
            vec![(table_name.to_string(), version)],
        );
        self.audit("UPDATE", table_name, &format!("{updated} row(s)"));
        Ok(QueryResult::affected(
            updated,
            format!("{updated} row(s) updated"),
        ))
    }

    fn run_delete(
        &mut self,
        table_name: &str,
        selection: Option<&Expr>,
        sql: &str,
    ) -> Result<QueryResult> {
        let catalog = self.working_catalog();
        reject_stream_write(&catalog, table_name, "DELETE")?;
        self.check_access(&catalog, &ObjectRef::table(table_name), Privilege::Delete)?;
        let table = catalog.table(table_name)?;
        let schema = table.schema().clone();
        let data = materialize_version(&catalog, table.current())?;
        let provider = self.db.inference_provider();
        let eval_ctx = EvalContext::new(provider.clone(), self.user.clone(), 1)
            .with_cancel(self.statement_cancel(&self.db.exec_options()));
        let mask: Vec<bool> = match selection {
            Some(p) => {
                let compiled = PhysExpr::compile(p, &schema, provider.as_ref())?;
                let col = compiled.eval(&data, &eval_ctx)?;
                (0..data.num_rows())
                    .map(|i| col.get(i).as_bool() != Some(true))
                    .collect()
            }
            None => vec![false; data.num_rows()],
        };
        let deleted = mask.iter().filter(|k| !**k).count();
        let new_batch = data.filter(&mask)?;
        let version = self.install_table_version(table_name, new_batch, None)?;
        self.log_statement(
            sql,
            StatementKind::Delete,
            vec![table_name.to_string()],
            vec![table_name.to_string()],
            vec![(table_name.to_string(), version)],
        );
        self.audit("DELETE", table_name, &format!("{deleted} row(s)"));
        Ok(QueryResult::affected(
            deleted,
            format!("{deleted} row(s) deleted"),
        ))
    }

    // ------------------------------------------------------- DDL

    fn run_create_table(
        &mut self,
        name: &str,
        columns: &[crate::ast::ColumnDecl],
        if_not_exists: bool,
        sql: &str,
    ) -> Result<QueryResult> {
        let txn_id = self.txn_mut().id;
        {
            let txn = self.txn_mut();
            if txn.catalog.has_table(name) {
                if if_not_exists {
                    return Ok(QueryResult::none(format!("table '{name}' already exists")));
                }
                return Err(SqlError::Catalog(format!("table '{name}' already exists")));
            }
            let key = format!("table:{}", name.to_ascii_lowercase());
            let base = object_state(&txn.catalog, &key);
            let schema = Schema::new(
                columns
                    .iter()
                    .map(|c| ColumnDef {
                        name: c.name.clone(),
                        data_type: c.data_type,
                        nullable: c.nullable,
                    })
                    .collect(),
            );
            let table = Table::new(name, schema.clone(), txn_id)?;
            txn.catalog.create_table(table)?;
            txn.redo_buf.push(RedoOp::CreateTable {
                name: name.to_string(),
                schema,
                txn_id,
            });
            txn.written.entry(key).or_insert(base);
            txn.ddl = true;
            // creator gets full rights on the new table
            let user = self.user.clone();
            let txn = self.txn_mut();
            txn.catalog
                .access
                .grant(&user, ObjectRef::table(name), &Privilege::ALL);
            txn.access_dirty = true;
        }
        self.log_statement(sql, StatementKind::Ddl, vec![], vec![name.to_string()], vec![]);
        self.audit("CREATE TABLE", name, "");
        Ok(QueryResult::none(format!("table '{name}' created")))
    }

    fn run_drop_table(
        &mut self,
        name: &str,
        if_exists: bool,
        sql: &str,
    ) -> Result<QueryResult> {
        let catalog = self.working_catalog();
        if catalog.has_extension(STREAM_KIND, name) {
            return Err(SqlError::Constraint(format!(
                "'{name}' is a stream; use DROP STREAM {name}"
            )));
        }
        if !catalog.has_table(name) {
            if if_exists {
                return Ok(QueryResult::none(format!("table '{name}' does not exist")));
            }
            return Err(SqlError::Catalog(format!("table '{name}' does not exist")));
        }
        self.check_access(&catalog, &ObjectRef::table(name), Privilege::Drop)?;
        let txn = self.txn_mut();
        let key = format!("table:{}", name.to_ascii_lowercase());
        let base = object_state(&txn.catalog, &key);
        txn.catalog.drop_table(name)?;
        txn.redo_buf.push(RedoOp::DropTable {
            name: name.to_string(),
        });
        txn.written.entry(key).or_insert(base);
        txn.ddl = true;
        self.log_statement(sql, StatementKind::Ddl, vec![], vec![name.to_string()], vec![]);
        self.audit("DROP TABLE", name, "");
        Ok(QueryResult::none(format!("table '{name}' dropped")))
    }

    // ------------------------------- streams and continuous queries (DDL)

    /// Create a table inside the open transaction from an already-built
    /// schema, granting the creator full rights. Shared by stream backing
    /// tables and continuous-query sink tables.
    fn create_table_from_schema_txn(&mut self, name: &str, schema: Schema) -> Result<()> {
        let txn_id = self.txn_mut().id;
        let txn = self.txn_mut();
        if txn.catalog.has_table(name) {
            return Err(SqlError::Catalog(format!("table '{name}' already exists")));
        }
        let key = format!("table:{}", name.to_ascii_lowercase());
        let base = object_state(&txn.catalog, &key);
        let table = Table::new(name, schema.clone(), txn_id)?;
        txn.catalog.create_table(table)?;
        txn.redo_buf.push(RedoOp::CreateTable {
            name: name.to_string(),
            schema,
            txn_id,
        });
        txn.written.entry(key).or_insert(base);
        txn.ddl = true;
        let user = self.user.clone();
        let txn = self.txn_mut();
        txn.catalog
            .access
            .grant(&user, ObjectRef::table(name), &Privilege::ALL);
        txn.access_dirty = true;
        Ok(())
    }

    /// `CREATE STREAM name (cols...) WATERMARK (col, lag_ms)`: an
    /// append-only table plus a stream extension object carrying the
    /// event-time column and watermark lag. Both are WAL-durable through
    /// the existing redo records — no new log format.
    #[allow(clippy::too_many_arguments)]
    fn run_create_stream(
        &mut self,
        name: &str,
        columns: &[ColumnDecl],
        event_time: &str,
        lag_ms: i64,
        if_not_exists: bool,
        sql: &str,
    ) -> Result<QueryResult> {
        {
            let txn = self.txn_mut();
            if txn.catalog.has_table(name) || txn.catalog.has_extension(STREAM_KIND, name) {
                if if_not_exists && txn.catalog.has_extension(STREAM_KIND, name) {
                    return Ok(QueryResult::none(format!("stream '{name}' already exists")));
                }
                return Err(SqlError::Catalog(format!(
                    "stream or table '{name}' already exists"
                )));
            }
        }
        let et = columns
            .iter()
            .find(|c| c.name.eq_ignore_ascii_case(event_time))
            .ok_or_else(|| {
                SqlError::Catalog(format!(
                    "watermark column '{event_time}' is not a column of stream '{name}'"
                ))
            })?;
        if et.data_type != crate::types::DataType::Int {
            return Err(SqlError::Constraint(format!(
                "watermark column '{event_time}' must be INT (event-time milliseconds)"
            )));
        }
        let schema = Schema::new(
            columns
                .iter()
                .map(|c| ColumnDef {
                    name: c.name.clone(),
                    data_type: c.data_type,
                    nullable: c.nullable,
                })
                .collect(),
        );
        self.create_table_from_schema_txn(name, schema)?;
        let spec = StreamSpec {
            event_time: et.name.clone(),
            lag_ms,
        };
        self.create_extension_txn(STREAM_KIND, name, Vec::new(), spec.to_metadata())?;
        self.log_statement(sql, StatementKind::Ddl, vec![], vec![name.to_string()], vec![]);
        Ok(QueryResult::none(format!("stream '{name}' created")))
    }

    fn run_drop_stream(&mut self, name: &str, sql: &str) -> Result<QueryResult> {
        let catalog = self.working_catalog();
        if !catalog.has_extension(STREAM_KIND, name) {
            return Err(SqlError::Catalog(format!("stream '{name}' does not exist")));
        }
        for cq in catalog.extensions_of_kind(CQ_KIND) {
            let spec = CqSpec::from_metadata(&cq.current().metadata)?;
            if spec.stream.eq_ignore_ascii_case(name) {
                return Err(SqlError::Constraint(format!(
                    "stream '{name}' is read by continuous query '{}'; drop that first",
                    cq.name
                )));
            }
        }
        self.check_access(&catalog, &ObjectRef::table(name), Privilege::Drop)?;
        self.drop_extension_txn(STREAM_KIND, name)?;
        let txn = self.txn_mut();
        let key = format!("table:{}", name.to_ascii_lowercase());
        let base = object_state(&txn.catalog, &key);
        txn.catalog.drop_table(name)?;
        txn.redo_buf.push(RedoOp::DropTable {
            name: name.to_string(),
        });
        txn.written.entry(key).or_insert(base);
        txn.ddl = true;
        self.log_statement(sql, StatementKind::Ddl, vec![], vec![name.to_string()], vec![]);
        self.audit("DROP STREAM", name, "");
        Ok(QueryResult::none(format!("stream '{name}' dropped")))
    }

    /// `CREATE CONTINUOUS QUERY`: validates and compiles the whole
    /// pipeline up front (window shape, query plan, PREDICT models, WHEN
    /// predicate), creates the sink table from the compiled output schema,
    /// and registers the CQ as an extension object the scheduler picks up
    /// on its next tick.
    #[allow(clippy::too_many_arguments)]
    #[allow(clippy::too_many_arguments)]
    fn run_create_cq(
        &mut self,
        name: &str,
        stream: &str,
        window: WindowSpec,
        sink: &str,
        query: &crate::ast::Query,
        when: Option<Expr>,
        hold_model: Option<String>,
        retrain_model: Option<String>,
        sql: &str,
    ) -> Result<QueryResult> {
        crate::stream::validate_window(&window)?;
        let catalog = self.working_catalog();
        if catalog.has_extension(CQ_KIND, name) {
            return Err(SqlError::Catalog(format!(
                "continuous query '{name}' already exists"
            )));
        }
        if !catalog.has_extension(STREAM_KIND, stream) {
            return Err(SqlError::Catalog(format!("stream '{stream}' does not exist")));
        }
        if catalog.has_table(sink) {
            return Err(SqlError::Catalog(format!(
                "sink table '{sink}' already exists"
            )));
        }
        self.check_access(&catalog, &ObjectRef::table(stream), Privilege::Select)?;
        // Both policy actions mutate the target model (hold flips its
        // metadata, retrain deploys a new version); the creator must hold
        // that right up front.
        for m in hold_model.iter().chain(retrain_model.iter()) {
            if !catalog.has_extension("model", m) {
                return Err(SqlError::Catalog(format!("model '{m}' does not exist")));
            }
            self.check_access(&catalog, &ObjectRef::extension(m), Privilege::Update)?;
        }
        let spec = CqSpec {
            stream: stream.to_string(),
            window,
            sink: sink.to_string(),
            query_sql: query.to_string(),
            when_sql: when.as_ref().map(|e| e.to_string()),
            hold_model,
            retrain_model,
            next_emit_ms: None,
        };
        let provider = self.db.inference_provider();
        let compiled = crate::stream::compile_cq(&spec, &catalog, provider.as_ref())?;
        for m in &compiled.predict_models {
            self.check_access(&catalog, &ObjectRef::extension(m), Privilege::Execute)?;
        }
        self.create_table_from_schema_txn(sink, compiled.sink_schema.clone())?;
        self.create_extension_txn(CQ_KIND, name, Vec::new(), spec.to_metadata())?;
        self.log_statement(
            sql,
            StatementKind::Ddl,
            vec![stream.to_string()],
            vec![name.to_string(), sink.to_string()],
            vec![],
        );
        Ok(QueryResult::none(format!(
            "continuous query '{name}' created (sink '{sink}')"
        )))
    }

    /// Drop a continuous query. Its sink table survives as ordinary
    /// queryable data.
    fn run_drop_cq(&mut self, name: &str, sql: &str) -> Result<QueryResult> {
        let catalog = self.working_catalog();
        if !catalog.has_extension(CQ_KIND, name) {
            return Err(SqlError::Catalog(format!(
                "continuous query '{name}' does not exist"
            )));
        }
        self.drop_extension_txn(CQ_KIND, name)?;
        self.log_statement(sql, StatementKind::Ddl, vec![], vec![name.to_string()], vec![]);
        Ok(QueryResult::none(format!(
            "continuous query '{name}' dropped; sink table retained"
        )))
    }

    // ------------------------------------------------------- models

    /// Run a training query and report, alongside the materialized batch,
    /// the exact committed version of every table it scanned — the
    /// provenance pins recorded in the model's lineage. Time-travel scans
    /// pin the version they read; everything else pins the version current
    /// in this transaction's snapshot.
    fn run_training_query(
        &mut self,
        q: &crate::ast::Query,
    ) -> Result<(RecordBatch, Vec<(String, u64)>)> {
        let working = self.working_catalog();
        let catalog = self.db.overlay_metrics_table(working.clone(), &self.user);
        let provider = self.db.inference_provider();
        let options = self.session_options();
        let _slot = self.admit(&options)?;
        let cancel = self.statement_cancel(&options);
        let budget = Arc::new(QueryBudget::limited(
            options.max_rows_budget,
            options.max_mem_bytes,
        ));
        let runner = EngineSubqueryRunner {
            catalog: &catalog,
            db: &self.db,
            user: &self.user,
            cancel: cancel.clone(),
        };
        let ctx = PlanContext::new(&catalog, provider.as_ref()).with_subqueries(&runner);
        let plan = plan_query(q, &ctx)?;
        self.check_query_access(&catalog, &plan)?;

        let mut pins: Vec<(String, u64)> = Vec::new();
        plan.visit(&mut |n| {
            if let LogicalPlan::Scan { table, version, .. } = n {
                // virtual overlays (flock_metrics) have no catalog version
                if let Ok(t) = working.table(table) {
                    let v = version.unwrap_or_else(|| t.current_version());
                    pins.push((table.to_ascii_lowercase(), v));
                }
            }
        });
        pins.sort();
        pins.dedup();

        let plan = self.apply_session_strategy(plan)?;
        let plan = self.db.apply_rewriters(plan, &catalog)?;
        let plan = optimize(plan, &self.db.optimizer_config())?;
        let physical = create_physical_plan(&plan, &catalog, provider.as_ref(), &options)?;
        let eval_ctx = EvalContext::new(provider, self.user.clone(), options.threads)
            .with_cancel(cancel)
            .with_budget(budget);
        let plan_metrics = PlanMetrics::for_plan(&physical);
        let batch = physical.execute_metered(&eval_ctx, &plan_metrics)?;
        Ok((batch, pins))
    }

    fn run_create_model(
        &mut self,
        spec: &TrainSpec,
        query: &crate::ast::Query,
        sql: &str,
    ) -> Result<QueryResult> {
        let name = spec.name.as_str();
        let kind = spec.kind.as_str();
        let catalog = self.working_catalog();
        if catalog.has_extension("model", name) {
            return Err(SqlError::Catalog(format!("model '{name}' already exists")));
        }
        let (batch, pins) = self.run_training_query(query)?;
        let artifact = self.db.model_trainer().train(spec, &batch)?;
        let metadata = stamp_lineage(artifact.metadata, sql, &pins, &self.user)?;
        self.create_extension_txn("model", name, artifact.payload, metadata)?;
        self.audit(
            "MODEL TRAIN",
            name,
            &format!(
                "kind {kind}; {} train / {} eval rows",
                artifact.train_rows, artifact.eval_rows
            ),
        );
        let tables_read = pins.iter().map(|(t, _)| t.clone()).collect();
        self.log_statement(sql, StatementKind::Ddl, tables_read, vec![name.to_string()], vec![]);
        Ok(QueryResult::none(format!(
            "model '{name}' trained ({} train rows, {} held-out eval rows) and deployed",
            artifact.train_rows, artifact.eval_rows
        )))
    }

    fn run_retrain_model(&mut self, name: &str, sql: &str) -> Result<QueryResult> {
        let (train_rows, eval_rows, v) = self.retrain_model_txn(name, "manual RETRAIN MODEL")?;
        self.log_statement(sql, StatementKind::Ddl, vec![], vec![name.to_string()], vec![]);
        Ok(QueryResult::none(format!(
            "model '{name}' retrained to v{v} ({train_rows} train rows, {eval_rows} held-out eval rows)"
        )))
    }

    /// Re-run a model's recorded training statement against current data
    /// and deploy the result as a new version, inside the open
    /// transaction. The policy machinery fires this from `WHEN ... THEN
    /// RETRAIN MODEL m`, transactionally with the window emission.
    fn retrain_model_txn(&mut self, name: &str, trigger: &str) -> Result<(usize, usize, u64)> {
        let catalog = self.working_catalog();
        let recorded = catalog
            .extension("model", name)?
            .current()
            .metadata
            .get("lineage")
            .and_then(|l| l.get("training_query"))
            .and_then(|v| v.as_str())
            .map(str::to_string)
            .ok_or_else(|| {
                SqlError::Plan(format!(
                    "model '{name}' has no recorded training statement to re-run"
                ))
            })?;
        self.check_access(&catalog, &ObjectRef::extension(name), Privilege::Update)?;
        let stmt = crate::parser::parse_statement(&recorded)?;
        let Statement::CreateModel {
            kind,
            options,
            target,
            output,
            query,
            ..
        } = stmt
        else {
            return Err(SqlError::Plan(format!(
                "recorded training statement for '{name}' is not a CREATE MODEL statement"
            )));
        };
        let (batch, pins) = self.run_training_query(&query)?;
        let spec = TrainSpec {
            name: name.to_string(),
            kind: kind.clone(),
            options,
            target,
            output: output.unwrap_or_else(|| format!("{}_score", name.to_ascii_lowercase())),
        };
        let artifact = self.db.model_trainer().train(&spec, &batch)?;
        let user = self.user.clone();
        let metadata = stamp_lineage(artifact.metadata, &recorded, &pins, &user)?;
        let v = self.update_extension_txn("model", name, artifact.payload, metadata, true)?;
        self.audit(
            "MODEL RETRAIN",
            name,
            &format!(
                "{trigger}; v{v}, {} train / {} eval rows",
                artifact.train_rows, artifact.eval_rows
            ),
        );
        Ok((artifact.train_rows, artifact.eval_rows, v))
    }

    fn run_drop_model(&mut self, name: &str, sql: &str) -> Result<QueryResult> {
        let catalog = self.working_catalog();
        if !catalog.has_extension("model", name) {
            return Err(SqlError::Catalog(format!("model '{name}' does not exist")));
        }
        self.drop_extension_txn("model", name)?;
        self.log_statement(sql, StatementKind::Ddl, vec![], vec![name.to_string()], vec![]);
        Ok(QueryResult::none(format!("model '{name}' dropped")))
    }

    fn show_streams(&mut self) -> Result<QueryResult> {
        let catalog = self.working_catalog();
        let schema = Arc::new(Schema::from_pairs(&[
            ("name", crate::types::DataType::Text),
            ("event_time", crate::types::DataType::Text),
            ("lag_ms", crate::types::DataType::Int),
            ("rows", crate::types::DataType::Int),
            ("continuous_queries", crate::types::DataType::Int),
        ]));
        let mut streams = catalog.extensions_of_kind(STREAM_KIND);
        streams.sort_by(|a, b| a.name.cmp(&b.name));
        let mut rows: Vec<Vec<Value>> = Vec::new();
        for s in streams {
            // only list streams this user may read
            if catalog
                .access
                .check(&self.user, &ObjectRef::table(&s.name), Privilege::Select)
                .is_err()
            {
                continue;
            }
            let spec = StreamSpec::from_metadata(&s.current().metadata)?;
            let t = catalog.table(&s.name)?;
            let cqs = catalog
                .extensions_of_kind(CQ_KIND)
                .into_iter()
                .filter(|c| {
                    CqSpec::from_metadata(&c.current().metadata)
                        .map(|cs| cs.stream.eq_ignore_ascii_case(&s.name))
                        .unwrap_or(false)
                })
                .count();
            rows.push(vec![
                Value::Text(s.name.clone()),
                Value::Text(spec.event_time),
                Value::Int(spec.lag_ms),
                Value::Int(t.row_count() as i64),
                Value::Int(cqs as i64),
            ]);
        }
        let batch = RecordBatch::from_rows(schema, &rows)?;
        Ok(QueryResult {
            rows_affected: batch.num_rows(),
            batch: Some(batch),
            message: "SHOW STREAMS".into(),
        })
    }

    fn run_grant(
        &mut self,
        privileges: &[Privilege],
        object: &GrantObject,
        user: &str,
        revoke: bool,
    ) -> Result<QueryResult> {
        let obj_ref = match object {
            GrantObject::Table(t) => ObjectRef::table(t),
            GrantObject::Model(m) => ObjectRef::extension(m),
        };
        // Granting requires GRANT privilege on the object (or superuser).
        let catalog = self.working_catalog();
        self.check_access(&catalog, &obj_ref, Privilege::Grant)?;
        let txn = self.txn_mut();
        if revoke {
            txn.catalog.access.revoke(user, &obj_ref, privileges);
        } else {
            txn.catalog.access.grant(user, obj_ref.clone(), privileges);
        }
        txn.access_dirty = true;
        let verb = if revoke { "REVOKE" } else { "GRANT" };
        self.audit(verb, &obj_ref.name.clone(), &format!("{privileges:?} {user}"));
        Ok(QueryResult::none(format!("{verb} applied")))
    }

    /// Bulk-append a prepared batch to a table (the fast-load path used by
    /// benchmarks and ETL). Columns are matched by position and must have
    /// the table's types; constraint checks still apply.
    pub fn append_batch(&mut self, table_name: &str, batch: RecordBatch) -> Result<u64> {
        self.with_autocommit(|s| s.append_batch_txn(table_name, batch))
    }

    /// [`Session::append_batch`] body, runnable inside an open transaction
    /// so continuous queries can bundle a sink append with their cursor
    /// advance and policy actions.
    fn append_batch_txn(&mut self, table_name: &str, batch: RecordBatch) -> Result<u64> {
        let catalog = self.working_catalog();
        self.check_access(&catalog, &ObjectRef::table(table_name), Privilege::Insert)?;
        let table = catalog.table(table_name)?;
        let schema = table.schema().clone();
        if batch.num_columns() != schema.len() {
            return Err(SqlError::Constraint(format!(
                "batch has {} columns, table '{}' has {}",
                batch.num_columns(),
                table_name,
                schema.len()
            )));
        }
        for (i, col) in batch.columns().iter().enumerate() {
            let expected = schema.column(i).data_type;
            if col.data_type() != expected {
                return Err(SqlError::Constraint(format!(
                    "column {i} has type {} but table expects {expected}",
                    col.data_type()
                )));
            }
            if !schema.column(i).nullable && col.null_count() > 0 {
                return Err(SqlError::Constraint(format!(
                    "column '{}' is NOT NULL",
                    schema.column(i).name
                )));
            }
        }
        let mut cols = table.current().data.columns().to_vec();
        for (dst, src) in cols.iter_mut().zip(batch.columns()) {
            dst.append(src)?;
        }
        let rows = batch.num_rows();
        let delta = RecordBatch::new(schema.clone(), batch.columns().to_vec())?;
        let new_batch = RecordBatch::new(schema, cols)?;
        let version = self.install_table_version(table_name, new_batch, Some(delta))?;
        self.log_statement(
            &format!("BULK INSERT INTO {table_name} ({rows} rows)"),
            StatementKind::Insert,
            vec![],
            vec![table_name.to_string()],
            vec![(table_name.to_string(), version)],
        );
        self.audit("BULK INSERT", table_name, &format!("{rows} row(s)"));
        if catalog.has_extension(STREAM_KIND, table_name) {
            self.trim_stream_history(table_name)?;
        }
        Ok(version)
    }

    /// Streams forgo time travel: keep only the newest version so the
    /// append-only log doesn't accrete per-append snapshot history.
    fn trim_stream_history(&mut self, name: &str) -> Result<()> {
        let txn = self.txn_mut();
        let key = format!("table:{}", name.to_ascii_lowercase());
        let base = object_state(&txn.catalog, &key);
        let table = txn.catalog.table_mut(name)?;
        let redo_table = table.name().to_string();
        let dropped = table.truncate_history_pinned(1, &[])?;
        if !dropped.is_empty() {
            txn.redo_buf.push(RedoOp::TruncateHistory {
                table: redo_table,
                keep: 1,
            });
            txn.written.entry(key).or_insert(base);
        }
        Ok(())
    }

    // ------------------------------------------- extension objects (models)

    /// Create a versioned extension object (e.g. a model). Used by
    /// `flock-core` to implement CREATE MODEL.
    pub fn create_extension_object(
        &mut self,
        kind: &str,
        name: &str,
        payload: Vec<u8>,
        metadata: serde_json::Value,
    ) -> Result<()> {
        self.with_autocommit(|s| s.create_extension_txn(kind, name, payload, metadata))
    }

    fn create_extension_txn(
        &mut self,
        kind: &str,
        name: &str,
        payload: Vec<u8>,
        metadata: serde_json::Value,
    ) -> Result<()> {
        let user = self.user.clone();
        let txn_id = self.txn_mut().id;
        let txn = self.txn_mut();
        let key = format!("ext:{kind}:{}", name.to_ascii_lowercase());
        let base = object_state(&txn.catalog, &key);
        txn.catalog.create_extension(
            kind,
            name,
            &user,
            payload.clone(),
            metadata.clone(),
            txn_id,
        )?;
        txn.redo_buf.push(RedoOp::CreateExtension {
            kind: kind.to_string(),
            name: name.to_string(),
            owner: user.clone(),
            txn_id,
            payload,
            metadata,
        });
        txn.written.entry(key).or_insert(base);
        txn.ddl = true;
        let txn = self.txn_mut();
        txn.catalog
            .access
            .grant(&user, ObjectRef::extension(name), &Privilege::ALL);
        txn.access_dirty = true;
        self.audit(&format!("CREATE {}", kind.to_uppercase()), name, "");
        Ok(())
    }

    /// Append a new version to an extension object.
    pub fn update_extension_object(
        &mut self,
        kind: &str,
        name: &str,
        payload: Vec<u8>,
        metadata: serde_json::Value,
    ) -> Result<u64> {
        self.with_autocommit(|s| s.update_extension_txn(kind, name, payload, metadata, true))
    }

    /// `ddl: false` skips the ddl-epoch bump (and the audit entry): the
    /// continuous-query scheduler advances its durable cursor through this
    /// path every emission, and neither cached plans nor the audit trail
    /// should churn for that bookkeeping.
    fn update_extension_txn(
        &mut self,
        kind: &str,
        name: &str,
        payload: Vec<u8>,
        metadata: serde_json::Value,
        ddl: bool,
    ) -> Result<u64> {
        let catalog = self.working_catalog();
        self.check_access(&catalog, &ObjectRef::extension(name), Privilege::Update)?;
        let txn_id = self.txn_mut().id;
        let txn = self.txn_mut();
        let key = format!("ext:{kind}:{}", name.to_ascii_lowercase());
        let base = object_state(&txn.catalog, &key);
        let v = txn.catalog.update_extension(
            kind,
            name,
            payload.clone(),
            metadata.clone(),
            txn_id,
        )?;
        txn.redo_buf.push(RedoOp::UpdateExtension {
            kind: kind.to_string(),
            name: name.to_string(),
            version: v,
            txn_id,
            payload,
            metadata,
        });
        txn.written.entry(key).or_insert(base);
        if ddl {
            txn.ddl = true;
            self.audit(&format!("UPDATE {}", kind.to_uppercase()), name, &format!("v{v}"));
        }
        Ok(v)
    }

    /// Place a model on hold inside the open transaction: further PREDICT
    /// calls against it are refused until an operator clears the `hold`
    /// metadata flag. Fired by continuous-query policy breaches.
    fn hold_model_txn(&mut self, model: &str) -> Result<()> {
        let catalog = self.working_catalog();
        let cur = catalog.extension("model", model)?.current();
        let payload = cur.payload.clone();
        let mut metadata = cur.metadata.clone();
        match metadata.as_object_mut() {
            Some(m) => {
                m.insert("hold".to_string(), serde_json::Value::Bool(true));
            }
            None => {
                return Err(SqlError::Constraint(format!(
                    "model '{model}' has non-object metadata"
                )))
            }
        }
        self.update_extension_txn("model", model, payload, metadata, true)?;
        self.audit("MODEL HOLD", model, "policy breach");
        Ok(())
    }

    /// Drop an extension object.
    pub fn drop_extension_object(&mut self, kind: &str, name: &str) -> Result<()> {
        self.with_autocommit(|s| s.drop_extension_txn(kind, name))
    }

    fn drop_extension_txn(&mut self, kind: &str, name: &str) -> Result<()> {
        let catalog = self.working_catalog();
        self.check_access(&catalog, &ObjectRef::extension(name), Privilege::Drop)?;
        let txn = self.txn_mut();
        let key = format!("ext:{kind}:{}", name.to_ascii_lowercase());
        let base = object_state(&txn.catalog, &key);
        txn.catalog.drop_extension(kind, name)?;
        txn.redo_buf.push(RedoOp::DropExtension {
            kind: kind.to_string(),
            name: name.to_string(),
        });
        txn.written.entry(key).or_insert(base);
        txn.ddl = true;
        self.audit(&format!("DROP {}", kind.to_uppercase()), name, "");
        Ok(())
    }

    /// Truncate a table's version history to the newest `keep` versions.
    /// Refuses to drop any version that a deployed model's lineage pins as
    /// its training data — reproducibility ("which data trained this
    /// model?") outranks space reclamation. Returns the dropped versions.
    pub fn truncate_table_history(&mut self, name: &str, keep: usize) -> Result<Vec<u64>> {
        self.with_autocommit(|s| {
            let catalog = s.working_catalog();
            s.check_access(&catalog, &ObjectRef::table(name), Privilege::Drop)?;
            let pinned = lineage_pinned_versions(&catalog, name);
            let txn = s.txn_mut();
            let key = format!("table:{}", name.to_ascii_lowercase());
            let base = object_state(&txn.catalog, &key);
            let table = txn.catalog.table_mut(name)?;
            let redo_table = table.name().to_string();
            let dropped = table.truncate_history_pinned(keep, &pinned)?;
            if !dropped.is_empty() {
                txn.redo_buf.push(RedoOp::TruncateHistory {
                    table: redo_table,
                    keep: keep as u64,
                });
                txn.written.entry(key).or_insert(base);
                txn.ddl = true;
            }
            s.audit(
                "TRUNCATE HISTORY",
                name,
                &format!("kept {keep}, dropped {} version(s)", dropped.len()),
            );
            Ok(dropped)
        })
    }

    /// Run `f` inside the open transaction, or begin+commit around it.
    fn with_autocommit<T>(&mut self, f: impl FnOnce(&mut Self) -> Result<T>) -> Result<T> {
        if self.txn.is_some() {
            let r = f(self);
            if r.is_err() {
                self.abort_txn();
            }
            return r;
        }
        self.begin()?;
        match f(self) {
            Ok(v) => {
                self.commit()?;
                Ok(v)
            }
            Err(e) => {
                self.abort_txn();
                Err(e)
            }
        }
    }

    // ------------------------------------------------------- helpers

    /// Install a new table version inside the open transaction. When the
    /// new version is the old one plus appended rows (INSERT), callers pass
    /// the appended rows as `delta` so the WAL logs O(rows added) instead
    /// of a full snapshot; other writes log the whole new snapshot.
    fn install_table_version(
        &mut self,
        name: &str,
        batch: RecordBatch,
        delta: Option<RecordBatch>,
    ) -> Result<u64> {
        let txn_id = self.txn_mut().id;
        let txn = self.txn_mut();
        let key = format!("table:{}", name.to_ascii_lowercase());
        let base = object_state(&txn.catalog, &key);
        let table = txn.catalog.table_mut(name)?;
        let redo = match delta {
            Some(rows) => RedoOp::AppendRows {
                table: table.name().to_string(),
                version: table.current_version() + 1,
                txn_id,
                rows,
            },
            None => RedoOp::PushVersion {
                table: table.name().to_string(),
                version: table.current_version() + 1,
                txn_id,
                data: batch.clone(),
            },
        };
        // Appends carry the disk-part prefix forward (the batch is the
        // grown resident tail); full rewrites install fully resident.
        let version = match &redo {
            RedoOp::AppendRows { .. } => {
                let carried = table.current().parts.clone();
                table.push_version_with_parts(carried, batch, txn_id)?
            }
            _ => table.push_version(batch, txn_id)?,
        };
        txn.redo_buf.push(redo);
        txn.written.entry(key).or_insert(base);
        Ok(version)
    }

    fn check_access(
        &mut self,
        catalog: &Catalog,
        object: &ObjectRef,
        privilege: Privilege,
    ) -> Result<()> {
        let r = catalog.access.check(&self.user, object, privilege);
        if r.is_err() {
            self.audit(
                "ACCESS DENIED",
                &object.name.clone(),
                &format!("{privilege:?}"),
            );
        }
        r
    }

    /// A model is scoreable when the user holds Execute on it AND no
    /// policy hold is in force. Checked per-execute (not at plan time) so
    /// a hold placed by a continuous query bites immediately, including
    /// through cached plans.
    fn check_model_executable(&mut self, catalog: &Catalog, model: &str) -> Result<()> {
        self.check_access(catalog, &ObjectRef::extension(model), Privilege::Execute)?;
        if let Ok(obj) = catalog.extension("model", model) {
            let held = obj
                .current()
                .metadata
                .get("hold")
                .and_then(|v| v.as_bool())
                .unwrap_or(false);
            if held {
                self.audit("HOLD BLOCKED", model, "model is on policy hold");
                return Err(SqlError::AccessDenied(format!(
                    "model '{model}' is on hold"
                )));
            }
        }
        Ok(())
    }

    fn require_superuser(&mut self, action: &str) -> Result<()> {
        if self.user.eq_ignore_ascii_case("admin") {
            Ok(())
        } else {
            Err(SqlError::AccessDenied(format!(
                "{action} requires superuser"
            )))
        }
    }

    fn audit(&mut self, action: &str, object: &str, detail: &str) {
        let record = AuditRecord {
            seq: 0, // assigned on flush
            user: self.user.clone(),
            action: action.to_string(),
            object: object.to_string(),
            detail: detail.to_string(),
            timestamp_ms: now_ms(),
        };
        match &mut self.txn {
            Some(t) => t.audit_buf.push(record),
            None => {
                let mut state = self.db.state.write();
                flush_logs(&mut state, vec![], vec![record]);
            }
        }
    }

    fn log_statement(
        &mut self,
        sql: &str,
        kind: StatementKind,
        tables_read: Vec<String>,
        tables_written: Vec<String>,
        versions_written: Vec<(String, u64)>,
    ) {
        self.log_statement_runtime(
            sql,
            kind,
            tables_read,
            tables_written,
            versions_written,
            QueryRuntime::default(),
        );
    }

    fn log_statement_runtime(
        &mut self,
        sql: &str,
        kind: StatementKind,
        tables_read: Vec<String>,
        tables_written: Vec<String>,
        versions_written: Vec<(String, u64)>,
        runtime: QueryRuntime,
    ) {
        let entry = QueryLogEntry {
            id: 0, // assigned on flush
            txn_id: self.txn.as_ref().map(|t| t.id).unwrap_or(0),
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
        };
        match &mut self.txn {
            Some(t) => t.log_buf.push(entry),
            None => {
                let mut state = self.db.state.write();
                flush_logs(&mut state, vec![entry], vec![]);
            }
        }
    }
}

/// A statement prepared by [`Session::prepare`] for repeated execution.
/// Holding one keeps the `prepared_statements_active` gauge up; dropping
/// it decrements.
pub struct PreparedStatement {
    sql: String,
    kind: PreparedKind,
    user_params: usize,
    gauge: Arc<AtomicU64>,
}

impl PreparedStatement {
    /// Number of `?` placeholders to bind at execute time.
    pub fn param_count(&self) -> usize {
        self.user_params
    }

    /// The original statement text.
    pub fn sql(&self) -> &str {
        &self.sql
    }
}

impl Drop for PreparedStatement {
    fn drop(&mut self) {
        self.gauge.fetch_sub(1, Ordering::Relaxed);
    }
}

enum PreparedKind {
    /// A subquery-free query: executes through the plan cache.
    Query {
        /// Normalized token stream (literals parameterized out).
        tokens: Vec<Token>,
        /// How each `?` in `tokens` is filled at execute time.
        slots: Vec<ParamSlot>,
    },
    /// Everything else (DML, DDL, subquery-bearing queries): parameters
    /// are bound into the AST on every execute.
    Other { stmt: Box<Statement> },
}

/// Whether a query contains scalar / IN / EXISTS subqueries anywhere,
/// including inside derived tables. Those execute during planning, so such
/// a query can neither stay parameter-generic nor be cached safely.
/// Rewrite every `PREDICT(...)` still carrying `PredictStrategy::Auto`
/// anywhere in `plan` to use `strategy` instead. Explicit per-statement
/// strategies (`PREDICT(... USING ...)` variants) are left untouched.
fn override_auto_predict(plan: LogicalPlan, strategy: PredictStrategy) -> Result<LogicalPlan> {
    fn over(e: Expr, s: PredictStrategy) -> Result<Expr> {
        rewrite_expr(e, &mut |e| {
            Ok(match e {
                Expr::Predict {
                    model,
                    args,
                    strategy: PredictStrategy::Auto,
                } => Expr::Predict {
                    model,
                    args,
                    strategy: s,
                },
                other => other,
            })
        })
    }
    let s = strategy;
    Ok(match plan {
        leaf @ LogicalPlan::Scan { .. } => leaf,
        LogicalPlan::Values { schema, rows } => LogicalPlan::Values {
            schema,
            rows: rows
                .into_iter()
                .map(|row| row.into_iter().map(|e| over(e, s)).collect::<Result<_>>())
                .collect::<Result<_>>()?,
        },
        LogicalPlan::Filter { input, predicate } => LogicalPlan::Filter {
            input: Box::new(override_auto_predict(*input, s)?),
            predicate: over(predicate, s)?,
        },
        LogicalPlan::Project {
            input,
            exprs,
            schema,
        } => LogicalPlan::Project {
            input: Box::new(override_auto_predict(*input, s)?),
            exprs: exprs
                .into_iter()
                .map(|e| over(e, s))
                .collect::<Result<_>>()?,
            schema,
        },
        LogicalPlan::Aggregate {
            input,
            group,
            aggs,
            schema,
        } => LogicalPlan::Aggregate {
            input: Box::new(override_auto_predict(*input, s)?),
            group: group
                .into_iter()
                .map(|e| over(e, s))
                .collect::<Result<_>>()?,
            aggs: aggs
                .into_iter()
                .map(|a| {
                    let crate::plan::AggCall {
                        func,
                        arg,
                        distinct,
                    } = a;
                    Ok(crate::plan::AggCall {
                        func,
                        arg: arg.map(|e| over(e, s)).transpose()?,
                        distinct,
                    })
                })
                .collect::<Result<_>>()?,
            schema,
        },
        LogicalPlan::Join {
            left,
            right,
            join_type,
            on,
            filter,
            schema,
        } => LogicalPlan::Join {
            left: Box::new(override_auto_predict(*left, s)?),
            right: Box::new(override_auto_predict(*right, s)?),
            join_type,
            on: on
                .into_iter()
                .map(|(l, r)| Ok((over(l, s)?, over(r, s)?)))
                .collect::<Result<_>>()?,
            filter: filter.map(|e| over(e, s)).transpose()?,
            schema,
        },
        LogicalPlan::Sort { input, keys } => LogicalPlan::Sort {
            input: Box::new(override_auto_predict(*input, s)?),
            keys: keys
                .into_iter()
                .map(|(e, asc)| Ok((over(e, s)?, asc)))
                .collect::<Result<_>>()?,
        },
        LogicalPlan::Limit {
            input,
            limit,
            offset,
        } => LogicalPlan::Limit {
            input: Box::new(override_auto_predict(*input, s)?),
            limit,
            offset,
        },
        LogicalPlan::Distinct { input } => LogicalPlan::Distinct {
            input: Box::new(override_auto_predict(*input, s)?),
        },
        LogicalPlan::Union { inputs, schema } => LogicalPlan::Union {
            inputs: inputs
                .into_iter()
                .map(|p| override_auto_predict(p, s))
                .collect::<Result<_>>()?,
            schema,
        },
    })
}

fn query_has_subqueries(q: &crate::ast::Query) -> bool {
    fn expr_has(e: &Expr) -> bool {
        let mut found = false;
        e.walk(&mut |x| {
            if matches!(
                x,
                Expr::Subquery(_) | Expr::InSubquery { .. } | Expr::Exists { .. }
            ) {
                found = true;
            }
        });
        found
    }
    fn table_ref_has(tr: &crate::ast::TableRef) -> bool {
        match tr {
            crate::ast::TableRef::Table { .. } => false,
            crate::ast::TableRef::Subquery { query, .. } => query_has_subqueries(query),
            crate::ast::TableRef::Join {
                left, right, on, ..
            } => {
                table_ref_has(left)
                    || table_ref_has(right)
                    || on.as_ref().is_some_and(expr_has)
            }
        }
    }
    fn select_has(sel: &crate::ast::Select) -> bool {
        sel.from.iter().any(table_ref_has)
            || sel.selection.as_ref().is_some_and(expr_has)
            || sel.having.as_ref().is_some_and(expr_has)
            || sel.group_by.iter().any(expr_has)
            || sel.projection.iter().any(|p| match p {
                crate::ast::SelectItem::Expr { expr, .. } => expr_has(expr),
                _ => false,
            })
    }
    select_has(&q.select)
        || q.order_by.iter().any(|o| expr_has(&o.expr))
        || q.unions.iter().any(|arm| select_has(&arm.select))
}

/// Wrap every `?i` whose bound value has a known type in an identity
/// `CAST`, so expression type derivation sees the parameter's runtime
/// type instead of a default. Used on the plan-cache miss path.
fn annotate_param_types(
    q: crate::ast::Query,
    types: &[Option<DataType>],
) -> Result<crate::ast::Query> {
    let mut bind = |e: Expr| -> Result<Expr> {
        rewrite_expr(e, &mut |x| match x {
            Expr::Parameter(i) => Ok(match types.get(i).copied().flatten() {
                Some(t) => Expr::Cast {
                    expr: Box::new(Expr::Parameter(i)),
                    to: t,
                },
                None => Expr::Parameter(i),
            }),
            other => Ok(other),
        })
    };
    bind_query(q, &mut bind)
}

/// Flush log/audit entries outside a commit (rollback audit records, and
/// logging done with no transaction open). Records go to the WAL first; if
/// the log rejects them they are dropped from memory too, keeping the
/// invariant that in-memory state never runs ahead of the WAL.
fn flush_logs(state: &mut DbState, log: Vec<QueryLogEntry>, audit: Vec<AuditRecord>) {
    let mut log = log;
    let mut next_log_id = state.next_log_id;
    for e in &mut log {
        e.id = next_log_id;
        next_log_id += 1;
    }
    let mut audit = audit;
    let mut next_audit_seq = state.next_audit_seq;
    for a in &mut audit {
        a.seq = next_audit_seq;
        next_audit_seq += 1;
    }
    if let Some(wal) = &mut state.wal {
        let records: Vec<WalRecord> = log
            .iter()
            .cloned()
            .map(WalRecord::QueryLog)
            .chain(audit.iter().cloned().map(WalRecord::Audit))
            .collect();
        if !records.is_empty() && wal.append(&records).is_err() {
            return;
        }
    }
    state.next_log_id = next_log_id;
    state.next_audit_seq = next_audit_seq;
    state.query_log.extend(log);
    state.audit_log.extend(audit);
}

/// Table versions pinned by extension-object lineage: every version of
/// every extension object (deployed models included) whose metadata says
/// `lineage.training_table == table` pins `lineage.training_table_version`.
/// The engine does not interpret extension payloads, but the lineage keys
/// are part of the catalog contract shared with `flock-core`.
fn lineage_pinned_versions(catalog: &Catalog, table: &str) -> Vec<u64> {
    let table = table.to_ascii_lowercase();
    let mut pinned = Vec::new();
    for obj in catalog.extensions_all() {
        for v in &obj.versions {
            let Some(lineage) = v.metadata.get("lineage") else {
                continue;
            };
            let trained_on = lineage
                .get("training_table")
                .and_then(|t| t.as_str())
                .is_some_and(|t| t.eq_ignore_ascii_case(&table));
            if trained_on {
                if let Some(pin) =
                    lineage.get("training_table_version").and_then(|v| v.as_u64())
                {
                    pinned.push(pin);
                }
            }
            // multi-table pins from `CREATE MODEL ... AS SELECT` joins:
            // `training_tables` is an array of [name, version] pairs
            if let Some(all) = lineage.get("training_tables").and_then(|t| t.as_array()) {
                for pair in all {
                    let Some(pair) = pair.as_array() else { continue };
                    let named = pair
                        .first()
                        .and_then(|n| n.as_str())
                        .is_some_and(|n| n.eq_ignore_ascii_case(&table));
                    if named {
                        if let Some(pin) = pair.get(1).and_then(|v| v.as_u64()) {
                            pinned.push(pin);
                        }
                    }
                }
            }
        }
    }
    pinned
}

/// Stamp provenance onto a trained model's metadata: the raw training
/// statement (re-run verbatim by RETRAIN), the exact committed version of
/// every scanned table, the training user, and the wall-clock timestamp.
/// The first pin doubles as `training_table`/`training_table_version` so
/// single-table lineage consumers (history truncation, provenance export)
/// keep working unchanged.
fn stamp_lineage(
    mut metadata: serde_json::Value,
    sql: &str,
    pins: &[(String, u64)],
    user: &str,
) -> Result<serde_json::Value> {
    let obj = metadata.as_object_mut().ok_or_else(|| {
        SqlError::Plan("trainer returned non-object model metadata".into())
    })?;
    let lineage = obj
        .entry("lineage".to_string())
        .or_insert_with(|| serde_json::Value::Object(serde_json::Map::new()));
    let lineage = lineage.as_object_mut().ok_or_else(|| {
        SqlError::Plan("trainer returned non-object model lineage".into())
    })?;
    let sql = sql.trim().trim_end_matches(';').to_string();
    lineage.insert("training_query".into(), serde_json::Value::String(sql));
    lineage.insert("trained_by".into(), serde_json::Value::String(user.into()));
    lineage.insert("created_ms".into(), serde_json::json!(now_ms()));
    match pins.first() {
        Some((t, v)) => {
            lineage.insert(
                "training_table".into(),
                serde_json::Value::String(t.clone()),
            );
            lineage.insert("training_table_version".into(), serde_json::Value::from(*v));
        }
        None => {
            lineage.insert("training_table".into(), serde_json::Value::Null);
            lineage.insert("training_table_version".into(), serde_json::Value::Null);
        }
    }
    let all: Vec<serde_json::Value> = pins
        .iter()
        .map(|(t, v)| {
            serde_json::Value::Array(vec![
                serde_json::Value::String(t.clone()),
                serde_json::Value::from(*v),
            ])
        })
        .collect();
    lineage.insert("training_tables".into(), serde_json::Value::Array(all));
    Ok(metadata)
}

/// Streams are append-only: INSERT is the only mutation they accept.
fn reject_stream_write(catalog: &Catalog, name: &str, op: &str) -> Result<()> {
    if catalog.has_extension(STREAM_KIND, name) {
        return Err(SqlError::Constraint(format!(
            "stream '{name}' is append-only; {op} is not allowed"
        )));
    }
    Ok(())
}

/// Extract event times (ms) from a stream batch's event-time column.
/// A NULL or non-integer event time is a hard error — the watermark
/// cannot advance past a row whose position in time is unknown.
fn event_times(batch: &RecordBatch, et_index: usize) -> Result<Vec<i64>> {
    let col = batch.column(et_index);
    let mut out = Vec::with_capacity(batch.num_rows());
    for i in 0..batch.num_rows() {
        match col.get(i) {
            Value::Int(t) => out.push(t),
            other => {
                return Err(SqlError::Constraint(format!(
                    "event-time column holds non-integer value {other:?}"
                )))
            }
        }
    }
    Ok(out)
}

/// Current committed state of a namespaced object key
/// (`table:x`, `view:x`, `ext:kind:x`).
fn object_state(catalog: &Catalog, key: &str) -> BaseState {
    if let Some(name) = key.strip_prefix("table:") {
        return match catalog.table(name) {
            Ok(t) => BaseState::TableAt(t.current_version()),
            Err(_) => BaseState::Absent,
        };
    }
    if let Some(name) = key.strip_prefix("view:") {
        return if catalog.view(name).is_some() {
            BaseState::ViewPresent
        } else {
            BaseState::Absent
        };
    }
    if let Some(rest) = key.strip_prefix("ext:") {
        let mut parts = rest.splitn(2, ':');
        let kind = parts.next().unwrap_or("");
        let name = parts.next().unwrap_or("");
        return match catalog.extension(kind, name) {
            Ok(e) => BaseState::ExtensionAt(e.current().version),
            Err(_) => BaseState::Absent,
        };
    }
    BaseState::Absent
}

/// Copy the final state of `key` from `src` into `dst` (or remove it).
fn apply_object(dst: &mut Catalog, src: &Catalog, key: &str) {
    if let Some(name) = key.strip_prefix("table:") {
        match src.table(name) {
            Ok(t) => {
                let t = t.clone();
                let _ = dst.drop_table(name);
                let _ = dst.create_table(t);
            }
            Err(_) => {
                let _ = dst.drop_table(name);
            }
        }
        return;
    }
    if let Some(name) = key.strip_prefix("view:") {
        match src.view(name) {
            Some(v) => {
                let v = v.clone();
                let _ = dst.drop_view(name);
                let _ = dst.create_view(v);
            }
            None => {
                let _ = dst.drop_view(name);
            }
        }
        return;
    }
    if let Some(rest) = key.strip_prefix("ext:") {
        let mut parts = rest.splitn(2, ':');
        let kind = parts.next().unwrap_or("").to_string();
        let name = parts.next().unwrap_or("").to_string();
        match src.extension(&kind, &name) {
            Ok(obj) => {
                let obj = obj.clone();
                let _ = dst.drop_extension(&kind, &name);
                let _ = restore_extension(dst, obj);
            }
            Err(_) => {
                let _ = dst.drop_extension(&kind, &name);
            }
        }
    }
}

fn restore_extension(dst: &mut Catalog, obj: crate::catalog::ExtensionObject) -> Result<()> {
    // Recreate with the first version, then append the rest, preserving ids.
    let mut versions = obj.versions.into_iter();
    let first = versions
        .next()
        .expect("extension objects always have one version");
    dst.create_extension(
        &obj.kind,
        &obj.name,
        &obj.owner,
        first.payload,
        first.metadata,
        first.txn_id,
    )?;
    for v in versions {
        dst.update_extension(&obj.kind, &obj.name, v.payload, v.metadata, v.txn_id)?;
    }
    Ok(())
}

/// Bind `?` placeholders in a statement.
pub fn bind_parameters(stmt: Statement, params: &[Value]) -> Result<Statement> {
    let mut bind = |e: Expr| -> Result<Expr> {
        rewrite_expr(e, &mut |x| match x {
            Expr::Parameter(i) => params
                .get(i)
                .cloned()
                .map(Expr::Literal)
                .ok_or_else(|| SqlError::Plan(format!("missing parameter ?{i}"))),
            other => Ok(other),
        })
    };
    Ok(match stmt {
        Statement::Query(q) => Statement::Query(bind_query(q, &mut bind)?),
        Statement::Insert {
            table,
            columns,
            source,
        } => Statement::Insert {
            table,
            columns,
            source: match source {
                InsertSource::Values(rows) => InsertSource::Values(
                    rows.into_iter()
                        .map(|r| r.into_iter().map(&mut bind).collect::<Result<_>>())
                        .collect::<Result<_>>()?,
                ),
                InsertSource::Query(q) => InsertSource::Query(Box::new(bind_query(*q, &mut bind)?)),
            },
        },
        Statement::Update {
            table,
            assignments,
            selection,
        } => Statement::Update {
            table,
            assignments: assignments
                .into_iter()
                .map(|(c, e)| Ok((c, bind(e)?)))
                .collect::<Result<_>>()?,
            selection: selection.map(&mut bind).transpose()?,
        },
        Statement::Delete { table, selection } => Statement::Delete {
            table,
            selection: selection.map(&mut bind).transpose()?,
        },
        other => other,
    })
}

fn bind_query(
    mut q: crate::ast::Query,
    bind: &mut impl FnMut(Expr) -> Result<Expr>,
) -> Result<crate::ast::Query> {
    q.select.from = q
        .select
        .from
        .into_iter()
        .map(|tr| bind_table_ref(tr, bind))
        .collect::<Result<_>>()?;
    q.select.selection = q.select.selection.map(&mut *bind).transpose()?;
    q.select.having = q.select.having.map(&mut *bind).transpose()?;
    q.select.projection = q
        .select
        .projection
        .into_iter()
        .map(|item| {
            Ok(match item {
                crate::ast::SelectItem::Expr { expr, alias } => crate::ast::SelectItem::Expr {
                    expr: bind(expr)?,
                    alias,
                },
                other => other,
            })
        })
        .collect::<Result<_>>()?;
    q.select.group_by = q
        .select
        .group_by
        .into_iter()
        .map(&mut *bind)
        .collect::<Result<_>>()?;
    q.unions = q
        .unions
        .into_iter()
        .map(|arm| {
            let mut sub = crate::ast::Query {
                select: arm.select,
                unions: vec![],
                order_by: vec![],
                limit: None,
                offset: None,
            };
            sub = bind_query(sub, bind)?;
            Ok(crate::ast::UnionArm {
                select: sub.select,
                all: arm.all,
            })
        })
        .collect::<Result<_>>()?;
    q.order_by = q
        .order_by
        .into_iter()
        .map(|o| {
            Ok(crate::ast::OrderItem {
                expr: bind(o.expr)?,
                asc: o.asc,
            })
        })
        .collect::<Result<_>>()?;
    Ok(q)
}

/// Descend into FROM-clause table references (derived tables and join
/// conditions carry expressions too) applying `bind` to every expression.
fn bind_table_ref(
    tr: crate::ast::TableRef,
    bind: &mut impl FnMut(Expr) -> Result<Expr>,
) -> Result<crate::ast::TableRef> {
    use crate::ast::TableRef;
    Ok(match tr {
        TableRef::Subquery { query, alias } => TableRef::Subquery {
            query: Box::new(bind_query(*query, bind)?),
            alias,
        },
        TableRef::Join {
            left,
            right,
            join_type,
            on,
        } => TableRef::Join {
            left: Box::new(bind_table_ref(*left, bind)?),
            right: Box::new(bind_table_ref(*right, bind)?),
            join_type,
            on: on.map(&mut *bind).transpose()?,
        },
        t @ TableRef::Table { .. } => t,
    })
}

/// Recursive subquery runner backed by the session's working catalog.
/// Carries the outer statement's cancellation token so a timeout also
/// interrupts subquery materialization.
struct EngineSubqueryRunner<'a> {
    catalog: &'a Catalog,
    db: &'a Database,
    user: &'a str,
    cancel: CancelToken,
}

impl SubqueryRunner for EngineSubqueryRunner<'_> {
    fn run(&self, query: &crate::ast::Query) -> Result<RecordBatch> {
        let provider = self.db.inference_provider();
        let options = self.db.exec_options();
        let ctx = PlanContext::new(self.catalog, provider.as_ref()).with_subqueries(self);
        let plan = plan_query(query, &ctx)?;
        let plan = self.db.apply_rewriters(plan, self.catalog)?;
        let plan = optimize(plan, &self.db.optimizer_config())?;
        let physical = create_physical_plan(&plan, self.catalog, provider.as_ref(), &options)?;
        let eval_ctx = EvalContext::new(provider, self.user.to_string(), options.threads)
            .with_cancel(self.cancel.clone());
        physical.execute(&eval_ctx)
    }
}
