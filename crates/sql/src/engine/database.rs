//! The shared database handle: committed state, engine-wide knobs,
//! open/recover, checkpoints and digests.

use super::background::{CqRuntime, Ticker};
use super::query::MetricsTable;
use super::session::Session;
use super::txn::ObjectKey;
use super::{AuditRecord, QueryLogEntry, QueryResult};
use crate::batch::RecordBatch;
use crate::catalog::Catalog;
use crate::error::{Result, SqlError};
use crate::exec::{AdmissionController, EngineMetrics, ExecOptions, OpSnapshot};
use crate::optimizer::OptimizerConfig;
use crate::plan::PlanRewriter;
use crate::plancache::PlanCache;
use crate::sync;
use crate::table::Tail;
use crate::trainer::{NoTrainer, TrainerRef};
use crate::udf::{NoInference, ProviderRef};
use crate::wal::{DurabilityOptions, DurableFs, StdFs, WalManager};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

pub(super) struct DbState {
    pub catalog: Catalog,
    pub next_txn: u64,
    pub next_log_id: u64,
    pub next_audit_seq: u64,
    pub query_log: Vec<QueryLogEntry>,
    pub audit_log: Vec<AuditRecord>,
    /// Write-ahead log; `None` for a purely in-memory database.
    pub wal: Option<WalManager>,
}

/// Canonical snapshot of the committed state (checkpoints and digests).
pub(super) fn snapshot_of(state: &DbState) -> crate::wal::Snapshot {
    crate::wal::build_snapshot(
        &state.catalog,
        state.next_txn,
        state.next_log_id,
        state.next_audit_seq,
        &state.query_log,
        &state.audit_log,
    )
}

/// Rewrite a snapshot of `catalog` into its fully resident logical form:
/// each part-backed version is read through its chunk source into one
/// resident batch and its manifest cleared. Best-effort — an unreadable
/// part leaves that version physical (a state recovery would reject
/// anyway).
fn logicalize_snapshot(snap: &mut crate::wal::Snapshot, catalog: &Catalog) {
    for t in &mut snap.tables {
        let Ok(table) = catalog.table(&t.name) else { continue };
        // the snapshot lists a table's versions in the table's own order
        for (v, tv) in t.versions.iter_mut().zip(table.versions()) {
            if v.parts.is_empty() {
                continue;
            }
            if let Ok(full) = tv.scan(catalog.part_store()).collect() {
                v.data = Tail::from_batch(full);
                v.parts.clear();
            }
        }
    }
}

/// Commit observer: receives the committed catalog by reference and the
/// objects the transaction wrote. It runs on the committing thread, after
/// the commit is installed and before `commit` returns, under the state
/// read lock: the catalog it sees holds this commit and possibly later
/// ones, and no commit lands until it returns. So hooks that apply what
/// the catalog says converge on commit order even when they fire out of
/// it. A hook must not re-enter the database (it would wait on itself
/// behind a queued writer).
pub type CommitHook = Arc<dyn Fn(&Catalog, &[ObjectKey]) + Send + Sync>;

/// Everything the handles of one database share. The ticker thread holds
/// a `Weak` to this, so a closed database is never kept alive by its own
/// background work.
pub(super) struct Shared {
    pub state: RwLock<DbState>,
    pub provider: RwLock<ProviderRef>,
    pub trainer: RwLock<TrainerRef>,
    /// Observers fired after a transaction commits (see [`CommitHook`]).
    /// `flock-core` keeps its model registry in step with every model
    /// write through one.
    pub commit_hooks: RwLock<Vec<CommitHook>>,
    pub options: RwLock<ExecOptions>,
    pub optimizer: RwLock<OptimizerConfig>,
    pub rewriters: RwLock<Vec<Arc<dyn PlanRewriter>>>,
    pub metrics: Arc<EngineMetrics>,
    pub admission: Arc<AdmissionController>,
    pub last_query: RwLock<Option<OpSnapshot>>,
    pub plan_cache: Arc<PlanCache>,
    /// Bumped when a transaction that ran DDL (or changed grants) commits;
    /// cached plans carry the epoch they were planned under.
    pub ddl_epoch: AtomicU64,
    /// Bumped when exec options, optimizer config, plan rewriters (or a
    /// rewriter's own configuration), or the inference provider change —
    /// any of these can change what a plan compiles to.
    pub options_epoch: AtomicU64,
    /// Engine-wide cap on a table's resident bytes (0 = offloading
    /// disabled). Commits that leave a written table over this budget
    /// flush its resident rows into disk parts as part of the commit.
    pub table_memory_budget: AtomicU64,
    /// Continuous-query scheduler tick interval in milliseconds
    /// (engine-wide; also reachable as `SET stream_tick_ms = <ms>`).
    pub stream_tick_ms: AtomicU64,
    /// Per-CQ incremental runtime state; the lock also serializes ticks,
    /// so the background scheduler and [`Database::stream_tick_now`] never
    /// interleave within one tick.
    pub stream_runtime: Mutex<HashMap<String, CqRuntime>>,
    /// The background thread, while either of its jobs is started. Stopped
    /// and joined when the last handle to this database drops.
    pub ticker: Mutex<Ticker>,
}

/// A shared, thread-safe database handle.
#[derive(Clone)]
pub struct Database {
    pub(super) shared: Arc<Shared>,
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

    fn from_state(mut state: DbState) -> Self {
        let metrics = Arc::new(EngineMetrics::default());
        state
            .catalog
            .register_virtual_table(Arc::new(MetricsTable(metrics.clone())));
        let plan_cache = Arc::new(PlanCache::default());
        for (name, counter) in plan_cache.counters() {
            metrics.register(name, counter);
        }
        Database {
            shared: Arc::new(Shared {
                state: RwLock::new(state),
                provider: RwLock::new(Arc::new(NoInference)),
                trainer: RwLock::new(Arc::new(NoTrainer) as TrainerRef),
                commit_hooks: RwLock::new(Vec::new()),
                options: RwLock::new(ExecOptions::default()),
                optimizer: RwLock::new(OptimizerConfig::default()),
                rewriters: RwLock::new(Vec::new()),
                metrics,
                admission: Arc::new(AdmissionController::new()),
                last_query: RwLock::new(None),
                plan_cache,
                ddl_epoch: AtomicU64::new(0),
                options_epoch: AtomicU64::new(0),
                table_memory_budget: AtomicU64::new(0),
                stream_tick_ms: AtomicU64::new(25),
                stream_runtime: Mutex::new(HashMap::new()),
                ticker: Mutex::new(Ticker::default()),
            }),
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
        // The part store opens first (it writes nothing) so that replay can
        // read the parts of checkpointed versions; orphaned tmps are swept
        // only once recovery has accepted the directory.
        let part_err = |e: std::io::Error| SqlError::Io(format!("opening part store: {e}"));
        let store = Arc::new(crate::parts::PartStore::open(fs.clone()).map_err(part_err)?);
        let rec = crate::wal::recover(fs, store.clone(), opts)?;
        store.sweep_tmps().map_err(part_err)?;
        let db = Self::from_state(DbState {
            catalog: rec.catalog,
            next_txn: rec.next_txn,
            next_log_id: rec.next_log_id,
            next_audit_seq: rec.next_audit_seq,
            query_log: rec.query_log,
            audit_log: rec.audit_log,
            wal: Some(rec.manager),
        });
        for (name, counter) in store.metric_counters() {
            db.shared.metrics.register(name, counter);
        }
        Ok(db)
    }

    /// Durability options, or `None` for an in-memory database.
    pub fn durability(&self) -> Option<DurabilityOptions> {
        sync::read(&self.shared.state).wal.as_ref().map(|w| w.options())
    }

    /// Force a checkpoint now. Returns its sequence number, or `None` for
    /// an in-memory database.
    pub fn checkpoint_now(&self) -> Result<Option<u64>> {
        let mut state = sync::write(&self.shared.state);
        let snap = snapshot_of(&state);
        match &mut state.wal {
            Some(wal) => wal
                .checkpoint(&snap)
                .map(Some)
                .map_err(|e| SqlError::Io(format!("checkpoint failed: {e}"))),
            None => Ok(None),
        }
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
    /// replays the WAL into a state laid out otherwise (appends resident,
    /// rebuilt parts held in memory) digests identically to the state it
    /// recovered.
    pub fn state_digest(&self) -> u64 {
        let state = sync::read(&self.shared.state);
        let mut snap = snapshot_of(&state);
        snap.next_txn = 0;
        logicalize_snapshot(&mut snap, &state.catalog);
        crate::wal::digest(&snap)
    }

    /// Set the engine-wide resident-bytes budget per table (0 disables
    /// offloading). Also reachable as `SET table_memory_budget = <bytes>`.
    /// The budget also caps the decoded parts one scan holds at once.
    pub fn set_table_memory_budget(&self, bytes: u64) {
        self.shared.table_memory_budget.store(bytes, Ordering::Relaxed);
        if let Some(store) = sync::read(&self.shared.state).catalog.part_store() {
            store.set_scan_budget(bytes);
        }
    }

    pub fn table_memory_budget(&self) -> u64 {
        self.shared.table_memory_budget.load(Ordering::Relaxed)
    }

    /// Cumulative engine-wide execution counters (the `flock_metrics`
    /// virtual table reads these).
    pub fn engine_metrics(&self) -> Arc<EngineMetrics> {
        self.shared.metrics.clone()
    }

    /// Per-operator snapshot of the most recently executed query plan,
    /// across *all* sessions — concurrent sessions overwrite each other
    /// here. Use [`Session::last_query_metrics`] for the session-local
    /// snapshot.
    pub fn last_query_metrics(&self) -> Option<OpSnapshot> {
        sync::read(&self.shared.last_query).clone()
    }

    /// The per-database admission controller (active-query gauge; the
    /// limit comes from [`ExecOptions::max_concurrent_queries`]).
    pub fn admission(&self) -> Arc<AdmissionController> {
        self.shared.admission.clone()
    }

    /// Register a plan rewriter (e.g. the Flock cross-optimizer), applied
    /// after planning and before the relational optimizer.
    pub fn add_plan_rewriter(&self, rewriter: Arc<dyn PlanRewriter>) {
        sync::write(&self.shared.rewriters).push(rewriter);
        self.invalidate_plans();
    }

    /// The prepared-statement / plain-SQL plan cache.
    pub fn plan_cache(&self) -> Arc<PlanCache> {
        self.shared.plan_cache.clone()
    }

    /// Open a session as `user` (the bootstrap superuser is "admin").
    pub fn session(&self, user: &str) -> Session {
        Session::new(self.clone(), user)
    }

    /// Install the inference provider (done by `flock-core`).
    pub fn set_inference_provider(&self, provider: ProviderRef) {
        *sync::write(&self.shared.provider) = provider;
        self.invalidate_plans();
    }

    pub fn inference_provider(&self) -> ProviderRef {
        sync::read(&self.shared.provider).clone()
    }

    /// Install the model trainer backing `CREATE MODEL` / `RETRAIN MODEL`
    /// (done by `flock-core`).
    pub fn set_model_trainer(&self, trainer: TrainerRef) {
        *sync::write(&self.shared.trainer) = trainer;
        self.invalidate_plans();
    }

    pub fn model_trainer(&self) -> TrainerRef {
        sync::read(&self.shared.trainer).clone()
    }

    /// Register an observer fired after every successful commit with the
    /// committed catalog and the objects the transaction wrote, under the
    /// state read lock (see [`CommitHook`]). Hooks must not re-enter the
    /// database.
    pub fn add_commit_hook(&self, hook: CommitHook) {
        sync::write(&self.shared.commit_hooks).push(hook);
    }

    /// Replace execution options (threads, fan-out threshold, morsel size,
    /// timeout, admission and budgets).
    /// Knobs are clamped into valid ranges — a zero-thread or zero-morsel
    /// configuration degrades to serial execution instead of panicking.
    pub fn set_exec_options(&self, options: ExecOptions) {
        *sync::write(&self.shared.options) = options.validated();
        self.invalidate_plans();
    }

    pub fn exec_options(&self) -> ExecOptions {
        sync::read(&self.shared.options).clone()
    }

    pub fn set_optimizer_config(&self, config: OptimizerConfig) {
        *sync::write(&self.shared.optimizer) = config;
        self.invalidate_plans();
    }

    pub fn optimizer_config(&self) -> OptimizerConfig {
        *sync::read(&self.shared.optimizer)
    }

    /// Retire every cached plan: each is re-planned on its next lookup.
    /// The setters above do this themselves; call it after changing the
    /// configuration of a registered plan rewriter.
    pub fn invalidate_plans(&self) {
        self.shared.options_epoch.fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshot of the committed catalog.
    pub fn catalog(&self) -> Catalog {
        sync::read(&self.shared.state).catalog.clone()
    }

    /// Run `f` on the committed catalog by reference, under the state read
    /// lock: no clone, and no commit lands until `f` returns. `f` must not
    /// re-enter the database.
    pub fn with_catalog<R>(&self, f: impl FnOnce(&Catalog) -> R) -> R {
        f(&sync::read(&self.shared.state).catalog)
    }

    /// Full query log (committed statements).
    pub fn query_log(&self) -> Vec<QueryLogEntry> {
        sync::read(&self.shared.state).query_log.clone()
    }

    /// Full audit log.
    pub fn audit_log(&self) -> Vec<AuditRecord> {
        sync::read(&self.shared.state).audit_log.clone()
    }

    /// Convenience: run a statement as admin with autocommit.
    pub fn execute(&self, sql: &str) -> Result<QueryResult> {
        self.session("admin").execute(sql)
    }

    /// Convenience: run a query as admin and return its batch.
    pub fn query(&self, sql: &str) -> Result<RecordBatch> {
        self.session("admin").query(sql)
    }
}
