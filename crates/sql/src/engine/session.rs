//! Sessions: statement entry points, the plan-cache front end, `SET`, and
//! the transaction wrapper every statement handler runs under.

use super::database::Database;
use super::txn::Txn;
use super::{ddl, dml, models, query, QueryResult, StatementKind};
use crate::ast::{Expr, PredictStrategy, Statement};
use crate::batch::RecordBatch;
use crate::error::{Result, SqlError};
use crate::exec::{
    create_physical_plan, CancelHandle, CancelToken, ExecOptions, OpSnapshot, QueryBudget,
};
use crate::lexer::Token;
use crate::plancache::{bind_slots, normalize, CacheHit, CacheKey, CachedPlan, ParamSlot};
use crate::sync;
use crate::trainer::TrainSpec;
use crate::types::Value;
use crate::udf::ProviderRef;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Session-local settings and state a statement runs under.
struct SessionVars {
    /// Cancel flag for the statement currently executing; reset at each
    /// statement start, set from other threads via [`CancelHandle`].
    cancel_flag: Arc<AtomicBool>,
    /// Session-local `SET statement_timeout` override, in milliseconds
    /// (`None` = fall back to [`ExecOptions::statement_timeout_ms`]).
    statement_timeout_ms: Option<u64>,
    /// Session-local `SET predict_strategy` override. Applied in one
    /// place, `override_auto_predict` in the query pipeline, to every
    /// `PREDICT(...)` still `Auto` before the plan rewriters run, and keyed
    /// into the plan cache so sessions with different overrides never
    /// share a cached plan.
    predict_strategy: Option<PredictStrategy>,
    /// This session's most recent query snapshot — unlike the engine-wide
    /// [`Database::last_query_metrics`], concurrent sessions cannot
    /// clobber it.
    last_query: Mutex<Option<OpSnapshot>>,
}

/// What one statement executes under: the database, the statement text,
/// the values bound to its `?`s, and the session's effective options,
/// cancellation token and budget — fixed when the statement starts and
/// shared by everything it runs (its query, its subqueries, its row
/// expressions).
pub(super) struct StmtCtx<'a> {
    pub db: &'a Database,
    pub sql: &'a str,
    pub provider: ProviderRef,
    /// The engine-wide options, read once per statement.
    pub options: ExecOptions,
    /// The session's cancel flag plus the effective deadline (session
    /// `SET statement_timeout` overrides the engine-wide
    /// [`ExecOptions::statement_timeout_ms`]).
    pub cancel: CancelToken,
    pub budget: Arc<QueryBudget>,
    pub predict: Option<PredictStrategy>,
    pub last_query: &'a Mutex<Option<OpSnapshot>>,
    /// The values bound to the statement's `?` placeholders, in order.
    pub params: Arc<Vec<Value>>,
}

impl<'a> StmtCtx<'a> {
    fn new(db: &'a Database, vars: &'a SessionVars, sql: &'a str, params: Arc<Vec<Value>>) -> Self {
        // Every statement starts fresh: a cancel aimed at the previous
        // statement must not kill this one.
        vars.cancel_flag.store(false, Ordering::Relaxed);
        let options = db.exec_options();
        let mut cancel = CancelToken::from_flag(vars.cancel_flag.clone());
        let timeout_ms = vars
            .statement_timeout_ms
            .unwrap_or(options.statement_timeout_ms);
        if timeout_ms > 0 {
            cancel = cancel.with_deadline(std::time::Duration::from_millis(timeout_ms));
        }
        StmtCtx {
            db,
            sql,
            provider: db.inference_provider(),
            budget: Arc::new(QueryBudget::limited(
                options.max_rows_budget,
                options.max_mem_bytes,
            )),
            options,
            cancel,
            predict: vars.predict_strategy,
            last_query: &vars.last_query,
            params,
        }
    }
}

/// A connection bound to a user, holding at most one open transaction.
pub struct Session {
    db: Database,
    user: String,
    txn: Option<Txn>,
    vars: SessionVars,
}

/// A session dropped inside `BEGIN` (a closed connection, a dropped
/// handle) rolls back like `ROLLBACK`, keeping the audit rows.
impl Drop for Session {
    fn drop(&mut self) {
        if let Some(txn) = self.txn.take() {
            txn.abort(&self.db);
        }
    }
}

impl Session {
    pub(super) fn new(db: Database, user: &str) -> Session {
        Session {
            db,
            user: user.to_string(),
            txn: None,
            vars: SessionVars {
                cancel_flag: Arc::new(AtomicBool::new(false)),
                statement_timeout_ms: None,
                predict_strategy: None,
                last_query: Mutex::new(None),
            },
        }
    }

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
        CancelHandle::new(self.vars.cancel_flag.clone())
    }

    /// Session-local statement timeout in milliseconds, equivalent to
    /// `SET statement_timeout = <ms>`. `None` restores the engine default
    /// ([`ExecOptions::statement_timeout_ms`]); `Some(0)` disables the
    /// timeout for this session even when the engine sets one.
    pub fn set_statement_timeout(&mut self, ms: Option<u64>) {
        self.vars.statement_timeout_ms = ms;
    }

    /// The effective session-local timeout override, if any.
    pub fn statement_timeout(&self) -> Option<u64> {
        self.vars.statement_timeout_ms
    }

    /// Per-operator snapshot of this session's most recent query
    /// (including partial metrics of a cancelled / timed-out query).
    pub fn last_query_metrics(&self) -> Option<OpSnapshot> {
        sync::lock(&self.vars.last_query).clone()
    }

    /// Execute one SQL statement (autocommit unless inside BEGIN/COMMIT).
    ///
    /// Plain `SELECT` text outside a transaction takes a fast path: the
    /// raw token stream keys the plan cache, so repeating the same query
    /// text skips parse/plan/optimize. Literals stay inline on this path —
    /// value-dependent optimizations (e.g. threshold-based model pruning)
    /// still see them. Any other statement is parsed from the same tokens:
    /// the text is lexed once.
    pub fn execute(&mut self, sql: &str) -> Result<QueryResult> {
        let tokens = crate::lexer::tokenize(sql)?;
        self.run_tokens(tokens, Vec::new(), sql)
    }

    /// Execute with `?` placeholders bound to `params`: prepare, then
    /// execute the prepared statement once.
    pub fn execute_with_params(&mut self, sql: &str, params: &[Value]) -> Result<QueryResult> {
        let prepared = self.prepare(sql)?;
        self.execute_prepared(&prepared, params)
    }

    /// Prepare a statement for repeated execution. `?` placeholders bind
    /// at execute time. Literal constants are parameterized out of queries,
    /// so executions that differ only in constants share one cached plan;
    /// the skip rules (LIMIT/OFFSET/VERSION, `DATE` literals, ORDER BY /
    /// GROUP BY ordinals) are documented on [`crate::plancache::normalize`].
    pub fn prepare(&mut self, sql: &str) -> Result<PreparedStatement> {
        let tokens = crate::lexer::tokenize(sql)?;
        // Syntax errors surface at prepare time: each form is parsed once.
        let (kind, user_params) = if is_select(&tokens) {
            let norm = normalize(&tokens);
            crate::parser::parse_token_stream(norm.tokens.clone())?;
            let kind = PreparedKind::Query {
                tokens: norm.tokens.into_iter().map(Token::into_owned).collect(),
                slots: norm.slots,
            };
            (kind, norm.user_params)
        } else {
            let (stmt, params) = parse(tokens)?;
            (PreparedKind::Other(Box::new(stmt)), params)
        };
        let gauge = self.db.shared.plan_cache.prepared_active.clone();
        gauge.fetch_add(1, Ordering::Relaxed);
        Ok(PreparedStatement {
            sql: sql.to_string(),
            kind,
            user_params,
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
        match &prepared.kind {
            PreparedKind::Query { tokens, slots } => {
                let bound = bind_slots(slots, params)?;
                self.run_query(tokens.clone(), bound, &prepared.sql)
            }
            PreparedKind::Other(stmt) => {
                self.execute_statement((**stmt).clone(), &prepared.sql, Arc::new(params.to_vec()))
            }
        }
    }

    /// Run one statement's tokens with `params` bound to their `?`s. A
    /// SELECT outside any transaction goes through the plan cache; an open
    /// user transaction bypasses the shared cache entirely (a plan built
    /// against uncommitted state must not leak into or out of it), and
    /// every other statement is parsed from the same tokens.
    fn run_tokens(
        &mut self,
        tokens: Vec<Token<'_>>,
        params: Vec<Value>,
        sql: &str,
    ) -> Result<QueryResult> {
        if self.txn.is_none() && is_select(&tokens) {
            let tokens = tokens.into_iter().map(Token::into_owned).collect();
            return self.run_query(tokens, params, sql);
        }
        let (stmt, _) = parse(tokens)?;
        self.execute_statement(stmt, sql, Arc::new(params))
    }

    /// Run a SELECT's owned tokens, shared with the plan cache key (a
    /// prepared query's execution clones a pointer, not its tokens): through
    /// the cache outside any transaction, parsed from a copy inside one.
    fn run_query(
        &mut self,
        tokens: Arc<[Token<'static>]>,
        params: Vec<Value>,
        sql: &str,
    ) -> Result<QueryResult> {
        let params = Arc::new(params);
        if self.txn.is_none() {
            let key = CacheKey {
                tokens,
                param_types: params.iter().map(Value::data_type).collect(),
                predict: self.vars.predict_strategy,
            };
            return self.cached_select(key, params, sql);
        }
        let (stmt, _) = parse(tokens.to_vec())?;
        self.execute_statement(stmt, sql, params)
    }

    /// A SELECT outside any transaction, through the plan cache: a hit
    /// re-checks access and runs the cached physical plan; a miss (cold or
    /// invalidated) parses the very tokens that keyed the lookup, plans
    /// with the parameters left unbound, runs, and remembers the plan
    /// unless the query is uncacheable.
    fn cached_select(
        &mut self,
        key: CacheKey,
        params: Arc<Vec<Value>>,
        sql: &str,
    ) -> Result<QueryResult> {
        self.read_only(sql, params, |txn, ctx| {
            let shared = &ctx.db.shared;
            // Epochs are sampled BEFORE planning: if DDL commits
            // concurrently, an inserted entry is already stale and dies on
            // first lookup.
            let epochs = (
                shared.ddl_epoch.load(Ordering::Relaxed),
                shared.options_epoch.load(Ordering::Relaxed),
                ctx.provider.plan_epoch(),
            );
            let current = |t: &str| txn.catalog().table(t).ok().map(|tab| tab.current());
            let hit = match shared.plan_cache.lookup(&key, epochs, current) {
                Ok(CacheHit::Ready(e)) => Some(e),
                Ok(CacheHit::Rebind(e)) => {
                    // DML, offload or a merge moved a table under the
                    // plan: re-derive only the physical plan (cheap —
                    // column data is Arc-shared) from the cached logical
                    // plan and refresh the entry in place.
                    let catalog = txn.catalog();
                    let physical = create_physical_plan(
                        &e.logical,
                        catalog,
                        ctx.provider.as_ref(),
                        &ctx.options,
                    )?;
                    let bound = e
                        .bound
                        .iter()
                        .map(|(t, _)| Ok((t.clone(), catalog.table(t)?.current().clone())))
                        .collect::<Result<Vec<_>>>()?;
                    let rebound = CachedPlan {
                        logical: e.logical.clone(),
                        physical,
                        tables: e.tables.clone(),
                        models: e.models.clone(),
                        data_bound: e.data_bound,
                        bound,
                        ddl_epoch: e.ddl_epoch,
                        options_epoch: e.options_epoch,
                        model_epoch: e.model_epoch,
                    };
                    Some(shared.plan_cache.insert(key.clone(), rebound))
                }
                Err(_) => None,
            };
            if let Some(entry) = hit {
                // Per-execute ACL: a cached plan must never outlive a
                // revocation. (Revokes also bump the DDL epoch, but the
                // check here makes the property independent of epoch
                // bookkeeping.)
                txn.check_query_access(&entry.tables, &entry.models)?;
                let tables = entry.tables.clone();
                return query::run_and_log(txn, ctx, &entry.physical, tables);
            }

            let (stmt, _) = crate::parser::parse_token_stream(key.tokens.to_vec())?;
            let Statement::Query(q) = stmt else {
                return Err(SqlError::Plan(
                    "plan cache keyed a non-query statement".into(),
                ));
            };
            let planned = query::plan_select(txn, ctx, &q, true)?;
            let tables = planned.tables.clone();
            let result = query::run_and_log(txn, ctx, &planned.physical, tables);
            // Insert even when execution failed (cancel/timeout/budget):
            // the plan itself is valid and the next execution should still
            // hit. Subqueries ran at plan time, so their results are baked
            // into the plan: never cached.
            if !planned.reads_metrics_table() && !q.has_subqueries() {
                // Time-travel scans pin an immutable version and never
                // need rebinding.
                let bound = planned
                    .scans
                    .iter()
                    .filter(|s| !s.pinned)
                    .filter_map(|s| {
                        let table = txn.catalog().table(&s.table).ok()?;
                        Some((s.table.clone(), table.current().clone()))
                    })
                    .collect();
                shared.plan_cache.insert(
                    key,
                    CachedPlan {
                        logical: Arc::new(planned.logical),
                        physical: planned.physical,
                        tables: planned.tables,
                        models: planned.models,
                        data_bound: planned.data_bound,
                        bound,
                        ddl_epoch: epochs.0,
                        options_epoch: epochs.1,
                        model_epoch: epochs.2,
                    },
                );
            }
            result
        })
    }

    /// Execute a whole script, statement by statement; each statement's
    /// own text is what the query log, views and model lineage record.
    pub fn execute_script(&mut self, sql: &str) -> Result<Vec<QueryResult>> {
        crate::lexer::split_statements(sql)?
            .into_iter()
            .map(|stmt| self.execute(stmt))
            .collect()
    }

    /// Run a query and return the batch.
    pub fn query(&mut self, sql: &str) -> Result<RecordBatch> {
        self.execute(sql)?
            .batch
            .ok_or_else(|| SqlError::Execution("statement returned no rows".into()))
    }

    fn execute_statement(
        &mut self,
        stmt: Statement,
        sql: &str,
        params: Arc<Vec<Value>>,
    ) -> Result<QueryResult> {
        match stmt {
            Statement::Begin => self.begin(),
            Statement::Commit => self.commit(),
            Statement::Rollback => self.rollback(),
            Statement::Set { name, value } => self.run_set(&name, value),
            Statement::Explain { statement, analyze } => {
                let Statement::Query(q) = *statement else {
                    return Err(SqlError::Plan("EXPLAIN supports only queries".into()));
                };
                self.read_only(sql, params, |txn, ctx| {
                    query::explain(txn, ctx, &q, analyze)
                })
            }
            other => self.autocommit(sql, params, |txn, ctx| dispatch(txn, ctx, other)),
        }
    }

    /// `SET <var> = <value>` — session-local settings, outside any
    /// transaction (they are not transactional and never touch the WAL).
    fn run_set(&mut self, name: &str, value: Option<Expr>) -> Result<QueryResult> {
        let message = match name.to_ascii_lowercase().as_str() {
            "statement_timeout" => {
                // 0 is kept as an explicit override: it means "disabled for
                // this session", shadowing any engine-wide
                // ExecOptions::statement_timeout_ms.
                let ms = set_int("statement_timeout", value, 0, "milliseconds")?;
                self.vars.statement_timeout_ms = ms;
                match ms {
                    Some(0) => "statement_timeout = off".to_string(),
                    Some(v) => format!("statement_timeout = {v}ms"),
                    None => "statement_timeout = default".to_string(),
                }
            }
            "table_memory_budget" => {
                // Engine-wide, not session-local: offload happens at
                // commit, which serves every session.
                let bytes = set_int("table_memory_budget", value, 0, "bytes")?.unwrap_or(0);
                self.db.set_table_memory_budget(bytes);
                if bytes == 0 {
                    "table_memory_budget = off".to_string()
                } else {
                    format!("table_memory_budget = {bytes} bytes")
                }
            }
            "stream_tick_ms" => {
                // Engine-wide: one scheduler thread serves every session.
                let ms = set_int("stream_tick_ms", value, 1, "milliseconds")?.unwrap_or(25);
                self.db.set_stream_tick_ms(ms);
                format!("stream_tick_ms = {ms}ms")
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
                            other => {
                                return Err(SqlError::Plan(format!(
                                    "predict_strategy expects one of 'row' | 'auto', \
                                     got '{other}'"
                                )))
                            }
                        }
                    }
                };
                self.vars.predict_strategy = strategy;
                match strategy {
                    Some(s) => format!("predict_strategy = {s:?}").to_ascii_lowercase(),
                    None => "predict_strategy = default".to_string(),
                }
            }
            other => {
                return Err(SqlError::Plan(format!(
                    "unknown session variable '{other}'"
                )))
            }
        };
        Ok(QueryResult::none(message))
    }

    // ------------------------------------------------------- transactions

    pub fn begin(&mut self) -> Result<QueryResult> {
        if self.txn.is_some() {
            return Err(SqlError::Transaction("transaction already open".into()));
        }
        let txn = Txn::begin(&self.db, &self.user);
        let message = format!("BEGIN (txn {})", txn.id);
        self.txn = Some(txn);
        Ok(QueryResult::none(message))
    }

    pub fn commit(&mut self) -> Result<QueryResult> {
        let id = self.take_open()?.commit(&self.db)?;
        Ok(QueryResult::none(format!("COMMIT (txn {id})")))
    }

    /// Abort the open transaction: its writes and query-log rows go, its
    /// audit rows stay (see [`Txn::abort`]).
    pub fn rollback(&mut self) -> Result<QueryResult> {
        let txn = self.take_open()?;
        let id = txn.id;
        txn.abort(&self.db);
        Ok(QueryResult::none(format!("ROLLBACK (txn {id})")))
    }

    fn take_open(&mut self) -> Result<Txn> {
        self.txn
            .take()
            .ok_or_else(|| SqlError::Transaction("no open transaction".into()))
    }

    /// Run `f` inside the open transaction, or begin + commit around it.
    /// A failure aborts the transaction either way (a statement-level
    /// failure inside BEGIN/COMMIT takes the whole transaction with it).
    pub(super) fn autocommit<T>(
        &mut self,
        sql: &str,
        params: Arc<Vec<Value>>,
        f: impl FnOnce(&mut Txn, &StmtCtx) -> Result<T>,
    ) -> Result<T> {
        let implicit = self.txn.is_none();
        let ctx = StmtCtx::new(&self.db, &self.vars, sql, params);
        let txn = self
            .txn
            .get_or_insert_with(|| Txn::begin(&self.db, &self.user));
        match f(txn, &ctx) {
            Ok(v) => {
                if implicit {
                    self.commit()?;
                }
                Ok(v)
            }
            Err(e) => {
                if let Some(txn) = self.txn.take() {
                    txn.abort(&self.db);
                }
                Err(e)
            }
        }
    }

    /// Run `f` without committing anything: on the open transaction if
    /// there is one (a failure leaves it open), else on a snapshot of the
    /// committed state whose log and audit rows are published afterwards.
    fn read_only<T>(
        &mut self,
        sql: &str,
        params: Arc<Vec<Value>>,
        f: impl FnOnce(&mut Txn, &StmtCtx) -> Result<T>,
    ) -> Result<T> {
        let ctx = StmtCtx::new(&self.db, &self.vars, sql, params);
        match self.txn.as_mut() {
            Some(txn) => f(txn, &ctx),
            None => {
                let mut txn = Txn::snapshot(&self.db, &self.user);
                let result = f(&mut txn, &ctx);
                txn.flush(&self.db);
                result
            }
        }
    }

    // ------------------------------------------- programmatic write API

    /// Bulk-append a prepared batch to a table (the fast-load path used by
    /// benchmarks and ETL). Columns are matched by position and must have
    /// the table's types; constraint checks still apply.
    pub fn append_batch(&mut self, table_name: &str, batch: RecordBatch) -> Result<u64> {
        self.autocommit("", Arc::default(), |txn, _| {
            dml::append_rows(txn, table_name, batch, None)
        })
    }

    /// Create a versioned extension object (e.g. a model). Used by
    /// `flock-core` to implement CREATE MODEL.
    pub fn create_extension_object(
        &mut self,
        kind: &str,
        name: &str,
        payload: Vec<u8>,
        metadata: flock_json::Value,
    ) -> Result<()> {
        self.autocommit("", Arc::default(), |txn, _| {
            models::create_extension(txn, kind, name, payload, metadata)
        })
    }

    /// Append a new version to an extension object.
    pub fn update_extension_object(
        &mut self,
        kind: &str,
        name: &str,
        payload: Vec<u8>,
        metadata: flock_json::Value,
    ) -> Result<u64> {
        self.autocommit("", Arc::default(), |txn, _| {
            models::update_extension(txn, kind, name, payload, metadata, true)
        })
    }

    /// Drop an extension object.
    pub fn drop_extension_object(&mut self, kind: &str, name: &str) -> Result<()> {
        self.autocommit("", Arc::default(), |txn, _| {
            models::drop_extension(txn, kind, name)
        })
    }

    /// Truncate a table's version history to the newest `keep` versions.
    /// Refuses to drop any version that a deployed model's lineage pins as
    /// its training data — reproducibility ("which data trained this
    /// model?") outranks space reclamation. Returns the dropped versions.
    pub fn truncate_table_history(&mut self, name: &str, keep: usize) -> Result<Vec<u64>> {
        self.autocommit("", Arc::default(), |txn, _| {
            dml::truncate_table_history(txn, name, keep)
        })
    }
}

/// Fold a numeric `SET` value: `None` for `DEFAULT`, else an integer of at
/// least `min`.
fn set_int(name: &str, value: Option<Expr>, min: i64, unit: &str) -> Result<Option<u64>> {
    let Some(e) = value else { return Ok(None) };
    match crate::optimizer::fold_expr(e)? {
        Expr::Literal(Value::Int(i)) if i >= min => Ok(Some(i as u64)),
        other => Err(SqlError::Plan(format!(
            "{name} expects a {} integer ({unit}), got {other:?}",
            if min > 0 { "positive" } else { "non-negative" }
        ))),
    }
}

/// Route one transactional statement to its handler.
fn dispatch(txn: &mut Txn, ctx: &StmtCtx, stmt: Statement) -> Result<QueryResult> {
    match stmt {
        Statement::Query(q) => query::run_query(txn, ctx, &q),
        Statement::Insert {
            table,
            columns,
            source,
        } => dml::insert(txn, ctx, &table, columns.as_deref(), source),
        Statement::Update {
            table,
            assignments,
            selection,
        } => dml::update(txn, ctx, &table, &assignments, selection.as_ref()),
        Statement::Delete { table, selection } => dml::delete(txn, ctx, &table, selection.as_ref()),
        Statement::CreateTable {
            name,
            columns,
            if_not_exists,
        } => ddl::create_table(txn, ctx, &name, &columns, if_not_exists),
        Statement::DropTable { name, if_exists } => ddl::drop_table(txn, ctx, &name, if_exists),
        Statement::CreateView { name, .. } => ddl::create_view(txn, ctx, &name),
        Statement::DropView { name } => ddl::drop_view(txn, &name),
        Statement::AlterTable { name, action } => ddl::alter_table(txn, ctx, &name, action),
        Statement::ShowTables => ddl::show_tables(txn),
        Statement::Describe { name } => ddl::describe(txn, &name),
        Statement::CreateUser { name } => ddl::create_user(txn, &name),
        Statement::Grant {
            privileges,
            object,
            user,
        } => ddl::grant(txn, &privileges, &object, &user, false),
        Statement::Revoke {
            privileges,
            object,
            user,
        } => ddl::grant(txn, &privileges, &object, &user, true),
        Statement::CreateStream {
            name,
            columns,
            event_time,
            lag_ms,
            if_not_exists,
        } => {
            let watermark = crate::stream::StreamSpec { event_time, lag_ms };
            ddl::create_stream(txn, ctx, &name, &columns, watermark, if_not_exists)
        }
        Statement::DropStream { name } => ddl::drop_stream(txn, ctx, &name),
        Statement::CreateContinuousQuery {
            name,
            stream,
            window,
            sink,
            query,
            when,
            hold_model,
            retrain_model,
        } => {
            let spec = crate::stream::CqSpec {
                stream,
                window,
                sink,
                query_sql: query.to_string(),
                when_sql: when.as_ref().map(|e| e.to_string()),
                hold_model,
                retrain_model,
                next_emit_ms: None,
            };
            ddl::create_cq(txn, ctx, &name, spec)
        }
        Statement::DropContinuousQuery { name } => ddl::drop_cq(txn, ctx, &name),
        Statement::ShowStreams => ddl::show_streams(txn),
        Statement::CreateModel {
            name,
            kind,
            options,
            target,
            output,
            query,
        } => {
            let spec = TrainSpec {
                output: output.unwrap_or_else(|| models::default_output(&name)),
                name,
                kind,
                options,
                target,
            };
            models::create_model(txn, ctx, &spec, &query)
        }
        Statement::RetrainModel { name } => {
            let res = models::retrain_model(txn, ctx, &name, "manual RETRAIN MODEL")?;
            txn.log(ctx.sql, StatementKind::Ddl, vec![], vec![name], vec![]);
            Ok(res)
        }
        Statement::DropModel { name } => models::drop_model(txn, ctx, &name),
        Statement::Begin
        | Statement::Commit
        | Statement::Rollback
        | Statement::Set { .. }
        | Statement::Explain { .. } => Err(SqlError::Transaction(
            "statement cannot run inside a statement transaction".into(),
        )),
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
    /// A query: executes through the plan cache.
    Query {
        /// Normalized token stream (literals parameterized out), shared
        /// with the plan cache keys of its executions.
        tokens: Arc<[Token<'static>]>,
        /// How each `?` in `tokens` is filled at execute time.
        slots: Vec<ParamSlot>,
    },
    /// Any other statement, parsed from its own text.
    Other(Box<Statement>),
}

fn is_select(tokens: &[Token]) -> bool {
    matches!(tokens.first(), Some(Token::Ident(w)) if w.eq_ignore_ascii_case("SELECT"))
}

/// Parse one statement, returning it with its number of `?` placeholders.
/// A view, a continuous query and a model store their query and run it
/// again later, when no value is bound: a `?` in one is refused here.
fn parse(tokens: Vec<Token<'_>>) -> Result<(Statement, usize)> {
    let (stmt, params) = crate::parser::parse_token_stream(tokens)?;
    let stored = match &stmt {
        Statement::CreateView { .. } => "a view",
        Statement::CreateContinuousQuery { .. } => "a continuous query",
        Statement::CreateModel { .. } => "a model's training query",
        _ => return Ok((stmt, params)),
    };
    if params > 0 {
        return Err(SqlError::Plan(format!(
            "{stored} cannot hold a `?` parameter: it is stored and run again unbound"
        )));
    }
    Ok((stmt, params))
}
