//! The one SELECT pipeline and the one execution tail.
//!
//! Every query the engine runs — top-level SELECTs (cached or not),
//! `INSERT … SELECT` sources, `EXPLAIN [ANALYZE]`, training scans, and the
//! scalar / `IN` / `EXISTS` subqueries the planner evaluates at plan time —
//! is `plan_select` followed (except for plain `EXPLAIN`) by `execute`.

use super::session::StmtCtx;
use super::txn::Txn;
use super::{QueryResult, QueryRuntime, StatementKind};
use crate::ast::{Expr, PredictStrategy, Query};
use crate::batch::RecordBatch;
use crate::catalog::VirtualTable;
use crate::error::{Result, SqlError};
use crate::exec::{create_physical_plan, EngineMetrics, EvalContext, PhysicalPlan, PlanMetrics};
use crate::optimizer::{map_plan_exprs, optimize};
use crate::plan::{plan_query, rewrite_expr, LogicalPlan, PlanContext, SubqueryRunner};
use crate::schema::Schema;
use crate::sync;
use crate::types::{DataType, Value};
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// The virtual table of engine counters.
const METRICS_TABLE: &str = "flock_metrics";

/// `flock_metrics`: one row per engine counter, built only when a
/// statement reads it.
#[derive(Debug)]
pub(super) struct MetricsTable(pub Arc<EngineMetrics>);

impl VirtualTable for MetricsTable {
    fn name(&self) -> &str {
        METRICS_TABLE
    }

    fn schema(&self) -> Arc<Schema> {
        Arc::new(Schema::from_pairs(&[
            ("metric", DataType::Text),
            ("value", DataType::Int),
        ]))
    }

    fn rows(&self) -> Result<RecordBatch> {
        let rows: Vec<Vec<Value>> = self
            .0
            .rows()
            .into_iter()
            .map(|(name, v)| {
                vec![
                    Value::Text(name.to_string()),
                    Value::Int(i64::try_from(v).unwrap_or(i64::MAX)),
                ]
            })
            .collect();
        RecordBatch::from_rows(self.schema(), &rows)
    }
}

/// One scan of a catalog table in a planned query.
pub(super) struct ScanRef {
    pub table: String,
    /// The version the scan reads.
    pub version: u64,
    /// `true` for a time-travel scan (`VERSION n`), which keeps reading
    /// that version however the table moves.
    pub pinned: bool,
}

/// A SELECT taken through the whole pipeline, ready to execute.
pub(super) struct Planned {
    /// The optimized logical plan.
    pub logical: LogicalPlan,
    pub physical: PhysicalPlan,
    /// Every scanned table and scored model of the *pre-rewrite* plan —
    /// what access control checked (rewriters may inline a model away, but
    /// inlining must not bypass its ACL), what the query log records, and
    /// what a cached plan re-checks on every execute.
    pub tables: Vec<String>,
    pub models: Vec<String>,
    /// The scans over catalog tables (virtual tables have none).
    pub scans: Vec<ScanRef>,
    /// A rewriter's result rests on the scanned tables' contents.
    pub data_bound: bool,
}

impl Planned {
    /// Queries naming `flock_metrics` never cache: its rows change under
    /// the plan.
    pub fn reads_metrics_table(&self) -> bool {
        self.tables.iter().any(|t| t.eq_ignore_ascii_case(METRICS_TABLE))
    }
}

/// Plans one statement's queries and runs its subqueries, against the
/// transaction's catalog.
struct Planner<'a> {
    ctx: &'a StmtCtx<'a>,
    txn: &'a Txn,
}

/// Plan → access control → session strategy → rewriters → optimize →
/// compile, with each `?` typed by the value the statement binds to it.
/// `check_acl: false` is plain `EXPLAIN`, which shows a plan without the
/// right to run it — its subqueries *do* run, so they are always checked.
pub(super) fn plan_select(txn: &Txn, ctx: &StmtCtx, q: &Query, check_acl: bool) -> Result<Planned> {
    Planner { ctx, txn }.plan(q, check_acl)
}

impl Planner<'_> {
    fn plan(&self, q: &Query, check_acl: bool) -> Result<Planned> {
        let (ctx, db, catalog) = (self.ctx, self.ctx.db, self.txn.catalog());
        let pctx = PlanContext::new(catalog, ctx.provider.as_ref())
            .with_subqueries(self)
            .with_params(&ctx.params);
        let plan = plan_query(q, &pctx)?;

        let (mut tables, mut scans, mut models) = (Vec::new(), Vec::new(), Vec::new());
        plan.visit(&mut |n| {
            if let LogicalPlan::Scan { table, version, .. } = n {
                tables.push(table.clone());
                if let Ok(t) = catalog.table(table) {
                    scans.push(ScanRef {
                        table: table.clone(),
                        version: version.unwrap_or_else(|| t.current_version()),
                        pinned: version.is_some(),
                    });
                }
            }
        });
        plan.visit_exprs(&mut |e| {
            e.walk(&mut |x| {
                if let Expr::Predict { model, .. } = x {
                    models.push(model.clone());
                }
            })
        });
        if check_acl {
            self.txn.check_query_access(&tables, &models)?;
        }

        // The session's `SET predict_strategy` applies here and only here,
        // before the rewriters, so the PREDICTs they derive carry it.
        let mut plan = match ctx.predict {
            Some(s) => override_auto_predict(plan, s)?,
            None => plan,
        };
        let mut data_bound = false;
        for r in sync::read(&db.shared.rewriters).iter() {
            let bound;
            (plan, bound) = r.rewrite_data_bound(plan, catalog)?;
            data_bound |= bound;
        }
        let logical = optimize(plan, &db.optimizer_config())?;
        let physical =
            create_physical_plan(&logical, catalog, ctx.provider.as_ref(), &ctx.options)?;
        Ok(Planned {
            logical,
            physical,
            tables,
            models,
            scans,
            data_bound,
        })
    }
}

impl SubqueryRunner for Planner<'_> {
    /// A subquery is a query: same pipeline, same access control, same
    /// execution tail, under the outer statement's user, parameters,
    /// cancel token and budget.
    fn run(&self, query: &Query) -> Result<RecordBatch> {
        let planned = self.plan(query, true)?;
        execute(self.ctx, &self.txn.user, &planned.physical).map(|(batch, _)| batch)
    }
}

/// The execution tail: admission slot, budgeted and cancellable metered
/// run over the statement's parameters, snapshot publication (session,
/// database and `flock_metrics`), and failure accounting. A cancelled / timed-out / over-budget run still
/// publishes the partial counters it accumulated.
pub(super) fn execute(
    ctx: &StmtCtx,
    user: &str,
    physical: &PhysicalPlan,
) -> Result<(RecordBatch, QueryRuntime)> {
    let shared = &ctx.db.shared;
    let _slot = shared
        .admission
        .try_acquire(ctx.options.max_concurrent_queries)
        .ok_or_else(|| {
            shared.metrics.admission_rejected.fetch_add(1, Ordering::Relaxed);
            SqlError::Admission(format!(
                "database is at max_concurrent_queries = {}",
                ctx.options.max_concurrent_queries
            ))
        })?;
    let eval_ctx = EvalContext::new(ctx.provider.clone(), user.to_string(), ctx.options.threads)
        .with_cancel(ctx.cancel.clone())
        .with_budget(ctx.budget.clone())
        .with_params(ctx.params.clone());
    let plan_metrics = PlanMetrics::for_plan(physical);
    let started = std::time::Instant::now();
    let result = physical.execute_metered(&eval_ctx, &plan_metrics);
    let elapsed_us = started.elapsed().as_micros() as u64;
    let snapshot = plan_metrics.snapshot(physical);
    shared.metrics.record_query(&snapshot);
    let mut runtime = QueryRuntime {
        rows_scanned: snapshot.rows_scanned(),
        rows_returned: 0,
        elapsed_us,
        parallel_ops: snapshot.parallel_ops(),
    };
    *sync::lock(ctx.last_query) = Some(snapshot.clone());
    *sync::write(&shared.last_query) = Some(snapshot);
    match result {
        Ok(batch) => {
            runtime.rows_returned = batch.num_rows() as u64;
            Ok((batch, runtime))
        }
        Err(e) => {
            let m = &shared.metrics;
            match &e {
                SqlError::Cancelled(_) => m.queries_cancelled.fetch_add(1, Ordering::Relaxed),
                SqlError::Timeout(_) => m.queries_timed_out.fetch_add(1, Ordering::Relaxed),
                SqlError::Budget(_) => m.budget_rejected.fetch_add(1, Ordering::Relaxed),
                _ => 0,
            };
            Err(e)
        }
    }
}

/// Execute a top-level query plan (fresh or cached) and log it.
pub(super) fn run_and_log(
    txn: &mut Txn,
    ctx: &StmtCtx,
    physical: &PhysicalPlan,
    tables: Vec<String>,
) -> Result<QueryResult> {
    let (batch, runtime) = execute(ctx, &txn.user, physical)?;
    txn.log_runtime(ctx.sql, StatementKind::Query, tables, vec![], vec![], runtime);
    let message = format!("{} row(s)", batch.num_rows());
    Ok(QueryResult::rows(batch, message))
}

/// A top-level SELECT: plan + run.
pub(super) fn run_query(txn: &mut Txn, ctx: &StmtCtx, q: &Query) -> Result<QueryResult> {
    let planned = plan_select(txn, ctx, q, true)?;
    run_and_log(txn, ctx, &planned.physical, planned.tables)
}

/// `EXPLAIN [ANALYZE]`: plan + (render | run + render). `ANALYZE` actually
/// executes, so it is subject to the same access control as a plain query.
pub(super) fn explain(txn: &mut Txn, ctx: &StmtCtx, q: &Query, analyze: bool) -> Result<QueryResult> {
    let planned = plan_select(txn, ctx, q, analyze)?;
    let text = if analyze {
        execute(ctx, &txn.user, &planned.physical)?;
        sync::lock(ctx.last_query).as_ref().map(|s| s.render()).unwrap_or_default()
    } else {
        let logical = planned.logical.explain();
        planned.physical.annotate_slices(&logical, &ctx.params)
    };
    let schema = Arc::new(Schema::from_pairs(&[("plan", DataType::Text)]));
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

/// Rewrite every `PREDICT(...)` still carrying `PredictStrategy::Auto`
/// anywhere in `plan` to use `strategy` instead. Explicit per-statement
/// strategies (`PREDICT(... USING ...)` variants) are left untouched.
fn override_auto_predict(plan: LogicalPlan, strategy: PredictStrategy) -> Result<LogicalPlan> {
    map_plan_exprs(plan, &mut |e| {
        rewrite_expr(e, &mut |e| {
            Ok(match e {
                Expr::Predict {
                    model,
                    args,
                    strategy: PredictStrategy::Auto,
                    pin,
                } => Expr::Predict {
                    model,
                    args,
                    strategy,
                    pin,
                },
                other => other,
            })
        })
    })
}
