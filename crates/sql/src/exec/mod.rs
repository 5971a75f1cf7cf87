//! Physical planning and execution.
//!
//! Execution is batch-materialized: every operator consumes and produces a
//! whole [`RecordBatch`], except that an aggregate builds one partial per
//! chunk of a table scan and never sees the scan's concatenated output.
//! Operators over large inputs run *morsel-driven parallel*: the batch
//! splits into fixed-size morsels that a worker pool drains — filters and
//! projections evaluate per morsel, aggregates run two-phase (per-morsel
//! partials merged in morsel order), hash joins probe morsels
//! concurrently against typed build tables, and sorts merge per-run sorted
//! indices. A scan of disk parts makes its chunks the morsels
//! ([`PhysicalPlan::map_chunks`]): the pool reads, decodes and filters one
//! part per task and hands its survivors to the consumer in the same task,
//! and nothing fans out again inside it. This is the engine-supplied
//! parallelism the paper credits for SONNX's speedup over standalone ONNX
//! Runtime, generalized from PREDICT projections to the whole relational
//! algebra.

pub mod agg;
pub mod cancel;
pub mod expr;
pub mod functions;
pub mod metrics;
pub mod parallel;
pub mod window;

pub use cancel::{AdmissionController, AdmissionSlot, CancelHandle, CancelToken, QueryBudget};
pub use expr::{EvalContext, PhysExpr, PhysNode};
pub use metrics::{EngineMetrics, OpMetrics, OpSnapshot, PlanMetrics};
pub use parallel::ParallelPolicy;

use crate::ast::{ColumnBound, Expr, JoinType, UnOp};
use crate::batch::RecordBatch;
use crate::catalog::Catalog;
use crate::column::ColumnVector;
use crate::error::{Result, SqlError};
use crate::plan::{AggCall, LogicalPlan};
use crate::schema::Schema;
use crate::table::{concat_chunks, ColBounds, TableScan};
use crate::types::{DataType, Value};
use crate::udf::InferenceProvider;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::sync::Arc;
use std::time::Instant;

/// Default fixed morsel size. Morsel boundaries are independent of the
/// worker count so that results (including floating-point partial-sum
/// order) never vary with the degree of parallelism.
pub const DEFAULT_MORSEL_ROWS: usize = 4096;

/// Execution tuning knobs.
#[derive(Debug, Clone)]
pub struct ExecOptions {
    /// Worker threads for parallel operators and inference (>= 1).
    pub threads: usize,
    /// Minimum estimated/actual row count before an operator fans out.
    pub parallel_row_threshold: usize,
    /// Fixed morsel size in rows (>= 1).
    pub morsel_rows: usize,
    /// Database-default statement deadline in milliseconds (0 = none).
    /// Sessions may override it with `SET statement_timeout = <ms>`.
    pub statement_timeout_ms: u64,
    /// Admission limit: maximum queries executing concurrently on this
    /// database (0 = unlimited). Excess queries are rejected immediately
    /// with `SqlError::Admission`, never queued.
    pub max_concurrent_queries: usize,
    /// Per-query budget on cumulative rows materialized across all
    /// operators (0 = unlimited).
    pub max_rows_budget: u64,
    /// Per-query budget on approximate bytes materialized across all
    /// operators (0 = unlimited).
    pub max_mem_bytes: u64,
}

impl Default for ExecOptions {
    fn default() -> Self {
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4);
        ExecOptions {
            threads,
            parallel_row_threshold: 8192,
            morsel_rows: DEFAULT_MORSEL_ROWS,
            statement_timeout_ms: 0,
            max_concurrent_queries: 0,
            max_rows_budget: 0,
            max_mem_bytes: 0,
        }
    }
}

impl ExecOptions {
    /// Single-threaded execution with vectorized (but serial) inference.
    pub fn serial() -> Self {
        ExecOptions {
            threads: 1,
            parallel_row_threshold: usize::MAX,
            ..ExecOptions::default()
        }
    }

    /// Multi-threaded execution with an explicit degree and fan-out
    /// threshold (both clamped to >= 1).
    pub fn with_threads(threads: usize, parallel_row_threshold: usize) -> Self {
        ExecOptions {
            threads,
            parallel_row_threshold,
            ..ExecOptions::default()
        }
        .validated()
    }

    /// Clamp every knob into its valid range: a zero-thread or zero-morsel
    /// configuration must degrade to serial execution, never panic the
    /// worker scope.
    pub fn validated(mut self) -> Self {
        self.threads = self.threads.max(1);
        self.parallel_row_threshold = self.parallel_row_threshold.max(1);
        self.morsel_rows = self.morsel_rows.max(1);
        self
    }
}

/// A physical operator tree.
#[derive(Debug, Clone)]
pub enum PhysicalPlan {
    /// A table read through its chunk source — disk parts, then the
    /// resident tail, each chunk one task of [`PhysicalPlan::map_chunks`]
    /// — with the filter directly above fused in and run per chunk, so
    /// only survivors materialize. Planning drops whole parts the filter
    /// cannot match by their zone maps.
    Scan {
        source: TableScan,
        /// Filter fused into the scan, compiled against the scan schema.
        predicate: Option<PhysExpr>,
        policy: ParallelPolicy,
    },
    Values {
        schema: Arc<Schema>,
        rows: Vec<Vec<PhysExpr>>,
    },
    Filter {
        input: Box<PhysicalPlan>,
        predicate: PhysExpr,
        policy: ParallelPolicy,
    },
    Project {
        input: Box<PhysicalPlan>,
        exprs: Vec<PhysExpr>,
        schema: Arc<Schema>,
        policy: ParallelPolicy,
    },
    HashAggregate {
        input: Box<PhysicalPlan>,
        group: Vec<PhysExpr>,
        aggs: Vec<(AggCall, Option<PhysExpr>)>,
        schema: Arc<Schema>,
        policy: ParallelPolicy,
    },
    HashJoin {
        left: Box<PhysicalPlan>,
        right: Box<PhysicalPlan>,
        left_keys: Vec<PhysExpr>,
        right_keys: Vec<PhysExpr>,
        join_type: JoinType,
        filter: Option<PhysExpr>,
        schema: Arc<Schema>,
        policy: ParallelPolicy,
    },
    NestedLoopJoin {
        left: Box<PhysicalPlan>,
        right: Box<PhysicalPlan>,
        join_type: JoinType,
        filter: Option<PhysExpr>,
        schema: Arc<Schema>,
    },
    Sort {
        input: Box<PhysicalPlan>,
        keys: Vec<(PhysExpr, bool)>,
        policy: ParallelPolicy,
        /// Top-K: a `LIMIT` above (directly, or over a projection) reads
        /// only the first `fetch` rows of the order, so only those are
        /// selected and gathered.
        fetch: Option<usize>,
    },
    Limit {
        input: Box<PhysicalPlan>,
        limit: Option<u64>,
        offset: u64,
    },
    Distinct {
        input: Box<PhysicalPlan>,
    },
    Union {
        inputs: Vec<PhysicalPlan>,
        schema: Arc<Schema>,
    },
}

/// Translate an (optimized) logical plan into a physical plan, snapshotting
/// table data from `catalog`. Each parallel-capable operator gets a
/// [`ParallelPolicy`] chosen from its input's row-count estimate — the
/// physical-operator-selection rule of the cross-optimizer, applied to the
/// whole relational algebra rather than only PREDICT.
pub fn create_physical_plan(
    logical: &LogicalPlan,
    catalog: &Catalog,
    provider: &dyn InferenceProvider,
    options: &ExecOptions,
) -> Result<PhysicalPlan> {
    let options = &options.clone().validated();
    Ok(match logical {
        LogicalPlan::Scan { .. } => plan_scan(logical, None, catalog, provider, options)?,
        LogicalPlan::Values { schema, rows } => {
            let empty = RecordBatch::empty(Arc::new(Schema::default()));
            let compiled: Vec<Vec<PhysExpr>> = rows
                .iter()
                .map(|row| {
                    row.iter()
                        .map(|e| PhysExpr::compile(e, empty.schema(), provider))
                        .collect::<Result<_>>()
                })
                .collect::<Result<_>>()?;
            PhysicalPlan::Values {
                schema: schema.clone(),
                rows: compiled,
            }
        }
        LogicalPlan::Filter { input, predicate } => {
            if let LogicalPlan::Scan { .. } = input.as_ref() {
                return plan_scan(input, Some(predicate), catalog, provider, options);
            }
            let child = create_physical_plan(input, catalog, provider, options)?;
            let policy = ParallelPolicy::from_options(options, child.estimated_rows());
            let predicate = PhysExpr::compile(predicate, input.schema(), provider)?;
            PhysicalPlan::Filter {
                input: Box::new(child),
                predicate,
                policy,
            }
        }
        LogicalPlan::Project {
            input,
            exprs,
            schema,
        } => {
            let child = create_physical_plan(input, catalog, provider, options)?;
            let policy = ParallelPolicy::from_options(options, child.estimated_rows());
            let compiled: Vec<PhysExpr> = exprs
                .iter()
                .map(|e| PhysExpr::compile(e, input.schema(), provider))
                .collect::<Result<_>>()?;
            PhysicalPlan::Project {
                input: Box::new(child),
                exprs: compiled,
                schema: schema.clone(),
                policy,
            }
        }
        LogicalPlan::Aggregate {
            input,
            group,
            aggs,
            schema,
        } => {
            let child = create_physical_plan(input, catalog, provider, options)?;
            let policy = ParallelPolicy::from_options(options, child.estimated_rows());
            let group_c: Vec<PhysExpr> = group
                .iter()
                .map(|e| PhysExpr::compile(e, input.schema(), provider))
                .collect::<Result<_>>()?;
            let aggs_c: Vec<(AggCall, Option<PhysExpr>)> = aggs
                .iter()
                .map(|a| {
                    let arg = a
                        .arg
                        .as_ref()
                        .map(|e| PhysExpr::compile(e, input.schema(), provider))
                        .transpose()?;
                    Ok((a.clone(), arg))
                })
                .collect::<Result<_>>()?;
            PhysicalPlan::HashAggregate {
                input: Box::new(child),
                group: group_c,
                aggs: aggs_c,
                schema: schema.clone(),
                policy,
            }
        }
        LogicalPlan::Join {
            left,
            right,
            join_type,
            on,
            filter,
            schema,
        } => {
            let l = create_physical_plan(left, catalog, provider, options)?;
            let r = create_physical_plan(right, catalog, provider, options)?;
            let joined_schema = schema.clone();
            let filter_c = filter
                .as_ref()
                .map(|f| PhysExpr::compile(f, &joined_schema, provider))
                .transpose()?;
            if on.is_empty() {
                PhysicalPlan::NestedLoopJoin {
                    left: Box::new(l),
                    right: Box::new(r),
                    join_type: *join_type,
                    filter: filter_c,
                    schema: joined_schema,
                }
            } else {
                let mut left_keys = Vec::with_capacity(on.len());
                let mut right_keys = Vec::with_capacity(on.len());
                for (le, re) in on {
                    let (le, re) =
                        join_key_pair(le, re, left.schema(), right.schema(), provider)?;
                    left_keys.push(PhysExpr::compile(&le, left.schema(), provider)?);
                    right_keys.push(PhysExpr::compile(&re, right.schema(), provider)?);
                }
                let est = l.estimated_rows().max(r.estimated_rows());
                let policy = ParallelPolicy::from_options(options, est);
                PhysicalPlan::HashJoin {
                    left: Box::new(l),
                    right: Box::new(r),
                    left_keys,
                    right_keys,
                    join_type: *join_type,
                    filter: filter_c,
                    schema: joined_schema,
                    policy,
                }
            }
        }
        LogicalPlan::Sort { input, keys } => {
            let child = create_physical_plan(input, catalog, provider, options)?;
            let policy = ParallelPolicy::from_options(options, child.estimated_rows());
            let keys_c: Vec<(PhysExpr, bool)> = keys
                .iter()
                .map(|(e, asc)| {
                    Ok((PhysExpr::compile(e, input.schema(), provider)?, *asc))
                })
                .collect::<Result<_>>()?;
            PhysicalPlan::Sort {
                input: Box::new(child),
                keys: keys_c,
                policy,
                fetch: None,
            }
        }
        LogicalPlan::Limit {
            input,
            limit,
            offset,
        } => {
            let mut child = create_physical_plan(input, catalog, provider, options)?;
            // A projection keeps its input's rows in order, so a sort under
            // one (an ORDER BY key outside the select list) is a top-K too.
            let sort = match &mut child {
                PhysicalPlan::Project { input, .. } => input.as_mut(),
                other => other,
            };
            if let (PhysicalPlan::Sort { fetch, .. }, Some(limit)) = (sort, limit) {
                *fetch = Some(usize::try_from(limit.saturating_add(*offset)).unwrap_or(usize::MAX));
            }
            PhysicalPlan::Limit {
                input: Box::new(child),
                limit: *limit,
                offset: *offset,
            }
        }
        LogicalPlan::Distinct { input } => PhysicalPlan::Distinct {
            input: Box::new(create_physical_plan(input, catalog, provider, options)?),
        },
        LogicalPlan::Union { inputs, schema } => PhysicalPlan::Union {
            inputs: inputs
                .iter()
                .map(|i| create_physical_plan(i, catalog, provider, options))
                .collect::<Result<_>>()?,
            schema: schema.clone(),
        },
    })
}

/// Narrow column `idx` to `[lo, hi]`: `col = 5` → `[5, 5]`, `col > 5` →
/// `[5, ∞)` (inclusive — pruning stays conservative for both strict and
/// non-strict forms).
fn tighten(bounds: &mut ColBounds, idx: usize, lo: Option<f64>, hi: Option<f64>) {
    let e = bounds.entry(idx).or_insert((None, None));
    if let Some(l) = lo {
        e.0 = Some(e.0.map_or(l, |x: f64| x.max(l)));
    }
    if let Some(h) = hi {
        e.1 = Some(e.1.map_or(h, |x: f64| x.min(h)));
    }
}

/// One side of a zone bound: a literal's value, or a `?` parameter's —
/// known only when the plan executes, cast as the plan casts it (a typed
/// parameter is planned under an identity `CAST`), and negated when the
/// plan negates it (`-?`, how a prepared statement reads `-5`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum ZoneBound {
    Value(f64),
    Param(usize, Option<DataType>, bool),
}

/// Column `.0` (of the scan) lies in `[.1, .2]`; a side is open when
/// `None`.
pub(crate) type ZoneTerm = (usize, Option<ZoneBound>, Option<ZoneBound>);

fn zone_bound(e: &Expr) -> Option<ZoneBound> {
    match e {
        Expr::Literal(v) => v.as_f64().map(ZoneBound::Value),
        Expr::Parameter(i) => Some(ZoneBound::Param(*i, None, false)),
        Expr::Cast { expr, to } => match **expr {
            Expr::Parameter(i) => Some(ZoneBound::Param(i, Some(*to), false)),
            _ => None,
        },
        Expr::Unary {
            op: UnOp::Neg,
            expr,
        } => match zone_bound(expr)? {
            ZoneBound::Param(i, to, negated) => Some(ZoneBound::Param(i, to, !negated)),
            ZoneBound::Value(_) => None,
        },
        _ => None,
    }
}

/// The zone-prunable terms of a predicate: AND-split into conjuncts, then
/// keep the column bounds ([`Expr::column_bound`]) whose bound is a
/// numeric literal or a `?` parameter. Everything else
/// (OR, NOT, expressions over the column) contributes no term — parts it
/// might match are never pruned.
pub(crate) fn zone_terms(pred: &Expr, schema: &Schema) -> Vec<ZoneTerm> {
    let term = |conj: &Expr| {
        let (name, bound) = conj.column_bound()?;
        let (lo, hi) = match bound {
            ColumnBound::Eq(e) => {
                let b = zone_bound(e)?;
                (Some(b), Some(b))
            }
            ColumnBound::Range { low, high } => {
                (low.and_then(zone_bound), high.and_then(zone_bound))
            }
        };
        let idx = schema.index_of(name)?;
        (lo.is_some() || hi.is_some()).then_some((idx, lo, hi))
    };
    pred.split_conjunction().into_iter().filter_map(term).collect()
}

/// Bounds from zone terms, each parameter read from `params`, or left open
/// when `params` is `None` (at plan time). A parameter that is NULL or not
/// numeric leaves its side open, as such a literal does; a term with both
/// sides open bounds nothing.
pub(crate) fn resolve_zones(terms: &[ZoneTerm], params: Option<&[Value]>) -> ColBounds {
    let value = |b: Option<ZoneBound>| match b? {
        ZoneBound::Value(v) => Some(v),
        ZoneBound::Param(i, to, negated) => {
            let p = params?.get(i)?;
            let x = match to {
                Some(to) => p.cast(to).ok()?.as_f64()?,
                None => p.as_f64()?,
            };
            Some(if negated { -x } else { x })
        }
    };
    let mut bounds = ColBounds::new();
    for &(idx, lo, hi) in terms {
        let (lo, hi) = (value(lo), value(hi));
        if lo.is_some() || hi.is_some() {
            tighten(&mut bounds, idx, lo, hi);
        }
    }
    bounds
}

fn has_param(b: Option<ZoneBound>) -> bool {
    matches!(b, Some(ZoneBound::Param(..)))
}

/// Plan a [`LogicalPlan::Scan`] with the filter directly above it (if any)
/// fused in. The filter's bounds prune parts by their zone maps and narrow
/// the resident chunks by ranges on sorted columns here, at plan time —
/// or, when a bound is a `?` parameter, each time the plan executes, once
/// the parameters are bound ([`TableScan::bind`]), so a cached plan stays
/// shared; the filter itself runs per chunk at execution time, on what
/// is left.
fn plan_scan(
    scan: &LogicalPlan,
    predicate: Option<&Expr>,
    catalog: &Catalog,
    provider: &dyn InferenceProvider,
    options: &ExecOptions,
) -> Result<PhysicalPlan> {
    let LogicalPlan::Scan {
        table,
        version,
        projection,
        schema,
    } = scan
    else {
        return Err(SqlError::Plan("plan_scan on a non-scan node".into()));
    };
    let mut source = catalog
        .scan_table(table, *version)?
        .project(projection.as_deref(), schema.clone())?;
    let terms = predicate.map(|p| zone_terms(p, schema)).unwrap_or_default();
    if terms
        .iter()
        .any(|&(_, lo, hi)| has_param(lo) || has_param(hi))
    {
        source.prune_when_bound(terms);
    } else {
        source.prune(&resolve_zones(&terms, None));
    }
    let policy = ParallelPolicy::from_options(options, source.rows());
    let predicate = predicate
        .map(|p| PhysExpr::compile(p, schema, provider))
        .transpose()?;
    Ok(PhysicalPlan::Scan {
        source,
        predicate,
        policy,
    })
}

impl PhysicalPlan {
    /// Output-cardinality estimate. Exact for scans (the physical plan
    /// snapshots table data), heuristic above them — the same shape as the
    /// cross-optimizer's logical estimator, reused here for per-operator
    /// degree selection.
    pub fn estimated_rows(&self) -> usize {
        match self {
            // filters keep an estimated third of their input
            PhysicalPlan::Scan {
                source,
                predicate: Some(_),
                ..
            } => source.rows() / 3 + 1,
            PhysicalPlan::Scan { source, .. } => source.rows(),
            PhysicalPlan::Values { rows, .. } => rows.len(),
            PhysicalPlan::Filter { input, .. } => input.estimated_rows() / 3 + 1,
            PhysicalPlan::Project { input, .. }
            | PhysicalPlan::Sort { input, .. }
            | PhysicalPlan::Distinct { input } => input.estimated_rows(),
            PhysicalPlan::HashAggregate { input, group, .. } => {
                if group.is_empty() {
                    1
                } else {
                    (input.estimated_rows() / 10).max(1)
                }
            }
            PhysicalPlan::HashJoin { left, right, .. }
            | PhysicalPlan::NestedLoopJoin { left, right, .. } => {
                left.estimated_rows().max(right.estimated_rows())
            }
            PhysicalPlan::Limit { input, limit, .. } => {
                let n = input.estimated_rows();
                limit.map_or(n, |l| n.min(l as usize))
            }
            PhysicalPlan::Union { inputs, .. } => {
                inputs.iter().map(PhysicalPlan::estimated_rows).sum()
            }
        }
    }

    /// Execute without keeping the measurements (a throwaway metrics tree
    /// absorbs them). The instrumented entry point is
    /// [`PhysicalPlan::execute_metered`].
    pub fn execute(&self, ctx: &EvalContext) -> Result<RecordBatch> {
        self.execute_metered(ctx, &PlanMetrics::for_plan(self))
    }

    /// Execute while recording per-operator runtime metrics into a
    /// [`PlanMetrics`] tree built with [`PlanMetrics::for_plan`] (the tree
    /// must mirror this plan).
    pub fn execute_metered(&self, ctx: &EvalContext, m: &PlanMetrics) -> Result<RecordBatch> {
        // Cooperative cancellation point: every operator checks the token
        // before running, so a cancelled/timed-out query unwinds at the
        // next operator boundary even when its expressions are trivial.
        // Wall time already spent is recorded by the enclosing operators'
        // timers, leaving a partial-but-consistent metrics tree behind.
        ctx.cancel.check()?;
        if let PhysicalPlan::Scan { source, .. } = self {
            // A scan meters its output chunk by chunk (`map_chunks`); its
            // time is its share of the chunk map, plus the concatenation.
            let chunks = self.map_chunks(ctx, &m.op, |chunk, _| Ok(chunk))?;
            let concat = Instant::now();
            let out = concat_chunks(source.schema(), chunks)?;
            m.op
                .wall_ns
                .fetch_add(concat.elapsed().as_nanos() as u64, AtomicOrdering::Relaxed);
            return Ok(out);
        }
        let started = Instant::now();
        let out = self.execute_inner(ctx, m)?;
        m.op
            .wall_ns
            .fetch_add(started.elapsed().as_nanos() as u64, AtomicOrdering::Relaxed);
        m.op.batches.fetch_add(1, AtomicOrdering::Relaxed);
        m.op
            .rows_out
            .fetch_add(out.num_rows() as u64, AtomicOrdering::Relaxed);
        // Charge this operator's materialized output against the query's
        // row/memory budget (bytes are approximated column-major at 8
        // bytes per cell, the width of the numeric fast paths).
        ctx.budget.charge(
            out.num_rows() as u64,
            (out.num_rows() * out.num_columns() * 8) as u64,
        )?;
        Ok(out)
    }

    fn execute_inner(&self, ctx: &EvalContext, m: &PlanMetrics) -> Result<RecordBatch> {
        match self {
            PhysicalPlan::Scan { .. } => Err(SqlError::Execution(
                "a scan runs through its chunk map".into(),
            )),
            PhysicalPlan::Values { schema, rows } => {
                m.op
                    .rows_in
                    .fetch_add(rows.len() as u64, AtomicOrdering::Relaxed);
                let empty = RecordBatch::empty(Arc::new(Schema::default()));
                let mut out_rows: Vec<Vec<Value>> = Vec::with_capacity(rows.len());
                for row in rows {
                    let vals: Vec<Value> = row
                        .iter()
                        .map(|e| e.eval_row(&empty, 0, ctx))
                        .collect::<Result<_>>()?;
                    out_rows.push(vals);
                }
                RecordBatch::from_rows(schema.clone(), &out_rows)
            }
            PhysicalPlan::Filter {
                input,
                predicate,
                policy,
            } => {
                let batch = run_input(input, ctx, m, 0)?;
                batch.filter(&filter_mask(predicate, &batch, policy, ctx, &m.op)?)
            }
            PhysicalPlan::Project {
                input,
                exprs,
                schema,
                policy,
            } => {
                let batch = run_input(input, ctx, m, 0)?;
                let project = |b: &RecordBatch| {
                    let cols = exprs.iter().map(|e| e.eval(b, ctx));
                    RecordBatch::new(schema.clone(), cols.collect::<Result<_>>()?)
                };
                if m.op.fan_out(policy, batch.num_rows()) {
                    let parts = parallel::map_morsels(&batch, policy, project)?;
                    return RecordBatch::concat(schema.clone(), &parts);
                }
                project(&batch)
            }
            PhysicalPlan::HashAggregate {
                input,
                group,
                aggs,
                schema,
                policy,
            } => agg::execute_hash_aggregate(input, group, aggs, schema, policy, ctx, m),
            PhysicalPlan::HashJoin {
                left,
                right,
                left_keys,
                right_keys,
                join_type,
                filter,
                schema,
                policy,
            } => {
                let lb = run_input(left, ctx, m, 0)?;
                let rb = run_input(right, ctx, m, 1)?;
                execute_hash_join(
                    &lb, &rb, left_keys, right_keys, *join_type, filter, schema, policy, ctx,
                    &m.op,
                )
            }
            PhysicalPlan::NestedLoopJoin {
                left,
                right,
                join_type,
                filter,
                schema,
            } => {
                let lb = run_input(left, ctx, m, 0)?;
                let rb = run_input(right, ctx, m, 1)?;
                let mut pairs: Vec<(usize, usize)> =
                    Vec::with_capacity(lb.num_rows() * rb.num_rows());
                for li in 0..lb.num_rows() {
                    ctx.cancel.check_every(li)?;
                    for ri in 0..rb.num_rows() {
                        pairs.push((li, ri));
                    }
                }
                finish_join(&lb, &rb, pairs, *join_type, filter, schema, ctx)
            }
            PhysicalPlan::Sort {
                input,
                keys,
                policy,
                fetch,
            } => {
                let batch = run_input(input, ctx, m, 0)?;
                execute_sort(&batch, keys, policy, *fetch, ctx, &m.op)
            }
            PhysicalPlan::Limit {
                input,
                limit,
                offset,
            } => {
                let batch = run_input(input, ctx, m, 0)?;
                let start = (*offset as usize).min(batch.num_rows());
                let len = limit
                    .map(|l| l as usize)
                    .unwrap_or(batch.num_rows() - start);
                Ok(batch.slice(start, len))
            }
            PhysicalPlan::Union { inputs, schema } => {
                let batches: Vec<RecordBatch> = inputs
                    .iter()
                    .enumerate()
                    .map(|(i, input)| run_input(input, ctx, m, i))
                    .collect::<Result<_>>()?;
                RecordBatch::concat(schema.clone(), &batches)
            }
            PhysicalPlan::Distinct { input } => {
                // The first row of each group of whole rows, in row order.
                let batch = run_input(input, ctx, m, 0)?;
                let groups = agg::group_ids(batch.columns(), batch.num_rows(), &ctx.cancel)?;
                batch.take(&groups.firsts)
            }
        }
    }

    /// Run a [`PhysicalPlan::Scan`] as a map over its chunks: one task per
    /// chunk reads it (decoding a part), runs the fused filter, and hands
    /// the non-empty survivors to `consume` in the same task; the outputs
    /// come back in chunk order. A scan of at least two parts (or two runs
    /// of resident chunks) that reads at least the fan-out threshold
    /// spreads its chunks over the policy's
    /// workers ([`chunk_degree`]), the calling thread among them, holding
    /// the decoded parts in flight within the table memory budget
    /// ([`TableScan::decode_gate`]). Inside such a task nothing fans out
    /// again: `consume` is told so, and walks serially the morsels it
    /// would have fanned out over. Otherwise the chunks go by in order on
    /// this thread, and operators fan out within each as over a resident
    /// batch.
    ///
    /// Meters the scan as a streaming operator: rows read (`rows_in`:
    /// after pruning, before the filter), one output batch per chunk of
    /// survivors, the query budget charged for each chunk materialized
    /// beyond them (a decoded part, or the filter's input), and wall time
    /// that never overlaps the consumer's: the map's wall time, split by
    /// the time tasks spent reading against consuming.
    pub(super) fn map_chunks<T: Send>(
        &self,
        ctx: &EvalContext,
        op: &OpMetrics,
        consume: impl Fn(RecordBatch, bool) -> Result<T> + Sync,
    ) -> Result<Vec<T>> {
        let PhysicalPlan::Scan {
            source,
            predicate,
            policy,
        } = self
        else {
            return Err(SqlError::Execution("map_chunks on a non-scan operator".into()));
        };
        ctx.cancel.check()?;
        // Pruning that waited for the parameters runs now, on this
        // execution's copy of the source; the plan stays shared.
        let (source, policy) = match source.bind(&ctx.params) {
            Some(bound) => {
                let policy = policy.for_rows(bound.rows());
                (op.bound_scan.get_or_init(|| bound), policy)
            }
            None => (source, *policy),
        };
        if source.narrowed().is_some() {
            op.sorted_ranges.fetch_add(1, AtomicOrdering::Relaxed);
        }
        let policy = &policy;
        let chunks: Vec<usize> = (0..source.chunk_count()).collect();
        let degree = chunk_degree(source, policy);
        let nested = degree > 1;
        if nested {
            op.record_fan_out(chunks.len(), degree);
        }
        let gate = source.decode_gate();
        let (read_ns, consume_ns) = (AtomicU64::new(0), AtomicU64::new(0));
        let started = Instant::now();
        let outputs = parallel::parallel_map(&chunks, degree, |&i| {
            ctx.cancel.check()?;
            let read = Instant::now();
            let _held = gate.reserve(source.chunk_bytes(i));
            let chunk = source.chunk(i)?;
            let n = chunk.num_rows();
            op.rows_in.fetch_add(n as u64, AtomicOrdering::Relaxed);
            if i < source.parts().len() || predicate.is_some() {
                ctx.budget.charge(n as u64, (n * chunk.num_columns() * 8) as u64)?;
            }
            let survivors = match predicate {
                Some(p) if nested => chunk.filter(&p.eval_mask(&chunk, ctx)?)?,
                Some(p) => chunk.filter(&filter_mask(p, &chunk, policy, ctx, op)?)?,
                None => chunk,
            };
            let n = survivors.num_rows();
            let out = if n == 0 {
                None
            } else {
                op.batches.fetch_add(1, AtomicOrdering::Relaxed);
                op.rows_out.fetch_add(n as u64, AtomicOrdering::Relaxed);
                ctx.budget.charge(n as u64, (n * survivors.num_columns() * 8) as u64)?;
                Some(survivors)
            };
            let handed = Instant::now();
            read_ns.fetch_add((handed - read).as_nanos() as u64, AtomicOrdering::Relaxed);
            let out = out.map(|chunk| consume(chunk, nested)).transpose();
            consume_ns.fetch_add(handed.elapsed().as_nanos() as u64, AtomicOrdering::Relaxed);
            out
        })?;
        let wall = started.elapsed().as_nanos() as u64;
        let (read, consumed) = (read_ns.into_inner(), consume_ns.into_inner());
        let own = match read + consumed {
            0 => wall,
            busy => (wall as u128 * read as u128 / busy as u128) as u64,
        };
        op.wall_ns.fetch_add(own, AtomicOrdering::Relaxed);
        Ok(outputs.into_iter().flatten().collect())
    }

    /// Child operators, in the order `execute` runs them (and in which
    /// [`PlanMetrics::for_plan`] mirrors them).
    pub fn children(&self) -> Vec<&PhysicalPlan> {
        match self {
            PhysicalPlan::Scan { .. } | PhysicalPlan::Values { .. } => Vec::new(),
            PhysicalPlan::Filter { input, .. }
            | PhysicalPlan::Project { input, .. }
            | PhysicalPlan::HashAggregate { input, .. }
            | PhysicalPlan::Sort { input, .. }
            | PhysicalPlan::Limit { input, .. }
            | PhysicalPlan::Distinct { input } => vec![input],
            PhysicalPlan::HashJoin { left, right, .. }
            | PhysicalPlan::NestedLoopJoin { left, right, .. } => vec![left, right],
            PhysicalPlan::Union { inputs, .. } => inputs.iter().collect(),
        }
    }

    /// Operator name and shape detail for plan rendering.
    pub fn op_label(&self) -> (String, String) {
        self.label(None)
    }

    /// [`op_label`](Self::op_label), with a scan whose pruning waited for
    /// its parameters shown as it ran: over `bound`, its source once they
    /// were bound.
    pub(crate) fn label(&self, bound: Option<&TableScan>) -> (String, String) {
        match self {
            PhysicalPlan::Scan {
                source,
                predicate,
                policy,
            } => {
                let (source, policy) = match bound {
                    Some(b) => (b, &policy.for_rows(b.rows())),
                    None => (source, policy),
                };
                let mut detail = format!("rows={}", source.rows());
                if let Some(slice) = sorted_range_label(source) {
                    detail.push_str(&format!(", {slice}"));
                }
                if let (pruned, total @ 1..) = source.pruned() {
                    detail.push_str(&format!(", parts pruned {pruned}/{total}"));
                }
                let degree = chunk_degree(source, policy);
                if predicate.is_some() {
                    detail.push_str(", fused filter");
                    if let Some(p) = policy_detail_opt(policy).filter(|_| degree == 1) {
                        detail.push_str(&format!(", {p}"));
                    }
                }
                if degree > 1 {
                    detail.push_str(&format!(
                        ", chunks {}, degree {degree}",
                        source.chunk_count()
                    ));
                }
                ("Scan".to_string(), detail)
            }
            PhysicalPlan::Values { rows, .. } => {
                ("Values".to_string(), format!("rows={}", rows.len()))
            }
            PhysicalPlan::Filter { policy, .. } => {
                ("Filter".to_string(), policy_detail(policy))
            }
            PhysicalPlan::Project {
                exprs,
                schema,
                policy,
                ..
            } => {
                let mut detail = format!("exprs={}", exprs.len());
                if exprs.iter().any(PhysExpr::contains_predict) {
                    detail.push_str(", predict");
                    let mut labels = Vec::new();
                    for e in exprs {
                        e.predict_labels(&mut labels);
                    }
                    if !labels.is_empty() {
                        detail.push_str(&format!("({})", labels.join("; ")));
                    }
                }
                // PREDICTs the optimizer computes here for several readers
                // above (`optimizer::share_predicts`).
                for refs in schema
                    .names()
                    .into_iter()
                    .filter_map(crate::optimizer::shared_predict_refs)
                {
                    detail.push_str(&format!(", scored once, {refs} refs"));
                }
                if let Some(p) = policy_detail_opt(policy) {
                    detail.push_str(&format!(", {p}"));
                }
                ("Project".to_string(), detail)
            }
            PhysicalPlan::HashAggregate {
                group,
                aggs,
                policy,
                ..
            } => {
                let mut detail = format!("groups={}, aggs={}", group.len(), aggs.len());
                if let Some(p) = policy_detail_opt(policy) {
                    detail.push_str(&format!(", {p}"));
                }
                ("HashAggregate".to_string(), detail)
            }
            PhysicalPlan::HashJoin {
                join_type,
                left_keys,
                policy,
                ..
            } => {
                let types: Vec<String> =
                    left_keys.iter().map(|k| k.data_type.to_string()).collect();
                let mut detail = format!("{join_type:?}, keys=[{}]", types.join(", "));
                if let Some(p) = policy_detail_opt(policy) {
                    detail.push_str(&format!(", {p}"));
                }
                ("HashJoin".to_string(), detail)
            }
            PhysicalPlan::NestedLoopJoin { join_type, .. } => {
                ("NestedLoopJoin".to_string(), format!("{join_type:?}"))
            }
            PhysicalPlan::Sort {
                keys,
                policy,
                fetch,
                ..
            } => {
                let mut detail = format!("keys={}", keys.len());
                if let Some(k) = fetch {
                    detail = format!("TopK(k={k}), {detail}");
                }
                if let Some(p) = policy_detail_opt(policy) {
                    detail.push_str(&format!(", {p}"));
                }
                ("Sort".to_string(), detail)
            }
            PhysicalPlan::Limit { limit, offset, .. } => (
                "Limit".to_string(),
                match limit {
                    Some(l) => format!("limit={l}, offset={offset}"),
                    None => format!("offset={offset}"),
                },
            ),
            PhysicalPlan::Distinct { .. } => ("Distinct".to_string(), String::new()),
            PhysicalPlan::Union { inputs, .. } => {
                ("Union".to_string(), format!("inputs={}", inputs.len()))
            }
        }
    }

    /// `logical`, the text of the plan this one was built from, with each
    /// scan line that a range on a sorted column narrows followed by its
    /// slice and the rows it reads, `?`s bound to `params` (the plain
    /// `EXPLAIN` body). Scans pair with `Scan:` lines in tree order; when
    /// their counts differ the text comes back as it is.
    pub(crate) fn annotate_slices(&self, logical: &str, params: &[Value]) -> String {
        fn scans<'a>(plan: &'a PhysicalPlan, out: &mut Vec<&'a TableScan>) {
            match plan {
                PhysicalPlan::Scan { source, .. } => out.push(source),
                other => other.children().into_iter().for_each(|c| scans(c, out)),
            }
        }
        let mut sources = Vec::new();
        scans(self, &mut sources);
        let is_scan = |line: &str| line.trim_start().starts_with("Scan: ");
        if logical.lines().filter(|l| is_scan(l)).count() != sources.len() {
            return logical.to_string();
        }
        let mut sources = sources.into_iter();
        let mut out = String::new();
        for line in logical.lines() {
            out.push_str(line);
            if let Some(source) = is_scan(line).then(|| sources.next()).flatten() {
                let bound = source.bind(params);
                let source = bound.as_ref().unwrap_or(source);
                if let Some(slice) = sorted_range_label(source) {
                    out.push_str(&format!(" [{slice}, rows={}]", source.rows()));
                }
            }
            out.push('\n');
        }
        out
    }

    /// Static plan-tree rendering (the `EXPLAIN` body): operator names and
    /// shape details, no runtime numbers.
    pub fn explain(&self) -> String {
        let mut out = String::new();
        self.explain_into(0, &mut out);
        out
    }

    fn explain_into(&self, depth: usize, out: &mut String) {
        let (name, detail) = self.op_label();
        let indent = "  ".repeat(depth);
        if detail.is_empty() {
            out.push_str(&format!("{indent}{name}\n"));
        } else {
            out.push_str(&format!("{indent}{name} [{detail}]\n"));
        }
        for c in self.children() {
            c.explain_into(depth + 1, out);
        }
    }

    /// Output schema of this physical operator.
    pub fn schema(&self) -> Arc<Schema> {
        match self {
            PhysicalPlan::Scan { source, .. } => source.schema().clone(),
            PhysicalPlan::Values { schema, .. }
            | PhysicalPlan::Project { schema, .. }
            | PhysicalPlan::HashAggregate { schema, .. }
            | PhysicalPlan::HashJoin { schema, .. }
            | PhysicalPlan::Union { schema, .. }
            | PhysicalPlan::NestedLoopJoin { schema, .. } => schema.clone(),
            PhysicalPlan::Filter { input, .. }
            | PhysicalPlan::Sort { input, .. }
            | PhysicalPlan::Limit { input, .. }
            | PhysicalPlan::Distinct { input } => input.schema(),
        }
    }
}

/// The slice a range on a sorted column narrowed `source` to, as its scan
/// line shows it: `sorted range k [lo, hi)`, rows of the scan.
fn sorted_range_label(source: &TableScan) -> Option<String> {
    let (columns, rows) = source.narrowed()?;
    let schema = source.schema();
    let names: Vec<&str> = (columns.iter())
        .map(|&c| schema.column(c).name.as_str())
        .collect();
    Some(format!(
        "sorted range {} [{}, {})",
        names.join(", "),
        rows.start,
        rows.end
    ))
}

/// Execute child `i` of the operator metered by `m`, counting its output
/// as the operator's input.
fn run_input(
    child: &PhysicalPlan,
    ctx: &EvalContext,
    m: &PlanMetrics,
    i: usize,
) -> Result<RecordBatch> {
    let batch = child.execute_metered(ctx, &m.children[i])?;
    m.op
        .rows_in
        .fetch_add(batch.num_rows() as u64, AtomicOrdering::Relaxed);
    Ok(batch)
}

/// Workers a scan spreads its chunks over: the policy's degree (at most
/// one per chunk) when at least two parts remain after pruning, or the
/// resident tail is read as at least two runs, and the scan reads at least
/// the fan-out threshold, else 1.
fn chunk_degree(source: &TableScan, policy: &ParallelPolicy) -> usize {
    let chunked = source.parts().len() >= 2 || source.chunk_count() - source.parts().len() >= 2;
    if policy.degree > 1 && chunked && source.rows() >= policy.row_threshold {
        policy.degree.min(source.chunk_count())
    } else {
        1
    }
}

/// A predicate's selection mask over `batch`: per morsel when the policy
/// fans out, else in one pass.
fn filter_mask(
    predicate: &PhysExpr,
    batch: &RecordBatch,
    policy: &ParallelPolicy,
    ctx: &EvalContext,
    op: &OpMetrics,
) -> Result<Vec<bool>> {
    if !op.fan_out(policy, batch.num_rows()) {
        return predicate.eval_mask(batch, ctx);
    }
    Ok(parallel::map_morsels(batch, policy, |m| predicate.eval_mask(m, ctx))?.concat())
}

/// `degree=N` when the operator may fan out, empty when planned serial.
fn policy_detail_opt(policy: &ParallelPolicy) -> Option<String> {
    (policy.degree > 1).then(|| format!("degree={}", policy.degree))
}

fn policy_detail(policy: &ParallelPolicy) -> String {
    policy_detail_opt(policy).unwrap_or_default()
}

// ------------------------------------------------------------- hash join

/// An equi-join key pair as the hash join compares it: an INT key against
/// a DOUBLE key is cast to DOUBLE, so both sides read typed float keys and
/// `1 = 1.0` holds, as under [`Value::sql_cmp`].
fn join_key_pair(
    le: &Expr,
    re: &Expr,
    left: &Schema,
    right: &Schema,
    provider: &dyn InferenceProvider,
) -> Result<(Expr, Expr)> {
    let to_double = |e: &Expr| Expr::Cast {
        expr: Box::new(e.clone()),
        to: DataType::Float,
    };
    let types = (
        crate::plan::expr_type(le, left, provider)?,
        crate::plan::expr_type(re, right, provider)?,
    );
    Ok(match types {
        (Some(DataType::Int), Some(DataType::Float)) => (to_double(le), re.clone()),
        (Some(DataType::Float), Some(DataType::Int)) => (le.clone(), to_double(re)),
        _ => (le.clone(), re.clone()),
    })
}

/// Join `lb` (probe side) to `rb` (build side) on equal keys. The build
/// side's keys are numbered through typed tables ([`agg::JoinTable`]);
/// the probe side looks its keys up a morsel at a time, in parallel when
/// the policy fans out. Pairs come out in probe-row order and, within a
/// probe row, in build-row order, whatever the degree.
#[allow(clippy::too_many_arguments)]
fn execute_hash_join(
    lb: &RecordBatch,
    rb: &RecordBatch,
    left_keys: &[PhysExpr],
    right_keys: &[PhysExpr],
    join_type: JoinType,
    filter: &Option<PhysExpr>,
    schema: &Arc<Schema>,
    policy: &ParallelPolicy,
    ctx: &EvalContext,
    op: &OpMetrics,
) -> Result<RecordBatch> {
    let eval = |keys: &[PhysExpr], b: &RecordBatch| -> Result<Vec<ColumnVector>> {
        keys.iter().map(|e| e.eval(b, ctx)).collect()
    };
    let (lk, rk) = agg::comparable_keys(eval(left_keys, lb)?, eval(right_keys, rb)?);
    let table = agg::JoinTable::build(&rk, &ctx.cancel)?;
    let probe = |range: &Range<usize>| -> Result<Vec<(usize, usize)>> {
        ctx.cancel.check()?;
        let keys = table.probe(&lk, range.clone());
        Ok(range
            .clone()
            .zip(keys)
            .flat_map(|(li, k)| table.matches(k).iter().map(move |&ri| (li, ri)))
            .collect())
    };
    let ranges = parallel::morsel_ranges(lb.num_rows(), policy.morsel_rows);
    let pairs = if policy.fan_out(lb.num_rows().max(rb.num_rows())) {
        op.record_fan_out(ranges.len(), policy.degree);
        parallel::parallel_map(&ranges, policy.degree, probe)?
    } else {
        ranges.iter().map(probe).collect::<Result<_>>()?
    };
    finish_join(lb, rb, pairs.concat(), join_type, filter, schema, ctx)
}

/// Materialize candidate pairs, apply the residual filter, and null-extend
/// unmatched left rows for LEFT joins.
fn finish_join(
    lb: &RecordBatch,
    rb: &RecordBatch,
    pairs: Vec<(usize, usize)>,
    join_type: JoinType,
    filter: &Option<PhysExpr>,
    schema: &Arc<Schema>,
    ctx: &EvalContext,
) -> Result<RecordBatch> {
    let li: Vec<usize> = pairs.iter().map(|(l, _)| *l).collect();
    let ri: Vec<usize> = pairs.iter().map(|(_, r)| *r).collect();
    let left_part = lb.take(&li)?;
    let right_part = rb.take(&ri)?;
    let mut cols = left_part.columns().to_vec();
    cols.extend(right_part.columns().iter().cloned());
    let mut joined = RecordBatch::new(schema.clone(), cols)?;

    let mut matched_left: Vec<bool> = vec![false; lb.num_rows()];
    if let Some(f) = filter {
        let mask = f.eval_mask(&joined, ctx)?;
        for (i, &keep) in mask.iter().enumerate() {
            if keep {
                matched_left[li[i]] = true;
            }
        }
        joined = joined.filter(&mask)?;
    } else {
        for &l in &li {
            matched_left[l] = true;
        }
    }

    if join_type == JoinType::Left {
        let unmatched: Vec<usize> = (0..lb.num_rows())
            .filter(|&l| !matched_left[l])
            .collect();
        if !unmatched.is_empty() {
            let left_rows = lb.take(&unmatched)?;
            let mut cols = left_rows.columns().to_vec();
            for c in rb.columns() {
                cols.push(ColumnVector::repeat(
                    c.data_type(),
                    &Value::Null,
                    unmatched.len(),
                )?);
            }
            let null_ext = RecordBatch::new(schema.clone(), cols)?;
            joined = RecordBatch::concat(schema.clone(), &[joined, null_ext])?;
        }
    }
    Ok(joined)
}

// ------------------------------------------------------------- sort

fn execute_sort(
    batch: &RecordBatch,
    keys: &[(PhysExpr, bool)],
    policy: &ParallelPolicy,
    fetch: Option<usize>,
    ctx: &EvalContext,
    op: &OpMetrics,
) -> Result<RecordBatch> {
    let n = batch.num_rows();
    let fan_out = op.fan_out(policy, n);

    // Key columns for the whole batch; evaluated morsel-parallel when the
    // sort itself fans out (expression purity makes this equal to a single
    // whole-batch evaluation).
    let key_cols: Vec<ColumnVector> = if fan_out {
        let parts = parallel::map_morsels(batch, policy, |m| {
            keys.iter()
                .map(|(e, _)| e.eval(m, ctx))
                .collect::<Result<Vec<_>>>()
        })?;
        let mut cols: Vec<ColumnVector> = parts[0].clone();
        for (i, dst) in cols.iter_mut().enumerate() {
            let srcs: Vec<&ColumnVector> = parts[1..].iter().map(|p| &p[i]).collect();
            dst.append_all(&srcs)?;
        }
        cols
    } else {
        keys.iter()
            .map(|(e, _)| e.eval(batch, ctx))
            .collect::<Result<_>>()?
    };
    let sort_keys: Vec<(SortKey, bool)> = key_cols
        .iter()
        .zip(keys)
        .map(|(col, (_, asc))| (SortKey::of(col), *asc))
        .collect();

    let cmp_rows = |a: usize, b: usize| -> std::cmp::Ordering {
        for (key, asc) in &sort_keys {
            let ord = key.cmp_rows(a, b);
            let ord = if *asc { ord } else { ord.reverse() };
            if ord != std::cmp::Ordering::Equal {
                return ord;
            }
        }
        std::cmp::Ordering::Equal
    };

    // Top-K: keep the first `k` rows of the order without sorting the
    // rest. Breaking key ties by row position makes the order total and
    // equal to the stable sort's (earliest row first), so the selection
    // is exactly the stable sort's prefix — serially, whatever the
    // degree: one pass over typed keys is cheaper than merging runs. A
    // lone FLOAT or INT key is compared as one integer per row.
    if let Some(k) = fetch.filter(|k| *k < n) {
        let directed = |asc: bool, key: u64| if asc { key } else { !key };
        let indices = match sort_keys.as_slice() {
            [(SortKey::Float(v), asc)] => top_k(n, k, |r| directed(*asc, float_order(v[r]))),
            [(SortKey::Int(v), asc)] => top_k(n, k, |r| directed(*asc, v[r] as u64 ^ 1 << 63)),
            _ => top_k(n, k, |r| RowOrder(r, &cmp_rows)),
        };
        return batch.take(&indices);
    }

    if !fan_out {
        let mut indices: Vec<usize> = (0..n).collect();
        indices.sort_by(|&a, &b| cmp_rows(a, b));
        return batch.take(&indices);
    }

    // Parallel sort: stable-sort contiguous runs concurrently, then k-way
    // merge. Ties resolve to the earliest run (and stably within a run),
    // which reproduces the serial stable sort exactly, independent of the
    // run boundaries.
    let run_rows = n.div_ceil(policy.degree).max(policy.morsel_rows);
    let ranges = parallel::morsel_ranges(n, run_rows);
    op.record_fan_out(ranges.len(), policy.degree);
    let runs: Vec<Vec<usize>> = parallel::parallel_map(&ranges, policy.degree, |range| {
        ctx.cancel.check()?;
        let mut idx: Vec<usize> = range.clone().collect();
        idx.sort_by(|&a, &b| cmp_rows(a, b));
        Ok(idx)
    })?;

    let mut heads = vec![0usize; runs.len()];
    let mut indices: Vec<usize> = Vec::with_capacity(n);
    loop {
        ctx.cancel.check_every(indices.len())?;
        let mut best: Option<usize> = None;
        for (r, run) in runs.iter().enumerate() {
            if heads[r] >= run.len() {
                continue;
            }
            best = Some(match best {
                None => r,
                Some(b)
                    if cmp_rows(run[heads[r]], runs[b][heads[b]])
                        == std::cmp::Ordering::Less =>
                {
                    r
                }
                Some(b) => b,
            });
        }
        match best {
            Some(r) => {
                indices.push(runs[r][heads[r]]);
                heads[r] += 1;
            }
            None => break,
        }
    }
    batch.take(&indices)
}

/// The `k` first of rows `0..n` ordered by `(key(r), r)`, in that order: a
/// bounded max-heap whose top is the current k-th row, so a row that does
/// not make the cut costs one comparison.
fn top_k<K: Ord>(n: usize, k: usize, key: impl Fn(usize) -> K) -> Vec<usize> {
    let mut heap = std::collections::BinaryHeap::with_capacity(k);
    for r in 0..n {
        if heap.len() < k {
            heap.push((key(r), r));
            continue;
        }
        let Some(mut kth) = heap.peek_mut() else {
            break; // k == 0
        };
        let row = (key(r), r);
        if row < *kth {
            *kth = row;
        }
    }
    heap.into_sorted_vec().into_iter().map(|(_, r)| r).collect()
}

/// A row ordered by a row comparator, for [`top_k`] over keys with no
/// integer form.
struct RowOrder<'c, F>(usize, &'c F);

impl<F: Fn(usize, usize) -> std::cmp::Ordering> Ord for RowOrder<'_, F> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.1)(self.0, other.0)
    }
}

impl<F: Fn(usize, usize) -> std::cmp::Ordering> PartialOrd for RowOrder<'_, F> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<F: Fn(usize, usize) -> std::cmp::Ordering> PartialEq for RowOrder<'_, F> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}

impl<F: Fn(usize, usize) -> std::cmp::Ordering> Eq for RowOrder<'_, F> {}

/// `x` as an unsigned integer in [`SortKey::Float`]'s order: -0.0 just
/// below +0.0, and every NaN one value, above +inf.
fn float_order(x: f64) -> u64 {
    let bits = if x.is_nan() { f64::NAN } else { x }.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

/// A sort key column read in place: the two hot types compare on their
/// raw buffers, everything else through [`Value::total_cmp`] — whose order
/// (numbers, then NaN of either sign, then NULL) the typed arms reproduce.
enum SortKey<'a> {
    Float(&'a [f64]),
    Int(&'a [i64]),
    Other(&'a ColumnVector),
}

impl<'a> SortKey<'a> {
    fn of(col: &'a ColumnVector) -> SortKey<'a> {
        if let Some(v) = col.as_f64_slice() {
            SortKey::Float(v)
        } else if let Some(v) = col.as_i64_slice() {
            SortKey::Int(v)
        } else {
            SortKey::Other(col)
        }
    }

    fn cmp_rows(&self, a: usize, b: usize) -> std::cmp::Ordering {
        match self {
            SortKey::Float(v) => {
                let norm = |x: f64| if x.is_nan() { f64::NAN } else { x };
                norm(v[a]).total_cmp(&norm(v[b]))
            }
            SortKey::Int(v) => v[a].cmp(&v[b]),
            SortKey::Other(col) => col.get(a).total_cmp(&col.get(b)),
        }
    }
}
