//! Physical planning and execution.
//!
//! Every operator hands its rows on the same way, through its chunk map
//! ([`PhysicalPlan::map_chunks`]): a consumer is called once per output
//! chunk, in the task that made the chunk.
//!
//! - A table scan ([`scan`]) reads its chunks — disk parts, then the runs
//!   of its resident tail — and a scan of several fans them out over the
//!   worker pool, one task per chunk, reading, decoding and filtering it.
//! - Filter and Project, and the PREDICTs they evaluate, compose: they run
//!   on each chunk of their input inside the task that made it and hand
//!   their output on in the same task.
//! - An aggregate whose aggregates merge folds one partial per input
//!   chunk ([`agg`]), then hands on its one batch.
//! - Every other operator gathers its input into one batch and hands on
//!   one output: aggregates that cannot merge, sort and top-K ([`sort`]),
//!   both sides of a join ([`join`]), DISTINCT, LIMIT, UNION and VALUES.
//!
//! [`PhysicalPlan::execute`] is the edge: it maps the plan with the
//! identity and concatenates the chunks once. An operator's chunks are
//! concatenated in exactly two places, the gather and the edge.
//!
//! Operators over large inputs run *morsel-driven parallel*: a batch splits
//! into fixed-size morsels that a worker pool drains — filters and
//! projections evaluate per morsel, aggregates run two-phase (per-morsel
//! partials merged in morsel order), hash joins probe morsels concurrently
//! against typed build tables, and sorts merge per-run sorted indices.
//! Inside a task of a fanned-out scan nothing fans out again: filters and
//! projections evaluate the whole chunk, and an aggregate walks the same
//! morsels on that thread. This is the engine-supplied
//! parallelism the paper credits for SONNX's speedup over standalone ONNX
//! Runtime, generalized from PREDICT projections to the whole relational
//! algebra.

pub mod agg;
pub mod cancel;
pub mod expr;
pub mod functions;
mod join;
pub mod metrics;
pub mod parallel;
mod scan;
mod sort;
pub mod window;

pub use cancel::{AdmissionController, AdmissionSlot, CancelHandle, CancelToken, QueryBudget};
pub use expr::{EvalContext, PhysExpr, PhysNode};
pub use metrics::{EngineMetrics, OpMetrics, OpSnapshot, PlanMetrics};
pub use parallel::ParallelPolicy;
pub(crate) use scan::{resolve_zones, zone_terms, ZoneTerm};

use crate::ast::JoinType;
use crate::batch::RecordBatch;
use crate::catalog::Catalog;
use crate::error::Result;
use crate::plan::{AggCall, LogicalPlan};
use crate::schema::Schema;
use crate::table::{concat_chunks, TableScan};
use crate::types::Value;
use crate::udf::InferenceProvider;
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

/// What a chunk map hands each chunk to, in the task that made it: the
/// chunk, and whether that task is one of several running at once (so
/// nothing inside it may fan out again). It returns what to keep of the
/// chunk, if anything; the map returns the kept values in chunk order.
pub(super) type Consume<'a, T> = dyn Fn(RecordBatch, bool) -> Result<Option<T>> + Sync + 'a;

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
        LogicalPlan::Scan { .. } => scan::plan_scan(logical, None, catalog, provider, options)?,
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
                return scan::plan_scan(input, Some(predicate), catalog, provider, options);
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
                        join::join_key_pair(le, re, left.schema(), right.schema(), provider)?;
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
    /// must mirror this plan). This is the edge of the chunk maps: the
    /// plan's output chunks are kept whole and concatenated here, once, in
    /// the root operator's time.
    pub fn execute_metered(&self, ctx: &EvalContext, m: &PlanMetrics) -> Result<RecordBatch> {
        let chunks = self.map_chunks(ctx, m, &|chunk, _| Ok(Some(chunk)))?;
        let started = Instant::now();
        let out = concat_chunks(&self.schema(), chunks)?;
        m.op
            .wall_ns
            .fetch_add(started.elapsed().as_nanos() as u64, AtomicOrdering::Relaxed);
        Ok(out)
    }

    /// Hand this operator's output to `consume` chunk by chunk, metered
    /// into `m` (which mirrors this plan):
    ///
    /// - a scan maps its chunks ([`scan::map_scan`]);
    /// - a filter or a projection composes onto its input's map
    ///   ([`compose`]): over the whole chunk when the task is nested, else
    ///   fanned out over the chunk's morsels;
    /// - every other operator runs once over its gathered input
    ///   ([`gather`]; a mergeable aggregate folds the input's chunks
    ///   instead) and hands its one output on from this thread, charged
    ///   to the query budget.
    ///
    /// Every operator checks the cancel token before it runs, so a
    /// cancelled or timed-out query unwinds at the next operator even when
    /// its expressions are trivial; the wall time already spent stays in
    /// the enclosing operators' timers.
    pub(super) fn map_chunks<T: Send>(
        &self,
        ctx: &EvalContext,
        m: &PlanMetrics,
        consume: &Consume<T>,
    ) -> Result<Vec<T>> {
        ctx.cancel.check()?;
        let gather_one = |input: &PhysicalPlan, i: usize| {
            gather(&[input], &m.children[i..], &input.schema(), ctx, &m.op)
        };
        let started = Instant::now();
        let out = match self {
            PhysicalPlan::Scan {
                source,
                predicate,
                policy,
            } => return scan::map_scan(source, predicate.as_ref(), policy, ctx, &m.op, consume),
            PhysicalPlan::Filter {
                input,
                predicate,
                policy,
            } => {
                return compose(input, ctx, m, consume, |chunk, nested| {
                    chunk.filter(&filter_mask(predicate, &chunk, policy, ctx, &m.op, nested)?)
                })
            }
            PhysicalPlan::Project {
                input,
                exprs,
                schema,
                policy,
            } => {
                let project = |b: &RecordBatch| {
                    let cols = exprs.iter().map(|e| e.eval(b, ctx));
                    RecordBatch::new(schema.clone(), cols.collect::<Result<_>>()?)
                };
                let concat = |parts: Vec<RecordBatch>| RecordBatch::concat(schema.clone(), &parts);
                return compose(input, ctx, m, consume, |chunk, nested| match nested {
                    true => project(&chunk),
                    false => parallel::over_morsels(&chunk, policy, &m.op, false, project, concat),
                });
            }
            PhysicalPlan::Values { schema, rows } => {
                m.op
                    .rows_in
                    .fetch_add(rows.len() as u64, AtomicOrdering::Relaxed);
                let empty = RecordBatch::empty(Arc::new(Schema::default()));
                let out_rows = rows.iter().map(|row| {
                    row.iter()
                        .map(|e| e.eval_row(&empty, 0, ctx))
                        .collect::<Result<Vec<Value>>>()
                });
                RecordBatch::from_rows(schema.clone(), &out_rows.collect::<Result<Vec<_>>>()?)
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
            } => join::execute_hash_join(
                &gather_one(left, 0)?,
                &gather_one(right, 1)?,
                left_keys,
                right_keys,
                *join_type,
                filter,
                schema,
                policy,
                ctx,
                &m.op,
            ),
            PhysicalPlan::NestedLoopJoin {
                left,
                right,
                join_type,
                filter,
                schema,
            } => join::execute_nested_loop_join(
                &gather_one(left, 0)?,
                &gather_one(right, 1)?,
                *join_type,
                filter,
                schema,
                ctx,
            ),
            PhysicalPlan::Sort {
                input,
                keys,
                policy,
                fetch,
            } => sort::execute_sort(&gather_one(input, 0)?, keys, policy, *fetch, ctx, &m.op),
            PhysicalPlan::Limit {
                input,
                limit,
                offset,
            } => {
                let batch = gather_one(input, 0)?;
                let start = (*offset as usize).min(batch.num_rows());
                let len = limit
                    .map(|l| l as usize)
                    .unwrap_or(batch.num_rows() - start);
                Ok(batch.slice(start, len))
            }
            PhysicalPlan::Union { inputs, schema } => {
                let inputs: Vec<&PhysicalPlan> = inputs.iter().collect();
                gather(&inputs, &m.children, schema, ctx, &m.op)
            }
            PhysicalPlan::Distinct { input } => {
                // The first row of each group of whole rows, in row order.
                let batch = gather_one(input, 0)?;
                let groups = agg::group_ids(batch.columns(), batch.num_rows(), &ctx.cancel)?;
                batch.take(&groups.firsts)
            }
        }?;
        m.op
            .wall_ns
            .fetch_add(started.elapsed().as_nanos() as u64, AtomicOrdering::Relaxed);
        emit(&out, &m.op, ctx)?;
        Ok(consume(out, false)?.into_iter().collect())
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
                let detail = match bound {
                    Some(b) => scan::scan_detail(b, predicate.as_ref(), &policy.for_rows(b.rows())),
                    None => scan::scan_detail(source, predicate.as_ref(), policy),
                };
                ("Scan".to_string(), detail)
            }
            PhysicalPlan::Values { rows, .. } => {
                ("Values".to_string(), format!("rows={}", rows.len()))
            }
            PhysicalPlan::Filter { policy, .. } => (
                "Filter".to_string(),
                policy_detail_opt(policy).unwrap_or_default(),
            ),
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

/// The one gather: the chunks of `inputs` (metered by `metrics`, in
/// order) kept whole and concatenated once into one batch of `schema`,
/// their rows counted as the input of the operator metered by `op`.
pub(super) fn gather(
    inputs: &[&PhysicalPlan],
    metrics: &[PlanMetrics],
    schema: &Arc<Schema>,
    ctx: &EvalContext,
    op: &OpMetrics,
) -> Result<RecordBatch> {
    let mut chunks = Vec::new();
    for (input, m) in inputs.iter().zip(metrics) {
        chunks.extend(input.map_chunks(ctx, m, &|chunk, _| Ok(Some(chunk)))?);
    }
    let rows: usize = chunks.iter().map(RecordBatch::num_rows).sum();
    op.rows_in.fetch_add(rows as u64, AtomicOrdering::Relaxed);
    concat_chunks(schema, chunks)
}

/// Run a filter or a projection over each chunk of `input`'s map, in the
/// task that made the chunk: `step` turns the chunk into this operator's
/// output, and a non-empty output goes on to `consume` in the same task.
/// Metered by the scan's rule: of the map's wall time, the input keeps
/// what its own map recorded, and the rest splits between this operator
/// and its consumer by the time each spent in the tasks.
fn compose<T: Send>(
    input: &PhysicalPlan,
    ctx: &EvalContext,
    m: &PlanMetrics,
    consume: &Consume<T>,
    step: impl Fn(RecordBatch, bool) -> Result<RecordBatch> + Sync,
) -> Result<Vec<T>> {
    let (op, below) = (&m.op, &m.children[0]);
    let (own_ns, handed_ns) = (AtomicU64::new(0), AtomicU64::new(0));
    let before = below.op.wall_ns.load(AtomicOrdering::Relaxed);
    let started = Instant::now();
    let outputs = input.map_chunks(ctx, below, &|chunk, nested| {
        let begun = Instant::now();
        op.rows_in
            .fetch_add(chunk.num_rows() as u64, AtomicOrdering::Relaxed);
        let out = step(chunk, nested)?;
        let empty = out.num_rows() == 0;
        if !empty {
            emit(&out, op, ctx)?;
        }
        let handed = Instant::now();
        own_ns.fetch_add((handed - begun).as_nanos() as u64, AtomicOrdering::Relaxed);
        if empty {
            return Ok(None);
        }
        let kept = consume(out, nested);
        handed_ns.fetch_add(handed.elapsed().as_nanos() as u64, AtomicOrdering::Relaxed);
        kept
    })?;
    let wall = started.elapsed().as_nanos() as u64;
    let input_ns = (below.op.wall_ns.load(AtomicOrdering::Relaxed)).saturating_sub(before);
    let rest = wall.saturating_sub(input_ns);
    let own = share(rest, own_ns.into_inner(), handed_ns.into_inner());
    op.wall_ns.fetch_add(input_ns + own, AtomicOrdering::Relaxed);
    Ok(outputs)
}

/// `own`'s part of `wall` where `own` and `other` nanoseconds of work
/// shared it: all of it when neither worked.
fn share(wall: u64, own: u64, other: u64) -> u64 {
    match own + other {
        0 => wall,
        busy => (wall as u128 * own as u128 / busy as u128) as u64,
    }
}

/// Count `out` as one output batch of the operator metered by `op`, and
/// charge it against the query's row/memory budget (bytes approximated
/// column-major at 8 per cell, the width of the numeric fast paths).
fn emit(out: &RecordBatch, op: &OpMetrics, ctx: &EvalContext) -> Result<()> {
    let n = out.num_rows();
    op.batches.fetch_add(1, AtomicOrdering::Relaxed);
    op.rows_out.fetch_add(n as u64, AtomicOrdering::Relaxed);
    ctx.budget.charge(n as u64, (n * out.num_columns() * 8) as u64)
}

/// A predicate's selection mask over `batch`: in one pass when `nested`
/// (the batch is one task of a fanned-out chunk map, and masks are
/// row-local), else per morsel when the policy fans out over it
/// ([`parallel::over_morsels`]).
fn filter_mask(
    predicate: &PhysExpr,
    batch: &RecordBatch,
    policy: &ParallelPolicy,
    ctx: &EvalContext,
    op: &OpMetrics,
    nested: bool,
) -> Result<Vec<bool>> {
    let mask = |m: &RecordBatch| predicate.eval_mask(m, ctx);
    match nested {
        true => mask(batch),
        false => parallel::over_morsels(batch, policy, op, false, mask, |masks| Ok(masks.concat())),
    }
}

/// `degree=N` when the operator may fan out, empty when planned serial.
fn policy_detail_opt(policy: &ParallelPolicy) -> Option<String> {
    (policy.degree > 1).then(|| format!("degree={}", policy.degree))
}
