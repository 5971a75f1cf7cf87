//! Stream tables and continuous queries.
//!
//! A *stream* is an append-only table plus a catalog extension object
//! (kind `"stream"`) that names its event-time column and late-arrival
//! allowance. A *continuous query* (kind `"cq"`) is a windowed aggregate
//! registered over a stream: the engine's scheduler feeds newly appended
//! events into incremental per-window aggregate state, closes windows as
//! the watermark (max event time minus lag) passes them, and emits each
//! closed window's rows into a queryable sink table — transactionally,
//! together with the query's durable progress cursor, so a crash replays
//! into exactly-once emission.
//!
//! Both object kinds ride the existing extension-object machinery: their
//! specs are stored as JSON metadata, WAL-logged through the
//! `CreateExtension`/`UpdateExtension` redo records, checkpointed, and
//! conflict-checked under `ext:<kind>:<name>` keys like any model.

use std::sync::Arc;

use crate::ast::{Expr, Query, SelectItem, TableRef, WindowSpec};
use crate::catalog::Catalog;
use crate::error::{Result, SqlError};
use crate::exec::PhysExpr;
use crate::udf::InferenceProvider;
use crate::plan::{plan_query, AggCall, LogicalPlan, PlanContext};
use crate::schema::{ColumnDef, Schema};
use crate::types::DataType;

/// Extension-object kind for stream tables.
pub const STREAM_KIND: &str = "stream";
/// Extension-object kind for continuous queries.
pub const CQ_KIND: &str = "cq";

/// Durable description of a stream (the backing table holds the data).
#[derive(Debug, Clone, PartialEq)]
pub struct StreamSpec {
    /// Event-time column name (must be an INT column, milliseconds).
    pub event_time: String,
    /// Late-arrival allowance: watermark = max(event_time) - lag_ms.
    pub lag_ms: i64,
}

impl StreamSpec {
    pub fn to_metadata(&self) -> flock_json::Value {
        let mut m = flock_json::Map::new();
        m.insert(
            "event_time".to_string(),
            flock_json::Value::String(self.event_time.clone()),
        );
        m.insert("lag_ms".to_string(), flock_json::Value::from(self.lag_ms));
        flock_json::Value::Object(m)
    }

    pub fn from_metadata(v: &flock_json::Value) -> Result<StreamSpec> {
        let event_time = v
            .get("event_time")
            .and_then(|x| x.as_str())
            .ok_or_else(|| SqlError::Catalog("stream metadata missing event_time".into()))?
            .to_string();
        let lag_ms = v
            .get("lag_ms")
            .and_then(|x| x.as_i64())
            .ok_or_else(|| SqlError::Catalog("stream metadata missing lag_ms".into()))?;
        Ok(StreamSpec { event_time, lag_ms })
    }
}

/// Durable description of a continuous query. Everything but
/// `next_emit_ms` is fixed at CREATE time; the cursor advances
/// transactionally with each emission.
#[derive(Debug, Clone, PartialEq)]
pub struct CqSpec {
    pub stream: String,
    pub window: WindowSpec,
    pub sink: String,
    /// The windowed aggregate, stored as re-parseable SQL text.
    pub query_sql: String,
    /// Optional breach predicate over the sink row (SQL expression text).
    pub when_sql: Option<String>,
    /// Model put on hold when the breach predicate fires.
    pub hold_model: Option<String>,
    /// Model retrained (its recorded training statement re-run) when the
    /// breach predicate fires.
    pub retrain_model: Option<String>,
    /// First window start not yet emitted (`None` = nothing emitted).
    /// Windows below this are suppressed during post-crash replay.
    pub next_emit_ms: Option<i64>,
}

impl CqSpec {
    pub fn to_metadata(&self) -> flock_json::Value {
        let mut m = flock_json::Map::new();
        m.insert(
            "stream".to_string(),
            flock_json::Value::String(self.stream.clone()),
        );
        m.insert(
            "size_ms".to_string(),
            flock_json::Value::from(self.window.size_ms),
        );
        m.insert(
            "slide_ms".to_string(),
            flock_json::Value::from(self.window.slide_ms),
        );
        m.insert(
            "sink".to_string(),
            flock_json::Value::String(self.sink.clone()),
        );
        m.insert(
            "query_sql".to_string(),
            flock_json::Value::String(self.query_sql.clone()),
        );
        if let Some(w) = &self.when_sql {
            m.insert("when_sql".to_string(), flock_json::Value::String(w.clone()));
        }
        if let Some(h) = &self.hold_model {
            m.insert(
                "hold_model".to_string(),
                flock_json::Value::String(h.clone()),
            );
        }
        if let Some(r) = &self.retrain_model {
            m.insert(
                "retrain_model".to_string(),
                flock_json::Value::String(r.clone()),
            );
        }
        if let Some(n) = self.next_emit_ms {
            m.insert("next_emit_ms".to_string(), flock_json::Value::from(n));
        }
        flock_json::Value::Object(m)
    }

    pub fn from_metadata(v: &flock_json::Value) -> Result<CqSpec> {
        let s = |k: &str| -> Result<String> {
            v.get(k)
                .and_then(|x| x.as_str())
                .map(str::to_string)
                .ok_or_else(|| SqlError::Catalog(format!("cq metadata missing {k}")))
        };
        let i = |k: &str| -> Result<i64> {
            v.get(k)
                .and_then(|x| x.as_i64())
                .ok_or_else(|| SqlError::Catalog(format!("cq metadata missing {k}")))
        };
        Ok(CqSpec {
            stream: s("stream")?,
            window: WindowSpec {
                size_ms: i("size_ms")?,
                slide_ms: i("slide_ms")?,
            },
            sink: s("sink")?,
            query_sql: s("query_sql")?,
            when_sql: v.get("when_sql").and_then(|x| x.as_str()).map(str::to_string),
            hold_model: v
                .get("hold_model")
                .and_then(|x| x.as_str())
                .map(str::to_string),
            retrain_model: v
                .get("retrain_model")
                .and_then(|x| x.as_str())
                .map(str::to_string),
            next_emit_ms: v.get("next_emit_ms").and_then(|x| x.as_i64()),
        })
    }
}

/// Validate a window spec at CREATE time: positive sizes, slide no larger
/// than size, and size a multiple of slide (keeps window starts aligned
/// and the emission cursor arithmetic exact).
pub fn validate_window(w: &WindowSpec) -> Result<()> {
    if w.size_ms <= 0 || w.slide_ms <= 0 {
        return Err(SqlError::Plan(
            "window size and slide must be positive".into(),
        ));
    }
    if w.slide_ms > w.size_ms {
        return Err(SqlError::Plan(
            "window slide must not exceed window size".into(),
        ));
    }
    if w.size_ms % w.slide_ms != 0 {
        return Err(SqlError::Plan(
            "window size must be a multiple of the slide".into(),
        ));
    }
    Ok(())
}

/// Shape-check the CQ's SELECT at CREATE time: a single-table aggregate
/// over the stream, with none of the features the incremental runtime
/// cannot reproduce bit-equal to the batch plan (set ops, ORDER BY/LIMIT,
/// DISTINCT projection, joins, subqueries).
pub fn validate_cq_query(q: &Query, stream: &str) -> Result<()> {
    if !q.unions.is_empty() {
        return Err(SqlError::Plan("continuous query cannot use UNION".into()));
    }
    if !q.order_by.is_empty() || q.limit.is_some() || q.offset.is_some() {
        return Err(SqlError::Plan(
            "continuous query cannot use ORDER BY / LIMIT / OFFSET".into(),
        ));
    }
    if q.select.distinct {
        return Err(SqlError::Plan(
            "continuous query cannot use SELECT DISTINCT".into(),
        ));
    }
    if q.select.from.len() != 1 {
        return Err(SqlError::Plan(
            "continuous query must read exactly one stream".into(),
        ));
    }
    match &q.select.from[0] {
        TableRef::Table { name, version, .. } => {
            if !name.eq_ignore_ascii_case(stream) {
                return Err(SqlError::Plan(format!(
                    "continuous query must read stream '{stream}', found '{name}'"
                )));
            }
            if version.is_some() {
                return Err(SqlError::Plan(
                    "continuous query cannot pin a stream VERSION".into(),
                ));
            }
        }
        _ => {
            return Err(SqlError::Plan(
                "continuous query FROM must be the stream itself".into(),
            ))
        }
    }
    if q.select.group_by.is_empty() {
        // A global aggregate (no GROUP BY) is fine; but a bare projection
        // with no aggregate at all is not a windowed aggregate.
    }
    let wildcard = |item: &SelectItem| !matches!(item, SelectItem::Expr { .. });
    if q.select.projection.iter().any(wildcard) {
        return Err(SqlError::Plan(
            "continuous query projection cannot use '*'".into(),
        ));
    }
    if q.has_subqueries() {
        return Err(SqlError::Plan(
            "continuous query cannot contain subqueries".into(),
        ));
    }
    Ok(())
}

/// A continuous query compiled against the current catalog and provider:
/// physical expressions for every stage of the per-window pipeline.
/// Recompiled whenever the engine's options epoch moves (the provider or
/// exec options changed under it).
pub struct CompiledCq {
    /// Index of the event-time column in the stream schema.
    pub et_index: usize,
    /// WHERE predicate over stream rows (applied before windowing).
    pub where_pred: Option<PhysExpr>,
    /// Group-by expressions over stream rows.
    pub group_exprs: Vec<PhysExpr>,
    /// Aggregate argument expressions over stream rows (None = COUNT(*)).
    pub agg_args: Vec<Option<PhysExpr>>,
    /// Aggregate calls, positionally matching `agg_args`.
    pub agg_calls: Vec<AggCall>,
    /// Schema of the aggregate output (#g0.. group cols, #a0.. agg cols).
    pub agg_schema: Arc<Schema>,
    /// HAVING predicate over the aggregate output.
    pub having: Option<PhysExpr>,
    /// Projection expressions over the aggregate output. PREDICT calls
    /// here score each closed window in one provider call.
    pub proj_exprs: Vec<PhysExpr>,
    /// Schema of the projection (the sink columns after window_start).
    pub proj_schema: Arc<Schema>,
    /// Models referenced by PREDICT calls in the projection.
    pub predict_models: Vec<String>,
    /// Breach predicate compiled against the sink schema.
    pub when_pred: Option<PhysExpr>,
    /// Sink table schema: window_start INT, then the projection columns.
    pub sink_schema: Schema,
}

/// Compile a continuous query's stored SQL against a catalog snapshot.
/// PREDICT calls keep their `Auto` strategy: each closed window is scored
/// in one call to the provider's compiled kernel.
pub fn compile_cq(spec: &CqSpec, catalog: &Catalog, provider: &dyn InferenceProvider) -> Result<CompiledCq> {
    let query = crate::parser::parse_statement(&spec.query_sql).and_then(|s| match s {
        crate::ast::Statement::Query(q) => Ok(q),
        _ => Err(SqlError::Plan("stored continuous query is not a SELECT".into())),
    })?;
    validate_cq_query(&query, &spec.stream)?;
    let ctx = PlanContext::new(catalog, provider);
    let plan = plan_query(&query, &ctx)?;

    // Canonical aggregate shape straight from the planner (never
    // optimized, so the structure is stable):
    // Project(Filter[having]?(Aggregate(Filter[where]?(Scan))))
    let (proj_exprs_ast, proj_schema, rest) = match plan {
        LogicalPlan::Project {
            input,
            exprs,
            schema,
        } => (exprs, schema, *input),
        _ => {
            return Err(SqlError::Plan(
                "continuous query must project its aggregate".into(),
            ))
        }
    };
    let (having_ast, rest) = match rest {
        LogicalPlan::Filter { input, predicate } => (Some(predicate), *input),
        other => (None, other),
    };
    let (group_ast, agg_calls, agg_schema, rest) = match rest {
        LogicalPlan::Aggregate {
            input,
            group,
            aggs,
            schema,
        } => (group, aggs, schema, *input),
        _ => {
            return Err(SqlError::Plan(
                "continuous query must contain an aggregate (GROUP BY or \
                 aggregate functions)"
                    .into(),
            ))
        }
    };
    let (where_ast, scan) = match rest {
        LogicalPlan::Filter { input, predicate } => (Some(predicate), *input),
        other => (None, other),
    };
    let stream_schema = match scan {
        LogicalPlan::Scan { schema, .. } => schema,
        _ => {
            return Err(SqlError::Plan(
                "continuous query must aggregate directly over the stream".into(),
            ))
        }
    };

    let stream_spec = StreamSpec::from_metadata(
        &catalog
            .extension(STREAM_KIND, &spec.stream)?
            .current()
            .metadata,
    )?;
    let et_index = stream_schema
        .index_of(&stream_spec.event_time)
        .ok_or_else(|| {
            SqlError::Plan(format!(
                "stream '{}' lost its event-time column '{}'",
                spec.stream, stream_spec.event_time
            ))
        })?;

    // Remember the models the projection scores through.
    let mut predict_models = Vec::new();
    for e in &proj_exprs_ast {
        e.walk(&mut |x| {
            if let Expr::Predict { model, .. } = x {
                predict_models.push(model.clone());
            }
        });
    }

    let where_pred = where_ast
        .map(|e| PhysExpr::compile(&e, &stream_schema, provider))
        .transpose()?;
    let group_exprs = group_ast
        .iter()
        .map(|e| PhysExpr::compile(e, &stream_schema, provider))
        .collect::<Result<Vec<_>>>()?;
    let agg_args = agg_calls
        .iter()
        .map(|a| {
            a.arg
                .as_ref()
                .map(|e| PhysExpr::compile(e, &stream_schema, provider))
                .transpose()
        })
        .collect::<Result<Vec<_>>>()?;
    let having = having_ast
        .map(|e| PhysExpr::compile(&e, &agg_schema, provider))
        .transpose()?;
    let proj_exprs = proj_exprs_ast
        .iter()
        .map(|e| PhysExpr::compile(e, &agg_schema, provider))
        .collect::<Result<Vec<_>>>()?;

    let mut sink_cols = vec![ColumnDef::new("window_start", DataType::Int)];
    sink_cols.extend(proj_schema.columns().iter().cloned());
    let sink_schema = Schema::new(sink_cols);

    let when_pred = spec
        .when_sql
        .as_deref()
        .map(|w| {
            let e = crate::parser::parse_expr(w)?;
            PhysExpr::compile(&e, &sink_schema, provider)
        })
        .transpose()?;

    Ok(CompiledCq {
        et_index,
        where_pred,
        group_exprs,
        agg_args,
        agg_calls,
        agg_schema,
        having,
        proj_exprs,
        proj_schema,
        predict_models,
        when_pred,
        sink_schema,
    })
}
