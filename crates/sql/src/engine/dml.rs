//! DML handlers: INSERT / UPDATE / DELETE, the single append primitive,
//! and version-history maintenance.
//!
//! An INSERT costs the rows it adds. A literal or `?` `VALUES` cell is
//! pushed into the delta's typed column as it is (with the column cast);
//! any other expression is folded, compiled and evaluated. The append shares
//! the table's parts and resident chunks and merges its stats with the
//! delta's ([`Table::push_append`]), and the WAL logs only the delta.
//! UPDATE and DELETE rewrite only the parts and chunks holding a row they
//! change and log a row delta.
//!
//! [`Table::push_append`]: crate::table::Table::push_append

use super::models::lineage_pinned_versions;
use super::session::StmtCtx;
use super::txn::Txn;
use super::{query, QueryResult, StatementKind};
use crate::ast::{Expr, InsertSource};
use crate::batch::RecordBatch;
use crate::catalog::{Catalog, ObjectRef, Privilege};
use crate::column::ColumnVector;
use crate::error::{Result, SqlError};
use crate::exec::{resolve_zones, zone_terms, EvalContext, PhysExpr};
use crate::parts::{Part, PartMeta};
use crate::plan::{rewrite_expr, typed_parameter};
use crate::schema::Schema;
use crate::stream::STREAM_KIND;
use crate::table::{concat_chunks, edit_chunk, ColBounds, Tail};
use crate::types::Value;
use crate::wal::{RedoOp, RowRuns};
use std::sync::Arc;

/// Streams are append-only: INSERT is the only mutation they accept.
pub(super) fn reject_stream_write(catalog: &Catalog, name: &str, op: &str) -> Result<()> {
    if catalog.has_extension(STREAM_KIND, name) {
        return Err(SqlError::Constraint(format!(
            "stream '{name}' is append-only; {op} is not allowed"
        )));
    }
    Ok(())
}

/// Row-at-a-time evaluation context for DML expressions.
fn row_ctx(txn: &Txn, ctx: &StmtCtx) -> EvalContext {
    EvalContext::new(ctx.provider.clone(), txn.user.clone(), 1)
        .with_cancel(ctx.cancel.clone())
        .with_params(ctx.params.clone())
}

/// `e` compiled over `schema`, each `?` typed by its bound value as the
/// planner types a query's.
fn compile(e: &Expr, schema: &Schema, ctx: &StmtCtx) -> Result<PhysExpr> {
    let typed = rewrite_expr(e.clone(), &mut |x| match x {
        Expr::Parameter(i) => Ok(typed_parameter(i, &ctx.params)),
        x => Ok(x),
    })?;
    PhysExpr::compile(&typed, schema, ctx.provider.as_ref())
}

pub(super) fn insert(
    txn: &mut Txn,
    ctx: &StmtCtx,
    table_name: &str,
    columns: Option<&[String]>,
    source: InsertSource,
) -> Result<QueryResult> {
    // Checked before the source runs (append_rows checks again: it is the
    // one place every append passes).
    txn.check_access(&ObjectRef::table(table_name), Privilege::Insert)?;
    let schema = txn.catalog().table(table_name)?.schema().clone();

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
            let empty = RecordBatch::empty(Arc::new(Schema::default()));
            let eval_ctx = row_ctx(txn, ctx);
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
                    // A literal (the parser folds a sign into its number)
                    // or a bound value goes to the typed column as it is.
                    vals.push(match e {
                        Expr::Literal(v) => v,
                        Expr::Parameter(i) => eval_ctx.param(i)?.clone(),
                        e => {
                            let folded = crate::optimizer::fold_expr(e)?;
                            let compiled = PhysExpr::compile(
                                &folded,
                                &Schema::default(),
                                ctx.provider.as_ref(),
                            )?;
                            compiled.eval_row(&empty, 0, &eval_ctx)?
                        }
                    });
                }
                out.push(vals);
            }
            out
        }
        InsertSource::Query(q) => {
            let batch = query::run_query(txn, ctx, &q)?.batch.ok_or_else(|| {
                SqlError::Execution("INSERT source query returned no batch".into())
            })?;
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
    // this delta); unlisted columns are NULL.
    let n_inserted = incoming.len();
    let mut delta_cols: Vec<ColumnVector> = schema
        .columns()
        .iter()
        .map(|c| ColumnVector::with_capacity(c.data_type, n_inserted))
        .collect();
    let slots: Vec<Option<usize>> = (0..schema.len())
        .map(|ci| positions.iter().position(|&p| p == ci))
        .collect();
    for mut row in incoming {
        for (col, slot) in delta_cols.iter_mut().zip(&slots) {
            col.push(slot.map_or(Value::Null, |s| std::mem::replace(&mut row[s], Value::Null)))?;
        }
    }
    let delta = RecordBatch::new(schema, delta_cols)?;
    append_rows(txn, table_name, delta, Some(ctx.sql))?;
    Ok(QueryResult::affected(
        n_inserted,
        format!("{n_inserted} row(s) inserted"),
    ))
}

/// The single append primitive — `INSERT`, [`super::Session::append_batch`]
/// and continuous-query sinks all end here: access check, type and NOT
/// NULL validation against the table, grow-and-install (the WAL logs only
/// `delta`), query-log and audit rows, and stream history trimming.
/// `statement` is the INSERT text, `None` for a programmatic bulk append.
/// Returns the new table version.
pub(super) fn append_rows(
    txn: &mut Txn,
    table_name: &str,
    delta: RecordBatch,
    statement: Option<&str>,
) -> Result<u64> {
    txn.check_access(&ObjectRef::table(table_name), Privilege::Insert)?;
    let table = txn.catalog().table(table_name)?;
    let schema = table.schema().clone();
    if delta.num_columns() != schema.len() {
        return Err(SqlError::Constraint(format!(
            "batch has {} columns, table '{}' has {}",
            delta.num_columns(),
            table_name,
            schema.len()
        )));
    }
    for (i, col) in delta.columns().iter().enumerate() {
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
    let rows = delta.num_rows();
    let delta = RecordBatch::new(schema, delta.columns().to_vec())?;
    // Every part and chunk carries forward and the delta becomes one more
    // chunk; the WAL logs just the appended rows.
    let version = txn.write_table(table_name, false, |catalog, txn_id| {
        let table = catalog.table_mut(table_name)?;
        let version = table.push_append(delta.clone(), txn_id)?;
        let op = RedoOp::AppendRows {
            table: table.name().to_string(),
            version,
            txn_id,
            rows: delta,
        };
        Ok((version, Some(op)))
    })?;
    let (sql, action) = match statement {
        Some(sql) => (sql.to_string(), "INSERT"),
        None => (
            format!("BULK INSERT INTO {table_name} ({rows} rows)"),
            "BULK INSERT",
        ),
    };
    txn.log(
        &sql,
        StatementKind::Insert,
        vec![],
        vec![table_name.to_string()],
        vec![(table_name.to_string(), version)],
    );
    txn.audit(action, table_name, &format!("{rows} row(s)"));
    if txn.catalog().has_extension(STREAM_KIND, table_name) {
        // Streams forgo time travel: keep only the newest version so the
        // append-only log doesn't accrete per-append snapshot history.
        truncate_history(txn, table_name, 1, &[], false)?;
    }
    Ok(version)
}

pub(super) fn update(
    txn: &mut Txn,
    ctx: &StmtCtx,
    table_name: &str,
    assignments: &[(String, Expr)],
    selection: Option<&Expr>,
) -> Result<QueryResult> {
    reject_stream_write(txn.catalog(), table_name, "UPDATE")?;
    txn.check_access(&ObjectRef::table(table_name), Privilege::Update)?;
    let schema = txn.catalog().table(table_name)?.schema().clone();
    let compiled: Vec<(usize, PhysExpr)> = assignments
        .iter()
        .map(|(col, e)| {
            let idx = schema
                .index_of(col)
                .ok_or_else(|| SqlError::Plan(format!("unknown column '{col}'")))?;
            Ok((idx, compile(e, &schema, ctx)?))
        })
        .collect::<Result<_>>()?;

    // Every assignment reads the old row; a later one to the same column
    // wins. Values are cast to the column type as INSERT casts them.
    let eval_ctx = row_ctx(txn, ctx);
    let mut assign = |old: &RecordBatch| -> Result<RecordBatch> {
        let mut columns = old.columns().to_vec();
        for (idx, e) in &compiled {
            let target = schema.column(*idx);
            let new = e.eval(old, &eval_ctx)?;
            if !target.nullable && new.null_count() > 0 {
                return Err(SqlError::Constraint(format!(
                    "column '{}' is NOT NULL",
                    target.name
                )));
            }
            columns[*idx] = if new.data_type() == target.data_type {
                new
            } else {
                ColumnVector::from_values(target.data_type, &new.iter().collect::<Vec<_>>())?
            };
        }
        RecordBatch::new(old.schema().clone(), columns)
    };
    let rw = rewrite(txn, ctx, table_name, selection, Some(&mut assign))?;
    let updated = rw.at.len();
    let rows = concat_chunks(&schema, rw.rows)?;
    let positions = RowRuns::from_positions(&rw.at);
    let version = install_version(
        txn,
        table_name,
        rw.parts,
        rw.tail,
        |table, version, txn_id| RedoOp::UpdateRows {
            table,
            version,
            txn_id,
            positions,
            rows,
        },
    )?;
    txn.log(
        ctx.sql,
        StatementKind::Update,
        vec![table_name.to_string()],
        vec![table_name.to_string()],
        vec![(table_name.to_string(), version)],
    );
    txn.audit("UPDATE", table_name, &format!("{updated} row(s)"));
    Ok(QueryResult::affected(
        updated,
        format!("{updated} row(s) updated"),
    ))
}

pub(super) fn delete(
    txn: &mut Txn,
    ctx: &StmtCtx,
    table_name: &str,
    selection: Option<&Expr>,
) -> Result<QueryResult> {
    reject_stream_write(txn.catalog(), table_name, "DELETE")?;
    txn.check_access(&ObjectRef::table(table_name), Privilege::Delete)?;
    let rw = rewrite(txn, ctx, table_name, selection, None)?;
    let deleted = rw.at.len();
    let positions = RowRuns::from_positions(&rw.at);
    let version = install_version(
        txn,
        table_name,
        rw.parts,
        rw.tail,
        |table, version, txn_id| RedoOp::DeleteRows {
            table,
            version,
            txn_id,
            positions,
        },
    )?;
    txn.log(
        ctx.sql,
        StatementKind::Delete,
        vec![table_name.to_string()],
        vec![table_name.to_string()],
        vec![(table_name.to_string(), version)],
    );
    txn.audit("DELETE", table_name, &format!("{deleted} row(s)"));
    Ok(QueryResult::affected(
        deleted,
        format!("{deleted} row(s) deleted"),
    ))
}

/// The rows of a table an UPDATE or DELETE selects, found a chunk at a
/// time. The WHERE clause is compiled over just the columns it reads, so a
/// part is matched on a projected decode, and its zone-map bounds skip
/// parts that cannot hold a match without reading them.
struct Matcher {
    pred: PhysExpr,
    /// Base-table columns the predicate reads — at least one, so that a
    /// projected chunk keeps its row count.
    columns: Vec<usize>,
    bounds: ColBounds,
}

impl Matcher {
    /// Parts are pruned by the bounds of the predicate's literals and of
    /// the values bound to its `?`s.
    fn compile(pred: &Expr, schema: &Schema, ctx: &StmtCtx) -> Result<Matcher> {
        let mut refs = Vec::new();
        pred.referenced_columns(&mut refs);
        let mut columns: Vec<usize> = refs
            .iter()
            .filter_map(|(_, n)| schema.index_of(n))
            .collect();
        columns.sort_unstable();
        columns.dedup();
        if columns.is_empty() {
            columns.push(0);
        }
        Ok(Matcher {
            pred: compile(pred, &schema.project(&columns), ctx)?,
            columns,
            bounds: resolve_zones(&zone_terms(pred, schema), Some(&ctx.params)),
        })
    }

    fn may_match(&self, part: &PartMeta) -> bool {
        part.may_match(self.bounds.iter().map(|(&c, &b)| (c, b)))
    }

    /// Positions in `chunk` (projected to `columns`) the predicate selects.
    fn hits(&self, chunk: &RecordBatch, ctx: &EvalContext) -> Result<Vec<usize>> {
        let mask = self.pred.eval_mask(chunk, ctx)?;
        Ok((0..mask.len()).filter(|&i| mask[i]).collect())
    }
}

/// An UPDATE's assignments: the selected old rows to their new rows.
type Assign<'a> = &'a mut dyn FnMut(&RecordBatch) -> Result<RecordBatch>;

/// What an UPDATE or DELETE makes of the version it read.
struct Rewrite {
    parts: Vec<Part>,
    tail: Tail,
    /// Logical positions of the selected rows in the version read.
    at: Vec<u64>,
    /// The new rows at those positions, chunk by chunk (UPDATE only).
    rows: Vec<RecordBatch>,
}

/// Read the current version of `table_name` a chunk at a time and edit
/// the rows `selection` picks: `assign` maps them to their new rows
/// (UPDATE), or, when `None`, they go (DELETE). A part or resident chunk
/// without a selected row is carried into the new version by reference; a
/// part with one is written as one new part in its place, or dropped
/// unread when a DELETE takes all of it; a chunk with one is edited in
/// memory. The new parts
/// live in the transaction's working catalog: its commit installs them,
/// its end otherwise drops them for the next checkpoint to delete.
fn rewrite(
    txn: &mut Txn,
    ctx: &StmtCtx,
    table_name: &str,
    selection: Option<&Expr>,
    mut assign: Option<Assign>,
) -> Result<Rewrite> {
    let table = txn.catalog().table(table_name)?;
    let (schema, cur) = (table.schema().clone(), table.current().clone());
    let store = txn.catalog().part_store().cloned();
    let matcher = selection
        .map(|p| Matcher::compile(p, &schema, ctx))
        .transpose()?;
    let eval_ctx = row_ctx(txn, ctx);
    let deleting = assign.is_none();
    // The positions the WHERE clause picks among a chunk's `n` rows;
    // `read` yields the chunk's predicate columns.
    let select = |n: usize, read: &dyn Fn(&[usize]) -> Result<RecordBatch>| match &matcher {
        Some(m) => m.hits(&read(&m.columns)?, &eval_ctx),
        None => Ok((0..n).collect()),
    };
    let mut edit = |chunk: &RecordBatch, at: &[usize], rows: &mut Vec<RecordBatch>| {
        let new_rows = match assign.as_mut() {
            Some(f) => Some(f(&chunk.take(at)?)?),
            None => None,
        };
        let edited = edit_chunk(chunk, at, new_rows.as_ref());
        rows.extend(new_rows);
        edited
    };

    let (mut parts, mut at, mut rows) = (Vec::new(), Vec::new(), Vec::new());
    let mut start = 0u64;
    for p in &cur.parts {
        let part_start = start;
        start += p.rows;
        if matcher.as_ref().is_some_and(|m| !m.may_match(p)) {
            parts.push(p.clone());
            continue;
        }
        let store = store.as_ref().ok_or_else(|| {
            SqlError::Io("table has disk parts but no part store is attached".into())
        })?;
        let read = |projection: Option<&[usize]>| -> Result<RecordBatch> {
            let raw = store.read_part_projected(p.id, projection)?;
            let schema = match projection {
                Some(columns) => Arc::new(schema.project(columns)),
                None => schema.clone(),
            };
            RecordBatch::new(schema, raw.columns().to_vec())
        };
        let part_hits = select(p.rows as usize, &|columns| read(Some(columns)))?;
        if part_hits.is_empty() {
            parts.push(p.clone());
            continue;
        }
        at.extend(part_hits.iter().map(|&i| part_start + i as u64));
        if deleting && part_hits.len() as u64 == p.rows {
            continue;
        }
        let edited = edit(&read(None)?, &part_hits, &mut rows)?;
        parts.push(store.write_part(&edited, p.level)?);
        store.note_rewritten(1);
    }
    let tail = cur.data.edit_chunks(|chunk, first| {
        let hits = select(chunk.num_rows(), &|columns| chunk.project(columns))?;
        if hits.is_empty() {
            return Ok(None);
        }
        at.extend(hits.iter().map(|&i| start + (first + i) as u64));
        edit(chunk, &hits, &mut rows).map(Some)
    })?;
    Ok(Rewrite {
        parts,
        tail,
        at,
        rows,
    })
}

/// Install the next version of `name` — `parts`, then the resident
/// `tail` — logged as the redo op `op` builds from the table name, the
/// new version number and the transaction id.
fn install_version(
    txn: &mut Txn,
    name: &str,
    parts: Vec<Part>,
    tail: Tail,
    op: impl FnOnce(String, u64, u64) -> RedoOp,
) -> Result<u64> {
    txn.write_table(name, false, |catalog, txn_id| {
        let table = catalog.table_mut(name)?;
        let version = table.push_version_with_parts(parts, tail, txn_id)?;
        Ok((version, Some(op(table.name().to_string(), version, txn_id))))
    })
}

/// Drop all but the newest `keep` versions of a table, sparing `pinned`
/// ones. Logged (and conflict-tracked) only when something was dropped.
fn truncate_history(
    txn: &mut Txn,
    name: &str,
    keep: usize,
    pinned: &[u64],
    ddl: bool,
) -> Result<Vec<u64>> {
    txn.write_table(name, ddl, |catalog, _| {
        let table = catalog.table_mut(name)?;
        let dropped = table.truncate_history_pinned(keep, pinned)?;
        let op = (!dropped.is_empty()).then(|| RedoOp::TruncateHistory {
            table: table.name().to_string(),
            keep: keep as u64,
        });
        Ok((dropped, op))
    })
}

/// [`super::Session::truncate_table_history`]: lineage-pinned versions
/// survive.
pub(super) fn truncate_table_history(txn: &mut Txn, name: &str, keep: usize) -> Result<Vec<u64>> {
    txn.check_access(&ObjectRef::table(name), Privilege::Drop)?;
    let pinned = lineage_pinned_versions(txn.catalog(), name);
    let dropped = truncate_history(txn, name, keep, &pinned, true)?;
    txn.audit(
        "TRUNCATE HISTORY",
        name,
        &format!("kept {keep}, dropped {} version(s)", dropped.len()),
    );
    Ok(dropped)
}
