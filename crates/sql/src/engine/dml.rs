//! DML handlers: INSERT / UPDATE / DELETE, the single append primitive,
//! and version-history maintenance.

use super::models::lineage_pinned_versions;
use super::session::StmtCtx;
use super::txn::Txn;
use super::{query, QueryResult, StatementKind};
use crate::ast::{Expr, InsertSource};
use crate::batch::RecordBatch;
use crate::catalog::{Catalog, ObjectRef, Privilege};
use crate::column::ColumnVector;
use crate::error::{Result, SqlError};
use crate::exec::{EvalContext, PhysExpr};
use crate::schema::Schema;
use crate::stream::STREAM_KIND;
use crate::types::Value;
use crate::wal::RedoOp;
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
    EvalContext::new(ctx.provider.clone(), txn.user.clone(), 1).with_cancel(ctx.cancel.clone())
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
                    let folded = crate::optimizer::fold_expr(e)?;
                    let compiled =
                        PhysExpr::compile(&folded, &Schema::default(), ctx.provider.as_ref())?;
                    vals.push(compiled.eval_row(&empty, 0, &eval_ctx)?);
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
    for row in &incoming {
        for (ci, col) in delta_cols.iter_mut().enumerate() {
            let val = positions
                .iter()
                .position(|&p| p == ci)
                .map(|slot| row[slot].clone())
                .unwrap_or(Value::Null);
            col.push(val)?;
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
    let mut cols = table.current().data.columns().to_vec();
    for (dst, src) in cols.iter_mut().zip(delta.columns()) {
        dst.append(src)?;
    }
    let rows = delta.num_rows();
    let delta = RecordBatch::new(schema.clone(), delta.columns().to_vec())?;
    let grown = RecordBatch::new(schema, cols)?;
    let version = install_table_version(txn, table_name, grown, Some(delta))?;
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
    let table = txn.catalog().table(table_name)?;
    let schema = table.schema().clone();
    let data = table.current().scan(txn.catalog().part_store()).collect()?;
    let provider = ctx.provider.as_ref();
    let eval_ctx = row_ctx(txn, ctx);

    let pred = selection
        .map(|p| PhysExpr::compile(p, &schema, provider))
        .transpose()?;
    let compiled: Vec<(usize, PhysExpr)> = assignments
        .iter()
        .map(|(col, e)| {
            let idx = schema
                .index_of(col)
                .ok_or_else(|| SqlError::Plan(format!("unknown column '{col}'")))?;
            Ok((idx, PhysExpr::compile(e, &schema, provider)?))
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
    let version = install_table_version(txn, table_name, new_batch, None)?;
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
    let table = txn.catalog().table(table_name)?;
    let data = table.current().scan(txn.catalog().part_store()).collect()?;
    // keep = not selected
    let mask: Vec<bool> = match selection {
        Some(p) => PhysExpr::compile(p, table.schema(), ctx.provider.as_ref())?
            .eval_mask(&data, &row_ctx(txn, ctx))?
            .into_iter()
            .map(|hit| !hit)
            .collect(),
        None => vec![false; data.num_rows()],
    };
    let deleted = mask.iter().filter(|k| !**k).count();
    let new_batch = data.filter(&mask)?;
    let version = install_table_version(txn, table_name, new_batch, None)?;
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

/// Install a new table version. When the new version is the old one plus
/// appended rows, callers pass the appended rows as `delta` so the WAL
/// logs O(rows added) instead of a full snapshot; other writes log the
/// whole new snapshot.
fn install_table_version(
    txn: &mut Txn,
    name: &str,
    batch: RecordBatch,
    delta: Option<RecordBatch>,
) -> Result<u64> {
    txn.write_table(name, false, |catalog, txn_id| {
        let table = catalog.table_mut(name)?;
        let (table_name, next) = (table.name().to_string(), table.current_version() + 1);
        let (version, op) = match delta {
            // Appends carry the disk-part prefix forward (the batch is the
            // grown resident tail); full rewrites install fully resident.
            Some(rows) => {
                let carried = table.current().parts.clone();
                let version = table.push_version_with_parts(carried, batch, txn_id)?;
                let op = RedoOp::AppendRows {
                    table: table_name,
                    version: next,
                    txn_id,
                    rows,
                };
                (version, op)
            }
            None => {
                let op = RedoOp::PushVersion {
                    table: table_name,
                    version: next,
                    txn_id,
                    data: batch.clone(),
                };
                (table.push_version(batch, txn_id)?, op)
            }
        };
        Ok((version, Some(op)))
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
