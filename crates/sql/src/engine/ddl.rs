//! DDL handlers: tables, views, streams, continuous queries, users and
//! grants, and the catalog's discovery statements.

use super::dml::reject_stream_write;
use super::models::{create_extension, drop_extension};
use super::session::StmtCtx;
use super::txn::Txn;
use super::{QueryResult, StatementKind};
use crate::ast::{AlterAction, ColumnDecl, GrantObject};
use crate::batch::RecordBatch;
use crate::catalog::{ObjectRef, Privilege, ViewDef};
use crate::column::ColumnVector;
use crate::error::{Result, SqlError};
use crate::schema::{ColumnDef, Schema};
use crate::stream::{compile_cq, CqSpec, StreamSpec, CQ_KIND, STREAM_KIND};
use crate::table::Table;
use crate::types::{DataType, Value};
use crate::wal::RedoOp;
use std::sync::Arc;

fn schema_of(columns: &[ColumnDecl]) -> Schema {
    Schema::new(
        columns
            .iter()
            .map(|c| ColumnDef {
                name: c.name.clone(),
                data_type: c.data_type,
                nullable: c.nullable,
            })
            .collect(),
    )
}

/// Create a table from an already-built schema, granting the creator full
/// rights. Shared by `CREATE TABLE`, stream backing tables and
/// continuous-query sink tables.
fn create_table_with_schema(txn: &mut Txn, name: &str, schema: Schema) -> Result<()> {
    if txn.catalog().has_table(name) {
        return Err(SqlError::Catalog(format!("table '{name}' already exists")));
    }
    txn.write_table(name, true, |catalog, txn_id| {
        catalog.create_table(Table::new(name, schema.clone(), txn_id)?)?;
        let op = RedoOp::CreateTable {
            name: name.to_string(),
            schema,
            txn_id,
        };
        Ok(((), Some(op)))
    })?;
    let user = txn.user.clone();
    txn.access_mut()
        .grant(&user, ObjectRef::table(name), &Privilege::ALL);
    Ok(())
}

fn remove_table(txn: &mut Txn, name: &str) -> Result<()> {
    txn.write_table(name, true, |catalog, _| {
        catalog.drop_table(name)?;
        let op = RedoOp::DropTable {
            name: name.to_string(),
        };
        Ok(((), Some(op)))
    })
}

pub(super) fn create_table(
    txn: &mut Txn,
    ctx: &StmtCtx,
    name: &str,
    columns: &[ColumnDecl],
    if_not_exists: bool,
) -> Result<QueryResult> {
    if if_not_exists && txn.catalog().has_table(name) {
        return Ok(QueryResult::none(format!("table '{name}' already exists")));
    }
    create_table_with_schema(txn, name, schema_of(columns))?;
    txn.log(ctx.sql, StatementKind::Ddl, vec![], vec![name.to_string()], vec![]);
    txn.audit("CREATE TABLE", name, "");
    Ok(QueryResult::none(format!("table '{name}' created")))
}

pub(super) fn drop_table(
    txn: &mut Txn,
    ctx: &StmtCtx,
    name: &str,
    if_exists: bool,
) -> Result<QueryResult> {
    if txn.catalog().has_extension(STREAM_KIND, name) {
        return Err(SqlError::Constraint(format!(
            "'{name}' is a stream; use DROP STREAM {name}"
        )));
    }
    if !txn.catalog().has_table(name) {
        if if_exists {
            return Ok(QueryResult::none(format!("table '{name}' does not exist")));
        }
        return Err(SqlError::Catalog(format!("table '{name}' does not exist")));
    }
    txn.check_access(&ObjectRef::table(name), Privilege::Drop)?;
    remove_table(txn, name)?;
    txn.log(ctx.sql, StatementKind::Ddl, vec![], vec![name.to_string()], vec![]);
    txn.audit("DROP TABLE", name, "");
    Ok(QueryResult::none(format!("table '{name}' dropped")))
}

/// `CREATE VIEW name AS <query>`: the stored body is the statement's own
/// text from the first token of `<query>` on (`CREATE`, `VIEW`, name and
/// `AS` are one token each, however they are spaced or cased).
pub(super) fn create_view(txn: &mut Txn, ctx: &StmtCtx, name: &str) -> Result<QueryResult> {
    let (_, offsets) = crate::lexer::tokenize_spanned(ctx.sql)?;
    let start = offsets.get(4).copied().ok_or_else(|| {
        SqlError::Plan(format!("cannot locate the query of view '{name}' in its statement"))
    })?;
    let body = ctx.sql[start..].trim().trim_end_matches(';').trim_end().to_string();
    txn.write_view(name, |catalog, _| {
        catalog.create_view(ViewDef {
            name: name.to_string(),
            sql: body.clone(),
        })?;
        let op = RedoOp::CreateView {
            name: name.to_string(),
            sql: body,
        };
        Ok(((), Some(op)))
    })?;
    txn.audit("CREATE VIEW", name, "");
    Ok(QueryResult::none(format!("view '{name}' created")))
}

pub(super) fn drop_view(txn: &mut Txn, name: &str) -> Result<QueryResult> {
    txn.write_view(name, |catalog, _| {
        catalog.drop_view(name)?;
        let op = RedoOp::DropView {
            name: name.to_string(),
        };
        Ok(((), Some(op)))
    })?;
    txn.audit("DROP VIEW", name, "");
    Ok(QueryResult::none(format!("view '{name}' dropped")))
}

/// ALTER TABLE: schema evolution as a new table version. Added columns
/// backfill NULL; dropped columns disappear from the current schema but
/// remain visible through time-travel reads of older versions.
pub(super) fn alter_table(
    txn: &mut Txn,
    ctx: &StmtCtx,
    name: &str,
    action: AlterAction,
) -> Result<QueryResult> {
    reject_stream_write(txn.catalog(), name, "ALTER TABLE")?;
    txn.check_access(&ObjectRef::table(name), Privilege::Create)?;
    let table = txn.catalog().table(name)?;
    let schema = table.schema().clone();
    let data = table.current().scan(txn.catalog().part_store()).collect()?;

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

    let version = txn.write_table(name, true, |catalog, txn_id| {
        let table = catalog.table_mut(name)?;
        let version = table.evolve(new_schema, new_batch.clone(), txn_id)?;
        // The logged batch carries the evolved schema, so replay restores
        // the ALTER through the ordinary push-version path.
        let op = RedoOp::PushVersion {
            table: table.name().to_string(),
            version,
            txn_id,
            data: new_batch,
        };
        Ok((version, Some(op)))
    })?;
    txn.log(
        ctx.sql,
        StatementKind::Ddl,
        vec![],
        vec![name.to_string()],
        vec![(name.to_string(), version)],
    );
    txn.audit("ALTER TABLE", name, &detail);
    Ok(QueryResult::none(format!(
        "table '{name}' altered ({detail}); version {version}"
    )))
}

// ------------------------------------------------ streams and continuous queries

/// `CREATE STREAM name (cols...) WATERMARK (col, lag_ms)`: an
/// append-only table plus a stream extension object carrying the
/// event-time column and watermark lag. Both are WAL-durable through
/// the existing redo records — no new log format.
pub(super) fn create_stream(
    txn: &mut Txn,
    ctx: &StmtCtx,
    name: &str,
    columns: &[ColumnDecl],
    watermark: StreamSpec,
    if_not_exists: bool,
) -> Result<QueryResult> {
    let is_stream = txn.catalog().has_extension(STREAM_KIND, name);
    if is_stream && if_not_exists {
        return Ok(QueryResult::none(format!("stream '{name}' already exists")));
    }
    if is_stream || txn.catalog().has_table(name) {
        return Err(SqlError::Catalog(format!(
            "stream or table '{name}' already exists"
        )));
    }
    let event_time = &watermark.event_time;
    let et = columns
        .iter()
        .find(|c| c.name.eq_ignore_ascii_case(event_time))
        .ok_or_else(|| {
            SqlError::Catalog(format!(
                "watermark column '{event_time}' is not a column of stream '{name}'"
            ))
        })?;
    if et.data_type != DataType::Int {
        return Err(SqlError::Constraint(format!(
            "watermark column '{event_time}' must be INT (event-time milliseconds)"
        )));
    }
    let spec = StreamSpec {
        event_time: et.name.clone(),
        lag_ms: watermark.lag_ms,
    };
    create_table_with_schema(txn, name, schema_of(columns))?;
    create_extension(txn, STREAM_KIND, name, Vec::new(), spec.to_metadata())?;
    txn.log(ctx.sql, StatementKind::Ddl, vec![], vec![name.to_string()], vec![]);
    Ok(QueryResult::none(format!("stream '{name}' created")))
}

pub(super) fn drop_stream(txn: &mut Txn, ctx: &StmtCtx, name: &str) -> Result<QueryResult> {
    if !txn.catalog().has_extension(STREAM_KIND, name) {
        return Err(SqlError::Catalog(format!("stream '{name}' does not exist")));
    }
    for cq in txn.catalog().extensions_of_kind(CQ_KIND) {
        let spec = CqSpec::from_metadata(&cq.current().metadata)?;
        if spec.stream.eq_ignore_ascii_case(name) {
            return Err(SqlError::Constraint(format!(
                "stream '{name}' is read by continuous query '{}'; drop that first",
                cq.name
            )));
        }
    }
    txn.check_access(&ObjectRef::table(name), Privilege::Drop)?;
    drop_extension(txn, STREAM_KIND, name)?;
    remove_table(txn, name)?;
    txn.log(ctx.sql, StatementKind::Ddl, vec![], vec![name.to_string()], vec![]);
    txn.audit("DROP STREAM", name, "");
    Ok(QueryResult::none(format!("stream '{name}' dropped")))
}

/// `CREATE CONTINUOUS QUERY`: validates and compiles the whole
/// pipeline up front (window shape, query plan, PREDICT models, WHEN
/// predicate), creates the sink table from the compiled output schema,
/// and registers the CQ as an extension object the scheduler picks up
/// on its next tick.
pub(super) fn create_cq(
    txn: &mut Txn,
    ctx: &StmtCtx,
    name: &str,
    spec: CqSpec,
) -> Result<QueryResult> {
    crate::stream::validate_window(&spec.window)?;
    let (stream, sink) = (spec.stream.as_str(), spec.sink.as_str());
    if txn.catalog().has_extension(CQ_KIND, name) {
        return Err(SqlError::Catalog(format!(
            "continuous query '{name}' already exists"
        )));
    }
    if !txn.catalog().has_extension(STREAM_KIND, stream) {
        return Err(SqlError::Catalog(format!("stream '{stream}' does not exist")));
    }
    if txn.catalog().has_table(sink) {
        return Err(SqlError::Catalog(format!(
            "sink table '{sink}' already exists"
        )));
    }
    txn.check_access(&ObjectRef::table(stream), Privilege::Select)?;
    // Both policy actions mutate the target model (hold flips its
    // metadata, retrain deploys a new version); the creator must hold
    // that right up front.
    for m in spec.hold_model.iter().chain(spec.retrain_model.iter()) {
        if !txn.catalog().has_extension("model", m) {
            return Err(SqlError::Catalog(format!("model '{m}' does not exist")));
        }
        txn.check_access(&ObjectRef::extension(m), Privilege::Update)?;
    }
    let compiled = compile_cq(&spec, txn.catalog(), ctx.provider.as_ref())?;
    for m in &compiled.predict_models {
        txn.check_access(&ObjectRef::extension(m), Privilege::Execute)?;
    }
    create_table_with_schema(txn, sink, compiled.sink_schema.clone())?;
    create_extension(txn, CQ_KIND, name, Vec::new(), spec.to_metadata())?;
    txn.log(
        ctx.sql,
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
pub(super) fn drop_cq(txn: &mut Txn, ctx: &StmtCtx, name: &str) -> Result<QueryResult> {
    if !txn.catalog().has_extension(CQ_KIND, name) {
        return Err(SqlError::Catalog(format!(
            "continuous query '{name}' does not exist"
        )));
    }
    drop_extension(txn, CQ_KIND, name)?;
    txn.log(ctx.sql, StatementKind::Ddl, vec![], vec![name.to_string()], vec![]);
    Ok(QueryResult::none(format!(
        "continuous query '{name}' dropped; sink table retained"
    )))
}

// ------------------------------------------------------- users and grants

pub(super) fn create_user(txn: &mut Txn, name: &str) -> Result<QueryResult> {
    txn.require_superuser("CREATE USER")?;
    txn.access_mut().create_user(name);
    txn.audit("CREATE USER", name, "");
    Ok(QueryResult::none(format!("user '{name}' created")))
}

pub(super) fn grant(
    txn: &mut Txn,
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
    txn.check_access(&obj_ref, Privilege::Grant)?;
    if revoke {
        txn.access_mut().revoke(user, &obj_ref, privileges);
    } else {
        txn.access_mut().grant(user, obj_ref.clone(), privileges);
    }
    let verb = if revoke { "REVOKE" } else { "GRANT" };
    txn.audit(verb, &obj_ref.name, &format!("{privileges:?} {user}"));
    Ok(QueryResult::none(format!("{verb} applied")))
}

// -------------------------------------------------- data discovery

/// `SHOW TABLES` — the catalog's discovery surface (paper §4.2:
/// "Data Discovery support is virtually non-existent" in file-based
/// workflows; a managed catalog fixes that).
pub(super) fn show_tables(txn: &Txn) -> Result<QueryResult> {
    let catalog = txn.catalog();
    let schema = Arc::new(Schema::from_pairs(&[
        ("name", DataType::Text),
        ("columns", DataType::Int),
        ("rows", DataType::Int),
        ("version", DataType::Int),
    ]));
    let mut rows: Vec<Vec<Value>> = Vec::new();
    for name in catalog.table_names() {
        // only list tables this user may read
        if catalog
            .access
            .check(&txn.user, &ObjectRef::table(&name), Privilege::Select)
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
    Ok(QueryResult::rows(RecordBatch::from_rows(schema, &rows)?, "SHOW TABLES"))
}

/// `DESCRIBE <table>` — per-column data profile of the current version,
/// computed when asked ([`crate::stats::profile`]): type, nullability,
/// null count, distinct count, and numeric min/max.
pub(super) fn describe(txn: &mut Txn, name: &str) -> Result<QueryResult> {
    txn.check_access(&ObjectRef::table(name), Privilege::Select)?;
    let table = txn.catalog().table(name)?;
    let cur = table.current();
    let stats = crate::stats::profile(&cur.parts, &cur.data);
    let schema = Arc::new(Schema::from_pairs(&[
        ("column", DataType::Text),
        ("type", DataType::Text),
        ("nullable", DataType::Bool),
        ("nulls", DataType::Int),
        ("distinct", DataType::Int),
        ("min", DataType::Float),
        ("max", DataType::Float),
    ]));
    let mut rows: Vec<Vec<Value>> = Vec::new();
    for (i, col) in table.schema().columns().iter().enumerate() {
        let cs = &stats[i];
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
    Ok(QueryResult::rows(batch, format!("DESCRIBE {name}")))
}

pub(super) fn show_streams(txn: &Txn) -> Result<QueryResult> {
    let catalog = txn.catalog();
    let schema = Arc::new(Schema::from_pairs(&[
        ("name", DataType::Text),
        ("event_time", DataType::Text),
        ("lag_ms", DataType::Int),
        ("rows", DataType::Int),
        ("continuous_queries", DataType::Int),
    ]));
    let mut streams = catalog.extensions_of_kind(STREAM_KIND);
    streams.sort_by(|a, b| a.name.cmp(&b.name));
    let mut rows: Vec<Vec<Value>> = Vec::new();
    for s in streams {
        // only list streams this user may read
        if catalog
            .access
            .check(&txn.user, &ObjectRef::table(&s.name), Privilege::Select)
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
    Ok(QueryResult::rows(RecordBatch::from_rows(schema, &rows)?, "SHOW STREAMS"))
}
