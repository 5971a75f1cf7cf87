//! Extension objects and models: governed `CREATE MODEL … AS SELECT`,
//! `RETRAIN`, policy holds, and the lineage that pins training data.

use super::session::StmtCtx;
use super::txn::Txn;
use super::{now_ms, query, QueryResult, StatementKind};
use crate::ast::{Query, Statement};
use crate::batch::RecordBatch;
use crate::catalog::{Catalog, ObjectRef, Privilege};
use crate::error::{Result, SqlError};
use crate::trainer::TrainSpec;
use crate::wal::RedoOp;

/// The score column a model produces when its statement names none.
pub(super) fn default_output(model: &str) -> String {
    format!("{}_score", model.to_ascii_lowercase())
}

// ------------------------------------------------- extension objects

/// Create a versioned extension object owned by (and fully granted to)
/// the transaction's user.
pub(super) fn create_extension(
    txn: &mut Txn,
    kind: &str,
    name: &str,
    payload: Vec<u8>,
    metadata: flock_json::Value,
) -> Result<()> {
    let user = txn.user.clone();
    txn.write_extension(kind, name, true, |catalog, txn_id| {
        catalog.create_extension(kind, name, &user, payload.clone(), metadata.clone(), txn_id)?;
        let op = RedoOp::CreateExtension {
            kind: kind.to_string(),
            name: name.to_string(),
            owner: user.clone(),
            txn_id,
            payload,
            metadata,
        };
        Ok(((), Some(op)))
    })?;
    txn.access_mut()
        .grant(&user, ObjectRef::extension(name), &Privilege::ALL);
    txn.audit(&format!("CREATE {}", kind.to_uppercase()), name, "");
    Ok(())
}

/// Append a new version to an extension object. `ddl: false` skips the
/// ddl-epoch bump (and the audit entry): the continuous-query scheduler
/// advances its durable cursor through this path every emission, and
/// neither cached plans nor the audit trail should churn for that
/// bookkeeping.
pub(super) fn update_extension(
    txn: &mut Txn,
    kind: &str,
    name: &str,
    payload: Vec<u8>,
    metadata: flock_json::Value,
    ddl: bool,
) -> Result<u64> {
    txn.check_access(&ObjectRef::extension(name), Privilege::Update)?;
    let v = txn.write_extension(kind, name, ddl, |catalog, txn_id| {
        let version =
            catalog.update_extension(kind, name, payload.clone(), metadata.clone(), txn_id)?;
        let op = RedoOp::UpdateExtension {
            kind: kind.to_string(),
            name: name.to_string(),
            version,
            txn_id,
            payload,
            metadata,
        };
        Ok((version, Some(op)))
    })?;
    if ddl {
        txn.audit(&format!("UPDATE {}", kind.to_uppercase()), name, &format!("v{v}"));
    }
    Ok(v)
}

pub(super) fn drop_extension(txn: &mut Txn, kind: &str, name: &str) -> Result<()> {
    txn.check_access(&ObjectRef::extension(name), Privilege::Drop)?;
    txn.write_extension(kind, name, true, |catalog, _| {
        catalog.drop_extension(kind, name)?;
        let op = RedoOp::DropExtension {
            kind: kind.to_string(),
            name: name.to_string(),
        };
        Ok(((), Some(op)))
    })?;
    txn.audit(&format!("DROP {}", kind.to_uppercase()), name, "");
    Ok(())
}

/// Place a model on hold: further PREDICT calls against it are refused
/// until an operator clears the `hold` metadata flag. Fired by
/// continuous-query policy breaches.
pub(super) fn hold_model(txn: &mut Txn, model: &str) -> Result<()> {
    let cur = txn.catalog().extension("model", model)?.current();
    let payload = cur.payload.clone();
    let mut metadata = cur.metadata.clone();
    match metadata.as_object_mut() {
        Some(m) => {
            m.insert("hold".to_string(), flock_json::Value::Bool(true));
        }
        None => {
            return Err(SqlError::Constraint(format!(
                "model '{model}' has non-object metadata"
            )))
        }
    }
    update_extension(txn, "model", model, payload, metadata, true)?;
    txn.audit("MODEL HOLD", model, "policy breach");
    Ok(())
}

// ------------------------------------------------------- training

/// Run a training query and report, alongside the materialized batch,
/// the exact committed version of every table it scanned — the
/// provenance pins recorded in the model's lineage. Time-travel scans
/// pin the version they read; everything else pins the version current
/// in this transaction's snapshot.
fn run_training_query(
    txn: &mut Txn,
    ctx: &StmtCtx,
    q: &Query,
) -> Result<(RecordBatch, Vec<(String, u64)>)> {
    let planned = query::plan_select(txn, ctx, q, true)?;
    let mut pins: Vec<(String, u64)> = planned
        .scans
        .iter()
        .map(|s| (s.table.to_ascii_lowercase(), s.version))
        .collect();
    pins.sort();
    pins.dedup();
    let (batch, _) = query::execute(ctx, &txn.user, &planned.physical)?;
    Ok((batch, pins))
}

pub(super) fn create_model(
    txn: &mut Txn,
    ctx: &StmtCtx,
    spec: &TrainSpec,
    query: &Query,
) -> Result<QueryResult> {
    let name = spec.name.as_str();
    if txn.catalog().has_extension("model", name) {
        return Err(SqlError::Catalog(format!("model '{name}' already exists")));
    }
    let (batch, pins) = run_training_query(txn, ctx, query)?;
    let artifact = ctx.db.model_trainer().train(spec, &batch)?;
    let metadata = stamp_lineage(artifact.metadata, ctx.sql, &pins, &txn.user)?;
    create_extension(txn, "model", name, artifact.payload, metadata)?;
    txn.audit(
        "MODEL TRAIN",
        name,
        &format!(
            "kind {}; {} train / {} eval rows",
            spec.kind, artifact.train_rows, artifact.eval_rows
        ),
    );
    let tables_read = pins.into_iter().map(|(t, _)| t).collect();
    txn.log(ctx.sql, StatementKind::Ddl, tables_read, vec![name.to_string()], vec![]);
    Ok(QueryResult::none(format!(
        "model '{name}' trained ({} train rows, {} held-out eval rows) and deployed",
        artifact.train_rows, artifact.eval_rows
    )))
}

/// Re-run a model's recorded training statement against current data
/// and deploy the result as a new version. `RETRAIN MODEL m` and the
/// policy machinery (`WHEN ... THEN RETRAIN MODEL m`, transactionally
/// with the window emission) both land here; `trigger` says which.
pub(super) fn retrain_model(
    txn: &mut Txn,
    ctx: &StmtCtx,
    name: &str,
    trigger: &str,
) -> Result<QueryResult> {
    let recorded = txn
        .catalog()
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
    txn.check_access(&ObjectRef::extension(name), Privilege::Update)?;
    let Statement::CreateModel {
        kind,
        options,
        target,
        output,
        query,
        ..
    } = crate::parser::parse_statement(&recorded)?
    else {
        return Err(SqlError::Plan(format!(
            "recorded training statement for '{name}' is not a CREATE MODEL statement"
        )));
    };
    let (batch, pins) = run_training_query(txn, ctx, &query)?;
    let spec = TrainSpec {
        name: name.to_string(),
        kind,
        options,
        target,
        output: output.unwrap_or_else(|| default_output(name)),
    };
    let artifact = ctx.db.model_trainer().train(&spec, &batch)?;
    let metadata = stamp_lineage(artifact.metadata, &recorded, &pins, &txn.user)?;
    let v = update_extension(txn, "model", name, artifact.payload, metadata, true)?;
    let (train_rows, eval_rows) = (artifact.train_rows, artifact.eval_rows);
    txn.audit(
        "MODEL RETRAIN",
        name,
        &format!("{trigger}; v{v}, {train_rows} train / {eval_rows} eval rows"),
    );
    Ok(QueryResult::none(format!(
        "model '{name}' retrained to v{v} ({train_rows} train rows, {eval_rows} held-out eval rows)"
    )))
}

pub(super) fn drop_model(txn: &mut Txn, ctx: &StmtCtx, name: &str) -> Result<QueryResult> {
    if !txn.catalog().has_extension("model", name) {
        return Err(SqlError::Catalog(format!("model '{name}' does not exist")));
    }
    drop_extension(txn, "model", name)?;
    txn.log(ctx.sql, StatementKind::Ddl, vec![], vec![name.to_string()], vec![]);
    Ok(QueryResult::none(format!("model '{name}' dropped")))
}

// ------------------------------------------------------- lineage

/// Table versions pinned by extension-object lineage: every version of
/// every extension object (deployed models included) whose metadata says
/// `lineage.training_table == table` pins `lineage.training_table_version`.
/// The engine does not interpret extension payloads, but the lineage keys
/// are part of the catalog contract shared with `flock-core`.
pub(super) fn lineage_pinned_versions(catalog: &Catalog, table: &str) -> Vec<u64> {
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
    mut metadata: flock_json::Value,
    sql: &str,
    pins: &[(String, u64)],
    user: &str,
) -> Result<flock_json::Value> {
    let obj = metadata.as_object_mut().ok_or_else(|| {
        SqlError::Plan("trainer returned non-object model metadata".into())
    })?;
    let lineage = obj
        .entry("lineage".to_string())
        .or_insert_with(|| flock_json::Value::Object(flock_json::Map::new()));
    let lineage = lineage.as_object_mut().ok_or_else(|| {
        SqlError::Plan("trainer returned non-object model lineage".into())
    })?;
    let sql = sql.trim().trim_end_matches(';').to_string();
    lineage.insert("training_query".into(), flock_json::Value::String(sql));
    lineage.insert("trained_by".into(), flock_json::Value::String(user.into()));
    lineage.insert("created_ms".into(), flock_json::json!(now_ms()));
    match pins.first() {
        Some((t, v)) => {
            lineage.insert(
                "training_table".into(),
                flock_json::Value::String(t.clone()),
            );
            lineage.insert("training_table_version".into(), flock_json::Value::from(*v));
        }
        None => {
            lineage.insert("training_table".into(), flock_json::Value::Null);
            lineage.insert("training_table_version".into(), flock_json::Value::Null);
        }
    }
    let all: Vec<flock_json::Value> = pins
        .iter()
        .map(|(t, v)| {
            flock_json::Value::Array(vec![
                flock_json::Value::String(t.clone()),
                flock_json::Value::from(*v),
            ])
        })
        .collect();
    lineage.insert("training_tables".into(), flock_json::Value::Array(all));
    Ok(metadata)
}
