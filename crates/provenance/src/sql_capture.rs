//! SQL provenance capture (paper §4.2, "Provenance in SQL").
//!
//! Two modes, exactly as the paper describes:
//!
//! * **eager** — given a statement, parse it and extract coarse-grained
//!   provenance: the input tables and columns that affected the output,
//!   with connections modelled as a graph;
//! * **lazy** — given the database's query log, replay the whole history
//!   into the provenance data model (including the exact table versions
//!   each write produced).

use crate::catalog::ProvCatalog;
use crate::graph::{EdgeKind, NodeId};
use flock_sql::ast::{Expr, InsertSource, Query, QueryPart, Statement};
use flock_sql::engine::QueryLogEntry;
use flock_sql::parser::parse_statement;
use flock_sql::Result;
use std::collections::HashMap;

/// What one capture produced.
#[derive(Debug, Clone, Default)]
pub struct CaptureReport {
    pub query: Option<NodeId>,
    pub tables_read: Vec<NodeId>,
    pub columns_read: Vec<NodeId>,
    pub tables_written: Vec<NodeId>,
    pub versions_written: Vec<NodeId>,
}

/// Flat extraction of names from a statement.
#[derive(Debug, Default)]
struct Extraction {
    /// (table name, Some(alias)) for every base-table reference.
    tables: Vec<(String, Option<String>)>,
    /// (qualifier, column) for every column reference.
    columns: Vec<(Option<String>, String)>,
    /// tables written by DML/DDL
    written: Vec<String>,
}

/// Eagerly capture one SQL statement into the provenance catalog.
pub fn capture_sql(catalog: &mut ProvCatalog, sql: &str, user: &str) -> Result<CaptureReport> {
    let stmt = parse_statement(sql)?;
    let mut ex = Extraction::default();
    extract_statement(&stmt, &mut ex);
    let report = record(catalog, sql, user, &ex, &[]);
    link_model(catalog, &stmt, &report);
    Ok(report)
}

/// Lazily replay one query-log entry (exact versions included).
pub fn capture_log_entry(catalog: &mut ProvCatalog, entry: &QueryLogEntry) -> CaptureReport {
    let parsed = parse_statement(&entry.sql).ok();
    let mut ex = Extraction::default();
    match &parsed {
        Some(stmt) => extract_statement(stmt, &mut ex),
        None => {
            // fall back to the engine-recorded table sets
            for t in &entry.tables_read {
                ex.tables.push((t.clone(), None));
            }
            for t in &entry.tables_written {
                ex.written.push(t.clone());
            }
        }
    }
    let report = record(catalog, &entry.sql, &entry.user, &ex, &entry.versions_written);
    if let Some(stmt) = &parsed {
        link_model(catalog, stmt, &report);
    }
    report
}

/// Lazily replay a whole query log. Returns one report per entry.
pub fn capture_log(
    catalog: &mut ProvCatalog,
    log: &[QueryLogEntry],
) -> Vec<CaptureReport> {
    log.iter().map(|e| capture_log_entry(catalog, e)).collect()
}

fn record(
    catalog: &mut ProvCatalog,
    sql: &str,
    user: &str,
    ex: &Extraction,
    versions_written: &[(String, u64)],
) -> CaptureReport {
    let q = catalog.query(sql, user);
    let mut report = CaptureReport {
        query: Some(q),
        ..Default::default()
    };

    // alias -> table map for column attribution
    let mut aliases: HashMap<String, String> = HashMap::new();
    for (table, alias) in &ex.tables {
        let t = catalog.table(table);
        catalog.link(q, t, EdgeKind::ReadFrom);
        report.tables_read.push(t);
        aliases.insert(table.to_ascii_lowercase(), table.clone());
        if let Some(a) = alias {
            aliases.insert(a.to_ascii_lowercase(), table.clone());
        }
    }

    let single_table = if ex.tables.len() == 1 {
        Some(ex.tables[0].0.clone())
    } else {
        None
    };
    let mut seen = std::collections::HashSet::new();
    for (qual, col) in &ex.columns {
        let table = match qual {
            Some(qn) => aliases.get(&qn.to_ascii_lowercase()).cloned(),
            None => single_table.clone(),
        };
        let Some(table) = table else {
            continue; // unattributable (subquery alias or ambiguous)
        };
        if !seen.insert((table.to_ascii_lowercase(), col.to_ascii_lowercase())) {
            continue;
        }
        let c = catalog.column(&table, col);
        catalog.link(q, c, EdgeKind::ReadFrom);
        report.columns_read.push(c);
    }

    for table in &ex.written {
        let t = catalog.table(table);
        report.tables_written.push(t);
        let version = versions_written
            .iter()
            .find(|(name, _)| name.eq_ignore_ascii_case(table))
            .map(|(_, v)| *v);
        match version {
            Some(v) => {
                let tv = catalog.table_version(table, v);
                catalog.link(q, tv, EdgeKind::Wrote);
                report.versions_written.push(tv);
            }
            None => {
                // eager mode has no version number; link the table itself
                catalog.link(q, t, EdgeKind::Wrote);
            }
        }
    }
    report
}

/// For `CREATE MODEL`: the model the statement produces, its kind, and
/// a `TrainedOn` edge to every table its training query read.
fn link_model(catalog: &mut ProvCatalog, stmt: &Statement, report: &CaptureReport) {
    let (Statement::CreateModel { name, kind, .. }, Some(q)) = (stmt, report.query) else {
        return;
    };
    let m = catalog.model(name, None);
    catalog.link(q, m, EdgeKind::Produces);
    let h = catalog.hyperparameter(name, "kind", kind);
    catalog.link(m, h, EdgeKind::HasParam);
    for &t in &report.tables_read {
        catalog.link(m, t, EdgeKind::TrainedOn);
    }
}

// ------------------------------------------------------------ extraction

fn extract_statement(stmt: &Statement, out: &mut Extraction) {
    match stmt {
        Statement::Query(q) => extract_query(q, out),
        Statement::Insert {
            table,
            columns: _,
            source,
        } => {
            out.written.push(table.clone());
            match source {
                InsertSource::Values(rows) => {
                    for row in rows {
                        for e in row {
                            extract_expr(e, out);
                        }
                    }
                }
                InsertSource::Query(q) => extract_query(q, out),
            }
        }
        Statement::Update {
            table,
            assignments,
            selection,
        } => {
            out.written.push(table.clone());
            out.tables.push((table.clone(), None));
            for (_, e) in assignments {
                extract_expr(e, out);
            }
            if let Some(e) = selection {
                extract_expr(e, out);
            }
        }
        Statement::Delete { table, selection } => {
            out.written.push(table.clone());
            out.tables.push((table.clone(), None));
            if let Some(e) = selection {
                extract_expr(e, out);
            }
        }
        Statement::CreateTable { name, .. } => out.written.push(name.clone()),
        Statement::DropTable { name, .. } => out.written.push(name.clone()),
        Statement::CreateView { query, .. } => extract_query(query, out),
        Statement::CreateModel { query, target, .. } => {
            extract_query(query, out);
            out.columns.push((None, target.clone()));
        }
        Statement::Explain { statement, .. } => extract_statement(statement, out),
        _ => {}
    }
}

/// Base tables and column references of a query, descending into every
/// subquery (derived tables and those held by expressions).
fn extract_query(q: &Query, out: &mut Extraction) {
    q.for_each_part(&mut |part| match part {
        QueryPart::Table { name, alias } => out
            .tables
            .push((name.to_string(), alias.map(str::to_string))),
        QueryPart::Expr(e) => extract_expr(e, out),
    });
}

fn extract_expr(e: &Expr, out: &mut Extraction) {
    e.walk(&mut |x| match x {
        Expr::Column { qualifier, name } => out.columns.push((qualifier.clone(), name.clone())),
        Expr::Subquery(q) | Expr::Exists { query: q, .. } | Expr::InSubquery { query: q, .. } => {
            extract_query(q, out)
        }
        _ => {}
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::NodeKind;

    #[test]
    fn eager_capture_extracts_tables_and_columns() {
        let mut cat = ProvCatalog::new();
        let r = capture_sql(
            &mut cat,
            "SELECT o.price, c.name FROM orders o JOIN customers c ON o.cust_id = c.id \
             WHERE o.price > 10",
            "alice",
        )
        .unwrap();
        assert_eq!(r.tables_read.len(), 2);
        // columns: o.price, c.name, o.cust_id, c.id (deduped price)
        assert_eq!(r.columns_read.len(), 4);
        let g = cat.graph();
        assert!(g.find(NodeKind::Column, "orders.price", None).is_some());
        assert!(g.find(NodeKind::Column, "customers.id", None).is_some());
    }

    #[test]
    fn unqualified_columns_attribute_to_single_table() {
        let mut cat = ProvCatalog::new();
        let r = capture_sql(&mut cat, "SELECT price FROM orders WHERE qty > 1", "u").unwrap();
        assert_eq!(r.columns_read.len(), 2);
    }

    #[test]
    fn subqueries_contribute_tables() {
        let mut cat = ProvCatalog::new();
        let r = capture_sql(
            &mut cat,
            "SELECT a FROM t WHERE id IN (SELECT tid FROM u) AND EXISTS (SELECT 1 FROM v)",
            "u",
        )
        .unwrap();
        assert_eq!(r.tables_read.len(), 3);
    }

    #[test]
    fn union_arms_contribute_tables() {
        let mut cat = ProvCatalog::new();
        let r = capture_sql(
            &mut cat,
            "SELECT id FROM current_users UNION ALL SELECT id FROM archived_users",
            "u",
        )
        .unwrap();
        assert_eq!(r.tables_read.len(), 2);
    }

    #[test]
    fn dml_records_writes() {
        let mut cat = ProvCatalog::new();
        let r = capture_sql(&mut cat, "INSERT INTO t SELECT * FROM s", "u").unwrap();
        assert_eq!(r.tables_written.len(), 1);
        assert_eq!(r.tables_read.len(), 1);
        let r2 = capture_sql(&mut cat, "UPDATE t SET a = b + 1 WHERE c > 0", "u").unwrap();
        assert_eq!(r2.tables_written.len(), 1);
        // reads are b (assignment source) and c (predicate); the target a
        // is written, not read
        assert_eq!(r2.columns_read.len(), 2);
    }

    #[test]
    fn lazy_capture_pins_versions() {
        use flock_sql::engine::StatementKind;
        let mut cat = ProvCatalog::new();
        let entry = QueryLogEntry {
            id: 1,
            txn_id: 7,
            user: "bob".into(),
            sql: "INSERT INTO t VALUES (1)".into(),
            kind: StatementKind::Insert,
            tables_read: vec![],
            tables_written: vec!["t".into()],
            versions_written: vec![("t".into(), 5)],
            timestamp_ms: 0,
            rows_scanned: 0,
            rows_returned: 0,
            elapsed_us: 0,
            parallel_ops: 0,
        };
        let r = capture_log_entry(&mut cat, &entry);
        assert_eq!(r.versions_written.len(), 1);
        assert!(cat
            .graph()
            .find(NodeKind::TableVersion, "t", Some(5))
            .is_some());
    }

    #[test]
    fn create_model_links_model_to_training_table() {
        let mut cat = ProvCatalog::new();
        let r = capture_sql(
            &mut cat,
            "CREATE MODEL churn KIND logistic FROM customers TARGET churned",
            "alice",
        )
        .unwrap();
        assert_eq!(r.tables_read.len(), 1);
        let g = cat.graph();
        let m = g.find(NodeKind::Model, "churn", None).unwrap();
        let t = g.find(NodeKind::Table, "customers", None).unwrap();
        assert!(g
            .outgoing(m)
            .any(|e| e.to == t && e.kind == EdgeKind::TrainedOn));
    }

    #[test]
    fn create_model_over_a_join_links_every_training_table() {
        let mut cat = ProvCatalog::new();
        let r = capture_sql(
            &mut cat,
            "CREATE MODEL m KIND logistic TARGET y AS \
             SELECT a.x, b.z, a.y FROM a JOIN b ON a.id = b.id",
            "alice",
        )
        .unwrap();
        assert_eq!(r.tables_read.len(), 2);
        let g = cat.graph();
        let m = g.find(NodeKind::Model, "m", None).unwrap();
        for table in ["a", "b"] {
            let t = g.find(NodeKind::Table, table, None).unwrap();
            assert!(
                g.outgoing(m).any(|e| e.to == t && e.kind == EdgeKind::TrainedOn),
                "{table}"
            );
        }
        for column in ["a.x", "b.z", "a.y", "a.id", "b.id"] {
            assert!(g.find(NodeKind::Column, column, None).is_some(), "{column}");
        }
    }

    #[test]
    fn unparseable_log_entries_fall_back_to_recorded_tables() {
        use flock_sql::engine::StatementKind;
        let mut cat = ProvCatalog::new();
        let entry = QueryLogEntry {
            id: 1,
            txn_id: 1,
            user: "u".into(),
            sql: "MERGE INTO weird SYNTAX".into(),
            kind: StatementKind::Other,
            tables_read: vec!["a".into()],
            tables_written: vec!["b".into()],
            versions_written: vec![],
            timestamp_ms: 0,
            rows_scanned: 0,
            rows_returned: 0,
            elapsed_us: 0,
            parallel_ops: 0,
        };
        let r = capture_log_entry(&mut cat, &entry);
        assert_eq!(r.tables_read.len(), 1);
        assert_eq!(r.tables_written.len(), 1);
    }
}
