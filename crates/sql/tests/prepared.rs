//! Prepared statements and the shared plan cache: hit/miss accounting,
//! every invalidation path (DDL, options, ACL, session strategy), DML
//! rebinding, transaction bypass, and typed bind errors.

use flock_sql::{Database, RecordBatch, SqlError, Value};

fn db_with_items() -> Database {
    let db = Database::new();
    db.execute("CREATE TABLE items (id INT NOT NULL, price DOUBLE, tag VARCHAR)")
        .unwrap();
    db.execute(
        "INSERT INTO items VALUES \
         (1, 10.0, 'a'), (2, 20.0, 'b'), (3, 30.0, 'a'), (4, 40.0, 'c')",
    )
    .unwrap();
    db
}

/// (hits, misses, invalidations) snapshot of the plan cache.
fn cache_stats(db: &Database) -> (u64, u64, u64) {
    use std::sync::atomic::Ordering;
    let c = db.plan_cache();
    let [(_, h), (_, m), (_, i), _] = c.counters();
    (
        h.load(Ordering::Relaxed),
        m.load(Ordering::Relaxed),
        i.load(Ordering::Relaxed),
    )
}

#[test]
fn prepared_execution_hits_plan_cache() {
    let db = db_with_items();
    let mut s = db.session("admin");
    let p = s
        .prepare("SELECT id, price FROM items WHERE price > ? ORDER BY id")
        .unwrap();

    let (h0, m0, _) = cache_stats(&db);
    let b = s
        .execute_prepared(&p, &[Value::Float(15.0)])
        .unwrap()
        .batch
        .unwrap();
    assert_eq!(b.num_rows(), 3);
    let (h1, m1, _) = cache_stats(&db);
    assert_eq!(h1, h0, "first execution is a cold miss");
    assert_eq!(m1, m0 + 1);

    // Different parameter value, same plan.
    let b = s
        .execute_prepared(&p, &[Value::Float(35.0)])
        .unwrap()
        .batch
        .unwrap();
    assert_eq!(b.num_rows(), 1);
    assert_eq!(b.column(0).get(0), Value::Int(4));
    let (h2, m2, _) = cache_stats(&db);
    assert_eq!(h2, h1 + 1, "second execution hits");
    assert_eq!(m2, m1);
}

#[test]
fn normalized_literals_share_one_plan() {
    let db = db_with_items();
    let mut s = db.session("admin");
    // Statements differing only in literal constants normalize to the
    // same fingerprint, so the second prepared statement's first
    // execution already hits the plan inserted by the first.
    let p1 = s.prepare("SELECT id FROM items WHERE price > 15.0").unwrap();
    let p2 = s.prepare("SELECT id FROM items WHERE price > 25.0").unwrap();
    assert_eq!(s.execute_prepared(&p1, &[]).unwrap().batch.unwrap().num_rows(), 3);
    let (h0, _, _) = cache_stats(&db);
    assert_eq!(s.execute_prepared(&p2, &[]).unwrap().batch.unwrap().num_rows(), 2);
    let (h1, _, _) = cache_stats(&db);
    assert_eq!(h1, h0 + 1, "normalized twin shares the cached plan");
}

#[test]
fn unprepared_selects_cache_on_raw_tokens() {
    let db = db_with_items();
    let mut s = db.session("admin");
    let (_, m0, _) = cache_stats(&db);
    s.execute("SELECT tag FROM items WHERE id = 2").unwrap();
    let (h1, m1, _) = cache_stats(&db);
    assert_eq!(m1, m0 + 1);
    s.execute("SELECT tag FROM items WHERE id = 2").unwrap();
    let (h2, _, _) = cache_stats(&db);
    assert_eq!(h2, h1 + 1, "identical text re-executes from cache");
}

#[test]
fn ddl_on_referenced_table_invalidates() {
    let db = db_with_items();
    let mut s = db.session("admin");
    let p = s.prepare("SELECT id FROM items WHERE price > ?").unwrap();
    s.execute_prepared(&p, &[Value::Float(0.0)]).unwrap();
    s.execute_prepared(&p, &[Value::Float(0.0)]).unwrap();
    let (_, _, i0) = cache_stats(&db);

    db.execute("ALTER TABLE items ADD COLUMN note VARCHAR").unwrap();
    let b = s
        .execute_prepared(&p, &[Value::Float(0.0)])
        .unwrap()
        .batch
        .unwrap();
    assert_eq!(b.num_rows(), 4, "replanned result stays correct");
    let (_, _, i1) = cache_stats(&db);
    assert_eq!(i1, i0 + 1, "DDL epoch tick kills the cached plan");
}

#[test]
fn drop_and_recreate_replans_against_new_schema() {
    let db = db_with_items();
    let mut s = db.session("admin");
    let p = s.prepare("SELECT * FROM items").unwrap();
    assert_eq!(
        s.execute_prepared(&p, &[]).unwrap().batch.unwrap().num_columns(),
        3
    );
    db.execute("DROP TABLE items").unwrap();
    db.execute("CREATE TABLE items (id INT NOT NULL)").unwrap();
    db.execute("INSERT INTO items VALUES (9)").unwrap();
    let b = s.execute_prepared(&p, &[]).unwrap().batch.unwrap();
    assert_eq!(b.num_columns(), 1, "cached plan never outlives the table");
    assert_eq!(b.column(0).get(0), Value::Int(9));
}

#[test]
fn dml_rebinds_cached_plan_to_fresh_version() {
    let db = db_with_items();
    let mut s = db.session("admin");
    let p = s.prepare("SELECT COUNT(*) FROM items").unwrap();
    let count = |r: flock_sql::QueryResult| r.batch.unwrap().column(0).get(0);
    assert_eq!(count(s.execute_prepared(&p, &[]).unwrap()), Value::Int(4));
    db.execute("INSERT INTO items VALUES (5, 50.0, 'd')").unwrap();
    let (h0, _, i0) = cache_stats(&db);
    // Plain DML must NOT invalidate: the plan re-binds to the moved
    // table version (counts as a hit) and sees the new row.
    assert_eq!(count(s.execute_prepared(&p, &[]).unwrap()), Value::Int(5));
    let (h1, _, i1) = cache_stats(&db);
    assert_eq!(h1, h0 + 1);
    assert_eq!(i1, i0);
}

#[test]
fn revoked_user_cannot_score_through_cached_plan() {
    let db = db_with_items();
    db.execute("CREATE USER intern").unwrap();
    db.execute("GRANT SELECT ON TABLE items TO intern").unwrap();
    let mut intern = db.session("intern");
    let p = intern.prepare("SELECT id FROM items WHERE id = ?").unwrap();
    intern.execute_prepared(&p, &[Value::Int(1)]).unwrap();
    intern.execute_prepared(&p, &[Value::Int(1)]).unwrap(); // plan is hot

    db.execute("REVOKE SELECT ON TABLE items FROM intern").unwrap();
    let err = intern.execute_prepared(&p, &[Value::Int(1)]).unwrap_err();
    assert!(
        matches!(err, SqlError::AccessDenied(_)),
        "expected AccessDenied, got {err:?}"
    );
}

#[test]
fn exec_options_change_invalidates() {
    let db = db_with_items();
    let mut s = db.session("admin");
    let p = s.prepare("SELECT id FROM items").unwrap();
    s.execute_prepared(&p, &[]).unwrap();
    s.execute_prepared(&p, &[]).unwrap();
    let (_, _, i0) = cache_stats(&db);
    db.set_exec_options(db.exec_options());
    s.execute_prepared(&p, &[]).unwrap();
    let (_, _, i1) = cache_stats(&db);
    assert_eq!(i1, i0 + 1, "options epoch tick replans");
}

#[test]
fn set_predict_strategy_keys_the_cache_per_session() {
    let db = db_with_items();
    let mut s = db.session("admin");
    let p = s.prepare("SELECT id FROM items WHERE price > ?").unwrap();
    s.execute_prepared(&p, &[Value::Float(0.0)]).unwrap();
    let (h0, m0, _) = cache_stats(&db);
    s.execute("SET predict_strategy = 'row'").unwrap();
    // New key: the override is part of the cache identity.
    s.execute_prepared(&p, &[Value::Float(0.0)]).unwrap();
    let (h1, m1, _) = cache_stats(&db);
    assert_eq!(m1, m0 + 1);
    assert_eq!(h1, h0);
    // Back to default: the original entry is still live and hits.
    s.execute("SET predict_strategy = DEFAULT").unwrap();
    s.execute_prepared(&p, &[Value::Float(0.0)]).unwrap();
    let (h2, _, _) = cache_stats(&db);
    assert_eq!(h2, h1 + 1);
}

#[test]
fn set_predict_strategy_rejects_garbage() {
    let db = db_with_items();
    let mut s = db.session("admin");
    for sql in [
        "SET predict_strategy = 'warp-speed'",
        "SET predict_strategy = 'batched'",
        "SET predict_strategy = 'vectorized'", // the compiled kernel is 'auto'
        "SET predict_strategy = 'parallel'", // the operator owns fan-out
        "SET predict_strategy = 42",
    ] {
        let err = s.execute(sql).unwrap_err();
        assert!(matches!(err, SqlError::Plan(_)), "{sql}: {err:?}");
    }
    for sql in [
        "SET predict_strategy = 'row'",
        "SET predict_strategy = 'auto'",
    ] {
        s.execute(sql).unwrap();
    }
}

#[test]
fn arity_mismatch_is_a_typed_error() {
    let db = db_with_items();
    let mut s = db.session("admin");
    let p = s
        .prepare("SELECT id FROM items WHERE price > ? AND tag = ?")
        .unwrap();
    for params in [
        vec![],
        vec![Value::Float(1.0)],
        vec![Value::Float(1.0), Value::Text("a".into()), Value::Int(3)],
    ] {
        let err = s.execute_prepared(&p, &params).unwrap_err();
        let SqlError::Plan(msg) = err else {
            panic!("expected Plan error, got {err:?}");
        };
        assert!(msg.contains("expects 2 parameter(s)"), "{msg}");
    }
    // The handle still works after bad binds.
    let b = s
        .execute_prepared(&p, &[Value::Float(5.0), Value::Text("a".into())])
        .unwrap()
        .batch
        .unwrap();
    assert_eq!(b.num_rows(), 2);
}

#[test]
fn open_transaction_bypasses_the_shared_cache() {
    let db = db_with_items();
    let mut s = db.session("admin");
    let p = s.prepare("SELECT COUNT(*) FROM items").unwrap();
    s.execute_prepared(&p, &[]).unwrap(); // seed the cache
    let before = cache_stats(&db);
    s.execute("BEGIN").unwrap();
    s.execute("INSERT INTO items VALUES (6, 60.0, 'e')").unwrap();
    let b = s.execute_prepared(&p, &[]).unwrap().batch.unwrap();
    assert_eq!(
        b.column(0).get(0),
        Value::Int(5),
        "sees uncommitted state inside the txn"
    );
    s.execute("ROLLBACK").unwrap();
    assert_eq!(
        cache_stats(&db),
        before,
        "in-txn execution never touches the shared cache"
    );
    let b = s.execute_prepared(&p, &[]).unwrap().batch.unwrap();
    assert_eq!(b.column(0).get(0), Value::Int(4), "rollback is honored");
}

#[test]
fn prepared_gauge_tracks_live_handles() {
    use std::sync::atomic::Ordering;
    let db = db_with_items();
    let gauge = db.plan_cache().prepared_active.clone();
    let mut s = db.session("admin");
    let base = gauge.load(Ordering::Relaxed);
    let p1 = s.prepare("SELECT id FROM items").unwrap();
    let p2 = s.prepare("SELECT tag FROM items WHERE id = ?").unwrap();
    assert_eq!(gauge.load(Ordering::Relaxed), base + 2);
    drop(p1);
    assert_eq!(gauge.load(Ordering::Relaxed), base + 1);
    drop(p2);
    assert_eq!(gauge.load(Ordering::Relaxed), base);
}

/// Runs `sql` with `params` by `execute_with_params`, by `execute_prepared`
/// and by `execute_prepared` inside `BEGIN`, and returns the three batches.
fn every_binding(s: &mut flock_sql::Session, sql: &str, params: &[Value]) -> Vec<RecordBatch> {
    let with_params = s.execute_with_params(sql, params).unwrap();
    let p = s.prepare(sql).unwrap();
    let prepared = s.execute_prepared(&p, params).unwrap();
    s.execute("BEGIN").unwrap();
    let in_txn = s.execute_prepared(&p, params).unwrap();
    s.execute("COMMIT").unwrap();
    [with_params, prepared, in_txn]
        .into_iter()
        .map(|r| r.batch.unwrap())
        .collect()
}

fn rows(b: &RecordBatch) -> Vec<String> {
    (0..b.num_rows()).map(|r| format!("{:?}", b.row(r))).collect()
}

#[test]
fn a_subquery_takes_parameters_on_every_path() {
    let db = db_with_items();
    let mut s = db.session("admin");
    let literal = db
        .query("SELECT id FROM items WHERE id IN (SELECT id FROM items WHERE price > 15.0) ORDER BY id")
        .unwrap();
    assert_eq!(literal.num_rows(), 3);
    let sql = "SELECT id FROM items WHERE id IN (SELECT id FROM items WHERE price > ?) ORDER BY id";
    for got in every_binding(&mut s, sql, &[Value::Float(15.0)]) {
        assert_eq!(rows(&got), rows(&literal));
    }
}

#[test]
fn explain_analyze_takes_parameters() {
    let db = db_with_items();
    let mut s = db.session("admin");
    let sql = "EXPLAIN ANALYZE SELECT id FROM items WHERE price > ?";
    for got in every_binding(&mut s, sql, &[Value::Float(15.0)]) {
        let plan = rows(&got).join("\n");
        assert!(plan.contains("Scan") && plan.contains("(rows=3,"), "{plan}");
    }
}

#[test]
fn execute_with_params_checks_arity_as_a_prepared_statement_does() {
    let db = db_with_items();
    let mut s = db.session("admin");
    let sql = "SELECT id FROM items WHERE price > ? AND tag = ?";
    for params in [
        vec![Value::Float(1.0)],
        vec![Value::Float(1.0), Value::Text("a".into()), Value::Int(3)],
    ] {
        let err = s.execute_with_params(sql, &params).unwrap_err();
        assert!(
            matches!(&err, SqlError::Plan(m) if m.contains("expects 2 parameter(s)")),
            "{err:?}"
        );
    }
}

/// `sql` with a `?` is refused with a typed error on every entry point
/// and commits nothing; the same text with `value` in place of the `?`
/// commits.
fn refuses_a_parameter(db: &Database, sql: &str, value: &str, committed: impl Fn() -> bool) {
    let mut s = db.session("admin");
    for err in [
        s.execute(sql).unwrap_err(),
        s.execute_with_params(sql, &[Value::Float(1.0)]).unwrap_err(),
        s.prepare(sql).err().unwrap(),
    ] {
        assert!(
            matches!(&err, SqlError::Plan(m) if m.contains("cannot hold a `?` parameter")),
            "{err:?}"
        );
        assert!(!committed(), "{sql}");
    }
    s.execute(&sql.replace('?', value)).unwrap();
    assert!(committed(), "{sql}");
}

#[test]
fn a_view_refuses_a_parameter() {
    let db = db_with_items();
    let sql = "CREATE VIEW pricey AS SELECT id FROM items WHERE price > ?";
    refuses_a_parameter(&db, sql, "15.0", || db.catalog().view("pricey").is_some());
    assert_eq!(db.query("SELECT * FROM pricey").unwrap().num_rows(), 3);
}

#[test]
fn a_continuous_query_refuses_a_parameter() {
    let db = Database::new();
    db.execute("CREATE STREAM s (et INT, k INT) WATERMARK (et, 0)")
        .unwrap();
    let sql = "CREATE CONTINUOUS QUERY counts ON s WINDOW TUMBLING (100) \
               EMIT INTO s_counts AS SELECT k, COUNT(*) AS n FROM s WHERE k > ? GROUP BY k";
    refuses_a_parameter(&db, sql, "0", || db.catalog().has_table("s_counts"));
}

#[test]
fn values_cells_take_bound_values() {
    let db = db_with_items();
    let mut s = db.session("admin");
    let sql = "INSERT INTO items VALUES (?, ?, ?), (? + 1, -?, 'z')";
    let params = [
        Value::Int(5),
        Value::Int(50),
        Value::Null,
        Value::Int(5),
        Value::Float(60.5),
    ];
    assert_eq!(s.execute_with_params(sql, &params).unwrap().rows_affected, 2);
    let p = s.prepare(sql).unwrap();
    s.execute("BEGIN").unwrap();
    s.execute_prepared(&p, &params).unwrap();
    s.execute("COMMIT").unwrap();
    let b = db
        .query("SELECT id, price, tag FROM items WHERE id > 4 ORDER BY id, price")
        .unwrap();
    assert_eq!(
        rows(&b),
        [
            "[Int(5), Float(50.0), Null]",
            "[Int(5), Float(50.0), Null]",
            "[Int(6), Float(-60.5), Text(\"z\")]",
            "[Int(6), Float(-60.5), Text(\"z\")]",
        ]
    );
}
