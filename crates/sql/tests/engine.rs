//! End-to-end tests of the SQL engine: parse → plan → optimize → execute.

use flock_sql::types::parse_date;
use flock_sql::{Database, SqlError, Value};

fn db_with_people() -> Database {
    let db = Database::new();
    db.execute("CREATE TABLE people (id INT NOT NULL, name VARCHAR, age INT, salary DOUBLE, dept VARCHAR)")
        .unwrap();
    db.execute(
        "INSERT INTO people VALUES \
         (1, 'alice', 34, 95000.0, 'eng'), \
         (2, 'bob', 28, 72000.0, 'eng'), \
         (3, 'carol', 41, 120000.0, 'mgmt'), \
         (4, 'dan', 23, 51000.0, 'sales'), \
         (5, 'erin', 37, NULL, 'sales')",
    )
    .unwrap();
    db
}

#[test]
fn select_filter_project() {
    let db = db_with_people();
    let b = db
        .query("SELECT name, salary * 1.1 AS bumped FROM people WHERE age > 30 ORDER BY name")
        .unwrap();
    assert_eq!(b.num_rows(), 3);
    assert_eq!(b.schema().names(), vec!["name", "bumped"]);
    assert_eq!(b.column(0).get(0), Value::Text("alice".into()));
    let Value::Float(x) = b.column(1).get(0) else {
        panic!()
    };
    assert!((x - 104500.0).abs() < 1e-6);
    // NULL salary propagates
    assert!(b.column(1).get(2).is_null());
}

#[test]
fn select_star_and_limit_offset() {
    let db = db_with_people();
    let b = db
        .query("SELECT * FROM people ORDER BY id LIMIT 2 OFFSET 1")
        .unwrap();
    assert_eq!(b.num_rows(), 2);
    assert_eq!(b.column(0).get(0), Value::Int(2));
    assert_eq!(b.num_columns(), 5);
}

#[test]
fn aggregates_group_by_having() {
    let db = db_with_people();
    let b = db
        .query(
            "SELECT dept, COUNT(*) AS n, AVG(salary) AS avg_sal, MAX(age) \
             FROM people GROUP BY dept HAVING COUNT(*) >= 2 ORDER BY dept",
        )
        .unwrap();
    assert_eq!(b.num_rows(), 2); // eng, sales
    assert_eq!(b.column(0).get(0), Value::Text("eng".into()));
    assert_eq!(b.column(1).get(0), Value::Int(2));
    let Value::Float(avg) = b.column(2).get(0) else {
        panic!()
    };
    assert!((avg - 83500.0).abs() < 1e-6);
    // sales has one NULL salary -> AVG over the single non-null value
    let Value::Float(sales_avg) = b.column(2).get(1) else {
        panic!()
    };
    assert!((sales_avg - 51000.0).abs() < 1e-6);
}

#[test]
fn global_aggregate_without_group() {
    let db = db_with_people();
    let b = db
        .query("SELECT COUNT(*), SUM(salary), MIN(age), COUNT(salary) FROM people")
        .unwrap();
    assert_eq!(b.num_rows(), 1);
    assert_eq!(b.column(0).get(0), Value::Int(5));
    assert_eq!(b.column(3).get(0), Value::Int(4), "COUNT(col) skips NULL");
}

#[test]
fn count_distinct() {
    let db = db_with_people();
    let b = db.query("SELECT COUNT(DISTINCT dept) FROM people").unwrap();
    assert_eq!(b.column(0).get(0), Value::Int(3));
}

#[test]
fn order_by_aggregate_not_in_select() {
    let db = db_with_people();
    let b = db
        .query("SELECT dept FROM people GROUP BY dept ORDER BY COUNT(*) DESC, dept")
        .unwrap();
    assert_eq!(b.column(0).get(0), Value::Text("eng".into()));
    assert_eq!(b.num_columns(), 1, "hidden sort keys are dropped");
}

#[test]
fn joins_explicit_and_implicit() {
    let db = db_with_people();
    db.execute("CREATE TABLE depts (dept VARCHAR, floor INT)").unwrap();
    db.execute("INSERT INTO depts VALUES ('eng', 3), ('mgmt', 5), ('hr', 1)")
        .unwrap();

    // explicit JOIN .. ON
    let b = db
        .query(
            "SELECT p.name, d.floor FROM people p JOIN depts d ON p.dept = d.dept \
             ORDER BY p.name",
        )
        .unwrap();
    assert_eq!(b.num_rows(), 3); // alice, bob, carol
    assert_eq!(b.column(1).get(2), Value::Int(5));

    // implicit join via comma + WHERE
    let b2 = db
        .query(
            "SELECT p.name FROM people p, depts d \
             WHERE p.dept = d.dept AND d.floor = 3 ORDER BY p.name",
        )
        .unwrap();
    assert_eq!(b2.num_rows(), 2);

    // left join preserves unmatched rows with NULLs
    let b3 = db
        .query(
            "SELECT p.name, d.floor FROM people p LEFT JOIN depts d ON p.dept = d.dept \
             WHERE p.dept = 'sales' ORDER BY p.name",
        )
        .unwrap();
    assert_eq!(b3.num_rows(), 2);
    assert!(b3.column(1).get(0).is_null());
}

#[test]
fn self_join_with_aliases() {
    let db = db_with_people();
    let b = db
        .query(
            "SELECT a.name, b.name FROM people a JOIN people b ON a.dept = b.dept \
             WHERE a.id < b.id ORDER BY a.name",
        )
        .unwrap();
    // pairs within same dept: (alice,bob), (dan,erin)
    assert_eq!(b.num_rows(), 2);
}

#[test]
fn distinct_rows() {
    let db = db_with_people();
    let b = db.query("SELECT DISTINCT dept FROM people ORDER BY dept").unwrap();
    assert_eq!(b.num_rows(), 3);
}

#[test]
fn update_and_delete_create_versions() {
    let db = db_with_people();
    db.execute("UPDATE people SET salary = salary + 1000 WHERE dept = 'eng'")
        .unwrap();
    db.execute("DELETE FROM people WHERE id = 4").unwrap();

    let b = db.query("SELECT COUNT(*) FROM people").unwrap();
    assert_eq!(b.column(0).get(0), Value::Int(4));

    // time travel: version 2 (after initial insert) still has 5 rows
    let b = db.query("SELECT COUNT(*) FROM people VERSION 2").unwrap();
    assert_eq!(b.column(0).get(0), Value::Int(5));

    let catalog = db.catalog();
    let t = catalog.table("people").unwrap();
    assert_eq!(t.current_version(), 4); // create, insert, update, delete
}

#[test]
fn insert_from_select_and_column_list() {
    let db = db_with_people();
    db.execute("CREATE TABLE vips (id INT, name VARCHAR)").unwrap();
    db.execute("INSERT INTO vips SELECT id, name FROM people WHERE salary > 90000")
        .unwrap();
    let b = db.query("SELECT COUNT(*) FROM vips").unwrap();
    assert_eq!(b.column(0).get(0), Value::Int(2));

    db.execute("INSERT INTO vips (name) VALUES ('guest')").unwrap();
    let b = db
        .query("SELECT id FROM vips WHERE name = 'guest'")
        .unwrap();
    assert!(b.column(0).get(0).is_null(), "missing columns default NULL");
}

#[test]
fn not_null_constraint_enforced() {
    let db = db_with_people();
    let err = db.execute("INSERT INTO people (name) VALUES ('ghost')");
    assert!(matches!(err, Err(SqlError::Constraint(_))));
}

#[test]
fn transactions_commit_and_rollback() {
    let db = db_with_people();
    let mut s = db.session("admin");
    s.execute("BEGIN").unwrap();
    s.execute("DELETE FROM people").unwrap();
    let inside = s.query("SELECT COUNT(*) FROM people").unwrap();
    assert_eq!(inside.column(0).get(0), Value::Int(0));
    // other sessions still see the data
    let outside = db.query("SELECT COUNT(*) FROM people").unwrap();
    assert_eq!(outside.column(0).get(0), Value::Int(5));
    s.execute("ROLLBACK").unwrap();
    let after = db.query("SELECT COUNT(*) FROM people").unwrap();
    assert_eq!(after.column(0).get(0), Value::Int(5));

    s.execute("BEGIN").unwrap();
    s.execute("DELETE FROM people WHERE id = 1").unwrap();
    s.execute("COMMIT").unwrap();
    let after = db.query("SELECT COUNT(*) FROM people").unwrap();
    assert_eq!(after.column(0).get(0), Value::Int(4));
}

#[test]
fn write_write_conflict_detected() {
    let db = db_with_people();
    let mut s1 = db.session("admin");
    let mut s2 = db.session("admin");
    s1.execute("BEGIN").unwrap();
    s2.execute("BEGIN").unwrap();
    s1.execute("UPDATE people SET age = 99 WHERE id = 1").unwrap();
    s2.execute("UPDATE people SET age = 11 WHERE id = 2").unwrap();
    s1.execute("COMMIT").unwrap();
    let err = s2.execute("COMMIT");
    assert!(matches!(err, Err(SqlError::Transaction(_))));
}

#[test]
fn access_control_enforced_and_audited() {
    let db = db_with_people();
    db.execute("CREATE USER alice").unwrap();
    let mut alice = db.session("alice");
    let err = alice.query("SELECT * FROM people");
    assert!(matches!(err, Err(SqlError::AccessDenied(_))));

    db.execute("GRANT SELECT ON TABLE people TO alice").unwrap();
    alice.query("SELECT * FROM people").unwrap();
    let err = alice.execute("DELETE FROM people");
    assert!(matches!(err, Err(SqlError::AccessDenied(_))));

    db.execute("REVOKE SELECT ON TABLE people FROM alice").unwrap();
    assert!(alice.query("SELECT * FROM people").is_err());

    let audit = db.audit_log();
    assert!(audit.iter().any(|a| a.action == "ACCESS DENIED" && a.user == "alice"));
    assert!(audit.iter().any(|a| a.action == "GRANT"));
}

#[test]
fn views_expand() {
    let db = db_with_people();
    db.execute("CREATE VIEW engineers AS SELECT name, salary FROM people WHERE dept = 'eng'")
        .unwrap();
    let b = db.query("SELECT * FROM engineers ORDER BY name").unwrap();
    assert_eq!(b.num_rows(), 2);
    let b = db
        .query("SELECT e.name FROM engineers e WHERE e.salary > 80000")
        .unwrap();
    assert_eq!(b.num_rows(), 1);
}

#[test]
fn subqueries_in_where_and_from() {
    let db = db_with_people();
    let b = db
        .query(
            "SELECT name FROM people WHERE salary > (SELECT AVG(salary) FROM people) \
             ORDER BY name",
        )
        .unwrap();
    assert_eq!(b.num_rows(), 2); // alice, carol

    let b = db
        .query("SELECT name FROM people WHERE dept IN (SELECT dept FROM people WHERE age > 40)")
        .unwrap();
    assert_eq!(b.num_rows(), 1); // carol

    let b = db
        .query("SELECT COUNT(*) FROM (SELECT dept FROM people WHERE age > 25) t")
        .unwrap();
    assert_eq!(b.column(0).get(0), Value::Int(4));
}

#[test]
fn exists_subquery() {
    let db = db_with_people();
    let b = db
        .query("SELECT COUNT(*) FROM people WHERE EXISTS (SELECT 1 FROM people WHERE age > 100)")
        .unwrap();
    assert_eq!(b.column(0).get(0), Value::Int(0));
}

#[test]
fn scalar_expressions_and_functions() {
    let db = Database::new();
    let b = db
        .query("SELECT 1 + 2 * 3, UPPER('ab') || 'c', COALESCE(NULL, 42), ABS(-7)")
        .unwrap();
    assert_eq!(b.column(0).get(0), Value::Int(7));
    assert_eq!(b.column(1).get(0), Value::Text("ABc".into()));
    assert_eq!(b.column(2).get(0), Value::Int(42));
    assert_eq!(b.column(3).get(0), Value::Int(7));
}

#[test]
fn date_literals_and_functions() {
    let db = Database::new();
    db.execute("CREATE TABLE ev (d DATE)").unwrap();
    db.execute("INSERT INTO ev VALUES ('1996-03-15'), ('1997-06-01')")
        .unwrap();
    let b = db
        .query("SELECT YEAR(d) FROM ev WHERE d >= DATE '1997-01-01'")
        .unwrap();
    assert_eq!(b.num_rows(), 1);
    assert_eq!(b.column(0).get(0), Value::Int(1997));
    let b = db.query("SELECT d + 17 FROM ev ORDER BY d LIMIT 1").unwrap();
    assert_eq!(
        b.column(0).get(0),
        Value::Date(parse_date("1996-04-01").unwrap())
    );
}

#[test]
fn explain_renders_plan() {
    let db = db_with_people();
    let res = db
        .execute("EXPLAIN SELECT name FROM people WHERE age > 30")
        .unwrap();
    let text: Vec<String> = {
        let b = res.batch.unwrap();
        (0..b.num_rows()).map(|i| b.column(0).get(i).to_string()).collect()
    };
    let joined = text.join("\n");
    assert!(joined.contains("Scan: people"));
    assert!(joined.contains("Filter:"));
    // projection pruning kicked in: scan carries a projection list
    assert!(joined.contains("projection="), "expected pruned scan: {joined}");
}

#[test]
fn query_log_records_reads_and_writes() {
    let db = db_with_people();
    db.query("SELECT * FROM people").unwrap();
    let log = db.query_log();
    let last = log.last().unwrap();
    assert_eq!(last.tables_read, vec!["people".to_string()]);
    let insert_entry = log
        .iter()
        .find(|e| e.kind == flock_sql::engine::StatementKind::Insert)
        .unwrap();
    assert_eq!(insert_entry.tables_written, vec!["people".to_string()]);
    assert_eq!(insert_entry.versions_written[0].1, 2);
}

#[test]
fn parameters_bind() {
    let db = db_with_people();
    let mut s = db.session("admin");
    let res = s
        .execute_with_params(
            "SELECT name FROM people WHERE age > ? AND dept = ?",
            &[Value::Int(30), Value::Text("eng".into())],
        )
        .unwrap();
    assert_eq!(res.batch.unwrap().num_rows(), 1);
}

#[test]
fn case_expressions_run() {
    let db = db_with_people();
    let b = db
        .query(
            "SELECT name, CASE WHEN age < 30 THEN 'young' WHEN age < 40 THEN 'mid' \
             ELSE 'senior' END AS bucket FROM people ORDER BY id",
        )
        .unwrap();
    assert_eq!(b.column(1).get(0), Value::Text("mid".into()));
    assert_eq!(b.column(1).get(3), Value::Text("young".into()));
    assert_eq!(b.column(1).get(2), Value::Text("senior".into()));
}

#[test]
fn failed_statement_aborts_transaction() {
    let db = db_with_people();
    let mut s = db.session("admin");
    s.execute("BEGIN").unwrap();
    s.execute("DELETE FROM people WHERE id = 1").unwrap();
    assert!(s.execute("SELECT * FROM nonexistent").is_err());
    assert!(!s.in_transaction(), "error aborts the transaction");
    // the delete was rolled back
    let b = db.query("SELECT COUNT(*) FROM people").unwrap();
    assert_eq!(b.column(0).get(0), Value::Int(5));
}

#[test]
fn in_list_and_between_and_like() {
    let db = db_with_people();
    let b = db
        .query("SELECT name FROM people WHERE dept IN ('eng', 'mgmt') ORDER BY name")
        .unwrap();
    assert_eq!(b.num_rows(), 3);
    let b = db
        .query("SELECT name FROM people WHERE age BETWEEN 28 AND 37 ORDER BY name")
        .unwrap();
    assert_eq!(b.num_rows(), 3);
    let b = db
        .query("SELECT name FROM people WHERE name LIKE '%a%' ORDER BY name")
        .unwrap();
    assert_eq!(b.num_rows(), 3); // alice, carol, dan
}

#[test]
fn show_tables_respects_grants() {
    let db = db_with_people();
    db.execute("CREATE TABLE secrets (k VARCHAR)").unwrap();
    db.execute("CREATE USER viewer").unwrap();
    db.execute("GRANT SELECT ON TABLE people TO viewer").unwrap();

    // admin sees everything
    let all = db.query("SHOW TABLES").unwrap();
    assert_eq!(all.num_rows(), 2);

    // viewer only sees granted tables
    let mut viewer = db.session("viewer");
    let visible = viewer.query("SHOW TABLES").unwrap();
    assert_eq!(visible.num_rows(), 1);
    assert_eq!(visible.column(0).get(0), Value::Text("people".into()));
    // row/version summary is present
    assert_eq!(visible.column(2).get(0), Value::Int(5));
}

#[test]
fn describe_profiles_columns_from_stats() {
    let db = db_with_people();
    let b = db.query("DESCRIBE people").unwrap();
    assert_eq!(b.num_rows(), 5);
    // salary column: one NULL, min/max from data
    let salary_row = (0..b.num_rows())
        .find(|&r| b.column(0).get(r) == Value::Text("salary".into()))
        .unwrap();
    assert_eq!(b.column(3).get(salary_row), Value::Int(1)); // nulls
    assert_eq!(b.column(5).get(salary_row), Value::Float(51000.0)); // min
    assert_eq!(b.column(6).get(salary_row), Value::Float(120000.0)); // max
    // text column has no numeric range
    let name_row = (0..b.num_rows())
        .find(|&r| b.column(0).get(r) == Value::Text("name".into()))
        .unwrap();
    assert!(b.column(5).get(name_row).is_null());
    assert_eq!(b.column(4).get(name_row), Value::Int(5)); // distinct names

    // DESCRIBE requires SELECT
    db.execute("CREATE USER nobody").unwrap();
    let mut nobody = db.session("nobody");
    assert!(matches!(
        nobody.execute("DESCRIBE people"),
        Err(SqlError::AccessDenied(_))
    ));
}

#[test]
fn union_and_union_all() {
    let db = db_with_people();
    // UNION ALL keeps duplicates
    let b = db
        .query("SELECT dept FROM people UNION ALL SELECT dept FROM people")
        .unwrap();
    assert_eq!(b.num_rows(), 10);
    // plain UNION dedupes
    let b = db
        .query("SELECT dept FROM people UNION SELECT dept FROM people ORDER BY dept")
        .unwrap();
    assert_eq!(b.num_rows(), 3);
    assert_eq!(b.column(0).get(0), Value::Text("eng".into()));
    // mixed types unify (INT + DOUBLE -> DOUBLE)
    let b = db
        .query("SELECT age FROM people UNION ALL SELECT salary FROM people WHERE salary IS NOT NULL")
        .unwrap();
    assert_eq!(b.num_rows(), 9);
    assert!(matches!(b.column(0).get(0), Value::Float(_) | Value::Int(_)));
    // arity mismatch rejected
    assert!(db
        .query("SELECT age FROM people UNION SELECT age, salary FROM people")
        .is_err());
    // aggregates over a union
    let b = db
        .query(
            "SELECT COUNT(*) FROM (SELECT name FROM people WHERE dept = 'eng' \
             UNION ALL SELECT name FROM people WHERE dept = 'sales') u",
        )
        .unwrap();
    assert_eq!(b.column(0).get(0), Value::Int(4));
}

#[test]
fn stddev_and_variance_aggregates() {
    let db = db_with_people();
    let b = db
        .query("SELECT dept, STDDEV(age), VARIANCE(age) FROM people GROUP BY dept ORDER BY dept")
        .unwrap();
    assert_eq!(b.num_rows(), 3);
    // eng: ages 34, 28 -> mean 31, var 9, stddev 3
    assert_eq!(b.column(1).get(0), Value::Float(3.0));
    assert_eq!(b.column(2).get(0), Value::Float(9.0));
    // global form
    let g = db.query("SELECT STDDEV(salary) FROM people").unwrap();
    assert!(g.column(0).get(0).as_f64().unwrap() > 0.0);
}

#[test]
fn error_messages_are_actionable() {
    let db = db_with_people();
    let msg = |r: Result<flock_sql::RecordBatch, SqlError>| r.unwrap_err().to_string();

    // unknown objects name the object
    assert!(msg(db.query("SELECT * FROM ghosts")).contains("'ghosts'"));
    assert!(msg(db.query("SELECT ghost_col FROM people")).contains("'ghost_col'"));
    assert!(msg(db.query("SELECT NOSUCHFN(age) FROM people")).contains("'NOSUCHFN'"));

    // ambiguity is reported as such
    db.execute("CREATE TABLE people2 (id INT, name VARCHAR)").unwrap();
    db.execute("INSERT INTO people2 VALUES (1, 'x')").unwrap();
    let e = msg(db.query("SELECT id FROM people, people2"));
    assert!(e.contains("ambiguous"), "{e}");

    // aggregates in WHERE are rejected with a clear clause name
    let e = msg(db.query("SELECT * FROM people WHERE COUNT(*) > 1"));
    assert!(e.contains("WHERE"), "{e}");

    // non-grouped columns are called out
    let e = msg(db.query("SELECT name, COUNT(*) FROM people GROUP BY dept"));
    assert!(e.contains("'name'") && e.contains("GROUP BY"), "{e}");

    // bad ordinal in ORDER BY
    let e = msg(db.query("SELECT name FROM people ORDER BY 7"));
    assert!(e.contains("out of range"), "{e}");

    // time-travel to a missing version names the latest
    let e = msg(db.query("SELECT * FROM people VERSION 99"));
    assert!(e.contains("99") && e.contains("latest"), "{e}");
}

#[test]
fn type_errors_surface_at_plan_time() {
    let db = db_with_people();
    // incompatible arithmetic is a planning error, not a runtime panic
    let e = db.query("SELECT name + dept FROM people");
    assert!(matches!(e, Err(SqlError::Plan(_))), "{e:?}");
    // CASE branch type conflicts
    let e = db.query("SELECT CASE WHEN age > 30 THEN 'old' ELSE 1 END FROM people");
    assert!(matches!(e, Err(SqlError::Plan(_))), "{e:?}");
}

#[test]
fn alter_table_add_and_drop_columns() {
    let db = db_with_people();
    db.execute("ALTER TABLE people ADD COLUMN bonus DOUBLE").unwrap();
    // new column reads as NULL and is writable
    let b = db.query("SELECT bonus FROM people").unwrap();
    assert!(b.column(0).get(0).is_null());
    db.execute("UPDATE people SET bonus = salary * 0.1 WHERE dept = 'eng'")
        .unwrap();
    let b = db
        .query("SELECT COUNT(bonus) FROM people")
        .unwrap();
    assert_eq!(b.column(0).get(0), Value::Int(2));

    // drop it; queries referencing it now fail
    db.execute("ALTER TABLE people DROP COLUMN bonus").unwrap();
    assert!(db.query("SELECT bonus FROM people").is_err());

    // but time travel still sees the old schema & data
    let b = db
        .query("SELECT bonus FROM people VERSION 4 WHERE bonus IS NOT NULL")
        .unwrap();
    assert_eq!(b.num_rows(), 2);

    // guard rails
    assert!(db.execute("ALTER TABLE people ADD COLUMN id INT").is_err());
    assert!(db.execute("ALTER TABLE people DROP COLUMN ghost").is_err());
    // audit captured the evolution
    assert!(db
        .audit_log()
        .iter()
        .any(|a| a.action == "ALTER TABLE" && a.detail.contains("bonus")));
}

// ------------------------------------------------------- observability

#[test]
fn explain_analyze_returns_annotated_plan_tree() {
    let db = db_with_people();
    let b = db
        .query("EXPLAIN ANALYZE SELECT dept, AVG(salary) FROM people WHERE age > 25 GROUP BY dept")
        .unwrap();
    let tree: String = (0..b.num_rows())
        .map(|i| match b.column(0).get(i) {
            Value::Text(s) => s + "\n",
            other => panic!("expected text plan line, got {other:?}"),
        })
        .collect();
    // annotated operators with measured row counts and timings
    assert!(tree.contains("HashAggregate"), "{tree}");
    assert!(tree.contains("time="), "{tree}");
    // one Scan line: it read all 5 people and ran the filter fused in
    assert!(tree.contains("Scan [rows=5, fused filter]"), "{tree}");
    assert!(!tree.contains("Filter ["), "{tree}");
    // plain EXPLAIN stays a static tree without measurements
    let b = db
        .query("EXPLAIN SELECT dept FROM people")
        .unwrap();
    let static_tree: String = (0..b.num_rows())
        .map(|i| match b.column(0).get(i) {
            Value::Text(s) => s + "\n",
            other => panic!("{other:?}"),
        })
        .collect();
    assert!(!static_tree.contains("time="), "{static_tree}");
}

#[test]
fn flock_metrics_table_reports_cumulative_counters() {
    let db = db_with_people();
    db.query("SELECT * FROM people").unwrap();
    db.query("SELECT COUNT(*) FROM people").unwrap();
    let b = db
        .query("SELECT value FROM flock_metrics WHERE metric = 'queries'")
        .unwrap();
    // two queries ran before this one
    assert_eq!(b.column(0).get(0), Value::Int(2));
    let b = db
        .query("SELECT value FROM flock_metrics WHERE metric = 'rows_scanned'")
        .unwrap();
    let Value::Int(scanned) = b.column(0).get(0) else {
        panic!()
    };
    // 5 rows per people scan, the metrics scans themselves excluded at read time
    assert!(scanned >= 10, "{scanned}");

    // a real user table of the same name shadows the virtual one
    db.execute("CREATE TABLE flock_metrics (metric VARCHAR, value INT)")
        .unwrap();
    db.execute("INSERT INTO flock_metrics VALUES ('mine', 42)")
        .unwrap();
    let b = db.query("SELECT value FROM flock_metrics").unwrap();
    assert_eq!(b.num_rows(), 1);
    assert_eq!(b.column(0).get(0), Value::Int(42));
}

#[test]
fn flock_metrics_is_readable_by_unprivileged_users() {
    let db = db_with_people();
    db.execute("CREATE USER intern").unwrap();
    let mut session = db.session("intern");
    // no grants on people...
    assert!(session.query("SELECT * FROM people").is_err());
    // ...but the virtual metrics table is world-readable
    let b = session.query("SELECT metric FROM flock_metrics").unwrap();
    assert!(b.num_rows() >= 6);
}

#[test]
fn query_log_records_runtime_metrics() {
    let db = db_with_people();
    db.query("SELECT * FROM people WHERE age > 30").unwrap();
    let log = db.query_log();
    let q = log
        .iter()
        .rfind(|e| e.sql.contains("age > 30"))
        .expect("query logged");
    assert_eq!(q.rows_scanned, 5);
    assert_eq!(q.rows_returned, 3);
    // insert entries carry no runtime numbers
    let ins = log
        .iter()
        .find(|e| e.sql.starts_with("INSERT"))
        .expect("insert logged");
    assert_eq!(ins.rows_scanned, 0);
    assert_eq!(ins.rows_returned, 0);
}

#[test]
fn last_query_metrics_expose_operator_breakdown() {
    let db = db_with_people();
    db.query("SELECT dept, COUNT(*) FROM people GROUP BY dept ORDER BY dept")
        .unwrap();
    let snap = db.last_query_metrics().expect("metrics recorded");
    let ops: Vec<&str> = snap.walk().iter().map(|(_, n)| n.name.as_str()).collect();
    assert!(ops.contains(&"Sort"), "{ops:?}");
    assert!(ops.contains(&"HashAggregate"), "{ops:?}");
    assert!(ops.contains(&"Scan"), "{ops:?}");
    assert_eq!(snap.rows_scanned(), 5);
    assert_eq!(snap.rows_out, 3); // eng, mgmt, sales
}

// ===================================================================
// Subqueries are queries: same access control, same audit trail
// ===================================================================

/// `people` readable by `ann`; `payroll` and the `risk` model are not.
fn db_with_payroll() -> Database {
    let db = db_with_people();
    db.execute("CREATE TABLE payroll (id INT, salary DOUBLE)").unwrap();
    db.execute("INSERT INTO payroll VALUES (1, 95000.0), (3, 120000.0)")
        .unwrap();
    db.execute("CREATE USER ann").unwrap();
    db.execute("GRANT SELECT ON TABLE people TO ann").unwrap();
    db
}

fn denied_audits(db: &Database, object: &str) -> usize {
    db.audit_log()
        .iter()
        .filter(|a| a.user == "ann" && a.action == "ACCESS DENIED" && a.object == object)
        .count()
}

#[test]
fn subqueries_cannot_read_tables_the_user_cannot() {
    let db = db_with_payroll();
    let mut ann = db.session("ann");
    let forms = [
        "SELECT (SELECT MAX(salary) FROM payroll)",
        "SELECT name FROM people WHERE id IN (SELECT id FROM payroll)",
        "SELECT name FROM people WHERE EXISTS (SELECT 1 FROM payroll)",
        // plain EXPLAIN skips the ACL of the plan it shows, but the
        // subquery actually executes at plan time
        "EXPLAIN SELECT (SELECT MAX(salary) FROM payroll)",
        // ... and so does one nested in a derived table or another subquery
        "SELECT n FROM (SELECT (SELECT COUNT(*) FROM payroll) AS n) AS d",
        "SELECT name FROM people WHERE id IN \
         (SELECT id FROM people WHERE salary > (SELECT MIN(salary) FROM payroll))",
    ];
    for (i, sql) in forms.iter().enumerate() {
        let err = ann.execute(sql).unwrap_err();
        assert!(matches!(err, SqlError::AccessDenied(_)), "{sql}: {err}");
        assert_eq!(denied_audits(&db, "payroll"), i + 1, "{sql}: denial not audited");
    }
    // inside an explicit transaction too (and the denial survives its abort)
    ann.execute("BEGIN").unwrap();
    assert!(ann.execute(forms[0]).is_err());
    assert!(!ann.in_transaction());
    assert_eq!(denied_audits(&db, "payroll"), forms.len() + 1);

    // the same statements as admin return what they always did
    let mut admin = db.session("admin");
    let b = admin.query(forms[0]).unwrap();
    assert_eq!(b.column(0).get(0), Value::Float(120000.0));
    assert_eq!(admin.query(forms[1]).unwrap().num_rows(), 2);
    assert_eq!(admin.query(forms[2]).unwrap().num_rows(), 5);
    assert!(admin.execute(forms[3]).unwrap().batch.is_some());
    // and a grant opens them to ann
    db.execute("GRANT SELECT ON TABLE payroll TO ann").unwrap();
    assert_eq!(ann.query(forms[1]).unwrap().num_rows(), 2);
}

#[test]
fn subqueries_cannot_score_held_or_ungranted_models() {
    use flock_sql::ast::PredictStrategy;
    use flock_sql::udf::InferenceProvider;
    use flock_sql::{ColumnVector, DataType};
    struct Doubler;
    impl InferenceProvider for Doubler {
        fn output_type(&self, _model: &str) -> flock_sql::Result<DataType> {
            Ok(DataType::Float)
        }
        fn input_arity(&self, _model: &str) -> flock_sql::Result<usize> {
            Ok(1)
        }
        fn predict(
            &self,
            _model: &str,
            inputs: &[ColumnVector],
            _strategy: PredictStrategy,
            _user: &str,
        ) -> flock_sql::Result<ColumnVector> {
            let vals: Vec<Value> = (0..inputs[0].len())
                .map(|i| Value::Float(inputs[0].get(i).as_f64().unwrap_or(0.0) * 2.0))
                .collect();
            ColumnVector::from_values(DataType::Float, &vals)
        }
    }
    let db = db_with_payroll();
    db.set_inference_provider(std::sync::Arc::new(Doubler));
    let mut admin = db.session("admin");
    admin
        .create_extension_object("model", "risk", vec![1], flock_json::json!({}))
        .unwrap();
    let q = "SELECT name FROM people WHERE EXISTS (SELECT PREDICT(risk, age) FROM people)";

    // no EXECUTE grant: the subquery's PREDICT is refused and audited
    let mut ann = db.session("ann");
    let err = ann.execute(q).unwrap_err();
    assert!(matches!(err, SqlError::AccessDenied(_)), "{err}");
    assert_eq!(denied_audits(&db, "risk"), 1);
    assert_eq!(admin.query(q).unwrap().num_rows(), 5);

    // granted, then placed on policy hold: refused again, for everyone
    db.execute("GRANT EXECUTE ON MODEL risk TO ann").unwrap();
    assert_eq!(ann.query(q).unwrap().num_rows(), 5);
    admin
        .update_extension_object("model", "risk", vec![1], flock_json::json!({"hold": true}))
        .unwrap();
    for s in [&mut ann, &mut admin] {
        let err = s.execute(q).unwrap_err();
        assert!(err.to_string().contains("on hold"), "{err}");
    }
    let blocked = db.audit_log().iter().filter(|a| a.action == "HOLD BLOCKED").count();
    assert_eq!(blocked, 2);
}

#[test]
fn subqueries_run_under_the_statement_budget() {
    use flock_sql::exec::ExecOptions;
    let db = db_with_people();
    db.set_exec_options(ExecOptions {
        max_rows_budget: 3,
        ..ExecOptions::default()
    });
    // the outer query alone fits (1 row); its 5-row subquery scan does not
    let err = db
        .query("SELECT (SELECT COUNT(*) FROM people) AS n")
        .unwrap_err();
    assert!(matches!(err, SqlError::Budget(_)), "{err}");
}

// ===================================================================
// CREATE VIEW stores the parsed query's own text
// ===================================================================

#[test]
fn create_view_body_survives_any_spacing_or_case_of_as() {
    use flock_sql::{DurabilityOptions, MemFs};
    let mem = MemFs::new();
    let db = Database::open_with_fs(mem.clone(), DurabilityOptions::default()).unwrap();
    db.execute("CREATE TABLE t (a INT)").unwrap();
    db.execute("INSERT INTO t VALUES (1), (2), (3)").unwrap();
    db.execute("CREATE VIEW v_newline\nAS\nSELECT a FROM t WHERE a > 1").unwrap();
    db.execute("CREATE VIEW v_tab\tAS\tSELECT a FROM t WHERE a > 1;").unwrap();
    db.execute("create view v_mixed As SELECT a FROM t WHERE a > 1 ; ").unwrap();
    db.execute("CREATE VIEW v_comment /* AS */ AS -- AS \n SELECT a FROM t WHERE a > 1").unwrap();
    let views = ["v_newline", "v_tab", "v_mixed", "v_comment"];
    for v in views {
        let b = db.query(&format!("SELECT a FROM {v} ORDER BY a")).unwrap();
        assert_eq!(b.num_rows(), 2, "{v}");
        let stored = db.catalog().view(v).unwrap().sql.clone();
        assert_eq!(stored, "SELECT a FROM t WHERE a > 1", "{v}");
    }
    drop(db);
    let rec = Database::open_with_fs(mem.crash_image(), DurabilityOptions::default()).unwrap();
    for v in views {
        assert_eq!(rec.query(&format!("SELECT a FROM {v}")).unwrap().num_rows(), 2, "{v}");
    }
}

// ===================================================================
// Scripts: each statement runs (and is recorded) under its own text
// ===================================================================

#[test]
fn script_statements_are_logged_and_stored_under_their_own_text() {
    let db = Database::new();
    let mut s = db.session("admin");
    let results = s
        .execute_script(
            "CREATE TABLE w (a INT); -- a comment; with a semicolon\n\
             INSERT INTO w VALUES (1), (2);;\n\
             CREATE VIEW big AS SELECT a FROM w WHERE a > 1;\n\
             INSERT INTO w VALUES (3 /* ; */);\n\
             SELECT a FROM big WHERE 'x;y' <> 'z' ORDER BY a",
        )
        .unwrap();
    assert_eq!(results.len(), 5);
    assert_eq!(results[4].batch.as_ref().unwrap().num_rows(), 2);
    assert_eq!(db.catalog().view("big").unwrap().sql, "SELECT a FROM w WHERE a > 1");
    let logged: Vec<String> = db.query_log().iter().map(|e| e.sql.clone()).collect();
    assert_eq!(
        logged,
        vec![
            "CREATE TABLE w (a INT)",
            "INSERT INTO w VALUES (1), (2)",
            "INSERT INTO w VALUES (3 /* ; */)",
            "SELECT a FROM big WHERE 'x;y' <> 'z' ORDER BY a",
        ]
    );
    // a failing statement stops the script; earlier ones stay committed
    assert!(s.execute_script("INSERT INTO w VALUES (4); SELECT nope FROM w; INSERT INTO w VALUES (5)").is_err());
    assert_eq!(db.query("SELECT COUNT(*) FROM w").unwrap().column(0).get(0), Value::Int(4));
}
