//! Edge-case tests of the physical execution layer.

use flock_sql::exec::ExecOptions;
use flock_sql::{Database, Value};

fn db() -> Database {
    let db = Database::new();
    db.execute("CREATE TABLE nums (x INT, y DOUBLE, s VARCHAR)").unwrap();
    db.execute(
        "INSERT INTO nums VALUES (1, 1.5, 'a'), (2, 2.5, 'b'), (3, NULL, 'c'), \
         (4, 4.5, NULL), (5, 5.5, 'e')",
    )
    .unwrap();
    db
}

#[test]
fn empty_table_operators() {
    let db = Database::new();
    db.execute("CREATE TABLE e (a INT, b VARCHAR)").unwrap();
    // every operator must handle zero rows
    assert_eq!(db.query("SELECT * FROM e").unwrap().num_rows(), 0);
    assert_eq!(
        db.query("SELECT COUNT(*), SUM(a) FROM e").unwrap().column(0).get(0),
        Value::Int(0)
    );
    assert!(db
        .query("SELECT SUM(a) FROM e")
        .unwrap()
        .column(0)
        .get(0)
        .is_null());
    assert_eq!(db.query("SELECT a FROM e ORDER BY a").unwrap().num_rows(), 0);
    assert_eq!(db.query("SELECT DISTINCT b FROM e").unwrap().num_rows(), 0);
    assert_eq!(
        db.query("SELECT b, COUNT(*) FROM e GROUP BY b").unwrap().num_rows(),
        0,
        "grouped aggregate over empty input has no groups"
    );
    db.execute("CREATE TABLE f (a INT)").unwrap();
    assert_eq!(
        db.query("SELECT * FROM e, f").unwrap().num_rows(),
        0,
        "cross join with empty side"
    );
    assert_eq!(
        db.query("SELECT * FROM e JOIN f ON e.a = f.a").unwrap().num_rows(),
        0
    );
    // left join: empty left -> empty output
    assert_eq!(
        db.query("SELECT * FROM e LEFT JOIN f ON e.a = f.a").unwrap().num_rows(),
        0
    );
}

#[test]
fn limit_and_offset_out_of_bounds() {
    let db = db();
    assert_eq!(db.query("SELECT x FROM nums LIMIT 100").unwrap().num_rows(), 5);
    assert_eq!(db.query("SELECT x FROM nums LIMIT 0").unwrap().num_rows(), 0);
    assert_eq!(
        db.query("SELECT x FROM nums LIMIT 10 OFFSET 99").unwrap().num_rows(),
        0
    );
    assert_eq!(
        db.query("SELECT x FROM nums ORDER BY x LIMIT 2 OFFSET 4")
            .unwrap()
            .num_rows(),
        1
    );
}

#[test]
fn nulls_in_join_keys_never_match() {
    let db = Database::new();
    db.execute("CREATE TABLE l (k INT)").unwrap();
    db.execute("INSERT INTO l VALUES (1), (NULL), (2)").unwrap();
    db.execute("CREATE TABLE r (k INT)").unwrap();
    db.execute("INSERT INTO r VALUES (NULL), (2), (3)").unwrap();
    let b = db
        .query("SELECT l.k FROM l JOIN r ON l.k = r.k")
        .unwrap();
    assert_eq!(b.num_rows(), 1);
    assert_eq!(b.column(0).get(0), Value::Int(2));
    // left join keeps null-key rows unmatched
    let b = db
        .query("SELECT l.k, r.k FROM l LEFT JOIN r ON l.k = r.k ORDER BY l.k")
        .unwrap();
    assert_eq!(b.num_rows(), 3);
    assert!(b.column(1).get(0).is_null(), "NULL key row null-extended");
}

#[test]
fn duplicate_join_matches_multiply() {
    let db = Database::new();
    db.execute("CREATE TABLE a (k INT)").unwrap();
    db.execute("INSERT INTO a VALUES (1), (1)").unwrap();
    db.execute("CREATE TABLE b (k INT)").unwrap();
    db.execute("INSERT INTO b VALUES (1), (1), (1)").unwrap();
    let rows = db
        .query("SELECT COUNT(*) FROM a JOIN b ON a.k = b.k")
        .unwrap();
    assert_eq!(rows.column(0).get(0), Value::Int(6));
}

#[test]
fn non_equi_join_condition() {
    let db = Database::new();
    db.execute("CREATE TABLE lo (v INT)").unwrap();
    db.execute("INSERT INTO lo VALUES (1), (5), (9)").unwrap();
    db.execute("CREATE TABLE hi (w INT)").unwrap();
    db.execute("INSERT INTO hi VALUES (4), (8)").unwrap();
    let b = db
        .query("SELECT v, w FROM lo JOIN hi ON lo.v < hi.w ORDER BY v, w")
        .unwrap();
    // pairs: (1,4), (1,8), (5,8)
    assert_eq!(b.num_rows(), 3);
    assert_eq!(b.row(2), vec![Value::Int(5), Value::Int(8)]);
}

#[test]
fn sort_null_and_mixed_ordering() {
    // Regression test: ORDER BY used to put NULLs first ascending. The
    // documented default is NULLS LAST (ascending); DESC reverses the whole
    // order, so NULLs come first descending — PostgreSQL semantics.
    let db = db();
    let b = db.query("SELECT y FROM nums ORDER BY y").unwrap();
    assert!(
        b.column(0).get(b.num_rows() - 1).is_null(),
        "NULLs sort last ascending"
    );
    assert_eq!(b.column(0).get(0), Value::Float(1.5));
    let b = db.query("SELECT y FROM nums ORDER BY y DESC").unwrap();
    assert!(b.column(0).get(0).is_null(), "NULLs first descending");
    assert_eq!(b.column(0).get(b.num_rows() - 1), Value::Float(1.5));
}

#[test]
fn sort_places_nan_between_numbers_and_null() {
    let db = Database::new();
    db.execute("CREATE TABLE f (v DOUBLE)").unwrap();
    db.execute("INSERT INTO f VALUES (1.0), (NULL), (SQRT(-1.0)), (-1.0)")
        .unwrap();
    let b = db.query("SELECT v FROM f ORDER BY v").unwrap();
    assert_eq!(b.column(0).get(0), Value::Float(-1.0));
    assert_eq!(b.column(0).get(1), Value::Float(1.0));
    assert!(matches!(b.column(0).get(2), Value::Float(f) if f.is_nan()));
    assert!(b.column(0).get(3).is_null(), "NULL sorts after NaN ascending");
    let b = db.query("SELECT v FROM f ORDER BY v DESC").unwrap();
    assert!(b.column(0).get(0).is_null());
    assert!(matches!(b.column(0).get(1), Value::Float(f) if f.is_nan()));
    assert_eq!(b.column(0).get(3), Value::Float(-1.0));
}

#[test]
fn serial_and_parallel_exec_options_agree() {
    let db = db();
    let q = "SELECT x * 2, UPPER(s) FROM nums WHERE x > 1 ORDER BY x";
    db.set_exec_options(ExecOptions::serial());
    let serial = db.query(q).unwrap();
    db.set_exec_options(ExecOptions {
        threads: 4,
        parallel_row_threshold: 1,
        morsel_rows: 2,
        ..ExecOptions::default()
    });
    let parallel = db.query(q).unwrap();
    assert_eq!(serial.num_rows(), parallel.num_rows());
    for r in 0..serial.num_rows() {
        for (a, b) in serial.row(r).iter().zip(parallel.row(r)) {
            // group_eq: NULL == NULL (Value's SQL PartialEq has NULL != NULL)
            assert!(a.group_eq(&b), "row {r}: {a:?} vs {b:?}");
        }
    }
}

#[test]
fn group_by_expression_keys() {
    let db = db();
    let b = db
        .query("SELECT x % 2, COUNT(*) FROM nums GROUP BY x % 2 ORDER BY 1")
        .unwrap();
    assert_eq!(b.num_rows(), 2);
    assert_eq!(b.column(1).get(0), Value::Int(2)); // evens: 2, 4
    assert_eq!(b.column(1).get(1), Value::Int(3)); // odds: 1, 3, 5
}

#[test]
fn having_without_group_by() {
    let db = db();
    let some = db
        .query("SELECT COUNT(*) FROM nums HAVING COUNT(*) > 3")
        .unwrap();
    assert_eq!(some.num_rows(), 1);
    let none = db
        .query("SELECT COUNT(*) FROM nums HAVING COUNT(*) > 100")
        .unwrap();
    assert_eq!(none.num_rows(), 0);
}

#[test]
fn string_functions_on_null_rows() {
    let db = db();
    let b = db
        .query("SELECT UPPER(s), LENGTH(s) FROM nums ORDER BY x")
        .unwrap();
    assert!(b.column(0).get(3).is_null());
    assert!(b.column(1).get(3).is_null());
    assert_eq!(b.column(0).get(0), Value::Text("A".into()));
}

#[test]
fn three_way_join_chain() {
    let db = Database::new();
    db.execute("CREATE TABLE t1 (a INT)").unwrap();
    db.execute("CREATE TABLE t2 (a INT, b INT)").unwrap();
    db.execute("CREATE TABLE t3 (b INT, label VARCHAR)").unwrap();
    db.execute("INSERT INTO t1 VALUES (1), (2)").unwrap();
    db.execute("INSERT INTO t2 VALUES (1, 10), (2, 20)").unwrap();
    db.execute("INSERT INTO t3 VALUES (10, 'ten'), (20, 'twenty')").unwrap();
    let b = db
        .query(
            "SELECT t1.a, t3.label FROM t1 \
             JOIN t2 ON t1.a = t2.a JOIN t3 ON t2.b = t3.b ORDER BY t1.a",
        )
        .unwrap();
    assert_eq!(b.num_rows(), 2);
    assert_eq!(b.column(1).get(1), Value::Text("twenty".into()));
}

#[test]
fn division_and_modulo_by_zero_error_cleanly() {
    let db = db();
    assert!(db.query("SELECT x / 0 FROM nums").is_err());
    assert!(db.query("SELECT x % 0 FROM nums").is_err());
    // but only when rows actually flow through the expression
    let ok = db.query("SELECT x / 0 FROM nums WHERE x > 100");
    assert!(ok.is_ok(), "no rows -> no evaluation -> no error");
}

#[test]
fn float_modulo_by_zero_errors_like_integer_modulo() {
    // Regression test: `x % 0.0` is NaN in IEEE hardware, so the float
    // path used to silently return NaN while `x / 0.0` (and the integer
    // paths) raised "division by zero". Both paths now raise the same
    // typed error, in the vectorized column path and in scalar evaluation.
    let db = db();
    for q in [
        "SELECT y % 0.0 FROM nums",     // vectorized: column % literal
        "SELECT 5.5 % 0.0 FROM nums",   // scalar: literal % literal
        "SELECT x % 0.0 FROM nums",     // int column coerced to float
        "SELECT y % (1.0 - 1.0) FROM nums", // folded-to-zero divisor
    ] {
        let err = db.query(q).unwrap_err();
        assert!(
            err.to_string().contains("division by zero"),
            "{q}: expected division-by-zero, got {err}"
        );
    }
    // NULL propagation is unchanged: NULL divisor/dividend yields NULL,
    // not an error, matching the integer semantics.
    for q in [
        "SELECT y % NULL FROM nums",
        "SELECT NULL % 2.0 FROM nums",
        "SELECT x % NULL FROM nums",
    ] {
        let b = db.query(q).unwrap();
        for r in 0..b.num_rows() {
            assert!(b.column(0).get(r).is_null(), "{q}: row {r}");
        }
    }
    // A NULL *value* in the column still propagates per row while other
    // rows evaluate normally, and no NaN ever escapes.
    let b = db.query("SELECT y % 2.0 FROM nums ORDER BY x").unwrap();
    assert_eq!(b.column(0).get(0), Value::Float(1.5));
    assert!(b.column(0).get(2).is_null(), "NULL y row propagates NULL");
    for r in 0..b.num_rows() {
        if let Value::Float(f) = b.column(0).get(r) {
            assert!(!f.is_nan(), "row {r}: modulo leaked a NaN");
        }
    }
}

#[test]
fn case_without_else_yields_null() {
    let db = db();
    let b = db
        .query("SELECT CASE WHEN x > 3 THEN 'big' END FROM nums ORDER BY x")
        .unwrap();
    assert!(b.column(0).get(0).is_null());
    assert_eq!(b.column(0).get(4), Value::Text("big".into()));
}

#[test]
fn distinct_treats_nulls_as_one_group() {
    let db = Database::new();
    db.execute("CREATE TABLE d (v INT)").unwrap();
    db.execute("INSERT INTO d VALUES (NULL), (NULL), (1), (1)").unwrap();
    let b = db.query("SELECT DISTINCT v FROM d").unwrap();
    assert_eq!(b.num_rows(), 2);
}
