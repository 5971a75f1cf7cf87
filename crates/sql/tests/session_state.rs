//! Session-state hardening for reused connections (the server keeps one
//! engine `Session` alive per TCP connection, so any state a failed
//! statement leaves behind poisons every later statement on that wire).
//!
//! Two surfaces are pinned down here:
//!
//! * after a `Cancelled` / `Timeout` / `Budget` error — including inside
//!   an explicit transaction — the *next* statement on the same session
//!   must run normally, with fresh metrics;
//! * `SET statement_timeout` / `SET predict_strategy` with malformed
//!   values must fail with a typed error, never silently no-op, panic, or
//!   clobber the previously-set value.

use flock_sql::ast::PredictStrategy;
use flock_sql::column::ColumnVector;
use flock_sql::exec::{CancelToken, ExecOptions};
use flock_sql::types::DataType;
use flock_sql::udf::InferenceProvider;
use flock_sql::{Database, Result, SqlError};
use std::sync::Arc;
use std::time::Duration;

/// Provider whose predictions never finish on their own: only a cancel
/// flag or a statement deadline ends the loop.
struct BlockUntilStopped;

impl InferenceProvider for BlockUntilStopped {
    fn output_type(&self, _model: &str) -> Result<DataType> {
        Ok(DataType::Float)
    }
    fn input_arity(&self, _model: &str) -> Result<usize> {
        Ok(1)
    }
    fn predict(
        &self,
        _model: &str,
        inputs: &[ColumnVector],
        _strategy: PredictStrategy,
        _user: &str,
    ) -> Result<ColumnVector> {
        Ok(ColumnVector::from_f64(vec![0.0; inputs[0].len()]))
    }
    fn predict_cancellable(
        &self,
        _model: &str,
        _inputs: &[ColumnVector],
        _strategy: PredictStrategy,
        _user: &str,
        cancel: &CancelToken,
    ) -> Result<ColumnVector> {
        loop {
            cancel.check()?;
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}

fn blocking_db() -> Database {
    let db = Database::new();
    db.execute("CREATE TABLE t (x DOUBLE)").unwrap();
    db.execute("INSERT INTO t VALUES (1.0), (2.0), (3.0)").unwrap();
    db.set_inference_provider(Arc::new(BlockUntilStopped));
    db
}

fn metric(db: &Database, name: &str) -> u64 {
    db.engine_metrics()
        .rows()
        .into_iter()
        .find(|(n, _)| *n == name)
        .map(|(_, v)| v)
        .unwrap_or_else(|| panic!("metric {name} missing"))
}

#[test]
fn statement_after_timeout_succeeds_with_fresh_metrics() {
    let db = blocking_db();
    let mut s = db.session("admin");

    s.execute("SET statement_timeout = 30").unwrap();
    let err = s.query("SELECT PREDICT(m, x) FROM t").unwrap_err();
    assert!(matches!(err, SqlError::Timeout(_)), "got {err:?}");
    assert_eq!(metric(&db, "queries_timed_out"), 1);

    // The very next statement on the SAME session must succeed: the
    // deadline is per-statement, not sticky, and no transaction or
    // admission slot may linger from the unwound statement.
    let batch = s.query("SELECT x FROM t").unwrap();
    assert_eq!(batch.num_rows(), 3);
    assert!(!s.in_transaction(), "timeout must not leave a transaction open");
    assert_eq!(db.admission().active(), 0, "admission slot leaked");

    // Metrics describe the *new* statement, not the aborted one: the
    // successful scan read all 3 rows.
    let snap = s.last_query_metrics().expect("metrics for the new statement");
    assert_eq!(snap.rows_scanned(), 3);
    assert_eq!(metric(&db, "queries_timed_out"), 1, "no double-count");
}

#[test]
fn statement_after_sticky_cancel_succeeds() {
    let db = blocking_db();
    let mut s = db.session("admin");
    let handle = s.cancel_handle();

    // Cancel with NO statement running: the flag is now sticky-set. The
    // next statement must still run — the engine re-arms the flag at
    // statement start rather than inheriting a stale cancellation.
    handle.cancel();
    assert!(handle.is_cancelled());
    let batch = s.query("SELECT x FROM t").unwrap();
    assert_eq!(batch.num_rows(), 3);

    // And a real mid-flight cancellation doesn't poison the session
    // either: cancel in a loop until the statement aborts, stop, then the
    // session keeps working. The worker waits for the cancelling to stop
    // before its next statement, so no late cancel can land on that one.
    let (tx, rx) = std::sync::mpsc::channel();
    let (aborted_tx, aborted_rx) = std::sync::mpsc::channel();
    let (stopped_tx, stopped_rx) = std::sync::mpsc::channel();
    let worker = {
        let db = db.clone();
        std::thread::spawn(move || {
            let mut s = db.session("admin");
            tx.send(s.cancel_handle()).unwrap();
            let err = s.query("SELECT PREDICT(m, x) FROM t").unwrap_err();
            assert!(matches!(err, SqlError::Cancelled(_)), "got {err:?}");
            aborted_tx.send(()).unwrap();
            stopped_rx.recv().unwrap();
            let batch = s.query("SELECT x FROM t WHERE x < 2.5").unwrap();
            assert_eq!(batch.num_rows(), 2);
        })
    };
    let handle = rx.recv().unwrap();
    let started = std::time::Instant::now();
    // A worker that ends early panicked: the join below reports why.
    while aborted_rx.try_recv().is_err() && !worker.is_finished() {
        assert!(started.elapsed() < Duration::from_secs(30), "cancel never landed");
        handle.cancel();
        std::thread::sleep(Duration::from_millis(1));
    }
    let _ = stopped_tx.send(());
    worker.join().unwrap();
    assert_eq!(db.admission().active(), 0);
    assert!(metric(&db, "queries_cancelled") >= 1);
}

#[test]
fn timeout_inside_explicit_transaction_aborts_it_cleanly() {
    let db = blocking_db();
    let mut s = db.session("admin");
    s.execute("SET statement_timeout = 30").unwrap();

    s.execute("BEGIN").unwrap();
    s.execute("INSERT INTO t VALUES (9.0)").unwrap();
    let err = s.query("SELECT PREDICT(m, x) FROM t").unwrap_err();
    assert!(matches!(err, SqlError::Timeout(_)), "got {err:?}");

    // The failed statement aborted the transaction; the session is back
    // in autocommit and the INSERT rolled back.
    assert!(!s.in_transaction(), "aborted transaction left open");
    let batch = s.query("SELECT x FROM t").unwrap();
    assert_eq!(batch.num_rows(), 3, "aborted transaction leaked a write");

    // Autocommit works again on the same session.
    s.execute("INSERT INTO t VALUES (4.0)").unwrap();
    assert_eq!(s.query("SELECT x FROM t").unwrap().num_rows(), 4);
}

#[test]
fn statement_after_budget_abort_succeeds() {
    let db = Database::new();
    db.execute("CREATE TABLE big (n INT)").unwrap();
    for chunk in 0..4 {
        let values: Vec<String> =
            (0..256).map(|i| format!("({})", chunk * 256 + i)).collect();
        db.execute(&format!("INSERT INTO big VALUES {}", values.join(", "))).unwrap();
    }

    let mut opts = db.exec_options();
    opts.max_rows_budget = 100; // far below the 1024-row scan
    db.set_exec_options(opts);
    let mut s = db.session("admin");
    let err = s.query("SELECT n FROM big").unwrap_err();
    assert!(matches!(err, SqlError::Budget(_)), "got {err:?}");
    assert_eq!(metric(&db, "budget_rejected"), 1);
    assert_eq!(db.admission().active(), 0);

    // Restore unlimited: the SAME session runs the same scan fine — the
    // budget abort left nothing sticky behind.
    db.set_exec_options(ExecOptions::default());
    assert_eq!(s.query("SELECT n FROM big").unwrap().num_rows(), 1024);
    assert_eq!(metric(&db, "budget_rejected"), 1, "no double-count");
}

// ---------------------------------------------------------------------------
// SET validation
// ---------------------------------------------------------------------------

#[test]
fn malformed_set_values_fail_typed_and_preserve_prior_value() {
    let db = blocking_db();
    let mut s = db.session("admin");

    // A valid baseline both variables must keep through the failures.
    s.execute("SET statement_timeout = 30").unwrap();
    s.execute("SET predict_strategy = 'row'").unwrap();

    struct Case {
        sql: &'static str,
        ok: bool,
    }
    let cases = [
        // statement_timeout: integer milliseconds or DEFAULT.
        Case { sql: "SET statement_timeout = DEFAULT", ok: true },
        Case { sql: "SET statement_timeout = 0", ok: true },
        Case { sql: "SET statement_timeout = 15 + 15", ok: true }, // folds
        Case { sql: "SET statement_timeout = -1", ok: false },
        Case { sql: "SET statement_timeout = -9223372036854775809", ok: false },
        // i64 overflow lexes as a float literal -> type error, not wrap.
        Case { sql: "SET statement_timeout = 99999999999999999999999", ok: false },
        Case { sql: "SET statement_timeout = 2.5", ok: false },
        Case { sql: "SET statement_timeout = 'soon'", ok: false },
        Case { sql: "SET statement_timeout = TRUE", ok: false },
        Case { sql: "SET statement_timeout = banana", ok: false },
        Case { sql: "SET statement_timeout = NULL", ok: false },
        // predict_strategy: known string literals or DEFAULT.
        Case { sql: "SET predict_strategy = DEFAULT", ok: true },
        Case { sql: "SET predict_strategy = 'row'", ok: true },
        Case { sql: "SET predict_strategy = 'batched'", ok: false }, // no such strategy
        Case { sql: "SET predict_strategy = 'vectorized'", ok: false }, // it was 'auto'
        Case { sql: "SET predict_strategy = 'ROW'", ok: true }, // case-folded
        // Fan-out belongs to the operator, not to a strategy.
        Case { sql: "SET predict_strategy = 'PARALLEL'", ok: false },
        Case { sql: "SET predict_strategy = 'warp'", ok: false },
        Case { sql: "SET predict_strategy = 5", ok: false },
        Case { sql: "SET predict_strategy = 1.5", ok: false },
        Case { sql: "SET predict_strategy = FALSE", ok: false },
        Case { sql: "SET predict_strategy = vectorized", ok: false }, // unquoted
        // Unknown variables are typed errors, not silent no-ops.
        Case { sql: "SET warp_speed = 9", ok: false },
    ];
    for case in cases {
        // Re-arm the baseline before every case so a failure case can be
        // checked for "prior value preserved" behaviorally below.
        s.execute("SET statement_timeout = 30").unwrap();
        s.execute("SET predict_strategy = 'row'").unwrap();
        let result = s.execute(case.sql);
        match (case.ok, &result) {
            (true, Ok(_)) => {}
            (false, Err(SqlError::Plan(_))) => {}
            (false, Err(SqlError::Parse(_))) => {}
            (expected_ok, got) => panic!(
                "{}: expected {} got {:?}",
                case.sql,
                if expected_ok { "Ok" } else { "typed Plan/Parse error" },
                got
            ),
        }
        // Whatever happened, the session is not poisoned.
        s.query("SELECT x FROM t WHERE x = 1.0").unwrap();
    }
    // The refusal names what is accepted.
    let err = s.execute("SET predict_strategy = 'vectorized'").unwrap_err();
    assert!(err.to_string().contains("one of 'row' | 'auto'"), "{err}");

    // Behavioral proof that a failed SET preserved the previous timeout:
    // the 30ms deadline set before the garbage SET still fires.
    s.execute("SET statement_timeout = 30").unwrap();
    let _ = s.execute("SET statement_timeout = 'garbage'").unwrap_err();
    let err = s.query("SELECT PREDICT(m, x) FROM t").unwrap_err();
    assert!(
        matches!(err, SqlError::Timeout(_)),
        "prior statement_timeout lost after failed SET: {err:?}"
    );

    // And DEFAULT really clears it: with no deadline the statement now
    // runs until cancelled instead of timing out.
    s.execute("SET statement_timeout = DEFAULT").unwrap();
    let (tx, rx) = std::sync::mpsc::channel();
    let worker = {
        let db = db.clone();
        std::thread::spawn(move || {
            let mut s = db.session("admin");
            s.execute("SET statement_timeout = DEFAULT").unwrap();
            tx.send(s.cancel_handle()).unwrap();
            let err = s.query("SELECT PREDICT(m, x) FROM t").unwrap_err();
            assert!(matches!(err, SqlError::Cancelled(_)), "got {err:?}");
        })
    };
    let handle = rx.recv().unwrap();
    std::thread::sleep(Duration::from_millis(100)); // would have timed out at 30ms
    let started = std::time::Instant::now();
    while !worker.is_finished() {
        assert!(started.elapsed() < Duration::from_secs(30), "cancel never landed");
        handle.cancel();
        std::thread::sleep(Duration::from_millis(1));
    }
    worker.join().unwrap();
}

#[test]
fn set_statement_timeout_zero_disables_engine_default() {
    let db = blocking_db();
    // Engine-wide default would kill the statement quickly...
    let mut opts = db.exec_options();
    opts.statement_timeout_ms = 30;
    db.set_exec_options(opts);

    // ...but an explicit session-level 0 means "off for this session".
    let (tx, rx) = std::sync::mpsc::channel();
    let worker = {
        let db = db.clone();
        std::thread::spawn(move || {
            let mut s = db.session("admin");
            s.execute("SET statement_timeout = 0").unwrap();
            tx.send(s.cancel_handle()).unwrap();
            let err = s.query("SELECT PREDICT(m, x) FROM t").unwrap_err();
            // Cancelled, NOT Timeout: the 30ms engine default was shadowed.
            assert!(matches!(err, SqlError::Cancelled(_)), "got {err:?}");
        })
    };
    let handle = rx.recv().unwrap();
    std::thread::sleep(Duration::from_millis(120));
    let started = std::time::Instant::now();
    while !worker.is_finished() {
        assert!(started.elapsed() < Duration::from_secs(30), "cancel never landed");
        handle.cancel();
        std::thread::sleep(Duration::from_millis(1));
    }
    worker.join().unwrap();

    // Meanwhile a fresh session (no SET) does inherit the engine default.
    let mut s = db.session("admin");
    let err = s.query("SELECT PREDICT(m, x) FROM t").unwrap_err();
    assert!(matches!(err, SqlError::Timeout(_)), "got {err:?}");
}

#[test]
fn wire_error_codes_for_session_failures() {
    // The server-facing contract: each failure class keeps its stable
    // code and only admission is retryable (checked end-to-end here, not
    // just in the unit tests next to the enum).
    let db = blocking_db();
    let mut s = db.session("admin");
    s.execute("SET statement_timeout = 30").unwrap();
    let e = s.query("SELECT PREDICT(m, x) FROM t").unwrap_err();
    let wire = e.to_wire();
    assert_eq!(wire.code, "timeout");
    assert!(!wire.retryable);

    let mut opts = db.exec_options();
    opts.max_concurrent_queries = 0;
    db.set_exec_options(opts);
    let e = SqlError::Admission("db full".into()).to_wire();
    assert!(e.retryable);
    assert_eq!(e.to_sql_error().code(), "admission");
}
