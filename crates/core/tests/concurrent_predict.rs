//! Concurrency tests for the inference path: PREDICT under statement
//! deadlines, cooperative cancellation through the real
//! `FlockInferenceProvider`, admission control under a concurrent PREDICT
//! workload, and cross-thread determinism of scores.

use flock_core::{FlockDb, FlockSession, Lineage, XOptConfig};
use flock_ml::{ColumnPipeline, LinearModel, Model, Pipeline};
use flock_rng::rngs::StdRng;
use flock_rng::{Rng, SeedableRng};
use flock_sql::exec::ExecOptions;
use flock_sql::{SqlError, Value};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

const ROWS: usize = 20_000;

/// A FlockDb whose cross-optimizer keeps PREDICT as a provider call
/// (no linear inlining), so the tests exercise the
/// inference provider's cancellation points rather than inlined
/// arithmetic.
fn scoring_db() -> FlockDb {
    let db = FlockDb::with_config(XOptConfig {
        inline_models: false,
        predicate_specialization: false,
        ..XOptConfig::default()
    });
    db.execute("CREATE TABLE loans (id INT, amount DOUBLE, rate DOUBLE)").unwrap();
    let mut rng = StdRng::seed_from_u64(17);
    for chunk in (0..ROWS).collect::<Vec<_>>().chunks(1000) {
        let rows: Vec<String> = chunk
            .iter()
            .map(|&i| {
                format!(
                    "({i}, {:.4}, {:.6})",
                    rng.gen_range(1_000.0f64..50_000.0),
                    rng.gen_range(0.01f64..0.25)
                )
            })
            .collect();
        db.execute(&format!("INSERT INTO loans VALUES {}", rows.join(", ")))
            .unwrap();
    }
    let pipeline = Pipeline::new(
        vec![
            ColumnPipeline::numeric("amount"),
            ColumnPipeline::numeric("rate"),
        ],
        Model::Linear(LinearModel::new(vec![0.00002, 3.0], -0.5)),
        "default_risk",
    );
    let mut s = db.session("admin");
    s.deploy_model("default_risk", &pipeline, Lineage::default())
        .unwrap();
    db
}

/// A session on the row strategy: one provider call per row, the slowest
/// path — which is exactly what the deadline/cancellation tests need for
/// headroom.
fn row_session(db: &FlockDb) -> FlockSession {
    let mut s = db.session("admin");
    s.execute("SET predict_strategy = 'row'").unwrap();
    s
}

const PREDICT_QUERY: &str =
    "SELECT id, PREDICT(default_risk, amount, rate) FROM loans ORDER BY id";

#[test]
fn predict_exceeding_deadline_times_out_and_releases_resources() {
    let db = scoring_db();
    let mut s = row_session(&db);
    s.execute("SET statement_timeout = 1").unwrap();
    let err = s.query(PREDICT_QUERY).unwrap_err();
    assert!(
        matches!(err, SqlError::Timeout(_)),
        "PREDICT past its deadline must be a typed timeout, got {err:?}"
    );

    // The admission slot was released on the unwind...
    assert_eq!(db.database().admission().active(), 0);
    // ...the partial per-operator metrics survived for post-mortem...
    assert!(s.last_query_metrics().is_some());
    // ...and the engine counter is visible through the flock_metrics table.
    s.execute("SET statement_timeout = DEFAULT").unwrap();
    let b = s
        .query("SELECT value FROM flock_metrics WHERE metric = 'queries_timed_out'")
        .unwrap();
    let Value::Int(timed_out) = b.column(0).get(0) else {
        panic!("metrics value must be an integer")
    };
    assert!(timed_out >= 1, "queries_timed_out = {timed_out}");

    // With the timeout lifted the same query completes.
    assert_eq!(s.query(PREDICT_QUERY).unwrap().num_rows(), ROWS);
}

#[test]
fn predict_cancel_unwinds_through_the_real_provider() {
    let db = scoring_db();
    let (tx, rx) = std::sync::mpsc::channel();
    let worker = {
        let db = db.clone();
        std::thread::spawn(move || {
            let mut s = row_session(&db);
            tx.send(s.cancel_handle()).unwrap();
            let err = s.query(PREDICT_QUERY).unwrap_err();
            assert!(matches!(err, SqlError::Cancelled(_)), "got {err:?}");
            assert!(s.last_query_metrics().is_some());
        })
    };
    let handle = rx.recv().unwrap();
    // Cancel repeatedly: the flag resets when the statement starts, so a
    // single early cancel could be consumed before execution begins.
    while !worker.is_finished() {
        handle.cancel();
        std::thread::sleep(Duration::from_micros(200));
    }
    worker.join().unwrap();
    assert_eq!(db.database().admission().active(), 0);
    let m: std::collections::HashMap<_, _> =
        db.database().engine_metrics().rows().into_iter().collect();
    assert!(m["queries_cancelled"] >= 1);
    // Engine still healthy after the unwind.
    assert_eq!(db.query(PREDICT_QUERY).unwrap().num_rows(), ROWS);
}

/// The PREDICT variant of the stress harness: N threads of a seeded mixed
/// scoring workload (full scans, filtered scans, self-imposed timeouts)
/// over one shared FlockDb, under an admission limit smaller than the
/// thread count. Scores must be deterministic across threads, rejections
/// must be typed, and no slot or lock may leak.
#[test]
fn concurrent_predict_workload_is_deterministic_and_typed() {
    const THREADS: usize = 4;
    const STEPS: usize = 8;

    let db = scoring_db();
    // The default (compiled) strategy keeps the smoke fast; determinism
    // must hold regardless of scheduling.
    db.database().set_exec_options(ExecOptions {
        max_concurrent_queries: 2,
        ..ExecOptions::default()
    });

    // Serial reference, computed before any concurrency.
    let reference = db
        .query("SELECT SUM(PREDICT(default_risk, amount, rate)) FROM loans")
        .unwrap()
        .column(0)
        .get(0);
    let Value::Float(reference) = reference else {
        panic!("expected float sum, got {reference:?}")
    };

    let rejected = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let db = db.clone();
            let rejected = &rejected;
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(0xBEEF + t as u64);
                let mut s = db.session("admin");
                for _ in 0..STEPS {
                    let q = if rng.gen_bool(0.5) {
                        "SELECT SUM(PREDICT(default_risk, amount, rate)) FROM loans"
                    } else {
                        "SELECT COUNT(*) FROM loans \
                         WHERE PREDICT(default_risk, amount, rate) > 0.5"
                    };
                    match s.query(q) {
                        Ok(b) => {
                            if let Value::Float(sum) = b.column(0).get(0) {
                                assert!(
                                    (sum - reference).abs() <= 1e-9 * reference.abs(),
                                    "thread {t}: score sum drifted under concurrency"
                                );
                            }
                        }
                        Err(SqlError::Admission(_)) => {
                            rejected.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(e) => panic!("thread {t}: unexpected error {e}"),
                    }
                }
            });
        }
    });

    assert_eq!(db.database().admission().active(), 0, "leaked admission slot");
    let m: std::collections::HashMap<_, _> =
        db.database().engine_metrics().rows().into_iter().collect();
    assert!(
        m["admission_rejected"] >= rejected.load(Ordering::Relaxed),
        "every typed rejection must be counted"
    );
}
