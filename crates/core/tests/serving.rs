//! The high-throughput serving path end-to-end: prepared PREDICT through
//! the plan cache, strategy ablations (row / vectorized, serial or
//! morsel-parallel) staying bit-exact, model redeploy & revocation invalidating cached plans, and
//! cancellation inside the compiled kernel releasing admission slots.

use flock_core::{FlockDb, Lineage, XOptConfig};
use flock_ml::{ColumnPipeline, DecisionTree, GbtModel, Model, Pipeline, TreeNode};
use flock_rng::rngs::StdRng;
use flock_rng::{Rng, SeedableRng};
use flock_sql::exec::ExecOptions;
use flock_sql::{SqlError, Value};
use std::sync::atomic::Ordering;

const ROWS: usize = 20_000;

fn stump(feature: usize, threshold: f64, lo: f64, hi: f64) -> DecisionTree {
    DecisionTree {
        nodes: vec![
            TreeNode::Split {
                feature,
                threshold,
                left: 1,
                right: 2,
            },
            TreeNode::Leaf { value: lo },
            TreeNode::Leaf { value: hi },
        ],
    }
}

fn gbt_pipeline(shift: f64) -> Pipeline {
    Pipeline::new(
        vec![
            ColumnPipeline::numeric("amount"),
            ColumnPipeline::numeric("rate"),
        ],
        Model::Gbt(GbtModel {
            trees: vec![
                stump(0, 20_000.0, -0.4, 0.9),
                stump(1, 0.12, 0.2, -0.3),
                stump(0, 35_000.0, -0.1, 0.55),
            ],
            learning_rate: 0.3,
            base_score: 0.5 + shift,
            sigmoid_output: true,
        }),
        "default_risk",
    )
}

/// A FlockDb whose cross-optimizer keeps PREDICT as a provider call, so
/// the strategy chosen by `SET predict_strategy` is what actually scores.
fn serving_db() -> FlockDb {
    let db = FlockDb::with_config(XOptConfig {
        inline_models: false,
        predicate_specialization: false,
        ..XOptConfig::default()
    });
    db.execute("CREATE TABLE loans (id INT, amount DOUBLE, rate DOUBLE)")
        .unwrap();
    let mut rng = StdRng::seed_from_u64(23);
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
    let mut s = db.session("admin");
    s.deploy_model("default_risk", &gbt_pipeline(0.0), Lineage::default())
        .unwrap();
    db
}

const PREDICT_QUERY: &str =
    "SELECT id, PREDICT(default_risk, amount, rate) FROM loans ORDER BY id";

fn score_bits(db: &FlockDb, session: &mut flock_core::FlockSession) -> Vec<u64> {
    let _ = db;
    let b = session.query(PREDICT_QUERY).unwrap();
    (0..b.num_rows())
        .map(|r| {
            let Value::Float(v) = b.column(1).get(r) else {
                panic!("score must be a float")
            };
            v.to_bits()
        })
        .collect()
}

#[test]
fn strategy_ablation_is_bit_exact() {
    let db = serving_db();
    let mut s = db.session("admin");
    let baseline = score_bits(&db, &mut s);
    assert_eq!(baseline.len(), ROWS);
    for strategy in ["row", "vectorized"] {
        s.execute(&format!("SET predict_strategy = '{strategy}'"))
            .unwrap();
        assert_eq!(
            score_bits(&db, &mut s),
            baseline,
            "strategy '{strategy}' diverged from the default path"
        );
    }
    // Fan-out is the operator's: four workers, one PREDICT per morsel.
    db.database().set_exec_options(ExecOptions::with_threads(4, 1));
    assert_eq!(
        score_bits(&db, &mut s),
        baseline,
        "morsel-parallel scoring diverged from the default path"
    );
    // Both scorers really ran (no silent fallback): the compiled kernel
    // for the default and 'vectorized', the interpreter for 'row'.
    let stats = &db.provider().stats;
    assert!(stats.vectorized_calls.load(Ordering::Relaxed) >= 2);
    assert!(stats.row_calls.load(Ordering::Relaxed) >= 1);
}

#[test]
fn prepared_predict_serves_from_plan_cache() {
    let db = serving_db();
    let mut s = db.session("admin");
    let p = s
        .prepare("SELECT PREDICT(default_risk, amount, rate) FROM loans WHERE id < ?")
        .unwrap();
    let run = |s: &mut flock_core::FlockSession, n: i64| {
        s.execute_prepared(&p, &[Value::Int(n)])
            .unwrap()
            .batch
            .unwrap()
            .num_rows()
    };
    assert_eq!(run(&mut s, 10), 10);
    let cache = db.database().plan_cache();
    let hits = cache.hits.clone();
    let h0 = hits.load(Ordering::Relaxed);
    assert_eq!(run(&mut s, 25), 25);
    assert_eq!(run(&mut s, 3), 3);
    assert_eq!(
        hits.load(Ordering::Relaxed),
        h0 + 2,
        "repeat executions skip parse/plan/xopt"
    );
}

#[test]
fn model_redeploy_invalidates_cached_plans() {
    let db = serving_db();
    let mut s = db.session("admin");
    let p = s
        .prepare("SELECT PREDICT(default_risk, amount, rate) FROM loans WHERE id = ?")
        .unwrap();
    let score = |s: &mut flock_core::FlockSession| {
        let b = s
            .execute_prepared(&p, &[Value::Int(1)])
            .unwrap()
            .batch
            .unwrap();
        let Value::Float(v) = b.column(0).get(0) else {
            panic!()
        };
        v
    };
    let before = score(&mut s);
    assert_eq!(score(&mut s), before, "plan is hot");

    // Redeploy with shifted leaves: the registry epoch tick must kill the
    // cached plan so the next execution scores through version 2.
    s.update_model("default_risk", &gbt_pipeline(5.0), Lineage::default())
        .unwrap();
    let after = score(&mut s);
    assert_ne!(
        after.to_bits(),
        before.to_bits(),
        "stale model served through the plan cache after redeploy"
    );
}

#[test]
fn dropped_model_fails_instead_of_serving_stale_plan() {
    let db = serving_db();
    let mut s = db.session("admin");
    let p = s
        .prepare("SELECT PREDICT(default_risk, amount, rate) FROM loans WHERE id = ?")
        .unwrap();
    s.execute_prepared(&p, &[Value::Int(1)]).unwrap();
    s.execute("DROP MODEL default_risk").unwrap();
    let err = s.execute_prepared(&p, &[Value::Int(1)]).unwrap_err();
    assert!(
        !matches!(err, SqlError::Execution(_)),
        "dropping the model must fail at plan/catalog level, got {err:?}"
    );
}

#[test]
fn revoked_execute_blocks_hot_cached_plan() {
    let db = serving_db();
    db.execute("CREATE USER scorer").unwrap();
    db.execute("GRANT SELECT ON TABLE loans TO scorer").unwrap();
    db.execute("GRANT EXECUTE ON MODEL default_risk TO scorer")
        .unwrap();
    let mut scorer = db.session("scorer");
    let p = scorer
        .prepare("SELECT PREDICT(default_risk, amount, rate) FROM loans WHERE id = ?")
        .unwrap();
    scorer.execute_prepared(&p, &[Value::Int(1)]).unwrap();
    scorer.execute_prepared(&p, &[Value::Int(2)]).unwrap(); // hot

    db.execute("REVOKE EXECUTE ON MODEL default_risk FROM scorer")
        .unwrap();
    let err = scorer.execute_prepared(&p, &[Value::Int(3)]).unwrap_err();
    assert!(
        matches!(err, SqlError::AccessDenied(_)),
        "revoked user scored through a cached plan: {err:?}"
    );
}

#[test]
fn kernel_cancellation_releases_admission_slot() {
    let db = serving_db();
    let mut s = db.session("admin");
    // A deliberately heavy ensemble — 2000 trees over 20k rows is tens of
    // milliseconds of scoring — so the 1 ms deadline reliably
    // trips *inside* the kernel, not between statements.
    let heavy = Pipeline::new(
        vec![
            ColumnPipeline::numeric("amount"),
            ColumnPipeline::numeric("rate"),
        ],
        Model::Gbt(GbtModel {
            trees: (0..2000).map(|i| stump(i % 2, 0.5, -0.4, 0.9)).collect(),
            learning_rate: 0.01,
            base_score: 0.5,
            sigmoid_output: true,
        }),
        "slow_risk",
    );
    s.deploy_model("slow_risk", &heavy, Lineage::default()).unwrap();
    s.execute("SET statement_timeout = 1").unwrap();
    let err = s
        .query("SELECT id, PREDICT(slow_risk, amount, rate) FROM loans ORDER BY id")
        .unwrap_err();
    assert!(
        matches!(err, SqlError::Timeout(_)),
        "PREDICT past its deadline must time out, got {err:?}"
    );
    assert_eq!(
        db.database().admission().active(),
        0,
        "admission slot leaked on mid-batch cancellation"
    );
    // Engine stays healthy; the same session completes once the deadline
    // is lifted.
    s.execute("SET statement_timeout = DEFAULT").unwrap();
    assert_eq!(s.query(PREDICT_QUERY).unwrap().num_rows(), ROWS);
}
