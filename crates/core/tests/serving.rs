//! The high-throughput serving path end-to-end: prepared PREDICT through
//! the plan cache, strategy ablations (row / auto, serial or
//! morsel-parallel) staying bit-exact, model redeploy & revocation invalidating cached plans,
//! cancellation inside the compiled kernel releasing admission slots, and
//! derived model variants living only as long as the plans that use them
//! (a cached plan replans when its table drifts past the ranges its model
//! was compressed to).

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
    for strategy in ["row", "auto"] {
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
    // for the default and 'auto', the interpreter for 'row'.
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

/// `debt_flag` splits at `income <= 1000` over rows whose income is at
/// most 120, so compression to the table's ranges drops the right branch.
/// `shift` moves every leaf.
fn debt_flag(shift: f64) -> Pipeline {
    let tree = DecisionTree {
        nodes: vec![
            TreeNode::Split {
                feature: 0,
                threshold: 1000.0,
                left: 1,
                right: 2,
            },
            TreeNode::Split {
                feature: 1,
                threshold: 40.0,
                left: 3,
                right: 4,
            },
            TreeNode::Leaf { value: shift - 1.0 },
            TreeNode::Leaf { value: shift },
            TreeNode::Leaf { value: shift + 1.0 },
        ],
    };
    Pipeline::new(
        vec![
            ColumnPipeline::numeric("income"),
            ColumnPipeline::numeric("debt"),
        ],
        Model::Tree(tree),
        "hi_debt",
    )
}

fn debt_db(config: XOptConfig) -> FlockDb {
    let db = FlockDb::with_config(config);
    db.execute("CREATE TABLE customers (id INT, income DOUBLE, debt DOUBLE)")
        .unwrap();
    db.execute("INSERT INTO customers VALUES (1, 90.0, 10.0), (2, 40.0, 45.0), (3, 120.0, 5.0)")
        .unwrap();
    let mut s = db.session("admin");
    s.deploy_model("debt_flag", &debt_flag(0.0), Lineage::default())
        .unwrap();
    db
}

const DEBT_QUERY: &str =
    "SELECT id, PREDICT(debt_flag, income, debt) AS f FROM customers ORDER BY id";

#[test]
fn cached_plan_scores_rows_outside_the_ranges_it_was_compressed_to() {
    let db = debt_db(XOptConfig::default());
    let mut s = db.session("admin");
    let sql = DEBT_QUERY;
    let prepared = s.prepare(sql).unwrap();
    let last_score = |b: flock_sql::RecordBatch| b.column(1).get(b.num_rows() - 1);
    assert_eq!(last_score(s.query(sql).unwrap()), Value::Float(0.0));
    s.execute_prepared(&prepared, &[]).unwrap();

    // Row 4 takes the branch the cached plans' compressed model dropped.
    s.execute("INSERT INTO customers VALUES (4, 5000.0, 50.0)")
        .unwrap();
    assert_eq!(last_score(s.query(sql).unwrap()), Value::Float(-1.0), "ad-hoc");
    let b = s.execute_prepared(&prepared, &[]).unwrap().batch.unwrap();
    assert_eq!(last_score(b), Value::Float(-1.0), "prepared");
}

#[test]
fn a_model_redeployed_under_a_dropped_name_scores_as_itself() {
    let db = debt_db(XOptConfig::default());
    let plain = debt_db(XOptConfig::disabled());
    let mut s = db.session("admin");
    let mut plain_s = plain.session("admin");
    s.query(DEBT_QUERY).unwrap();
    // Re-created, the model is at catalog version 1 again, over the same
    // column ranges: only its leaves tell it from the dropped one.
    for s in [&mut s, &mut plain_s] {
        s.execute("DROP MODEL debt_flag").unwrap();
        s.deploy_model("debt_flag", &debt_flag(10.0), Lineage::default())
            .unwrap();
    }
    let (b, want) = (
        s.query(DEBT_QUERY).unwrap(),
        plain_s.query(DEBT_QUERY).unwrap(),
    );
    assert_eq!(want.column(1).get(0), Value::Float(10.0));
    assert_eq!(
        format!("{:?}", b.column(1)),
        format!("{:?}", want.column(1))
    );
}

fn predict_variants(db: &FlockDb) -> usize {
    db.database()
        .engine_metrics()
        .rows()
        .into_iter()
        .find(|(name, _)| *name == "predict_variants")
        .map(|(_, v)| v as usize)
        .expect("the gauge is registered")
}

/// Runs `queries` ad-hoc PREDICTs, each over its own `BETWEEN` window on
/// a model input, and returns the most live variants seen. With `grow`,
/// a row goes in before each query, so each compresses the model to
/// ranges of its own and holds a chain of two variants.
fn ad_hoc_windows(queries: usize, grow: bool) -> usize {
    // Specialisation on: each window folds into its own variant.
    let open = |config: XOptConfig| {
        let db = FlockDb::with_config(config);
        db.execute("CREATE TABLE loans (id INT, amount DOUBLE, rate DOUBLE)")
            .unwrap();
        let rows: Vec<String> = (0..2_000)
            .map(|i| format!("({i}, {}.0, {})", 1_000 + 24 * i, 0.01 + 0.0001 * i as f64))
            .collect();
        db.execute(&format!("INSERT INTO loans VALUES {}", rows.join(", ")))
            .unwrap();
        let mut s = db.session("admin");
        s.deploy_model("default_risk", &gbt_pipeline(0.0), Lineage::default())
            .unwrap();
        db
    };
    let db = open(XOptConfig::default());
    let plain = open(XOptConfig::disabled());
    // A plan pins a chain of at most three: pruned, compressed, specialised.
    let bound = 3 * flock_sql::plancache::CACHE_CAPACITY + flock_core::registry::VARIANT_MEMO;
    let mut s = db.session("admin");
    let mut plain_s = plain.session("admin");
    let mut most = 0;
    for i in 0..queries {
        if grow {
            let row = format!("INSERT INTO loans VALUES ({i}, {}.0, 0.5)", 49_000 + i);
            s.execute(&row).unwrap();
            plain_s.execute(&row).unwrap();
        }
        let lo = 1_000 + 23 * i;
        let sql = format!(
            "SELECT id, PREDICT(default_risk, amount, rate) FROM loans \
             WHERE amount BETWEEN {lo}.0 AND {}.0 ORDER BY id",
            lo + 100
        );
        let b = s.query(&sql).unwrap();
        let live = predict_variants(&db);
        assert!(
            live <= bound,
            "{live} live variants after {} queries",
            i + 1
        );
        most = most.max(live);
        if i % 97 == 0 {
            let want = plain_s.query(&sql).unwrap();
            assert!(b.num_rows() > 0);
            assert_eq!(format!("{:?}", b.column(1)), format!("{:?}", want.column(1)));
        }
    }
    assert!(predict_variants(&db) > 0, "the windows were specialised");
    assert_eq!(db.registry().names(), ["default_risk"]);
    most
}

#[test]
fn ad_hoc_windows_leave_derived_variants_bounded() {
    ad_hoc_windows(2_000, false);
}

#[test]
fn ad_hoc_windows_over_a_growing_table_leave_derived_variants_bounded() {
    let most = ad_hoc_windows(400, true);
    let one_per_plan = flock_sql::plancache::CACHE_CAPACITY + flock_core::registry::VARIANT_MEMO;
    assert!(
        most > one_per_plan,
        "{most} live: every plan held its own chain"
    );
}
