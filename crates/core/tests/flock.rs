//! End-to-end tests: models as catalog objects, in-DB PREDICT, and the
//! cross-optimizer.

use flock_core::{FlockDb, Lineage, XOptConfig};
use flock_ml::{ColumnPipeline, LinearModel, Model, NumericStep, Pipeline};
use flock_sql::exec::ExecOptions;
use flock_sql::{SqlError, Value};

fn customer_db() -> FlockDb {
    let db = FlockDb::new();
    db.execute(
        "CREATE TABLE customers (id INT, age DOUBLE, income DOUBLE, debt DOUBLE, city VARCHAR)",
    )
    .unwrap();
    db.execute(
        "INSERT INTO customers VALUES \
         (1, 30.0, 90.0, 10.0, 'nyc'), \
         (2, 45.0, 40.0, 45.0, 'sf'), \
         (3, 22.0, 25.0, 60.0, 'nyc'), \
         (4, 58.0, 120.0, 5.0, 'chi'), \
         (5, 35.0, 70.0, 30.0, 'sf')",
    )
    .unwrap();
    db
}

/// risk = 0.05*debt - 0.02*income + 1.0 (linear, income & debt only)
fn risk_pipeline() -> Pipeline {
    Pipeline::new(
        vec![
            ColumnPipeline::numeric("income"),
            ColumnPipeline::numeric("debt"),
            ColumnPipeline::numeric("age"), // zero weight -> prunable
        ],
        Model::Linear(LinearModel::new(vec![-0.02, 0.05, 0.0], 1.0)),
        "risk",
    )
}

#[test]
fn deploy_and_predict_in_sql() {
    let db = customer_db();
    let mut s = db.session("admin");
    s.deploy_model("risk", &risk_pipeline(), Lineage::default())
        .unwrap();
    let b = s
        .query("SELECT id, PREDICT(risk, income, debt, age) AS r FROM customers ORDER BY id")
        .unwrap();
    assert_eq!(b.num_rows(), 5);
    let Value::Float(r1) = b.column(1).get(0) else {
        panic!()
    };
    assert!((r1 - (1.0 - 0.02 * 90.0 + 0.05 * 10.0)).abs() < 1e-9);
}

#[test]
fn predict_works_in_where_and_orderby() {
    let db = customer_db();
    let mut s = db.session("admin");
    s.deploy_model("risk", &risk_pipeline(), Lineage::default())
        .unwrap();
    let b = s
        .query(
            "SELECT id FROM customers WHERE PREDICT(risk, income, debt, age) > 1.5 \
             ORDER BY id",
        )
        .unwrap();
    // risk: c2 = 1 - .8 + 2.25 = 2.45; c3 = 1 - .5 + 3 = 3.5 -> ids 2, 3
    assert_eq!(b.num_rows(), 2);
    assert_eq!(b.column(0).get(0), Value::Int(2));
}

#[test]
fn xopt_inlines_linear_models() {
    let db = customer_db();
    let mut s = db.session("admin");
    s.deploy_model("risk", &risk_pipeline(), Lineage::default())
        .unwrap();
    let res = s
        .execute("EXPLAIN SELECT PREDICT(risk, income, debt, age) AS r FROM customers")
        .unwrap();
    let text: String = {
        let b = res.batch.unwrap();
        (0..b.num_rows())
            .map(|i| b.column(0).get(i).to_string())
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert!(
        !text.contains("PREDICT"),
        "linear model should inline away: {text}"
    );
    // and age (zero weight) should not be scanned at all
    assert!(
        text.contains("-> income, debt"),
        "pruned scan expected: {text}"
    );
}

#[test]
fn xopt_disabled_keeps_predict_operator() {
    let db = customer_db();
    db.set_xopt_config(XOptConfig::disabled());
    let mut s = db.session("admin");
    s.deploy_model("risk", &risk_pipeline(), Lineage::default())
        .unwrap();
    let res = s
        .execute("EXPLAIN SELECT PREDICT(risk, income, debt, age) FROM customers")
        .unwrap();
    let text: String = {
        let b = res.batch.unwrap();
        (0..b.num_rows())
            .map(|i| b.column(0).get(i).to_string())
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert!(text.contains("PREDICT"), "expected PREDICT survivor: {text}");
}

#[test]
fn xopt_results_match_unoptimized() {
    // same query with optimizer on vs off must agree numerically
    let queries = [
        "SELECT id, PREDICT(risk, income, debt, age) AS r FROM customers ORDER BY id",
        "SELECT id FROM customers WHERE PREDICT(risk, income, debt, age) > 1.5 ORDER BY id",
        "SELECT AVG(PREDICT(risk, income, debt, age)) FROM customers",
    ];
    for q in queries {
        let on = customer_db();
        let off = customer_db();
        off.set_xopt_config(XOptConfig::disabled());
        for db in [&on, &off] {
            let mut s = db.session("admin");
            s.deploy_model("risk", &risk_pipeline(), Lineage::default())
                .unwrap();
        }
        let a = on.query(q).unwrap();
        let b = off.query(q).unwrap();
        assert_eq!(a.num_rows(), b.num_rows(), "{q}");
        for r in 0..a.num_rows() {
            for c in 0..a.num_columns() {
                let (va, vb) = (a.column(c).get(r), b.column(c).get(r));
                match (va.as_f64(), vb.as_f64()) {
                    (Some(x), Some(y)) => assert!((x - y).abs() < 1e-9, "{q}"),
                    _ => assert_eq!(va, vb, "{q}"),
                }
            }
        }
    }
}

#[test]
fn logistic_predicate_pushup_transforms_to_linear_threshold() {
    let db = customer_db();
    let mut s = db.session("admin");
    let pipeline = Pipeline::new(
        vec![
            ColumnPipeline::numeric("income")
                .with_step(NumericStep::Standardize { mean: 70.0, std: 30.0 }),
            ColumnPipeline::numeric("debt"),
        ],
        Model::Logistic(LinearModel::new(vec![-1.0, 0.1], 0.0)),
        "p_default",
    );
    s.deploy_model("default_risk", &pipeline, Lineage::default())
        .unwrap();
    let res = s
        .execute(
            "EXPLAIN SELECT id FROM customers \
             WHERE PREDICT(default_risk, income, debt) >= 0.5",
        )
        .unwrap();
    let text: String = {
        let b = res.batch.unwrap();
        (0..b.num_rows())
            .map(|i| b.column(0).get(i).to_string())
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert!(
        !text.contains("SIGMOID") && !text.contains("PREDICT"),
        "push-up should remove the sigmoid: {text}"
    );
    // numeric equivalence
    let rows = db
        .query("SELECT id FROM customers WHERE PREDICT(default_risk, income, debt) >= 0.5 ORDER BY id")
        .unwrap();
    let off = customer_db();
    off.set_xopt_config(XOptConfig::disabled());
    let mut s2 = off.session("admin");
    s2.deploy_model("default_risk", &pipeline, Lineage::default())
        .unwrap();
    let rows_off = off
        .query("SELECT id FROM customers WHERE PREDICT(default_risk, income, debt) >= 0.5 ORDER BY id")
        .unwrap();
    assert_eq!(rows.num_rows(), rows_off.num_rows());
}

#[test]
fn create_model_ddl_trains_with_lineage() {
    let db = customer_db();
    db.execute("CREATE TABLE labeled (age DOUBLE, income DOUBLE, hi INT)")
        .unwrap();
    db.execute(
        "INSERT INTO labeled VALUES (25.0, 90.0, 1), (52.0, 30.0, 0), \
         (31.0, 85.0, 1), (60.0, 20.0, 0)",
    )
    .unwrap();
    let mut s = db.session("admin");
    s.execute("CREATE MODEL hi_model KIND logistic FROM labeled TARGET hi")
        .unwrap();
    let md = db.model_metadata("hi_model").unwrap();
    assert_eq!(md.lineage.training_table.as_deref(), Some("labeled"));
    assert_eq!(md.lineage.training_table_version, Some(2));
    assert!(md.lineage.metrics.contains_key("auc"));
    assert_eq!(md.inputs.len(), 2);

    let b = db
        .query("SELECT PREDICT(hi_model, age, income) FROM labeled ORDER BY age")
        .unwrap();
    let Value::Float(p_young_rich) = b.column(0).get(0) else {
        panic!()
    };
    let Value::Float(p_old_poor) = b.column(0).get(3) else {
        panic!()
    };
    assert!(p_young_rich > p_old_poor);
}

#[test]
fn show_models_lists_deployments() {
    let db = customer_db();
    let mut s = db.session("admin");
    s.deploy_model("risk", &risk_pipeline(), Lineage::default())
        .unwrap();
    let b = s.query("SHOW MODELS").unwrap();
    assert_eq!(b.num_rows(), 1);
    assert_eq!(b.column(0).get(0), Value::Text("risk".into()));
    assert_eq!(b.column(1).get(0), Value::Text("linear".into()));
    s.execute("DROP MODEL risk").unwrap();
    let b = s.query("SHOW MODELS").unwrap();
    assert_eq!(b.num_rows(), 0);
    // registry emptied too
    assert!(db.model_metadata("risk").is_err());
}

#[test]
fn model_versions_update_transactionally() {
    let db = customer_db();
    let mut s = db.session("admin");
    let v1 = risk_pipeline();
    s.deploy_model("a", &v1, Lineage::default()).unwrap();
    s.deploy_model("b", &v1, Lineage::default()).unwrap();

    // atomically flip both models to doubled weights
    let v2 = Pipeline::new(
        v1.columns.clone(),
        Model::Linear(LinearModel::new(vec![-0.04, 0.10, 0.0], 2.0)),
        "risk",
    );
    s.begin().unwrap();
    s.update_model("a", &v2, Lineage::default()).unwrap();
    // mid-transaction: other sessions still score v1
    let before = db
        .query("SELECT PREDICT(a, income, debt, age) FROM customers WHERE id = 1")
        .unwrap();
    let Value::Float(x) = before.column(0).get(0) else {
        panic!()
    };
    assert!((x - (1.0 - 1.8 + 0.5)).abs() < 1e-9, "v1 still live");
    s.update_model("b", &v2, Lineage::default()).unwrap();
    s.commit().unwrap();

    let catalog = db.database().catalog();
    assert_eq!(catalog.extension("model", "a").unwrap().current().version, 2);
    assert_eq!(catalog.extension("model", "b").unwrap().current().version, 2);
    let after = db
        .query("SELECT PREDICT(a, income, debt, age) FROM customers WHERE id = 1")
        .unwrap();
    let Value::Float(y) = after.column(0).get(0) else {
        panic!()
    };
    assert!((y - (2.0 - 3.6 + 1.0)).abs() < 1e-9, "v2 live after commit");
}

#[test]
fn rollback_discards_model_update() {
    let db = customer_db();
    let mut s = db.session("admin");
    s.deploy_model("risk", &risk_pipeline(), Lineage::default())
        .unwrap();
    s.begin().unwrap();
    let v2 = Pipeline::new(
        risk_pipeline().columns.clone(),
        Model::Linear(LinearModel::new(vec![0.0, 0.0, 0.0], 99.0)),
        "risk",
    );
    s.update_model("risk", &v2, Lineage::default()).unwrap();
    s.rollback().unwrap();
    let catalog = db.database().catalog();
    assert_eq!(
        catalog.extension("model", "risk").unwrap().current().version,
        1
    );
}

#[test]
fn model_access_control() {
    let db = customer_db();
    let mut admin = db.session("admin");
    admin
        .deploy_model("risk", &risk_pipeline(), Lineage::default())
        .unwrap();
    admin.execute("CREATE USER analyst").unwrap();
    admin
        .execute("GRANT SELECT ON TABLE customers TO analyst")
        .unwrap();

    let mut analyst = db.session("analyst");
    // table readable, but scoring denied without EXECUTE on the model
    analyst.query("SELECT id FROM customers").unwrap();
    let err = analyst.query("SELECT PREDICT(risk, income, debt, age) FROM customers");
    assert!(matches!(err, Err(SqlError::AccessDenied(_))), "{err:?}");

    admin
        .execute("GRANT EXECUTE ON MODEL risk TO analyst")
        .unwrap();
    analyst
        .query("SELECT PREDICT(risk, income, debt, age) FROM customers")
        .unwrap();

    // audit trail captured the denial
    let audit = db.database().audit_log();
    assert!(audit
        .iter()
        .any(|a| a.action == "ACCESS DENIED" && a.user == "analyst"));
}

#[test]
fn tree_model_compression_uses_stats() {
    use flock_ml::{DecisionTree, TreeNode};
    let db = customer_db();
    let mut s = db.session("admin");
    // split at income <= 1000 never branches right for this data (max 120)
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
            TreeNode::Leaf { value: -1.0 },
            TreeNode::Leaf { value: 0.0 },
            TreeNode::Leaf { value: 1.0 },
        ],
    };
    let p = Pipeline::new(
        vec![
            ColumnPipeline::numeric("income"),
            ColumnPipeline::numeric("debt"),
        ],
        Model::Tree(tree),
        "hi_debt",
    );
    s.deploy_model("debt_flag", &p, Lineage::default()).unwrap();
    let b = s
        .query("SELECT id, PREDICT(debt_flag, income, debt) AS f FROM customers ORDER BY id")
        .unwrap();
    assert_eq!(b.column(1).get(0), Value::Float(0.0)); // debt 10
    assert_eq!(b.column(1).get(1), Value::Float(1.0)); // debt 45
    // a compressed variant was derived, and the gauge shows it
    let variants = db
        .query("SELECT value FROM flock_metrics WHERE metric = 'predict_variants'")
        .unwrap();
    assert!(
        matches!(variants.column(0).get(0), Value::Int(n) if n >= 1),
        "derived variant expected"
    );
}

#[test]
fn unknown_model_errors_cleanly() {
    let db = customer_db();
    let err = db.query("SELECT PREDICT(ghost, income) FROM customers");
    assert!(matches!(err, Err(SqlError::Plan(_)) | Err(SqlError::Catalog(_))));
}

#[test]
fn model_survives_fonnx_roundtrip_through_catalog() {
    let db = customer_db();
    let mut s = db.session("admin");
    s.deploy_model("risk", &risk_pipeline(), Lineage::default())
        .unwrap();
    // reload registry from scratch (simulates restart)
    db.registry().remove("risk");
    db.sync_registry();
    let b = db
        .query("SELECT PREDICT(risk, income, debt, age) FROM customers WHERE id = 1")
        .unwrap();
    let Value::Float(x) = b.column(0).get(0) else {
        panic!()
    };
    assert!((x - (1.0 - 1.8 + 0.5)).abs() < 1e-9);
}

#[test]
fn describe_model_shows_version_history() {
    let db = customer_db();
    let mut s = db.session("admin");
    s.deploy_model("risk", &risk_pipeline(), Lineage::default())
        .unwrap();
    let v2 = Pipeline::new(
        risk_pipeline().columns.clone(),
        Model::Linear(LinearModel::new(vec![-0.04, 0.1, 0.0], 2.0)),
        "risk",
    );
    s.update_model("risk", &v2, Lineage::default()).unwrap();

    let b = s.query("DESCRIBE MODEL risk").unwrap();
    assert_eq!(b.num_rows(), 2, "one row per version");
    assert_eq!(b.column(0).get(0), Value::Int(1));
    assert_eq!(b.column(0).get(1), Value::Int(2));
    assert_eq!(b.column(1).get(0), Value::Text("linear".into()));
    assert!(s.query("DESCRIBE MODEL ghost").is_err());
}

#[test]
fn score_drift_detected_after_data_shift() {
    use flock_ml::{DriftVerdict, ScoreProfile};
    let db = customer_db();
    let mut s = db.session("admin");
    s.deploy_model("risk", &risk_pipeline(), Lineage::default())
        .unwrap();

    // baseline: deployment-time score distribution
    let collect = |db: &FlockDb| -> Vec<f64> {
        let b = db
            .query("SELECT PREDICT(risk, income, debt, age) FROM customers")
            .unwrap();
        (0..b.num_rows())
            .map(|r| b.column(0).get(r).as_f64().unwrap())
            .collect()
    };
    let baseline = ScoreProfile::from_scores(&collect(&db), 8);

    // the world changes: a wave of high-debt customers arrives
    let rows: Vec<String> = (0..50)
        .map(|i| format!("({}, 40.0, 15.0, {}, 'nyc')", 100 + i, 200.0 + i as f64))
        .collect();
    db.execute(&format!("INSERT INTO customers VALUES {}", rows.join(", ")))
        .unwrap();

    let report = baseline.check(&collect(&db));
    assert_eq!(report.verdict, DriftVerdict::Major, "{report:?}");
    assert!(report.live_mean > report.baseline_mean);
}

#[test]
fn predict_one_scores_single_decisions() {
    let db = customer_db();
    let mut s = db.session("admin");
    s.deploy_model("risk", &risk_pipeline(), Lineage::default())
        .unwrap();
    let score = s
        .predict_one(
            "risk",
            &[Value::Float(90.0), Value::Float(10.0), Value::Float(30.0)],
        )
        .unwrap();
    assert!((score - (1.0 - 0.02 * 90.0 + 0.05 * 10.0)).abs() < 1e-9);

    // agrees with the SQL path
    let sql = db
        .query("SELECT PREDICT(risk, 90.0, 10.0, 30.0)")
        .unwrap();
    assert!((sql.column(0).get(0).as_f64().unwrap() - score).abs() < 1e-12);

    // arity and ACL errors surface
    assert!(s.predict_one("risk", &[Value::Float(1.0)]).is_err());
    db.execute("CREATE USER rando").unwrap();
    let mut rando = db.session("rando");
    assert!(matches!(
        rando.predict_one("risk", &[Value::Float(1.0), Value::Float(2.0), Value::Float(3.0)]),
        Err(SqlError::AccessDenied(_))
    ));
}

#[test]
fn validation_gate_blocks_bad_models() {
    let db = FlockDb::new();
    db.execute("CREATE TABLE labeled (x DOUBLE, y INT)").unwrap();
    db.execute(
        "INSERT INTO labeled VALUES (1.0, 0), (2.0, 0), (3.0, 0), (10.0, 1), \
         (11.0, 1), (12.0, 1)",
    )
    .unwrap();
    let mut s = db.session("admin");

    let good = Pipeline::new(
        vec![ColumnPipeline::numeric("x")],
        Model::Logistic(LinearModel::new(vec![2.0], -13.0)), // threshold ~6.5
        "p",
    );
    let bad = Pipeline::new(
        vec![ColumnPipeline::numeric("x")],
        Model::Logistic(LinearModel::new(vec![-2.0], 13.0)), // inverted
        "p",
    );
    s.deploy_model("clf", &good, Lineage::default()).unwrap();

    // the good model validates cleanly
    let metrics = s.validate_pipeline(&good, "labeled", "y").unwrap();
    assert!(metrics["accuracy"] > 0.99, "{metrics:?}");
    assert_eq!(metrics["validation_rows"], 6.0);

    // the bad candidate is rejected; v1 stays live
    let err = s.update_model_gated("clf", &bad, Lineage::default(), "labeled", "y", "auc", 0.8);
    assert!(err.is_err(), "gate should reject inverted model");
    let catalog = db.database().catalog();
    assert_eq!(catalog.extension("model", "clf").unwrap().current().version, 1);

    // a good candidate passes and records validation metrics in lineage
    let v = s
        .update_model_gated("clf", &good, Lineage::default(), "labeled", "y", "auc", 0.8)
        .unwrap();
    assert_eq!(v, 2);
    let md = db.model_metadata("clf").unwrap();
    assert!(md.lineage.metrics.contains_key("auc"));
}

#[test]
fn views_can_wrap_predictions_with_acl_intact() {
    let db = customer_db();
    let mut s = db.session("admin");
    s.deploy_model("risk", &risk_pipeline(), Lineage::default())
        .unwrap();
    s.execute(
        "CREATE VIEW risk_scores AS SELECT id, PREDICT(risk, income, debt, age) AS r \
         FROM customers",
    )
    .unwrap();
    let b = db.query("SELECT COUNT(*) FROM risk_scores WHERE r > 1.5").unwrap();
    assert_eq!(b.column(0).get(0), Value::Int(2));

    // the view does not launder access: scoring through it still requires
    // EXECUTE on the model and SELECT on the base table
    db.execute("CREATE USER peeker").unwrap();
    let mut peeker = db.session("peeker");
    assert!(matches!(
        peeker.query("SELECT * FROM risk_scores"),
        Err(SqlError::AccessDenied(_))
    ));
    db.execute("GRANT SELECT ON TABLE customers TO peeker").unwrap();
    assert!(matches!(
        peeker.query("SELECT * FROM risk_scores"),
        Err(SqlError::AccessDenied(_))
    ), "SELECT on the base table is not enough without EXECUTE on the model");
    db.execute("GRANT EXECUTE ON MODEL risk TO peeker").unwrap();
    assert_eq!(peeker.query("SELECT * FROM risk_scores").unwrap().num_rows(), 5);
}

#[test]
fn dropping_a_model_breaks_dependent_queries_cleanly() {
    let db = customer_db();
    let mut s = db.session("admin");
    s.deploy_model("risk", &risk_pipeline(), Lineage::default())
        .unwrap();
    db.query("SELECT PREDICT(risk, income, debt, age) FROM customers").unwrap();
    s.execute("DROP MODEL risk").unwrap();
    let err = db.query("SELECT PREDICT(risk, income, debt, age) FROM customers");
    assert!(err.is_err(), "dangling model reference must error, not panic");
}

#[test]
fn model_packages_move_between_databases() {
    use flock_core::ModelPackage;
    let cloud = customer_db();
    let mut cs = cloud.session("admin");
    cs.deploy_model("risk", &risk_pipeline(), Lineage::default())
        .unwrap();
    let package = cs.export_model("risk").unwrap();
    let wire = package.to_bytes();

    let edge = customer_db();
    let mut es = edge.session("admin");
    es.import_model(&ModelPackage::from_bytes(&wire).unwrap())
        .unwrap();

    // identical predictions on identical inputs
    let q = "SELECT PREDICT(risk, income, debt, age) FROM customers ORDER BY id";
    let a = cloud.query(q).unwrap();
    let b = edge.query(q).unwrap();
    for r in 0..a.num_rows() {
        assert_eq!(a.column(0).get(r), b.column(0).get(r));
    }

    // corrupted packages are rejected before touching the catalog
    let mut bad = package.clone();
    bad.payload = vec![1, 2, 3];
    assert!(es.import_model(&bad).is_err());
    assert!(ModelPackage::from_bytes(b"garbage").is_err());

    // export requires SELECT on the model
    edge.execute("CREATE USER spy").unwrap();
    let mut spy = edge.session("spy");
    assert!(matches!(
        spy.export_model("risk"),
        Err(SqlError::AccessDenied(_))
    ));
}

#[test]
fn every_model_kind_trains_and_scores_via_ddl() {
    let db = FlockDb::new();
    db.execute("CREATE TABLE pts (x DOUBLE, z DOUBLE, y INT)").unwrap();
    let rows: Vec<String> = (0..60)
        .map(|i| {
            let x = (i % 20) as f64;
            let z = ((i * 7) % 13) as f64;
            let y = if x > 9.5 { 1 } else { 0 };
            format!("({x}, {z}, {y})")
        })
        .collect();
    db.execute(&format!("INSERT INTO pts VALUES {}", rows.join(", ")))
        .unwrap();

    for kind in ["linear", "logistic", "tree", "forest", "gbt", "naive_bayes", "knn"] {
        let name = format!("m_{kind}");
        db.execute(&format!(
            "CREATE MODEL {name} KIND {kind} FROM pts TARGET y FEATURES x, z"
        ))
        .unwrap_or_else(|e| panic!("{kind}: {e}"));
        let b = db
            .query(&format!(
                "SELECT AVG(PREDICT({name}, x, z)) FROM pts WHERE x > 9.5"
            ))
            .unwrap();
        let high = b.column(0).get(0).as_f64().unwrap();
        let b = db
            .query(&format!(
                "SELECT AVG(PREDICT({name}, x, z)) FROM pts WHERE x < 9.5"
            ))
            .unwrap();
        let low = b.column(0).get(0).as_f64().unwrap();
        assert!(
            high > low,
            "{kind}: positive region should score higher ({high} vs {low})"
        );
    }
    // all seven live side by side in the catalog
    let models = db.query("SHOW MODELS").unwrap();
    assert_eq!(models.num_rows(), 7);
    // an unknown kind errors cleanly
    assert!(db
        .execute("CREATE MODEL bad KIND quantum FROM pts TARGET y")
        .is_err());
}

#[test]
fn scripted_sessions_execute_multi_statement_workflows() {
    let db = FlockDb::new();
    let mut s = db.session("admin");
    // sql sessions run scripts statement by statement
    let db2 = db.database().clone();
    let mut raw = db2.session("admin");
    let results = raw
        .execute_script(
            "CREATE TABLE w (a INT); INSERT INTO w VALUES (1), (2); \
             BEGIN; INSERT INTO w VALUES (3); COMMIT; SELECT COUNT(*) FROM w;",
        )
        .unwrap();
    let last = results.last().unwrap();
    assert_eq!(
        last.batch.as_ref().unwrap().column(0).get(0),
        Value::Int(3)
    );
    let _ = &mut s;
}

#[test]
fn compiled_cache_invalidates_on_model_redeploy() {
    let db = customer_db();
    let mut s = db.session("admin");
    // one-hot featurization is not affine, so this tree cannot inline
    // into pure SQL: PREDICT survives and scores through the compiled
    // pipeline cache
    s.deploy_model("ct", &city_tree_pipeline(), Lineage::default())
        .unwrap();
    let q = "SELECT id FROM customers WHERE PREDICT(ct, income, city) > 1.5 ORDER BY id";

    db.query(q).unwrap();
    let (h0, m0, i0) = db.registry().compiled_cache_counts();
    assert!(m0 >= 1, "first run must compile: {:?}", (h0, m0, i0));

    db.query(q).unwrap();
    let (h1, m1, i1) = db.registry().compiled_cache_counts();
    assert!(h1 > h0, "second run should hit the cache");
    assert_eq!(m1, m0, "no recompilation on a cache hit");
    assert_eq!(i1, i0);

    // redeploying bumps the version and must evict every compiled entry
    // derived from the old one — scoring v2 through a stale compiled v1
    // would silently return wrong answers
    let v2 = Pipeline::new(
        city_tree_pipeline().columns.clone(),
        Model::Tree(flock_ml::DecisionTree {
            nodes: vec![flock_ml::TreeNode::Leaf { value: 9.0 }],
        }),
        "const9",
    );
    s.update_model("ct", &v2, Lineage::default()).unwrap();
    let (_, _, i2) = db.registry().compiled_cache_counts();
    assert!(i2 > i1, "redeploy must invalidate compiled entries");

    // v2 answers after the redeploy: every row now scores 9.0
    let b = db.query(q).unwrap();
    assert_eq!(b.num_rows(), 5);

    // the counters are visible through SQL alongside the engine counters
    let (hits, misses, invalidations) = db.registry().compiled_cache_counts();
    for (metric, want) in [
        ("predict_compile_hits", hits),
        ("predict_compile_misses", misses),
        ("predict_compile_invalidations", invalidations),
    ] {
        let b = db
            .query(&format!(
                "SELECT value FROM flock_metrics WHERE metric = '{metric}'"
            ))
            .unwrap();
        assert_eq!(b.num_rows(), 1, "{metric}");
        assert_eq!(b.column(0).get(0), Value::Int(want as i64), "{metric}");
    }
}

/// tree over income + one-hot(city): splits to a single leaf once the
/// query pins city = 'nyc'.
fn city_tree_pipeline() -> Pipeline {
    use flock_ml::{DecisionTree, TreeNode};
    // features: 0 = income, 1 = city=nyc, 2 = city=sf, 3 = city=chi
    let tree = DecisionTree {
        nodes: vec![
            TreeNode::Split {
                feature: 1,
                threshold: 0.5,
                left: 1,
                right: 2,
            },
            TreeNode::Split {
                feature: 0,
                threshold: 50.0,
                left: 3,
                right: 4,
            },
            TreeNode::Leaf { value: 5.0 },
            TreeNode::Leaf { value: 1.0 },
            TreeNode::Leaf { value: 2.0 },
        ],
    };
    Pipeline::new(
        vec![
            ColumnPipeline::numeric("income"),
            ColumnPipeline::one_hot(
                "city",
                vec!["nyc".into(), "sf".into(), "chi".into()],
            ),
        ],
        Model::Tree(tree),
        "city_tree",
    )
}

#[test]
fn explain_surfaces_predicate_specialization() {
    let db = customer_db();
    let mut s = db.session("admin");
    s.deploy_model("ct", &city_tree_pipeline(), Lineage::default())
        .unwrap();
    // city = 'nyc' pins the one-hot block; the tree collapses to a leaf
    let q = "SELECT id, PREDICT(ct, income, city) AS v FROM customers WHERE city = 'nyc'";
    let res = s.execute(&format!("EXPLAIN ANALYZE {q}")).unwrap();
    let text: String = {
        let b = res.batch.unwrap();
        (0..b.num_rows())
            .map(|i| b.column(0).get(i).to_string())
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert!(
        text.contains("spec("),
        "specialization annotation expected in plan: {text}"
    );

    // and the specialized plan returns the same rows as the raw pipeline
    let b = db.query(q).unwrap();
    assert_eq!(b.num_rows(), 2);
    for r in 0..b.num_rows() {
        assert_eq!(b.column(1).get(r), Value::Float(5.0), "nyc leaf");
    }
    let off = customer_db();
    off.set_xopt_config(XOptConfig::disabled());
    off.session("admin")
        .deploy_model("ct", &city_tree_pipeline(), Lineage::default())
        .unwrap();
    let raw = off.query(q).unwrap();
    assert_eq!(raw.num_rows(), b.num_rows());
    for r in 0..b.num_rows() {
        assert_eq!(b.column(1).get(r), raw.column(1).get(r));
    }
}

/// Pruning keeps a linear model's feature layout, so the pruned (and then
/// specialized) PREDICT is bit-equal to the unoptimized one, and the
/// arguments left after pruning still line up with the columns that
/// specialization folds.
#[test]
fn pruned_linear_model_specializes_and_stays_bit_exact() {
    // income, age (zero weight), city one-hot (so never inlined)
    let pipeline = Pipeline::new(
        vec![
            ColumnPipeline::numeric("income"),
            ColumnPipeline::numeric("age"),
            ColumnPipeline::one_hot("city", vec!["nyc".into(), "sf".into(), "chi".into()]),
        ],
        Model::Linear(LinearModel::new(vec![0.3, 0.0, 0.1, 0.7, 1.1], 0.2)),
        "lin",
    );
    let (on, off) = (customer_db(), customer_db());
    off.set_xopt_config(XOptConfig::disabled());
    for db in [&on, &off] {
        let mut s = db.session("admin");
        s.deploy_model("lin", &pipeline, Lineage::default())
            .unwrap();
    }
    let rows = |b: &flock_sql::RecordBatch| -> Vec<String> {
        let row = |r| format!("{:?}", b.row(r));
        (0..b.num_rows()).map(row).collect()
    };
    // age is pruned; city = 'nyc' then fixes city too
    for (filter, args) in [("", ", income, city)"), ("WHERE city = 'nyc'", ", income)")] {
        let q = format!("SELECT id, PREDICT(lin, income, age, city) AS v FROM customers {filter}");
        let plan = rows(&on.query(&format!("EXPLAIN {q}")).unwrap()).join("\n");
        assert!(plan.contains(args) && !plan.contains("age"), "{plan}");
        assert_eq!(rows(&on.query(&q).unwrap()), rows(&off.query(&q).unwrap()));
    }
}

#[test]
fn specialized_queries_agree_across_predict_strategies() {
    // Predicate-constrained and literal-argument queries: specialization
    // must never change a score, whichever runtime executes it.
    let queries = [
        "SELECT id, PREDICT(ct, income, city) AS v FROM customers \
         WHERE city = 'nyc' AND income >= 20 ORDER BY id",
        "SELECT id, PREDICT(ct, income, 'sf') AS v FROM customers ORDER BY id",
        "SELECT AVG(PREDICT(ct, income, city)) FROM customers WHERE income < 100",
    ];
    for q in queries {
        let off = customer_db();
        off.set_xopt_config(XOptConfig::disabled());
        off.database().set_exec_options(ExecOptions::serial());
        let mut s = off.session("admin");
        s.deploy_model("ct", &city_tree_pipeline(), Lineage::default())
            .unwrap();
        s.execute("SET predict_strategy = 'row'").unwrap();
        let baseline = s.query(q).unwrap();

        // The last configuration fans every operator out over 3 workers
        // and 2-row morsels: one PREDICT call per morsel.
        let fanned_out = ExecOptions {
            morsel_rows: 2,
            ..ExecOptions::with_threads(3, 1)
        };
        for (strategy, options) in [
            ("row", ExecOptions::default()),
            ("auto", ExecOptions::default()),
            ("auto", fanned_out),
        ] {
            let on = customer_db();
            on.database().set_exec_options(options.clone());
            let mut s = on.session("admin");
            s.deploy_model("ct", &city_tree_pipeline(), Lineage::default())
                .unwrap();
            s.execute(&format!("SET predict_strategy = '{strategy}'"))
                .unwrap();
            let got = s.query(q).unwrap();
            let label = format!("{q} {strategy} threads={}", options.threads);
            assert_eq!(got.num_rows(), baseline.num_rows(), "{label}");
            for r in 0..got.num_rows() {
                for c in 0..got.num_columns() {
                    assert_eq!(
                        got.column(c).get(r),
                        baseline.column(c).get(r),
                        "{label} row {r} col {c}"
                    );
                }
            }
        }
    }
}

#[test]
fn predict_pipeline_deterministic_across_thread_configs() {
    // A PREDICT query over enough rows to trigger morsel fan-out must
    // return the same rows whatever thread count the executor runs with.
    let db = FlockDb::new();
    db.execute("CREATE TABLE txns (id INT, income DOUBLE, debt DOUBLE, age DOUBLE)")
        .unwrap();
    for chunk in 0..4 {
        let rows: Vec<String> = (0..500)
            .map(|i| {
                let id = chunk * 500 + i;
                // deterministic pseudo-data; no RNG crate needed
                let income = ((id * 37) % 150) as f64 + 10.0;
                let debt = ((id * 91) % 80) as f64;
                let age = ((id * 13) % 50) as f64 + 18.0;
                format!("({id}, {income}, {debt}, {age})")
            })
            .collect();
        db.execute(&format!("INSERT INTO txns VALUES {}", rows.join(", ")))
            .unwrap();
    }
    let mut s = db.session("admin");
    s.deploy_model("risk", &risk_pipeline(), Lineage::default())
        .unwrap();
    let q = "SELECT id, PREDICT(risk, income, debt, age) AS r FROM txns \
             WHERE PREDICT(risk, income, debt, age) > 1.5 ORDER BY id";

    db.database().set_exec_options(ExecOptions::serial());
    let serial = db.session("admin").query(q).unwrap();
    assert!(serial.num_rows() > 0, "query should select some rows");

    for threads in [2usize, 8] {
        db.database()
            .set_exec_options(ExecOptions::with_threads(threads, 1));
        let parallel = db.session("admin").query(q).unwrap();
        assert_eq!(serial.num_rows(), parallel.num_rows(), "threads={threads}");
        for r in 0..serial.num_rows() {
            for c in 0..serial.num_columns() {
                let a = serial.column(c).get(r);
                let b = parallel.column(c).get(r);
                // scoring is per-row (no reassociation): exact match expected
                assert!(
                    a.group_eq(&b),
                    "threads={threads} row {r} col {c}: {a:?} vs {b:?}"
                );
            }
        }
    }
}

#[test]
fn exec_options_have_one_home() {
    // A FlockDb runs with the engine's own defaults ...
    let db = FlockDb::new();
    let engine = flock_sql::Database::new().exec_options();
    let flock = db.database().exec_options();
    assert_eq!(flock.threads, engine.threads);
    assert_eq!(flock.parallel_row_threshold, engine.parallel_row_threshold);

    // ... and switching cross-optimizer rules leaves every execution
    // setting as it was.
    db.database().set_exec_options(ExecOptions {
        max_concurrent_queries: 1,
        statement_timeout_ms: 5,
        max_rows_budget: 1_000,
        max_mem_bytes: 1 << 20,
        ..ExecOptions::with_threads(3, 77)
    });
    db.set_xopt_config(XOptConfig::disabled());
    db.set_xopt_config(XOptConfig::default());
    let kept = db.database().exec_options();
    assert_eq!(kept.max_concurrent_queries, 1);
    assert_eq!(kept.statement_timeout_ms, 5);
    assert_eq!(kept.max_rows_budget, 1_000);
    assert_eq!(kept.max_mem_bytes, 1 << 20);
    assert_eq!((kept.threads, kept.parallel_row_threshold), (3, 77));
}
