//! Governed in-database training: `CREATE MODEL ... AS SELECT` with
//! multi-table lineage pins, honest holdout metrics, hyperparameters in
//! the statement, and `RETRAIN MODEL` re-running the recorded statement.

use flock_core::{FlockDb, Lineage};
use flock_corpus::tabular::TabularDataset;
use flock_ml::{ColumnPipeline, LinearModel, Model, Pipeline};

#[test]
fn as_select_join_pins_every_scanned_table_version() {
    let db = FlockDb::new();
    db.execute("CREATE TABLE customers (id INT, age DOUBLE, churned INT)")
        .unwrap();
    db.execute(
        "INSERT INTO customers VALUES (1, 25.0, 1), (2, 52.0, 0), (3, 31.0, 1), \
         (4, 60.0, 0), (5, 45.0, 0), (6, 28.0, 1), (7, 55.0, 0), (8, 33.0, 1), \
         (9, 48.0, 0), (10, 26.0, 1)",
    )
    .unwrap();
    db.execute("CREATE TABLE accounts (cust_id INT, balance DOUBLE)").unwrap();
    db.execute(
        "INSERT INTO accounts VALUES (1, 90.0), (2, 20.0), (3, 85.0), (4, 15.0), \
         (5, 30.0), (6, 88.0), (7, 25.0), (8, 80.0), (9, 22.0), (10, 95.0)",
    )
    .unwrap();

    db.execute(
        "CREATE MODEL churn KIND logistic WITH (seed = 1) TARGET churned OUTPUT churn_p \
         AS SELECT c.age, a.balance, c.churned \
         FROM customers c JOIN accounts a ON c.id = a.cust_id",
    )
    .unwrap();

    let md = db.model_metadata("churn").unwrap();
    // provenance pins the exact committed version of *every* scanned table
    assert_eq!(
        md.lineage.training_tables,
        vec![("accounts".to_string(), 2), ("customers".to_string(), 2)]
    );
    // the first pin doubles as the legacy single-table fields
    assert_eq!(md.lineage.training_table.as_deref(), Some("accounts"));
    assert_eq!(md.lineage.training_table_version, Some(2));
    // the raw statement is recorded for RETRAIN
    let q = md.lineage.training_query.as_deref().unwrap();
    assert!(q.starts_with("CREATE MODEL churn"), "{q}");
    assert!(q.contains("JOIN accounts"), "{q}");
    assert_eq!(md.output, "churn_p");
    // holdout metrics recorded: 10 joined rows, default 20% held out
    assert_eq!(md.lineage.metrics.get("train_rows"), Some(&8.0));
    assert_eq!(md.lineage.metrics.get("eval_rows"), Some(&2.0));
    assert!(md.lineage.metrics.contains_key("auc"));
    assert!(md.lineage.metrics.contains_key("eval_auc"));

    // the model scores through PREDICT like any deployed model
    let b = db
        .query(
            "SELECT PREDICT(churn, c.age, a.balance) FROM customers c \
             JOIN accounts a ON c.id = a.cust_id",
        )
        .unwrap();
    assert_eq!(b.num_rows(), 10);
}

#[test]
fn recorded_metrics_come_from_held_out_rows() {
    let db = FlockDb::new();
    db.execute("CREATE TABLE noisy (x DOUBLE, y INT)").unwrap();
    // pseudo-noisy labels: a 1-nearest-neighbour model memorizes its
    // training rows perfectly, so train accuracy is 1.0 by construction —
    // any recorded accuracy below 1.0 must come from held-out rows.
    let rows: Vec<String> = (0..40)
        .map(|i| {
            let y = if i % 5 == 0 || i % 5 == 3 { 1 } else { 0 };
            format!("({}.0, {y})", i)
        })
        .collect();
    db.execute(&format!("INSERT INTO noisy VALUES {}", rows.join(", ")))
        .unwrap();
    db.execute(
        "CREATE MODEL memo KIND knn WITH (k = 1, seed = 3, test_fraction = 0.25) \
         TARGET y AS SELECT x, y FROM noisy",
    )
    .unwrap();

    let md = db.model_metadata("memo").unwrap();
    let m = &md.lineage.metrics;
    assert_eq!(m.get("train_rows"), Some(&30.0));
    assert_eq!(m.get("eval_rows"), Some(&10.0));
    // the holdout is disjoint from the fit: a memorizing model cannot be
    // perfect on rows it never saw
    let acc = m["accuracy"];
    assert!(acc < 1.0, "accuracy {acc} looks like a training-set metric");
    assert_eq!(m["eval_accuracy"], acc, "plain name aliases the eval metric");
}

#[test]
fn holdout_auc_clears_the_floor_on_separable_data() {
    // The generated label is a noisy threshold on income, debt, tenure
    // and city, so a working learner ranks held-out rows well.
    let db = FlockDb::new();
    TabularDataset::generate(2_000, 11)
        .load_into(db.database())
        .unwrap();
    for (kind, extra) in [("logistic", ""), ("gbt", ", trees = 10, max_depth = 4")] {
        db.execute(&format!(
            "CREATE MODEL churn_{kind} KIND {kind} WITH (seed = 7{extra}) TARGET label \
             AS SELECT age, income, debt, tenure, city, label FROM customers"
        ))
        .unwrap();
        // `eval_auc` is recorded only when rows were held out.
        let md = db.model_metadata(&format!("churn_{kind}")).unwrap();
        let auc = md.lineage.metrics["eval_auc"];
        assert!(auc >= 0.80, "{kind}: eval_auc {auc} below the 0.80 floor");
    }
}

#[test]
fn target_listed_as_feature_is_rejected_as_leakage() {
    let db = FlockDb::new();
    db.execute("CREATE TABLE t (x DOUBLE, y INT)").unwrap();
    db.execute("INSERT INTO t VALUES (1.0, 0), (2.0, 1)").unwrap();
    let err = db
        .execute("CREATE MODEL leak KIND gbt FROM t TARGET y FEATURES x, y")
        .unwrap_err();
    assert!(err.to_string().contains("leaks"), "{err}");
    // nothing was deployed
    assert!(db.model_metadata("leak").is_err());
}

/// A model re-runs its training statement on `RETRAIN`, when no value is
/// bound: a `?` in it is refused up front, and nothing trains.
#[test]
fn a_training_query_refuses_a_parameter() {
    let db = FlockDb::new();
    db.execute("CREATE TABLE t (x DOUBLE, y INT)").unwrap();
    db.execute("INSERT INTO t VALUES (1.0, 0), (2.0, 1), (3.0, 0), (4.0, 1)")
        .unwrap();
    let sql = "CREATE MODEL m KIND gbt WITH (seed = 1) TARGET y AS SELECT x, y FROM t WHERE x > ?";
    let mut s = db.session("admin");
    for err in [
        s.execute(sql).unwrap_err(),
        s.execute_with_params(sql, &[flock_sql::Value::Float(0.0)])
            .unwrap_err(),
        s.prepare(sql).err().unwrap(),
    ] {
        assert!(
            matches!(&err, flock_sql::SqlError::Plan(m) if m.contains("cannot hold a `?` parameter")),
            "{err:?}"
        );
        assert!(db.model_metadata("m").is_err(), "nothing was deployed");
    }
    s.execute(&sql.replace('?', "0.0")).unwrap();
    s.execute("RETRAIN MODEL m").unwrap();
    assert_eq!(db.registry().get("m").unwrap().version, 2);
}

#[test]
fn unknown_hyperparameter_is_rejected() {
    let db = FlockDb::new();
    db.execute("CREATE TABLE t (x DOUBLE, y INT)").unwrap();
    db.execute("INSERT INTO t VALUES (1.0, 0), (2.0, 1)").unwrap();
    let err = db
        .execute("CREATE MODEL m KIND gbt WITH (tres = 3) TARGET y AS SELECT x, y FROM t")
        .unwrap_err();
    assert!(
        err.to_string().contains("unknown CREATE MODEL option 'tres'"),
        "{err}"
    );
}

#[test]
fn null_text_is_a_category_distinct_from_empty_string() {
    let db = FlockDb::new();
    db.execute("CREATE TABLE visits (city VARCHAR, readmit INT)").unwrap();
    // NULL city perfectly predicts the label; the empty string is the
    // opposite class. If NULLs collapsed into '', the two classes would be
    // indistinguishable and no model could separate them.
    let mut rows = Vec::new();
    for _ in 0..10 {
        rows.push("(NULL, 1)".to_string());
        rows.push("('', 0)".to_string());
    }
    db.execute(&format!("INSERT INTO visits VALUES {}", rows.join(", ")))
        .unwrap();
    db.execute(
        "CREATE MODEL readmit KIND tree WITH (seed = 4) TARGET readmit \
         AS SELECT city, readmit FROM visits",
    )
    .unwrap();
    let md = db.model_metadata("readmit").unwrap();
    assert_eq!(
        md.lineage.metrics.get("accuracy"),
        Some(&1.0),
        "NULL and '' must be separable categories: {:?}",
        md.lineage.metrics
    );
}

#[test]
fn seeded_training_is_bit_deterministic_across_databases() {
    let payload = |seed: i64| -> Vec<u8> {
        let db = FlockDb::new();
        db.execute("CREATE TABLE pts (x DOUBLE, z DOUBLE, y INT)").unwrap();
        let rows: Vec<String> = (0..30)
            .map(|i| {
                format!("({}.0, {}.0, {})", i, (i * 3) % 7, i64::from(i > 14))
            })
            .collect();
        db.execute(&format!("INSERT INTO pts VALUES {}", rows.join(", ")))
            .unwrap();
        db.execute(&format!(
            "CREATE MODEL m KIND forest WITH (seed = {seed}, trees = 7) \
             TARGET y AS SELECT x, z, y FROM pts"
        ))
        .unwrap();
        db.session("admin").export_model("m").unwrap().payload
    };
    // same declared seed + same data => byte-identical model package
    assert_eq!(payload(5), payload(5));
    // a different seed shuffles the bootstrap: the artifact changes
    assert_ne!(payload(5), payload(6));
}

#[test]
fn retrain_reruns_recorded_statement_with_fresh_pins() {
    let db = FlockDb::new();
    db.execute("CREATE TABLE obs (x DOUBLE, y INT)").unwrap();
    let rows: Vec<String> = (0..12)
        .map(|i| format!("({}.0, {})", i, i64::from(i > 5)))
        .collect();
    db.execute(&format!("INSERT INTO obs VALUES {}", rows.join(", ")))
        .unwrap();
    db.execute(
        "CREATE MODEL m KIND logistic WITH (seed = 2) TARGET y AS SELECT x, y FROM obs",
    )
    .unwrap();
    let md1 = db.model_metadata("m").unwrap();
    assert_eq!(md1.lineage.training_table_version, Some(2));
    assert_eq!(md1.lineage.metrics.get("train_rows"), Some(&10.0));

    // more data lands; RETRAIN re-runs the recorded statement against it
    let rows: Vec<String> = (12..20)
        .map(|i| format!("({}.0, {})", i, 1))
        .collect();
    db.execute(&format!("INSERT INTO obs VALUES {}", rows.join(", ")))
        .unwrap();
    db.execute("RETRAIN MODEL m").unwrap();

    let md2 = db.model_metadata("m").unwrap();
    assert_eq!(db.registry().get("m").unwrap().version, 2);
    assert_eq!(md2.lineage.training_table_version, Some(3), "pin refreshed");
    assert_eq!(md2.lineage.metrics.get("train_rows"), Some(&16.0));
    // the audit trail records the retrain against the model object
    let audit = db.database().audit_log();
    assert!(
        audit.iter().any(|r| r.action == "MODEL RETRAIN" && r.object == "m"),
        "actions: {:?}",
        audit.iter().map(|r| r.action.clone()).collect::<Vec<_>>()
    );
}

#[test]
fn retrain_requires_a_recorded_training_statement() {
    let db = FlockDb::new();
    let pipeline = Pipeline::new(
        vec![ColumnPipeline::numeric("x")],
        Model::Linear(LinearModel::new(vec![1.0], 0.0)),
        "score",
    );
    db.session("admin")
        .deploy_model("handmade", &pipeline, Lineage::default())
        .unwrap();
    let err = db.execute("RETRAIN MODEL handmade").unwrap_err();
    assert!(
        err.to_string().contains("no recorded training statement"),
        "{err}"
    );
}

#[test]
fn training_reads_are_access_checked() {
    let db = FlockDb::new();
    db.execute("CREATE TABLE secrets (x DOUBLE, y INT)").unwrap();
    db.execute("INSERT INTO secrets VALUES (1.0, 0), (2.0, 1)").unwrap();
    db.execute("CREATE USER intern").unwrap();
    let mut s = db.session("intern");
    let err = s
        .execute("CREATE MODEL spy KIND gbt TARGET y AS SELECT x, y FROM secrets")
        .unwrap_err();
    assert!(
        matches!(err, flock_sql::SqlError::AccessDenied(_)),
        "training must not bypass table ACLs: {err}"
    );
}

#[test]
fn model_created_inside_a_script_records_its_own_statement_and_retrains() {
    let db = FlockDb::new();
    let rows: Vec<String> = (0..12)
        .map(|i| format!("({}.0, {})", i, i64::from(i > 5)))
        .collect();
    let script = format!(
        "CREATE TABLE obs (x DOUBLE, y INT);\n\
         INSERT INTO obs VALUES {};\n\
         CREATE MODEL m KIND logistic WITH (seed = 2) TARGET y AS SELECT x, y FROM obs;",
        rows.join(", ")
    );
    let mut s = db.database().session("admin");
    assert_eq!(s.execute_script(&script).unwrap().len(), 3);

    // lineage holds the CREATE MODEL statement alone, not the whole script
    let md = db.model_metadata("m").unwrap();
    let recorded = md.lineage.training_query.as_deref().unwrap();
    assert!(recorded.starts_with("CREATE MODEL m"), "{recorded}");
    assert!(!recorded.contains("CREATE TABLE"), "{recorded}");

    // ... so RETRAIN can re-parse and re-run it
    db.execute("INSERT INTO obs VALUES (12.0, 1), (13.0, 1)").unwrap();
    db.execute("RETRAIN MODEL m").unwrap();
    assert_eq!(db.registry().get("m").unwrap().version, 2);
    let md2 = db.model_metadata("m").unwrap();
    assert_eq!(md2.lineage.training_table_version, Some(3));
}

#[test]
fn training_scans_are_metered_like_queries() {
    let db = FlockDb::new();
    db.execute("CREATE TABLE obs (x DOUBLE, y INT)").unwrap();
    let rows: Vec<String> = (0..12)
        .map(|i| format!("({}.0, {})", i, i64::from(i > 5)))
        .collect();
    db.execute(&format!("INSERT INTO obs VALUES {}", rows.join(", ")))
        .unwrap();
    let scanned = || {
        let rows = db.database().engine_metrics().rows();
        rows.iter().find(|(n, _)| *n == "rows_scanned").unwrap().1
    };

    let mut s = db.session("admin");
    s.query("SELECT x FROM obs WHERE x < 2.0").unwrap();
    assert_eq!(s.last_query_metrics().unwrap().rows_out, 2);

    // CREATE MODEL: the session's snapshot and the engine counters now
    // describe the training scan, not the statement before it
    let before = scanned();
    s.execute("CREATE MODEL m KIND logistic WITH (seed = 2) TARGET y AS SELECT x, y FROM obs")
        .unwrap();
    let snap = s.last_query_metrics().unwrap();
    assert_eq!((snap.rows_scanned(), snap.rows_out), (12, 12));
    assert_eq!(scanned() - before, 12);

    // RETRAIN: same, over the grown table
    s.execute("INSERT INTO obs VALUES (12.0, 1), (13.0, 1)").unwrap();
    let before = scanned();
    s.execute("RETRAIN MODEL m").unwrap();
    assert_eq!(s.last_query_metrics().unwrap().rows_out, 14);
    assert_eq!(scanned() - before, 14);
}
