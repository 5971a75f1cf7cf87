//! Direct tests of the relational optimizer rules: each rule's plan
//! transformation, and end-to-end equivalence with the optimizer off.

use flock_sql::ast::Statement;
use flock_sql::optimizer::{optimize, OptimizerConfig};
use flock_sql::plan::{plan_query, LogicalPlan, PlanContext};
use flock_sql::udf::NoInference;
use flock_sql::{Database, Value};

fn setup() -> Database {
    let db = Database::new();
    db.execute(
        "CREATE TABLE orders (id INT, cust INT, total DOUBLE, status VARCHAR, d DATE)",
    )
    .unwrap();
    db.execute(
        "INSERT INTO orders VALUES \
         (1, 10, 50.0, 'open', '2024-01-01'), (2, 11, 75.0, 'done', '2024-01-02'), \
         (3, 10, 20.0, 'done', '2024-02-01'), (4, 12, 95.0, 'open', '2024-02-10'), \
         (5, 11, 60.0, 'open', '2024-03-05')",
    )
    .unwrap();
    db.execute("CREATE TABLE custs (cid INT, name VARCHAR, tier VARCHAR)").unwrap();
    db.execute(
        "INSERT INTO custs VALUES (10, 'acme', 'gold'), (11, 'beta', 'silver'), \
         (12, 'corp', 'gold')",
    )
    .unwrap();
    db
}

fn plan_of(db: &Database, sql: &str, config: &OptimizerConfig) -> LogicalPlan {
    let Statement::Query(q) = flock_sql::parser::parse_statement(sql).unwrap() else {
        panic!("not a query")
    };
    let catalog = db.catalog();
    let ctx = PlanContext::new(&catalog, &NoInference);
    let plan = plan_query(&q, &ctx).unwrap();
    optimize(plan, config).unwrap()
}

fn explain(db: &Database, sql: &str, config: &OptimizerConfig) -> String {
    plan_of(db, sql, config).explain()
}

#[test]
fn predicate_pushdown_moves_filters_below_joins() {
    let db = setup();
    let cfg = OptimizerConfig::default();
    let text = explain(
        &db,
        "SELECT o.id, c.name FROM orders o JOIN custs c ON o.cust = c.cid \
         WHERE o.total > 50 AND c.tier = 'gold'",
        &cfg,
    );
    // both single-side predicates sit below the join (indented deeper)
    let join_line = text.lines().position(|l| l.contains("Join")).unwrap();
    let total_line = text.lines().position(|l| l.contains("total")).unwrap();
    let tier_line = text.lines().position(|l| l.contains("tier")).unwrap();
    assert!(total_line > join_line, "{text}");
    assert!(tier_line > join_line, "{text}");
}

#[test]
fn implicit_join_predicates_become_hash_keys() {
    let db = setup();
    let cfg = OptimizerConfig::default();
    let text = explain(
        &db,
        "SELECT o.id FROM orders o, custs c WHERE o.cust = c.cid AND o.total > 10",
        &cfg,
    );
    assert!(text.contains("on=[cust = cid]"), "equi key extracted: {text}");
}

#[test]
fn projection_pruning_narrows_scans() {
    let db = setup();
    let cfg = OptimizerConfig::default();
    let text = explain(&db, "SELECT id FROM orders WHERE total > 10", &cfg);
    assert!(text.contains("projection="), "{text}");
    assert!(!text.contains("status"), "unused column still present: {text}");
}

#[test]
fn constant_folding_simplifies_predicates() {
    let db = setup();
    let cfg = OptimizerConfig::default();
    let text = explain(&db, "SELECT id FROM orders WHERE 1 + 1 = 2 AND total > 10 * 5", &cfg);
    assert!(!text.contains("1 + 1"), "{text}");
    assert!(text.contains("50"), "folded literal expected: {text}");
}

#[test]
fn each_rule_is_individually_sound() {
    let db = setup();
    let queries = [
        "SELECT o.id, c.name, o.total FROM orders o JOIN custs c ON o.cust = c.cid \
         WHERE o.total > 30 AND c.tier = 'gold' ORDER BY o.id",
        "SELECT status, COUNT(*), SUM(total) FROM orders GROUP BY status ORDER BY status",
        "SELECT c.tier, AVG(o.total) FROM orders o, custs c \
         WHERE o.cust = c.cid GROUP BY c.tier ORDER BY c.tier",
        "SELECT DISTINCT status FROM orders ORDER BY status",
        "SELECT id, total * 2 FROM orders WHERE status = 'open' ORDER BY total DESC LIMIT 2",
        "SELECT o.id FROM orders o LEFT JOIN custs c ON o.cust = c.cid AND c.tier = 'gold' \
         ORDER BY o.id",
    ];
    let configs = [
        OptimizerConfig::default(),
        OptimizerConfig::disabled(),
        OptimizerConfig {
            predicate_pushdown: false,
            ..OptimizerConfig::default()
        },
        OptimizerConfig {
            projection_pruning: false,
            ..OptimizerConfig::default()
        },
        OptimizerConfig {
            join_extraction: false,
            ..OptimizerConfig::default()
        },
        OptimizerConfig {
            constant_folding: false,
            ..OptimizerConfig::default()
        },
    ];
    for q in queries {
        let mut reference: Option<Vec<Vec<Value>>> = None;
        for cfg in &configs {
            db.set_optimizer_config(*cfg);
            let batch = db.query(q).unwrap();
            let rows: Vec<Vec<Value>> =
                (0..batch.num_rows()).map(|r| batch.row(r)).collect();
            match &reference {
                None => reference = Some(rows),
                Some(expected) => assert_eq!(expected, &rows, "query {q} with {cfg:?}"),
            }
        }
        db.set_optimizer_config(OptimizerConfig::default());
    }
}

#[test]
fn left_join_filters_stay_above_null_side() {
    let db = setup();
    // a filter on the right side of a LEFT JOIN must not be pushed below
    // (it would remove null-extension candidates)
    db.execute("INSERT INTO orders VALUES (6, 99, 10.0, 'open', '2024-04-01')").unwrap();
    for cfg in [OptimizerConfig::default(), OptimizerConfig::disabled()] {
        db.set_optimizer_config(cfg);
        let b = db
            .query(
                "SELECT o.id, c.name FROM orders o LEFT JOIN custs c ON o.cust = c.cid \
                 WHERE c.name IS NULL",
            )
            .unwrap();
        assert_eq!(b.num_rows(), 1, "{cfg:?}");
        assert_eq!(b.column(0).get(0), Value::Int(6));
    }
}

#[test]
fn pruning_keeps_count_star_row_counts() {
    let db = setup();
    for cfg in [OptimizerConfig::default(), OptimizerConfig::disabled()] {
        db.set_optimizer_config(cfg);
        let b = db.query("SELECT COUNT(*) FROM orders").unwrap();
        assert_eq!(b.column(0).get(0), Value::Int(5), "{cfg:?}");
    }
}

#[test]
fn pushdown_through_projection_substitutes_exprs() {
    let db = setup();
    let cfg = OptimizerConfig::default();
    // the filter references a computed output; pushing substitutes total*2
    let text = explain(
        &db,
        "SELECT * FROM (SELECT id, total * 2 AS dbl FROM orders) t WHERE dbl > 100",
        &cfg,
    );
    let filter_line = text.lines().position(|l| l.contains("Filter")).unwrap();
    let scan_line = text.lines().position(|l| l.contains("Scan")).unwrap();
    assert!(filter_line < scan_line, "{text}");
    assert!(text.contains("total * 2") || text.contains("(total * 2)"), "{text}");
    // and the result is right
    let b = db
        .query("SELECT * FROM (SELECT id, total * 2 AS dbl FROM orders) t WHERE dbl > 100")
        .unwrap();
    assert_eq!(b.num_rows(), 3); // 150, 190, 120
}

#[test]
fn negating_i64_min_is_a_typed_error_folded_or_not() {
    let db = setup();
    for cfg in [OptimizerConfig::default(), OptimizerConfig::disabled()] {
        db.set_optimizer_config(cfg);
        let err = db
            .query("SELECT -CAST('-9223372036854775808' AS INT) AS v FROM orders")
            .unwrap_err();
        assert!(
            matches!(&err, flock_sql::SqlError::Execution(m) if m.contains("integer overflow")),
            "{cfg:?}: {err:?}"
        );
        // the fold still negates every other integer
        let b = db
            .query("SELECT -CAST('-9223372036854775807' AS INT) AS v FROM orders")
            .unwrap();
        assert_eq!(b.column(0).get(0), Value::Int(i64::MAX), "{cfg:?}");
    }
}
