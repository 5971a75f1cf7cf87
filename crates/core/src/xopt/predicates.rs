//! Predicate analysis for PREDICT specialization (paper §4.1): turn
//! query predicates into per-column [`InputConstraint`]s the model
//! specializer can fold into the pipeline.
//!
//! Only constraints that hold for *every* row reaching the PREDICT are
//! extracted: top-level AND conjuncts of `Filter` predicates, followed
//! through row-preserving/row-subsetting operators (`Filter`, `Sort`,
//! `Limit`, `Distinct`). The walk stops at `Project`/`Aggregate`/`Join`/
//! `Union`, whose outputs may rename or merge columns.

use flock_ml::InputConstraint;
use flock_sql::ast::{ColumnBound, Expr};
use flock_sql::plan::LogicalPlan;
use flock_sql::Value;
use std::collections::HashMap;

/// Constraints guaranteed to hold on every row `plan` produces, keyed by
/// lower-cased column name.
pub fn plan_constraints(plan: &LogicalPlan) -> HashMap<String, InputConstraint> {
    let mut out = HashMap::new();
    collect_plan(plan, &mut out);
    out
}

fn collect_plan(plan: &LogicalPlan, out: &mut HashMap<String, InputConstraint>) {
    match plan {
        LogicalPlan::Filter { input, predicate } => {
            predicate_constraints(predicate, out);
            collect_plan(input, out);
        }
        LogicalPlan::Sort { input, .. }
        | LogicalPlan::Limit { input, .. }
        | LogicalPlan::Distinct { input } => collect_plan(input, out),
        _ => {}
    }
}

/// Merge the constraints implied by `predicate`'s top-level conjuncts
/// into `out`. Sibling conjuncts of a predicate constrain any PREDICT in
/// that same predicate too (`WHERE c = 'x' AND PREDICT(..) > 0.5` only
/// ever scores rows with `c = 'x'`).
pub fn predicate_constraints(predicate: &Expr, out: &mut HashMap<String, InputConstraint>) {
    for conjunct in predicate.split_conjunction() {
        let Some((name, bound)) = conjunct.column_bound() else {
            continue;
        };
        let c = match bound {
            ColumnBound::Eq(Expr::Literal(v)) => literal_constraint(v),
            ColumnBound::Eq(_) => None,
            ColumnBound::Range { low, high } => range_constraint(low, high),
        };
        if let Some(c) = c {
            merge(out, name, c);
        }
    }
}

/// The constraint a literal PREDICT argument itself implies (`PREDICT(m,
/// age, 'nyc')` fixes the second input).
pub fn literal_constraint(value: &Value) -> Option<InputConstraint> {
    match value {
        Value::Text(s) => Some(InputConstraint::FixedText(s.clone())),
        _ => value.as_f64().map(InputConstraint::FixedNum),
    }
}

/// A range whose every closed side is a numeric literal; an open side is
/// unbounded.
fn range_constraint(low: Option<&Expr>, high: Option<&Expr>) -> Option<InputConstraint> {
    let side = |bound: Option<&Expr>, open: f64| match bound {
        None => Some(open),
        Some(Expr::Literal(v)) => v.as_f64(),
        Some(_) => None,
    };
    Some(InputConstraint::Range {
        lo: side(low, f64::NEG_INFINITY)?,
        hi: side(high, f64::INFINITY)?,
    })
}

fn merge(out: &mut HashMap<String, InputConstraint>, name: &str, c: InputConstraint) {
    let key = name.to_ascii_lowercase();
    match (out.get_mut(&key), c) {
        (None, c) => {
            out.insert(key, c);
        }
        // a fixing constraint subsumes any range
        (Some(InputConstraint::Range { .. }), c @ (InputConstraint::FixedNum(_) | InputConstraint::FixedText(_))) => {
            out.insert(key, c);
        }
        (
            Some(InputConstraint::Range { lo, hi }),
            InputConstraint::Range { lo: l2, hi: h2 },
        ) => {
            *lo = lo.max(l2);
            *hi = hi.min(h2);
        }
        // keep the first fixing constraint; a second one either agrees or
        // makes the predicate unsatisfiable (no rows ever scored)
        (Some(_), _) => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flock_sql::parser::parse_statement;
    use flock_sql::plan::{plan_query, PlanContext};
    use flock_sql::udf::NoInference;
    use flock_sql::Database;

    fn plan_of(db: &Database, sql: &str) -> LogicalPlan {
        let stmt = parse_statement(sql).unwrap();
        let flock_sql::ast::Statement::Query(q) = stmt else {
            panic!()
        };
        let catalog = db.catalog();
        let ctx = PlanContext::new(&catalog, &NoInference);
        plan_query(&q, &ctx).unwrap()
    }

    fn setup() -> Database {
        let db = Database::new();
        db.execute("CREATE TABLE t (a DOUBLE, b DOUBLE, s VARCHAR)")
            .unwrap();
        db.execute("INSERT INTO t VALUES (1.0, 2.0, 'x')").unwrap();
        db
    }

    #[test]
    fn equality_and_ranges_extracted() {
        let db = setup();
        let plan = plan_of(
            &db,
            "SELECT a FROM t WHERE s = 'nyc' AND a >= 10 AND a < 20 AND b + 1 > 3",
        );
        // the Project sits on top; constraints come from its input
        let LogicalPlan::Project { input, .. } = plan else {
            panic!("expected projection")
        };
        let cs = plan_constraints(&input);
        assert_eq!(cs.get("s"), Some(&InputConstraint::FixedText("nyc".into())));
        assert_eq!(cs.get("a"), Some(&InputConstraint::Range { lo: 10.0, hi: 20.0 }));
        assert!(!cs.contains_key("b"), "compound expressions are ignored");
    }

    #[test]
    fn between_and_flipped_literal() {
        let db = setup();
        let plan = plan_of(&db, "SELECT a FROM t WHERE a BETWEEN 1 AND 5 AND 3.5 = b");
        let LogicalPlan::Project { input, .. } = plan else {
            panic!("expected projection")
        };
        // Sort/Limit preserve row membership; the walk passes through them
        let wrapped = LogicalPlan::Limit {
            input: Box::new(LogicalPlan::Sort {
                input,
                keys: vec![],
            }),
            limit: Some(2),
            offset: 0,
        };
        let cs = plan_constraints(&wrapped);
        assert_eq!(cs.get("a"), Some(&InputConstraint::Range { lo: 1.0, hi: 5.0 }));
        assert_eq!(cs.get("b"), Some(&InputConstraint::FixedNum(3.5)));
    }

    #[test]
    fn walk_stops_at_projection_boundaries() {
        let db = setup();
        let plan = plan_of(
            &db,
            "SELECT * FROM (SELECT a + 1 AS a FROM t WHERE a = 2) sub",
        );
        // the inner filter constrains the *pre-projection* a, which the
        // subquery rebinds — it must not leak out
        let cs = plan_constraints(&plan);
        assert!(cs.is_empty(), "{cs:?}");
    }

    #[test]
    fn fixed_subsumes_range_and_ranges_intersect() {
        let db = setup();
        let plan = plan_of(&db, "SELECT a FROM t WHERE a > 0 AND a = 7 AND a <= 9");
        let LogicalPlan::Project { input, .. } = plan else {
            panic!()
        };
        let cs = plan_constraints(&input);
        assert_eq!(cs.get("a"), Some(&InputConstraint::FixedNum(7.0)));
    }
}
