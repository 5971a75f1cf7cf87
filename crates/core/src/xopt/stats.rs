//! Statistics harvesting for the cross-optimizer: per-column value ranges
//! (for model compression).

use flock_sql::plan::LogicalPlan;
use flock_sql::Catalog;
use std::collections::HashMap;

/// Collect `column name -> (min, max)` for every column visible under
/// `plan`, from table statistics of the scans. Ambiguous names (present in
/// more than one scan) are dropped — a wider-than-actual range is safe,
/// a wrong one is not.
pub fn column_ranges(plan: &LogicalPlan, catalog: &Catalog) -> HashMap<String, (f64, f64)> {
    let mut ranges: HashMap<String, (f64, f64)> = HashMap::new();
    let mut ambiguous: Vec<String> = Vec::new();
    plan.visit(&mut |node| {
        if let LogicalPlan::Scan {
            table,
            version,
            projection,
            schema,
        } = node
        {
            let Ok(t) = catalog.table(table) else {
                return;
            };
            let tv = match version {
                Some(v) => match t.at_version(*v) {
                    Ok(tv) => tv,
                    Err(_) => return,
                },
                None => t.current(),
            };
            for (k, col) in schema.columns().iter().enumerate() {
                let stats_idx = projection.as_ref().map_or(k, |p| p[k]);
                let Some(cs) = tv.stats.columns.get(stats_idx) else {
                    continue;
                };
                if let (Some(min), Some(max)) = (cs.min, cs.max) {
                    let key = col.name.to_ascii_lowercase();
                    if ranges.insert(key.clone(), (min, max)).is_some() {
                        ambiguous.push(key);
                    }
                }
            }
        }
    });
    for key in ambiguous {
        ranges.remove(&key);
    }
    ranges
}

#[cfg(test)]
mod tests {
    use super::*;
    use flock_sql::Database;

    fn setup() -> Database {
        let db = Database::new();
        db.execute("CREATE TABLE t (a INT, b DOUBLE, s VARCHAR)").unwrap();
        db.execute(
            "INSERT INTO t VALUES (1, 0.5, 'x'), (10, 2.5, 'y'), (5, -1.0, 'z')",
        )
        .unwrap();
        db
    }

    fn plan_of(db: &Database, sql: &str) -> LogicalPlan {
        use flock_sql::plan::{plan_query, PlanContext};
        use flock_sql::udf::NoInference;
        let stmt = flock_sql::parser::parse_statement(sql).unwrap();
        let flock_sql::ast::Statement::Query(q) = stmt else {
            panic!()
        };
        let catalog = db.catalog();
        let ctx = PlanContext::new(&catalog, &NoInference);
        plan_query(&q, &ctx).unwrap()
    }

    #[test]
    fn ranges_come_from_table_stats() {
        let db = setup();
        let plan = plan_of(&db, "SELECT a, b FROM t WHERE a > 0");
        let ranges = column_ranges(&plan, &db.catalog());
        assert_eq!(ranges.get("a"), Some(&(1.0, 10.0)));
        assert_eq!(ranges.get("b"), Some(&(-1.0, 2.5)));
        assert!(!ranges.contains_key("s"), "text column has no numeric range");
    }

    #[test]
    fn ambiguous_columns_dropped() {
        let db = setup();
        db.execute("CREATE TABLE u (a INT)").unwrap();
        db.execute("INSERT INTO u VALUES (100)").unwrap();
        let plan = plan_of(&db, "SELECT * FROM t, u WHERE t.a = u.a");
        let ranges = column_ranges(&plan, &db.catalog());
        // both scans expose a column named "a" (one renamed) — the renamed
        // labels differ so at most one bare "a" survives; check correctness
        for (name, (lo, hi)) in &ranges {
            assert!(lo <= hi, "{name}");
        }
    }
}
