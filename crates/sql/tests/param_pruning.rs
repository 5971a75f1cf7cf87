//! Zone-map pruning by `?` parameters. A prepared (or plan-cached) range
//! read keeps its plan shared across parameter values, so its parts are
//! pruned when the plan executes, once the parameters are bound. The
//! prepared form must read exactly what the same statement with the
//! values written in as literals reads: the same rows out, the same rows
//! read, and the same `parts pruned x/y` on its scan — over seeded windows
//! that include NULL parameters and empty (`lo > hi`) ranges.
//!
//! Deterministic via flock-rng; seed count defaults to 64 and is
//! overridable with `FLOCK_DIFF_SEEDS` (CI sweeps wider).

use flock_rng::{rngs::StdRng, test_seeds, Rng, SeedableRng};
use flock_sql::exec::OpSnapshot;
use flock_sql::{ColumnVector, Database, DurabilityOptions, MemFs, RecordBatch, Session, Value};
use std::sync::atomic::Ordering;

/// Rows, spread over about thirty parts by the budget below.
const ROWS: i64 = 6_000;
/// 3 columns x 8 bytes a cell x 200 rows: parts of 200 rows.
const BUDGET: u64 = 9_600;

/// The statement shapes, each with its `?` slots, and how many.
const SHAPES: [(&str, usize); 4] = [
    ("SELECT COUNT(*), SUM(k) FROM t WHERE k BETWEEN ? AND ?", 2),
    (
        "SELECT COUNT(*), SUM(v) FROM t WHERE k >= ? AND k < ? AND v > -1.0",
        2,
    ),
    (
        "SELECT k, v FROM t WHERE ? <= k AND k <= ? ORDER BY k LIMIT 5",
        2,
    ),
    ("SELECT COUNT(*) FROM t WHERE k = ?", 1),
];

fn table() -> Database {
    let opts = DurabilityOptions {
        fsync_on_commit: false,
        checkpoint_every_commits: 0,
        keep_checkpoints: 2,
    };
    let db = Database::open_with_fs(MemFs::new(), opts).unwrap();
    db.set_table_memory_budget(BUDGET);
    db.execute("CREATE TABLE t (k INT, v DOUBLE, s VARCHAR)")
        .unwrap();
    let schema = db.catalog().table("t").unwrap().schema().clone();
    let mut session = db.session("admin");
    for lo in (0..ROWS).step_by(500) {
        let k = ColumnVector::from_i64(lo..lo + 500);
        let v = ColumnVector::from_f64((lo..lo + 500).map(|k| (k % 97) as f64 / 4.0));
        let s = ColumnVector::from_values(
            flock_sql::DataType::Text,
            &(lo..lo + 500)
                .map(|k| Value::Text(format!("s{}", k % 5)))
                .collect::<Vec<_>>(),
        )
        .unwrap();
        let batch = RecordBatch::new(schema.clone(), vec![k, v, s]).unwrap();
        session.append_batch("t", batch).unwrap();
    }
    db
}

/// The scan of the last statement's plan.
fn scan(session: &Session) -> OpSnapshot {
    fn find(op: &OpSnapshot) -> Option<OpSnapshot> {
        match op.name.as_str() {
            "Scan" => Some(op.clone()),
            _ => op.children.iter().find_map(find),
        }
    }
    find(&session.last_query_metrics().unwrap()).expect("the plan scans t")
}

/// What a run shows: its rows, and its scan's rows read and label.
fn observe(session: &Session, batch: &RecordBatch) -> (Vec<String>, u64, String) {
    let s = scan(session);
    let rows = (0..batch.num_rows())
        .map(|r| format!("{:?}", batch.row(r)))
        .collect();
    (rows, s.rows_in, s.detail)
}

fn literal(sql: &str, params: &[Value]) -> String {
    let mut out = String::new();
    let mut params = params.iter();
    for c in sql.chars() {
        match c {
            '?' => out.push_str(&params.next().unwrap().to_string()),
            c => out.push(c),
        }
    }
    out
}

fn param(rng: &mut StdRng) -> Value {
    match rng.gen_range(0..6u32) {
        0 => Value::Null,
        1 => Value::Float(rng.gen_range(-100..ROWS + 100) as f64 + 0.5),
        _ => Value::Int(rng.gen_range(-100..ROWS + 100)),
    }
}

#[test]
fn prepared_and_literal_range_reads_prune_the_same_parts() {
    let db = table();
    let parts = db.catalog().table("t").unwrap().current().parts.len();
    assert!(parts >= 20, "the table must be spread over parts: {parts}");
    let mut session = db.session("admin");
    let prepared: Vec<_> = SHAPES
        .iter()
        .map(|(sql, _)| session.prepare(sql).unwrap())
        .collect();
    let hits = db.plan_cache().hits.clone();
    let (mut pruning, mut empty, mut nulls) = (0, 0, 0);
    for seed in test_seeds(64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let shape = rng.gen_range(0..SHAPES.len());
        let (sql, n) = SHAPES[shape];
        let mut params: Vec<Value> = (0..n).map(|_| param(&mut rng)).collect();
        if n == 2 && rng.gen_range(0..3u32) == 0 {
            // a narrow window, so that most parts fall outside it
            let lo = rng.gen_range(0..ROWS);
            params = vec![Value::Int(lo), Value::Int(lo + rng.gen_range(0..300i64))];
        }
        let text = literal(sql, &params);
        let ctx = format!("seed {seed}: {text}");
        let want = session.execute(&text).unwrap().batch.unwrap();
        let want = observe(&session, &want);
        let got = session.execute_prepared(&prepared[shape], &params).unwrap();
        let got = observe(&session, &got.batch.unwrap());
        assert_eq!(got, want, "{ctx}");
        // the next values of the same types run the same cached plan
        let next: Vec<Value> = params
            .iter()
            .map(|v| match v {
                Value::Int(i) => Value::Int(i + 1),
                Value::Float(f) => Value::Float(f + 1.0),
                other => other.clone(),
            })
            .collect();
        let before = hits.load(Ordering::Relaxed);
        session.execute_prepared(&prepared[shape], &next).unwrap();
        assert_eq!(
            hits.load(Ordering::Relaxed),
            before + 1,
            "{ctx}: the plan is shared"
        );
        pruning += !want.2.contains(&format!("parts pruned 0/{parts}")) as usize;
        empty += (params.len() == 2 && params[0].sql_cmp(&params[1]).is_some_and(|o| o.is_gt()))
            as usize;
        nulls += params.iter().any(Value::is_null) as usize;
    }
    if test_seeds(64).end >= 64 {
        assert!(
            pruning > 10 && empty > 5 && nulls > 5,
            "{pruning} pruning, {empty} empty, {nulls} with NULL"
        );
    }
}

/// A DML statement between executions moves the table under the cached
/// plan (`Rebind`); the rebound plan prunes by the parameters as well.
#[test]
fn a_rebound_plan_prunes_by_its_parameters() {
    let db = table();
    let mut session = db.session("admin");
    let sql = "SELECT COUNT(*), SUM(k) FROM t WHERE k BETWEEN ? AND ?";
    let p = session.prepare(sql).unwrap();
    for (i, lo) in [100i64, 2_000, 5_900].into_iter().enumerate() {
        let params = [Value::Int(lo), Value::Int(lo + 50)];
        let got = session
            .execute_prepared(&p, &params)
            .unwrap()
            .batch
            .unwrap();
        let got = observe(&session, &got);
        let want = session
            .execute(&literal(sql, &params))
            .unwrap()
            .batch
            .unwrap();
        assert_eq!(got, observe(&session, &want), "execution {i}");
        assert!(
            got.1 < 1_000,
            "execution {i} reads {} rows: {}",
            got.1,
            got.2
        );
        db.execute(&format!(
            "INSERT INTO t VALUES ({}, 0.5, 'x')",
            ROWS + i as i64
        ))
        .unwrap();
    }
}
