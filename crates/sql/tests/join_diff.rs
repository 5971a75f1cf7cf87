//! Seeded differential sweep over the hash join: `HashJoin` (typed key
//! tables, serial and with the probe fanned out over two threads) must
//! return exactly the rows, in exactly the order, of a nested-loop
//! reference written here, which pairs every left row with every right
//! row and keeps a pair when each key compares `Equal` under
//! [`Value::sql_cmp`] — SQL `=`: NULL and NaN equal nothing, `-0.0 = 0.0`,
//! INT against DOUBLE through `f64`.
//!
//! Inputs: one or two key columns per join, each pair INT, DOUBLE, INT
//! against DOUBLE (either way round), TEXT, DATE or BOOL, or one of the
//! mixed pairs DATE/INT, BOOL/INT, DATE/DOUBLE, TEXT/INT, with NULLs, NaN,
//! ±0.0, the empty string and 2^53 ± 1 against 2^53 as a DOUBLE. Each seed
//! runs with both tables resident and with both as disk parts (text keys
//! then arrive dictionary-coded), INNER and LEFT, with and without a
//! residual filter, at one thread and at two (random morsel size).
//!
//! Deterministic via flock-rng; seed count defaults to 128 and is
//! overridable with `FLOCK_DIFF_SEEDS` (CI sweeps wider).

use flock_rng::{rngs::StdRng, test_seeds, Rng, SeedableRng};
use flock_sql::exec::ExecOptions;
use flock_sql::{
    ColumnVector, DataType, Database, DurabilityOptions, MemFs, RecordBatch, Schema, Value,
};
use std::cmp::Ordering;
use std::sync::Arc;

/// Key column type pairs (left, right).
/// The last four pairs are not cast by the planner and compare through
/// the numeric view at run time (text against a number matches nothing).
const KEY_TYPES: [(DataType, DataType); 11] = [
    (DataType::Int, DataType::Int),
    (DataType::Float, DataType::Float),
    (DataType::Int, DataType::Float),
    (DataType::Float, DataType::Int),
    (DataType::Text, DataType::Text),
    (DataType::Date, DataType::Date),
    (DataType::Bool, DataType::Bool),
    (DataType::Date, DataType::Int),
    (DataType::Bool, DataType::Int),
    (DataType::Date, DataType::Float),
    (DataType::Text, DataType::Int),
];

/// One non-NULL key of `ty` from a small domain, so keys repeat on both
/// sides and the awkward values recur.
fn key_of(rng: &mut StdRng, ty: DataType) -> Value {
    const BIG: i64 = 1 << 53;
    match ty {
        DataType::Int => Value::Int(match rng.gen_range(0..6u32) {
            0 => BIG + 1,
            1 => BIG - 1,
            2 => BIG,
            _ => rng.gen_range(-2i64..3),
        }),
        DataType::Float => Value::Float(match rng.gen_range(0..10u32) {
            0 => f64::NAN,
            1 => -0.0,
            2 => 0.0,
            3 => BIG as f64,
            4 => (BIG + 2) as f64,
            5 => 0.5,
            _ => rng.gen_range(-2i64..3) as f64,
        }),
        DataType::Text => Value::Text(match rng.gen_range(0..4u32) {
            0 => String::new(),
            1 => "a longer text key".into(),
            _ => format!("c{}", rng.gen_range(0..3u32)),
        }),
        DataType::Date => Value::Date(rng.gen_range(-2i32..3)),
        DataType::Bool => Value::Bool(rng.gen_range(0..2u32) == 0),
    }
}

/// `n` values of `ty`, about a sixth NULL when `nulls`.
fn column_of(rng: &mut StdRng, ty: DataType, n: usize, nulls: bool) -> Vec<Value> {
    (0..n)
        .map(|_| match nulls && rng.gen_range(0..6u32) == 0 {
            true => Value::Null,
            false => key_of(rng, ty),
        })
        .collect()
}

/// One side of a join: `id INT, k0, k1, x INT`.
struct Side {
    schema: Arc<Schema>,
    rows: Vec<Vec<Value>>,
}

impl Side {
    fn generate(rng: &mut StdRng, types: [DataType; 2]) -> Side {
        let n = rng.gen_range(0..80usize);
        let nulls = [rng.gen_range(0..2u32) == 0, rng.gen_range(0..2u32) == 0];
        let cols = [
            (0..n as i64).map(Value::Int).collect(),
            column_of(rng, types[0], n, nulls[0]),
            column_of(rng, types[1], n, nulls[1]),
            column_of(rng, DataType::Int, n, true),
        ];
        let schema = Arc::new(Schema::from_pairs(&[
            ("id", DataType::Int),
            ("k0", types[0]),
            ("k1", types[1]),
            ("x", DataType::Int),
        ]));
        let rows = (0..n)
            .map(|r| cols.iter().map(|c| c[r].clone()).collect())
            .collect();
        Side { schema, rows }
    }

    fn batch(&self) -> RecordBatch {
        let columns = self
            .schema
            .columns()
            .iter()
            .enumerate()
            .map(|(c, def)| {
                let values: Vec<Value> = self.rows.iter().map(|r| r[c].clone()).collect();
                ColumnVector::from_values(def.data_type, &values).unwrap()
            })
            .collect();
        RecordBatch::new(self.schema.clone(), columns).unwrap()
    }

    fn ddl(&self, name: &str) -> String {
        let cols: Vec<String> = self
            .schema
            .columns()
            .iter()
            .map(|c| format!("{} {}", c.name, c.data_type))
            .collect();
        format!("CREATE TABLE {name} ({})", cols.join(", "))
    }
}

/// The shape of a join statement over `l` and `r`.
struct Join {
    keys: usize,
    left_outer: bool,
    residual: bool,
}

impl Join {
    fn sql(&self) -> String {
        let mut on = vec!["l.k0 = r.k0".to_string()];
        if self.keys == 2 {
            on.push("l.k1 = r.k1".into());
        }
        if self.residual {
            on.push("l.x < r.x".into());
        }
        let kind = if self.left_outer { "LEFT JOIN" } else { "JOIN" };
        format!("SELECT * FROM l {kind} r ON {}", on.join(" AND "))
    }

    /// The nested-loop reference: matched pairs in left-row order, each
    /// left row's matches in right-row order, then (LEFT) the left rows
    /// without a match, NULL-extended.
    fn reference(&self, l: &Side, r: &Side) -> Vec<Vec<Value>> {
        let eq = |a: &Value, b: &Value| a.sql_cmp(b) == Some(Ordering::Equal);
        let mut out = Vec::new();
        let mut matched = vec![false; l.rows.len()];
        for (li, lrow) in l.rows.iter().enumerate() {
            for rrow in &r.rows {
                let keys = (1..=self.keys).all(|k| eq(&lrow[k], &rrow[k]));
                let residual = !self.residual || lrow[3].sql_cmp(&rrow[3]) == Some(Ordering::Less);
                if keys && residual {
                    matched[li] = true;
                    out.push(lrow.iter().chain(rrow).cloned().collect());
                }
            }
        }
        if self.left_outer {
            for (lrow, _) in l.rows.iter().zip(&matched).filter(|(_, m)| !**m) {
                let mut row = lrow.clone();
                row.extend(r.schema.columns().iter().map(|_| Value::Null));
                out.push(row);
            }
        }
        out
    }
}

/// Rows rendered for comparison: floats to the bit (`Value`'s own `==`
/// has SQL semantics, NULL and NaN equal nothing).
fn show(rows: impl Iterator<Item = Vec<Value>>) -> Vec<String> {
    rows.map(|row| {
        let cells: Vec<String> = row
            .iter()
            .map(|v| match v {
                Value::Float(f) => format!("Float({:#x})", f.to_bits()),
                other => format!("{other:?}"),
            })
            .collect();
        cells.join(", ")
    })
    .collect()
}

/// A durable database on an in-memory file system holding `l` and `r`:
/// resident, or (a 256-byte budget) each appended batch of more than 8
/// rows written out as disk parts of 4 rows.
fn database(l: &Side, r: &Side, in_parts: bool) -> Database {
    let db = Database::open_with_fs(MemFs::new(), DurabilityOptions::default()).unwrap();
    db.set_table_memory_budget(if in_parts { 256 } else { u64::MAX });
    let mut session = db.session("admin");
    for (name, side) in [("l", l), ("r", r)] {
        session.execute(&side.ddl(name)).unwrap();
        // Two appends: a part-resident side's parts carry different dictionaries.
        let batch = side.batch();
        let half = batch.num_rows() / 2;
        for piece in [batch.slice(0, half), batch.slice(half, batch.num_rows())] {
            if piece.num_rows() > 0 {
                session.append_batch(name, piece).unwrap();
            }
        }
    }
    db
}

fn threads(db: &Database, threads: usize, morsel_rows: usize) {
    db.set_exec_options(ExecOptions {
        threads,
        parallel_row_threshold: 1,
        morsel_rows,
        ..ExecOptions::default()
    });
}

#[test]
fn hash_join_matches_the_nested_loop_reference() {
    for seed in test_seeds(128) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x701);
        let pairs = [
            KEY_TYPES[rng.gen_range(0..KEY_TYPES.len())],
            KEY_TYPES[rng.gen_range(0..KEY_TYPES.len())],
        ];
        let l = Side::generate(&mut rng, [pairs[0].0, pairs[1].0]);
        let r = Side::generate(&mut rng, [pairs[0].1, pairs[1].1]);
        let morsel_rows = rng.gen_range(1..16usize);
        for in_parts in [false, true] {
            let db = database(&l, &r, in_parts);
            if in_parts && l.rows.len() >= 20 {
                let parts = db.catalog().table("l").unwrap().current().parts.len();
                assert!(parts > 0, "seed {seed}: l must be in parts");
            }
            for keys in [1, 2] {
                for left_outer in [false, true] {
                    for residual in [false, true] {
                        let join = Join {
                            keys,
                            left_outer,
                            residual,
                        };
                        let want = show(join.reference(&l, &r).into_iter());
                        for degree in [1, 2] {
                            threads(&db, degree, morsel_rows);
                            let got = db.query(&join.sql()).unwrap();
                            assert_eq!(
                                show((0..got.num_rows()).map(|i| got.row(i))),
                                want,
                                "seed {seed}: {} — keys {pairs:?}, parts {in_parts}, \
                                 {degree} thread(s), morsels of {morsel_rows}",
                                join.sql()
                            );
                        }
                    }
                }
            }
        }
    }
}

/// The sweep exercises what it claims: the statements plan a hash join,
/// an INT key against a DOUBLE key is cast to DOUBLE, and the probe fans
/// out at two threads.
#[test]
fn the_sweep_plans_a_hash_join_that_fans_out() {
    let mut rng = StdRng::seed_from_u64(3);
    let l = Side::generate(&mut rng, [DataType::Int, DataType::Text]);
    let r = Side::generate(&mut rng, [DataType::Float, DataType::Text]);
    let db = database(&l, &r, true);
    threads(&db, 2, 4);
    let join = Join {
        keys: 2,
        left_outer: false,
        residual: true,
    };
    let plan = db
        .query(&format!("EXPLAIN ANALYZE {}", join.sql()))
        .unwrap();
    let text: Vec<String> = (0..plan.num_rows())
        .map(|i| plan.column(0).get(i).to_string())
        .collect();
    let text = text.join("\n");
    assert!(text.contains("HashJoin"), "{text}");
    assert!(text.contains("keys=[DOUBLE, VARCHAR]"), "{text}");
    assert!(text.contains("morsels="), "{text}");
}

/// NaN equals nothing under `=`, itself included, and every way of
/// writing an equality between two tables agrees: the hash join (from ON
/// and from WHERE), the nested loop, and IN over a subquery.
#[test]
fn nan_join_keys_match_nothing_in_every_join_form() {
    let db = Database::new();
    db.execute("CREATE TABLE a (x DOUBLE)").unwrap();
    db.execute("CREATE TABLE b (y DOUBLE)").unwrap();
    db.execute("INSERT INTO a VALUES (CAST('NaN' AS DOUBLE)), (1.0), (-0.0)")
        .unwrap();
    db.execute("INSERT INTO b VALUES (CAST('NaN' AS DOUBLE)), (1.0), (0.0)")
        .unwrap();
    let count = |sql: &str| db.query(sql).unwrap().column(0).get(0);
    for sql in [
        "SELECT COUNT(*) FROM a JOIN b ON a.x = b.y",
        "SELECT COUNT(*) FROM a, b WHERE a.x = b.y",
        "SELECT COUNT(*) FROM a JOIN b ON a.x >= b.y AND a.x <= b.y",
        "SELECT COUNT(*) FROM a WHERE x IN (SELECT y FROM b)",
        "SELECT COUNT(*) FROM a WHERE x = x",
    ] {
        assert_eq!(format!("{:?}", count(sql)), "Int(2)", "{sql}");
    }
}
