//! Seeded sweep over version statistics. An append merges the previous
//! version's stats with the delta's; UPDATE, DELETE, offload, merge and
//! recovery compute them afresh. Whatever path built a version, its stats
//! must equal stats computed from scratch, per value, over its resident
//! rows and its parts' zone maps. And `DESCRIBE`, which profiles a table when
//! asked, must print the reference profile: per value over the resident
//! tail as one batch, each part adding its zone map.
//!
//! Each seed opens a durable database on an in-memory file system, with a
//! random memory budget (none at all in some seeds, so history grows in
//! memory), and runs a random sequence of literal INSERTs, INSERTs through
//! expressions, programmatic appends, UPDATEs, DELETEs, merges, and
//! checkpoint + clean or crash reopens over NULL, NaN, ±0.0 and the i64
//! extremes, checking every version after each step. In a third of the
//! seeds the INT and DATE columns climb instead, from just below 2^53,
//! with now and then a step back that `f64` may not see, so the `sorted`
//! flag is kept, merged and broken across many chunks.
//!
//! Deterministic via flock-rng; seed count defaults to 32 and is
//! overridable with `FLOCK_DIFF_SEEDS` (CI sweeps wider).

use flock_rng::{rngs::StdRng, test_seeds, Rng, SeedableRng};
use flock_sql::stats::{ColumnStats, TableStats};
use flock_sql::{
    ColumnVector, DataType, Database, DurabilityOptions, MemFs, RecordBatch, TableVersion, Value,
};
use std::collections::HashSet;
use std::sync::Arc;

const DDL: &str = "CREATE TABLE t (i INT, f DOUBLE, s VARCHAR, b BOOLEAN, d DATE)";

const INTS: [&str; 7] = [
    "0",
    "-1",
    "7",
    "9223372036854775807",
    "-9223372036854775807",
    "-9223372036854775808",
    "NULL",
];
const FLOATS: [&str; 7] = ["0.0", "-0.0", "1.5", "-2.25", "1e300", "-1e-300", "NULL"];
const TEXTS: [&str; 4] = ["'a'", "'b'", "''", "NULL"];

fn open(mem: Arc<MemFs>, budget: u64) -> Database {
    let opts = DurabilityOptions {
        fsync_on_commit: true,
        checkpoint_every_commits: 0,
        keep_checkpoints: 2,
    };
    let db = Database::open_with_fs(mem, opts).unwrap();
    db.set_table_memory_budget(budget);
    db
}

/// Where an ascending seed's keys start: INTs past 2^53 round to `f64`
/// in pairs.
const BASE: i64 = (1 << 53) - 64;

struct Gen {
    rng: StdRng,
    /// An ascending seed's last key.
    ascending: Option<i64>,
}

impl Gen {
    /// An ascending seed's next key: a tie or a step up.
    fn next_key(&mut self) -> Option<i64> {
        let step = self.rng.gen_range(0..3i64);
        let k = self.ascending.as_mut()?;
        *k += step;
        Some(*k)
    }

    /// Before an ascending seed's INSERT or append: now and then a step
    /// back, which breaks the order where the rows meet.
    fn maybe_step_back(&mut self) {
        if self.ascending.is_some() && self.rng.gen_range(0..6u32) == 0 {
            self.ascending = self.ascending.map(|k| k - 1);
        }
    }

    fn pick<'a>(&mut self, from: &[&'a str]) -> &'a str {
        from[self.rng.gen_range(0..from.len())]
    }

    /// One row of literals, or (when `exprs`) of expressions: a NaN through
    /// a cast, arithmetic, a function call.
    fn row(&mut self, exprs: bool) -> String {
        let f = match exprs && self.rng.gen_range(0..3u32) == 0 {
            true => "CAST('NaN' AS DOUBLE)".to_string(),
            false => self.pick(&FLOATS).to_string(),
        };
        let i = match exprs && self.rng.gen_range(0..3u32) == 0 {
            true => format!("{} + 1", self.rng.gen_range(-5..5i64)),
            false => self.pick(&INTS).to_string(),
        };
        let b = ["TRUE", "FALSE", "NULL"][self.rng.gen_range(0..3usize)];
        let d = match self.rng.gen_range(0..4u32) {
            0 => "NULL".to_string(),
            n => format!("DATE '202{n}-0{n}-1{n}'"),
        };
        let (i, d) = match self.next_key() {
            Some(k) => (k.to_string(), format!("DATE '{}'", Value::Date((k - BASE) as i32))),
            None => (i, d),
        };
        format!("({i}, {f}, {}, {b}, {d})", self.pick(&TEXTS))
    }

    fn insert(&mut self, exprs: bool) -> String {
        self.maybe_step_back();
        let n = self.rng.gen_range(1..40usize);
        let rows: Vec<String> = (0..n).map(|_| self.row(exprs)).collect();
        format!("INSERT INTO t VALUES {}", rows.join(", "))
    }

    /// A batch appended programmatically, NaN payloads included.
    fn batch(&mut self, db: &Database) -> RecordBatch {
        let schema = db.catalog().table("t").unwrap().schema().clone();
        self.maybe_step_back();
        let n = self.rng.gen_range(1..300usize);
        let mut cols: Vec<ColumnVector> = schema
            .columns()
            .iter()
            .map(|c| ColumnVector::new(c.data_type))
            .collect();
        for _ in 0..n {
            let null = self.rng.gen_range(0..8u32) == 0;
            let r = self.rng.gen_range(0..1000i64);
            let vals = [
                Value::Int(match r % 5 {
                    0 => i64::MIN,
                    1 => i64::MAX,
                    _ => r - 500,
                }),
                Value::Float(match r % 6 {
                    0 => f64::NAN,
                    1 => f64::from_bits(0x7ff8_0000_0000_0001),
                    2 => -0.0,
                    3 => 0.0,
                    _ => r as f64 / 8.0 - 60.0,
                }),
                Value::Text(format!("c{}", r % 90)),
                Value::Bool(r % 2 == 0),
                Value::Date(r as i32 - 500),
            ];
            let key = self.next_key();
            for (j, (c, v)) in cols.iter_mut().zip(vals).enumerate() {
                let v = match (key, j) {
                    (Some(k), 0) => Value::Int(k),
                    (Some(k), 4) => Value::Date((k - BASE) as i32),
                    _ if null => Value::Null,
                    _ => v,
                };
                c.push(v).unwrap();
            }
        }
        RecordBatch::new(schema, cols).unwrap()
    }

    fn update(&mut self) -> String {
        let set = match self.rng.gen_range(0..4u32) {
            0 => "f = f * 2.0".to_string(),
            1 => "f = NULL, s = 'u'".to_string(),
            2 => format!("i = {}", self.pick(&INTS)),
            _ => "b = NOT b, d = NULL".to_string(),
        };
        format!("UPDATE t SET {set} WHERE {}", self.selection())
    }

    fn delete(&mut self) -> String {
        format!("DELETE FROM t WHERE {}", self.selection())
    }

    fn selection(&mut self) -> String {
        match self.rng.gen_range(0..4u32) {
            0 => format!("i < {}", self.rng.gen_range(-600..600i64)),
            1 => "f IS NULL".to_string(),
            2 => format!("s = 'c{}'", self.rng.gen_range(0..90u32)),
            _ => "i = 7 OR b".to_string(),
        }
    }
}

/// Equal bounds: `==` (which zero wins a tie is unspecified), or both NaN.
fn same_bound(a: Option<f64>, b: Option<f64>) -> bool {
    match (a, b) {
        (Some(x), Some(y)) => x == y || (x.is_nan() && y.is_nan()),
        (a, b) => a.is_none() && b.is_none(),
    }
}

fn same_stats(a: &TableStats, b: &TableStats) -> bool {
    let col = |x: &ColumnStats, y: &ColumnStats| {
        x.null_count == y.null_count
            && same_bound(x.min, y.min)
            && same_bound(x.max, y.max)
            && x.sorted == y.sorted
    };
    a.row_count == b.row_count
        && a.columns.len() == b.columns.len()
        && a.columns.iter().zip(&b.columns).all(|(x, y)| col(x, y))
}

/// Whether `values`, in order, are non-decreasing in their own type with
/// no NULL and no NaN — over no rows, for a column of a type that sorts.
fn sorted(values: &[Value], ty: DataType) -> bool {
    let le = |a: &Value, b: &Value| match (a, b) {
        (Value::Int(x), Value::Int(y)) => x <= y,
        (Value::Float(x), Value::Float(y)) => x <= y,
        (Value::Bool(x), Value::Bool(y)) => x <= y,
        (Value::Date(x), Value::Date(y)) => x <= y,
        _ => false,
    };
    let valid = |v: &Value| !v.is_null() && !matches!(v, Value::Float(f) if f.is_nan());
    ty != DataType::Text && values.iter().all(valid) && values.windows(2).all(|w| le(&w[0], &w[1]))
}

/// A version's statistics recomputed from scratch, per value, with none
/// of the engine's stats code: over the resident tail as one batch
/// (min/max folded in row order, distinct values by typed identity,
/// sorted read pair by pair in the column's own type), then each part's
/// zone map (nulls, bounds, non-NULL rows as distinct values; a part
/// leaves no column known sorted). Also the distinct counts `DESCRIBE`
/// shows.
fn reference(v: &TableVersion) -> (TableStats, Vec<usize>) {
    let tail = v.data.collect().unwrap();
    let mut stats = TableStats {
        row_count: v.total_rows(),
        columns: Vec::new(),
    };
    let mut distincts = Vec::new();
    for (i, c) in tail.columns().iter().enumerate() {
        let mut col = ColumnStats::default();
        let fold = |col: &mut ColumnStats, lo: Option<f64>, hi: Option<f64>| {
            if let Some(x) = lo {
                col.min = Some(col.min.map_or(x, |m| m.min(x)));
            }
            if let Some(x) = hi {
                col.max = Some(col.max.map_or(x, |m| m.max(x)));
            }
        };
        let mut distinct: HashSet<String> = HashSet::new();
        for r in 0..c.len() {
            let v = c.get(r);
            if v.is_null() {
                col.null_count += 1;
                continue;
            }
            fold(&mut col, v.as_f64(), v.as_f64());
            distinct.insert(match &v {
                Value::Float(f) => format!("f{}", f.to_bits()),
                other => other.to_string(),
            });
        }
        let values: Vec<Value> = (0..c.len()).map(|r| c.get(r)).collect();
        col.sorted = v.parts.is_empty() && sorted(&values, c.data_type());
        let mut distinct = distinct.len();
        for p in &v.parts {
            let zone = &p.zones[i];
            col.null_count += zone.null_count as usize;
            fold(&mut col, zone.min, zone.max);
            distinct += (p.rows - zone.null_count) as usize;
        }
        stats.columns.push(col);
        distincts.push(distinct);
    }
    (stats, distincts)
}

/// Every version's stats equal the stats recomputed from scratch.
fn check_versions(db: &Database, ctx: &str) {
    let catalog = db.catalog();
    let t = catalog.table("t").unwrap();
    for v in t.versions() {
        let (fresh, _) = reference(v);
        assert!(
            same_stats(&v.stats, &fresh),
            "{ctx}: version {}: merged {:?}, from scratch {fresh:?}",
            v.version,
            v.stats
        );
    }
}

/// DESCRIBE's rows from the reference profile, as `Debug` strings, so
/// float bits compare exactly.
fn describe_reference(db: &Database) -> Vec<String> {
    let catalog = db.catalog();
    let t = catalog.table("t").unwrap();
    let (stats, distincts) = reference(t.current());
    let columns = t.schema().columns().iter().zip(&stats.columns);
    (columns.zip(distincts))
        .map(|((col, cs), distinct)| {
            let row = vec![
                Value::Text(col.name.clone()),
                Value::Text(col.data_type.to_string()),
                Value::Bool(col.nullable),
                Value::Int(cs.null_count as i64),
                Value::Int(distinct as i64),
                cs.min.map(Value::Float).unwrap_or(Value::Null),
                cs.max.map(Value::Float).unwrap_or(Value::Null),
            ];
            format!("{row:?}")
        })
        .collect()
}

fn describe(db: &Database) -> Vec<String> {
    let b = db.query("DESCRIBE t").unwrap();
    (0..b.num_rows())
        .map(|r| format!("{:?}", b.row(r)))
        .collect()
}

fn check(db: &Database, ctx: &str) {
    check_versions(db, ctx);
    assert_eq!(describe(db), describe_reference(db), "{ctx}: DESCRIBE");
}

fn run_seed(seed: u64) -> (usize, usize, usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    // 5 columns x 8 bytes a cell: parts of 3 to 51 rows, or no offload
    let budget = [0u64, 256, 1024, 4096][rng.gen_range(0..4usize)];
    let mut mem = MemFs::new();
    let mut db = open(mem.clone(), budget);
    db.execute(DDL).unwrap();
    let mut g = Gen {
        rng: StdRng::seed_from_u64(seed ^ 0x57a7),
        ascending: (seed % 3 == 1).then_some(BASE),
    };
    let (mut parted, mut chunked, mut sorted_chunked) = (0, 0, 0);
    for step in 0..rng.gen_range(15..35usize) {
        let ctx = format!("seed {seed} step {step}");
        match rng.gen_range(0..20u32) {
            0..=5 => {
                db.execute(&g.insert(false)).unwrap();
            }
            6 | 7 => {
                db.execute(&g.insert(true)).unwrap();
            }
            8..=10 => {
                let batch = g.batch(&db);
                db.session("admin").append_batch("t", batch).unwrap();
            }
            11 | 12 => {
                db.execute(&g.update()).unwrap();
            }
            13 | 14 => {
                db.execute(&g.delete()).unwrap();
            }
            15 => {
                db.set_table_memory_budget(0);
                db.merge_now();
                db.set_table_memory_budget(budget);
            }
            16 | 17 => {
                db.checkpoint_now().unwrap();
                drop(db);
                mem = mem.clean_image();
                db = open(mem.clone(), budget);
            }
            _ => {
                let digest = db.state_digest();
                drop(db);
                mem = mem.crash_image();
                db = open(mem.clone(), budget);
                assert_eq!(db.state_digest(), digest, "{ctx}: crash reopen digest");
            }
        }
        check(&db, &ctx);
        let catalog = db.catalog();
        let cur = catalog.table("t").unwrap().current().clone();
        parted += cur.has_parts() as usize;
        chunked += (cur.data.chunks().len() > 1) as usize;
        sorted_chunked += (cur.data.chunks().len() > 1 && cur.stats.columns[0].sorted) as usize;
    }
    (parted, chunked, sorted_chunked)
}

#[test]
fn merged_stats_equal_recomputed_stats_and_describe_is_unchanged() {
    let (mut parted, mut chunked, mut sorted) = (0, 0, 0);
    for seed in test_seeds(32) {
        let (p, c, s) = run_seed(seed);
        parted += p;
        chunked += c;
        sorted += s;
    }
    // not vacuous: versions with parts, with several resident chunks, and
    // sorted over several
    assert!(
        parted > 0 && chunked > 0 && sorted > 0,
        "{parted} parted, {chunked} chunked, {sorted} sorted over several chunks"
    );
}
