//! Differential test of sorted-range scans. A table version whose rows are
//! sorted on a column (its stats say so) reads a range conjunct on that
//! column as a row slice of each resident chunk, found by binary search,
//! before the filter runs. That must change nothing a user can see.
//!
//! Each seed loads a table whose key column is sorted or not — ties, NULL,
//! NaN, ±0.0, the i64 extremes and 2^53 ± 1 neighbours that meet across a
//! chunk boundary out of order — in one batch, in pieces, or by many small
//! INSERTs, then sometimes breaks or keeps the order with an UPDATE of the
//! key, a DELETE, or one more INSERT. Every query is compared with a twin
//! whose range conjunct is written as `CASE WHEN … THEN TRUE ELSE FALSE
//! END`, which no range reader understands: the same rows, bit for bit, and
//! the same `rows_returned`. The slice shows in `EXPLAIN` on the direct
//! form only, exactly when the rows are sorted and a side is bounded, and
//! every way of binding `?` (`execute_with_params`, `execute_prepared`, and
//! `execute_prepared` inside `BEGIN`) reads what the literal text reads:
//! the same rows and the same scan line, rows read and slice included.
//! Ranges include empty ones, `lo > hi`, NULL and NaN bounds.
//!
//! Deterministic via flock-rng; seed count defaults to 32 and is
//! overridable with `FLOCK_DIFF_SEEDS` (CI sweeps wider).

use flock_rng::{rngs::StdRng, test_seeds, Rng, SeedableRng};
use flock_sql::exec::OpSnapshot;
use flock_sql::{
    ColumnVector, DataType, Database, PreparedStatement, QueryResult, RecordBatch, Result,
    Session, Value,
};

const BIG: i64 = 1 << 53;

/// Key values an INT table draws from, in order: the extremes and the
/// neighbours of 2^53, which round to each other's `f64`.
const INT_KEYS: [i64; 12] = [
    i64::MIN,
    i64::MIN + 1,
    -BIG - 1,
    -BIG,
    -1,
    0,
    BIG - 1,
    BIG,
    BIG + 1,
    BIG + 2,
    i64::MAX - 1,
    i64::MAX,
];

struct Gen {
    rng: StdRng,
    ty: DataType,
}

impl Gen {
    /// The next key of a sorted run after `prev`: a tie or a step up.
    fn step(&mut self, prev: &Value) -> Value {
        let up = [0, 0, 1, 2, 7][self.rng.gen_range(0..5usize)];
        match prev {
            Value::Int(i) => Value::Int(i.saturating_add(up)),
            Value::Float(f) if *f == 0.0 && up == 0 => {
                // ±0.0 tie
                Value::Float(if self.rng.gen_bool(0.5) { -0.0 } else { 0.0 })
            }
            Value::Float(f) => Value::Float(f + up as f64 * 0.5),
            Value::Date(d) => Value::Date(d + up as i32),
            other => other.clone(),
        }
    }

    fn start(&mut self) -> Value {
        match self.ty {
            DataType::Int => Value::Int(self.rng.gen_range(-50..50i64)),
            DataType::Float => Value::Float(self.rng.gen_range(-8..2i64) as f64 * 0.5),
            _ => Value::Date(self.rng.gen_range(18_000..18_100i32)),
        }
    }

    /// `n` keys, sorted or disordered in one of the ways the flag must see.
    fn keys(&mut self, n: usize) -> Vec<Value> {
        if self.ty == DataType::Int && self.rng.gen_range(0..4u32) == 0 {
            // the extremes, each a few times, in order
            let mut keys: Vec<Value> = (0..n)
                .map(|_| Value::Int(INT_KEYS[self.rng.gen_range(0..INT_KEYS.len())]))
                .collect();
            keys.sort_by_key(|v| match v {
                Value::Int(i) => *i,
                _ => 0,
            });
            return keys;
        }
        let mut keys = Vec::with_capacity(n);
        let mut prev = self.start();
        for _ in 0..n {
            keys.push(prev.clone());
            prev = self.step(&prev);
        }
        if n > 0 {
            match self.rng.gen_range(0..8u32) {
                0 => {
                    let i = self.rng.gen_range(0..n);
                    keys[i] = Value::Null;
                }
                1 if self.ty == DataType::Float => {
                    let i = self.rng.gen_range(0..n);
                    keys[i] = Value::Float(f64::NAN);
                }
                2 => {
                    let (i, j) = (self.rng.gen_range(0..n), self.rng.gen_range(0..n));
                    keys.swap(i, j);
                }
                _ => {}
            }
        }
        keys
    }

    /// A bound: a key of the table, next to one, past every one, or NULL.
    fn bound(&mut self, keys: &[Value]) -> Value {
        let pick = keys.get(self.rng.gen_range(0..keys.len().max(1)));
        let pick = pick.filter(|v| !v.is_null()).cloned();
        match (self.rng.gen_range(0..10u32), pick) {
            (0, _) => Value::Null,
            (1, _) if self.ty == DataType::Float => Value::Float(f64::NAN),
            (2, _) if self.ty == DataType::Int => {
                Value::Int(INT_KEYS[self.rng.gen_range(1..INT_KEYS.len())])
            }
            (3, Some(Value::Int(i))) => Value::Float(i as f64 + 0.5),
            (4, Some(Value::Float(f))) if f == 0.0 => Value::Float(-f),
            (5..=6, Some(v)) => {
                let d = self.rng.gen_range(-2..3i64);
                match v {
                    Value::Int(i) => Value::Int(i.saturating_add(d).max(i64::MIN + 1)),
                    Value::Float(f) => Value::Float(f + d as f64 * 0.25),
                    Value::Date(x) => Value::Date(x + d as i32),
                    other => other,
                }
            }
            (_, Some(Value::Int(i64::MIN))) => Value::Int(i64::MIN + 1),
            (_, Some(v)) => v,
            (_, None) => self.start(),
        }
    }
}

/// A value as SQL text. `i64::MIN` is never a bound (its literal is a
/// negated DOUBLE), so it only needs to load.
fn lit(v: &Value) -> String {
    match v {
        Value::Null => "NULL".into(),
        Value::Int(i64::MIN) => "CAST('-9223372036854775808' AS INT)".into(),
        Value::Int(i) => i.to_string(),
        Value::Float(f) if f.is_nan() => "CAST('NaN' AS DOUBLE)".into(),
        Value::Float(f) => format!("{f:?}"),
        Value::Date(_) => format!("DATE '{v}'"),
        other => panic!("no key is {other:?}"),
    }
}

fn batch(db: &Database, first_id: usize, keys: &[Value]) -> RecordBatch {
    let schema = db.catalog().table("t").unwrap().schema().clone();
    let ids: Vec<Value> = (first_id..first_id + keys.len())
        .map(|i| Value::Int(i as i64))
        .collect();
    let v: Vec<Value> = (first_id..first_id + keys.len())
        .map(|i| Value::Float((i % 13) as f64 * 0.5 - 2.0))
        .collect();
    let columns = vec![
        ColumnVector::from_values(DataType::Int, &ids).unwrap(),
        ColumnVector::from_values(schema.column(1).data_type, keys).unwrap(),
        ColumnVector::from_values(DataType::Float, &v).unwrap(),
    ];
    RecordBatch::new(schema, columns).unwrap()
}

fn insert(db: &Database, first_id: usize, keys: &[Value]) {
    let rows: Vec<String> = (keys.iter().enumerate())
        .map(|(j, k)| {
            let id = first_id + j;
            format!("({id}, {}, {})", lit(k), (id % 13) as f64 * 0.5 - 2.0)
        })
        .collect();
    db.execute(&format!("INSERT INTO t VALUES {}", rows.join(", ")))
        .unwrap();
}

/// Load `keys` in one batch, in pieces of assorted sizes (some of half a
/// morsel or more, so several sealed chunks), or by small INSERTs.
fn load(db: &Database, rng: &mut StdRng, keys: &[Value]) {
    let mode = rng.gen_range(0..3u32);
    let mut at = 0;
    while at < keys.len() {
        let n = match mode {
            0 => keys.len(),
            1 if rng.gen_range(0..4u32) == 0 => rng.gen_range(2_048..2_600usize),
            _ => rng.gen_range(1..40usize),
        };
        let piece = &keys[at..(at + n).min(keys.len())];
        if mode == 2 {
            insert(db, at, piece);
        } else {
            db.session("admin")
                .append_batch("t", batch(db, at, piece))
                .unwrap();
        }
        at += piece.len();
    }
}

/// Whether the table's rows, in scan order, are non-decreasing on `k` in
/// its own type, with no NULL and no NaN: the flag's meaning, read back
/// with none of the engine's stats code.
fn sorted_on_k(db: &Database) -> bool {
    let b = db.query("SELECT k FROM t").unwrap();
    let keys: Vec<Value> = (0..b.num_rows()).map(|r| b.column(0).get(r)).collect();
    let ordered = |a: &Value, b: &Value| match (a, b) {
        (Value::Int(x), Value::Int(y)) => x <= y,
        (Value::Float(x), Value::Float(y)) => x <= y,
        (Value::Date(x), Value::Date(y)) => x <= y,
        _ => false,
    };
    let valid = |v: &Value| !v.is_null() && !matches!(v, Value::Float(f) if f.is_nan());
    keys.iter().all(valid) && keys.windows(2).all(|w| ordered(&w[0], &w[1]))
}

/// Statement shapes: a select list and the rest of the WHERE clause around
/// a range conjunct, `{}`.
const SHAPES: [&str; 4] = [
    "SELECT id, k, v FROM t WHERE {}",
    "SELECT COUNT(*), SUM(v), MIN(k), MAX(id) FROM t WHERE {} AND id % 3 <> 1",
    "SELECT id, k FROM t WHERE v > -1.0 AND {} ORDER BY v DESC, id LIMIT 4",
    "SELECT k, id FROM t WHERE {} AND id < 1000000",
];

/// Range conjuncts over `?` slots: the forms `Expr::column_bound` reads.
const RANGES: [(&str, usize); 6] = [
    ("k BETWEEN ? AND ?", 2),
    ("k >= ? AND k < ?", 2),
    ("k = ?", 1),
    ("? < k", 1),
    ("k <= ?", 1),
    ("? <= k AND k <= ?", 2),
];

/// `sql` with each `?` replaced by the next of `params` as a literal.
fn literal(sql: &str, params: &[Value]) -> String {
    let mut params = params.iter();
    sql.chars()
        .map(|c| match c {
            '?' => lit(params.next().unwrap()),
            c => c.to_string(),
        })
        .collect()
}

/// The ways a statement runs with bound values.
#[derive(Debug, Clone, Copy)]
enum Binding {
    WithParams,
    Prepared,
    PreparedInTxn,
}

impl Binding {
    fn run(self, s: &mut Session, p: &PreparedStatement, params: &[Value]) -> Result<QueryResult> {
        match self {
            Binding::WithParams => s.execute_with_params(p.sql(), params),
            Binding::Prepared => s.execute_prepared(p, params),
            Binding::PreparedInTxn => {
                s.execute("BEGIN")?;
                let result = s.execute_prepared(p, params)?;
                s.execute("COMMIT")?;
                Ok(result)
            }
        }
    }
}

fn find_scan(op: &OpSnapshot) -> Option<&OpSnapshot> {
    match op.name.as_str() {
        "Scan" => Some(op),
        _ => op.children.iter().find_map(find_scan),
    }
}

/// What a run shows: its rows (as `Debug` strings, so float bits count),
/// its `rows_returned`, and its scan's line and rows read.
fn observe(s: &Session, result: QueryResult) -> (Vec<String>, u64, String, u64) {
    let b = result.batch.unwrap();
    let rows = (0..b.num_rows()).map(|r| format!("{:?}", b.row(r))).collect();
    let m = s.last_query_metrics().unwrap();
    let scan = find_scan(&m).expect("the plan scans t");
    (rows, m.rows_out, scan.detail.clone(), scan.rows_in)
}

fn explain(s: &mut Session, sql: &str) -> String {
    let b = s.execute(&format!("EXPLAIN {sql}")).unwrap().batch.unwrap();
    (0..b.num_rows())
        .map(|r| b.column(0).get(r).to_string())
        .collect()
}

/// The columns a scan line says a sorted range narrowed it by.
fn slice_columns(detail: &str) -> Vec<&str> {
    let Some((_, rest)) = detail.split_once("sorted range ") else {
        return Vec::new();
    };
    rest.split(" [").next().unwrap_or("").split(", ").collect()
}

fn sorted_range_scans(db: &Database) -> i64 {
    let b = db
        .query("SELECT value FROM flock_metrics WHERE metric = 'sorted_range_scans'")
        .unwrap();
    match b.column(0).get(0) {
        Value::Int(n) => n,
        other => panic!("counter reads {other:?}"),
    }
}

/// Counts over a seed: queries whose direct form read a slice, and how
/// many of those read fewer rows than the twin.
#[derive(Default)]
struct Seen {
    sliced: usize,
    narrower: usize,
    unsorted: usize,
}

fn run_seed(seed: u64, seen: &mut Seen) {
    let mut rng = StdRng::seed_from_u64(seed);
    let ty = [DataType::Int, DataType::Int, DataType::Float, DataType::Date][rng.gen_range(0..4usize)];
    let mut g = Gen {
        rng: StdRng::seed_from_u64(seed ^ 0x5047),
        ty,
    };
    let db = Database::new();
    db.execute(&format!("CREATE TABLE t (id INT, k {ty}, v DOUBLE)"))
        .unwrap();
    let n = [0, 1, 5, 60, 300, 2_500, 5_000][rng.gen_range(0..7usize)];
    let mut keys = g.keys(n);
    if ty == DataType::Int && n > 2 && rng.gen_range(0..3u32) == 0 {
        // 2^53 + 1 then 2^53 where two appends meet: one `f64`, out of order
        let cut = rng.gen_range(1..n);
        for (i, k) in keys.iter_mut().enumerate() {
            *k = Value::Int(match i.cmp(&cut) {
                std::cmp::Ordering::Less => BIG - 1 - (cut - 1 - i) as i64,
                std::cmp::Ordering::Equal => BIG,
                std::cmp::Ordering::Greater => BIG + 2 + (i - cut) as i64,
            });
        }
        if rng.gen_bool(0.5) {
            keys[cut - 1] = Value::Int(BIG + 1);
        }
        db.session("admin")
            .append_batch("t", batch(&db, 0, &keys[..cut]))
            .unwrap();
        db.session("admin")
            .append_batch("t", batch(&db, cut, &keys[cut..]))
            .unwrap();
    } else {
        load(&db, &mut rng, &keys);
    }
    match rng.gen_range(0..6u32) {
        0 if n > 0 => {
            // a key rewritten: out of order unless it lands in place
            let (id, k) = (rng.gen_range(0..n), rng.gen_range(0..n));
            db.execute(&format!("UPDATE t SET k = {} WHERE id = {id}", lit(&keys[k])))
                .unwrap();
        }
        1 => {
            let m = rng.gen_range(2..6usize);
            db.execute(&format!("DELETE FROM t WHERE id % {m} = 1"))
                .unwrap();
        }
        2 => {
            let more = g.keys(rng.gen_range(1..30usize));
            insert(&db, n, &more);
            keys.extend(more);
        }
        _ => {}
    }
    let sorted = sorted_on_k(&db);
    seen.unsorted += !sorted as usize;

    let mut session = db.session("admin");
    for q in 0..6 {
        let ctx = format!("seed {seed} query {q} ({ty}, {n} rows, sorted {sorted})");
        let shape = SHAPES[rng.gen_range(0..SHAPES.len())];
        let (range, slots) = RANGES[rng.gen_range(0..RANGES.len())];
        let mut params: Vec<Value> = (0..slots).map(|_| g.bound(&keys)).collect();
        if slots == 2 && rng.gen_range(0..4u32) == 0 {
            params.swap(0, 1); // lo > hi, as often as not
        }
        let direct = shape.replace("{}", range);
        let twin = shape.replace("{}", &format!("CASE WHEN {range} THEN TRUE ELSE FALSE END"));
        let (direct_text, twin_text) = (literal(&direct, &params), literal(&twin, &params));

        let want = session.execute(&twin_text).unwrap();
        let want = observe(&session, want);
        let twin_k = slice_columns(&want.2).contains(&"k");
        assert!(!twin_k, "{ctx}: twin {twin_text}: {}", want.2);
        let before = sorted_range_scans(&db);
        let got = session.execute(&direct_text).unwrap();
        let got = observe(&session, got);
        assert_eq!(
            (&got.0, got.1),
            (&want.0, want.1),
            "{ctx}: {direct_text} against {twin_text}"
        );
        let counted = sorted_range_scans(&db) - before;
        let sliced = slice_columns(&got.2).contains(&"k");
        assert_eq!(counted, got.2.contains("sorted range") as i64, "{ctx}: {}", got.2);
        // a bound side that is a number, not NULL or NaN, reads a slice
        let bounded = params.iter().any(|p| p.as_f64().is_some_and(|x| !x.is_nan()));
        assert_eq!(sliced, sorted && bounded, "{ctx}: {direct_text}: {}", got.2);
        let plan = explain(&mut session, &direct_text);
        assert_eq!(slice_columns(&plan).contains(&"k"), sliced, "{ctx}: {plan}");
        let plan = explain(&mut session, &twin_text);
        assert!(!slice_columns(&plan).contains(&"k"), "{ctx}: {plan}");
        seen.sliced += sliced as usize;
        seen.narrower += (got.3 < want.3) as usize;

        let prepared = session.prepare(&direct).unwrap();
        for binding in [Binding::WithParams, Binding::Prepared, Binding::PreparedInTxn] {
            let bound = binding.run(&mut session, &prepared, &params).unwrap();
            let bound = observe(&session, bound);
            assert_eq!(bound, got, "{ctx}, {binding:?}: {direct} with {params:?}");
        }
    }
}

#[test]
fn sorted_range_scans_read_what_the_unread_twin_reads() {
    let mut seen = Seen::default();
    for seed in test_seeds(32) {
        run_seed(seed, &mut seen);
    }
    // not vacuous: slices read, fewer rows than the twin, and unsorted tables
    if test_seeds(32).end >= 32 {
        assert!(
            seen.sliced > 10 && seen.narrower > 5 && seen.unsorted > 3,
            "{} sliced, {} narrower, {} unsorted",
            seen.sliced,
            seen.narrower,
            seen.unsorted
        );
    }
}
