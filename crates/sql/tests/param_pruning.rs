//! Zone-map pruning by `?` parameters. A prepared (or plan-cached) range
//! read keeps its plan shared across parameter values, so its parts are
//! pruned when the plan executes, once the parameters are bound. The
//! prepared form must read exactly what the same statement with the
//! values written in as literals reads: the same rows out, the same rows
//! read, and the same `parts pruned x/y` on its scan — over seeded windows
//! that include NULL parameters and empty (`lo > hi`) ranges.
//!
//! Every way of binding values runs the statement the literal text runs:
//! `execute_with_params`, and `execute_prepared` outside and inside
//! `BEGIN`, over a subquery holding a `?`, `EXPLAIN ANALYZE`, and UPDATE
//! and DELETE, which prune the parts they rewrite by the bound values.
//!
//! Deterministic via flock-rng; seed count defaults to 64 and is
//! overridable with `FLOCK_DIFF_SEEDS` (CI sweeps wider).

use flock_rng::{rngs::StdRng, test_seeds, Rng, SeedableRng};
use flock_sql::exec::OpSnapshot;
use flock_sql::{
    ColumnVector, Database, DurabilityOptions, DurableFs, MemFs, PreparedStatement, QueryResult,
    RecordBatch, Result, Session, Value,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

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
    table_on(MemFs::new())
}

fn table_on(fs: Arc<dyn DurableFs>) -> Database {
    let opts = DurabilityOptions {
        fsync_on_commit: false,
        checkpoint_every_commits: 0,
        keep_checkpoints: 2,
    };
    let db = Database::open_with_fs(fs, opts).unwrap();
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

/// Shapes run by every binding path, each with its `?` count: a `?` in a
/// subquery and beside it, and `EXPLAIN ANALYZE`.
const READ_SHAPES: [(&str, usize); 2] = [
    (
        "SELECT COUNT(*), SUM(v) FROM t WHERE k BETWEEN ? AND ? \
         AND s IN (SELECT s FROM t WHERE k = ?)",
        3,
    ),
    (
        "EXPLAIN ANALYZE SELECT COUNT(*), SUM(k) FROM t WHERE k >= ? AND k < ?",
        2,
    ),
];

/// UPDATE and DELETE shapes; the first `?` of an UPDATE is the value it
/// adds (an INT, a DOUBLE or NULL, into an INT or a DOUBLE column).
const WRITE_SHAPES: [(&str, usize); 3] = [
    ("UPDATE t SET v = v + ? WHERE k BETWEEN ? AND ?", 3),
    ("UPDATE t SET k = k + ? WHERE k >= ? AND k < ?", 3),
    ("DELETE FROM t WHERE ? <= k AND k <= ?", 2),
];

/// The ways a statement runs with bound values.
#[derive(Debug, Clone, Copy)]
enum Binding {
    WithParams,
    Prepared,
    PreparedInTxn,
}

const BINDINGS: [Binding; 3] = [
    Binding::WithParams,
    Binding::Prepared,
    Binding::PreparedInTxn,
];

impl Binding {
    fn run(
        self,
        session: &mut Session,
        prepared: &PreparedStatement,
        params: &[Value],
    ) -> Result<QueryResult> {
        match self {
            Binding::WithParams => session.execute_with_params(prepared.sql(), params),
            Binding::Prepared => session.execute_prepared(prepared, params),
            Binding::PreparedInTxn => {
                session.execute("BEGIN")?;
                // a failed statement rolls its transaction back
                let result = session.execute_prepared(prepared, params)?;
                session.execute("COMMIT")?;
                Ok(result)
            }
        }
    }
}

/// `n` parameters, a narrow window now and then: what the last two `?`s
/// of a shape bound.
fn window(rng: &mut StdRng, n: usize) -> Vec<Value> {
    let mut params: Vec<Value> = (0..n).map(|_| param(rng)).collect();
    if rng.gen_range(0..3u32) == 0 {
        let lo = rng.gen_range(0..ROWS);
        params[n - 2] = Value::Int(lo);
        params[n - 1] = Value::Int(lo + rng.gen_range(0..300i64));
    }
    params
}

/// An `EXPLAIN ANALYZE` line without its timing.
fn untimed(line: &str) -> String {
    match line.split_once("time=") {
        Some((head, tail)) => {
            let rest = tail.find([',', ')']).map_or("", |i| &tail[i..]);
            format!("{head}{rest}")
        }
        None => line.to_string(),
    }
}

#[test]
fn bound_subqueries_and_explain_analyze_read_what_their_literal_text_reads() {
    let db = table();
    let parts = db.catalog().table("t").unwrap().current().parts.len();
    let mut session = db.session("admin");
    let prepared: Vec<_> = READ_SHAPES
        .iter()
        .map(|(sql, _)| session.prepare(sql).unwrap())
        .collect();
    let mut pruning = 0;
    for seed in test_seeds(64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let shape = rng.gen_range(0..READ_SHAPES.len());
        let (sql, n) = READ_SHAPES[shape];
        let mut params = window(&mut rng, 2);
        if n == 3 {
            // the subquery's key, inside the window when there is one
            let k = params[0]
                .as_f64()
                .map_or(0, |lo| lo as i64 + rng.gen_range(0..50i64));
            params.push(Value::Int(k));
        }
        let text = literal(sql, &params);
        let observed = |session: &Session, result: QueryResult| {
            let (rows, read, detail) = observe(session, &result.batch.unwrap());
            let rows: Vec<String> = rows.iter().map(|r| untimed(r)).collect();
            (rows, read, detail)
        };
        let want = session.execute(&text).unwrap();
        let want = observed(&session, want);
        for binding in BINDINGS {
            let got = binding.run(&mut session, &prepared[shape], &params);
            let got = observed(&session, got.unwrap());
            assert_eq!(got, want, "seed {seed}, {binding:?}: {text}");
        }
        pruning += !want.2.contains(&format!("parts pruned 0/{parts}")) as usize;
    }
    if test_seeds(64).end >= 64 {
        assert!(pruning > 10, "{pruning} pruning");
    }
}

/// A [`MemFs`] that counts the part files read from it.
struct PartReads {
    fs: Arc<MemFs>,
    reads: AtomicU64,
}

impl DurableFs for PartReads {
    fn read(&self, name: &str) -> std::io::Result<Vec<u8>> {
        if name.starts_with("part.") {
            self.reads.fetch_add(1, Ordering::Relaxed);
        }
        self.fs.read(name)
    }
    fn write_all(&self, name: &str, data: &[u8]) -> std::io::Result<()> {
        self.fs.write_all(name, data)
    }
    fn append(&self, name: &str, data: &[u8]) -> std::io::Result<()> {
        self.fs.append(name, data)
    }
    fn sync(&self, name: &str) -> std::io::Result<()> {
        self.fs.sync(name)
    }
    fn rename(&self, from: &str, to: &str) -> std::io::Result<()> {
        self.fs.rename(from, to)
    }
    fn remove(&self, name: &str) -> std::io::Result<()> {
        self.fs.remove(name)
    }
    fn list(&self) -> std::io::Result<Vec<String>> {
        self.fs.list()
    }
}

/// A replica of the table, the count of its part reads, a session on it and
/// that session's prepared [`WRITE_SHAPES`].
struct Replica {
    db: Database,
    fs: Arc<PartReads>,
    session: Session,
    prepared: Vec<PreparedStatement>,
}

impl Replica {
    fn new() -> Replica {
        let fs = Arc::new(PartReads {
            fs: MemFs::new(),
            reads: AtomicU64::new(0),
        });
        let db = table_on(fs.clone());
        let mut session = db.session("admin");
        let prepared = WRITE_SHAPES
            .iter()
            .map(|(sql, _)| session.prepare(sql).unwrap())
            .collect();
        Replica {
            db,
            fs,
            session,
            prepared,
        }
    }

    /// What a statement did: its outcome, the part files it read, and the
    /// table it left.
    fn touched(
        &mut self,
        run: impl FnOnce(&mut Session, &[PreparedStatement]) -> Result<QueryResult>,
    ) -> (String, u64, String) {
        let before = self.fs.reads.load(Ordering::Relaxed);
        let outcome = run(&mut self.session, &self.prepared).map(|r| r.rows_affected);
        let read = self.fs.reads.load(Ordering::Relaxed) - before;
        let table = self
            .session
            .query("SELECT COUNT(*), COUNT(k), SUM(k), SUM(v), MIN(k), MAX(k) FROM t")
            .unwrap();
        (format!("{outcome:?}"), read, format!("{:?}", table.row(0)))
    }
}

/// One replica of the table per way of running a statement, the literal text
/// first and then each [`Binding`], all fed the same statements. The replicas
/// start over every 16 seeds, before the DELETEs empty them.
#[test]
fn bound_updates_and_deletes_touch_what_their_literal_text_touches() {
    let fresh = || -> Vec<Replica> { (0..=BINDINGS.len()).map(|_| Replica::new()).collect() };
    let mut replicas = fresh();
    let (mut pruned, mut changed) = (0, 0);
    for (i, seed) in test_seeds(64).enumerate() {
        if i > 0 && i % 16 == 0 {
            replicas = fresh();
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let shape = rng.gen_range(0..WRITE_SHAPES.len());
        let (sql, n) = WRITE_SHAPES[shape];
        let mut params = window(&mut rng, 2);
        if n == 3 {
            let add = match rng.gen_range(0..4u32) {
                0 => Value::Null,
                1 => Value::Float(0.25),
                _ => Value::Int(rng.gen_range(-3..4i64)),
            };
            params.insert(0, add);
        }
        let text = literal(sql, &params);
        let parts = replicas[0]
            .db
            .catalog()
            .table("t")
            .unwrap()
            .current()
            .parts
            .len() as u64;
        let want = replicas[0].touched(|s, _| s.execute(&text));
        for (replica, binding) in replicas[1..].iter_mut().zip(BINDINGS) {
            let got = replica.touched(|s, prepared| binding.run(s, &prepared[shape], &params));
            assert_eq!(got, want, "seed {seed}, {binding:?}: {text}");
        }
        pruned += (want.1 < parts) as usize;
        changed += !want.0.contains("Ok(0)") as usize;
    }
    if test_seeds(64).end >= 64 {
        assert!(
            pruned > 10 && changed > 10,
            "{pruned} pruned, {changed} changed"
        );
    }
}
