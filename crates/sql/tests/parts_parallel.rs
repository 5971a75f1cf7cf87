//! Chunk-parallel scans: a scan of at least two disk parts that reads at
//! least the fan-out threshold spreads its chunks over the worker pool,
//! each chunk read, decoded, filtered and (under a GROUP BY) folded into
//! its own partial in one task. Every query here must return the same
//! bits at 2, 4 and 8 threads; a grouped aggregate must return exactly
//! what per-chunk partials merged in chunk order give, each chunk's
//! partial merged from fixed morsels when the chunk clears the fan-out
//! threshold (the association the serial chunk loop uses); and at one
//! thread and on a resident twin of the same rows the results must agree,
//! floats within a relative epsilon for re-association.
//!
//! The table has NULLs in every column, dictionary-coded text in its
//! parts and floats whose sums are inexact, in at least eight parts plus
//! a resident tail. A row budget and a cancel raised mid-scan must end
//! with their typed errors, and eight workers must hold their decoded
//! parts within the table memory budget.
//!
//! Deterministic via flock-rng; seed count defaults to 8 and is
//! overridable with `FLOCK_DIFF_SEEDS` (CI sweeps wider).

use flock_rng::{rngs::StdRng, test_seeds, Rng, SeedableRng};
use flock_sql::ast::PredictStrategy;
use flock_sql::exec::agg::{Accumulator, GroupKey};
use flock_sql::exec::{CancelHandle, EvalContext, ExecOptions, ParallelPolicy, PhysicalPlan};
use flock_sql::plan::AggFunc;
use flock_sql::udf::{InferenceProvider, NoInference};
use flock_sql::{
    ColumnVector, DataType, Database, DurabilityOptions, MemFs, RecordBatch, Result, Schema,
    SqlError, Value,
};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

const THRESHOLD: usize = 400;
const MORSEL: usize = 96;
/// Nine thresholds of rows, appended 400 at a time.
const ROWS: usize = 3_600;
const LOAD_BATCH: usize = 400;
const U_ROWS: usize = 1_000;

fn options(threads: usize) -> ExecOptions {
    ExecOptions {
        threads,
        parallel_row_threshold: THRESHOLD,
        morsel_rows: MORSEL,
        ..ExecOptions::default()
    }
}

/// `t (id, k, g, v, cat)` and `u (g, w, note, z)`: once on disk in parts
/// (text dictionary-coded), once resident.
struct Fixture {
    disk: Database,
    resident: Database,
}

fn maybe_null(rng: &mut StdRng, v: Value) -> Value {
    if rng.gen_range(0..20u32) == 0 {
        Value::Null
    } else {
        v
    }
}

fn column(ty: DataType, values: &[Value]) -> ColumnVector {
    ColumnVector::from_values(ty, values).unwrap()
}

fn t_batch(rng: &mut StdRng, ids: std::ops::Range<usize>) -> RecordBatch {
    let schema = Arc::new(Schema::from_pairs(&[
        ("id", DataType::Int),
        ("k", DataType::Int),
        ("g", DataType::Int),
        ("v", DataType::Float),
        ("cat", DataType::Text),
    ]));
    let mut cols: [Vec<Value>; 5] = Default::default();
    for id in ids {
        cols[0].push(Value::Int(id as i64));
        let k = Value::Int(rng.gen_range(0..1_000i64));
        cols[1].push(maybe_null(rng, k));
        let g = Value::Int(rng.gen_range(0..40i64));
        cols[2].push(maybe_null(rng, g));
        // sevenths: no sum of them is exact in binary
        let v = Value::Float(rng.gen_range(-1_000_000i64..1_000_000) as f64 / 7.0);
        cols[3].push(maybe_null(rng, v));
        let cat = Value::Text(format!("c{}", rng.gen_range(0..6u32)));
        cols[4].push(maybe_null(rng, cat));
    }
    let types = [
        DataType::Int,
        DataType::Int,
        DataType::Int,
        DataType::Float,
        DataType::Text,
    ];
    let cols = cols
        .iter()
        .zip(types)
        .map(|(c, ty)| column(ty, c))
        .collect();
    RecordBatch::new(schema, cols).unwrap()
}

fn u_batch(rng: &mut StdRng, rows: usize) -> RecordBatch {
    let schema = Arc::new(Schema::from_pairs(&[
        ("g", DataType::Int),
        ("w", DataType::Float),
        ("note", DataType::Text),
        ("z", DataType::Int),
    ]));
    let mut cols: [Vec<Value>; 4] = Default::default();
    for i in 0..rows {
        // a fifth of the keys match `t.g`
        let g = Value::Int(rng.gen_range(0..200i64));
        cols[0].push(maybe_null(rng, g));
        cols[1].push(Value::Float(rng.gen_range(0..1_000i64) as f64 / 3.0));
        let note = Value::Text(format!("n{}", rng.gen_range(0..4u32)));
        cols[2].push(maybe_null(rng, note));
        cols[3].push(Value::Int(i as i64));
    }
    let types = [
        DataType::Int,
        DataType::Float,
        DataType::Text,
        DataType::Int,
    ];
    let cols = cols
        .iter()
        .zip(types)
        .map(|(c, ty)| column(ty, c))
        .collect();
    RecordBatch::new(schema, cols).unwrap()
}

impl Fixture {
    fn generate(seed: u64) -> Fixture {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9A27);
        // Offload cuts a table's resident rows into parts of half the
        // budget: `t` (5 columns) into parts of `part_rows`, `u` (4)
        // into parts of 5/4 of that.
        let part_rows = rng.gen_range(160..=300u64);
        let disk = Database::open_with_fs(MemFs::new(), DurabilityOptions::default()).unwrap();
        disk.set_table_memory_budget(part_rows * 5 * 8 * 2);
        let resident = Database::new();
        for db in [&disk, &resident] {
            db.execute("CREATE TABLE t (id INT, k INT, g INT, v DOUBLE, cat VARCHAR)")
                .unwrap();
            db.execute("CREATE TABLE u (g INT, w DOUBLE, note VARCHAR, z INT)")
                .unwrap();
        }
        let load = |table: &str, batch: RecordBatch| {
            for db in [&disk, &resident] {
                db.session("admin")
                    .append_batch(table, batch.clone())
                    .unwrap();
            }
        };
        for start in (0..ROWS).step_by(LOAD_BATCH) {
            load("t", t_batch(&mut rng, start..start + LOAD_BATCH));
        }
        for _ in 0..U_ROWS / 250 {
            load("u", u_batch(&mut rng, 250));
        }
        // rows past the last offload stay resident: the tail chunk
        let resident_rows = disk.catalog().table("t").unwrap().current().data.num_rows();
        let room = 2 * part_rows as usize - resident_rows;
        if room > 0 {
            let end = ROWS + rng.gen_range(1..=room);
            load("t", t_batch(&mut rng, ROWS..end));
        }
        let catalog = disk.catalog();
        let parts = |name: &str| catalog.table(name).unwrap().current().parts.len();
        assert!(
            parts("t") >= 8 && parts("u") >= 2,
            "seed {seed}: too few parts"
        );
        assert!(catalog.table("t").unwrap().current().data.num_rows() > 0);
        Fixture { disk, resident }
    }
}

/// Values rendered for comparison, floats to the bit (`Value`'s own `==`
/// has SQL semantics: NULL and NaN equal nothing).
fn show(batch: &RecordBatch) -> Vec<String> {
    (0..batch.num_rows())
        .map(|i| {
            let row: Vec<String> = batch
                .row(i)
                .iter()
                .map(|v| match v {
                    Value::Float(f) => format!("Float({:#x})", f.to_bits()),
                    other => format!("{other:?}"),
                })
                .collect();
            row.join(", ")
        })
        .collect()
}

/// Same rows in the same order, floats within a relative epsilon.
fn assert_close(want: &RecordBatch, got: &RecordBatch, context: &str) {
    assert_eq!(want.num_rows(), got.num_rows(), "{context}: row count");
    for r in 0..want.num_rows() {
        for (a, b) in want.row(r).iter().zip(got.row(r)) {
            let same = match (a, &b) {
                (Value::Float(x), Value::Float(y)) => {
                    (x - y).abs() <= 1e-9 * x.abs().max(y.abs()).max(1.0)
                }
                _ => format!("{a:?}") == format!("{b:?}"),
            };
            assert!(same, "{context}: row {r}: {a:?} vs {b:?}");
        }
    }
}

/// Every query shape the chunk map serves.
fn queries(rng: &mut StdRng) -> Vec<String> {
    let k = rng.gen_range(100..900);
    vec![
        // GROUP BY over a fused filter, each chunk its own partial
        "SELECT cat, SUM(v), AVG(v), MIN(v), MAX(v), COUNT(*) FROM t \
         WHERE cat <> 'c2' GROUP BY cat"
            .into(),
        "SELECT SUM(v), AVG(v), MIN(v), MAX(v), COUNT(v) FROM t".into(),
        format!("SELECT g, COUNT(*), SUM(v) FROM t WHERE k < {k} GROUP BY g"),
        // COUNT DISTINCT merges; SUM DISTINCT takes the whole input
        "SELECT cat, COUNT(DISTINCT g), SUM(DISTINCT v) FROM t GROUP BY cat".into(),
        format!("SELECT id, v, cat FROM t WHERE v > 1000.0 AND k >= {k}"),
        // a join with parts on each side, then a grouping over its output
        format!("SELECT t.id, t.v, u.w, u.z FROM t JOIN u ON t.g = u.g WHERE t.k < {k}"),
        "SELECT u.note, COUNT(*), SUM(t.v * u.w) FROM t JOIN u ON t.g = u.g GROUP BY u.note".into(),
        "SELECT id, v, cat FROM t WHERE cat <> 'c1' ORDER BY v DESC, id LIMIT 37".into(),
    ]
}

#[test]
fn chunk_parallel_scans_agree_across_degrees_serial_and_resident() {
    for seed in test_seeds(8) {
        let fx = Fixture::generate(seed);
        let mut rng = StdRng::seed_from_u64(seed);
        for q in queries(&mut rng) {
            fx.resident.set_exec_options(options(1));
            let resident = fx.resident.query(&q).unwrap();
            fx.disk.set_exec_options(options(1));
            let serial = fx.disk.query(&q).unwrap();
            assert_close(&resident, &serial, &format!("seed {seed}: 1 thread: {q}"));
            fx.disk.set_exec_options(options(2));
            let two = fx.disk.query(&q).unwrap();
            assert_close(&serial, &two, &format!("seed {seed}: 2 threads vs 1: {q}"));
            for threads in [4, 8] {
                fx.disk.set_exec_options(options(threads));
                let got = fx.disk.query(&q).unwrap();
                assert_eq!(
                    show(&two),
                    show(&got),
                    "seed {seed}: {threads} threads: {q}"
                );
            }
        }
    }
}

// ------------------------------------------- the chunk-order reference

/// Groups in first-appearance order, folded row by row through the
/// engine's own accumulators.
struct RefPartial {
    order: Vec<GroupKey>,
    groups: HashMap<GroupKey, Vec<Accumulator>>,
}

/// SUM(v), AVG(v), MIN(v), MAX(v), COUNT(*).
const FUNCS: [AggFunc; 5] = [
    AggFunc::Sum,
    AggFunc::Avg,
    AggFunc::Min,
    AggFunc::Max,
    AggFunc::Count,
];

impl RefPartial {
    fn new(global: bool) -> RefPartial {
        let mut p = RefPartial {
            order: Vec::new(),
            groups: HashMap::new(),
        };
        if global {
            p.order.push(GroupKey(Vec::new()));
            p.groups.insert(GroupKey(Vec::new()), fresh());
        }
        p
    }

    /// `rows` of `chunk`: (key, v) per row.
    fn fold(rows: &[(Vec<Value>, Value)], global: bool) -> RefPartial {
        let mut p = RefPartial::new(global);
        for (key, v) in rows {
            let key = GroupKey(key.clone());
            let accs = p.groups.entry(key.clone()).or_insert_with(|| {
                p.order.push(key);
                fresh()
            });
            for (acc, func) in accs.iter_mut().zip(FUNCS) {
                acc.update((func != AggFunc::Count).then_some(v));
            }
        }
        p
    }

    fn merge(&mut self, later: RefPartial) {
        let RefPartial { order, mut groups } = later;
        for key in order {
            let accs = groups.remove(&key).unwrap();
            match self.groups.get_mut(&key) {
                Some(mine) => mine.iter_mut().zip(&accs).for_each(|(m, a)| m.merge(a)),
                None => {
                    self.order.push(key.clone());
                    self.groups.insert(key, accs);
                }
            }
        }
    }

    fn rows(&self) -> Vec<String> {
        let to_bits = |v: &Value| match v {
            Value::Float(f) => format!("Float({:#x})", f.to_bits()),
            other => format!("{other:?}"),
        };
        self.order
            .iter()
            .map(|key| {
                let mut row: Vec<String> = key.0.iter().map(to_bits).collect();
                row.extend(self.groups[key].iter().map(|a| to_bits(&a.finish())));
                row.join(", ")
            })
            .collect()
    }
}

fn fresh() -> Vec<Accumulator> {
    FUNCS.iter().map(|&f| Accumulator::new(f, false)).collect()
}

/// The grouped aggregate as the serial chunk loop associates it: per
/// chunk of survivors, one partial (merged from fixed morsels when the
/// chunk clears the threshold), partials merged in chunk order.
fn chunk_order_reference(
    db: &Database,
    global: bool,
    keep: impl Fn(&[Value]) -> bool,
) -> Vec<String> {
    let scan = db.catalog().scan_table("t", None).unwrap();
    let mut state: Option<RefPartial> = None;
    for chunk in scan.chunks() {
        let chunk = chunk.unwrap();
        let rows: Vec<(Vec<Value>, Value)> = (0..chunk.num_rows())
            .map(|i| chunk.row(i))
            .filter(|row| keep(row))
            .map(|row| {
                (
                    if global { vec![] } else { vec![row[4].clone()] },
                    row[3].clone(),
                )
            })
            .collect();
        if rows.is_empty() {
            continue;
        }
        let partial = if rows.len() >= THRESHOLD && rows.len() > MORSEL {
            let mut merged = RefPartial::new(global);
            for morsel in rows.chunks(MORSEL) {
                merged.merge(RefPartial::fold(morsel, global));
            }
            merged
        } else {
            RefPartial::fold(&rows, global)
        };
        match &mut state {
            Some(s) => s.merge(partial),
            None => state = Some(partial),
        }
    }
    state.unwrap_or_else(|| RefPartial::new(global)).rows()
}

#[test]
fn grouped_partials_associate_in_chunk_order() {
    for seed in test_seeds(8) {
        let fx = Fixture::generate(seed);
        let grouped = "SELECT cat, SUM(v), AVG(v), MIN(v), MAX(v), COUNT(*) FROM t \
                       WHERE cat <> 'c2' GROUP BY cat";
        let want = chunk_order_reference(
            &fx.disk,
            false,
            |row| matches!(&row[4], Value::Text(c) if c != "c2"),
        );
        let global = "SELECT SUM(v), AVG(v), MIN(v), MAX(v), COUNT(*) FROM t";
        let want_global = chunk_order_reference(&fx.disk, true, |_| true);
        for threads in [2, 4, 8] {
            fx.disk.set_exec_options(options(threads));
            let got = show(&fx.disk.query(grouped).unwrap());
            assert_eq!(got, want, "seed {seed}: {threads} threads: {grouped}");
            let got = show(&fx.disk.query(global).unwrap());
            assert_eq!(got, want_global, "seed {seed}: {threads} threads: {global}");
        }
    }
}

#[test]
fn a_cursor_inside_a_part_reads_the_rest_at_any_degree() {
    for seed in test_seeds(8) {
        let fx = Fixture::generate(seed);
        let all = fx.resident.query("SELECT * FROM t").unwrap();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5C);
        let skip = rng.gen_range(1..all.num_rows() / 2);
        let want = show(&all.slice(skip, usize::MAX));
        for degree in [1, 2, 4, 8] {
            let source = fx
                .disk
                .catalog()
                .scan_table("t", None)
                .unwrap()
                .skip_rows(skip);
            let plan = PhysicalPlan::Scan {
                source,
                predicate: None,
                policy: ParallelPolicy {
                    degree,
                    row_threshold: THRESHOLD,
                    morsel_rows: MORSEL,
                },
            };
            let ctx = EvalContext::new(Arc::new(NoInference), "admin", degree);
            let got = show(&plan.execute(&ctx).unwrap());
            assert_eq!(got, want, "seed {seed}: skip {skip} at degree {degree}");
        }
    }
}

// ------------------------------------------------ errors and the budget

#[test]
fn a_row_budget_ends_a_chunk_parallel_scan_with_its_typed_error() {
    let fx = Fixture::generate(1);
    fx.disk.set_exec_options(ExecOptions {
        max_rows_budget: 1_000,
        ..options(8)
    });
    let err = fx
        .disk
        .query("SELECT cat, SUM(v) FROM t GROUP BY cat")
        .unwrap_err();
    assert!(matches!(err, SqlError::Budget(_)), "got {err:?}");
}

/// Scores every row 1.0 and, on its `after`-th call, cancels the session
/// that runs the query.
struct CancelAfter {
    after: usize,
    calls: AtomicUsize,
    session: Mutex<Option<CancelHandle>>,
}

impl InferenceProvider for CancelAfter {
    fn output_type(&self, _model: &str) -> Result<DataType> {
        Ok(DataType::Float)
    }
    fn input_arity(&self, _model: &str) -> Result<usize> {
        Ok(1)
    }
    fn predict(
        &self,
        _model: &str,
        inputs: &[ColumnVector],
        _strategy: PredictStrategy,
        _user: &str,
    ) -> Result<ColumnVector> {
        if self.calls.fetch_add(1, Ordering::SeqCst) + 1 == self.after {
            if let Some(handle) = self.session.lock().unwrap().as_ref() {
                handle.cancel();
            }
        }
        Ok(ColumnVector::from_f64(vec![1.0; inputs[0].len()]))
    }
}

#[test]
fn a_cancel_raised_mid_scan_ends_it_with_its_typed_error() {
    let fx = Fixture::generate(2);
    let provider = Arc::new(CancelAfter {
        after: 3,
        calls: AtomicUsize::new(0),
        session: Mutex::new(None),
    });
    fx.disk.set_inference_provider(provider.clone());
    fx.disk.set_exec_options(options(8));
    let mut session = fx.disk.session("admin");
    *provider.session.lock().unwrap() = Some(session.cancel_handle());
    let err = session
        .query("SELECT COUNT(*) FROM t WHERE PREDICT(m, v) > 0.5")
        .unwrap_err();
    assert!(matches!(err, SqlError::Cancelled(_)), "got {err:?}");
}

fn metric(db: &Database, name: &str) -> u64 {
    let b = db
        .query(&format!(
            "SELECT value FROM flock_metrics WHERE metric = '{name}'"
        ))
        .unwrap();
    match b.column(0).get(0) {
        Value::Int(v) => v as u64,
        other => panic!("metric {name}: {other:?}"),
    }
}

#[test]
fn eight_workers_hold_their_decoded_parts_within_the_budget() {
    // 4 columns: offload cuts 8 192-row parts of 256 KiB decoded, half
    // the budget, so two parts may be in flight at once, never eight.
    const BUDGET: u64 = 512 << 10;
    let db = Database::open_with_fs(MemFs::new(), DurabilityOptions::default()).unwrap();
    db.set_table_memory_budget(BUDGET);
    db.execute("CREATE TABLE t (k INT, ts INT, v DOUBLE, cat VARCHAR)")
        .unwrap();
    let rows = 16 * 8_192;
    let cats: Vec<Value> = (0..rows)
        .map(|i| Value::Text(format!("c{}", i % 7)))
        .collect();
    let batch = RecordBatch::new(
        Arc::new(Schema::from_pairs(&[
            ("k", DataType::Int),
            ("ts", DataType::Int),
            ("v", DataType::Float),
            ("cat", DataType::Text),
        ])),
        vec![
            ColumnVector::from_i64(0..rows as i64),
            ColumnVector::from_i64((0..rows as i64).map(|i| i % 1_000)),
            ColumnVector::from_f64((0..rows).map(|i| i as f64 / 8.0)),
            column(DataType::Text, &cats),
        ],
    )
    .unwrap();
    db.session("admin").append_batch("t", batch).unwrap();
    assert_eq!(db.catalog().table("t").unwrap().current().parts.len(), 16);

    db.set_exec_options(ExecOptions::with_threads(8, 1));
    let q = "SELECT * FROM t WHERE v >= 0.0";
    let b = db.query(&format!("EXPLAIN ANALYZE {q}")).unwrap();
    let tree: Vec<String> = (0..b.num_rows())
        .map(|r| b.column(0).get(r).to_string())
        .collect();
    assert!(
        tree.iter().any(|l| l.contains("chunks 16, degree 8")),
        "{tree:?}"
    );
    for q in [
        q,
        "SELECT cat, COUNT(*), SUM(v), MAX(ts) FROM t GROUP BY cat",
    ] {
        for _ in 0..3 {
            db.query(q).unwrap();
        }
    }
    let peak = metric(&db, "part_scan_peak_bytes");
    assert!(
        peak <= BUDGET,
        "{peak} decoded bytes in flight, budget {BUDGET}"
    );
}
