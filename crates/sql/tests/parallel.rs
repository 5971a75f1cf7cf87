//! Parallel-vs-serial determinism: every morsel-parallel operator must
//! produce the same result as the serial path, row for row, at every
//! thread count. Morsel boundaries are fixed-size, so even floating-point
//! partial-aggregate association is identical across thread counts; the
//! serial-vs-parallel comparison allows an epsilon for re-association.

use flock_sql::ast::PredictStrategy;
use flock_sql::column::ColumnVector;
use flock_sql::exec::ExecOptions;
use flock_sql::types::DataType;
use flock_sql::udf::InferenceProvider;
use flock_sql::{Database, DurabilityOptions, MemFs, RecordBatch, Result, SqlError, Value};
use std::sync::Arc;

/// Rows in the generated fact table — enough for dozens of 64-row morsels.
const N_ORDERS: usize = 2000;
const N_CUSTOMERS: usize = 150;

/// Deterministic LCG so the fixture needs no external RNG crate.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        self.0 >> 11
    }
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn fixture() -> Database {
    fixture_in(Database::new())
}

/// The fixture's tables created and filled in `db`.
fn fixture_in(db: Database) -> Database {
    db.execute("CREATE TABLE customers (cust INT, name VARCHAR, segment VARCHAR)")
        .unwrap();
    db.execute("CREATE TABLE orders (o_id INT, cust INT, amount DOUBLE, region VARCHAR, qty INT)")
        .unwrap();

    let segments = ["retail", "wholesale", "online"];
    let mut rng = Lcg(42);
    let rows: Vec<String> = (0..N_CUSTOMERS)
        .map(|i| {
            format!(
                "({i}, 'cust_{i}', '{}')",
                segments[rng.below(3) as usize]
            )
        })
        .collect();
    db.execute(&format!("INSERT INTO customers VALUES {}", rows.join(", ")))
        .unwrap();

    let regions = ["emea", "amer", "apac", "latam"];
    // batch the inserts to keep statement size sane
    for chunk in (0..N_ORDERS).collect::<Vec<_>>().chunks(500) {
        let rows: Vec<String> = chunk
            .iter()
            .map(|&i| {
                // reference some customers that don't exist (unmatched joins)
                let cust = rng.below(N_CUSTOMERS as u64 + 20);
                let amount = (rng.below(100_000) as f64) / 97.0;
                let region = regions[rng.below(4) as usize];
                let qty = if rng.below(10) == 0 {
                    "NULL".to_string()
                } else {
                    rng.below(50).to_string()
                };
                format!("({i}, {cust}, {amount:.6}, '{region}', {qty})")
            })
            .collect();
        db.execute(&format!("INSERT INTO orders VALUES {}", rows.join(", ")))
            .unwrap();
    }
    db
}

/// A deterministic, strategy-insensitive inference provider: a logistic
/// score over two features. What PREDICT returns must not depend on how
/// the engine schedules it.
struct TestScorer;

impl InferenceProvider for TestScorer {
    fn output_type(&self, _model: &str) -> Result<DataType> {
        Ok(DataType::Float)
    }
    fn input_arity(&self, _model: &str) -> Result<usize> {
        Ok(2)
    }
    fn predict(
        &self,
        model: &str,
        inputs: &[ColumnVector],
        _strategy: PredictStrategy,
        _user: &str,
    ) -> Result<ColumnVector> {
        if model != "score" {
            return Err(SqlError::Execution(format!("unknown model '{model}'")));
        }
        let n = inputs[0].len();
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            let a = inputs[0].get(i).as_f64();
            let b = inputs[1].get(i).as_f64();
            out.push(match (a, b) {
                (Some(a), Some(b)) => {
                    let raw = 0.004 * a - 0.11 * b + 0.3;
                    1.0 / (1.0 + (-raw).exp())
                }
                // missing features score 0.0 — keeps WHERE comparisons total
                _ => 0.0,
            });
        }
        Ok(ColumnVector::from_f64(out))
    }
}

/// Execution options that force fan-out even on this small fixture:
/// threshold 1 and 64-row morsels.
fn parallel_options(threads: usize) -> ExecOptions {
    ExecOptions {
        threads,
        parallel_row_threshold: 1,
        morsel_rows: 64,
        ..ExecOptions::default()
    }
}

fn assert_batches_match(serial: &RecordBatch, parallel: &RecordBatch, ctxt: &str) {
    assert_eq!(
        serial.num_rows(),
        parallel.num_rows(),
        "{ctxt}: row count mismatch"
    );
    assert_eq!(
        serial.num_columns(),
        parallel.num_columns(),
        "{ctxt}: column count mismatch"
    );
    for r in 0..serial.num_rows() {
        for c in 0..serial.num_columns() {
            let a = serial.column(c).get(r);
            let b = parallel.column(c).get(r);
            let ok = match (&a, &b) {
                (Value::Float(x), Value::Float(y)) => {
                    // identical except for FP re-association in partial sums
                    (x.is_nan() && y.is_nan())
                        || (x - y).abs() <= 1e-9 * x.abs().max(y.abs()).max(1.0)
                }
                // group_eq: NULL == NULL (SQL PartialEq has NULL != NULL)
                _ => a.group_eq(&b),
            };
            assert!(ok, "{ctxt}: row {r} col {c}: {a:?} vs {b:?}");
        }
    }
}

/// TPC-H-flavored queries covering every parallel-capable operator:
/// filter+project, grouped/global aggregation (with and without DISTINCT),
/// equi-join (inner + left + residual filter), sort, distinct, union.
const QUERIES: &[&str] = &[
    "SELECT o_id, amount * 1.1, UPPER(region) FROM orders WHERE amount > 500 AND qty IS NOT NULL",
    "SELECT region, COUNT(*), SUM(amount), AVG(amount), MIN(qty), MAX(qty) \
     FROM orders GROUP BY region ORDER BY region",
    "SELECT COUNT(*), SUM(amount), STDDEV(amount), VARIANCE(amount) FROM orders",
    "SELECT COUNT(DISTINCT region), COUNT(DISTINCT qty) FROM orders",
    "SELECT region, SUM(DISTINCT qty), AVG(DISTINCT amount) FROM orders \
     GROUP BY region ORDER BY region",
    "SELECT c.name, o.amount FROM orders o JOIN customers c ON o.cust = c.cust \
     WHERE o.amount > 700 ORDER BY o.o_id",
    "SELECT o.o_id, c.segment FROM orders o LEFT JOIN customers c ON o.cust = c.cust \
     ORDER BY o.o_id",
    "SELECT c.segment, COUNT(*), SUM(o.amount) \
     FROM orders o JOIN customers c ON o.cust = c.cust \
     GROUP BY c.segment ORDER BY c.segment",
    "SELECT o_id, amount FROM orders ORDER BY region, amount DESC, o_id",
    "SELECT DISTINCT region, qty FROM orders ORDER BY region, qty LIMIT 40",
    "SELECT region FROM orders WHERE qty > 40 UNION ALL SELECT segment FROM customers",
];

#[test]
fn relational_queries_identical_across_thread_counts() {
    let db = fixture();
    for q in QUERIES {
        db.set_exec_options(ExecOptions::serial());
        let serial = db.query(q).unwrap_or_else(|e| panic!("{q}: {e}"));
        let mut by_threads = Vec::new();
        for threads in [2usize, 8] {
            db.set_exec_options(parallel_options(threads));
            let parallel = db.query(q).unwrap_or_else(|e| panic!("{q}: {e}"));
            assert_batches_match(&serial, &parallel, &format!("threads={threads} {q}"));
            by_threads.push(parallel);
        }
        // Fixed morsel boundaries: 2 and 8 threads must agree bit-for-bit,
        // including float partial-sum association.
        let (two, eight) = (&by_threads[0], &by_threads[1]);
        for r in 0..two.num_rows() {
            for c in 0..two.num_columns() {
                let a = two.column(c).get(r);
                let b = eight.column(c).get(r);
                let bit_equal = match (&a, &b) {
                    (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
                    _ => a.group_eq(&b),
                };
                assert!(bit_equal, "threads 2 vs 8 differ: {q}: row {r} col {c}: {a:?} vs {b:?}");
            }
        }
    }
}

#[test]
fn predict_pipeline_identical_across_thread_counts() {
    let db = fixture();
    db.set_inference_provider(Arc::new(TestScorer));
    let q = "SELECT o_id, PREDICT(score, amount, qty) \
             FROM orders WHERE PREDICT(score, amount, qty) >= 0.5 AND qty IS NOT NULL \
             ORDER BY o_id";
    db.set_exec_options(ExecOptions::serial());
    let serial = db.query(q).unwrap();
    assert!(serial.num_rows() > 0, "pipeline query selects some rows");
    for threads in [2usize, 8] {
        db.set_exec_options(parallel_options(threads));
        let parallel = db.query(q).unwrap();
        assert_batches_match(&serial, &parallel, &format!("predict threads={threads}"));
    }
}

#[test]
fn null_ordering_identical_across_thread_counts() {
    // Regression test for ORDER BY NULL placement: the documented default
    // is NULLS LAST ascending / NULLS FIRST descending, and the parallel
    // merge path must agree with the serial sort exactly.
    let db = fixture();
    for q in [
        "SELECT o_id, qty FROM orders ORDER BY qty, o_id",
        "SELECT o_id, qty FROM orders ORDER BY qty DESC, o_id",
    ] {
        db.set_exec_options(ExecOptions::serial());
        let serial = db.query(q).unwrap();
        let n = serial.num_rows();
        assert!(n > 0);
        let desc = q.contains("DESC");
        // NULL qty rows (~10% of the fixture) cluster at the documented end
        let nulls: Vec<usize> = (0..n)
            .filter(|&r| serial.column(1).get(r).is_null())
            .collect();
        assert!(!nulls.is_empty(), "fixture must contain NULL qty rows");
        if desc {
            assert_eq!(nulls, (0..nulls.len()).collect::<Vec<_>>(), "{q}: NULLs first");
        } else {
            assert_eq!(
                nulls,
                (n - nulls.len()..n).collect::<Vec<_>>(),
                "{q}: NULLs last"
            );
        }
        for threads in [2usize, 8] {
            db.set_exec_options(parallel_options(threads));
            let parallel = db.query(q).unwrap();
            assert_batches_match(&serial, &parallel, &format!("threads={threads} {q}"));
        }
    }
}

#[test]
fn degenerate_options_are_clamped_not_panicking() {
    let db = fixture();
    db.set_exec_options(ExecOptions {
        threads: 0,
        parallel_row_threshold: 0,
        morsel_rows: 0,
        ..ExecOptions::default()
    });
    let b = db
        .query("SELECT region, COUNT(*) FROM orders GROUP BY region ORDER BY region")
        .unwrap();
    assert_eq!(b.num_rows(), 4);
    let opts = db.exec_options();
    assert!(opts.threads >= 1 && opts.parallel_row_threshold >= 1 && opts.morsel_rows >= 1);
}

fn explain_analyze(db: &Database, q: &str) -> String {
    let b = db.query(&format!("EXPLAIN ANALYZE {q}")).unwrap();
    (0..b.num_rows())
        .map(|r| b.column(0).get(r).to_string())
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn top_k_is_the_prefix_of_the_stable_sort() {
    // `region` has four values over 2000 rows and a tenth of `qty` is NULL,
    // so every LIMIT boundary falls inside a long run of ties: the bounded
    // selection must break them exactly as the stable sort does (earliest
    // row first), at every degree.
    let db = fixture();
    for (order, limit, offset) in [
        ("region", 37, 0),
        ("region DESC", 500, 123),
        ("qty, region DESC", 64, 64),
        ("qty DESC", 1, 0),
        ("amount DESC, o_id", 10, 1995), // runs past the end
        ("region", 0, 3),
    ] {
        let full = format!("SELECT o_id, region, qty, amount FROM orders ORDER BY {order}");
        let top = format!("{full} LIMIT {limit} OFFSET {offset}");
        db.set_exec_options(ExecOptions::serial());
        let sorted = db.query(&full).unwrap();
        let start = offset.min(sorted.num_rows());
        let want = sorted.slice(start, limit);
        assert!(
            explain_analyze(&db, &top).contains(&format!("Sort [TopK(k={})", limit + offset)),
            "{top}"
        );
        assert_batches_match(&want, &db.query(&top).unwrap(), &format!("serial {top}"));
        for threads in [2usize, 8] {
            db.set_exec_options(parallel_options(threads));
            let got = db.query(&top).unwrap();
            assert_batches_match(&want, &got, &format!("threads={threads} {top}"));
        }
    }
}

/// [`TestScorer`] that counts the rows it is asked to score.
#[derive(Default)]
struct CountingScorer(std::sync::atomic::AtomicUsize);

impl InferenceProvider for CountingScorer {
    fn output_type(&self, model: &str) -> Result<DataType> {
        TestScorer.output_type(model)
    }
    fn input_arity(&self, model: &str) -> Result<usize> {
        TestScorer.input_arity(model)
    }
    fn predict(
        &self,
        model: &str,
        inputs: &[ColumnVector],
        strategy: PredictStrategy,
        user: &str,
    ) -> Result<ColumnVector> {
        self.0
            .fetch_add(inputs[0].len(), std::sync::atomic::Ordering::Relaxed);
        TestScorer.predict(model, inputs, strategy, user)
    }
}

#[test]
fn a_predict_shared_by_where_and_select_is_scored_once() {
    use flock_sql::optimizer::OptimizerConfig;
    let db = fixture();
    let scorer = Arc::new(CountingScorer::default());
    db.set_inference_provider(scorer.clone());
    let scored = |q: &str| {
        let before = scorer.0.load(std::sync::atomic::Ordering::Relaxed);
        let batch = db.query(q).unwrap_or_else(|e| panic!("{q}: {e}"));
        (batch, scorer.0.load(std::sync::atomic::Ordering::Relaxed) - before)
    };
    let not_null = match db
        .query("SELECT COUNT(*) FROM orders WHERE qty IS NOT NULL")
        .unwrap()
        .column(0)
        .get(0)
    {
        Value::Int(n) => n as usize,
        other => panic!("{other:?}"),
    };
    let p = "PREDICT(score, amount, qty)";
    // The cheap conjunct runs below the shared score, the threshold above.
    let q = format!(
        "SELECT o_id, {p} AS s, {p} + 1 AS t FROM orders \
         WHERE {p} >= 0.5 AND qty IS NOT NULL ORDER BY s DESC, o_id LIMIT 25"
    );
    for options in [ExecOptions::serial(), parallel_options(4)] {
        db.set_exec_options(options);
        db.set_optimizer_config(OptimizerConfig::disabled());
        let (plain, plain_rows) = scored(&q);
        assert!(plain_rows > N_ORDERS, "unshared: scored once per mention");
        db.set_optimizer_config(OptimizerConfig::default());
        let (shared, shared_rows) = scored(&q);
        assert_eq!(shared_rows, not_null, "one score per row that passes the cheap conjunct");
        assert_batches_match(&plain, &shared, &q);
        let plan = explain_analyze(&db, &q);
        assert!(plan.contains("scored once, 3 refs"), "{plan}");
    }
    // A score that is no select item has no typed home and is left alone.
    db.set_exec_options(ExecOptions::serial());
    let (_, rows) = scored(&format!("SELECT o_id FROM orders WHERE {p} >= 0.5 AND {p} < 0.9"));
    assert_eq!(rows, 2 * N_ORDERS);
}

#[test]
fn a_scan_of_disk_parts_fans_out_across_its_chunks() {
    // Offload cuts the 500-row order inserts into 100-row parts (half the
    // budget at 5 columns x 8 bytes); the customers stay resident.
    let db = Database::open_with_fs(MemFs::new(), DurabilityOptions::default()).unwrap();
    db.set_table_memory_budget(2 * 100 * 5 * 8);
    let db = fixture_in(db);
    let parts = db.catalog().table("orders").unwrap().current().parts.len();
    assert_eq!(parts, N_ORDERS / 100);
    let q = "SELECT region, COUNT(*), SUM(amount), MAX(qty) FROM orders GROUP BY region";
    db.set_exec_options(ExecOptions::serial());
    let serial = db.query(q).unwrap();
    db.set_exec_options(parallel_options(2));
    let counters = |db: &Database| -> std::collections::HashMap<&str, u64> {
        db.engine_metrics().rows().into_iter().collect()
    };
    let before = counters(&db);
    assert_batches_match(&serial, &db.query(q).unwrap(), "chunk-parallel GROUP BY");
    let after = counters(&db);
    assert!(after["parallel_ops"] > before["parallel_ops"]);
    assert!(after["morsels"] - before["morsels"] >= parts as u64);

    let tree = explain_analyze(&db, q);
    let scan = tree.lines().find(|l| l.contains("Scan [")).unwrap();
    assert!(scan.contains(&format!("chunks {parts}, degree 2")), "{tree}");
    assert!(scan.contains(&format!("morsels={parts}, degree=2")), "{tree}");
    // Inside a chunk's task nothing fans out again.
    let agg = tree.lines().find(|l| l.contains("HashAggregate")).unwrap();
    assert!(!agg.contains("morsels="), "{tree}");
    // Too few rows for the threshold: the chunks go by on one thread.
    db.set_exec_options(ExecOptions::with_threads(2, N_ORDERS + 1));
    assert!(!explain_analyze(&db, q).contains("chunks"));
}
