//! Seeded property sweep: a dictionary-coded text column is one
//! representation of text, not a second type. Every `ColumnVector`
//! operation on a dictionary column must give the same `Value`s as on its
//! materialised `Text` twin — `get`, windowed `slice`, `take`, `filter`,
//! `RecordBatch::concat` across different dictionaries (and against plain
//! text), the column-vs-literal comparison kernel, sort (full and top-k),
//! and GROUP BY (group ids in first-appearance order, NULL its own group,
//! MIN/MAX folded from codes) — and the gathers and concatenations stay
//! dictionary-coded.
//!
//! Dictionaries are drawn with repeats, so equal strings sit under
//! different codes, and NULL rows' codes point anywhere in the dictionary.
//!
//! Deterministic via flock-rng; seed count defaults to 256 and is
//! overridable with `FLOCK_DIFF_SEEDS`.

use flock_rng::{rngs::StdRng, test_seeds, Rng, SeedableRng};
use flock_sql::ast::{BinOp, Expr};
use flock_sql::exec::ExecOptions;
use flock_sql::exec::{EvalContext, ParallelPolicy, PhysExpr, PhysicalPlan};
use flock_sql::plan::{AggCall, AggFunc};
use flock_sql::table::TableScan;
use flock_sql::udf::NoInference;
use flock_sql::{ColumnVector, DataType, Database, RecordBatch, Schema, Value};
use std::sync::Arc;

const POOL: [&str; 7] = ["", "a", "b", "ab", "B", "a longer string", "é"];
const COMPARISONS: [BinOp; 6] = [
    BinOp::Eq,
    BinOp::NotEq,
    BinOp::Lt,
    BinOp::LtEq,
    BinOp::Gt,
    BinOp::GtEq,
];

/// A dictionary column of `n` rows over 1–6 strings drawn from `POOL`
/// with repeats; no NULLs, about a quarter NULL, or all NULL.
fn dict_column(rng: &mut StdRng, n: usize) -> ColumnVector {
    let values: Vec<String> = (0..rng.gen_range(1..=6usize))
        .map(|_| POOL[rng.gen_range(0..POOL.len())].to_string())
        .collect();
    let codes = (0..n)
        .map(|_| rng.gen_range(0..values.len() as u32))
        .collect();
    let validity = match rng.gen_range(0..3u32) {
        0 => None,
        1 => Some((0..n).map(|_| rng.gen_range(0..4u32) > 0).collect()),
        _ => Some(vec![false; n]),
    };
    ColumnVector::from_dictionary(codes, Arc::new(values), validity).unwrap()
}

fn cells(col: &ColumnVector) -> Vec<String> {
    (0..col.len())
        .map(|i| format!("{:?}", col.get(i)))
        .collect()
}

fn rows(batch: &RecordBatch) -> Vec<String> {
    (0..batch.num_rows())
        .map(|i| format!("{:?}", batch.row(i)))
        .collect()
}

/// `(id INT, s VARCHAR)` with `s` the given column.
fn batch_of(s: ColumnVector) -> RecordBatch {
    let schema = Arc::new(Schema::from_pairs(&[
        ("id", DataType::Int),
        ("s", DataType::Text),
    ]));
    let ids = ColumnVector::from_i64(0..s.len() as i64);
    RecordBatch::new(schema, vec![ids, s]).unwrap()
}

fn column(name: &str) -> Expr {
    Expr::Column {
        qualifier: None,
        name: name.into(),
    }
}

fn scan(batch: &RecordBatch) -> Box<PhysicalPlan> {
    Box::new(PhysicalPlan::Scan {
        source: TableScan::new(&[], batch, None),
        predicate: None,
        policy: ParallelPolicy::serial(),
    })
}

fn ctx() -> EvalContext {
    EvalContext::new(Arc::new(NoInference), "admin", 2)
}

/// `s <op> 'lit'` and `'lit' <op> s` over the batch.
fn compares(batch: &RecordBatch, lit: &str) -> Vec<Vec<String>> {
    let mut out = Vec::new();
    for op in COMPARISONS {
        for flipped in [false, true] {
            let (col, lit) = (column("s"), Expr::Literal(Value::Text(lit.into())));
            let (left, right) = if flipped { (lit, col) } else { (col, lit) };
            let e = Expr::Binary {
                left: Box::new(left),
                op,
                right: Box::new(right),
            };
            let p = PhysExpr::compile(&e, batch.schema(), &NoInference).unwrap();
            out.push(cells(&p.eval(batch, &ctx()).unwrap()));
        }
    }
    out
}

/// ORDER BY s (ascending or not), id — whole, and its first `k` rows.
fn sorted(batch: &RecordBatch, asc: bool, fetch: Option<usize>) -> Vec<String> {
    let schema = batch.schema();
    let key = |name: &str| PhysExpr::compile(&column(name), schema, &NoInference).unwrap();
    let plan = PhysicalPlan::Sort {
        input: scan(batch),
        keys: vec![(key("s"), asc), (key("id"), true)],
        policy: ParallelPolicy::serial(),
        fetch,
    };
    rows(&plan.execute(&ctx()).unwrap())
}

/// SELECT s, COUNT(*), MIN(id), MIN(s), MAX(s) GROUP BY s, fanned out
/// over morsels of `morsel_rows`.
fn grouped(batch: &RecordBatch, morsel_rows: usize) -> Vec<String> {
    let schema = batch.schema();
    let compile = |e: &Expr| PhysExpr::compile(e, schema, &NoInference).unwrap();
    let call = |func, arg: Option<&str>| AggCall {
        func,
        arg: arg.map(column),
        distinct: false,
    };
    let calls = [
        call(AggFunc::Count, None),
        call(AggFunc::Min, Some("id")),
        call(AggFunc::Min, Some("s")),
        call(AggFunc::Max, Some("s")),
    ];
    let out = Arc::new(Schema::from_pairs(&[
        ("s", DataType::Text),
        ("n", DataType::Int),
        ("first", DataType::Int),
        ("lo", DataType::Text),
        ("hi", DataType::Text),
    ]));
    let policy = ParallelPolicy {
        degree: 2,
        row_threshold: 1,
        morsel_rows,
    };
    let plan = PhysicalPlan::HashAggregate {
        input: scan(batch),
        group: vec![compile(&column("s"))],
        aggs: calls
            .iter()
            .map(|c| (c.clone(), c.arg.as_ref().map(compile)))
            .collect(),
        schema: out,
        policy,
    };
    rows(&plan.execute(&ctx()).unwrap())
}

#[test]
fn dictionary_columns_behave_as_their_materialised_text() {
    for seed in test_seeds(256) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xD1C7);
        let n = rng.gen_range(0..120usize);
        let d = dict_column(&mut rng, n);
        let t = d.materialize();
        let at = format!("seed {seed}");
        assert!(d.is_dictionary() && !t.is_dictionary(), "{at}");
        assert_eq!(cells(&d), cells(&t), "{at}: get");
        for i in 0..n {
            assert_eq!(d.str_at(i), t.str_at(i), "{at}: str_at({i})");
        }

        // Windows, and windows of windows.
        let (start, len) = (rng.gen_range(0..=n), rng.gen_range(0..=n));
        let (ds, ts) = (d.slice(start, len), t.slice(start, len));
        assert_eq!(cells(&ds), cells(&ts), "{at}: slice({start}, {len})");
        let (s2, l2) = (rng.gen_range(0..=ds.len()), rng.gen_range(0..=ds.len()));
        assert_eq!(
            cells(&ds.slice(s2, l2)),
            cells(&ts.slice(s2, l2)),
            "{at}: slice of a slice"
        );

        // Gathers and filters keep the codes.
        let indices: Vec<usize> = match n {
            0 => Vec::new(),
            _ => (0..rng.gen_range(0..2 * n))
                .map(|_| rng.gen_range(0..n))
                .collect(),
        };
        let taken = d.take(&indices);
        assert!(taken.is_dictionary(), "{at}: take keeps the dictionary");
        assert_eq!(cells(&taken), cells(&t.take(&indices)), "{at}: take");
        let want: Vec<String> = indices.iter().map(|&i| format!("{:?}", t.get(i))).collect();
        assert_eq!(cells(&t.take(&indices)), want, "{at}: take of plain text");
        let mask: Vec<bool> = (0..n).map(|_| rng.gen_range(0..2u32) == 0).collect();
        let kept = d.filter(&mask);
        assert!(kept.is_dictionary(), "{at}: filter keeps the dictionary");
        assert_eq!(cells(&kept), cells(&t.filter(&mask)), "{at}: filter");

        // Concatenation across different dictionaries merges them; against
        // plain text it materialises.
        let m = rng.gen_range(0..60usize);
        let e = dict_column(&mut rng, m);
        let pieces = [
            batch_of(ds.clone()),
            batch_of(e.clone()),
            batch_of(kept.clone()),
        ];
        let plain = pieces.clone().map(|b| batch_of(b.column(1).materialize()));
        let schema = pieces[0].schema().clone();
        let merged = RecordBatch::concat(schema.clone(), &pieces).unwrap();
        assert!(
            merged.column(1).is_dictionary(),
            "{at}: concat keeps a dictionary"
        );
        let want = RecordBatch::concat(schema.clone(), &plain).unwrap();
        assert_eq!(rows(&merged), rows(&want), "{at}: concat");
        let mixed = [pieces[0].clone(), plain[1].clone(), pieces[2].clone()];
        assert_eq!(
            rows(&RecordBatch::concat(schema.clone(), &mixed).unwrap()),
            rows(&want),
            "{at}: concat with plain text"
        );
        let mut pushed = ds.clone();
        pushed.push(Value::Text("pushed".into())).unwrap();
        pushed.push_null();
        let mut want = ts.clone();
        want.push(Value::Text("pushed".into())).unwrap();
        want.push_null();
        assert_eq!(cells(&pushed), cells(&want), "{at}: push");

        // The operators, over the concatenation (several dictionaries'
        // worth of codes) and over the plain column.
        let (db, tb) = (merged.clone(), want_batch(&merged));
        let lit = POOL[rng.gen_range(0..POOL.len())];
        assert_eq!(
            compares(&db, lit),
            compares(&tb, lit),
            "{at}: s <op> '{lit}'"
        );
        assert_eq!(
            compares(&db, "zz"),
            compares(&tb, "zz"),
            "{at}: absent literal"
        );
        for asc in [true, false] {
            let k = rng.gen_range(0..=db.num_rows());
            assert_eq!(sorted(&db, asc, None), sorted(&tb, asc, None), "{at}: sort");
            assert_eq!(
                sorted(&db, asc, Some(k)),
                sorted(&tb, asc, Some(k)),
                "{at}: top-{k}"
            );
        }
        let morsel_rows = rng.gen_range(1..40usize);
        assert_eq!(
            grouped(&db, morsel_rows),
            grouped(&tb, morsel_rows),
            "{at}: GROUP BY, morsels of {morsel_rows}"
        );
    }
}

/// `batch` with its text column materialised.
fn want_batch(batch: &RecordBatch) -> RecordBatch {
    let columns = vec![batch.column(0).clone(), batch.column(1).materialize()];
    RecordBatch::new(batch.schema().clone(), columns).unwrap()
}

/// A gather at least as long as a plain text buffer refers to the buffer
/// by code; a shorter one clones its strings. Both read the same.
#[test]
fn long_gathers_of_plain_text_become_dictionary_columns() {
    let t = ColumnVector::from_values(
        DataType::Text,
        &[
            Value::Text("x".into()),
            Value::Null,
            Value::Text("y".into()),
        ],
    )
    .unwrap();
    let long = t.take(&[2, 0, 1, 2]);
    assert!(long.is_dictionary());
    assert_eq!(
        cells(&long),
        ["Text(\"y\")", "Text(\"x\")", "Null", "Text(\"y\")"]
    );
    let short = t.slice(1, 2).take(&[1]);
    assert!(!short.is_dictionary());
    assert_eq!(cells(&short), ["Text(\"y\")"]);
}

#[test]
fn a_code_outside_the_dictionary_is_refused() {
    let values = Arc::new(vec!["a".to_string()]);
    assert!(ColumnVector::from_dictionary(vec![0, 1], values.clone(), None).is_err());
    assert!(ColumnVector::from_dictionary(vec![0, 0], values, Some(vec![true, false])).is_ok());
}

/// A join's output is a gather as long as its build buffer, so its text
/// column is a dictionary as large as the build table. Every kernel above
/// it — GROUP BY, a `col = 'lit'` filter, a second join probing on it —
/// runs per morsel, and must cost what the morsel's rows cost, not what
/// the dictionary does. Results are checked exactly; the cost is checked
/// by scaling: eight times the rows may take well under 24 times as long
/// (a kernel sized by the dictionary makes it about 64 times at morsels
/// of 16 rows).
#[test]
fn kernels_over_a_dictionary_as_large_as_the_table_scale_with_the_rows() {
    let run = |n: usize| {
        let db = Database::new();
        db.set_exec_options(ExecOptions {
            threads: 2,
            parallel_row_threshold: 1,
            morsel_rows: 16,
            ..ExecOptions::default()
        });
        let mut s = db.session("admin");
        s.execute("CREATE TABLE o (k INT, name TEXT)").unwrap();
        s.execute("CREATE TABLE l (k INT)").unwrap();
        s.execute("CREATE TABLE m (name TEXT)").unwrap();
        let names: Vec<Value> = (0..n).map(|i| Value::Text(format!("n{i}"))).collect();
        let keys = || ColumnVector::from_i64(0..n as i64);
        let o_schema = Schema::from_pairs(&[("k", DataType::Int), ("name", DataType::Text)]);
        let o_names = ColumnVector::from_values(DataType::Text, &names).unwrap();
        let o = RecordBatch::new(Arc::new(o_schema), vec![keys(), o_names]).unwrap();
        s.append_batch("o", o).unwrap();
        let l = RecordBatch::new(
            Arc::new(Schema::from_pairs(&[("k", DataType::Int)])),
            vec![keys()],
        );
        s.append_batch("l", l.unwrap()).unwrap();
        s.execute("INSERT INTO m VALUES ('n3'), ('n5'), ('absent')")
            .unwrap();
        let join = "FROM l JOIN o ON l.k = o.k";
        let queries = [
            format!("SELECT o.name, COUNT(*) AS c {join} GROUP BY o.name"),
            format!("SELECT COUNT(*) {join} WHERE o.name = 'n7' OR l.k = -1"),
            format!("SELECT COUNT(*) {join} JOIN m ON o.name = m.name"),
        ];
        let mut best = std::time::Duration::MAX;
        for _ in 0..3 {
            let start = std::time::Instant::now();
            let got: Vec<RecordBatch> = queries.iter().map(|q| s.query(q).unwrap()).collect();
            best = best.min(start.elapsed());
            assert_eq!(got[0].num_rows(), n, "one group per name");
            assert!((0..n).all(|r| format!("{:?}", got[0].column(1).get(r)) == "Int(1)"));
            assert_eq!(format!("{:?}", got[1].column(0).get(0)), "Int(1)");
            assert_eq!(format!("{:?}", got[2].column(0).get(0)), "Int(2)");
        }
        best
    };
    let (small, large) = (run(4_000), run(32_000));
    assert!(
        large < small * 24,
        "8x the rows took {:.1}x as long ({small:?} -> {large:?})",
        large.as_secs_f64() / small.as_secs_f64()
    );
}

/// Concatenating many parts whose dictionaries differ (each part's strings
/// are new) reads the same as the materialised parts, stays
/// dictionary-coded, and costs what the rows cost: eight times the parts
/// may take well under 24 times as long (rebuilding an index over the
/// whole merged dictionary per part makes it about 64 times).
#[test]
fn concatenating_parts_with_growing_dictionaries_scales_with_the_rows() {
    let schema = Arc::new(Schema::from_pairs(&[("s", DataType::Text)]));
    let run = |parts: usize| {
        let batches: Vec<RecordBatch> = (0..parts)
            .map(|p| {
                let values = Arc::new((0..64).map(|i| format!("p{p}v{i}")).collect());
                let codes = (0..64).rev().collect();
                let col = ColumnVector::from_dictionary(codes, values, None).unwrap();
                RecordBatch::new(schema.clone(), vec![col]).unwrap()
            })
            .collect();
        let start = std::time::Instant::now();
        let whole = RecordBatch::concat(schema.clone(), &batches).unwrap();
        let took = start.elapsed();
        assert!(whole.column(0).is_dictionary());
        let want: Vec<String> = (batches.iter())
            .flat_map(|b| cells(&b.column(0).materialize()))
            .collect();
        assert_eq!(cells(whole.column(0)), want);
        took
    };
    let best = |parts| (0..3).map(|_| run(parts)).min().unwrap();
    let (small, large) = (best(250), best(2_000));
    assert!(
        large < small * 24,
        "8x the parts took {:.1}x as long ({small:?} -> {large:?})",
        large.as_secs_f64() / small.as_secs_f64()
    );
}
