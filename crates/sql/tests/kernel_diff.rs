//! Seeded differential sweep over the typed column kernels: `slice` (views
//! of views), `take`, `filter`, `append`, the column-vs-scalar comparison
//! kernels, the three-valued AND/OR kernel and `eval_mask` must equal the
//! `Value`-at-a-time reference — a plain `Vec<Value>` indexed row by row
//! and [`eval_binary`] applied per row — on generated columns of every
//! type with NULLs, NaN/±Inf/-0.0, empty strings and offset windows.
//!
//! Deterministic via flock-rng; seed count defaults to 256 and is
//! overridable with `FLOCK_DIFF_SEEDS` (CI sweeps wider).

use flock_rng::{rngs::StdRng, Rng, SeedableRng};
use flock_sql::ast::{BinOp, Expr};
use flock_sql::exec::expr::eval_binary;
use flock_sql::exec::{EvalContext, PhysExpr};
use flock_sql::udf::NoInference;
use flock_sql::{ColumnVector, DataType, RecordBatch, Schema, Value};
use std::sync::Arc;

fn seeds() -> u64 {
    std::env::var("FLOCK_DIFF_SEEDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(256)
}

const TYPES: [DataType; 5] = [
    DataType::Int,
    DataType::Float,
    DataType::Text,
    DataType::Bool,
    DataType::Date,
];
const COMPARISONS: [BinOp; 6] = [
    BinOp::Eq,
    BinOp::NotEq,
    BinOp::Lt,
    BinOp::LtEq,
    BinOp::Gt,
    BinOp::GtEq,
];

/// One non-NULL value of `ty`, drawn from a small domain so that equal
/// values, boundary values and the awkward floats all occur often.
fn value_of(rng: &mut StdRng, ty: DataType) -> Value {
    match ty {
        DataType::Int => Value::Int(match rng.gen_range(0..8u32) {
            0 => i64::MIN,
            1 => i64::MAX,
            2 => (1 << 53) + 1, // not representable as f64
            _ => rng.gen_range(-3i64..4),
        }),
        DataType::Float => Value::Float(match rng.gen_range(0..10u32) {
            0 => f64::NAN,
            1 => -f64::NAN,
            2 => f64::INFINITY,
            3 => f64::NEG_INFINITY,
            4 => -0.0,
            5 => 0.0,
            _ => rng.gen_range(-3i64..4) as f64 * 0.5,
        }),
        DataType::Text => Value::Text(match rng.gen_range(0..5u32) {
            0 => String::new(),
            1 => "nyc".into(),
            2 => "NYC".into(),
            3 => "ny".into(),
            _ => format!("c{}", rng.gen_range(0..3u32)),
        }),
        DataType::Bool => Value::Bool(rng.gen_range(0..2u32) == 0),
        DataType::Date => Value::Date(rng.gen_range(-2i32..3)),
    }
}

/// `n` values of `ty`; `nulls` 0 = none, 1 = all, else about a quarter.
fn values_of(rng: &mut StdRng, ty: DataType, n: usize, nulls: u32) -> Vec<Value> {
    (0..n)
        .map(|_| match nulls {
            0 => value_of(rng, ty),
            1 => Value::Null,
            _ if rng.gen_range(0..4u32) == 0 => Value::Null,
            _ => value_of(rng, ty),
        })
        .collect()
}

/// Values rendered for comparison: `Value`'s own `==` has SQL semantics
/// (NULL and NaN equal nothing), and floats must match to the bit.
fn show(values: &[Value]) -> Vec<String> {
    values
        .iter()
        .map(|v| match v {
            Value::Float(f) => format!("Float({:#x})", f.to_bits()),
            other => format!("{other:?}"),
        })
        .collect()
}

fn rows_of(col: &ColumnVector) -> Vec<Value> {
    (0..col.len()).map(|i| col.get(i)).collect()
}

/// A column of `ty` and the reference rows it must read back as, seen
/// through a view of a view of a longer column (random offsets).
fn windowed(rng: &mut StdRng, ty: DataType) -> (ColumnVector, Vec<Value>) {
    let n = rng.gen_range(0..200usize);
    let nulls = rng.gen_range(0..4u32);
    let all = values_of(rng, ty, n, nulls);
    let whole = ColumnVector::from_values(ty, &all).unwrap();
    let a = rng.gen_range(0..=n);
    let l1 = rng.gen_range(0..=n - a);
    let b = rng.gen_range(0..=l1);
    let l2 = rng.gen_range(0..=l1 - b);
    // an over-long length clamps to the window, like `min()` on an index
    let clamp = rng.gen_range(0..4u32) == 0;
    let view = whole
        .slice(a, l1)
        .slice(b, if clamp { usize::MAX } else { l2 });
    let len = if clamp { l1 - b } else { l2 };
    assert_eq!(view.len(), len);
    (view, all[a + b..a + b + len].to_vec())
}

#[test]
fn views_gathers_and_appends_match_the_row_reference() {
    for seed in 0..seeds() {
        let mut rng = StdRng::seed_from_u64(seed);
        for ty in TYPES {
            let (view, rows) = windowed(&mut rng, ty);
            let ctx = format!("seed {seed} {ty:?}");
            assert_eq!(show(&rows_of(&view)), show(&rows), "{ctx}: view");
            assert_eq!(
                view.null_count(),
                rows.iter().filter(|v| v.is_null()).count()
            );
            assert_eq!(view.has_nulls(), rows.iter().any(Value::is_null), "{ctx}");

            // The borrowed fast paths exist exactly when no row is NULL.
            let dense = !view.has_nulls();
            assert_eq!(
                view.as_f64_slice().is_some(),
                dense && ty == DataType::Float
            );
            assert_eq!(view.as_i64_slice().is_some(), dense && ty == DataType::Int);
            assert_eq!(
                view.as_bool_slice().is_some(),
                dense && ty == DataType::Bool
            );
            if let Some(xs) = view.as_f64_slice() {
                let want: Vec<Value> = xs.iter().map(|x| Value::Float(*x)).collect();
                assert_eq!(show(&want), show(&rows), "{ctx}: f64 slice");
            }

            let n = rows.len();
            let indices: Vec<usize> = (0..rng.gen_range(0..2 * n + 1))
                .map(|_| rng.gen_range(0..n.max(1)))
                .filter(|_| n > 0)
                .collect();
            let want: Vec<Value> = indices.iter().map(|&i| rows[i].clone()).collect();
            assert_eq!(
                show(&rows_of(&view.take(&indices))),
                show(&want),
                "{ctx}: take"
            );

            let mask: Vec<bool> = match rng.gen_range(0..4u32) {
                0 => vec![true; n],
                1 => vec![false; n],
                _ => (0..n).map(|_| rng.gen_range(0..2u32) == 0).collect(),
            };
            let want: Vec<Value> = rows
                .iter()
                .zip(&mask)
                .filter(|(_, keep)| **keep)
                .map(|(v, _)| v.clone())
                .collect();
            assert_eq!(
                show(&rows_of(&view.filter(&mask))),
                show(&want),
                "{ctx}: filter"
            );

            // Mutating a view copies its window and leaves the parent alone.
            let (other, other_rows) = windowed(&mut rng, ty);
            let mut grown = view.clone();
            grown.append(&other).unwrap();
            grown.push(Value::Null).unwrap();
            let mut want = rows.clone();
            want.extend(other_rows);
            want.push(Value::Null);
            assert_eq!(show(&rows_of(&grown)), show(&want), "{ctx}: append");
            assert_eq!(
                show(&rows_of(&view)),
                show(&rows),
                "{ctx}: parent after append"
            );

            // Slicing the grown (owned, nullable) column again is still a view.
            let start = rng.gen_range(0..=grown.len());
            let len = rng.gen_range(0..=grown.len() - start);
            assert_eq!(
                show(&rows_of(&grown.slice(start, len))),
                show(&want[start..start + len]),
                "{ctx}: slice of appended"
            );
        }
    }
}

fn column(name: &str) -> Expr {
    Expr::Column {
        qualifier: None,
        name: name.into(),
    }
}

/// Evaluate `expr` over `batch` vectorized; rows on success.
fn eval(expr: &Expr, batch: &RecordBatch, params: Vec<Value>) -> Result<Vec<Value>, String> {
    let ctx = EvalContext::new(Arc::new(NoInference), "admin", 1).with_params(Arc::new(params));
    let phys = PhysExpr::compile(expr, batch.schema(), &NoInference).map_err(|e| e.to_string())?;
    let out = phys.eval(batch, &ctx).map_err(|e| e.to_string())?;
    assert_eq!(out.len(), batch.num_rows());
    // eval_mask must agree with "SQL-true" row by row
    let mask = phys.eval_mask(batch, &ctx).map_err(|e| e.to_string())?;
    let want: Vec<bool> = rows_of(&out)
        .iter()
        .map(|v| v.as_bool() == Some(true))
        .collect();
    assert_eq!(mask, want, "eval_mask of {expr}");
    Ok(rows_of(&out))
}

/// The reference: `eval_binary` row by row, first error wins.
fn reference(l: &[Value], op: BinOp, r: &[Value]) -> Result<Vec<Value>, String> {
    l.iter()
        .zip(r)
        .map(|(a, b)| eval_binary(a, op, b).map_err(|e| e.to_string()))
        .collect()
}

fn assert_same(got: Result<Vec<Value>, String>, want: Result<Vec<Value>, String>, ctx: &str) {
    match (got, want) {
        (Ok(g), Ok(w)) => assert_eq!(show(&g), show(&w), "{ctx}"),
        (Err(g), Err(w)) => assert_eq!(g, w, "{ctx}: error text"),
        (g, w) => panic!("{ctx}: kernel {g:?} but reference {w:?}"),
    }
}

#[test]
fn comparison_kernels_match_eval_binary() {
    for seed in 0..seeds() {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xC0DE);
        for ty in TYPES {
            let (view, rows) = windowed(&mut rng, ty);
            let schema = Arc::new(Schema::from_pairs(&[("c", ty)]));
            let batch = RecordBatch::new(schema, vec![view]).unwrap();
            // A scalar of the column's type, of another type (numeric
            // coercions and the "cannot compare" error), or NULL.
            let scalar = match rng.gen_range(0..6u32) {
                0 => Value::Null,
                1 | 2 => {
                    let other = TYPES[rng.gen_range(0..TYPES.len())];
                    value_of(&mut rng, other)
                }
                _ => value_of(&mut rng, ty),
            };
            let broadcast = vec![scalar.clone(); rows.len()];
            for op in COMPARISONS {
                let ctx = format!("seed {seed} {ty:?} c {op} {scalar:?}");
                let want = reference(&rows, op, &broadcast);
                let literal = Expr::binary(column("c"), op, Expr::Literal(scalar.clone()));
                assert_same(eval(&literal, &batch, vec![]), want.clone(), &ctx);
                let parameter = Expr::binary(column("c"), op, Expr::Parameter(0));
                assert_same(eval(&parameter, &batch, vec![scalar.clone()]), want, &ctx);
                // scalar on the left: the kernel flips the operator
                let flipped = Expr::binary(Expr::Literal(scalar.clone()), op, column("c"));
                let want = reference(&broadcast, op, &rows);
                assert_same(
                    eval(&flipped, &batch, vec![]),
                    want,
                    &format!("{ctx} (flipped)"),
                );
            }
        }
    }
}

#[test]
fn logic_kernel_matches_three_valued_eval_binary() {
    for seed in 0..seeds() {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xB001);
        let n = rng.gen_range(0..150usize);
        let (nulls_a, nulls_b) = (rng.gen_range(0..4u32), rng.gen_range(0..4u32));
        let a = values_of(&mut rng, DataType::Bool, n, nulls_a);
        let b = values_of(&mut rng, DataType::Bool, n, nulls_b);
        let schema = Arc::new(Schema::from_pairs(&[
            ("a", DataType::Bool),
            ("b", DataType::Bool),
        ]));
        let batch = RecordBatch::new(
            schema,
            vec![
                ColumnVector::from_values(DataType::Bool, &a).unwrap(),
                ColumnVector::from_values(DataType::Bool, &b).unwrap(),
            ],
        )
        .unwrap();
        for op in [BinOp::And, BinOp::Or] {
            let expr = Expr::binary(column("a"), op, column("b"));
            let ctx = format!("seed {seed} a {op} b");
            assert_same(eval(&expr, &batch, vec![]), reference(&a, op, &b), &ctx);
        }
    }
}
