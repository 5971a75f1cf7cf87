//! Joins: the hash join over typed key tables and the nested loop. Both
//! gather each side whole: the build side must be complete before a probe,
//! and a LEFT join null-extends its unmatched probe rows after all of its
//! matches.
//!
//! A hash join's keys go through typed tables ([`JoinTable`]) of the kind
//! GROUP BY numbers its keys through (`agg::group_ids`): the build side
//! numbers its keys, the probe side looks them up. Keys compare with SQL
//! `=`: ints, dates and bools exactly, floats by [`float_key`] (`-0.0` is
//! `0.0`), text by `&str` (a dictionary column once per code), and a NULL
//! or NaN key part never matches.

use super::agg::{float_key, insert_ids, NO_KEY};
use super::{parallel, EvalContext, OpMetrics, ParallelPolicy, PhysExpr};
use crate::ast::{Expr, JoinType};
use crate::batch::RecordBatch;
use crate::column::{per_code, ColumnVector, RawColumn};
use crate::error::Result;
use crate::exec::cancel::CancelToken;
use crate::schema::Schema;
use crate::types::{DataType, Value};
use crate::udf::InferenceProvider;
use std::collections::HashMap;
use std::hash::Hash;
use std::ops::Range;
use std::sync::Arc;

/// An equi-join key pair as the hash join compares it: an INT key against
/// a DOUBLE key is cast to DOUBLE, so both sides read typed float keys and
/// `1 = 1.0` holds, as under [`Value::sql_cmp`].
pub(super) fn join_key_pair(
    le: &Expr,
    re: &Expr,
    left: &Schema,
    right: &Schema,
    provider: &dyn InferenceProvider,
) -> Result<(Expr, Expr)> {
    let to_double = |e: &Expr| Expr::Cast {
        expr: Box::new(e.clone()),
        to: DataType::Float,
    };
    let types = (
        crate::plan::expr_type(le, left, provider)?,
        crate::plan::expr_type(re, right, provider)?,
    );
    Ok(match types {
        (Some(DataType::Int), Some(DataType::Float)) => (to_double(le), re.clone()),
        (Some(DataType::Float), Some(DataType::Int)) => (le.clone(), to_double(re)),
        _ => (le.clone(), re.clone()),
    })
}

/// Join `lb` (probe side) to `rb` (build side) on equal keys. The build
/// side's keys are numbered through typed tables ([`JoinTable`]);
/// the probe side looks its keys up a morsel at a time, in parallel when
/// the policy fans out. Pairs come out in probe-row order and, within a
/// probe row, in build-row order, whatever the degree.
#[allow(clippy::too_many_arguments)]
pub(super) fn execute_hash_join(
    lb: &RecordBatch,
    rb: &RecordBatch,
    left_keys: &[PhysExpr],
    right_keys: &[PhysExpr],
    join_type: JoinType,
    filter: &Option<PhysExpr>,
    schema: &Arc<Schema>,
    policy: &ParallelPolicy,
    ctx: &EvalContext,
    op: &OpMetrics,
) -> Result<RecordBatch> {
    let eval = |keys: &[PhysExpr], b: &RecordBatch| -> Result<Vec<ColumnVector>> {
        keys.iter().map(|e| e.eval(b, ctx)).collect()
    };
    let (lk, rk) = comparable_keys(eval(left_keys, lb)?, eval(right_keys, rb)?);
    let table = JoinTable::build(&rk, &ctx.cancel)?;
    let probe = |range: &Range<usize>| -> Result<Vec<(usize, usize)>> {
        ctx.cancel.check()?;
        let keys = table.probe(&lk, range.clone());
        Ok(range
            .clone()
            .zip(keys)
            .flat_map(|(li, k)| table.matches(k).iter().map(move |&ri| (li, ri)))
            .collect())
    };
    let ranges = parallel::morsel_ranges(lb.num_rows(), policy.morsel_rows);
    let pairs = if policy.fan_out(lb.num_rows().max(rb.num_rows())) {
        op.record_fan_out(ranges.len(), policy.degree);
        parallel::parallel_map(&ranges, policy.degree, probe)?
    } else {
        ranges.iter().map(probe).collect::<Result<_>>()?
    };
    finish_join(lb, rb, pairs.concat(), join_type, filter, schema, ctx)
}

/// Join every row of `lb` to every row of `rb`, then as any join.
pub(super) fn execute_nested_loop_join(
    lb: &RecordBatch,
    rb: &RecordBatch,
    join_type: JoinType,
    filter: &Option<PhysExpr>,
    schema: &Arc<Schema>,
    ctx: &EvalContext,
) -> Result<RecordBatch> {
    let mut pairs: Vec<(usize, usize)> = Vec::with_capacity(lb.num_rows() * rb.num_rows());
    for li in 0..lb.num_rows() {
        ctx.cancel.check_every(li)?;
        for ri in 0..rb.num_rows() {
            pairs.push((li, ri));
        }
    }
    finish_join(lb, rb, pairs, join_type, filter, schema, ctx)
}

/// Materialize candidate pairs, apply the residual filter, and null-extend
/// unmatched left rows for LEFT joins.
fn finish_join(
    lb: &RecordBatch,
    rb: &RecordBatch,
    pairs: Vec<(usize, usize)>,
    join_type: JoinType,
    filter: &Option<PhysExpr>,
    schema: &Arc<Schema>,
    ctx: &EvalContext,
) -> Result<RecordBatch> {
    let li: Vec<usize> = pairs.iter().map(|(l, _)| *l).collect();
    let ri: Vec<usize> = pairs.iter().map(|(_, r)| *r).collect();
    let left_part = lb.take(&li)?;
    let right_part = rb.take(&ri)?;
    let mut cols = left_part.columns().to_vec();
    cols.extend(right_part.columns().iter().cloned());
    let mut joined = RecordBatch::new(schema.clone(), cols)?;

    let mut matched_left: Vec<bool> = vec![false; lb.num_rows()];
    if let Some(f) = filter {
        let mask = f.eval_mask(&joined, ctx)?;
        for (i, &keep) in mask.iter().enumerate() {
            if keep {
                matched_left[li[i]] = true;
            }
        }
        joined = joined.filter(&mask)?;
    } else {
        for &l in &li {
            matched_left[l] = true;
        }
    }

    if join_type == JoinType::Left {
        let unmatched: Vec<usize> = (0..lb.num_rows()).filter(|&l| !matched_left[l]).collect();
        if !unmatched.is_empty() {
            let left_rows = lb.take(&unmatched)?;
            let mut cols = left_rows.columns().to_vec();
            for c in rb.columns() {
                cols.push(ColumnVector::repeat(
                    c.data_type(),
                    &Value::Null,
                    unmatched.len(),
                )?);
            }
            let null_ext = RecordBatch::new(schema.clone(), cols)?;
            joined = RecordBatch::concat(schema.clone(), &[joined, null_ext])?;
        }
    }
    Ok(joined)
}

// ------------------------------------------------------------- key tables

/// One key column's typed table: build keys numbered densely in order of
/// first appearance.
enum KeyTable<'a> {
    Bool(HashMap<bool, u32>),
    Int(HashMap<i64, u32>),
    Date(HashMap<i32, u32>),
    /// By [`float_key`]; NaN is no key.
    Float(HashMap<u64, u32>),
    /// By `&str`; a dictionary column looks each code its rows name up once.
    Text(HashMap<&'a str, u32>),
}

/// `$body` with `$t` the typed table of `$table` and `$key` the reader of
/// row `r`'s key of that type from `$raw` (`None` when NULL or NaN).
macro_rules! with_key {
    ($table:expr, $raw:expr, $valid:expr, |$t:ident, $key:ident| $body:expr) => {{
        let valid: Option<&[bool]> = $valid;
        let ok = move |r: usize| valid.is_none_or(|v| v[r]);
        match ($table, $raw) {
            (KeyTable::Bool($t), RawColumn::Bool(v)) => {
                let $key = move |r: usize| ok(r).then(|| v[r]);
                $body
            }
            (KeyTable::Int($t), RawColumn::Int(v)) => {
                let $key = move |r: usize| ok(r).then(|| v[r]);
                $body
            }
            (KeyTable::Date($t), RawColumn::Date(v)) => {
                let $key = move |r: usize| ok(r).then(|| v[r]);
                $body
            }
            (KeyTable::Float($t), RawColumn::Float(v)) => {
                let $key = move |r: usize| (ok(r) && !v[r].is_nan()).then(|| float_key(v[r]));
                $body
            }
            (KeyTable::Text($t), RawColumn::Text(v)) => {
                let $key = move |r: usize| ok(r).then(|| v[r].as_str());
                $body
            }
            _ => unreachable!("a key table's type is its columns' type"),
        }
    }};
}

/// A hash join's build side: its rows grouped by key. Each key column has
/// a typed table; several columns number their (key so far, column id)
/// pairs through one more table each, as `agg::group_ids` combines them.
/// Probing reads the tables only, so morsels probe in parallel, and each
/// key's build rows are listed in row order whatever probes them.
pub(crate) struct JoinTable<'a> {
    columns: Vec<KeyTable<'a>>,
    tuples: Vec<HashMap<u64, u32>>,
    /// Key `k`'s build rows, ascending: `rows[starts[k]..starts[k + 1]]`.
    starts: Vec<usize>,
    rows: Vec<usize>,
}

impl<'a> JoinTable<'a> {
    /// Number the build side's keys. `build[i]` must have the type of the
    /// probe side's key column `i` (see [`comparable_keys`]).
    pub(crate) fn build(build: &'a [ColumnVector], cancel: &CancelToken) -> Result<Self> {
        let n = build.first().map_or(0, ColumnVector::len);
        let mut columns = Vec::with_capacity(build.len());
        let mut tuples = Vec::new();
        let mut ids: Option<Vec<u32>> = None;
        for col in build {
            let mut table = match col.data_type() {
                DataType::Bool => KeyTable::Bool(HashMap::new()),
                DataType::Int => KeyTable::Int(HashMap::new()),
                DataType::Date => KeyTable::Date(HashMap::new()),
                DataType::Float => KeyTable::Float(HashMap::new()),
                DataType::Text => KeyTable::Text(HashMap::new()),
            };
            let next = build_ids(&mut table, col, cancel)?;
            columns.push(table);
            ids = Some(match ids {
                None => next,
                Some(prev) => {
                    let mut pairs = HashMap::new();
                    let key = |r| pair(prev[r], next[r]);
                    let ids = insert_ids(&mut pairs, 0..n, key, |_| {}, cancel)?;
                    tuples.push(pairs);
                    ids
                }
            });
        }
        let ids = ids.unwrap_or_default();
        let keys = ids
            .iter()
            .filter(|&&k| k != NO_KEY)
            .max()
            .map_or(0, |&k| k as usize + 1);
        let mut starts = vec![0usize; keys + 1];
        for &k in ids.iter().filter(|&&k| k != NO_KEY) {
            starts[k as usize + 1] += 1;
        }
        for k in 0..keys {
            starts[k + 1] += starts[k];
        }
        let mut fill = starts.clone();
        let mut rows = vec![0; starts[keys]];
        for (r, &k) in ids.iter().enumerate().filter(|(_, &k)| k != NO_KEY) {
            rows[fill[k as usize]] = r;
            fill[k as usize] += 1;
        }
        Ok(JoinTable {
            columns,
            tuples,
            starts,
            rows,
        })
    }

    /// The build key of each probe row in `range`, for [`Self::matches`].
    pub(crate) fn probe(&self, probe: &[ColumnVector], range: Range<usize>) -> Vec<u32> {
        let mut ids: Option<Vec<u32>> = None;
        for (i, (table, col)) in self.columns.iter().zip(probe).enumerate() {
            let next = probe_ids(table, col, range.clone());
            ids = Some(match ids {
                None => next,
                Some(prev) => lookup_ids(&self.tuples[i - 1], 0..next.len(), |r| {
                    pair(prev[r], next[r])
                }),
            });
        }
        ids.unwrap_or_default()
    }

    /// The build rows of key `k`, ascending; none for [`NO_KEY`] or for a
    /// key no build row holds (a dictionary value only NULL rows name).
    pub(crate) fn matches(&self, k: u32) -> &[usize] {
        match self.starts.get(k as usize..k as usize + 2) {
            Some(&[lo, hi]) => &self.rows[lo..hi],
            _ => &[],
        }
    }
}

/// Make each pair of join key columns one type, so that their keys
/// compare as SQL `=` does: a pair of different types compares through
/// the numeric view of [`Value::sql_cmp`] (an `f64`; text has none and
/// matches nothing). The planner has already cast INT/DOUBLE pairs.
pub(crate) fn comparable_keys(
    left: Vec<ColumnVector>,
    right: Vec<ColumnVector>,
) -> (Vec<ColumnVector>, Vec<ColumnVector>) {
    let numeric = |c: &ColumnVector| {
        ColumnVector::from_f64((0..c.len()).map(|r| c.get_f64(r).unwrap_or(f64::NAN)))
    };
    left.into_iter()
        .zip(right)
        .map(|(l, r)| match l.data_type() == r.data_type() {
            true => (l, r),
            false => (numeric(&l), numeric(&r)),
        })
        .unzip()
}

/// The pair of a key so far and one more column's id; `None` if either
/// matches nothing.
fn pair(prev: u32, next: u32) -> Option<u64> {
    (prev != NO_KEY && next != NO_KEY).then_some((prev as u64) << 32 | next as u64)
}

/// Number one build key column into `table`. A dictionary column
/// numbers each code it names once.
fn build_ids<'a>(
    table: &mut KeyTable<'a>,
    col: &'a ColumnVector,
    cancel: &CancelToken,
) -> Result<Vec<u32>> {
    let valid = col.validity();
    if let (KeyTable::Text(t), RawColumn::Dict { codes, values }) = (&mut *table, col.raw()) {
        cancel.check()?;
        return Ok(per_code(codes, valid, values.len(), |code, _| {
            code.map_or(NO_KEY, |c| {
                let next = t.len() as u32;
                *t.entry(values[c as usize].as_str()).or_insert(next)
            })
        }));
    }
    with_key!(table, col.raw(), valid, |t, key| insert_ids(
        t,
        0..col.len(),
        key,
        |_| {},
        cancel
    ))
}

/// Look up the keys of probe rows `range` of one key column in `table`. A
/// dictionary column looks each code the range names up once.
fn probe_ids(table: &KeyTable, col: &ColumnVector, range: Range<usize>) -> Vec<u32> {
    let valid = col.validity();
    if let (KeyTable::Text(t), RawColumn::Dict { codes, values }) = (table, col.raw()) {
        let valid = valid.map(|v| &v[range.clone()]);
        return per_code(&codes[range], valid, values.len(), |code, _| {
            code.and_then(|c| t.get(values[c as usize].as_str()).copied())
                .unwrap_or(NO_KEY)
        });
    }
    with_key!(table, col.raw(), valid, |t, key| lookup_ids(t, range, key))
}

/// The ids in `table` of the keys of `rows` ([`NO_KEY`]: none).
fn lookup_ids<K: Hash + Eq>(
    table: &HashMap<K, u32>,
    rows: Range<usize>,
    key: impl Fn(usize) -> Option<K>,
) -> Vec<u32> {
    rows.map(|r| {
        key(r)
            .and_then(|k| table.get(&k).copied())
            .unwrap_or(NO_KEY)
    })
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn join_keys_match_as_sql_equality() {
        let cancel = CancelToken::default();
        let matches = |build: &ColumnVector, probe: &ColumnVector| {
            let (probe, build) = comparable_keys(vec![probe.clone()], vec![build.clone()]);
            let table = JoinTable::build(&build, &cancel).unwrap();
            let keys = table.probe(&probe, 0..probe[0].len());
            keys.iter()
                .map(|&k| table.matches(k).to_vec())
                .collect::<Vec<_>>()
        };
        let floats = |xs: &[f64]| ColumnVector::from_f64(xs.iter().copied());
        assert_eq!(
            matches(
                &floats(&[f64::NAN, 1.0, 0.0, 1.0]),
                &floats(&[f64::NAN, -0.0, 1.0])
            ),
            [vec![], vec![2], vec![1, 3]],
            "NaN matches nothing; -0.0 is 0.0; build rows in row order"
        );
        // "b" is in the build dictionary but no valid build row holds it.
        let dict = ColumnVector::from_dictionary(
            vec![0, 1, 0],
            Arc::new(vec!["a".into(), "b".into()]),
            Some(vec![true, false, true]),
        )
        .unwrap();
        let text = ColumnVector::from_values(
            crate::types::DataType::Text,
            &[
                Value::Text("b".into()),
                Value::Text("a".into()),
                Value::Null,
            ],
        )
        .unwrap();
        assert_eq!(matches(&dict, &text), [vec![], vec![0, 2], vec![]]);
        assert_eq!(matches(&text, &dict), [vec![1], vec![], vec![1]]);
        // Text against a number matches nothing; INT against DOUBLE as f64.
        let ints = ColumnVector::from_i64([1, (1 << 53) + 1]);
        assert_eq!(
            matches(&floats(&[(1u64 << 53) as f64, 1.0]), &ints),
            [vec![1], vec![0]]
        );
        let words =
            ColumnVector::from_values(crate::types::DataType::Text, &[Value::Text("1".into())])
                .unwrap();
        assert_eq!(matches(&words, &ints), [vec![], vec![]]);
    }
}
