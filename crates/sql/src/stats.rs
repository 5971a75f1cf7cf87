//! Column and table statistics.
//!
//! A table version's [`TableStats`] hold only what merges: the row count
//! and, per column, the null count, the numeric min/max and whether the
//! rows are sorted on it. The cross-optimizer's *model compression* rule
//! reads the min/max (it prunes decision-tree branches no input can
//! reach); a scan reads a range on a sorted column as a row slice
//! ([`ColumnStats::sorted`]). Because they merge, an
//! append builds its version's stats from the previous version's and the
//! delta's ([`TableStats::merge`]) in O(delta); a write that rewrites rows
//! (UPDATE, DELETE, offload, merge, recovery) computes them afresh from
//! the part zone maps and the resident chunks
//! ([`TableStats::compute_with_parts`]).
//!
//! What does not merge — distinct counts — is a [`ColumnProfile`],
//! computed only when `DESCRIBE` asks ([`profile`]).

use crate::batch::RecordBatch;
use crate::column::{ColumnVector, RawColumn};
use crate::parts::Part;
use crate::table::Tail;
use std::collections::HashSet;

/// Mergeable statistics for a single column.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ColumnStats {
    pub null_count: usize,
    /// Minimum numeric value, when the column is numeric and non-empty.
    pub min: Option<f64>,
    /// Maximum numeric value, when the column is numeric and non-empty.
    pub max: Option<f64>,
    /// The rows, in scan order, are non-decreasing on this column, with no
    /// NULL and no NaN (`-0.0` and `0.0` tie). Only numeric, date and bool
    /// columns carry it; it holds over no rows, and never over disk parts,
    /// whose zone maps do not record it.
    pub sorted: bool,
    /// A sorted column's first and last values in its own type, so a merge
    /// compares the rows that meet exactly: two INTs past 2^53 can round
    /// to one `f64`. `None` over no rows, or when not sorted.
    ends: Option<(Exact, Exact)>,
}

/// A value compared in its column's type: INT, DATE and BOOL as `i64`.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Exact {
    Int(i64),
    Float(f64),
}

impl Exact {
    fn le(self, other: Exact) -> bool {
        match (self, other) {
            (Exact::Int(a), Exact::Int(b)) => a <= b,
            (Exact::Float(a), Exact::Float(b)) => a <= b,
            _ => false,
        }
    }
}

/// Whether `v` is non-decreasing, and its first and last values as
/// [`Exact`]s when it is and is not empty.
fn order<T: Copy + PartialOrd>(
    v: &[T],
    exact: impl Fn(T) -> Exact,
) -> (bool, Option<(Exact, Exact)>) {
    let sorted = v.windows(2).all(|w| w[0] <= w[1]);
    let ends = v.first().zip(v.last()).filter(|_| sorted);
    (sorted, ends.map(|(&a, &b)| (exact(a), exact(b))))
}

impl ColumnStats {
    /// Widen the range to cover `x`. `f64::min`/`max` skip a NaN, so NaN
    /// is the bound only of a column holding nothing else.
    fn fold(&mut self, x: f64) {
        self.fold_range(Some(x), Some(x));
    }

    fn fold_range(&mut self, lo: Option<f64>, hi: Option<f64>) {
        if let Some(lo) = lo {
            self.min = Some(self.min.map_or(lo, |m| m.min(lo)));
        }
        if let Some(hi) = hi {
            self.max = Some(self.max.map_or(hi, |m| m.max(hi)));
        }
    }

    /// Exact statistics of one column, read from its typed buffer under
    /// the numeric view (`get_f64`); every non-NULL row is folded in order.
    fn of(c: &ColumnVector) -> ColumnStats {
        let mut stats = ColumnStats {
            null_count: c.null_count(),
            ..ColumnStats::default()
        };
        let validity = c.validity();
        let valid = |i: &usize| validity.is_none_or(|v| v[*i]);
        let rows = (0..c.len()).filter(valid);
        let (sorted, ends) = match c.raw() {
            RawColumn::Bool(v) => {
                rows.for_each(|i| stats.fold(v[i] as i64 as f64));
                order(v, |x| Exact::Int(x as i64))
            }
            RawColumn::Int(v) => {
                rows.for_each(|i| stats.fold(v[i] as f64));
                order(v, Exact::Int)
            }
            RawColumn::Float(v) => {
                rows.for_each(|i| stats.fold(v[i]));
                // `<=` is false beside a NaN; a lone NaN is caught apart
                let (sorted, ends) = order(v, Exact::Float);
                (sorted && !v.first().is_some_and(|x| x.is_nan()), ends)
            }
            RawColumn::Date(v) => {
                rows.for_each(|i| stats.fold(v[i] as f64));
                order(v, |x| Exact::Int(x as i64))
            }
            RawColumn::Text(_) | RawColumn::Dict { .. } => (false, None),
        };
        stats.sorted = sorted && stats.null_count == 0;
        stats.ends = ends.filter(|_| stats.sorted);
        stats
    }

    /// Fold in the order of `next`, whose rows follow these: sorted when
    /// both are and the rows where they meet are in order.
    fn follow(&mut self, next: &ColumnStats) {
        let meet = match (self.ends, next.ends) {
            (Some((_, last)), Some((first, _))) => last.le(first),
            _ => true,
        };
        self.sorted = self.sorted && next.sorted && meet;
        self.ends = match (self.ends, next.ends) {
            _ if !self.sorted => None,
            (Some((first, _)), Some((_, last))) => Some((first, last)),
            (ends, None) | (None, ends) => ends,
        };
    }
}

/// Mergeable statistics for a table version.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TableStats {
    pub row_count: usize,
    pub columns: Vec<ColumnStats>,
}

impl TableStats {
    /// Exact statistics over a batch.
    pub fn compute(batch: &RecordBatch) -> TableStats {
        TableStats {
            row_count: batch.num_rows(),
            columns: batch.columns().iter().map(ColumnStats::of).collect(),
        }
    }

    /// The statistics of these rows followed by `other`'s: counts add,
    /// ranges widen, and a column stays sorted when both sides are and
    /// this side's last value is at most `other`'s first, compared in the
    /// column's type. Column by column, so both sides must share a schema.
    pub fn merge(&self, other: &TableStats) -> TableStats {
        let mut out = self.clone();
        out.row_count += other.row_count;
        for (c, o) in out.columns.iter_mut().zip(&other.columns) {
            c.null_count += o.null_count;
            c.fold_range(o.min, o.max);
            c.follow(o);
        }
        out
    }

    /// Statistics of a snapshot: exact over the resident `tail` chunks,
    /// merged with the disk `parts`' zone maps — a pure function of both,
    /// so building them never reads part data. A part whose zone carries
    /// no bound (text, or a column holding a NaN) adds only its nulls; any
    /// part leaves every column not known sorted.
    pub fn compute_with_parts(parts: &[Part], tail: &Tail) -> TableStats {
        let empty = TableStats::compute(&RecordBatch::empty(tail.schema().clone()));
        let resident = (tail.chunks().iter()).fold(empty, |s, c| s.merge(&TableStats::compute(c)));
        resident.with_parts(parts)
    }

    fn with_parts(mut self, parts: &[Part]) -> TableStats {
        for p in parts {
            self.row_count += p.rows as usize;
            for (c, zone) in self.columns.iter_mut().zip(&p.zones) {
                c.null_count += zone.null_count as usize;
                c.fold_range(zone.min, zone.max);
                (c.sorted, c.ends) = (false, None);
            }
        }
        self
    }
}

/// A column's full profile, as `DESCRIBE` shows it (§4.2 data discovery):
/// the version statistics plus what does not merge.
#[derive(Debug, Clone, Default)]
pub struct ColumnProfile {
    pub null_count: usize,
    pub min: Option<f64>,
    pub max: Option<f64>,
    /// Distinct non-NULL values: exact over the resident rows; each part
    /// adds its non-NULL row count, an upper bound.
    pub distinct_count: usize,
}

/// Profile every column of a snapshot — disk `parts`, then the resident
/// `tail` chunks — computed on demand. Over the tail it is exact: distinct
/// values by typed identity (float bit patterns, so `-0.0` and each NaN
/// payload count apart). A part contributes its zone map: nulls, bounds,
/// and its non-NULL rows as distinct values.
pub fn profile(parts: &[Part], tail: &Tail) -> Vec<ColumnProfile> {
    (0..tail.num_columns())
        .map(|i| {
            let chunks: Vec<&ColumnVector> = tail.chunks().iter().map(|c| c.column(i)).collect();
            let mut p = column_profile(&chunks);
            let mut range = ColumnStats {
                min: p.min,
                max: p.max,
                ..ColumnStats::default()
            };
            for part in parts {
                let Some(zone) = part.zones.get(i) else {
                    continue;
                };
                p.null_count += zone.null_count as usize;
                range.fold_range(zone.min, zone.max);
                p.distinct_count += (part.rows - zone.null_count) as usize;
            }
            (p.min, p.max) = (range.min, range.max);
            p
        })
        .collect()
}

/// Exact profile of one column held as `chunks`, read in order as one
/// column: min/max under the numeric view, distinct values by typed
/// identity.
fn column_profile(chunks: &[&ColumnVector]) -> ColumnProfile {
    let mut range = ColumnStats::default();
    let mut numeric: HashSet<u64> = HashSet::new();
    let mut texts: HashSet<&str> = HashSet::new();
    for c in chunks {
        range.null_count += c.null_count();
        let validity = c.validity();
        let valid = |i: &usize| validity.is_none_or(|v| v[*i]);
        let rows = (0..c.len()).filter(valid);
        let mut num = |x: f64, key: u64| {
            range.fold(x);
            numeric.insert(key);
        };
        match c.raw() {
            RawColumn::Bool(v) => rows.for_each(|i| num(v[i] as i64 as f64, v[i] as u64)),
            RawColumn::Int(v) => rows.for_each(|i| num(v[i] as f64, v[i] as u64)),
            RawColumn::Float(v) => rows.for_each(|i| num(v[i], v[i].to_bits())),
            RawColumn::Date(v) => rows.for_each(|i| num(v[i] as f64, v[i] as u64)),
            RawColumn::Text(v) => rows.for_each(|i| {
                texts.insert(v[i].as_str());
            }),
            RawColumn::Dict { codes, values } => rows.for_each(|i| {
                texts.insert(values[codes[i] as usize].as_str());
            }),
        }
    }
    ColumnProfile {
        null_count: range.null_count,
        min: range.min,
        max: range.max,
        distinct_count: numeric.len() + texts.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use crate::types::{DataType, Value};
    use std::sync::Arc;

    #[test]
    fn stats_track_min_max_nulls_distinct() {
        let schema = Arc::new(Schema::from_pairs(&[
            ("x", DataType::Float),
            ("s", DataType::Text),
        ]));
        let batch = RecordBatch::from_rows(
            schema,
            &[
                vec![Value::Float(1.5), Value::Text("a".into())],
                vec![Value::Null, Value::Text("b".into())],
                vec![Value::Float(-2.0), Value::Text("a".into())],
            ],
        )
        .unwrap();
        let st = TableStats::compute(&batch);
        assert_eq!(st.row_count, 3);
        assert_eq!(st.columns[0].null_count, 1);
        assert_eq!(st.columns[0].min, Some(-2.0));
        assert_eq!(st.columns[0].max, Some(1.5));
        let prof = profile(&[], &Tail::from_batch(batch));
        assert_eq!(prof[0].distinct_count, 2);
        assert_eq!(prof[1].distinct_count, 2);
    }

    /// The per-value scan the typed profile replaced: every cell as a
    /// `Value`, distinct keys as strings.
    fn reference(batch: &RecordBatch) -> Vec<String> {
        let mut out = Vec::new();
        for c in batch.columns() {
            let mut stats = ColumnProfile::default();
            let mut distinct: HashSet<String> = HashSet::new();
            for i in 0..c.len() {
                let v = c.get(i);
                if v.is_null() {
                    stats.null_count += 1;
                    continue;
                }
                if let Some(x) = v.as_f64() {
                    stats.min = Some(stats.min.map_or(x, |m| m.min(x)));
                    stats.max = Some(stats.max.map_or(x, |m| m.max(x)));
                }
                let key = match &v {
                    Value::Float(f) => format!("f{}", f.to_bits()),
                    other => other.to_string(),
                };
                distinct.insert(key);
            }
            stats.distinct_count = distinct.len();
            out.push(format!("{stats:?}"));
        }
        out
    }

    #[test]
    fn typed_profile_equals_the_per_value_scan_over_any_chunking() {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move |n: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % n
        };
        for case in 0..200u64 {
            let rows = next(300) as usize;
            let (spread, nulls) = (1 + next(200), next(4));
            let cell = |ty: DataType, r: u64, null: bool| {
                if null {
                    return Value::Null;
                }
                match ty {
                    DataType::Bool => Value::Bool(r.is_multiple_of(2)),
                    DataType::Int => Value::Int(r as i64 - 50),
                    DataType::Float => Value::Float(match r % 7 {
                        0 => f64::NAN,
                        1 => f64::from_bits(0x7ff8_0000_0000_0001),
                        2 => -0.0,
                        3 => 0.0,
                        _ => r as f64 * 0.5 - 10.0,
                    }),
                    DataType::Text => Value::Text(format!("c{r}")),
                    DataType::Date => Value::Date(r as i32 * 37 - 2000),
                }
            };
            let types = [
                DataType::Bool,
                DataType::Int,
                DataType::Float,
                DataType::Text,
                DataType::Date,
            ];
            let data: Vec<Vec<Value>> = (0..rows)
                .map(|_| {
                    let r = next(spread);
                    let null = nulls > 0 && next(4) < nulls;
                    types.iter().map(|&ty| cell(ty, r, null)).collect()
                })
                .collect();
            let pairs: Vec<(&str, DataType)> =
                ["b", "i", "f", "t", "d"].into_iter().zip(types).collect();
            let schema = Arc::new(Schema::from_pairs(&pairs));
            let batch = RecordBatch::from_rows(schema, &data).unwrap();
            let tail =
                Tail::from_chunks(batch.schema().clone(), batch.chunks(1 + next(100) as usize));
            let got: Vec<String> = profile(&[], &tail)
                .iter()
                .map(|c| format!("{c:?}"))
                .collect();
            assert_eq!(got, reference(&batch), "case {case}");
            // merged chunk by chunk, the mergeable stats equal the whole's
            // (`==` on the bounds: which zero wins a tie is unspecified)
            let merged = TableStats::compute_with_parts(&[], &tail);
            let whole = TableStats::compute(&batch);
            assert_eq!(merged.row_count, whole.row_count, "case {case}");
            let same = |a: Option<f64>, b: Option<f64>| match (a, b) {
                (Some(x), Some(y)) => x == y || (x.is_nan() && y.is_nan()),
                (a, b) => a.is_none() && b.is_none(),
            };
            for (m, w) in merged.columns.iter().zip(&whole.columns) {
                assert_eq!(m.null_count, w.null_count, "case {case}");
                assert!(same(m.min, w.min) && same(m.max, w.max), "case {case}");
                assert_eq!(m.sorted, w.sorted, "case {case}");
            }
        }
    }

    #[test]
    fn sorted_merges_on_exact_values() {
        let schema = Arc::new(Schema::from_pairs(&[("k", DataType::Int)]));
        let stats = |keys: &[i64]| {
            let rows: Vec<Vec<Value>> = keys.iter().map(|&k| vec![Value::Int(k)]).collect();
            TableStats::compute(&RecordBatch::from_rows(schema.clone(), &rows).unwrap())
        };
        let big = 1i64 << 53;
        // 2^53 + 1 and 2^53 are one `f64`, but not in order
        let (a, b) = (stats(&[big - 1, big + 1]), stats(&[big, big + 2]));
        assert!(a.columns[0].sorted && b.columns[0].sorted);
        assert!(!a.merge(&b).columns[0].sorted);
        assert!(b.merge(&stats(&[big + 2, i64::MAX])).columns[0].sorted);
        // no rows is sorted and merges as nothing
        let none = stats(&[]);
        assert!(none.columns[0].sorted);
        assert_eq!(none.merge(&a).merge(&none), a);
        assert!(!stats(&[3, 2]).columns[0].sorted);
    }
}
