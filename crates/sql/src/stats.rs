//! Column and table statistics.
//!
//! Statistics drive two things in Flock: classical cost-based decisions
//! (physical operator selection for inference) and the cross-optimizer's
//! *model compression* rule, which prunes decision-tree branches that can
//! never be reached given the observed min/max of the input columns.

use crate::batch::RecordBatch;
use crate::column::{ColumnVector, RawColumn};
use std::collections::HashSet;

/// Statistics for a single column.
#[derive(Debug, Clone, Default)]
pub struct ColumnStats {
    pub null_count: usize,
    /// Minimum numeric value, when the column is numeric and non-empty.
    pub min: Option<f64>,
    /// Maximum numeric value, when the column is numeric and non-empty.
    pub max: Option<f64>,
    /// Number of distinct values (exact; tables here are memory-resident).
    pub distinct_count: usize,
    /// Distinct string values for low-cardinality text columns (capped),
    /// used to fold one-hot featurizers at optimization time.
    pub categories: Option<Vec<String>>,
}

/// Cap on how many distinct strings we retain per text column.
const MAX_TRACKED_CATEGORIES: usize = 64;

/// Statistics for a table version.
#[derive(Debug, Clone, Default)]
pub struct TableStats {
    pub row_count: usize,
    pub columns: Vec<ColumnStats>,
}

impl TableStats {
    /// Compute exact statistics over a batch.
    pub fn compute(batch: &RecordBatch) -> TableStats {
        TableStats {
            row_count: batch.num_rows(),
            columns: batch.columns().iter().map(column_stats).collect(),
        }
    }

    /// Statistics for a part-backed snapshot: exact stats for the resident
    /// tail, zone-map-derived stats for the disk parts, merged. This is
    /// the *only* way part-backed stats are built — offload, append, and
    /// checkpoint recovery all call it — so stats are a deterministic
    /// function of (part manifests, tail) and never require decoding part
    /// data. Distinct counts become upper bounds (each part contributes
    /// its non-null row count) and text category tracking is dropped once
    /// any rows live on disk; both degrade planning estimates, never
    /// correctness.
    pub fn compute_with_parts(parts: &[crate::parts::Part], tail: &RecordBatch) -> TableStats {
        let mut stats = TableStats::compute(tail);
        if parts.is_empty() {
            return stats;
        }
        for p in parts {
            stats.row_count += p.rows as usize;
            for (i, zone) in p.zones.iter().enumerate() {
                let Some(c) = stats.columns.get_mut(i) else {
                    continue;
                };
                c.null_count += zone.null_count as usize;
                if let Some(zmin) = zone.min {
                    c.min = Some(c.min.map_or(zmin, |m| m.min(zmin)));
                }
                if let Some(zmax) = zone.max {
                    c.max = Some(c.max.map_or(zmax, |m| m.max(zmax)));
                }
                c.distinct_count += (p.rows - zone.null_count) as usize;
                c.categories = None;
            }
        }
        stats
    }

    /// The selectivity estimate for an equality predicate on column `idx`:
    /// `1 / distinct_count` with a floor to avoid zero.
    pub fn eq_selectivity(&self, idx: usize) -> f64 {
        let d = self.columns.get(idx).map_or(1, |c| c.distinct_count.max(1));
        1.0 / d as f64
    }
}

/// Exact statistics of one column, read from its typed buffer: min/max
/// under the numeric view (`get_f64`), and distinct values by typed
/// identity — float bit patterns, so `-0.0` and each NaN payload count
/// apart. Every non-NULL row is seen in order, so the min/max fold and
/// the category cap behave exactly as a per-value scan would.
fn column_stats(c: &ColumnVector) -> ColumnStats {
    let mut stats = ColumnStats {
        null_count: c.null_count(),
        ..ColumnStats::default()
    };
    let validity = c.validity();
    let valid = |i: usize| validity.is_none_or(|v| v[i]);
    let mut fold = |x: f64| {
        stats.min = Some(stats.min.map_or(x, |m| m.min(x)));
        stats.max = Some(stats.max.map_or(x, |m| m.max(x)));
    };
    fn distinct<T: Eq + std::hash::Hash>(keys: impl Iterator<Item = T>) -> usize {
        keys.collect::<HashSet<T>>().len()
    }
    let rows = (0..c.len()).filter(|&i| valid(i));
    let distinct_count = match c.raw() {
        RawColumn::Bool(v) => distinct(rows.map(|i| {
            fold(if v[i] { 1.0 } else { 0.0 });
            v[i]
        })),
        RawColumn::Int(v) => distinct(rows.map(|i| {
            fold(v[i] as f64);
            v[i]
        })),
        RawColumn::Float(v) => distinct(rows.map(|i| {
            fold(v[i]);
            v[i].to_bits()
        })),
        RawColumn::Date(v) => distinct(rows.map(|i| {
            fold(v[i] as f64);
            v[i]
        })),
        RawColumn::Text(v) => text_distinct(rows.map(|i| v[i].as_str()), &mut stats.categories),
        RawColumn::Dict { codes, values } => text_distinct(
            rows.map(|i| values[codes[i] as usize].as_str()),
            &mut stats.categories,
        ),
    };
    stats.distinct_count = distinct_count;
    stats
}

/// Distinct strings among a text column's non-NULL rows, and its
/// categories: the distinct strings, unless a row arrives once
/// MAX_TRACKED_CATEGORIES of them are already tracked.
fn text_distinct<'a>(
    texts: impl Iterator<Item = &'a str>,
    categories: &mut Option<Vec<String>>,
) -> usize {
    let (mut cats, mut track) = (HashSet::new(), true);
    let n = texts
        .inspect(|&s| {
            if track {
                if cats.len() < MAX_TRACKED_CATEGORIES {
                    cats.insert(s);
                } else {
                    track = false;
                    cats.clear();
                }
            }
        })
        .collect::<HashSet<&str>>()
        .len();
    if track && !cats.is_empty() {
        let mut cats: Vec<String> = cats.into_iter().map(str::to_string).collect();
        cats.sort();
        *categories = Some(cats);
    }
    n
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
        assert_eq!(st.columns[0].distinct_count, 2);
        assert_eq!(st.columns[1].distinct_count, 2);
        assert_eq!(
            st.columns[1].categories.as_deref(),
            Some(&["a".to_string(), "b".to_string()][..])
        );
    }

    /// The per-value scan `compute` replaced: every cell as a `Value`,
    /// distinct keys as strings.
    fn reference(batch: &RecordBatch) -> Vec<String> {
        let mut out = Vec::new();
        for c in batch.columns() {
            let mut stats = ColumnStats::default();
            let mut distinct: HashSet<String> = HashSet::new();
            let mut text_cats: HashSet<String> = HashSet::new();
            let mut track_cats = c.data_type() == DataType::Text;
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
                if track_cats {
                    if text_cats.len() < MAX_TRACKED_CATEGORIES {
                        text_cats.insert(key.clone());
                    } else {
                        track_cats = false;
                        text_cats.clear();
                    }
                }
                distinct.insert(key);
            }
            stats.distinct_count = distinct.len();
            if track_cats && !text_cats.is_empty() {
                let mut cats: Vec<String> = text_cats.into_iter().collect();
                cats.sort();
                stats.categories = Some(cats);
            }
            out.push(format!("{stats:?}"));
        }
        out
    }

    #[test]
    fn typed_stats_equal_the_per_value_scan() {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move |n: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % n
        };
        let (mut tracked, mut capped) = (0, 0);
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
            let got: Vec<String> = TableStats::compute(&batch)
                .columns
                .iter()
                .map(|c| format!("{c:?}"))
                .collect();
            assert_eq!(got, reference(&batch), "case {case}");
            tracked += got[3].contains("categories: Some") as usize;
            capped += (rows > 0 && got[3].contains("categories: None")) as usize;
        }
        assert!(tracked > 20 && capped > 20, "{tracked} tracked, {capped} capped");
    }

    #[test]
    fn selectivity_uses_distinct_count() {
        let schema = Arc::new(Schema::from_pairs(&[("x", DataType::Int)]));
        let rows: Vec<Vec<Value>> = (0..10).map(|i| vec![Value::Int(i % 5)]).collect();
        let batch = RecordBatch::from_rows(schema, &rows).unwrap();
        let st = TableStats::compute(&batch);
        assert!((st.eq_selectivity(0) - 0.2).abs() < 1e-12);
    }
}
