//! Sort and Top-K over a gathered input, and `SortKey`, the typed reading
//! of a sort key column.

use super::{parallel, EvalContext, OpMetrics, ParallelPolicy, PhysExpr};
use crate::batch::RecordBatch;
use crate::column::ColumnVector;
use crate::error::Result;

/// Order `batch` by `keys` (expression, ascending), stably; with `fetch`,
/// only the first `fetch` rows of that order.
pub(super) fn execute_sort(
    batch: &RecordBatch,
    keys: &[(PhysExpr, bool)],
    policy: &ParallelPolicy,
    fetch: Option<usize>,
    ctx: &EvalContext,
    op: &OpMetrics,
) -> Result<RecordBatch> {
    let n = batch.num_rows();
    let fan_out = op.fan_out(policy, n);

    // Key columns for the whole batch; evaluated morsel-parallel when the
    // sort itself fans out (expression purity makes this equal to a single
    // whole-batch evaluation).
    let eval_keys = |b: &RecordBatch| -> Result<Vec<ColumnVector>> {
        keys.iter().map(|(e, _)| e.eval(b, ctx)).collect()
    };
    let key_cols = if fan_out {
        let morsels = batch.chunks(policy.morsel_rows);
        let parts = parallel::parallel_map(&morsels, policy.degree, eval_keys)?;
        let mut cols: Vec<ColumnVector> = parts[0].clone();
        for (i, dst) in cols.iter_mut().enumerate() {
            let srcs: Vec<&ColumnVector> = parts[1..].iter().map(|p| &p[i]).collect();
            dst.append_all(&srcs)?;
        }
        cols
    } else {
        eval_keys(batch)?
    };
    let sort_keys: Vec<(SortKey, bool)> = key_cols
        .iter()
        .zip(keys)
        .map(|(col, (_, asc))| (SortKey::of(col), *asc))
        .collect();

    let cmp_rows = |a: usize, b: usize| -> std::cmp::Ordering {
        for (key, asc) in &sort_keys {
            let ord = key.cmp_rows(a, b);
            let ord = if *asc { ord } else { ord.reverse() };
            if ord != std::cmp::Ordering::Equal {
                return ord;
            }
        }
        std::cmp::Ordering::Equal
    };

    // Top-K: keep the first `k` rows of the order without sorting the
    // rest. Breaking key ties by row position makes the order total and
    // equal to the stable sort's (earliest row first), so the selection
    // is exactly the stable sort's prefix — serially, whatever the
    // degree: one pass over typed keys is cheaper than merging runs. A
    // lone FLOAT or INT key is compared as one integer per row.
    if let Some(k) = fetch.filter(|k| *k < n) {
        let directed = |asc: bool, key: u64| if asc { key } else { !key };
        let indices = match sort_keys.as_slice() {
            [(SortKey::Float(v), asc)] => top_k(n, k, |r| directed(*asc, float_order(v[r]))),
            [(SortKey::Int(v), asc)] => top_k(n, k, |r| directed(*asc, v[r] as u64 ^ 1 << 63)),
            _ => top_k(n, k, |r| RowOrder(r, &cmp_rows)),
        };
        return batch.take(&indices);
    }

    if !fan_out {
        let mut indices: Vec<usize> = (0..n).collect();
        indices.sort_by(|&a, &b| cmp_rows(a, b));
        return batch.take(&indices);
    }

    // Parallel sort: stable-sort contiguous runs concurrently, then k-way
    // merge. Ties resolve to the earliest run (and stably within a run),
    // which reproduces the serial stable sort exactly, independent of the
    // run boundaries.
    let run_rows = n.div_ceil(policy.degree).max(policy.morsel_rows);
    let ranges = parallel::morsel_ranges(n, run_rows);
    op.record_fan_out(ranges.len(), policy.degree);
    let runs: Vec<Vec<usize>> = parallel::parallel_map(&ranges, policy.degree, |range| {
        ctx.cancel.check()?;
        let mut idx: Vec<usize> = range.clone().collect();
        idx.sort_by(|&a, &b| cmp_rows(a, b));
        Ok(idx)
    })?;

    let mut heads = vec![0usize; runs.len()];
    let mut indices: Vec<usize> = Vec::with_capacity(n);
    loop {
        ctx.cancel.check_every(indices.len())?;
        let mut best: Option<usize> = None;
        for (r, run) in runs.iter().enumerate() {
            if heads[r] >= run.len() {
                continue;
            }
            best = Some(match best {
                None => r,
                Some(b)
                    if cmp_rows(run[heads[r]], runs[b][heads[b]]) == std::cmp::Ordering::Less =>
                {
                    r
                }
                Some(b) => b,
            });
        }
        match best {
            Some(r) => {
                indices.push(runs[r][heads[r]]);
                heads[r] += 1;
            }
            None => break,
        }
    }
    batch.take(&indices)
}

/// The `k` first of rows `0..n` ordered by `(key(r), r)`, in that order: a
/// bounded max-heap whose top is the current k-th row, so a row that does
/// not make the cut costs one comparison.
fn top_k<K: Ord>(n: usize, k: usize, key: impl Fn(usize) -> K) -> Vec<usize> {
    let mut heap = std::collections::BinaryHeap::with_capacity(k);
    for r in 0..n {
        if heap.len() < k {
            heap.push((key(r), r));
            continue;
        }
        let Some(mut kth) = heap.peek_mut() else {
            break; // k == 0
        };
        let row = (key(r), r);
        if row < *kth {
            *kth = row;
        }
    }
    heap.into_sorted_vec().into_iter().map(|(_, r)| r).collect()
}

/// A row ordered by a row comparator, for [`top_k`] over keys with no
/// integer form.
struct RowOrder<'c, F>(usize, &'c F);

impl<F: Fn(usize, usize) -> std::cmp::Ordering> Ord for RowOrder<'_, F> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.1)(self.0, other.0)
    }
}

impl<F: Fn(usize, usize) -> std::cmp::Ordering> PartialOrd for RowOrder<'_, F> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<F: Fn(usize, usize) -> std::cmp::Ordering> PartialEq for RowOrder<'_, F> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}

impl<F: Fn(usize, usize) -> std::cmp::Ordering> Eq for RowOrder<'_, F> {}

/// `x` as an unsigned integer in [`SortKey::Float`]'s order: -0.0 just
/// below +0.0, and every NaN one value, above +inf.
fn float_order(x: f64) -> u64 {
    let bits = if x.is_nan() { f64::NAN } else { x }.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

/// A sort key column read in place: the two hot types compare on their
/// raw buffers, everything else through [`Value::total_cmp`] — whose order
/// (numbers, then NaN of either sign, then NULL) the typed arms reproduce.
enum SortKey<'a> {
    Float(&'a [f64]),
    Int(&'a [i64]),
    Other(&'a ColumnVector),
}

impl<'a> SortKey<'a> {
    fn of(col: &'a ColumnVector) -> SortKey<'a> {
        if let Some(v) = col.as_f64_slice() {
            SortKey::Float(v)
        } else if let Some(v) = col.as_i64_slice() {
            SortKey::Int(v)
        } else {
            SortKey::Other(col)
        }
    }

    fn cmp_rows(&self, a: usize, b: usize) -> std::cmp::Ordering {
        match self {
            SortKey::Float(v) => {
                let norm = |x: f64| if x.is_nan() { f64::NAN } else { x };
                norm(v[a]).total_cmp(&norm(v[b]))
            }
            SortKey::Int(v) => v[a].cmp(&v[b]),
            SortKey::Other(col) => col.get(a).total_cmp(&col.get(b)),
        }
    }
}
