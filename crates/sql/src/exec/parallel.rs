//! Morsel-driven parallel execution primitives.
//!
//! Every parallel relational operator is built from the same two pieces:
//! a batch is split into *fixed-size morsels* (so results never depend on
//! the worker count — only scheduling does), and a small worker pool pulls
//! morsels off a shared cursor until none remain. Workers return results
//! tagged with their morsel index, and the caller reassembles them in
//! morsel order, which makes every operator bit-for-bit deterministic with
//! respect to the serial path (modulo floating-point re-association in
//! partial aggregates, which fixed morsel boundaries keep stable across
//! thread counts). A scan of disk parts uses the same pool with its chunks
//! as the items (`PhysicalPlan::map_chunks`).

use crate::batch::RecordBatch;
use crate::error::Result;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// How a physical operator fans out, decided at plan time from row-count
/// estimates and [`super::ExecOptions`].
#[derive(Debug, Clone, Copy)]
pub struct ParallelPolicy {
    /// Worker threads (1 = serial).
    pub degree: usize,
    /// Minimum actual row count before fanning out.
    pub row_threshold: usize,
    /// Fixed morsel size in rows.
    pub morsel_rows: usize,
}

impl ParallelPolicy {
    /// Never fan out.
    pub fn serial() -> Self {
        ParallelPolicy {
            degree: 1,
            row_threshold: usize::MAX,
            morsel_rows: super::DEFAULT_MORSEL_ROWS,
        }
    }

    /// Choose a degree for an operator whose input is estimated at
    /// `est_rows` rows: all of `options.threads` when the estimate clears
    /// the threshold, serial otherwise.
    pub fn from_options(options: &super::ExecOptions, est_rows: usize) -> Self {
        let degree = if options.threads > 1 && est_rows >= options.parallel_row_threshold {
            options.threads
        } else {
            1
        };
        ParallelPolicy {
            degree,
            row_threshold: options.parallel_row_threshold,
            morsel_rows: options.morsel_rows,
        }
    }

    /// The policy [`from_options`](Self::from_options) would have chosen
    /// had it estimated `rows` rows, no more than this one: how a scan
    /// pruned only at execution fans out.
    pub fn for_rows(&self, rows: usize) -> Self {
        let degree = if rows >= self.row_threshold {
            self.degree
        } else {
            1
        };
        ParallelPolicy { degree, ..*self }
    }

    /// Whether to actually fan out for a batch of `rows` rows.
    pub fn fan_out(&self, rows: usize) -> bool {
        self.degree > 1 && rows >= self.row_threshold && rows > self.morsel_rows
    }
}

/// Split `[0, n)` into contiguous ranges of `morsel_rows` rows. Zero rows
/// means zero morsels — no worker should ever see a phantom empty range.
pub fn morsel_ranges(n: usize, morsel_rows: usize) -> Vec<Range<usize>> {
    let step = morsel_rows.max(1);
    (0..n)
        .step_by(step)
        .map(|start| start..(start + step).min(n))
        .collect()
}

/// Run `f` over every item on a pool of `degree` workers pulling from a
/// shared cursor, returning results in item order. The calling thread is
/// one of the workers, so a pool of `degree` spawns `degree - 1` threads;
/// one worker (or one item) is a plain serial loop. Once an item fails,
/// no worker claims another, and the error of the earliest failed item is
/// returned.
pub fn parallel_map<T, I, F>(items: &[I], degree: usize, f: F) -> Result<Vec<T>>
where
    T: Send,
    I: Sync,
    F: Fn(&I) -> Result<T> + Sync,
{
    let workers = degree.min(items.len()).max(1);
    if workers == 1 {
        return items.iter().map(&f).collect();
    }
    let cursor = AtomicUsize::new(0);
    let failed = AtomicBool::new(false);
    let work = || {
        let mut out: Vec<(usize, Result<T>)> = Vec::new();
        while !failed.load(Ordering::Relaxed) {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            if i >= items.len() {
                break;
            }
            let r = f(&items[i]);
            if r.is_err() {
                failed.store(true, Ordering::Relaxed);
            }
            out.push((i, r));
        }
        out
    };
    let mut tagged: Vec<(usize, Result<T>)> = std::thread::scope(|s| {
        let handles: Vec<_> = (1..workers).map(|_| s.spawn(work)).collect();
        let mut tagged = work();
        for h in handles {
            tagged.extend(h.join().expect("morsel worker panicked"));
        }
        tagged
    });
    tagged.sort_unstable_by_key(|(i, _)| *i);
    tagged.into_iter().map(|(_, r)| r).collect()
}

/// Morsel-map over a batch: split into fixed-size morsels and apply `f`
/// to each on the worker pool, results in morsel order.
pub fn map_morsels<T, F>(
    batch: &RecordBatch,
    policy: &ParallelPolicy,
    f: F,
) -> Result<Vec<T>>
where
    T: Send,
    F: Fn(&RecordBatch) -> Result<T> + Sync,
{
    let morsels = batch.chunks(policy.morsel_rows);
    parallel_map(&morsels, policy.degree, f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranges_cover_without_overlap() {
        let rs = morsel_ranges(10, 4);
        assert_eq!(rs, vec![0..4, 4..8, 8..10]);
        assert_eq!(morsel_ranges(4, 4), vec![0..4]);
    }

    #[test]
    fn zero_rows_means_zero_morsels() {
        assert!(morsel_ranges(0, 4).is_empty());
        // map_morsels must not invoke the closure on a phantom empty morsel
        let batch = RecordBatch::empty(std::sync::Arc::new(crate::schema::Schema::new(
            vec![crate::schema::ColumnDef::new("x", crate::types::DataType::Int)],
        )));
        let calls = AtomicUsize::new(0);
        let parts = map_morsels(&batch, &ParallelPolicy::serial(), |m| {
            calls.fetch_add(1, Ordering::Relaxed);
            Ok(m.num_rows())
        })
        .unwrap();
        assert!(parts.is_empty());
        assert_eq!(calls.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn parallel_map_preserves_order() {
        let items: Vec<usize> = (0..100).collect();
        let out = parallel_map(&items, 8, |&i| Ok(i * 2)).unwrap();
        assert_eq!(out, (0..100).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_map_surfaces_errors() {
        let items: Vec<usize> = (0..10).collect();
        let r: Result<Vec<usize>> = parallel_map(&items, 4, |&i| {
            if i == 7 {
                Err(crate::error::SqlError::Execution("boom".into()))
            } else {
                Ok(i)
            }
        });
        assert!(r.is_err());
    }

    #[test]
    fn parallel_map_stops_claiming_after_a_failure() {
        let items: Vec<usize> = (0..10_000).collect();
        let calls = AtomicUsize::new(0);
        let r: Result<Vec<usize>> = parallel_map(&items, 2, |&i| {
            calls.fetch_add(1, Ordering::Relaxed);
            if i == 5 {
                Err(crate::error::SqlError::Execution("boom".into()))
            } else {
                Ok(i)
            }
        });
        assert!(r.is_err());
        let calls = calls.load(Ordering::Relaxed);
        assert!(calls < 64, "{calls} calls after item 5 failed");
    }
}
