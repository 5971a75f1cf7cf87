//! Incremental windowed aggregation for continuous queries.
//!
//! [`WindowAggState`] maintains per-window partial aggregate states over an
//! append-only event stream. Events are assigned to every tumbling/sliding
//! window that contains their event time; a watermark (max observed event
//! time minus the stream's lag allowance) drives window close. The
//! per-window accumulation mirrors the batch HashAggregate exactly — same
//! [`Accumulator`] updates in the same row order: this module feeds
//! [`Accumulator::update`] a row at a time, the batch operator feeds the
//! same per-value fold from typed column buffers — which is what makes a
//! closed window's output bit-equal to the equivalent batch `GROUP BY`
//! over the same captured events.

use std::collections::{BTreeMap, HashMap};

use crate::column::ColumnVector;
use crate::exec::agg::{Accumulator, GroupKey};
use crate::plan::AggCall;

/// Partial aggregate state of one open window: groups in first-appearance
/// order (matching the batch aggregate's output order) with one
/// accumulator per aggregate call.
#[derive(Debug, Default)]
struct WindowPartial {
    order: Vec<GroupKey>,
    groups: HashMap<GroupKey, Vec<Accumulator>>,
}

/// One closed (finalized) window, ready for emission.
#[derive(Debug)]
pub struct ClosedWindow {
    /// Inclusive window start (event-time ms).
    pub start: i64,
    /// Groups in first-appearance order; each row is the group key values
    /// followed by the finished aggregate values.
    pub keys: Vec<GroupKey>,
    pub aggs: Vec<Vec<crate::types::Value>>,
}

/// Incremental window-aggregation state for one continuous query.
#[derive(Debug)]
pub struct WindowAggState {
    size_ms: i64,
    slide_ms: i64,
    agg_specs: Vec<AggCall>,
    /// Open windows by start; BTreeMap keeps close-order ascending.
    windows: BTreeMap<i64, WindowPartial>,
    /// Largest event time observed (drives the watermark).
    pub max_event_ms: Option<i64>,
    /// Window starts strictly below this are closed; events whose every
    /// containing window is closed are late and dropped.
    closed_below: Option<i64>,
    /// Events dropped because every window containing them had closed.
    pub late_events: u64,
}

impl WindowAggState {
    /// `agg_specs` carries the aggregate functions (and DISTINCT flags);
    /// argument columns are evaluated by the caller and passed to
    /// [`WindowAggState::observe`] positionally.
    pub fn new(size_ms: i64, slide_ms: i64, agg_specs: Vec<AggCall>) -> Self {
        assert!(size_ms > 0 && slide_ms > 0 && slide_ms <= size_ms);
        WindowAggState {
            size_ms,
            slide_ms,
            agg_specs,
            windows: BTreeMap::new(),
            max_event_ms: None,
            closed_below: None,
            late_events: 0,
        }
    }

    /// The start of the latest window containing `et`.
    fn latest_start(&self, et: i64) -> i64 {
        et.div_euclid(self.slide_ms) * self.slide_ms
    }

    /// Feed one batch of events. `et` holds each row's event time;
    /// `group_cols` the evaluated group-by expressions; `agg_cols` the
    /// evaluated aggregate argument columns (`None` = `COUNT(*)`),
    /// positionally matching the `agg_specs` this state was built with.
    /// Rows must arrive in stream (insertion) order — that order is the
    /// bit-equality contract with the batch aggregate.
    pub fn observe(
        &mut self,
        et: &[i64],
        group_cols: &[ColumnVector],
        agg_cols: &[Option<ColumnVector>],
    ) {
        debug_assert_eq!(agg_cols.len(), self.agg_specs.len());
        for (row, &t) in et.iter().enumerate() {
            self.max_event_ms = Some(self.max_event_ms.map_or(t, |m| m.max(t)));
            let latest = self.latest_start(t);
            if self.closed_below.is_some_and(|floor| latest < floor) {
                // every window containing this event has already closed
                self.late_events += 1;
                continue;
            }
            let key = GroupKey(group_cols.iter().map(|c| c.get(row)).collect());
            // all windows [w, w+size) with w <= t < w+size, newest first
            let mut w = latest;
            while w + self.size_ms > t {
                // partially late: skip windows that already closed
                if self.closed_below.is_none_or(|floor| w >= floor) {
                    let partial = self.windows.entry(w).or_default();
                    let accs = partial.groups.entry(key.clone()).or_insert_with(|| {
                        partial.order.push(key.clone());
                        self.agg_specs
                            .iter()
                            .map(|a| Accumulator::new(a.func, a.distinct))
                            .collect()
                    });
                    for (acc, col) in accs.iter_mut().zip(agg_cols) {
                        match col {
                            Some(c) => acc.update(Some(&c.get(row))),
                            None => acc.update(None),
                        }
                    }
                }
                match w.checked_sub(self.slide_ms) {
                    Some(prev) => w = prev,
                    None => break,
                }
            }
        }
    }

    /// The current watermark given the stream's lag allowance, or `None`
    /// before any event has been seen.
    pub fn watermark(&self, lag_ms: i64) -> Option<i64> {
        self.max_event_ms.map(|m| m.saturating_sub(lag_ms))
    }

    /// Close every window fully below the watermark (`start + size <=
    /// watermark`), ascending by start, finalizing its aggregates. Closed
    /// windows are removed; subsequent events targeting them count as late.
    pub fn close_ready(&mut self, watermark_ms: i64) -> Vec<ClosedWindow> {
        let mut out = Vec::new();
        let ready: Vec<i64> = self
            .windows
            .keys()
            .copied()
            .take_while(|w| w + self.size_ms <= watermark_ms)
            .collect();
        for start in ready {
            let partial = self.windows.remove(&start).expect("window present");
            let mut keys = Vec::with_capacity(partial.order.len());
            let mut aggs = Vec::with_capacity(partial.order.len());
            for key in partial.order {
                let accs = &partial.groups[&key];
                aggs.push(accs.iter().map(|a| a.finish()).collect());
                keys.push(key);
            }
            self.closed_below = Some(start + self.slide_ms);
            out.push(ClosedWindow { start, keys, aggs });
        }
        out
    }

    /// Number of currently open windows (for metrics / tests).
    pub fn open_windows(&self) -> usize {
        self.windows.len()
    }

    /// Forget everything but the configuration — used when the runtime
    /// must rebuild from the stream's full retained history.
    pub fn reset(&mut self) {
        self.windows.clear();
        self.max_event_ms = None;
        self.closed_below = None;
        self.late_events = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::AggFunc;
    use crate::types::{DataType, Value};

    fn count_call() -> AggCall {
        AggCall {
            func: AggFunc::Count,
            arg: None,
            distinct: false,
        }
    }

    fn sum_call() -> AggCall {
        AggCall {
            func: AggFunc::Sum,
            arg: None, // engine evaluates the arg; tests pass the column
            distinct: false,
        }
    }

    fn int_col(vals: &[i64]) -> ColumnVector {
        let v: Vec<Value> = vals.iter().map(|&i| Value::Int(i)).collect();
        ColumnVector::from_values(DataType::Int, &v).unwrap()
    }

    #[test]
    fn tumbling_counts_and_close() {
        let mut s = WindowAggState::new(100, 100, vec![count_call()]);
        let et = [10i64, 20, 110, 150, 210];
        let keys = int_col(&[1, 1, 2, 2, 1]);
        s.observe(&et, std::slice::from_ref(&keys), &[None]);
        // watermark 210: windows [0,100) and [100,200) close
        let closed = s.close_ready(210);
        assert_eq!(closed.len(), 2);
        assert_eq!(closed[0].start, 0);
        assert_eq!(closed[0].aggs, vec![vec![Value::Int(2)]]);
        assert_eq!(closed[1].start, 100);
        assert_eq!(closed[1].aggs, vec![vec![Value::Int(2)]]);
        assert_eq!(s.open_windows(), 1);
    }

    #[test]
    fn sliding_window_multi_assignment() {
        // size 200, slide 100: event at t=150 lands in [0,200) and [100,300)
        let mut s = WindowAggState::new(200, 100, vec![sum_call()]);
        let et = [150i64];
        let keys = int_col(&[7]);
        let args = int_col(&[5]);
        s.observe(&et, std::slice::from_ref(&keys), &[Some(args)]);
        assert_eq!(s.open_windows(), 2);
        let closed = s.close_ready(200);
        assert_eq!(closed.len(), 1);
        assert_eq!(closed[0].start, 0);
        assert_eq!(closed[0].aggs, vec![vec![Value::Int(5)]]);
    }

    #[test]
    fn late_events_dropped_and_counted() {
        let mut s = WindowAggState::new(100, 100, vec![count_call()]);
        let keys = int_col(&[1]);
        s.observe(&[250], std::slice::from_ref(&keys), &[None]);
        let _ = s.close_ready(200); // closes [0,100) implicitly none open there
        // window [0,100) is now below closed floor? closed_below set only
        // when a window actually closes; close the [200,300) region first.
        s.observe(&[350], std::slice::from_ref(&keys), &[None]);
        let closed = s.close_ready(300);
        assert_eq!(closed.len(), 1); // [200,300)
        s.observe(&[210], std::slice::from_ref(&keys), &[None]);
        assert_eq!(s.late_events, 1);
    }

    #[test]
    fn negative_event_times_use_floor_division() {
        let mut s = WindowAggState::new(100, 100, vec![count_call()]);
        let keys = int_col(&[1]);
        s.observe(&[-50], std::slice::from_ref(&keys), &[None]);
        let closed = s.close_ready(0);
        assert_eq!(closed.len(), 1);
        assert_eq!(closed[0].start, -100);
    }
}
