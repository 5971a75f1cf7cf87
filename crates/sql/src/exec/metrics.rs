//! Per-operator runtime metrics — the observability layer under
//! `EXPLAIN ANALYZE`, the `flock_metrics` virtual table, and the query
//! log's runtime columns.
//!
//! Collection is lock-free: every physical operator owns an [`OpMetrics`]
//! of relaxed atomics inside a [`PlanMetrics`] tree that mirrors the plan
//! shape, so morsel workers can bump counters concurrently without
//! serializing on a lock. Because execution is batch-materialized, the
//! serial path pays one `Instant` read pair and a handful of atomic adds
//! *per operator per query* — nanoseconds against operators that
//! materialize whole batches (see DESIGN.md for the overhead budget).

use super::{ParallelPolicy, PhysicalPlan};
use crate::sync;
use crate::table::TableScan;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Lock-free counters for one physical operator.
#[derive(Debug, Default)]
pub struct OpMetrics {
    /// Rows consumed from children (for leaves: rows read, before any
    /// fused filter).
    pub rows_in: AtomicU64,
    /// Rows produced.
    pub rows_out: AtomicU64,
    /// Output batches produced (executions of this operator).
    pub batches: AtomicU64,
    /// Wall time of the whole subtree rooted here, in nanoseconds. Self
    /// time is derived at snapshot time by subtracting child subtrees.
    pub wall_ns: AtomicU64,
    /// Morsels executed by this operator's parallel sections (0 = the
    /// operator ran serially).
    pub morsels: AtomicU64,
    /// Maximum effective parallel degree observed: `min(policy degree,
    /// morsels available)`, 1 while the operator stays serial.
    pub par_degree: AtomicU64,
    /// A scan whose zone-map pruning waited for `?` parameters: its source
    /// as pruned once they were bound, which its label then reports.
    pub bound_scan: OnceLock<TableScan>,
    /// Runs of a scan that a range on a sorted column narrowed to a row
    /// slice.
    pub sorted_ranges: AtomicU64,
}

impl OpMetrics {
    /// Record one parallel section: `morsels` work items fanned out on
    /// (up to) `degree` workers.
    pub fn record_fan_out(&self, morsels: usize, degree: usize) {
        self.morsels.fetch_add(morsels as u64, Ordering::Relaxed);
        let effective = degree.min(morsels.max(1)) as u64;
        self.par_degree.fetch_max(effective, Ordering::Relaxed);
    }

    /// Whether `policy` fans out over `rows` rows, recording the morsels
    /// when it does.
    pub fn fan_out(&self, policy: &ParallelPolicy, rows: usize) -> bool {
        let fans = policy.fan_out(rows);
        if fans {
            self.record_fan_out(rows.div_ceil(policy.morsel_rows.max(1)), policy.degree);
        }
        fans
    }
}

/// A metrics tree mirroring a [`PhysicalPlan`]: `children` follow the
/// exact order in which `execute` recurses (join = [left, right], union =
/// input order), so plan node *i* always pairs with metrics node *i*.
#[derive(Debug, Default)]
pub struct PlanMetrics {
    pub op: OpMetrics,
    pub children: Vec<PlanMetrics>,
}

impl PlanMetrics {
    /// Build a zeroed metrics tree shaped like `plan`.
    pub fn for_plan(plan: &PhysicalPlan) -> PlanMetrics {
        let children = match plan {
            PhysicalPlan::Scan { .. } | PhysicalPlan::Values { .. } => Vec::new(),
            PhysicalPlan::Filter { input, .. }
            | PhysicalPlan::Project { input, .. }
            | PhysicalPlan::HashAggregate { input, .. }
            | PhysicalPlan::Sort { input, .. }
            | PhysicalPlan::Limit { input, .. }
            | PhysicalPlan::Distinct { input } => vec![PlanMetrics::for_plan(input)],
            PhysicalPlan::HashJoin { left, right, .. }
            | PhysicalPlan::NestedLoopJoin { left, right, .. } => {
                vec![PlanMetrics::for_plan(left), PlanMetrics::for_plan(right)]
            }
            PhysicalPlan::Union { inputs, .. } => {
                inputs.iter().map(PlanMetrics::for_plan).collect()
            }
        };
        PlanMetrics {
            op: OpMetrics::default(),
            children,
        }
    }

    /// Freeze the counters into a plain snapshot annotated with the plan's
    /// operator labels.
    pub fn snapshot(&self, plan: &PhysicalPlan) -> OpSnapshot {
        let (name, detail) = plan.label(self.op.bound_scan.get());
        let children: Vec<OpSnapshot> = self
            .children
            .iter()
            .zip(plan.children())
            .map(|(m, p)| m.snapshot(p))
            .collect();
        let total_ns = self.op.wall_ns.load(Ordering::Relaxed);
        let child_ns: u64 = children.iter().map(|c| c.total_ns).sum();
        OpSnapshot {
            name,
            detail,
            rows_in: self.op.rows_in.load(Ordering::Relaxed),
            rows_out: self.op.rows_out.load(Ordering::Relaxed),
            batches: self.op.batches.load(Ordering::Relaxed),
            total_ns,
            self_ns: total_ns.saturating_sub(child_ns),
            morsels: self.op.morsels.load(Ordering::Relaxed),
            degree: self.op.par_degree.load(Ordering::Relaxed).max(1),
            sorted_ranges: self.op.sorted_ranges.load(Ordering::Relaxed),
            children,
        }
    }
}

/// Frozen per-operator measurements for one executed plan.
#[derive(Debug, Clone, PartialEq)]
pub struct OpSnapshot {
    /// Operator name, e.g. `HashAggregate`.
    pub name: String,
    /// Shape detail, e.g. `groups=1, aggs=2`.
    pub detail: String,
    pub rows_in: u64,
    pub rows_out: u64,
    pub batches: u64,
    /// Wall time of the subtree rooted at this operator.
    pub total_ns: u64,
    /// Wall time attributable to this operator alone.
    pub self_ns: u64,
    pub morsels: u64,
    /// Effective parallel degree (1 = ran serially).
    pub degree: u64,
    /// Runs of this scan narrowed to a sorted range's row slice.
    pub sorted_ranges: u64,
    pub children: Vec<OpSnapshot>,
}

impl OpSnapshot {
    /// Number of operators in this subtree that actually fanned out.
    pub fn parallel_ops(&self) -> u64 {
        u64::from(self.degree > 1)
            + self.children.iter().map(OpSnapshot::parallel_ops).sum::<u64>()
    }

    /// Rows read by the leaves (scans/values) of this subtree — after
    /// zone-map pruning, before a fused filter — the "rows scanned" number
    /// the query log records.
    pub fn rows_scanned(&self) -> u64 {
        if self.children.is_empty() {
            self.rows_in
        } else {
            self.children.iter().map(OpSnapshot::rows_scanned).sum()
        }
    }

    /// Every operator in the subtree, depth-first, with its depth.
    pub fn walk(&self) -> Vec<(usize, &OpSnapshot)> {
        let mut out = Vec::new();
        self.walk_into(0, &mut out);
        out
    }

    fn walk_into<'a>(&'a self, depth: usize, out: &mut Vec<(usize, &'a OpSnapshot)>) {
        out.push((depth, self));
        for c in &self.children {
            c.walk_into(depth + 1, out);
        }
    }

    /// Render the annotated plan tree (the `EXPLAIN ANALYZE` body).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (depth, node) in self.walk() {
            let indent = "  ".repeat(depth);
            let detail = if node.detail.is_empty() {
                String::new()
            } else {
                format!(" [{}]", node.detail)
            };
            let parallel = if node.degree > 1 {
                format!(", morsels={}, degree={}", node.morsels, node.degree)
            } else {
                String::new()
            };
            out.push_str(&format!(
                "{indent}{}{detail} (rows={}, time={}{parallel})\n",
                node.name,
                node.rows_out,
                fmt_ns(node.self_ns),
            ));
        }
        out
    }
}

/// Human duration: ns below 1µs, µs below 1ms, else ms with 3 decimals.
pub fn fmt_ns(ns: u64) -> String {
    if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 1_000_000 {
        format!("{:.1}\u{b5}s", ns as f64 / 1_000.0)
    } else {
        format!("{:.3}ms", ns as f64 / 1_000_000.0)
    }
}

/// Engine-wide cumulative counters, surfaced by the `flock_metrics`
/// virtual table. One instance lives for the lifetime of a `Database`;
/// every executed query folds its plan snapshot in.
#[derive(Debug, Default)]
pub struct EngineMetrics {
    /// Queries executed (SELECT-shaped statements, including EXPLAIN
    /// ANALYZE runs).
    pub queries: AtomicU64,
    /// Rows read by scans across all queries.
    pub rows_scanned: AtomicU64,
    /// Rows returned to clients.
    pub rows_returned: AtomicU64,
    /// Total wall time spent inside plan execution.
    pub exec_ns: AtomicU64,
    /// Operators that ran with parallel degree > 1.
    pub parallel_ops: AtomicU64,
    /// Morsels executed by parallel operator sections.
    pub morsels: AtomicU64,
    /// Scans that read a range on a sorted column as a row slice.
    pub sorted_range_scans: AtomicU64,
    /// Queries rejected up front by the admission controller.
    pub admission_rejected: AtomicU64,
    /// Queries aborted by an explicit `Session::cancel()`.
    pub queries_cancelled: AtomicU64,
    /// Queries aborted by `statement_timeout`.
    pub queries_timed_out: AtomicU64,
    /// Queries aborted for exceeding their row/memory budget.
    pub budget_rejected: AtomicU64,
    /// Continuous-query scheduler passes over an individual CQ.
    pub stream_cq_ticks: AtomicU64,
    /// Windows closed (finalized) by continuous queries.
    pub stream_windows_closed: AtomicU64,
    /// Rows emitted into continuous-query sink tables.
    pub stream_rows_emitted: AtomicU64,
    /// Stream events dropped because every window containing them closed.
    pub stream_late_events: AtomicU64,
    /// Continuous-query policy (WHEN-clause) breaches fired.
    pub stream_policy_breaches: AtomicU64,
    /// Closed windows scored through PREDICT-bearing continuous queries.
    pub stream_predict_windows: AtomicU64,
    /// Continuous-query tick failures (runtime discarded and rebuilt).
    pub stream_cq_errors: AtomicU64,
    /// Externally-owned counters registered by higher layers (e.g. the
    /// inference layer's compiled-pipeline cache), appended to [`rows`].
    registered: Mutex<Vec<(&'static str, Arc<AtomicU64>)>>,
}

impl EngineMetrics {
    /// Expose an externally-owned counter as a `flock_metrics` row. The
    /// caller keeps the handle and updates it; reads happen at snapshot
    /// time. Re-registering a name replaces the previous handle.
    pub fn register(&self, name: &'static str, counter: Arc<AtomicU64>) {
        let mut registered = sync::lock(&self.registered);
        if let Some(slot) = registered.iter_mut().find(|(n, _)| *n == name) {
            slot.1 = counter;
        } else {
            registered.push((name, counter));
        }
    }

    /// Fold one executed query's snapshot into the cumulative counters.
    pub fn record_query(&self, snapshot: &OpSnapshot) {
        self.queries.fetch_add(1, Ordering::Relaxed);
        self.rows_scanned
            .fetch_add(snapshot.rows_scanned(), Ordering::Relaxed);
        self.rows_returned
            .fetch_add(snapshot.rows_out, Ordering::Relaxed);
        self.exec_ns.fetch_add(snapshot.total_ns, Ordering::Relaxed);
        self.parallel_ops
            .fetch_add(snapshot.parallel_ops(), Ordering::Relaxed);
        let nodes = snapshot.walk();
        let morsels: u64 = nodes.iter().map(|(_, n)| n.morsels).sum();
        self.morsels.fetch_add(morsels, Ordering::Relaxed);
        let sorted: u64 = nodes.iter().map(|(_, n)| n.sorted_ranges).sum();
        self.sorted_range_scans.fetch_add(sorted, Ordering::Relaxed);
    }

    /// Name/value pairs in a stable order (the `flock_metrics` rows):
    /// built-in execution counters first, then registered external ones
    /// in registration order.
    pub fn rows(&self) -> Vec<(&'static str, u64)> {
        let mut rows = vec![
            ("queries", self.queries.load(Ordering::Relaxed)),
            ("rows_scanned", self.rows_scanned.load(Ordering::Relaxed)),
            ("rows_returned", self.rows_returned.load(Ordering::Relaxed)),
            ("exec_ns", self.exec_ns.load(Ordering::Relaxed)),
            ("parallel_ops", self.parallel_ops.load(Ordering::Relaxed)),
            ("morsels", self.morsels.load(Ordering::Relaxed)),
            (
                "sorted_range_scans",
                self.sorted_range_scans.load(Ordering::Relaxed),
            ),
            (
                "admission_rejected",
                self.admission_rejected.load(Ordering::Relaxed),
            ),
            (
                "queries_cancelled",
                self.queries_cancelled.load(Ordering::Relaxed),
            ),
            (
                "queries_timed_out",
                self.queries_timed_out.load(Ordering::Relaxed),
            ),
            (
                "budget_rejected",
                self.budget_rejected.load(Ordering::Relaxed),
            ),
            (
                "stream_cq_ticks",
                self.stream_cq_ticks.load(Ordering::Relaxed),
            ),
            (
                "stream_windows_closed",
                self.stream_windows_closed.load(Ordering::Relaxed),
            ),
            (
                "stream_rows_emitted",
                self.stream_rows_emitted.load(Ordering::Relaxed),
            ),
            (
                "stream_late_events",
                self.stream_late_events.load(Ordering::Relaxed),
            ),
            (
                "stream_policy_breaches",
                self.stream_policy_breaches.load(Ordering::Relaxed),
            ),
            (
                "stream_predict_windows",
                self.stream_predict_windows.load(Ordering::Relaxed),
            ),
            (
                "stream_cq_errors",
                self.stream_cq_errors.load(Ordering::Relaxed),
            ),
        ];
        rows.extend(
            sync::lock(&self.registered)
                .iter()
                .map(|(name, c)| (*name, c.load(Ordering::Relaxed))),
        );
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaf(rows: u64, ns: u64) -> OpSnapshot {
        OpSnapshot {
            name: "Scan".into(),
            detail: String::new(),
            rows_in: rows,
            rows_out: rows,
            batches: 1,
            total_ns: ns,
            self_ns: ns,
            morsels: 0,
            degree: 1,
            sorted_ranges: 0,
            children: vec![],
        }
    }

    #[test]
    fn snapshot_rollups() {
        let mut agg = leaf(4, 500);
        agg.name = "HashAggregate".into();
        agg.degree = 4;
        agg.morsels = 16;
        agg.total_ns = 2_000;
        agg.self_ns = 1_500;
        agg.children = vec![leaf(100, 500)];
        assert_eq!(agg.parallel_ops(), 1);
        assert_eq!(agg.rows_scanned(), 100);
        let rendered = agg.render();
        assert!(rendered.contains("HashAggregate"), "{rendered}");
        assert!(rendered.contains("degree=4"), "{rendered}");
        assert!(rendered.starts_with("HashAggregate"));
        assert!(rendered.contains("\n  Scan"), "{rendered}");
    }

    #[test]
    fn engine_metrics_accumulate() {
        let m = EngineMetrics::default();
        let mut root = leaf(10, 100);
        root.children = vec![leaf(50, 40)];
        m.record_query(&root);
        m.record_query(&root);
        let rows: std::collections::HashMap<_, _> = m.rows().into_iter().collect();
        assert_eq!(rows["queries"], 2);
        assert_eq!(rows["rows_scanned"], 100);
        assert_eq!(rows["rows_returned"], 20);
    }

    #[test]
    fn registered_counters_appear_in_rows() {
        let m = EngineMetrics::default();
        let c = Arc::new(AtomicU64::new(7));
        m.register("predict_compile_hits", Arc::clone(&c));
        c.fetch_add(1, Ordering::Relaxed);
        let rows: std::collections::HashMap<_, _> = m.rows().into_iter().collect();
        assert_eq!(rows["predict_compile_hits"], 8);
        // re-registering the same name replaces the handle
        m.register("predict_compile_hits", Arc::new(AtomicU64::new(0)));
        let rows: std::collections::HashMap<_, _> = m.rows().into_iter().collect();
        assert_eq!(rows["predict_compile_hits"], 0);
        assert_eq!(m.rows().len(), 19);
    }

    #[test]
    fn fan_out_records_effective_degree() {
        let op = OpMetrics::default();
        op.record_fan_out(3, 8); // only 3 morsels -> effective degree 3
        op.record_fan_out(100, 8);
        assert_eq!(op.morsels.load(Ordering::Relaxed), 103);
        assert_eq!(op.par_degree.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn duration_formatting() {
        assert_eq!(fmt_ns(12), "12ns");
        assert_eq!(fmt_ns(2_500), "2.5\u{b5}s");
        assert_eq!(fmt_ns(1_250_000), "1.250ms");
    }
}
