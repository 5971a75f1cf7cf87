//! The table scan: its zone terms, its planning (`plan_scan`) and its
//! chunk map, the map every other streaming operator composes onto.

use super::{emit, filter_mask, parallel, policy_detail_opt, share, Consume};
use super::{EvalContext, ExecOptions, OpMetrics, ParallelPolicy, PhysExpr, PhysicalPlan};
use crate::ast::{ColumnBound, Expr, UnOp};
use crate::catalog::Catalog;
use crate::error::{Result, SqlError};
use crate::plan::LogicalPlan;
use crate::schema::Schema;
use crate::table::{ColBounds, TableScan};
use crate::types::{DataType, Value};
use crate::udf::InferenceProvider;
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::time::Instant;

/// Narrow column `idx` to `[lo, hi]`: `col = 5` → `[5, 5]`, `col > 5` →
/// `[5, ∞)` (inclusive — pruning stays conservative for both strict and
/// non-strict forms).
fn tighten(bounds: &mut ColBounds, idx: usize, lo: Option<f64>, hi: Option<f64>) {
    let e = bounds.entry(idx).or_insert((None, None));
    if let Some(l) = lo {
        e.0 = Some(e.0.map_or(l, |x: f64| x.max(l)));
    }
    if let Some(h) = hi {
        e.1 = Some(e.1.map_or(h, |x: f64| x.min(h)));
    }
}

/// One side of a zone bound: a literal's value, or a `?` parameter's —
/// known only when the plan executes, cast as the plan casts it (a typed
/// parameter is planned under an identity `CAST`), and negated when the
/// plan negates it (`-?`, how a prepared statement reads `-5`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum ZoneBound {
    Value(f64),
    Param(usize, Option<DataType>, bool),
}

/// Column `.0` (of the scan) lies in `[.1, .2]`; a side is open when
/// `None`.
pub(crate) type ZoneTerm = (usize, Option<ZoneBound>, Option<ZoneBound>);

fn zone_bound(e: &Expr) -> Option<ZoneBound> {
    match e {
        Expr::Literal(v) => v.as_f64().map(ZoneBound::Value),
        Expr::Parameter(i) => Some(ZoneBound::Param(*i, None, false)),
        Expr::Cast { expr, to } => match **expr {
            Expr::Parameter(i) => Some(ZoneBound::Param(i, Some(*to), false)),
            _ => None,
        },
        Expr::Unary {
            op: UnOp::Neg,
            expr,
        } => match zone_bound(expr)? {
            ZoneBound::Param(i, to, negated) => Some(ZoneBound::Param(i, to, !negated)),
            ZoneBound::Value(_) => None,
        },
        _ => None,
    }
}

/// The zone-prunable terms of a predicate: AND-split into conjuncts, then
/// keep the column bounds ([`Expr::column_bound`]) whose bound is a
/// numeric literal or a `?` parameter. Everything else
/// (OR, NOT, expressions over the column) contributes no term — parts it
/// might match are never pruned.
pub(crate) fn zone_terms(pred: &Expr, schema: &Schema) -> Vec<ZoneTerm> {
    let term = |conj: &Expr| {
        let (name, bound) = conj.column_bound()?;
        let (lo, hi) = match bound {
            ColumnBound::Eq(e) => {
                let b = zone_bound(e)?;
                (Some(b), Some(b))
            }
            ColumnBound::Range { low, high } => {
                (low.and_then(zone_bound), high.and_then(zone_bound))
            }
        };
        let idx = schema.index_of(name)?;
        (lo.is_some() || hi.is_some()).then_some((idx, lo, hi))
    };
    pred.split_conjunction()
        .into_iter()
        .filter_map(term)
        .collect()
}

/// Bounds from zone terms, each parameter read from `params`, or left open
/// when `params` is `None` (at plan time). A parameter that is NULL or not
/// numeric leaves its side open, as such a literal does; a term with both
/// sides open bounds nothing.
pub(crate) fn resolve_zones(terms: &[ZoneTerm], params: Option<&[Value]>) -> ColBounds {
    let value = |b: Option<ZoneBound>| match b? {
        ZoneBound::Value(v) => Some(v),
        ZoneBound::Param(i, to, negated) => {
            let p = params?.get(i)?;
            let x = match to {
                Some(to) => p.cast(to).ok()?.as_f64()?,
                None => p.as_f64()?,
            };
            Some(if negated { -x } else { x })
        }
    };
    let mut bounds = ColBounds::new();
    for &(idx, lo, hi) in terms {
        let (lo, hi) = (value(lo), value(hi));
        if lo.is_some() || hi.is_some() {
            tighten(&mut bounds, idx, lo, hi);
        }
    }
    bounds
}

fn has_param(b: Option<ZoneBound>) -> bool {
    matches!(b, Some(ZoneBound::Param(..)))
}

/// Plan a [`LogicalPlan::Scan`] with the filter directly above it (if any)
/// fused in. The filter's bounds prune parts by their zone maps and narrow
/// the resident chunks by ranges on sorted columns here, at plan time —
/// or, when a bound is a `?` parameter, each time the plan executes, once
/// the parameters are bound ([`TableScan::bind`]), so a cached plan stays
/// shared; the filter itself runs per chunk at execution time, on what
/// is left.
pub(super) fn plan_scan(
    scan: &LogicalPlan,
    predicate: Option<&Expr>,
    catalog: &Catalog,
    provider: &dyn InferenceProvider,
    options: &ExecOptions,
) -> Result<PhysicalPlan> {
    let LogicalPlan::Scan {
        table,
        version,
        projection,
        schema,
    } = scan
    else {
        return Err(SqlError::Plan("plan_scan on a non-scan node".into()));
    };
    let mut source = catalog
        .scan_table(table, *version)?
        .project(projection.as_deref(), schema.clone())?;
    let terms = predicate.map(|p| zone_terms(p, schema)).unwrap_or_default();
    if terms
        .iter()
        .any(|&(_, lo, hi)| has_param(lo) || has_param(hi))
    {
        source.prune_when_bound(terms);
    } else {
        source.prune(&resolve_zones(&terms, None));
    }
    let policy = ParallelPolicy::from_options(options, source.rows());
    let predicate = predicate
        .map(|p| PhysExpr::compile(p, schema, provider))
        .transpose()?;
    Ok(PhysicalPlan::Scan {
        source,
        predicate,
        policy,
    })
}

/// The chunk map of a [`PhysicalPlan::Scan`]: one task per chunk reads it
/// (decoding a part), runs the fused filter, and hands the non-empty
/// survivors to `consume` in the same task; the outputs come back in
/// chunk order. A scan of at least two parts (or two runs of resident
/// chunks) that reads at least the fan-out threshold spreads its chunks
/// over the policy's workers ([`chunk_degree`]), the calling thread among
/// them, holding the decoded parts in flight within the table memory
/// budget ([`TableScan::decode_gate`]). Inside such a task nothing fans
/// out again: `consume` is told so. Otherwise the chunks go by in order on
/// this thread.
///
/// Meters the scan as a streaming operator: rows read (`rows_in`: after
/// pruning, before the filter), one output batch per chunk of survivors,
/// the query budget charged for each chunk materialized beyond them (a
/// decoded part, or the filter's input), and wall time that never
/// overlaps the consumer's: the map's wall time, split by the time tasks
/// spent reading against consuming.
pub(super) fn map_scan<T: Send>(
    source: &TableScan,
    predicate: Option<&PhysExpr>,
    policy: &ParallelPolicy,
    ctx: &EvalContext,
    op: &OpMetrics,
    consume: &Consume<T>,
) -> Result<Vec<T>> {
    // Pruning that waited for the parameters runs now, on this
    // execution's copy of the source; the plan stays shared.
    let (source, policy) = match source.bind(&ctx.params) {
        Some(bound) => {
            let policy = policy.for_rows(bound.rows());
            (op.bound_scan.get_or_init(|| bound), policy)
        }
        None => (source, *policy),
    };
    if source.narrowed().is_some() {
        op.sorted_ranges.fetch_add(1, AtomicOrdering::Relaxed);
    }
    let policy = &policy;
    let chunks: Vec<usize> = (0..source.chunk_count()).collect();
    let degree = chunk_degree(source, policy);
    let nested = degree > 1;
    if nested {
        op.record_fan_out(chunks.len(), degree);
    }
    let gate = source.decode_gate();
    let (read_ns, consume_ns) = (AtomicU64::new(0), AtomicU64::new(0));
    let started = Instant::now();
    let outputs = parallel::parallel_map(&chunks, degree, |&i| {
        ctx.cancel.check()?;
        let read = Instant::now();
        let _held = gate.reserve(source.chunk_bytes(i));
        let chunk = source.chunk(i)?;
        let n = chunk.num_rows();
        op.rows_in.fetch_add(n as u64, AtomicOrdering::Relaxed);
        if i < source.parts().len() || predicate.is_some() {
            ctx.budget
                .charge(n as u64, (n * chunk.num_columns() * 8) as u64)?;
        }
        let survivors = match predicate {
            Some(p) => chunk.filter(&filter_mask(p, &chunk, policy, ctx, op, nested)?)?,
            None => chunk,
        };
        let out = if survivors.num_rows() == 0 {
            None
        } else {
            emit(&survivors, op, ctx)?;
            Some(survivors)
        };
        let handed = Instant::now();
        read_ns.fetch_add((handed - read).as_nanos() as u64, AtomicOrdering::Relaxed);
        let out = out.map_or(Ok(None), |chunk| consume(chunk, nested));
        consume_ns.fetch_add(handed.elapsed().as_nanos() as u64, AtomicOrdering::Relaxed);
        out
    })?;
    let wall = started.elapsed().as_nanos() as u64;
    let own = share(wall, read_ns.into_inner(), consume_ns.into_inner());
    op.wall_ns.fetch_add(own, AtomicOrdering::Relaxed);
    Ok(outputs.into_iter().flatten().collect())
}

/// Workers a scan spreads its chunks over: the policy's degree (at most
/// one per chunk) when at least two parts remain after pruning, or the
/// resident tail is read as at least two runs, and the scan reads at least
/// the fan-out threshold, else 1.
fn chunk_degree(source: &TableScan, policy: &ParallelPolicy) -> usize {
    let chunked = source.parts().len() >= 2 || source.chunk_count() - source.parts().len() >= 2;
    if policy.degree > 1 && chunked && source.rows() >= policy.row_threshold {
        policy.degree.min(source.chunk_count())
    } else {
        1
    }
}

/// A scan's `EXPLAIN` detail, over `source` as it ran.
pub(super) fn scan_detail(
    source: &TableScan,
    predicate: Option<&PhysExpr>,
    policy: &ParallelPolicy,
) -> String {
    let mut detail = format!("rows={}", source.rows());
    if let Some(slice) = sorted_range_label(source) {
        detail.push_str(&format!(", {slice}"));
    }
    if let (pruned, total @ 1..) = source.pruned() {
        detail.push_str(&format!(", parts pruned {pruned}/{total}"));
    }
    let degree = chunk_degree(source, policy);
    if predicate.is_some() {
        detail.push_str(", fused filter");
        if let Some(p) = policy_detail_opt(policy).filter(|_| degree == 1) {
            detail.push_str(&format!(", {p}"));
        }
    }
    if degree > 1 {
        detail.push_str(&format!(
            ", chunks {}, degree {degree}",
            source.chunk_count()
        ));
    }
    detail
}

impl PhysicalPlan {
    /// `logical`, the text of the plan this one was built from, with each
    /// scan line that a range on a sorted column narrows followed by its
    /// slice and the rows it reads, `?`s bound to `params` (the plain
    /// `EXPLAIN` body). Scans pair with `Scan:` lines in tree order; when
    /// their counts differ the text comes back as it is.
    pub(crate) fn annotate_slices(&self, logical: &str, params: &[Value]) -> String {
        fn scans<'a>(plan: &'a PhysicalPlan, out: &mut Vec<&'a TableScan>) {
            match plan {
                PhysicalPlan::Scan { source, .. } => out.push(source),
                other => other.children().into_iter().for_each(|c| scans(c, out)),
            }
        }
        let mut sources = Vec::new();
        scans(self, &mut sources);
        let is_scan = |line: &str| line.trim_start().starts_with("Scan: ");
        if logical.lines().filter(|l| is_scan(l)).count() != sources.len() {
            return logical.to_string();
        }
        let mut sources = sources.into_iter();
        let mut out = String::new();
        for line in logical.lines() {
            out.push_str(line);
            if let Some(source) = is_scan(line).then(|| sources.next()).flatten() {
                let bound = source.bind(params);
                let source = bound.as_ref().unwrap_or(source);
                if let Some(slice) = sorted_range_label(source) {
                    out.push_str(&format!(" [{slice}, rows={}]", source.rows()));
                }
            }
            out.push('\n');
        }
        out
    }
}

/// The slice a range on a sorted column narrowed `source` to, as its scan
/// line shows it: `sorted range k [lo, hi)`, rows of the scan.
fn sorted_range_label(source: &TableScan) -> Option<String> {
    let (columns, rows) = source.narrowed()?;
    let schema = source.schema();
    let names: Vec<&str> = (columns.iter())
        .map(|&c| schema.column(c).name.as_str())
        .collect();
    Some(format!(
        "sorted range {} [{}, {})",
        names.join(", "),
        rows.start,
        rows.end
    ))
}
