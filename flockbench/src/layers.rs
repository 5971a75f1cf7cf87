//! Layer replay for the traced run.
//!
//! The harness executes each statement once whole (through `Client` or
//! `FlockSession`) and once layer by layer, calling the same public
//! functions the engine calls on a plan-cache miss: `tokenize` →
//! `normalize` → `parse_token_stream` → `plan_query` → the cross-optimizer
//! as a `PlanRewriter` → `optimize` → `create_physical_plan` →
//! `execute_metered`. Each call sits under a span; nothing inside Flock
//! is edited.

use crate::provider::ProviderCounters;
use crate::stats::median;
use crate::trace::{SpanId, Tracer};
use crate::workload::ratio;
use flock_core::{CrossOptimizer, FlockDb};
use flock_sql::ast::{Expr, Statement};
use flock_sql::exec::{create_physical_plan, EvalContext, OpSnapshot, PlanMetrics};
use flock_sql::plan::{plan_query, PlanContext, PlanRewriter};
use std::collections::BTreeMap;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;
use std::time::Instant;

/// Per-layer metric values of one run, by metric name.
#[derive(Debug, Default)]
pub struct Layers {
    values: BTreeMap<&'static str, f64>,
    /// Breakdowns too fine for a metric name (per statement, per share);
    /// written to the run's output file only.
    pub detail: serde_json::Map<String, serde_json::Value>,
}

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    pub fn iter(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        self.values.iter().map(|(k, v)| (*k, *v))
    }
}

/// One `SELECT` of a workload's mix and the share of the mix it has.
pub struct Probe {
    pub sql: String,
    pub weight: f64,
}

/// Times `f` under a span and pushes the duration onto `into`.
fn timed<T>(
    tracer: &Tracer,
    name: &'static str,
    request: u64,
    parent: Option<SpanId>,
    into: &mut Vec<f64>,
    f: impl FnOnce() -> T,
) -> T {
    let started = Instant::now();
    let out = tracer.span(name, request, parent, f);
    into.push(started.elapsed().as_nanos() as f64);
    out
}

/// The metrics a physical operator's self time and output rows go under.
fn op_metrics(operator: &str) -> Option<(&'static str, &'static str)> {
    Some(match operator {
        "Scan" | "PartScan" => ("exec.scan.ns", "exec.scan.rows"),
        "Filter" => ("exec.filter.ns", "exec.filter.rows"),
        "Project" => ("exec.project.ns", "exec.project.rows"),
        "HashAggregate" => ("exec.aggregate.ns", "exec.aggregate.rows"),
        "HashJoin" | "NestedLoopJoin" => ("exec.join.ns", "exec.join.rows"),
        "Sort" => ("exec.sort.ns", "exec.sort.rows"),
        _ => return None,
    })
}

/// The layers whose replay times are taken away from the whole statement
/// to leave `engine.self_ns`. The replay's own execution stands in for
/// the statement's, so what is left is bookkeeping.
const ACCOUNTED: [&str; 7] = [
    "lexer.tokenize_ns",
    "parser.parse_ns",
    "plan.plan_ns",
    "xopt.rewrite_ns",
    "optimizer.optimize_ns",
    "exec.physical_plan_ns",
    "exec.replay_ns",
];

/// Timing samples by metric name.
type Samples = BTreeMap<&'static str, Vec<f64>>;

/// One pass of `sql` through the layers, each call under a child span of
/// `request`'s root and timed into `t`. Returns the statement's token
/// count and the size of the pipeline the cross-optimizer left in the
/// plan relative to the deployed one (1 when it left the model alone).
fn replay_layers(
    db: &FlockDb,
    xopt: &CrossOptimizer,
    sql: &str,
    request: u64,
    tracer: &Tracer,
    t: &mut Samples,
) -> (usize, f64) {
    let engine = db.database();
    let root = tracer.open("engine.replay", request, None);
    tracer.set_current(request, Some(root));
    macro_rules! layer {
        ($span:literal, $metric:literal, $body:expr) => {
            timed(
                tracer,
                $span,
                request,
                Some(root),
                t.entry($metric).or_default(),
                || $body,
            )
        };
    }

    let tokens = layer!("lexer.tokenize", "lexer.tokenize_ns", {
        flock_sql::lexer::tokenize(sql).expect("probe statements lex")
    });
    layer!("plancache.normalize", "plancache.normalize_ns", {
        std::hint::black_box(flock_sql::plancache::normalize(&tokens));
    });
    let token_count = tokens.len();
    let (stmt, _) = layer!("parser.parse", "parser.parse_ns", {
        flock_sql::parser::parse_token_stream(tokens).expect("probe statements parse")
    });
    let Statement::Query(query) = stmt else {
        panic!("probes are SELECT statements")
    };
    let catalog = engine.catalog();
    let provider = engine.inference_provider();
    let options = engine.exec_options();
    let plan = layer!("plan.plan", "plan.plan_ns", {
        plan_query(&query, &PlanContext::new(&catalog, provider.as_ref())).expect("probe plans")
    });
    let base_model = predict_model(&plan);
    let plan = layer!("xopt.rewrite", "xopt.rewrite_ns", {
        xopt.rewrite(plan, &catalog)
            .expect("cross-optimizer accepts the plan")
    });
    let nodes_ratio = match (base_model, predict_model(&plan)) {
        (Some(base), Some(derived)) => complexity_ratio(db, &base, &derived),
        _ => 1.0,
    };
    let plan = layer!("optimizer.optimize", "optimizer.optimize_ns", {
        flock_sql::optimizer::optimize(plan, &engine.optimizer_config()).expect("plan optimizes")
    });
    let physical = layer!("exec.physical_plan", "exec.physical_plan_ns", {
        create_physical_plan(&plan, &catalog, provider.as_ref(), &options).expect("physical plan")
    });
    let ctx = EvalContext::new(provider, "admin", options.threads);
    let metrics = PlanMetrics::for_plan(&physical);
    layer!("exec.total", "exec.replay_ns", {
        std::hint::black_box(
            physical
                .execute_metered(&ctx, &metrics)
                .expect("plan executes"),
        );
    });
    tracer.close(root);
    (token_count, nodes_ratio)
}

/// Executes `sql` whole under a root span named `span`; the duration goes
/// into `t` under `metric`.
fn whole_statement(
    session: &mut flock_core::FlockSession,
    sql: &str,
    span: &'static str,
    metric: &'static str,
    request: u64,
    tracer: &Tracer,
    t: &mut Samples,
) {
    let root = tracer.open(span, request, None);
    tracer.set_current(request, Some(root));
    let started = Instant::now();
    session.execute(sql).expect("probe executes");
    t.entry(metric)
        .or_default()
        .push(started.elapsed().as_nanos() as f64);
    tracer.close(root);
}

/// Files a cached execution's per-operator self times and row counts.
fn operator_breakdown(snap: &OpSnapshot, v: &mut BTreeMap<&'static str, f64>) {
    v.insert("exec.total_ns", snap.total_ns as f64);
    v.insert("exec.rows_scanned", snap.rows_scanned() as f64);
    v.insert("exec.rows_returned", snap.rows_out as f64);
    v.insert("exec.parallel_ops", snap.parallel_ops() as f64);
    let mut morsels = 0.0;
    for (_, node) in snap.walk() {
        morsels += node.morsels as f64;
        if let Some((ns, rows)) = op_metrics(&node.name) {
            *v.entry(ns).or_default() += node.self_ns as f64;
            *v.entry(rows).or_default() += node.rows_out as f64;
        }
    }
    v.insert("exec.morsels", morsels);
}

/// Replays every probe `reps` times through the layers and as whole
/// statements, and writes the mix-weighted per-statement values of the
/// lexer, plancache, parser, plan, xopt, optimizer, exec, provider and
/// engine metrics into `out`. Returns the same values probe by probe.
///
/// `engine.stmt_ns` is the whole statement with the plan cache emptied
/// first, so that every layer runs; `engine.self_ns` is what is left of it
/// after the layers' replay times are taken away — session bookkeeping,
/// access checks, catalog snapshots, logging.
pub fn replay_selects(
    db: &FlockDb,
    provider_counters: &ProviderCounters,
    probes: &[Probe],
    reps: usize,
    tracer: &Arc<Tracer>,
    out: &mut Layers,
) -> Vec<BTreeMap<&'static str, f64>> {
    let xopt = CrossOptimizer::new(db.registry().clone(), db.xopt_config());
    let total_weight: f64 = probes.iter().map(|p| p.weight).sum();
    let mut mix: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut request = 1_000_000u64; // apart from the timed phase's ids
    let mut per_probe = Vec::with_capacity(probes.len());
    let mut statements = Vec::with_capacity(probes.len());

    for probe in probes {
        let sql = probe.sql.as_str();
        let mut t = Samples::new();
        let (mut token_count, mut nodes_ratio) = (0, 1.0);
        for _ in 0..reps {
            request += 1;
            (token_count, nodes_ratio) = replay_layers(db, &xopt, sql, request, tracer, &mut t);
        }

        // Whole statements: cold (every layer runs), then cached.
        let mut session = db.session("admin");
        let mut cached_snapshot: Option<OpSnapshot> = None;
        let (mut provider_ns, mut provider_calls, mut provider_rows) = (Vec::new(), 0.0, 0.0);
        for _ in 0..reps {
            db.database().plan_cache().clear();
            request += 1;
            whole_statement(
                &mut session,
                sql,
                "engine.stmt",
                "engine.stmt_ns",
                request,
                tracer,
                &mut t,
            );
            let before = (
                provider_counters.wall_ns.load(Relaxed),
                provider_counters.calls.load(Relaxed),
                provider_counters.rows.load(Relaxed),
            );
            request += 1;
            whole_statement(
                &mut session,
                sql,
                "engine.stmt_cached",
                "engine.stmt_cached_ns",
                request,
                tracer,
                &mut t,
            );
            provider_ns.push((provider_counters.wall_ns.load(Relaxed) - before.0) as f64);
            provider_calls = (provider_counters.calls.load(Relaxed) - before.1) as f64;
            provider_rows = (provider_counters.rows.load(Relaxed) - before.2) as f64;
            cached_snapshot = session.last_query_metrics();
        }
        tracer.set_current(0, None);

        // Medians of this probe's timings, nanoseconds per statement.
        let mut v: BTreeMap<&'static str, f64> = t
            .iter()
            .map(|(name, samples)| (*name, median(samples)))
            .collect();
        v.insert("lexer.tokens_per_stmt", token_count as f64);
        v.insert("xopt.specialized_nodes_ratio", nodes_ratio);
        v.insert("provider.predict_ns", median(&provider_ns));
        v.insert("provider.predict_calls", provider_calls);
        v.insert("provider.rows", provider_rows);
        v.insert("exec.predict.ns", median(&provider_ns));
        v.insert("exec.predict.rows", provider_rows);
        if let Some(snap) = &cached_snapshot {
            operator_breakdown(snap, &mut v);
        }
        let accounted: f64 = ACCOUNTED.iter().filter_map(|k| v.get(k)).sum();
        let whole = v.get("engine.stmt_ns").copied().unwrap_or(0.0);
        v.insert("engine.self_ns", (whole - accounted).max(0.0));
        v.insert(
            "engine.attribution_gap_ratio",
            ratio((accounted - whole).max(0.0), whole),
        );

        for (name, value) in &v {
            *mix.entry(name).or_default() += value * probe.weight / total_weight;
        }
        let mut doc: serde_json::Map<String, serde_json::Value> = v
            .iter()
            .map(|(name, value)| ((*name).to_string(), serde_json::Value::from(*value)))
            .collect();
        doc.insert("sql".to_string(), sql.into());
        doc.insert("weight".to_string(), probe.weight.into());
        statements.push(serde_json::Value::Object(doc));
        per_probe.push(v);
    }
    out.detail.insert(
        "statements".to_string(),
        serde_json::Value::Array(statements),
    );
    mix.remove("exec.replay_ns");
    for (name, value) in mix {
        out.set(name, value);
    }
    let scanned = out.get("exec.rows_scanned").unwrap_or(0.0);
    let returned = out.get("exec.rows_returned").unwrap_or(0.0);
    out.set("exec.rows_scanned_per_returned", ratio(scanned, returned));
    per_probe
}

/// The model named by the first `PREDICT` in a plan.
fn predict_model(plan: &flock_sql::plan::LogicalPlan) -> Option<String> {
    let mut found = None;
    plan.visit_exprs(&mut |e| {
        e.walk(&mut |inner| {
            if let (None, Expr::Predict { model, .. }) = (&found, inner) {
                found = Some(model.clone());
            }
        })
    });
    found
}

/// Size of the pipeline the cross-optimizer left in the plan, relative to
/// the deployed one (1 when it left the model alone).
fn complexity_ratio(db: &FlockDb, base: &str, derived: &str) -> f64 {
    match (db.registry().get(base), db.registry().get(derived)) {
        (Some(b), Some(d)) if b.metadata.complexity > 0 => {
            d.metadata.complexity as f64 / b.metadata.complexity as f64
        }
        _ => 1.0,
    }
}

/// Median nanoseconds of `f` over `reps` calls, each under a span.
pub fn median_ns(tracer: &Tracer, name: &'static str, reps: usize, mut f: impl FnMut()) -> f64 {
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        timed(tracer, name, 0, None, &mut samples, &mut f);
    }
    median(&samples)
}
