//! Rule-based logical optimizer.
//!
//! Classical relational rules live here (constant folding, predicate
//! pushdown, equi-join extraction, projection pruning). The SQL×ML
//! *cross-optimizer* rules from the paper (predicate push-up across
//! models, feature pruning via model sparsity, model compression, physical
//! operator selection) are layered on top by `flock-core` — they operate
//! on the same [`LogicalPlan`].

use crate::ast::{BinOp, Expr, JoinType};
use crate::error::Result;
use crate::exec::expr::eval_binary;
use crate::exec::functions::eval_function;
use crate::plan::{rewrite_expr, LogicalPlan};
use crate::schema::Schema;
use crate::types::Value;
use std::collections::HashSet;
use std::sync::Arc;

/// Which relational rules run. All on by default; ablation benches toggle
/// them individually.
#[derive(Debug, Clone, Copy)]
pub struct OptimizerConfig {
    pub constant_folding: bool,
    pub predicate_pushdown: bool,
    pub join_extraction: bool,
    pub projection_pruning: bool,
}

impl Default for OptimizerConfig {
    fn default() -> Self {
        OptimizerConfig {
            constant_folding: true,
            predicate_pushdown: true,
            join_extraction: true,
            projection_pruning: true,
        }
    }
}

impl OptimizerConfig {
    pub fn disabled() -> Self {
        OptimizerConfig {
            constant_folding: false,
            predicate_pushdown: false,
            join_extraction: false,
            projection_pruning: false,
        }
    }
}

/// Optimize a logical plan.
pub fn optimize(plan: LogicalPlan, config: &OptimizerConfig) -> Result<LogicalPlan> {
    let mut plan = plan;
    if config.constant_folding {
        plan = fold_constants_plan(plan)?;
    }
    if config.predicate_pushdown {
        // run to a small fixpoint: pushing can expose further pushes
        for _ in 0..3 {
            plan = push_down_filters(plan)?;
        }
    }
    if config.join_extraction {
        plan = extract_join_keys(plan)?;
    }
    if config.projection_pruning {
        // Before pruning, so the pre-projection it adds only carries the
        // columns somebody above it reads.
        plan = share_predicts(plan)?;
        let required: Vec<String> =
            plan.schema().names().iter().map(|s| s.to_string()).collect();
        plan = prune_columns(plan, &required)?;
        plan = remove_trivial_projects(plan);
    }
    Ok(plan)
}

// ---------------------------------------------------------------- folding

/// Evaluate literal-only subexpressions at plan time.
pub fn fold_expr(e: Expr) -> Result<Expr> {
    rewrite_expr(e, &mut |x| {
        Ok(match &x {
            Expr::Binary { left, op, right } => {
                if let (Expr::Literal(l), Expr::Literal(r)) = (&**left, &**right) {
                    match eval_binary(l, *op, r) {
                        Ok(v) => Expr::Literal(v),
                        Err(_) => x, // fold nothing; fail at runtime instead
                    }
                } else {
                    simplify_logic(x)
                }
            }
            Expr::Function { name, args, .. } => {
                let literals: Option<Vec<Value>> = args
                    .iter()
                    .map(|a| match a {
                        Expr::Literal(v) => Some(v.clone()),
                        _ => None,
                    })
                    .collect();
                match literals {
                    Some(vals) if crate::plan::AggFunc::parse(name).is_none() => {
                        match eval_function(name, &vals) {
                            Ok(v) => Expr::Literal(v),
                            Err(_) => x,
                        }
                    }
                    _ => x,
                }
            }
            Expr::Cast { expr, to } => {
                if let Expr::Literal(v) = &**expr {
                    match v.cast(*to) {
                        Ok(folded) => Expr::Literal(folded),
                        Err(_) => x,
                    }
                } else {
                    x
                }
            }
            Expr::Unary {
                op: crate::ast::UnOp::Neg,
                expr,
            } => match &**expr {
                // `-i64::MIN` overflows: left to the executor's typed error
                Expr::Literal(Value::Int(i)) => match i.checked_neg() {
                    Some(n) => Expr::Literal(Value::Int(n)),
                    None => x,
                },
                Expr::Literal(Value::Float(f)) => Expr::Literal(Value::Float(-f)),
                _ => x,
            },
            _ => x,
        })
    })
}

/// `TRUE AND p -> p`, `FALSE OR p -> p`, etc.
fn simplify_logic(x: Expr) -> Expr {
    if let Expr::Binary { left, op, right } = &x {
        match op {
            BinOp::And => {
                if let Expr::Literal(Value::Bool(true)) = **left {
                    return (**right).clone();
                }
                if let Expr::Literal(Value::Bool(true)) = **right {
                    return (**left).clone();
                }
                if matches!(**left, Expr::Literal(Value::Bool(false)))
                    || matches!(**right, Expr::Literal(Value::Bool(false)))
                {
                    return Expr::Literal(Value::Bool(false));
                }
            }
            BinOp::Or => {
                if let Expr::Literal(Value::Bool(false)) = **left {
                    return (**right).clone();
                }
                if let Expr::Literal(Value::Bool(false)) = **right {
                    return (**left).clone();
                }
                if matches!(**left, Expr::Literal(Value::Bool(true)))
                    || matches!(**right, Expr::Literal(Value::Bool(true)))
                {
                    return Expr::Literal(Value::Bool(true));
                }
            }
            _ => {}
        }
    }
    x
}

fn fold_constants_plan(plan: LogicalPlan) -> Result<LogicalPlan> {
    map_plan_exprs(plan, &mut fold_expr)
}

/// Apply `f` to every expression in the plan, recursively.
pub(crate) fn map_plan_exprs(
    plan: LogicalPlan,
    f: &mut impl FnMut(Expr) -> Result<Expr>,
) -> Result<LogicalPlan> {
    let plan = map_inputs(plan, &mut |input| map_plan_exprs(input, f))?;
    Ok(match plan {
        LogicalPlan::Filter { input, predicate } => LogicalPlan::Filter {
            input,
            predicate: f(predicate)?,
        },
        LogicalPlan::Project {
            input,
            exprs,
            schema,
        } => LogicalPlan::Project {
            input,
            exprs: exprs.into_iter().map(&mut *f).collect::<Result<_>>()?,
            schema,
        },
        LogicalPlan::Aggregate {
            input,
            group,
            mut aggs,
            schema,
        } => {
            for a in &mut aggs {
                a.arg = a.arg.take().map(&mut *f).transpose()?;
            }
            LogicalPlan::Aggregate {
                input,
                group: group.into_iter().map(&mut *f).collect::<Result<_>>()?,
                aggs,
                schema,
            }
        }
        LogicalPlan::Join {
            left,
            right,
            join_type,
            on,
            filter,
            schema,
        } => LogicalPlan::Join {
            left,
            right,
            join_type,
            on: on
                .into_iter()
                .map(|(l, r)| Ok((f(l)?, f(r)?)))
                .collect::<Result<_>>()?,
            filter: filter.map(&mut *f).transpose()?,
            schema,
        },
        LogicalPlan::Sort { input, keys } => LogicalPlan::Sort {
            input,
            keys: keys
                .into_iter()
                .map(|(e, asc)| Ok((f(e)?, asc)))
                .collect::<Result<_>>()?,
        },
        LogicalPlan::Values { schema, rows } => LogicalPlan::Values {
            schema,
            rows: rows
                .into_iter()
                .map(|row| row.into_iter().map(&mut *f).collect::<Result<_>>())
                .collect::<Result<_>>()?,
        },
        other => other,
    })
}

/// Rebuild `plan` with `f` applied to each of its inputs (leaves come back
/// unchanged): the recursion step of every rule that only rewrites some
/// node kinds.
fn map_inputs(
    plan: LogicalPlan,
    f: &mut impl FnMut(LogicalPlan) -> Result<LogicalPlan>,
) -> Result<LogicalPlan> {
    Ok(match plan {
        LogicalPlan::Filter { input, predicate } => LogicalPlan::Filter {
            input: Box::new(f(*input)?),
            predicate,
        },
        LogicalPlan::Project {
            input,
            exprs,
            schema,
        } => LogicalPlan::Project {
            input: Box::new(f(*input)?),
            exprs,
            schema,
        },
        LogicalPlan::Aggregate {
            input,
            group,
            aggs,
            schema,
        } => LogicalPlan::Aggregate {
            input: Box::new(f(*input)?),
            group,
            aggs,
            schema,
        },
        LogicalPlan::Join {
            left,
            right,
            join_type,
            on,
            filter,
            schema,
        } => LogicalPlan::Join {
            left: Box::new(f(*left)?),
            right: Box::new(f(*right)?),
            join_type,
            on,
            filter,
            schema,
        },
        LogicalPlan::Sort { input, keys } => LogicalPlan::Sort {
            input: Box::new(f(*input)?),
            keys,
        },
        LogicalPlan::Limit {
            input,
            limit,
            offset,
        } => LogicalPlan::Limit {
            input: Box::new(f(*input)?),
            limit,
            offset,
        },
        LogicalPlan::Distinct { input } => LogicalPlan::Distinct {
            input: Box::new(f(*input)?),
        },
        LogicalPlan::Union { inputs, schema } => LogicalPlan::Union {
            inputs: inputs.into_iter().map(&mut *f).collect::<Result<_>>()?,
            schema,
        },
        leaf @ (LogicalPlan::Scan { .. } | LogicalPlan::Values { .. }) => leaf,
    })
}

// ------------------------------------------------------------- pushdown

/// Push filters toward the scans.
pub fn push_down_filters(plan: LogicalPlan) -> Result<LogicalPlan> {
    match plan {
        LogicalPlan::Filter { input, predicate } => {
            let input = push_down_filters(*input)?;
            push_filter_into(input, predicate)
        }
        other => map_inputs(other, &mut push_down_filters),
    }
}

/// Push one filter predicate into `input` as deep as possible.
fn push_filter_into(input: LogicalPlan, predicate: Expr) -> Result<LogicalPlan> {
    match input {
        // Filter(Filter(x)) -> merged
        LogicalPlan::Filter {
            input: inner,
            predicate: p2,
        } => push_filter_into(*inner, Expr::and(p2, predicate)),
        // Push through projection by substituting output exprs, unless the
        // substituted predicate would duplicate a PREDICT call below the
        // projection (the cross-optimizer owns that decision).
        LogicalPlan::Project {
            input: inner,
            exprs,
            schema,
        } => {
            let mut pushable = Vec::new();
            let mut keep = Vec::new();
            for part in predicate.split_conjunction() {
                match substitute_projection(part, &exprs, &schema) {
                    Some(sub) if !contains_predict(&sub) => pushable.push(sub),
                    _ => keep.push(part.clone()),
                }
            }
            let mut new_input = *inner;
            if let Some(p) = Expr::conjunction(pushable) {
                new_input = push_filter_into(new_input, p)?;
            }
            let projected = LogicalPlan::Project {
                input: Box::new(new_input),
                exprs,
                schema,
            };
            Ok(wrap_filter(projected, Expr::conjunction(keep)))
        }
        // Split by side across a join.
        LogicalPlan::Join {
            left,
            right,
            join_type,
            on,
            filter,
            schema,
        } => {
            let left_cols: HashSet<String> = left
                .schema()
                .names()
                .iter()
                .map(|s| s.to_ascii_lowercase())
                .collect();
            let right_cols: HashSet<String> = right
                .schema()
                .names()
                .iter()
                .map(|s| s.to_ascii_lowercase())
                .collect();
            let mut to_left = Vec::new();
            let mut to_right = Vec::new();
            let mut to_join = Vec::new();
            for part in predicate.split_conjunction() {
                let mut cols = vec![];
                part.referenced_columns(&mut cols);
                let l = cols
                    .iter()
                    .any(|(_, n)| left_cols.contains(&n.to_ascii_lowercase()));
                let r = cols
                    .iter()
                    .any(|(_, n)| right_cols.contains(&n.to_ascii_lowercase()));
                match (l, r, join_type) {
                    (true, false, _) => to_left.push(part.clone()),
                    // Pushing below the null-producing side of a LEFT join
                    // would change semantics; keep above instead.
                    (false, true, JoinType::Left) => to_join.push(part.clone()),
                    (false, true, _) => to_right.push(part.clone()),
                    _ => to_join.push(part.clone()),
                }
            }
            let mut l = *left;
            if let Some(p) = Expr::conjunction(to_left) {
                l = push_filter_into(l, p)?;
            }
            let mut r = *right;
            if let Some(p) = Expr::conjunction(to_right) {
                r = push_filter_into(r, p)?;
            }
            // Mixed conjuncts merge into the join's residual filter for
            // inner joins (enabling key extraction); for LEFT joins they
            // must stay above.
            let (new_filter, above) = if join_type == JoinType::Inner {
                (
                    Expr::conjunction(
                        filter
                            .into_iter()
                            .chain(to_join)
                            .collect::<Vec<_>>(),
                    ),
                    None,
                )
            } else {
                (filter, Expr::conjunction(to_join))
            };
            let joined = LogicalPlan::Join {
                left: Box::new(l),
                right: Box::new(r),
                join_type,
                on,
                filter: new_filter,
                schema,
            };
            Ok(wrap_filter(joined, above))
        }
        // Push below sort (sorting commutes with filtering).
        LogicalPlan::Sort { input, keys } => Ok(LogicalPlan::Sort {
            input: Box::new(push_filter_into(*input, predicate)?),
            keys,
        }),
        // Push conjuncts that only touch group columns below an aggregate.
        LogicalPlan::Aggregate {
            input,
            group,
            aggs,
            schema,
        } => {
            let mut pushable = Vec::new();
            let mut keep = Vec::new();
            for part in predicate.split_conjunction() {
                match substitute_group_refs(part, &group) {
                    Some(sub) => pushable.push(sub),
                    None => keep.push(part.clone()),
                }
            }
            let mut new_input = *input;
            if let Some(p) = Expr::conjunction(pushable) {
                new_input = push_filter_into(new_input, p)?;
            }
            let agg = LogicalPlan::Aggregate {
                input: Box::new(new_input),
                group,
                aggs,
                schema,
            };
            Ok(wrap_filter(agg, Expr::conjunction(keep)))
        }
        other => Ok(wrap_filter(other, Some(predicate))),
    }
}

fn wrap_filter(plan: LogicalPlan, predicate: Option<Expr>) -> LogicalPlan {
    match predicate {
        Some(p) => LogicalPlan::Filter {
            input: Box::new(plan),
            predicate: p,
        },
        None => plan,
    }
}

/// Rewrite a predicate over a projection's output into one over its input,
/// if every referenced output column maps to a projection expression.
fn substitute_projection(pred: &Expr, exprs: &[Expr], schema: &Schema) -> Option<Expr> {
    let result = rewrite_expr(pred.clone(), &mut |x| match x {
        Expr::Column { ref name, .. } => match schema.index_of(name) {
            Some(i) => Ok(exprs[i].clone()),
            None => Err(crate::error::SqlError::Plan("no mapping".into())),
        },
        other => Ok(other),
    });
    result.ok()
}

/// Rewrite `#gN` references back to the underlying group expressions;
/// returns `None` when the predicate touches aggregate outputs.
fn substitute_group_refs(pred: &Expr, group: &[Expr]) -> Option<Expr> {
    let result = rewrite_expr(pred.clone(), &mut |x| match x {
        Expr::Column { ref name, .. } => {
            if let Some(n) = name.strip_prefix("#g") {
                if let Ok(i) = n.parse::<usize>() {
                    if let Some(g) = group.get(i) {
                        return Ok(g.clone());
                    }
                }
            }
            Err(crate::error::SqlError::Plan("aggregate ref".into()))
        }
        other => Ok(other),
    });
    result.ok()
}

fn contains_predict(e: &Expr) -> bool {
    let mut found = false;
    e.walk(&mut |x| {
        if matches!(x, Expr::Predict { .. }) {
            found = true;
        }
    });
    found
}

// ------------------------------------------------------------- score once

/// Name of the pre-projection column holding a PREDICT that `refs`
/// expressions of one SELECT block read. The count rides in the name
/// because the name is all a logical plan hands the physical planner,
/// whose `EXPLAIN ANALYZE` label reports it (see [`shared_predict_refs`]).
fn shared_predict_name(slot: usize, refs: usize) -> String {
    format!("#p{slot}x{refs}")
}

/// How many expressions read the shared PREDICT a column of this name
/// holds; `None` for every other column.
pub fn shared_predict_refs(column: &str) -> Option<usize> {
    column.strip_prefix("#p")?.split_once('x')?.1.parse().ok()
}

/// Score once: a `PREDICT(model, args…)` that a SELECT list carries and
/// that the same block reads again — in its WHERE clause (`… AS s … WHERE
/// PREDICT(…) > 0.5`, or an `ORDER BY` key the planner turned into a
/// hidden select item) or elsewhere in the list — is computed by a
/// pre-projection below the filter and read as a column above it, so
/// every row is scored once instead of once per mention. Conjuncts that
/// do not read the score stay below the pre-projection and spare the
/// rows they reject from being scored at all. Only a whole select item
/// can be shared: the projection's schema is what gives the new column
/// its type (the optimizer cannot ask the provider).
pub fn share_predicts(plan: LogicalPlan) -> Result<LogicalPlan> {
    let LogicalPlan::Project {
        input,
        exprs,
        schema,
    } = plan
    else {
        return map_inputs(plan, &mut share_predicts);
    };
    let (predicate, base) = match share_predicts(*input)? {
        LogicalPlan::Filter { input, predicate } => (Some(predicate), *input),
        other => (None, other),
    };
    // Candidates: PREDICTs that are select items; shared: read twice or more.
    let mut shared: Vec<(Expr, crate::types::DataType, usize)> = Vec::new();
    for (e, col) in exprs.iter().zip(schema.columns()) {
        if matches!(e, Expr::Predict { .. }) && !shared.iter().any(|(s, ..)| s == e) {
            shared.push((e.clone(), col.data_type, 0));
        }
    }
    for e in exprs.iter().chain(&predicate) {
        e.walk(&mut |x| {
            if let Some(hit) = shared.iter_mut().find(|(s, ..)| s == x) {
                hit.2 += 1;
            }
        });
    }
    shared.retain(|(_, _, refs)| *refs >= 2);
    // Pass-through is by name, so the base's names must be unambiguous.
    let names = base.schema().names();
    let distinct: HashSet<String> = names.iter().map(|n| n.to_ascii_lowercase()).collect();
    if shared.is_empty() || distinct.len() != names.len() {
        return Ok(LogicalPlan::Project {
            input: Box::new(wrap_filter(base, predicate)),
            exprs,
            schema,
        });
    }

    let column = |slot: usize| Expr::Column {
        qualifier: None,
        name: shared_predict_name(slot, shared[slot].2),
    };
    let read_shared = |e: Expr| {
        rewrite_expr(e, &mut |x| {
            Ok(match shared.iter().position(|(s, ..)| *s == x) {
                Some(slot) => column(slot),
                None => x,
            })
        })
    };
    let mut below = Vec::new();
    let mut above = Vec::new();
    for part in predicate.iter().flat_map(Expr::split_conjunction) {
        let rewritten = read_shared(part.clone())?;
        if rewritten == *part {
            below.push(rewritten);
        } else {
            above.push(rewritten);
        }
    }

    let base = wrap_filter(base, Expr::conjunction(below));
    let mut pre_cols = base.schema().columns().to_vec();
    let mut pre_exprs: Vec<Expr> = pre_cols
        .iter()
        .map(|c| Expr::Column {
            qualifier: None,
            name: c.name.clone(),
        })
        .collect();
    for (slot, (predict, data_type, refs)) in shared.iter().enumerate() {
        pre_cols.push(crate::schema::ColumnDef::new(
            shared_predict_name(slot, *refs),
            *data_type,
        ));
        pre_exprs.push(predict.clone());
    }
    let pre = LogicalPlan::Project {
        input: Box::new(base),
        exprs: pre_exprs,
        schema: Arc::new(Schema::new(pre_cols)),
    };
    Ok(LogicalPlan::Project {
        input: Box::new(wrap_filter(pre, Expr::conjunction(above))),
        exprs: exprs.into_iter().map(read_shared).collect::<Result<_>>()?,
        schema,
    })
}

// -------------------------------------------------------- join extraction

/// Move equi conjuncts from a join's residual filter into its key list.
pub fn extract_join_keys(plan: LogicalPlan) -> Result<LogicalPlan> {
    Ok(match plan {
        LogicalPlan::Join {
            left,
            right,
            join_type,
            mut on,
            filter,
            schema,
        } => {
            let left = Box::new(extract_join_keys(*left)?);
            let right = Box::new(extract_join_keys(*right)?);
            let mut residual = Vec::new();
            if let Some(f) = filter {
                let left_cols: HashSet<String> = left
                    .schema()
                    .names()
                    .iter()
                    .map(|s| s.to_ascii_lowercase())
                    .collect();
                for part in f.split_conjunction() {
                    if join_type == JoinType::Inner {
                        if let Expr::Binary {
                            left: a,
                            op: BinOp::Eq,
                            right: b,
                        } = part
                        {
                            let sa = expr_side(a, &left_cols);
                            let sb = expr_side(b, &left_cols);
                            match (sa, sb) {
                                (ExprSide::Left, ExprSide::Right) => {
                                    on.push(((**a).clone(), (**b).clone()));
                                    continue;
                                }
                                (ExprSide::Right, ExprSide::Left) => {
                                    on.push(((**b).clone(), (**a).clone()));
                                    continue;
                                }
                                _ => {}
                            }
                        }
                    }
                    residual.push(part.clone());
                }
            }
            LogicalPlan::Join {
                left,
                right,
                join_type,
                on,
                filter: Expr::conjunction(residual),
                schema,
            }
        }
        other => map_inputs(other, &mut extract_join_keys)?,
    })
}

#[derive(PartialEq, Clone, Copy)]
enum ExprSide {
    Left,
    Right,
    Mixed,
    None,
}

fn expr_side(e: &Expr, left_cols: &HashSet<String>) -> ExprSide {
    let mut cols = vec![];
    e.referenced_columns(&mut cols);
    if cols.is_empty() {
        return ExprSide::None;
    }
    let mut l = false;
    let mut r = false;
    for (_, n) in cols {
        if left_cols.contains(&n.to_ascii_lowercase()) {
            l = true;
        } else {
            r = true;
        }
    }
    match (l, r) {
        (true, false) => ExprSide::Left,
        (false, true) => ExprSide::Right,
        _ => ExprSide::Mixed,
    }
}

// ------------------------------------------------------ projection pruning

/// Remove unused columns, setting scan projections. `required` is the set
/// of output column names the parent needs (in any order).
pub fn prune_columns(plan: LogicalPlan, required: &[String]) -> Result<LogicalPlan> {
    let req: HashSet<String> = required.iter().map(|s| s.to_ascii_lowercase()).collect();
    Ok(match plan {
        LogicalPlan::Scan {
            table,
            version,
            projection,
            schema,
        } => {
            // `projection` indices are relative to the *current* schema
            // (idempotent re-pruning); compose them.
            let keep: Vec<usize> = (0..schema.len())
                .filter(|&i| req.contains(&schema.column(i).name.to_ascii_lowercase()))
                .collect();
            let keep = if keep.is_empty() { vec![0] } else { keep };
            if keep.len() == schema.len() {
                return Ok(LogicalPlan::Scan {
                    table,
                    version,
                    projection,
                    schema,
                });
            }
            let new_projection = match projection {
                Some(old) => keep.iter().map(|&i| old[i]).collect(),
                None => keep.clone(),
            };
            let new_schema = Arc::new(schema.project(&keep));
            LogicalPlan::Scan {
                table,
                version,
                projection: Some(new_projection),
                schema: new_schema,
            }
        }
        LogicalPlan::Project {
            input,
            exprs,
            schema,
        } => {
            // Keep only required output columns.
            let keep: Vec<usize> = (0..schema.len())
                .filter(|&i| req.contains(&schema.column(i).name.to_ascii_lowercase()))
                .collect();
            let keep = if keep.is_empty() { vec![0] } else { keep };
            let kept_exprs: Vec<Expr> = keep.iter().map(|&i| exprs[i].clone()).collect();
            let kept_schema = Arc::new(schema.project(&keep));
            // Columns the kept expressions need from the input.
            let mut needed = Vec::new();
            for e in &kept_exprs {
                e.referenced_columns(&mut needed);
            }
            let needed: Vec<String> = needed.into_iter().map(|(_, n)| n).collect();
            LogicalPlan::Project {
                input: Box::new(prune_columns(*input, &needed)?),
                exprs: kept_exprs,
                schema: kept_schema,
            }
        }
        LogicalPlan::Filter { input, predicate } => {
            let mut needed: Vec<(Option<String>, String)> = vec![];
            predicate.referenced_columns(&mut needed);
            let mut names: Vec<String> = needed.into_iter().map(|(_, n)| n).collect();
            names.extend(required.iter().cloned());
            LogicalPlan::Filter {
                input: Box::new(prune_columns(*input, &names)?),
                predicate,
            }
        }
        LogicalPlan::Aggregate {
            input,
            group,
            aggs,
            schema,
        } => {
            let mut needed: Vec<(Option<String>, String)> = vec![];
            for g in &group {
                g.referenced_columns(&mut needed);
            }
            for a in &aggs {
                if let Some(arg) = &a.arg {
                    arg.referenced_columns(&mut needed);
                }
            }
            let names: Vec<String> = needed.into_iter().map(|(_, n)| n).collect();
            LogicalPlan::Aggregate {
                input: Box::new(prune_columns(*input, &names)?),
                group,
                aggs,
                schema,
            }
        }
        LogicalPlan::Join {
            left,
            right,
            join_type,
            on,
            filter,
            schema,
        } => {
            let mut needed: Vec<(Option<String>, String)> = vec![];
            for (l, r) in &on {
                l.referenced_columns(&mut needed);
                r.referenced_columns(&mut needed);
            }
            if let Some(f) = &filter {
                f.referenced_columns(&mut needed);
            }
            let mut names: Vec<String> = needed.into_iter().map(|(_, n)| n).collect();
            names.extend(required.iter().cloned());
            let l = prune_columns(*left, &names)?;
            let r = prune_columns(*right, &names)?;
            let mut cols = l.schema().columns().to_vec();
            cols.extend(r.schema().columns().iter().cloned());
            // Keep join schema consistent with pruned children.
            let new_schema = if cols.len() == schema.len() {
                schema
            } else {
                Arc::new(Schema::new(cols))
            };
            LogicalPlan::Join {
                left: Box::new(l),
                right: Box::new(r),
                join_type,
                on,
                filter,
                schema: new_schema,
            }
        }
        LogicalPlan::Sort { input, keys } => {
            let mut needed: Vec<(Option<String>, String)> = vec![];
            for (e, _) in &keys {
                e.referenced_columns(&mut needed);
            }
            let mut names: Vec<String> = needed.into_iter().map(|(_, n)| n).collect();
            names.extend(required.iter().cloned());
            LogicalPlan::Sort {
                input: Box::new(prune_columns(*input, &names)?),
                keys,
            }
        }
        LogicalPlan::Limit {
            input,
            limit,
            offset,
        } => LogicalPlan::Limit {
            input: Box::new(prune_columns(*input, required)?),
            limit,
            offset,
        },
        // DISTINCT depends on every input column.
        LogicalPlan::Distinct { input } => {
            let all: Vec<String> = input
                .schema()
                .names()
                .iter()
                .map(|s| s.to_string())
                .collect();
            LogicalPlan::Distinct {
                input: Box::new(prune_columns(*input, &all)?),
            }
        }
        // UNION arms keep their full output (column names differ by arm,
        // so positional pruning through it is not attempted); recurse so
        // scans inside arms still prune against the arms' own projections.
        LogicalPlan::Union { inputs, schema } => {
            let inputs = inputs
                .into_iter()
                .map(|p| {
                    let all: Vec<String> =
                        p.schema().names().iter().map(|s| s.to_string()).collect();
                    prune_columns(p, &all)
                })
                .collect::<Result<_>>()?;
            LogicalPlan::Union { inputs, schema }
        }
        leaf @ LogicalPlan::Values { .. } => leaf,
    })
}

/// Drop projections that are an exact identity over their input.
pub fn remove_trivial_projects(plan: LogicalPlan) -> LogicalPlan {
    match plan {
        LogicalPlan::Project {
            input,
            exprs,
            schema,
        } => {
            let input = Box::new(remove_trivial_projects(*input));
            let identity = schema.len() == input.schema().len()
                && exprs.iter().enumerate().all(|(i, e)| {
                    matches!(e, Expr::Column { name, .. }
                        if input.schema().index_of(name) == Some(i))
                })
                && schema
                    .names()
                    .iter()
                    .zip(input.schema().names())
                    .all(|(a, b)| *a == b);
            if identity {
                *input
            } else {
                LogicalPlan::Project {
                    input,
                    exprs,
                    schema,
                }
            }
        }
        other => map_inputs(other, &mut |p| Ok(remove_trivial_projects(p)))
            .expect("the mapped function is infallible"),
    }
}
