//! Logical plans and the AST→plan translator (name resolution, wildcard
//! expansion, aggregate extraction, subquery flattening, type inference).

use crate::ast::{
    Expr, JoinType, OrderItem, Query, Select, SelectItem, TableRef,
};
use crate::batch::RecordBatch;
use crate::catalog::Catalog;
use crate::error::{Result, SqlError};
use crate::schema::{ColumnDef, Schema};
use crate::types::{DataType, Value};
use crate::udf::InferenceProvider;
use std::fmt::Write as _;
use std::sync::Arc;

/// Aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    Count,
    Sum,
    Avg,
    Min,
    Max,
    /// Population variance.
    Variance,
    /// Population standard deviation.
    StdDev,
}

impl AggFunc {
    pub fn parse(name: &str) -> Option<AggFunc> {
        match name.to_ascii_uppercase().as_str() {
            "COUNT" => Some(AggFunc::Count),
            "SUM" => Some(AggFunc::Sum),
            "AVG" => Some(AggFunc::Avg),
            "MIN" => Some(AggFunc::Min),
            "MAX" => Some(AggFunc::Max),
            "VARIANCE" | "VAR" | "VAR_POP" => Some(AggFunc::Variance),
            "STDDEV" | "STDDEV_POP" | "STD" => Some(AggFunc::StdDev),
            _ => None,
        }
    }
}

/// One aggregate call within an Aggregate node.
#[derive(Debug, Clone, PartialEq)]
pub struct AggCall {
    pub func: AggFunc,
    /// `None` for COUNT(*).
    pub arg: Option<Expr>,
    pub distinct: bool,
}

/// A relational logical plan. All embedded expressions are *resolved*:
/// every `Expr::Column` has no qualifier and names exactly one column of
/// the node's input schema.
#[derive(Debug, Clone)]
pub enum LogicalPlan {
    /// Table (or table-version) scan. `projection` is set by the
    /// projection-pruning optimizer rule; `schema` always describes the
    /// node output (post-projection, possibly with scope-renamed labels).
    Scan {
        table: String,
        version: Option<u64>,
        projection: Option<Vec<usize>>,
        schema: Arc<Schema>,
    },
    /// Literal rows (used for FROM-less SELECT).
    Values {
        schema: Arc<Schema>,
        rows: Vec<Vec<Expr>>,
    },
    Filter {
        input: Box<LogicalPlan>,
        predicate: Expr,
    },
    Project {
        input: Box<LogicalPlan>,
        exprs: Vec<Expr>,
        schema: Arc<Schema>,
    },
    Aggregate {
        input: Box<LogicalPlan>,
        group: Vec<Expr>,
        aggs: Vec<AggCall>,
        schema: Arc<Schema>,
    },
    Join {
        left: Box<LogicalPlan>,
        right: Box<LogicalPlan>,
        join_type: JoinType,
        /// Equi-join key pairs (left expr, right expr).
        on: Vec<(Expr, Expr)>,
        /// Residual non-equi condition evaluated on joined rows.
        filter: Option<Expr>,
        schema: Arc<Schema>,
    },
    Sort {
        input: Box<LogicalPlan>,
        keys: Vec<(Expr, bool)>,
    },
    Limit {
        input: Box<LogicalPlan>,
        limit: Option<u64>,
        offset: u64,
    },
    Distinct {
        input: Box<LogicalPlan>,
    },
    /// UNION ALL of inputs with identical arity and unified column types
    /// (plain UNION is planned as Distinct(Union)). Output schema takes
    /// the first input's column names.
    Union {
        inputs: Vec<LogicalPlan>,
        schema: Arc<Schema>,
    },
}

impl LogicalPlan {
    pub fn schema(&self) -> &Arc<Schema> {
        match self {
            LogicalPlan::Scan { schema, .. }
            | LogicalPlan::Values { schema, .. }
            | LogicalPlan::Project { schema, .. }
            | LogicalPlan::Aggregate { schema, .. }
            | LogicalPlan::Union { schema, .. }
            | LogicalPlan::Join { schema, .. } => schema,
            LogicalPlan::Filter { input, .. }
            | LogicalPlan::Sort { input, .. }
            | LogicalPlan::Limit { input, .. }
            | LogicalPlan::Distinct { input } => input.schema(),
        }
    }

    /// Pre-order traversal over plan nodes.
    pub fn visit(&self, f: &mut impl FnMut(&LogicalPlan)) {
        f(self);
        match self {
            LogicalPlan::Filter { input, .. }
            | LogicalPlan::Project { input, .. }
            | LogicalPlan::Aggregate { input, .. }
            | LogicalPlan::Sort { input, .. }
            | LogicalPlan::Limit { input, .. }
            | LogicalPlan::Distinct { input } => input.visit(f),
            LogicalPlan::Join { left, right, .. } => {
                left.visit(f);
                right.visit(f);
            }
            LogicalPlan::Union { inputs, .. } => {
                for i in inputs {
                    i.visit(f);
                }
            }
            LogicalPlan::Scan { .. } | LogicalPlan::Values { .. } => {}
        }
    }

    /// Visit every expression embedded in this plan (and children).
    pub fn visit_exprs(&self, f: &mut impl FnMut(&Expr)) {
        self.visit(&mut |node| match node {
            LogicalPlan::Filter { predicate, .. } => f(predicate),
            LogicalPlan::Project { exprs, .. } => exprs.iter().for_each(&mut *f),
            LogicalPlan::Aggregate { group, aggs, .. } => {
                group.iter().for_each(&mut *f);
                for a in aggs {
                    if let Some(arg) = &a.arg {
                        f(arg);
                    }
                }
            }
            LogicalPlan::Join { on, filter, .. } => {
                for (l, r) in on {
                    f(l);
                    f(r);
                }
                if let Some(x) = filter {
                    f(x);
                }
            }
            LogicalPlan::Sort { keys, .. } => {
                for (e, _) in keys {
                    f(e);
                }
            }
            LogicalPlan::Values { rows, .. } => {
                for row in rows {
                    row.iter().for_each(&mut *f);
                }
            }
            LogicalPlan::Scan { .. }
            | LogicalPlan::Limit { .. }
            | LogicalPlan::Distinct { .. }
            | LogicalPlan::Union { .. } => {}
        });
    }

    /// Multi-line indented EXPLAIN rendering.
    pub fn explain(&self) -> String {
        let mut s = String::new();
        self.explain_into(&mut s, 0);
        s
    }

    fn explain_into(&self, out: &mut String, indent: usize) {
        let pad = "  ".repeat(indent);
        match self {
            LogicalPlan::Scan {
                table,
                version,
                projection,
                schema,
            } => {
                let _ = write!(out, "{pad}Scan: {table}");
                if let Some(v) = version {
                    let _ = write!(out, " VERSION {v}");
                }
                if let Some(p) = projection {
                    let _ = write!(out, " projection={p:?}");
                }
                let _ = writeln!(out, " -> {}", schema.names().join(", "));
            }
            LogicalPlan::Values { rows, .. } => {
                let _ = writeln!(out, "{pad}Values: {} row(s)", rows.len());
            }
            LogicalPlan::Filter { input, predicate } => {
                let _ = writeln!(out, "{pad}Filter: {predicate}");
                input.explain_into(out, indent + 1);
            }
            LogicalPlan::Project { input, exprs, schema } => {
                let items: Vec<String> = exprs
                    .iter()
                    .zip(schema.names())
                    .map(|(e, n)| format!("{e} AS {n}"))
                    .collect();
                let _ = writeln!(out, "{pad}Project: {}", items.join(", "));
                input.explain_into(out, indent + 1);
            }
            LogicalPlan::Aggregate {
                input,
                group,
                aggs,
                ..
            } => {
                let g: Vec<String> = group.iter().map(|e| e.to_string()).collect();
                let a: Vec<String> = aggs
                    .iter()
                    .map(|c| {
                        format!(
                            "{:?}({})",
                            c.func,
                            c.arg.as_ref().map_or("*".into(), |e| e.to_string())
                        )
                    })
                    .collect();
                let _ = writeln!(
                    out,
                    "{pad}Aggregate: group=[{}] aggs=[{}]",
                    g.join(", "),
                    a.join(", ")
                );
                input.explain_into(out, indent + 1);
            }
            LogicalPlan::Join {
                left,
                right,
                join_type,
                on,
                filter,
                ..
            } => {
                let keys: Vec<String> =
                    on.iter().map(|(l, r)| format!("{l} = {r}")).collect();
                let _ = write!(out, "{pad}Join({join_type:?}): on=[{}]", keys.join(", "));
                if let Some(f) = filter {
                    let _ = write!(out, " filter={f}");
                }
                out.push('\n');
                left.explain_into(out, indent + 1);
                right.explain_into(out, indent + 1);
            }
            LogicalPlan::Sort { input, keys } => {
                let ks: Vec<String> = keys
                    .iter()
                    .map(|(e, asc)| format!("{e} {}", if *asc { "ASC" } else { "DESC" }))
                    .collect();
                let _ = writeln!(out, "{pad}Sort: {}", ks.join(", "));
                input.explain_into(out, indent + 1);
            }
            LogicalPlan::Limit {
                input,
                limit,
                offset,
            } => {
                let _ = writeln!(out, "{pad}Limit: {limit:?} offset={offset}");
                input.explain_into(out, indent + 1);
            }
            LogicalPlan::Distinct { input } => {
                let _ = writeln!(out, "{pad}Distinct");
                input.explain_into(out, indent + 1);
            }
            LogicalPlan::Union { inputs, .. } => {
                let _ = writeln!(out, "{pad}Union: {} arm(s)", inputs.len());
                for i in inputs {
                    i.explain_into(out, indent + 1);
                }
            }
        }
    }
}

/// Bottom-up expression rewrite.
pub fn rewrite_expr(expr: Expr, f: &mut impl FnMut(Expr) -> Result<Expr>) -> Result<Expr> {
    let rebuilt = expr.map_children(&mut |c| rewrite_expr(c, f))?;
    f(rebuilt)
}

/// Runs nested (uncorrelated) subqueries for the planner.
pub trait SubqueryRunner {
    fn run(&self, query: &Query) -> Result<RecordBatch>;
}

/// A plan-rewriting extension, applied by the engine after planning and
/// before the relational optimizer. Flock's SQL×ML cross-optimizer is
/// registered through this hook.
pub trait PlanRewriter: Send + Sync {
    fn rewrite(&self, plan: LogicalPlan, catalog: &Catalog) -> Result<LogicalPlan>;

    /// [`rewrite`](Self::rewrite), also telling whether the result rests
    /// on the current contents of the tables it reads (a model compressed
    /// to their column ranges, say) and not on their schemas alone. A
    /// cached plan built on such a result is replanned, not rebound, when
    /// one of those tables changes.
    fn rewrite_data_bound(
        &self,
        plan: LogicalPlan,
        catalog: &Catalog,
    ) -> Result<(LogicalPlan, bool)> {
        Ok((self.rewrite(plan, catalog)?, false))
    }
}

/// Everything the planner needs from its environment.
pub struct PlanContext<'a> {
    pub catalog: &'a Catalog,
    pub provider: &'a dyn InferenceProvider,
    pub subqueries: Option<&'a dyn SubqueryRunner>,
    /// The values bound to the statement's `?` placeholders: each `?` is
    /// typed by its value ([`typed_parameter`]).
    pub params: &'a [Value],
    /// View-expansion recursion guard.
    pub view_depth: usize,
}

impl<'a> PlanContext<'a> {
    pub fn new(catalog: &'a Catalog, provider: &'a dyn InferenceProvider) -> Self {
        PlanContext {
            catalog,
            provider,
            subqueries: None,
            params: &[],
            view_depth: 0,
        }
    }

    pub fn with_subqueries(mut self, runner: &'a dyn SubqueryRunner) -> Self {
        self.subqueries = Some(runner);
        self
    }

    pub fn with_params(mut self, params: &'a [Value]) -> Self {
        self.params = params;
        self
    }
}

/// `?i` typed by the value bound to it: an identity `CAST` to the value's
/// type, which expression typing sees and the executor applies at no cost
/// to a value of that type. A NULL or unbound value leaves it untyped. The
/// `?` itself stays: a plan reads its value when it executes, so a cached
/// plan serves every binding of the same types.
pub fn typed_parameter(i: usize, params: &[Value]) -> Expr {
    match params.get(i).and_then(Value::data_type) {
        Some(to) => Expr::Cast {
            expr: Box::new(Expr::Parameter(i)),
            to,
        },
        None => Expr::Parameter(i),
    }
}

/// One visible column in the current name-resolution scope.
#[derive(Debug, Clone)]
struct Field {
    /// Table alias / table name / subquery alias.
    qualifier: Option<String>,
    /// Name the user refers to.
    base_name: String,
    /// Unique column name in the plan's output schema.
    out_name: String,
}

struct Scope {
    fields: Vec<Field>,
}

impl Scope {
    fn resolve(&self, qualifier: &Option<String>, name: &str) -> Result<&Field> {
        let matches: Vec<&Field> = self
            .fields
            .iter()
            .filter(|f| {
                let qual_ok = match qualifier {
                    Some(q) => f
                        .qualifier
                        .as_deref()
                        .is_some_and(|fq| fq.eq_ignore_ascii_case(q)),
                    None => true,
                };
                qual_ok
                    && (f.base_name.eq_ignore_ascii_case(name)
                        || f.out_name.eq_ignore_ascii_case(name))
            })
            .collect();
        match matches.len() {
            1 => Ok(matches[0]),
            0 => Err(SqlError::Plan(format!(
                "unknown column '{}{name}'",
                qualifier
                    .as_deref()
                    .map(|q| format!("{q}."))
                    .unwrap_or_default()
            ))),
            _ => Err(SqlError::Plan(format!("ambiguous column '{name}'"))),
        }
    }
}

/// Plan a query into a logical plan.
pub fn plan_query(query: &Query, ctx: &PlanContext) -> Result<LogicalPlan> {
    Planner { ctx }.plan_query(query)
}

struct Planner<'a, 'b> {
    ctx: &'b PlanContext<'a>,
}

impl<'a, 'b> Planner<'a, 'b> {
    fn plan_query(&self, query: &Query) -> Result<LogicalPlan> {
        let (mut plan, scope) = self.plan_select(&query.select, &query.order_by)?;

        if !query.unions.is_empty() {
            plan = self.plan_union(plan, &query.unions)?;
        }

        // ORDER BY: resolve against output schema (aliases + ordinals),
        // falling back to hidden sort columns computed over the input of
        // the final projection.
        if !query.order_by.is_empty() {
            plan = self.plan_order_by(plan, &scope, query)?;
        }

        if query.limit.is_some() || query.offset.is_some() {
            plan = LogicalPlan::Limit {
                input: Box::new(plan),
                limit: query.limit,
                offset: query.offset.unwrap_or(0),
            };
        }
        Ok(plan)
    }

    /// Returns the plan plus the scope of the *final projection's input*
    /// (used for hidden sort keys).
    fn plan_select(
        &self,
        select: &Select,
        order_by: &[OrderItem],
    ) -> Result<(LogicalPlan, SelectScopes)> {
        // 1. FROM
        let (mut plan, scope) = if select.from.is_empty() {
            // A unit row: RecordBatch cannot represent 0 columns × 1 row,
            // so FROM-less SELECT scans a one-row dummy relation.
            let schema = Arc::new(Schema::from_pairs(&[("#dummy", DataType::Int)]));
            (
                LogicalPlan::Values {
                    schema,
                    rows: vec![vec![Expr::Literal(Value::Int(0))]],
                },
                Scope { fields: vec![] },
            )
        } else {
            let mut iter = select.from.iter();
            let first = self.plan_table_ref(iter.next().unwrap())?;
            iter.try_fold(first, |acc, tr| {
                let right = self.plan_table_ref(tr)?;
                self.combine(acc, right, JoinType::Cross, &None)
            })?
        };

        // 2. WHERE
        if let Some(pred) = &select.selection {
            let resolved = self.resolve(pred.clone(), &scope)?;
            self.reject_aggregates(&resolved, "WHERE")?;
            plan = LogicalPlan::Filter {
                input: Box::new(plan),
                predicate: resolved,
            };
        }

        // 3. expand projection wildcards
        let mut items: Vec<(Expr, String)> = Vec::new();
        for item in &select.projection {
            match item {
                SelectItem::Wildcard => {
                    for f in &scope.fields {
                        items.push((Expr::col(&f.out_name), f.base_name.clone()));
                    }
                }
                SelectItem::QualifiedWildcard(q) => {
                    let mut found = false;
                    for f in &scope.fields {
                        if f.qualifier
                            .as_deref()
                            .is_some_and(|fq| fq.eq_ignore_ascii_case(q))
                        {
                            items.push((Expr::col(&f.out_name), f.base_name.clone()));
                            found = true;
                        }
                    }
                    if !found {
                        return Err(SqlError::Plan(format!("unknown table alias '{q}'")));
                    }
                }
                SelectItem::Expr { expr, alias } => {
                    let display = alias.clone().unwrap_or_else(|| match expr {
                        Expr::Column { name, .. } => name.clone(),
                        other => other.to_string(),
                    });
                    let resolved = self.resolve(expr.clone(), &scope)?;
                    items.push((resolved, display));
                }
            }
        }
        if items.is_empty() {
            return Err(SqlError::Plan("empty SELECT list".into()));
        }

        // 4. aggregate handling
        let has_aggs = !select.group_by.is_empty()
            || items.iter().any(|(e, _)| contains_aggregate(e))
            || select.having.as_ref().is_some_and(contains_aggregate);

        let mut having = match &select.having {
            Some(h) => Some(self.resolve(h.clone(), &scope)?),
            None => None,
        };

        let mut agg_info: Option<(Vec<Expr>, Vec<AggCall>)> = None;
        if has_aggs || select.having.is_some() {
            let group: Vec<Expr> = select
                .group_by
                .iter()
                .map(|e| self.resolve(e.clone(), &scope))
                .collect::<Result<_>>()?;

            // Collect aggregate calls from projection + having.
            let mut aggs: Vec<AggCall> = Vec::new();
            let mut collect = |e: &Expr| collect_aggregates(e, &mut aggs);
            for (e, _) in &items {
                collect(e)?;
            }
            if let Some(h) = &having {
                collect_aggregates(h, &mut aggs)?;
            }
            // ORDER BY may sort on an aggregate that is not in the SELECT
            // list; collect those too so the sort key can be computed.
            for item in order_by {
                if contains_aggregate(&item.expr) {
                    if let Ok(resolved) = self.resolve(item.expr.clone(), &scope) {
                        collect_aggregates(&resolved, &mut aggs)?;
                    }
                }
            }

            // Output schema of the aggregate node: #g0..#gN, #a0..#aM.
            let input_schema = plan.schema().clone();
            let mut agg_cols: Vec<ColumnDef> = Vec::new();
            for (i, g) in group.iter().enumerate() {
                let ty = expr_type(g, &input_schema, self.ctx.provider)?
                    .unwrap_or(DataType::Text);
                agg_cols.push(ColumnDef::new(format!("#g{i}"), ty));
            }
            for (i, a) in aggs.iter().enumerate() {
                let ty = agg_output_type(a, &input_schema, self.ctx.provider)?;
                agg_cols.push(ColumnDef::new(format!("#a{i}"), ty));
            }
            let agg_schema = Arc::new(Schema::new(agg_cols));
            plan = LogicalPlan::Aggregate {
                input: Box::new(plan),
                group: group.clone(),
                aggs: aggs.clone(),
                schema: agg_schema.clone(),
            };

            // Rewrite projection + having over the aggregate output.
            let rewrite = |e: Expr| -> Result<Expr> {
                substitute_agg_refs(e, &group, &aggs)
            };
            let mut new_items = Vec::with_capacity(items.len());
            for (e, name) in items {
                let e = rewrite(e)?;
                ensure_fully_aggregated(&e, &agg_schema)?;
                new_items.push((e, name));
            }
            items = new_items;
            if let Some(h) = having.take() {
                let h = rewrite(h)?;
                ensure_fully_aggregated(&h, &agg_schema)?;
                plan = LogicalPlan::Filter {
                    input: Box::new(plan),
                    predicate: h,
                };
            }

            agg_info = Some((group, aggs));
        }

        // 5. final projection
        let input_schema = plan.schema().clone();
        let names = unique_names(items.iter().map(|(_, n)| n.clone()).collect());
        let mut cols = Vec::with_capacity(items.len());
        for ((e, _), name) in items.iter().zip(&names) {
            let ty = expr_type(e, &input_schema, self.ctx.provider)?.unwrap_or(DataType::Text);
            cols.push(ColumnDef::new(name.clone(), ty));
        }
        let proj_schema = Arc::new(Schema::new(cols));
        let exprs: Vec<Expr> = items.into_iter().map(|(e, _)| e).collect();
        let input_of_project = plan;
        let plan = LogicalPlan::Project {
            input: Box::new(input_of_project),
            exprs: exprs.clone(),
            schema: proj_schema,
        };

        let mut plan = plan;
        if select.distinct {
            plan = LogicalPlan::Distinct {
                input: Box::new(plan),
            };
        }

        Ok((
            plan,
            SelectScopes {
                from_scope: scope,
                agg_info,
            },
        ))
    }

    /// Combine UNION arms: equal arity, per-column type unification with
    /// inserted casts; plain UNION gets a Distinct on top.
    fn plan_union(
        &self,
        first: LogicalPlan,
        arms: &[crate::ast::UnionArm],
    ) -> Result<LogicalPlan> {
        let mut inputs = vec![first];
        let mut all_flags = vec![true];
        for arm in arms {
            let (plan, _) = self.plan_select(&arm.select, &[])?;
            inputs.push(plan);
            all_flags.push(arm.all);
        }
        let arity = inputs[0].schema().len();
        for (i, p) in inputs.iter().enumerate() {
            if p.schema().len() != arity {
                return Err(SqlError::Plan(format!(
                    "UNION arm {i} has {} columns, expected {arity}",
                    p.schema().len()
                )));
            }
        }
        // unify column types
        let mut types = Vec::with_capacity(arity);
        for c in 0..arity {
            let mut ty = inputs[0].schema().column(c).data_type;
            for p in &inputs[1..] {
                let other = p.schema().column(c).data_type;
                ty = ty.unify(other).ok_or_else(|| {
                    SqlError::Plan(format!(
                        "UNION column {c} has incompatible types {ty} and {other}"
                    ))
                })?;
            }
            types.push(ty);
        }
        let names: Vec<String> = inputs[0]
            .schema()
            .names()
            .iter()
            .map(|s| s.to_string())
            .collect();
        let out_schema = Arc::new(Schema::new(
            names
                .iter()
                .zip(&types)
                .map(|(n, t)| ColumnDef::new(n.clone(), *t))
                .collect(),
        ));
        // insert casting/renaming projections where needed
        let inputs: Vec<LogicalPlan> = inputs
            .into_iter()
            .map(|p| {
                let needs_work = (0..arity).any(|c| {
                    p.schema().column(c).data_type != types[c]
                        || p.schema().column(c).name != names[c]
                });
                if !needs_work {
                    return p;
                }
                let exprs: Vec<Expr> = (0..arity)
                    .map(|c| {
                        let col = Expr::col(p.schema().column(c).name.as_str());
                        if p.schema().column(c).data_type == types[c] {
                            col
                        } else {
                            Expr::Cast {
                                expr: Box::new(col),
                                to: types[c],
                            }
                        }
                    })
                    .collect();
                LogicalPlan::Project {
                    input: Box::new(p),
                    exprs,
                    schema: out_schema.clone(),
                }
            })
            .collect();
        let union = LogicalPlan::Union {
            inputs,
            schema: out_schema,
        };
        // SQL: any non-ALL arm makes the whole result set-distinct
        if all_flags.iter().skip(1).any(|all| !all) {
            Ok(LogicalPlan::Distinct {
                input: Box::new(union),
            })
        } else {
            Ok(union)
        }
    }

    fn plan_order_by(
        &self,
        plan: LogicalPlan,
        scopes: &SelectScopes,
        query: &Query,
    ) -> Result<LogicalPlan> {
        // The plan ends with (Distinct?)(Project(...)). We sort above when
        // keys resolve to output columns; otherwise we extend the project
        // with hidden columns, sort, and re-project.
        let out_schema = plan.schema().clone();
        let mut direct_keys: Vec<(Expr, bool)> = Vec::new();
        let mut hidden: Vec<(Expr, bool)> = Vec::new();
        for item in &query.order_by {
            // ordinal?
            if let Expr::Literal(Value::Int(i)) = item.expr {
                let idx = i as usize;
                if idx == 0 || idx > out_schema.len() {
                    return Err(SqlError::Plan(format!(
                        "ORDER BY position {idx} is out of range"
                    )));
                }
                direct_keys.push((
                    Expr::col(out_schema.column(idx - 1).name.as_str()),
                    item.asc,
                ));
                continue;
            }
            // output column / alias?
            if let Expr::Column { qualifier: None, name } = &item.expr {
                if out_schema.index_of(name).is_some() {
                    direct_keys.push((Expr::col(name), item.asc));
                    continue;
                }
            }
            // hidden key computed over the final projection's input
            let resolved = self.resolve(item.expr.clone(), &scopes.from_scope)?;
            let resolved = match &scopes.agg_info {
                Some((group, aggs)) => {
                    let e = substitute_agg_refs(resolved, group, aggs)?;
                    // any leftover raw column is a non-grouped reference
                    if contains_aggregate(&e) {
                        return Err(SqlError::Plan(
                            "ORDER BY aggregate must also appear in the SELECT list or \
                             GROUP BY"
                                .into(),
                        ));
                    }
                    e
                }
                None => resolved,
            };
            hidden.push((resolved, item.asc));
        }

        if hidden.is_empty() {
            return Ok(LogicalPlan::Sort {
                input: Box::new(plan),
                keys: direct_keys,
            });
        }

        // Rebuild: extend the final Project with hidden sort columns.
        let (distinct, project) = match plan {
            LogicalPlan::Distinct { input } => (true, *input),
            other => (false, other),
        };
        let LogicalPlan::Project {
            input,
            mut exprs,
            schema,
        } = project
        else {
            return Err(SqlError::Plan(
                "ORDER BY expression does not reference the output".into(),
            ));
        };
        if distinct {
            return Err(SqlError::Plan(
                "ORDER BY expressions must appear in the SELECT list when DISTINCT is used"
                    .into(),
            ));
        }
        let visible = schema.len();
        let mut cols: Vec<ColumnDef> = schema.columns().to_vec();
        let mut keys = direct_keys;
        let input_schema = input.schema().clone();
        for (i, (e, asc)) in hidden.into_iter().enumerate() {
            // For aggregate queries the hidden key may reference #g/#a
            // columns; those exist in the input schema already.
            let name = format!("#s{i}");
            let ty = expr_type(&e, &input_schema, self.ctx.provider)?.unwrap_or(DataType::Text);
            cols.push(ColumnDef::new(name.clone(), ty));
            exprs.push(e);
            keys.push((Expr::col(&name), asc));
        }
        let extended = LogicalPlan::Project {
            input,
            exprs,
            schema: Arc::new(Schema::new(cols)),
        };
        let sorted = LogicalPlan::Sort {
            input: Box::new(extended),
            keys,
        };
        // final re-projection to visible columns
        let final_exprs: Vec<Expr> = (0..visible)
            .map(|i| Expr::col(schema.column(i).name.as_str()))
            .collect();
        Ok(LogicalPlan::Project {
            input: Box::new(sorted),
            exprs: final_exprs,
            schema,
        })
    }

    fn plan_table_ref(&self, tr: &TableRef) -> Result<(LogicalPlan, Scope)> {
        match tr {
            TableRef::Table {
                name,
                alias,
                version,
            } => {
                if let Some(view) = self.ctx.catalog.view(name) {
                    if self.ctx.view_depth > 16 {
                        return Err(SqlError::Plan(format!(
                            "view expansion too deep at '{name}'"
                        )));
                    }
                    let stmt = crate::parser::parse_statement(&view.sql)?;
                    let crate::ast::Statement::Query(q) = stmt else {
                        return Err(SqlError::Plan(format!("view '{name}' is not a query")));
                    };
                    let nested_ctx = PlanContext {
                        view_depth: self.ctx.view_depth + 1,
                        ..*self.ctx
                    };
                    let plan = Planner { ctx: &nested_ctx }.plan_query(&q)?;
                    let qual = alias.clone().unwrap_or_else(|| name.clone());
                    let scope = Scope {
                        fields: plan
                            .schema()
                            .names()
                            .iter()
                            .map(|n| Field {
                                qualifier: Some(qual.clone()),
                                base_name: n.to_string(),
                                out_name: n.to_string(),
                            })
                            .collect(),
                    };
                    return Ok((plan, scope));
                }
                let (table_name, schema) = match self.ctx.catalog.table(name) {
                    // time-travel reads use the schema live at that version
                    // (ALTER TABLE may have changed it since)
                    Ok(table) => match version {
                        Some(v) => (table.name(), table.at_version(*v)?.data.schema().clone()),
                        None => (table.name(), table.schema().clone()),
                    },
                    Err(e) => match (self.ctx.catalog.virtual_table(name), version) {
                        (Some(v), None) => (v.name(), v.schema()),
                        _ => return Err(e),
                    },
                };
                let qual = alias.clone().unwrap_or_else(|| name.clone());
                let scope = Scope {
                    fields: schema
                        .names()
                        .iter()
                        .map(|n| Field {
                            qualifier: Some(qual.clone()),
                            base_name: n.to_string(),
                            out_name: n.to_string(),
                        })
                        .collect(),
                };
                Ok((
                    LogicalPlan::Scan {
                        table: table_name.to_string(),
                        version: *version,
                        projection: None,
                        schema,
                    },
                    scope,
                ))
            }
            TableRef::Subquery { query, alias } => {
                let plan = self.plan_query(query)?;
                let scope = Scope {
                    fields: plan
                        .schema()
                        .names()
                        .iter()
                        .map(|n| Field {
                            qualifier: Some(alias.clone()),
                            base_name: n.to_string(),
                            out_name: n.to_string(),
                        })
                        .collect(),
                };
                Ok((plan, scope))
            }
            TableRef::Join {
                left,
                right,
                join_type,
                on,
            } => {
                let l = self.plan_table_ref(left)?;
                let r = self.plan_table_ref(right)?;
                self.combine(l, r, *join_type, on)
            }
        }
    }

    /// Join two planned FROM items, deduplicating output column names and
    /// splitting the ON condition into equi pairs and a residual filter.
    fn combine(
        &self,
        (lp, ls): (LogicalPlan, Scope),
        (rp, rs): (LogicalPlan, Scope),
        join_type: JoinType,
        on: &Option<Expr>,
    ) -> Result<(LogicalPlan, Scope)> {
        // Deduplicate names across the two sides.
        let mut fields: Vec<Field> = ls.fields.clone();
        fields.extend(rs.fields.iter().cloned());
        let mut names: Vec<String> = fields.iter().map(|f| f.out_name.clone()).collect();
        dedup_names(&mut names, &fields);
        for (f, n) in fields.iter_mut().zip(&names) {
            f.out_name = n.clone();
        }

        // Rename plan outputs where needed (cheap projection; pruned later).
        let lr = rename_if_needed(lp, &names[..ls.fields.len()]);
        let rr = rename_if_needed(rp, &names[ls.fields.len()..]);

        let mut cols: Vec<ColumnDef> = lr.schema().columns().to_vec();
        cols.extend(rr.schema().columns().iter().cloned());
        let schema = Arc::new(Schema::new(cols));

        let scope = Scope { fields };
        let (on_pairs, residual) = match on {
            None => (vec![], None),
            Some(cond) => split_join_condition(&self.resolve(cond.clone(), &scope)?, lr.schema()),
        };

        let plan = LogicalPlan::Join {
            left: Box::new(lr),
            right: Box::new(rr),
            join_type: if join_type == JoinType::Cross {
                JoinType::Inner
            } else {
                join_type
            },
            on: on_pairs,
            filter: residual,
            schema,
        };
        Ok((plan, scope))
    }

    /// Resolve column references and flatten uncorrelated subqueries.
    fn resolve(&self, expr: Expr, scope: &Scope) -> Result<Expr> {
        rewrite_expr(expr, &mut |e| match e {
            Expr::Column { qualifier, name } => {
                let f = scope.resolve(&qualifier, &name)?;
                Ok(Expr::col(&f.out_name))
            }
            Expr::Subquery(q) => {
                let batch = self.run_subquery(&q)?;
                if batch.num_rows() > 1 || batch.num_columns() != 1 {
                    return Err(SqlError::Plan(
                        "scalar subquery must return one column and at most one row".into(),
                    ));
                }
                let v = if batch.num_rows() == 0 {
                    Value::Null
                } else {
                    batch.column(0).get(0)
                };
                Ok(Expr::Literal(v))
            }
            Expr::InSubquery {
                expr,
                query,
                negated,
            } => {
                let batch = self.run_subquery(&query)?;
                if batch.num_columns() != 1 {
                    return Err(SqlError::Plan(
                        "IN subquery must return exactly one column".into(),
                    ));
                }
                let list: Vec<Expr> = (0..batch.num_rows())
                    .map(|i| Expr::Literal(batch.column(0).get(i)))
                    .collect();
                Ok(Expr::InList {
                    expr,
                    list,
                    negated,
                })
            }
            Expr::Exists { query, negated } => {
                let batch = self.run_subquery(&query)?;
                let exists = batch.num_rows() > 0;
                Ok(Expr::Literal(Value::Bool(exists != negated)))
            }
            Expr::Parameter(i) => Ok(typed_parameter(i, self.ctx.params)),
            other => Ok(other),
        })
    }

    fn run_subquery(&self, q: &Query) -> Result<RecordBatch> {
        let runner = self.ctx.subqueries.ok_or_else(|| {
            SqlError::Plan("subqueries are not supported in this context".into())
        })?;
        runner.run(q).map_err(|e| match e {
            SqlError::Plan(m) if m.starts_with("unknown column") => SqlError::Plan(format!(
                "{m} (correlated subqueries are not supported)"
            )),
            other => other,
        })
    }

    fn reject_aggregates(&self, e: &Expr, clause: &str) -> Result<()> {
        if contains_aggregate(e) {
            return Err(SqlError::Plan(format!(
                "aggregate functions are not allowed in {clause}"
            )));
        }
        Ok(())
    }
}

/// Scopes carried out of `plan_select` for ORDER BY planning.
struct SelectScopes {
    /// The FROM-clause scope (base columns), used to resolve sort keys
    /// that are not in the SELECT list.
    from_scope: Scope,
    /// For aggregate queries: the group exprs and agg calls, so hidden
    /// sort keys can be rewritten onto the aggregate output.
    agg_info: Option<(Vec<Expr>, Vec<AggCall>)>,
}

fn dedup_names(names: &mut [String], fields: &[Field]) {
    use std::collections::HashMap;
    let mut counts: HashMap<String, usize> = HashMap::new();
    for n in names.iter() {
        *counts.entry(n.to_ascii_lowercase()).or_default() += 1;
    }
    let mut seen: HashMap<String, usize> = HashMap::new();
    for (i, n) in names.iter_mut().enumerate() {
        if counts[&n.to_ascii_lowercase()] > 1 {
            let qual = fields[i].qualifier.clone().unwrap_or_default();
            let candidate = format!("{qual}.{n}");
            let k = seen.entry(candidate.to_ascii_lowercase()).or_default();
            *n = if *k == 0 {
                candidate
            } else {
                format!("{candidate}#{k}")
            };
            *k += 1;
        }
    }
}

/// Wrap `plan` in a renaming projection when its output names differ from
/// `names`.
fn rename_if_needed(plan: LogicalPlan, names: &[String]) -> LogicalPlan {
    let schema = plan.schema();
    let same = schema
        .names()
        .iter()
        .zip(names)
        .all(|(a, b)| *a == b.as_str());
    if same {
        return plan;
    }
    let cols: Vec<ColumnDef> = schema
        .columns()
        .iter()
        .zip(names)
        .map(|(c, n)| ColumnDef {
            name: n.clone(),
            data_type: c.data_type,
            nullable: c.nullable,
        })
        .collect();
    let exprs: Vec<Expr> = schema.names().iter().map(|n| Expr::col(n)).collect();
    LogicalPlan::Project {
        input: Box::new(plan),
        exprs,
        schema: Arc::new(Schema::new(cols)),
    }
}

/// Split a resolved join condition into equi pairs (left expr, right
/// expr) and a residual filter. A conjunct `a = b` is a pair when one side
/// reads only columns of `left` and the other only columns that are not;
/// every other conjunct stays in the residual, in order.
pub(crate) fn split_join_condition(
    cond: &Expr,
    left: &Schema,
) -> (Vec<(Expr, Expr)>, Option<Expr>) {
    let left_cols: std::collections::HashSet<String> =
        left.names().iter().map(|s| s.to_ascii_lowercase()).collect();
    // whether `e` reads columns of the left side only (`Some(true)`), of
    // the right only (`Some(false)`), or of both or neither (`None`)
    let side = |e: &Expr| {
        let mut cols = vec![];
        e.referenced_columns(&mut cols);
        let left = cols.iter().filter(|(_, name)| left_cols.contains(&name.to_ascii_lowercase()));
        match (left.count(), cols.len()) {
            (_, 0) => None,
            (0, _) => Some(false),
            (l, n) => (l == n).then_some(true),
        }
    };
    let mut pairs = Vec::new();
    let mut residual = Vec::new();
    for part in cond.split_conjunction() {
        if let Expr::Binary {
            left,
            op: crate::ast::BinOp::Eq,
            right,
        } = part
        {
            match (side(left), side(right)) {
                (Some(true), Some(false)) => {
                    pairs.push(((**left).clone(), (**right).clone()));
                    continue;
                }
                (Some(false), Some(true)) => {
                    pairs.push(((**right).clone(), (**left).clone()));
                    continue;
                }
                _ => {}
            }
        }
        residual.push(part.clone());
    }
    (pairs, Expr::conjunction(residual))
}

/// Is this expression (or any child) an aggregate function call?
pub fn contains_aggregate(e: &Expr) -> bool {
    let mut found = false;
    e.walk(&mut |x| {
        if let Expr::Function { name, .. } = x {
            if AggFunc::parse(name).is_some() {
                found = true;
            }
        }
    });
    found
}

fn collect_aggregates(e: &Expr, out: &mut Vec<AggCall>) -> Result<()> {
    e.walk(&mut |x| {
        if let Expr::Function {
            name,
            args,
            distinct,
        } = x
        {
            if let Some(func) = AggFunc::parse(name) {
                let arg = match args.as_slice() {
                    [Expr::Wildcard] => None,
                    [a] => Some(a.clone()),
                    _ => Some(Expr::Literal(Value::Null)), // flagged below
                };
                let call = AggCall {
                    func,
                    arg,
                    distinct: *distinct,
                };
                if !out.contains(&call) {
                    out.push(call);
                }
            }
        }
    });
    Ok(())
}

/// Replace group expressions and aggregate calls with references to the
/// aggregate node's output columns (#gN / #aN).
/// The traversal is top-down with short-circuiting: a matched group
/// expression or aggregate call is replaced wholesale, *without* rewriting
/// inside it — an aggregate's argument must stay exactly as collected
/// (e.g. `MAX(PREDICT(m, city))` keeps `city`, not `#g0`).
fn substitute_agg_refs(e: Expr, group: &[Expr], aggs: &[AggCall]) -> Result<Expr> {
    if let Some(i) = group.iter().position(|g| *g == e) {
        return Ok(Expr::col(&format!("#g{i}")));
    }
    if let Expr::Function {
        name,
        args,
        distinct,
    } = &e
    {
        if let Some(func) = AggFunc::parse(name) {
            let arg = match args.as_slice() {
                [Expr::Wildcard] => None,
                [a] => Some(a.clone()),
                _ => {
                    return Err(SqlError::Plan(format!(
                        "{name} takes exactly one argument"
                    )))
                }
            };
            let call = AggCall {
                func,
                arg,
                distinct: *distinct,
            };
            if let Some(i) = aggs.iter().position(|a| *a == call) {
                return Ok(Expr::col(&format!("#a{i}")));
            }
            return Err(SqlError::Plan(format!(
                "aggregate {name} was not collected during planning"
            )));
        }
    }
    // recurse into direct children only
    e.map_children(&mut |child| substitute_agg_refs(child, group, aggs))
}

/// After substitution, every remaining column reference must target the
/// aggregate output (#g/#a): anything else is a non-grouped column.
fn ensure_fully_aggregated(e: &Expr, agg_schema: &Schema) -> Result<()> {
    let mut bad = None;
    e.walk(&mut |x| {
        if let Expr::Column { name, .. } = x {
            if agg_schema.index_of(name).is_none() && bad.is_none() {
                bad = Some(name.clone());
            }
        }
    });
    match bad {
        Some(name) => Err(SqlError::Plan(format!(
            "column '{name}' must appear in GROUP BY or inside an aggregate"
        ))),
        None => Ok(()),
    }
}

fn unique_names(names: Vec<String>) -> Vec<String> {
    let mut seen = std::collections::HashMap::new();
    names
        .into_iter()
        .map(|n| {
            let count = seen.entry(n.to_ascii_lowercase()).or_insert(0usize);
            let out = if *count == 0 {
                n.clone()
            } else {
                format!("{n}_{count}")
            };
            *count += 1;
            out
        })
        .collect()
}

/// Output type of an aggregate call.
fn agg_output_type(
    call: &AggCall,
    input: &Schema,
    provider: &dyn InferenceProvider,
) -> Result<DataType> {
    Ok(match call.func {
        AggFunc::Count => DataType::Int,
        AggFunc::Avg | AggFunc::Variance | AggFunc::StdDev => DataType::Float,
        AggFunc::Sum | AggFunc::Min | AggFunc::Max => {
            let arg = call.arg.as_ref().ok_or_else(|| {
                SqlError::Plan(format!("{:?} requires an argument", call.func))
            })?;
            expr_type(arg, input, provider)?.unwrap_or(DataType::Float)
        }
    })
}

/// Infer the type of a resolved expression over `schema`. `Ok(None)` means
/// "unknown" (a bare NULL or an untyped `?`), which unifies with anything.
pub fn expr_type(
    e: &Expr,
    schema: &Schema,
    provider: &dyn InferenceProvider,
) -> Result<Option<DataType>> {
    let mut kids = Vec::new();
    e.for_each_child(&mut |c| kids.push(expr_type(c, schema, provider)));
    let kids = kids.into_iter().collect::<Result<Vec<_>>>()?;
    node_type(e, &kids, schema, provider)
}

/// The type rule of one node, given the types of its children in
/// [`Expr::for_each_child`] order: [`expr_type`] applies it at every node,
/// and [`crate::exec::PhysExpr::compile`] to the children it compiled.
pub fn node_type(
    e: &Expr,
    kids: &[Option<DataType>],
    schema: &Schema,
    provider: &dyn InferenceProvider,
) -> Result<Option<DataType>> {
    use crate::ast::{BinOp, UnOp};
    Ok(match e {
        Expr::Column { name, .. } => Some(schema.field(name)?.data_type),
        Expr::Literal(v) => v.data_type(),
        Expr::Binary { op, .. } => match op {
            BinOp::And | BinOp::Or => Some(DataType::Bool),
            op if op.is_comparison() => Some(DataType::Bool),
            BinOp::Concat => Some(DataType::Text),
            BinOp::Div => Some(DataType::Float),
            _ => match (kids[0], kids[1]) {
                (Some(a), Some(b)) => {
                    let unified = a.unify(b).filter(|t| t.is_numeric());
                    Some(unified.ok_or_else(|| {
                        SqlError::Plan(format!("cannot apply {op} to {a} and {b}"))
                    })?)
                }
                (Some(a), None) | (None, Some(a)) => Some(a),
                (None, None) => None,
            },
        },
        Expr::Unary { op: UnOp::Not, .. } => Some(DataType::Bool),
        Expr::Unary { op: UnOp::Neg, .. } => kids[0],
        Expr::IsNull { .. }
        | Expr::InList { .. }
        | Expr::Between { .. }
        | Expr::Like { .. }
        | Expr::Exists { .. }
        | Expr::InSubquery { .. } => Some(DataType::Bool),
        Expr::Case {
            operand,
            when_then,
            else_expr,
        } => {
            // children: [operand], (when, then)*, [else]
            let first = usize::from(operand.is_some());
            let thens = (0..when_then.len()).map(|i| kids[first + 2 * i + 1]);
            let otherwise = else_expr.as_ref().and_then(|_| *kids.last()?);
            unify_known(thens.chain([otherwise]), |t, bt| {
                format!("CASE branches have incompatible types {t} and {bt}")
            })?
        }
        Expr::Function { name, .. } => Some(function_type(name, kids)?),
        Expr::Cast { to, .. } => Some(*to),
        Expr::Predict { model, .. } => Some(provider.output_type(model)?),
        Expr::Subquery(_) | Expr::Parameter(_) => None,
        Expr::Wildcard => {
            return Err(SqlError::Plan("'*' is only valid inside COUNT(*)".into()))
        }
    })
}

/// The one type the known types of `types` unify to (`None` when none is
/// known); `incompatible` words the error for two that do not unify.
fn unify_known(
    types: impl IntoIterator<Item = Option<DataType>>,
    incompatible: impl Fn(DataType, DataType) -> String,
) -> Result<Option<DataType>> {
    let mut ty: Option<DataType> = None;
    for t in types.into_iter().flatten() {
        ty = Some(match ty {
            None => t,
            Some(prev) => prev
                .unify(t)
                .ok_or_else(|| SqlError::Plan(incompatible(prev, t)))?,
        });
    }
    Ok(ty)
}

fn function_type(name: &str, args: &[Option<DataType>]) -> Result<DataType> {
    if let Some(f) = AggFunc::parse(name) {
        // reaching here means an aggregate leaked outside Aggregate planning
        return Err(SqlError::Plan(format!(
            "aggregate {f:?} is not allowed in this context"
        )));
    }
    Ok(match name {
        "ABS" => args.first().copied().flatten().unwrap_or(DataType::Float),
        "ROUND" | "FLOOR" | "CEIL" | "CEILING" | "SQRT" | "EXP" | "LN" | "LOG" | "POWER"
        | "POW" | "SIGMOID" => DataType::Float,
        "UPPER" | "LOWER" | "SUBSTR" | "SUBSTRING" | "CONCAT" | "TRIM" | "REPLACE" => {
            DataType::Text
        }
        "LENGTH" | "YEAR" | "MONTH" | "DAY" => DataType::Int,
        "COALESCE" | "NULLIF" | "GREATEST" | "LEAST" | "IFNULL" => {
            unify_known(args.iter().copied(), |_, _| {
                format!("{name} arguments have incompatible types")
            })?
            .unwrap_or(DataType::Text)
        }
        other => {
            return Err(SqlError::Plan(format!("unknown function '{other}'")));
        }
    })
}
