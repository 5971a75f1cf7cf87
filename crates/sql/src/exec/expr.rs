//! Compiled physical expressions and their vectorized evaluation.

use super::functions::{eval_function, like_match};
use crate::ast::{BinOp, Expr, ModelPin, PredictStrategy, UnOp};
use crate::batch::RecordBatch;
use crate::column::{per_code, ColumnVector, RawColumn, RawColumnOwned};
use crate::error::{Result, SqlError};
use crate::schema::Schema;
use crate::types::{DataType, Value};
use crate::udf::ProviderRef;

/// A compiled expression: column references are resolved to indices and
/// the output type is known.
#[derive(Debug, Clone)]
pub struct PhysExpr {
    pub node: PhysNode,
    pub data_type: DataType,
}

#[derive(Debug, Clone)]
pub enum PhysNode {
    Column(usize),
    Literal(Value),
    Binary {
        left: Box<PhysExpr>,
        op: BinOp,
        right: Box<PhysExpr>,
    },
    Unary {
        op: UnOp,
        expr: Box<PhysExpr>,
    },
    IsNull {
        expr: Box<PhysExpr>,
        negated: bool,
    },
    InList {
        expr: Box<PhysExpr>,
        list: Vec<PhysExpr>,
        negated: bool,
    },
    Case {
        operand: Option<Box<PhysExpr>>,
        when_then: Vec<(PhysExpr, PhysExpr)>,
        else_expr: Option<Box<PhysExpr>>,
    },
    Like {
        expr: Box<PhysExpr>,
        pattern: Box<PhysExpr>,
        negated: bool,
    },
    Function {
        name: String,
        args: Vec<PhysExpr>,
    },
    Cast {
        expr: Box<PhysExpr>,
        to: DataType,
    },
    Predict {
        model: String,
        args: Vec<PhysExpr>,
        strategy: PredictStrategy,
        /// Provider-supplied description (model kind plus cross-optimizer
        /// transformations), captured at compile time for plan rendering.
        label: Option<String>,
        /// Keeps a derived `model` alive while this plan can score it.
        pin: Option<ModelPin>,
    },
    /// `?` placeholder resolved at execute time from `EvalContext::params`.
    /// Kept unbound through planning so a prepared plan can be cached once
    /// and re-executed with different parameter values.
    Parameter(usize),
}

/// Runtime context shared by expression evaluation.
pub struct EvalContext {
    pub provider: ProviderRef,
    pub user: String,
    /// Worker threads available for parallel PREDICT.
    pub threads: usize,
    /// Cooperative cancellation token, checked at operator entries, morsel
    /// boundaries, and row strides. `CancelToken::none()` never fires.
    pub cancel: super::cancel::CancelToken,
    /// Per-query row/memory budget charged by `execute_metered`.
    pub budget: std::sync::Arc<super::cancel::QueryBudget>,
    /// Bound parameter values for `PhysNode::Parameter` slots, in `?` order.
    pub params: std::sync::Arc<Vec<Value>>,
}

impl EvalContext {
    /// Context with no cancellation and no budget (embedded/test callers).
    pub fn new(provider: ProviderRef, user: impl Into<String>, threads: usize) -> EvalContext {
        EvalContext {
            provider,
            user: user.into(),
            threads,
            cancel: super::cancel::CancelToken::none(),
            budget: std::sync::Arc::new(super::cancel::QueryBudget::unlimited()),
            params: std::sync::Arc::new(Vec::new()),
        }
    }

    /// Attach a cancellation token.
    pub fn with_cancel(mut self, cancel: super::cancel::CancelToken) -> EvalContext {
        self.cancel = cancel;
        self
    }

    /// Attach a row/memory budget.
    pub fn with_budget(mut self, budget: std::sync::Arc<super::cancel::QueryBudget>) -> EvalContext {
        self.budget = budget;
        self
    }

    /// Attach the values bound to the statement's `?` placeholders.
    pub fn with_params(mut self, params: std::sync::Arc<Vec<Value>>) -> EvalContext {
        self.params = params;
        self
    }

    /// Look up a bound parameter; out-of-range is a typed execution error
    /// (never a panic) so arity mismatches surface cleanly at execute time.
    pub(crate) fn param(&self, i: usize) -> Result<&Value> {
        self.params.get(i).ok_or_else(|| {
            SqlError::Execution(format!(
                "no value bound for parameter ?{i} ({} provided)",
                self.params.len()
            ))
        })
    }
}

impl PhysExpr {
    /// Compile a resolved logical expression against an input schema.
    pub fn compile(
        expr: &Expr,
        schema: &Schema,
        provider: &dyn crate::udf::InferenceProvider,
    ) -> Result<PhysExpr> {
        Ok(Self::compile_typed(expr, schema, provider)?.0)
    }

    /// Compile bottom-up, once per node: each node is typed from its
    /// compiled children by [`crate::plan::node_type`], the rule
    /// [`crate::plan::expr_type`] applies. The type comes back as an
    /// `Option` so that a NULL or untyped `?` child stays unknown to its
    /// parent (`a + NULL` is typed as `a`); a node of unknown type is
    /// compiled as TEXT.
    fn compile_typed(
        expr: &Expr,
        schema: &Schema,
        provider: &dyn crate::udf::InferenceProvider,
    ) -> Result<(PhysExpr, Option<DataType>)> {
        if matches!(
            expr,
            Expr::Subquery(_) | Expr::InSubquery { .. } | Expr::Exists { .. }
        ) {
            return Err(SqlError::Plan(
                "subquery should have been flattened before compilation".into(),
            ));
        }
        let mut kids = Vec::new();
        expr.for_each_child(&mut |c| kids.push(Self::compile_typed(c, schema, provider)));
        let (kids, types): (Vec<PhysExpr>, Vec<Option<DataType>>) = kids
            .into_iter()
            .collect::<Result<Vec<_>>>()?
            .into_iter()
            .unzip();
        let ty = crate::plan::node_type(expr, &types, schema, provider)?;
        // The compiled children, taken in `for_each_child` order.
        let mut kids = kids.into_iter();
        let mut next = || kids.next().expect("one compiled child per child");
        let node = match expr {
            Expr::Column { name, .. } => {
                let idx = schema
                    .index_of(name)
                    .ok_or_else(|| SqlError::Plan(format!("unresolved column '{name}'")))?;
                PhysNode::Column(idx)
            }
            Expr::Literal(v) => PhysNode::Literal(v.clone()),
            Expr::Binary { op, .. } => PhysNode::Binary {
                left: Box::new(next()),
                op: *op,
                right: Box::new(next()),
            },
            Expr::Unary { op, .. } => PhysNode::Unary {
                op: *op,
                expr: Box::new(next()),
            },
            Expr::IsNull { negated, .. } => PhysNode::IsNull {
                expr: Box::new(next()),
                negated: *negated,
            },
            Expr::InList { list, negated, .. } => PhysNode::InList {
                expr: Box::new(next()),
                list: list.iter().map(|_| next()).collect(),
                negated: *negated,
            },
            Expr::Between { negated, .. } => {
                // desugar to (e >= low AND e <= high), possibly negated
                let (e, lo, hi) = (next(), next(), next());
                let bool_node = |node| PhysExpr {
                    node,
                    data_type: DataType::Bool,
                };
                let ge = bool_node(PhysNode::Binary {
                    left: Box::new(e.clone()),
                    op: BinOp::GtEq,
                    right: Box::new(lo),
                });
                let le = bool_node(PhysNode::Binary {
                    left: Box::new(e),
                    op: BinOp::LtEq,
                    right: Box::new(hi),
                });
                let both = PhysNode::Binary {
                    left: Box::new(ge),
                    op: BinOp::And,
                    right: Box::new(le),
                };
                if *negated {
                    PhysNode::Unary {
                        op: UnOp::Not,
                        expr: Box::new(bool_node(both)),
                    }
                } else {
                    both
                }
            }
            Expr::Like { negated, .. } => PhysNode::Like {
                expr: Box::new(next()),
                pattern: Box::new(next()),
                negated: *negated,
            },
            Expr::Case {
                operand,
                when_then,
                else_expr,
            } => PhysNode::Case {
                operand: operand.as_ref().map(|_| Box::new(next())),
                when_then: when_then.iter().map(|_| (next(), next())).collect(),
                else_expr: else_expr.as_ref().map(|_| Box::new(next())),
            },
            Expr::Function { name, args, .. } => PhysNode::Function {
                name: name.clone(),
                args: args.iter().map(|_| next()).collect(),
            },
            Expr::Cast { to, .. } => PhysNode::Cast {
                expr: Box::new(next()),
                to: *to,
            },
            Expr::Predict {
                model,
                args,
                strategy,
                pin,
            } => PhysNode::Predict {
                model: model.clone(),
                args: args.iter().map(|_| next()).collect(),
                strategy: *strategy,
                label: provider.describe(model),
                pin: pin.clone(),
            },
            Expr::Parameter(i) => PhysNode::Parameter(*i),
            Expr::Subquery(_) | Expr::InSubquery { .. } | Expr::Exists { .. } | Expr::Wildcard => {
                unreachable!("refused above or typed as an error")
            }
        };
        let data_type = ty.unwrap_or(DataType::Text);
        Ok((PhysExpr { node, data_type }, ty))
    }

    /// Whether any PREDICT call appears in this tree.
    pub fn contains_predict(&self) -> bool {
        let mut found = false;
        self.visit(&mut |e| {
            if matches!(e.node, PhysNode::Predict { .. }) {
                found = true;
            }
        });
        found
    }

    /// Provider descriptions of every PREDICT in this tree, in call order.
    pub fn predict_labels(&self, out: &mut Vec<String>) {
        self.visit(&mut |e| {
            if let PhysNode::Predict {
                label: Some(l), ..
            } = &e.node
            {
                out.push(l.clone());
            }
        });
    }

    fn visit(&self, f: &mut impl FnMut(&PhysExpr)) {
        f(self);
        match &self.node {
            PhysNode::Binary { left, right, .. } => {
                left.visit(f);
                right.visit(f);
            }
            PhysNode::Unary { expr, .. }
            | PhysNode::IsNull { expr, .. }
            | PhysNode::Cast { expr, .. } => expr.visit(f),
            PhysNode::InList { expr, list, .. } => {
                expr.visit(f);
                for e in list {
                    e.visit(f);
                }
            }
            PhysNode::Like { expr, pattern, .. } => {
                expr.visit(f);
                pattern.visit(f);
            }
            PhysNode::Case {
                operand,
                when_then,
                else_expr,
            } => {
                if let Some(o) = operand {
                    o.visit(f);
                }
                for (w, t) in when_then {
                    w.visit(f);
                    t.visit(f);
                }
                if let Some(e) = else_expr {
                    e.visit(f);
                }
            }
            PhysNode::Function { args, .. } | PhysNode::Predict { args, .. } => {
                for a in args {
                    a.visit(f);
                }
            }
            PhysNode::Column(_) | PhysNode::Literal(_) | PhysNode::Parameter(_) => {}
        }
    }

    /// Whether evaluating this expression can touch a batch column or a
    /// model. Column-free, PREDICT-free subtrees (parameters, literals,
    /// casts and scalar functions over them — every built-in function is
    /// deterministic) produce the same value on every row, so the
    /// vectorized evaluator computes them once per batch and broadcasts.
    /// Prepared plans keep `CAST(?n AS ...)` unfolded so one cached plan
    /// serves every binding; this is what keeps that from costing a
    /// per-row cast on the serving hot path.
    fn is_column_free(&self) -> bool {
        let mut free = true;
        self.visit(&mut |e| {
            if matches!(e.node, PhysNode::Column(_) | PhysNode::Predict { .. }) {
                free = false;
            }
        });
        free
    }

    /// A column of `n` copies of `v`, typed like this expression.
    fn broadcast(&self, v: &Value, n: usize) -> Result<ColumnVector> {
        ColumnVector::repeat(v.data_type().unwrap_or(self.data_type), v, n)
    }

    /// The one value this expression takes on every row of `batch`, when it
    /// reads no column and no model: what a column-vs-scalar kernel
    /// compares against instead of a broadcast constant vector. `None` on
    /// an empty batch, where nothing may be evaluated (a constant that
    /// errors must not fail a query that has no rows).
    fn constant(&self, batch: &RecordBatch, ctx: &EvalContext) -> Result<Option<Value>> {
        Ok(match &self.node {
            PhysNode::Literal(v) => Some(v.clone()),
            PhysNode::Parameter(i) => Some(ctx.param(*i)?.clone()),
            PhysNode::Column(_) => None,
            _ if batch.num_rows() > 0 && self.is_column_free() => {
                Some(self.eval_row(batch, 0, ctx)?)
            }
            _ => None,
        })
    }

    /// Evaluate as a selection mask: one `bool` per row, `true` only when
    /// the expression is SQL-true (NULL filters out). Shared by the serial
    /// and morsel-parallel filter paths.
    pub fn eval_mask(&self, batch: &RecordBatch, ctx: &EvalContext) -> Result<Vec<bool>> {
        let col = self.eval(batch, ctx)?;
        Ok(match (col.raw(), col.validity()) {
            (RawColumn::Bool(bs), None) => bs.to_vec(),
            (RawColumn::Bool(bs), Some(valid)) => {
                bs.iter().zip(valid).map(|(b, ok)| *b && *ok).collect()
            }
            // a non-boolean predicate value is never SQL-true
            _ => vec![false; col.len()],
        })
    }

    /// Vectorized evaluation over a batch.
    ///
    /// Doubles as the per-morsel cancellation point: every morsel closure
    /// of every parallel operator evaluates at least one expression, so
    /// checking here bounds how long a cancelled query keeps running by
    /// one morsel per worker.
    pub fn eval(&self, batch: &RecordBatch, ctx: &EvalContext) -> Result<ColumnVector> {
        ctx.cancel.check()?;
        // Constant hoisting: a compound expression that reads no column
        // evaluates once and broadcasts instead of once per row (leaf
        // literals/parameters already broadcast below without the
        // tree-walk check).
        if batch.num_rows() > 1
            && !matches!(
                self.node,
                PhysNode::Column(_) | PhysNode::Literal(_) | PhysNode::Parameter(_)
            )
            && self.is_column_free()
        {
            let v = self.eval_row(batch, 0, ctx)?;
            return self.broadcast(&v, batch.num_rows());
        }
        match &self.node {
            PhysNode::Column(i) => Ok(batch.column(*i).clone()),
            PhysNode::Literal(v) => self.broadcast(v, batch.num_rows()),
            PhysNode::Parameter(i) => self.broadcast(ctx.param(*i)?, batch.num_rows()),
            // Row strategy models a scalar UDF: the engine invokes the
            // scorer once per row, re-paying slicing/dispatch each time —
            // the cost profile the paper's "Inline SQL 1x" anchor measures.
            PhysNode::Predict {
                strategy: PredictStrategy::Row,
                ..
            } => {
                let n = batch.num_rows();
                let mut out = ColumnVector::with_capacity(self.data_type, n);
                for row in 0..n {
                    ctx.cancel.check_every(row)?;
                    out.push(self.eval_row(batch, row, ctx)?)?;
                }
                Ok(out)
            }
            PhysNode::Predict {
                model,
                args,
                strategy,
                ..
            } => {
                let inputs: Vec<ColumnVector> = args
                    .iter()
                    .map(|a| a.eval(batch, ctx))
                    .collect::<Result<_>>()?;
                ctx.provider
                    .predict_cancellable(model, &inputs, *strategy, &ctx.user, &ctx.cancel)
            }
            // Comparisons produce a bool column without per-row boxing (the
            // hot path of scan filters and inlined-model predicates).
            PhysNode::Binary { left, op, right } if op.is_comparison() => {
                // Column-vs-scalar: a literal, parameter or column-free
                // operand is compared in place, never broadcast.
                if let Some(s) = right.constant(batch, ctx)? {
                    return compare_scalar(&left.eval(batch, ctx)?, *op, &s, false);
                }
                if let Some(s) = left.constant(batch, ctx)? {
                    return compare_scalar(&right.eval(batch, ctx)?, *op, &s, true);
                }
                let l = left.eval(batch, ctx)?;
                let r = right.eval(batch, ctx)?;
                if let (Some(ls), Some(rs)) = (l.as_f64_slice(), r.as_f64_slice()) {
                    let pairs = ls.iter().zip(rs).map(|(a, b)| (*a, *b));
                    return Ok(ColumnVector::from_bool(compare_pairs(pairs, *op)));
                }
                // Same for int columns (key joins, `lo <= hi` range checks).
                if let (Some(ls), Some(rs)) = (l.as_i64_slice(), r.as_i64_slice()) {
                    let pairs = ls.iter().zip(rs).map(|(a, b)| (*a, *b));
                    return Ok(ColumnVector::from_bool(compare_pairs(pairs, *op)));
                }
                binary_rowwise(self.data_type, &l, *op, &r)
            }
            // Vectorized AND/OR: evaluate both sides as columns (each
            // taking its own fast path — a conjunctive range filter like
            // `id >= ?1 AND id < ?2` stays columnar end-to-end) and
            // combine with the same three-valued `eval_binary` logic the
            // scalar walk uses. Eager right-side evaluation can reach a
            // row the short-circuiting scalar walk would skip; if it
            // errors, re-run row-wise so error semantics stay identical.
            PhysNode::Binary { left, op, right }
                if matches!(op, BinOp::And | BinOp::Or) =>
            {
                let l = left.eval(batch, ctx)?;
                match right.eval(batch, ctx) {
                    Ok(r) => {
                        // Bool columns (what the comparison kernels
                        // produce): typed two- or three-valued logic.
                        if let (RawColumn::Bool(ls), RawColumn::Bool(rs)) = (l.raw(), r.raw()) {
                            return logic_kernel(*op, (ls, l.validity()), (rs, r.validity()));
                        }
                        binary_rowwise(DataType::Bool, &l, *op, &r)
                    }
                    Err(_) => {
                        let n = batch.num_rows();
                        let mut out = ColumnVector::with_capacity(self.data_type, n);
                        for row in 0..n {
                            ctx.cancel.check_every(row)?;
                            out.push(self.eval_row(batch, row, ctx)?)?;
                        }
                        Ok(out)
                    }
                }
            }
            // Fast path: SIGMOID over a float column (inlined logistic
            // models evaluate this once per row otherwise).
            PhysNode::Function { name, args } if name == "SIGMOID" && args.len() == 1 => {
                let a = args[0].eval(batch, ctx)?;
                if let Some(xs) = a.as_f64_slice() {
                    return Ok(ColumnVector::from_f64(
                        xs.iter().map(|x| 1.0 / (1.0 + (-x).exp())),
                    ));
                }
                let mut out = ColumnVector::with_capacity(self.data_type, a.len());
                for i in 0..a.len() {
                    out.push(eval_function("SIGMOID", &[a.get(i)])?)?;
                }
                Ok(out)
            }
            // Fast path: COALESCE(col, literal) over floats — the shape
            // model inlining emits for imputation.
            PhysNode::Function { name, args }
                if name == "COALESCE"
                    && args.len() == 2
                    && matches!(args[1].node, PhysNode::Literal(Value::Float(_)))
                    && self.data_type == DataType::Float =>
            {
                let a = args[0].eval(batch, ctx)?;
                let PhysNode::Literal(Value::Float(fill)) = args[1].node else {
                    unreachable!()
                };
                if a.as_f64_slice().is_some() {
                    return Ok(a); // no NULLs: COALESCE is the identity
                }
                Ok(ColumnVector::from_f64(
                    (0..a.len()).map(|i| a.get_f64(i).unwrap_or(fill)),
                ))
            }
            // Fast path: pure-numeric binary arithmetic over float columns.
            PhysNode::Binary { left, op, right }
                if matches!(
                    op,
                    BinOp::Plus | BinOp::Minus | BinOp::Mul | BinOp::Div
                ) && self.data_type == DataType::Float =>
            {
                let l = left.eval(batch, ctx)?;
                let r = right.eval(batch, ctx)?;
                if let (Some(ls), Some(rs)) = (l.as_f64_slice(), r.as_f64_slice()) {
                    let out = match op {
                        BinOp::Plus => ls.iter().zip(rs).map(|(a, b)| a + b).collect::<Vec<_>>(),
                        BinOp::Minus => ls.iter().zip(rs).map(|(a, b)| a - b).collect(),
                        BinOp::Mul => ls.iter().zip(rs).map(|(a, b)| a * b).collect(),
                        BinOp::Div => {
                            if rs.contains(&0.0) {
                                return Err(SqlError::Execution("division by zero".into()));
                            }
                            ls.iter().zip(rs).map(|(a, b)| a / b).collect()
                        }
                        _ => unreachable!(),
                    };
                    return Ok(ColumnVector::from_f64(out));
                }
                binary_rowwise(self.data_type, &l, *op, &r)
            }
            _ => {
                let n = batch.num_rows();
                let mut out = ColumnVector::with_capacity(self.data_type, n);
                for row in 0..n {
                    ctx.cancel.check_every(row)?;
                    out.push(self.eval_row(batch, row, ctx)?)?;
                }
                Ok(out)
            }
        }
    }

    /// Scalar evaluation of one row. PREDICT here degenerates to a one-row
    /// provider call — the "row UDF" code path the paper's Inline-SQL
    /// baseline measures.
    pub fn eval_row(&self, batch: &RecordBatch, row: usize, ctx: &EvalContext) -> Result<Value> {
        Ok(match &self.node {
            PhysNode::Column(i) => batch.column(*i).get(row),
            PhysNode::Literal(v) => v.clone(),
            PhysNode::Parameter(i) => ctx.param(*i)?.clone(),
            PhysNode::Binary { left, op, right } => {
                // short-circuit logic ops
                match op {
                    BinOp::And => {
                        let l = left.eval_row(batch, row, ctx)?;
                        if l.as_bool() == Some(false) {
                            return Ok(Value::Bool(false));
                        }
                        let r = right.eval_row(batch, row, ctx)?;
                        return eval_binary(&l, BinOp::And, &r);
                    }
                    BinOp::Or => {
                        let l = left.eval_row(batch, row, ctx)?;
                        if l.as_bool() == Some(true) {
                            return Ok(Value::Bool(true));
                        }
                        let r = right.eval_row(batch, row, ctx)?;
                        return eval_binary(&l, BinOp::Or, &r);
                    }
                    _ => {}
                }
                let l = left.eval_row(batch, row, ctx)?;
                let r = right.eval_row(batch, row, ctx)?;
                return eval_binary(&l, *op, &r);
            }
            PhysNode::Unary { op, expr } => {
                let v = expr.eval_row(batch, row, ctx)?;
                match op {
                    UnOp::Not => match v {
                        Value::Null => Value::Null,
                        other => Value::Bool(!other.as_bool().ok_or_else(|| {
                            SqlError::Execution(format!("NOT requires boolean, got {other}"))
                        })?),
                    },
                    UnOp::Neg => match v {
                        Value::Null => Value::Null,
                        Value::Int(i) => Value::Int(i.checked_neg().ok_or_else(|| {
                            SqlError::Execution(format!(
                                "integer overflow evaluating -({i})"
                            ))
                        })?),
                        Value::Float(f) => Value::Float(-f),
                        other => {
                            return Err(SqlError::Execution(format!(
                                "cannot negate {other}"
                            )))
                        }
                    },
                }
            }
            PhysNode::IsNull { expr, negated } => {
                let v = expr.eval_row(batch, row, ctx)?;
                Value::Bool(v.is_null() != *negated)
            }
            PhysNode::InList {
                expr,
                list,
                negated,
            } => {
                let v = expr.eval_row(batch, row, ctx)?;
                if v.is_null() {
                    return Ok(Value::Null);
                }
                let mut saw_null = false;
                let mut found = false;
                for item in list {
                    let iv = item.eval_row(batch, row, ctx)?;
                    if iv.is_null() {
                        saw_null = true;
                    } else if v == iv {
                        found = true;
                        break;
                    }
                }
                if found {
                    Value::Bool(!*negated)
                } else if saw_null {
                    Value::Null
                } else {
                    Value::Bool(*negated)
                }
            }
            PhysNode::Like {
                expr,
                pattern,
                negated,
            } => {
                let v = expr.eval_row(batch, row, ctx)?;
                let p = pattern.eval_row(batch, row, ctx)?;
                match (v.as_str(), p.as_str()) {
                    (Some(s), Some(pat)) => Value::Bool(like_match(s, pat) != *negated),
                    _ => Value::Null,
                }
            }
            PhysNode::Case {
                operand,
                when_then,
                else_expr,
            } => {
                let op_v = match operand {
                    Some(o) => Some(o.eval_row(batch, row, ctx)?),
                    None => None,
                };
                for (w, t) in when_then {
                    let wv = w.eval_row(batch, row, ctx)?;
                    let hit = match &op_v {
                        Some(ov) => !ov.is_null() && *ov == wv,
                        None => wv.as_bool() == Some(true),
                    };
                    if hit {
                        return t.eval_row(batch, row, ctx);
                    }
                }
                match else_expr {
                    Some(e) => return e.eval_row(batch, row, ctx),
                    None => Value::Null,
                }
            }
            PhysNode::Function { name, args } => {
                let vals: Vec<Value> = args
                    .iter()
                    .map(|a| a.eval_row(batch, row, ctx))
                    .collect::<Result<_>>()?;
                eval_function(name, &vals)?
            }
            PhysNode::Cast { expr, to } => expr.eval_row(batch, row, ctx)?.cast(*to)?,
            PhysNode::Predict { model, args, .. } => {
                let one_row = batch.slice(row, 1);
                let inputs: Vec<ColumnVector> = args
                    .iter()
                    .map(|a| a.eval(&one_row, ctx))
                    .collect::<Result<_>>()?;
                let out = ctx.provider.predict_cancellable(
                    model,
                    &inputs,
                    PredictStrategy::Row,
                    &ctx.user,
                    &ctx.cancel,
                )?;
                out.get(0)
            }
        })
    }
}

/// The scalar walk over two evaluated operand columns: what every typed
/// binary kernel falls back to for the pairings it does not cover.
fn binary_rowwise(
    data_type: DataType,
    l: &ColumnVector,
    op: BinOp,
    r: &ColumnVector,
) -> Result<ColumnVector> {
    let mut out = ColumnVector::with_capacity(data_type, l.len());
    for i in 0..l.len() {
        out.push(eval_binary(&l.get(i), op, &r.get(i))?)?;
    }
    Ok(out)
}

/// One comparison per pair, through the type's native operators: exact on
/// ints and strings, IEEE on floats (every ordered test against NaN is
/// false and `<>` is true, as in [`eval_binary`]).
fn compare_pairs<T: PartialOrd>(pairs: impl Iterator<Item = (T, T)>, op: BinOp) -> Vec<bool> {
    match op {
        BinOp::Eq => pairs.map(|(a, b)| a == b).collect(),
        BinOp::NotEq => pairs.map(|(a, b)| a != b).collect(),
        BinOp::Lt => pairs.map(|(a, b)| a < b).collect(),
        BinOp::LtEq => pairs.map(|(a, b)| a <= b).collect(),
        BinOp::Gt => pairs.map(|(a, b)| a > b).collect(),
        BinOp::GtEq => pairs.map(|(a, b)| a >= b).collect(),
        _ => unreachable!("caller checked is_comparison"),
    }
}

/// `col <op> s` (or `s <op> col` when `scalar_on_left`) for every row,
/// reading the typed buffer in place: text against text (a dictionary
/// column compares once per code its rows name), int against int exactly,
/// and float or int columns against any numeric scalar as f64 (the
/// coercions of [`Value::sql_cmp`]). NULL rows, or a NULL scalar,
/// compare to NULL. Other pairings take the scalar walk, which also raises
/// its "cannot compare" error.
fn compare_scalar(
    col: &ColumnVector,
    written: BinOp,
    s: &Value,
    scalar_on_left: bool,
) -> Result<ColumnVector> {
    let n = col.len();
    if s.is_null() {
        return ColumnVector::repeat(DataType::Bool, &Value::Null, n);
    }
    let op = if scalar_on_left { written.flip() } else { written };
    let mut bits = match (col.raw(), s, s.as_f64()) {
        (RawColumn::Text(rows), Value::Text(t), _) => {
            compare_pairs(rows.iter().map(|x| (x.as_str(), t.as_str())), op)
        }
        (RawColumn::Dict { codes, values }, Value::Text(t), _) => {
            // Once per code the rows name; NULL rows are masked below.
            per_code(codes, None, values.len(), |code, _| {
                let x = code.map_or("", |c| values[c as usize].as_str());
                compare_pairs(std::iter::once((x, t.as_str())), op)[0]
            })
        }
        (RawColumn::Int(rows), Value::Int(i), _) => {
            compare_pairs(rows.iter().map(|x| (*x, *i)), op)
        }
        (RawColumn::Float(rows), _, Some(x)) => compare_pairs(rows.iter().map(|a| (*a, x)), op),
        (RawColumn::Int(rows), _, Some(x)) => {
            compare_pairs(rows.iter().map(|a| (*a as f64, x)), op)
        }
        _ => {
            let mut out = ColumnVector::with_capacity(DataType::Bool, n);
            for i in 0..n {
                out.push(if scalar_on_left {
                    eval_binary(s, written, &col.get(i))?
                } else {
                    eval_binary(&col.get(i), written, s)?
                })?;
            }
            return Ok(out);
        }
    };
    match col.validity() {
        None => Ok(ColumnVector::from_bool(bits)),
        Some(valid) => {
            for (b, ok) in bits.iter_mut().zip(valid) {
                *b &= *ok;
            }
            ColumnVector::from_raw(RawColumnOwned::Bool(bits), Some(valid.to_vec()))
        }
    }
}

/// A Bool column's raw values and its validity bitmap, if it has NULLs.
type BoolParts<'a> = (&'a [bool], Option<&'a [bool]>);

/// `l AND r` / `l OR r` over Bool columns with SQL's three-valued logic:
/// a row is false (AND) or true (OR) as soon as one known side decides it,
/// and NULL only when the unknown side could still change the answer.
fn logic_kernel(op: BinOp, (ls, lok): BoolParts, (rs, rok): BoolParts) -> Result<ColumnVector> {
    let and = op == BinOp::And;
    if lok.is_none() && rok.is_none() {
        let out = ls.iter().zip(rs).map(|(a, b)| if and { *a && *b } else { *a || *b });
        return Ok(ColumnVector::from_bool(out));
    }
    let n = ls.len();
    let mut vals = Vec::with_capacity(n);
    let mut known = Vec::with_capacity(n);
    for i in 0..n {
        let (lk, rk) = (lok.is_none_or(|v| v[i]), rok.is_none_or(|v| v[i]));
        let (lt, lf) = (lk && ls[i], lk && !ls[i]);
        let (rt, rf) = (rk && rs[i], rk && !rs[i]);
        let (t, f) = if and { (lt && rt, lf || rf) } else { (lt || rt, lf && rf) };
        vals.push(t);
        known.push(t || f);
    }
    ColumnVector::from_raw(RawColumnOwned::Bool(vals), Some(known))
}

fn int_overflow(a: i64, op: BinOp, b: i64) -> SqlError {
    SqlError::Execution(format!("integer overflow evaluating {a} {op} {b}"))
}

/// SQL binary-operator semantics on scalars.
pub fn eval_binary(l: &Value, op: BinOp, r: &Value) -> Result<Value> {
    use BinOp::*;
    // three-valued logic for AND/OR
    match op {
        And => {
            return Ok(match (l.as_bool(), r.as_bool()) {
                (Some(false), _) | (_, Some(false)) => Value::Bool(false),
                (Some(true), Some(true)) => Value::Bool(true),
                _ => Value::Null,
            })
        }
        Or => {
            return Ok(match (l.as_bool(), r.as_bool()) {
                (Some(true), _) | (_, Some(true)) => Value::Bool(true),
                (Some(false), Some(false)) => Value::Bool(false),
                _ => Value::Null,
            })
        }
        _ => {}
    }
    if l.is_null() || r.is_null() {
        return Ok(Value::Null);
    }
    if op.is_comparison() {
        let b = match l.sql_cmp(r) {
            Some(ord) => match op {
                Eq => ord == std::cmp::Ordering::Equal,
                NotEq => ord != std::cmp::Ordering::Equal,
                Lt => ord == std::cmp::Ordering::Less,
                LtEq => ord != std::cmp::Ordering::Greater,
                Gt => ord == std::cmp::Ordering::Greater,
                GtEq => ord != std::cmp::Ordering::Less,
                _ => unreachable!(),
            },
            // Two numbers with no order: one is NaN. IEEE answers, the
            // same ones the typed column kernels give — a filter must not
            // succeed on a NULL-free morsel and fail on the next one.
            None if l.as_f64().is_some() && r.as_f64().is_some() => op == NotEq,
            None => return Err(SqlError::Execution(format!("cannot compare {l} with {r}"))),
        };
        return Ok(Value::Bool(b));
    }
    if op == Concat {
        return Ok(Value::Text(format!("{l}{r}")));
    }
    // arithmetic
    match (l, r) {
        (Value::Int(a), Value::Int(b)) => Ok(match op {
            // Checked arithmetic: SQL integers must not silently wrap.
            Plus => Value::Int(a.checked_add(*b).ok_or_else(|| int_overflow(*a, op, *b))?),
            Minus => Value::Int(a.checked_sub(*b).ok_or_else(|| int_overflow(*a, op, *b))?),
            Mul => Value::Int(a.checked_mul(*b).ok_or_else(|| int_overflow(*a, op, *b))?),
            Div => {
                if *b == 0 {
                    return Err(SqlError::Execution("division by zero".into()));
                }
                Value::Float(*a as f64 / *b as f64)
            }
            Mod => {
                if *b == 0 {
                    return Err(SqlError::Execution("division by zero".into()));
                }
                // i64::MIN % -1 overflows in hardware even though the
                // mathematical result is 0.
                Value::Int(a.checked_rem(*b).ok_or_else(|| int_overflow(*a, op, *b))?)
            }
            _ => unreachable!(),
        }),
        // Date +/- integer days
        (Value::Date(d), Value::Int(n)) if matches!(op, Plus | Minus) => Ok(Value::Date(
            if op == Plus { d + *n as i32 } else { d - *n as i32 },
        )),
        (Value::Date(a), Value::Date(b)) if op == Minus => Ok(Value::Int((*a - *b) as i64)),
        _ => {
            let (a, b) = (
                l.as_f64().ok_or_else(|| {
                    SqlError::Execution(format!("cannot apply {op} to {l}"))
                })?,
                r.as_f64().ok_or_else(|| {
                    SqlError::Execution(format!("cannot apply {op} to {r}"))
                })?,
            );
            Ok(match op {
                Plus => Value::Float(a + b),
                Minus => Value::Float(a - b),
                Mul => Value::Float(a * b),
                Div => {
                    if b == 0.0 {
                        return Err(SqlError::Execution("division by zero".into()));
                    }
                    Value::Float(a / b)
                }
                // `x % 0.0` is IEEE NaN in hardware, but SQL semantics
                // match integer modulo: division by zero is an error.
                Mod => {
                    if b == 0.0 {
                        return Err(SqlError::Execution("division by zero".into()));
                    }
                    Value::Float(a % b)
                }
                _ => unreachable!(),
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::udf::NoInference;
    use std::sync::Arc;

    fn ctx() -> EvalContext {
        EvalContext::new(Arc::new(NoInference), "admin", 1)
    }

    fn test_batch() -> RecordBatch {
        let schema = Arc::new(Schema::from_pairs(&[
            ("a", DataType::Int),
            ("b", DataType::Float),
            ("s", DataType::Text),
        ]));
        RecordBatch::from_rows(
            schema,
            &[
                vec![Value::Int(1), Value::Float(0.5), Value::Text("apple".into())],
                vec![Value::Int(2), Value::Float(1.5), Value::Text("banana".into())],
                vec![Value::Null, Value::Float(2.5), Value::Text("cherry".into())],
            ],
        )
        .unwrap()
    }

    fn compile(sql: &str) -> PhysExpr {
        let e = crate::parser::parse_expr(sql).unwrap();
        let batch = test_batch();
        PhysExpr::compile(&e, batch.schema(), &NoInference).unwrap()
    }

    #[test]
    fn arithmetic_and_nulls() {
        let batch = test_batch();
        let e = compile("a + 10");
        let out = e.eval(&batch, &ctx()).unwrap();
        assert_eq!(out.get(0), Value::Int(11));
        assert!(out.get(2).is_null());
    }

    #[test]
    fn integer_overflow_is_a_typed_error() {
        let max = Value::Int(i64::MAX);
        let min = Value::Int(i64::MIN);
        for (l, op, r) in [
            (&max, BinOp::Plus, &Value::Int(1)),
            (&min, BinOp::Minus, &Value::Int(1)),
            (&max, BinOp::Mul, &Value::Int(2)),
            (&min, BinOp::Mod, &Value::Int(-1)),
        ] {
            match eval_binary(l, op, r) {
                Err(SqlError::Execution(msg)) => {
                    assert!(msg.contains("integer overflow"), "got: {msg}")
                }
                other => panic!("expected overflow error for {l} {op} {r}, got {other:?}"),
            }
        }
        // In-range results are unaffected.
        assert_eq!(
            eval_binary(&max, BinOp::Plus, &Value::Int(0)).unwrap(),
            Value::Int(i64::MAX)
        );
        assert_eq!(
            eval_binary(&min, BinOp::Mod, &Value::Int(2)).unwrap(),
            Value::Int(0)
        );
    }

    #[test]
    fn negating_i64_min_is_a_typed_error() {
        let schema = Arc::new(Schema::from_pairs(&[("a", DataType::Int)]));
        let batch =
            RecordBatch::from_rows(schema.clone(), &[vec![Value::Int(i64::MIN)]]).unwrap();
        let e = crate::parser::parse_expr("-a").unwrap();
        let phys = PhysExpr::compile(&e, &schema, &NoInference).unwrap();
        match phys.eval(&batch, &ctx()) {
            Err(SqlError::Execution(msg)) => {
                assert!(msg.contains("integer overflow"), "got: {msg}")
            }
            other => panic!("expected overflow error, got {other:?}"),
        }
    }

    #[test]
    fn float_fast_path() {
        let batch = test_batch();
        let e = compile("b * 2.0");
        let out = e.eval(&batch, &ctx()).unwrap();
        assert_eq!(out.get(1), Value::Float(3.0));
    }

    #[test]
    fn comparisons_and_logic() {
        let batch = test_batch();
        let e = compile("a >= 2 OR s = 'apple'");
        let out = e.eval(&batch, &ctx()).unwrap();
        assert_eq!(out.get(0), Value::Bool(true));
        assert_eq!(out.get(1), Value::Bool(true));
        assert!(out.get(2).is_null(), "NULL OR false is NULL");
    }

    #[test]
    fn nan_compares_the_same_with_and_without_nulls_in_the_column() {
        // IEEE answers on both the typed kernels and the scalar walk: a
        // filter over a NaN must not pass on a NULL-free morsel and raise
        // "cannot compare" on the next one.
        let nan = Value::Float(f64::NAN);
        for (op, want) in [(BinOp::Eq, false), (BinOp::NotEq, true), (BinOp::GtEq, false)] {
            assert_eq!(eval_binary(&nan, op, &Value::Float(1.0)).unwrap(), Value::Bool(want));
            assert_eq!(eval_binary(&Value::Int(1), op, &nan).unwrap(), Value::Bool(want));
        }
        assert!(eval_binary(&nan, BinOp::Lt, &Value::Text("x".into())).is_err());
        let schema = Arc::new(Schema::from_pairs(&[("b", DataType::Float)]));
        let e = crate::parser::parse_expr("b >= 1.0").unwrap();
        let phys = PhysExpr::compile(&e, &schema, &NoInference).unwrap();
        for rows in [
            vec![vec![nan.clone()], vec![Value::Float(2.0)]],
            vec![vec![nan.clone()], vec![Value::Float(2.0)], vec![Value::Null]],
        ] {
            let batch = RecordBatch::from_rows(schema.clone(), &rows).unwrap();
            let out = phys.eval(&batch, &ctx()).unwrap();
            assert_eq!(out.get(0), Value::Bool(false));
            assert_eq!(out.get(1), Value::Bool(true));
        }
    }

    #[test]
    fn between_desugars() {
        let batch = test_batch();
        let e = compile("b BETWEEN 1.0 AND 2.0");
        let out = e.eval(&batch, &ctx()).unwrap();
        assert_eq!(out.get(0), Value::Bool(false));
        assert_eq!(out.get(1), Value::Bool(true));
        assert_eq!(out.get(2), Value::Bool(false));
    }

    #[test]
    fn in_list_with_null_semantics() {
        let batch = test_batch();
        let e = compile("a IN (1, 3)");
        let out = e.eval(&batch, &ctx()).unwrap();
        assert_eq!(out.get(0), Value::Bool(true));
        assert_eq!(out.get(1), Value::Bool(false));
        assert!(out.get(2).is_null());
    }

    #[test]
    fn like_and_case() {
        let batch = test_batch();
        let e = compile("CASE WHEN s LIKE '%an%' THEN 'has-an' ELSE 'no' END");
        let out = e.eval(&batch, &ctx()).unwrap();
        assert_eq!(out.get(0), Value::Text("no".into()));
        assert_eq!(out.get(1), Value::Text("has-an".into()));
    }

    #[test]
    fn cast_and_functions() {
        let batch = test_batch();
        let e = compile("CAST(b AS INT) + LENGTH(s)");
        let out = e.eval(&batch, &ctx()).unwrap();
        assert_eq!(out.get(0), Value::Int(5)); // 0 + 5
    }

    #[test]
    fn division_by_zero_is_error() {
        let batch = test_batch();
        let e = compile("a / 0");
        assert!(e.eval(&batch, &ctx()).is_err());
    }

    #[test]
    fn date_arithmetic() {
        let l = Value::Date(crate::types::parse_date("1996-01-01").unwrap());
        let out = eval_binary(&l, BinOp::Plus, &Value::Int(31)).unwrap();
        assert_eq!(out, Value::Date(crate::types::parse_date("1996-02-01").unwrap()));
        let diff = eval_binary(
            &Value::Date(10),
            BinOp::Minus,
            &Value::Date(3),
        )
        .unwrap();
        assert_eq!(diff, Value::Int(7));
    }
}
