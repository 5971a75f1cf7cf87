//! The SQL×ML cross-optimizer (paper §4.1).
//!
//! Implements, one rule per paper bullet:
//! * **predicate push-up/down between SQL queries and ML models** —
//!   comparisons against logistic predictions become linear-threshold
//!   comparisons (`sigmoid(raw) >= c` → `raw >= logit(c)`), which the
//!   relational optimizer can then push below joins and into scans;
//! * **automatic pruning of unused input feature-columns exploiting
//!   model sparsity** — PREDICT arguments whose derived features carry no
//!   weight are dropped, letting projection pruning shrink the scan;
//! * **model compression exploiting input data statistics** — decision
//!   trees are pruned of branches unreachable given column min/max;
//! * **physical operator selection based on statistics, available runtime
//!   and hardware** — a small model is *inlined* into pure SQL (the
//!   Froid-style UDF inlining the paper cites); every other PREDICT keeps
//!   its strategy for the physical planner, which owns the one fan-out
//!   decision: it sizes each operator's morsel pool from row estimates and
//!   the engine's `ExecOptions` thread budget, and each morsel is scored
//!   by the single compiled kernel.

pub mod inline;
pub mod predicates;
pub mod stats;

use crate::registry::ModelRegistry;
use flock_ml::{specialize_mask, Encoder, InputConstraint, Pipeline};
use flock_sql::ast::{Expr, ModelPin};
use flock_sql::plan::{rewrite_expr, LogicalPlan, PlanRewriter};
use flock_sql::{sync, Catalog, Result, Value};
use inline::{inline_linear_raw, inline_pipeline, logit_threshold, LogitRewrite};
use std::cell::Cell;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, RwLock};

/// Cross-optimizer configuration. Each rule toggles independently so the
/// ablation benches can attribute speedups.
#[derive(Debug, Clone, Copy)]
pub struct XOptConfig {
    pub feature_pruning: bool,
    pub model_compression: bool,
    pub predicate_pushup: bool,
    pub inline_models: bool,
    /// Specialize models against query predicates (Raven-style): fold
    /// predicate-fixed inputs into the pipeline and prune the model.
    pub predicate_specialization: bool,
    /// Trees at most this large are eligible for CASE-WHEN inlining.
    pub inline_max_tree_nodes: usize,
}

impl Default for XOptConfig {
    fn default() -> Self {
        XOptConfig {
            feature_pruning: true,
            model_compression: true,
            predicate_pushup: true,
            inline_models: true,
            predicate_specialization: true,
            inline_max_tree_nodes: 128,
        }
    }
}

impl XOptConfig {
    /// Everything off — the plain "SONNX" configuration (in-DB inference
    /// with engine parallelism but no cross-optimization).
    pub fn disabled() -> Self {
        XOptConfig {
            feature_pruning: false,
            model_compression: false,
            predicate_pushup: false,
            inline_models: false,
            predicate_specialization: false,
            ..Default::default()
        }
    }
}

/// One rewrite of a plan: the catalog it reads, and whether a model was
/// compressed to its tables' column ranges.
struct Pass<'a> {
    catalog: &'a Catalog,
    compressed: Cell<bool>,
}

/// The rewriter registered with the SQL engine.
pub struct CrossOptimizer {
    registry: Arc<ModelRegistry>,
    config: RwLock<XOptConfig>,
}

impl CrossOptimizer {
    pub fn new(registry: Arc<ModelRegistry>, config: XOptConfig) -> Self {
        CrossOptimizer {
            registry,
            config: RwLock::new(config),
        }
    }

    pub fn config(&self) -> XOptConfig {
        *sync::read(&self.config)
    }

    pub fn set_config(&self, config: XOptConfig) {
        *sync::write(&self.config) = config;
    }

    fn rewrite_node(&self, plan: LogicalPlan, pass: &Pass<'_>) -> Result<LogicalPlan> {
        let cfg = self.config();
        Ok(match plan {
            LogicalPlan::Filter { input, predicate } => {
                let input = Box::new(self.rewrite_node(*input, pass)?);
                let predicate = if cfg.predicate_pushup {
                    self.push_up_predicate(predicate)?
                } else {
                    predicate
                };
                // Sibling conjuncts constrain PREDICTs inside the
                // predicate itself, on top of anything below the filter.
                let constraints = self.constraints_for(&cfg, &input, Some(&predicate));
                let predicate = self.rewrite_exprs(predicate, &input, pass, &cfg, &constraints)?;
                LogicalPlan::Filter { input, predicate }
            }
            LogicalPlan::Project {
                input,
                exprs,
                schema,
            } => {
                let input = Box::new(self.rewrite_node(*input, pass)?);
                let constraints = self.constraints_for(&cfg, &input, None);
                let exprs = exprs
                    .into_iter()
                    .map(|e| self.rewrite_exprs(e, &input, pass, &cfg, &constraints))
                    .collect::<Result<_>>()?;
                LogicalPlan::Project {
                    input,
                    exprs,
                    schema,
                }
            }
            LogicalPlan::Aggregate {
                input,
                group,
                aggs,
                schema,
            } => {
                let input = Box::new(self.rewrite_node(*input, pass)?);
                let constraints = self.constraints_for(&cfg, &input, None);
                let group = group
                    .into_iter()
                    .map(|e| self.rewrite_exprs(e, &input, pass, &cfg, &constraints))
                    .collect::<Result<_>>()?;
                let aggs = aggs
                    .into_iter()
                    .map(|mut a| {
                        a.arg = a
                            .arg
                            .map(|e| self.rewrite_exprs(e, &input, pass, &cfg, &constraints))
                            .transpose()?;
                        Ok(a)
                    })
                    .collect::<Result<_>>()?;
                LogicalPlan::Aggregate {
                    input,
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
            } => LogicalPlan::Join {
                left: Box::new(self.rewrite_node(*left, pass)?),
                right: Box::new(self.rewrite_node(*right, pass)?),
                join_type,
                on,
                filter,
                schema,
            },
            LogicalPlan::Sort { input, keys } => {
                let input = Box::new(self.rewrite_node(*input, pass)?);
                let constraints = self.constraints_for(&cfg, &input, None);
                let keys = keys
                    .into_iter()
                    .map(|(e, asc)| {
                        Ok((self.rewrite_exprs(e, &input, pass, &cfg, &constraints)?, asc))
                    })
                    .collect::<Result<_>>()?;
                LogicalPlan::Sort { input, keys }
            }
            LogicalPlan::Limit {
                input,
                limit,
                offset,
            } => LogicalPlan::Limit {
                input: Box::new(self.rewrite_node(*input, pass)?),
                limit,
                offset,
            },
            LogicalPlan::Distinct { input } => LogicalPlan::Distinct {
                input: Box::new(self.rewrite_node(*input, pass)?),
            },
            LogicalPlan::Union { inputs, schema } => LogicalPlan::Union {
                inputs: inputs
                    .into_iter()
                    .map(|i| self.rewrite_node(i, pass))
                    .collect::<Result<_>>()?,
                schema,
            },
            leaf => leaf,
        })
    }

    /// Predicate constraints in scope for expressions evaluated on
    /// `input`'s rows, optionally extended with a predicate's own
    /// conjuncts (for PREDICTs inside that same predicate).
    fn constraints_for(
        &self,
        cfg: &XOptConfig,
        input: &LogicalPlan,
        predicate: Option<&Expr>,
    ) -> HashMap<String, InputConstraint> {
        if !cfg.predicate_specialization {
            return HashMap::new();
        }
        let mut constraints = predicates::plan_constraints(input);
        if let Some(p) = predicate {
            predicates::predicate_constraints(p, &mut constraints);
        }
        constraints
    }

    /// Apply the per-PREDICT rules to every PREDICT inside `expr`.
    fn rewrite_exprs(
        &self,
        expr: Expr,
        input: &LogicalPlan,
        pass: &Pass<'_>,
        cfg: &XOptConfig,
        constraints: &HashMap<String, InputConstraint>,
    ) -> Result<Expr> {
        // Lazily computed context shared across PREDICTs in this expr.
        let ranges = if cfg.model_compression {
            Some(stats::column_ranges(input, pass.catalog))
        } else {
            None
        };
        rewrite_expr(expr, &mut |e| {
            // A pinned PREDICT was rewritten already.
            let Expr::Predict {
                model,
                mut args,
                strategy,
                pin: None,
            } = e
            else {
                return Ok(e);
            };
            let model = model.to_ascii_lowercase();
            let base = match self.registry.get(&model) {
                // an arity error surfaces at execution; don't transform
                Some(base) if args.len() == base.pipeline.columns.len() => base,
                _ => {
                    return Ok(Expr::Predict {
                        model,
                        args,
                        strategy,
                        pin: None,
                    })
                }
            };
            // Each rule derives from the model the previous one left, held
            // here rather than looked up again by name.
            let mut current = Arc::clone(&base);

            // 1. feature pruning via model sparsity
            if cfg.feature_pruning {
                let usage = current.pipeline.input_usage();
                if usage.iter().any(|u| !u) {
                    if let Some(pruned) = self.registry.derive(&current, "pruned", |p| {
                        Some((p.prune_unused_inputs().0, None))
                    }) {
                        args = args
                            .into_iter()
                            .zip(&usage)
                            .filter_map(|(a, keep)| keep.then_some(a))
                            .collect();
                        current = pruned;
                    }
                }
            }

            // 2. model compression via column statistics
            if let Some(ranges) = &ranges {
                let input_ranges: Vec<Option<(f64, f64)>> = column_args(&current.pipeline, &args)
                    .into_iter()
                    .map(|a| match a {
                        Some(Expr::Column { name, .. }) => {
                            ranges.get(&name.to_ascii_lowercase()).copied()
                        }
                        _ => None,
                    })
                    .collect();
                if input_ranges.iter().any(Option::is_some) {
                    let tag = format!("cmp{:x}", hash_ranges(&input_ranges));
                    if let Some(compressed) = self.registry.derive(&current, &tag, |p| {
                        Some((p.compress_with_ranges(&input_ranges), None))
                    }) {
                        current = compressed;
                        pass.compressed.set(true);
                    }
                }
            }

            // 3. inline small models into pure SQL
            if cfg.inline_models {
                if let Some(inlined) =
                    inline_pipeline(&current.pipeline, &args, cfg.inline_max_tree_nodes)
                {
                    return Ok(inlined);
                }
            }

            // 4. predicate specialization (Raven-style): inputs fixed or
            // bounded by the query's predicates are folded into the
            // pipeline and the model is pruned against them. Runs after
            // inlining so tiny models still become pure SQL. The bound
            // mask is a pure function of (pipeline, constraints), so a
            // memo hit re-derives which arguments to drop without
            // consulting the specialized artifact.
            if cfg.predicate_specialization {
                let column_args = column_args(&current.pipeline, &args);
                let cs: Vec<Option<InputConstraint>> = column_args
                    .iter()
                    .map(|a| match a {
                        Some(Expr::Column { name, .. }) => {
                            constraints.get(&name.to_ascii_lowercase()).cloned()
                        }
                        Some(Expr::Literal(v)) => predicates::literal_constraint(v),
                        _ => None,
                    })
                    .collect();
                if let Some(mask) = specialize_mask(&current.pipeline, &cs) {
                    let tag = format!("spec{:x}", hash_constraints(&cs));
                    if let Some(specialized) = self.registry.derive(&current, &tag, |p| {
                        let (pipeline, report) = p.specialize(&cs)?;
                        Some((pipeline, Some(report.annotation())))
                    }) {
                        args = column_args
                            .into_iter()
                            .zip(&mask)
                            .filter_map(|(a, keep)| a.filter(|_| *keep).cloned())
                            .collect();
                        current = specialized;
                    }
                }
            }

            let derived = !Arc::ptr_eq(&current, &base);
            Ok(Expr::Predict {
                model: if derived { current.metadata.name.clone() } else { model },
                args,
                strategy,
                pin: derived.then(|| ModelPin(current)),
            })
        })
    }

    /// Predicate push-up: turn `PREDICT(logistic) cmp c` into a comparison
    /// on the raw linear score.
    fn push_up_predicate(&self, predicate: Expr) -> Result<Expr> {
        rewrite_expr(predicate, &mut |e| {
            let Expr::Binary { left, op, right } = &e else {
                return Ok(e);
            };
            // normalize to (Predict op literal)
            let (predict, op, lit) = match (&**left, &**right) {
                (Expr::Predict { .. }, Expr::Literal(v)) => (&**left, *op, v),
                (Expr::Literal(v), Expr::Predict { .. }) => (&**right, op.flip(), v),
                _ => return Ok(e),
            };
            let Some(c) = lit.as_f64() else {
                return Ok(e);
            };
            let Expr::Predict { model, args, .. } = predict else {
                unreachable!()
            };
            let Some(entry) = self.registry.get(model) else {
                return Ok(e);
            };
            // only logistic models benefit from the logit transform
            if !matches!(entry.pipeline.model, flock_ml::Model::Logistic(_)) {
                return Ok(e);
            }
            let Some(raw) = inline_linear_raw(&entry.pipeline, args) else {
                return Ok(e);
            };
            Ok(match logit_threshold(op, c) {
                Some(LogitRewrite::Threshold(t)) => {
                    Expr::binary(raw, op, Expr::Literal(Value::Float(t)))
                }
                Some(LogitRewrite::AlwaysTrue) => Expr::Literal(Value::Bool(true)),
                Some(LogitRewrite::AlwaysFalse) => Expr::Literal(Value::Bool(false)),
                None => e,
            })
        })
    }
}

/// The PREDICT arguments laid out over `pipeline`'s input columns: the
/// arguments bind the non-fixed columns in order, and a column the
/// pipeline fixes (`Encoder::Fixed`, from feature pruning) takes none.
fn column_args<'a>(pipeline: &Pipeline, args: &'a [Expr]) -> Vec<Option<&'a Expr>> {
    let mut args = args.iter();
    pipeline
        .columns
        .iter()
        .map(|cp| match cp.encoder {
            Encoder::Fixed { .. } => None,
            _ => args.next(),
        })
        .collect()
}

fn hash_constraints(cs: &[Option<InputConstraint>]) -> u64 {
    let mut h = DefaultHasher::new();
    for c in cs {
        match c {
            None => 0u8.hash(&mut h),
            Some(InputConstraint::FixedNum(v)) => {
                1u8.hash(&mut h);
                v.to_bits().hash(&mut h);
            }
            Some(InputConstraint::FixedText(s)) => {
                2u8.hash(&mut h);
                s.hash(&mut h);
            }
            Some(InputConstraint::Range { lo, hi }) => {
                3u8.hash(&mut h);
                lo.to_bits().hash(&mut h);
                hi.to_bits().hash(&mut h);
            }
        }
    }
    h.finish()
}

fn hash_ranges(ranges: &[Option<(f64, f64)>]) -> u64 {
    let mut h = DefaultHasher::new();
    for r in ranges {
        match r {
            None => 0u8.hash(&mut h),
            Some((lo, hi)) => {
                1u8.hash(&mut h);
                lo.to_bits().hash(&mut h);
                hi.to_bits().hash(&mut h);
            }
        }
    }
    h.finish()
}

impl PlanRewriter for CrossOptimizer {
    fn rewrite(&self, plan: LogicalPlan, catalog: &Catalog) -> Result<LogicalPlan> {
        Ok(self.rewrite_data_bound(plan, catalog)?.0)
    }

    /// Compression is the one rule that reads the tables' contents.
    fn rewrite_data_bound(
        &self,
        plan: LogicalPlan,
        catalog: &Catalog,
    ) -> Result<(LogicalPlan, bool)> {
        let pass = Pass {
            catalog,
            compressed: Cell::new(false),
        };
        let plan = self.rewrite_node(plan, &pass)?;
        Ok((plan, pass.compressed.get()))
    }
}
