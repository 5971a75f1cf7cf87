//! Policies: declarative business rules over decision contexts.
//!
//! Conditions are written in SQL expression syntax (reusing the engine's
//! parser), e.g. `"p_default > 0.8 AND amount > 50000"`. Actions can
//! override or bound the model output, deny the decision outright, or
//! escalate to a human — "business rules expressed as policies then
//! override the model" (paper §4.1).

use crate::context::DecisionContext;
use flock_sql::ast::Expr;
use flock_sql::exec::{EvalContext, PhysExpr};
use flock_sql::parser::parse_expr;
use flock_sql::plan::rewrite_expr;
use flock_sql::udf::NoInference;
use flock_sql::{ColumnDef, DataType, RecordBatch, Result, Schema, Value};
use std::sync::Arc;

/// What a matched policy does.
#[derive(Debug, Clone, PartialEq)]
pub enum PolicyAction {
    /// Replace a context number.
    Override { field: String, value: f64 },
    /// Clamp a context number from above ("user-specified caps").
    Cap { field: String, max: f64 },
    /// Clamp from below.
    Floor { field: String, min: f64 },
    /// Refuse to act.
    Deny { reason: String },
    /// Route to a human queue.
    Escalate { to: String },
    /// Explicitly accept (useful as a terminal low-priority rule).
    Allow,
}

/// A named rule: when `condition` holds, perform `action`.
#[derive(Debug, Clone)]
pub struct Policy {
    pub name: String,
    /// Lower numbers run first.
    pub priority: i32,
    pub condition: Expr,
    pub action: PolicyAction,
    /// Stop evaluating further policies once this one matches.
    pub terminal: bool,
}

impl Policy {
    /// Build a policy from a SQL-syntax condition string.
    pub fn new(name: &str, condition: &str, action: PolicyAction) -> Result<Policy> {
        let terminal = action_terminality(&action);
        Ok(Policy {
            name: name.to_string(),
            priority: 100,
            condition: parse_expr(condition)?,
            action,
            terminal,
        })
    }

    pub fn with_priority(mut self, priority: i32) -> Self {
        self.priority = priority;
        self
    }

    /// Does this policy match the context?
    pub fn matches(&self, ctx: &DecisionContext) -> Result<bool> {
        Ok(eval_condition(&self.condition, ctx)?.as_bool() == Some(true))
    }
}

fn action_terminality(action: &PolicyAction) -> bool {
    matches!(action, PolicyAction::Deny { .. } | PolicyAction::Escalate { .. })
}

/// Evaluate a SQL expression against a decision context with the
/// engine's own evaluator: the fields it names become a one-row batch
/// (numbers as DOUBLE, texts as VARCHAR), and a field the context lacks
/// becomes an untyped NULL literal, so policies can be written
/// defensively (`COALESCE(channel, 'web')`). A condition thus means here
/// what it means in the continuous-query `WHEN` clause a
/// [`crate::StreamingMonitor`] renders it into.
pub fn eval_condition(e: &Expr, ctx: &DecisionContext) -> Result<Value> {
    let absent = |name: &str| ctx.number(name).is_none() && ctx.text(name).is_none();
    let mut columns: Vec<ColumnDef> = Vec::new();
    let mut row: Vec<Value> = Vec::new();
    let mut any_absent = false;
    e.walk(&mut |x| {
        let Expr::Column { name, .. } = x else {
            return;
        };
        if columns.iter().any(|c| c.name.eq_ignore_ascii_case(name)) {
            return;
        }
        let (ty, v) = match (ctx.number(name), ctx.text(name)) {
            (Some(v), _) => (DataType::Float, Value::Float(v)),
            (None, Some(s)) => (DataType::Text, Value::Text(s.to_string())),
            (None, None) => return any_absent = true,
        };
        columns.push(ColumnDef::new(name, ty));
        row.push(v);
    });
    let rewritten;
    let condition = if any_absent {
        rewritten = rewrite_expr(e.clone(), &mut |x| match &x {
            Expr::Column { name, .. } if absent(name) => Ok(Expr::Literal(Value::Null)),
            _ => Ok(x),
        })?;
        &rewritten
    } else {
        e
    };
    let schema = Arc::new(Schema::new(columns));
    let batch = RecordBatch::from_rows(schema.clone(), &[row])?;
    let condition = PhysExpr::compile(condition, &schema, &NoInference)?;
    condition.eval_row(&batch, 0, &EvalContext::new(Arc::new(NoInference), "", 1))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> DecisionContext {
        DecisionContext::new()
            .with_number("risk", 0.9)
            .with_number("amount", 60000.0)
            .with_text("region", "EU")
    }

    #[test]
    fn simple_comparison_matches() {
        let p = Policy::new("high-risk", "risk > 0.8", PolicyAction::Deny {
            reason: "too risky".into(),
        })
        .unwrap();
        assert!(p.matches(&ctx()).unwrap());
        let p2 = Policy::new("low", "risk < 0.5", PolicyAction::Allow).unwrap();
        assert!(!p2.matches(&ctx()).unwrap());
    }

    #[test]
    fn compound_conditions() {
        let p = Policy::new(
            "big-eu",
            "amount > 50000 AND region = 'EU'",
            PolicyAction::Escalate { to: "review".into() },
        )
        .unwrap();
        assert!(p.matches(&ctx()).unwrap());
        let p2 = Policy::new(
            "either",
            "risk BETWEEN 0.85 AND 0.95 OR amount < 0",
            PolicyAction::Allow,
        )
        .unwrap();
        assert!(p2.matches(&ctx()).unwrap());
    }

    #[test]
    fn unknown_fields_are_null_not_errors() {
        let p = Policy::new("ghost", "nonexistent > 5", PolicyAction::Allow).unwrap();
        assert!(!p.matches(&ctx()).unwrap());
        let p2 = Policy::new("isnull", "nonexistent IS NULL", PolicyAction::Allow).unwrap();
        assert!(p2.matches(&ctx()).unwrap());
    }

    #[test]
    fn deny_and_escalate_are_terminal_by_default() {
        let deny = Policy::new("d", "risk > 0", PolicyAction::Deny { reason: "r".into() })
            .unwrap();
        assert!(deny.terminal);
        let cap = Policy::new(
            "c",
            "risk > 0",
            PolicyAction::Cap {
                field: "x".into(),
                max: 1.0,
            },
        )
        .unwrap();
        assert!(!cap.terminal);
    }

    #[test]
    fn in_list_over_text() {
        let p = Policy::new(
            "regions",
            "region IN ('EU', 'UK')",
            PolicyAction::Allow,
        )
        .unwrap();
        assert!(p.matches(&ctx()).unwrap());
    }
}
