//! Abstract syntax tree for the supported SQL dialect.

use crate::catalog::Privilege;
use crate::types::{DataType, Value};
use std::any::Any;
use std::fmt;
use std::sync::Arc;

/// An opaque keep-alive handle on a model artifact. Two pins are equal
/// when they hold the same artifact.
#[derive(Clone)]
pub struct ModelPin(pub Arc<dyn Any + Send + Sync>);

impl PartialEq for ModelPin {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

impl fmt::Debug for ModelPin {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("ModelPin")
    }
}

/// A top-level SQL statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    Query(Query),
    Insert {
        table: String,
        columns: Option<Vec<String>>,
        source: InsertSource,
    },
    Update {
        table: String,
        assignments: Vec<(String, Expr)>,
        selection: Option<Expr>,
    },
    Delete {
        table: String,
        selection: Option<Expr>,
    },
    CreateTable {
        name: String,
        columns: Vec<ColumnDecl>,
        if_not_exists: bool,
    },
    DropTable {
        name: String,
        if_exists: bool,
    },
    /// `ALTER TABLE t ADD COLUMN c TYPE` / `ALTER TABLE t DROP COLUMN c`.
    AlterTable {
        name: String,
        action: AlterAction,
    },
    CreateView {
        name: String,
        query: Query,
    },
    DropView {
        name: String,
    },
    Begin,
    Commit,
    Rollback,
    /// `SET <var> = <value>` / `SET <var> TO <value>` — session-local
    /// settings (e.g. `statement_timeout`). `value: None` means `DEFAULT`.
    Set {
        name: String,
        value: Option<Expr>,
    },
    /// `SHOW TABLES` — list catalog tables with size/version summary.
    ShowTables,
    /// `DESCRIBE <table>` — per-column profile from table statistics
    /// (type, nullability, min/max, distinct count, null count).
    Describe {
        name: String,
    },
    CreateUser {
        name: String,
    },
    Grant {
        privileges: Vec<Privilege>,
        object: GrantObject,
        user: String,
    },
    Revoke {
        privileges: Vec<Privilege>,
        object: GrantObject,
        user: String,
    },
    Explain {
        statement: Box<Statement>,
        /// `EXPLAIN ANALYZE`: execute the statement and annotate the plan
        /// tree with measured per-operator metrics.
        analyze: bool,
    },
    /// `CREATE STREAM s (cols...) WATERMARK (et_col, lag_ms)` — an
    /// append-only stream table: a regular WAL-durable table plus a
    /// catalog marker naming its event-time column and watermark lag.
    CreateStream {
        name: String,
        columns: Vec<ColumnDecl>,
        /// Event-time column (must be an INT column of the stream, in
        /// milliseconds).
        event_time: String,
        /// Watermark lag: watermark = max(event_time) - lag_ms.
        lag_ms: i64,
        if_not_exists: bool,
    },
    /// `DROP STREAM s` — drops the stream table and its marker.
    DropStream {
        name: String,
    },
    /// `CREATE CONTINUOUS QUERY name ON stream WINDOW TUMBLING(size) |
    /// SLIDING(size, slide) EMIT INTO sink AS SELECT ...
    /// [WHEN expr THEN HOLD MODEL m]` — register a standing windowed
    /// aggregate over a stream, emitting each closed window into `sink`.
    CreateContinuousQuery {
        name: String,
        stream: String,
        window: WindowSpec,
        sink: String,
        query: Box<Query>,
        /// Optional policy predicate over the emitted rows; any breaching
        /// row fires the transactional action.
        when: Option<Expr>,
        /// Model put on hold when `when` fires.
        hold_model: Option<String>,
        /// Model retrained (training statement re-run, new version
        /// deployed) when `when` fires.
        retrain_model: Option<String>,
    },
    /// `DROP CONTINUOUS QUERY name` — unregister; the sink table stays.
    DropContinuousQuery {
        name: String,
    },
    /// `SHOW STREAMS` — streams and registered continuous queries.
    ShowStreams,
    /// `CREATE MODEL name KIND kind [WITH (k = lit, ...)] TARGET col
    /// [OUTPUT out] AS SELECT ...` — train a model over the result of an
    /// arbitrary query and commit it as a governed, versioned,
    /// WAL-durable catalog object. The legacy
    /// `CREATE MODEL n KIND k FROM t TARGET y [FEATURES ...]` form is
    /// desugared by the parser into this shape.
    CreateModel {
        name: String,
        kind: String,
        /// `WITH (...)` hyperparameters: lowercased keys → literal values.
        options: Vec<(String, Value)>,
        /// Label column (must appear in the query's output).
        target: String,
        /// Score column name (`None` = `<name>_score`).
        output: Option<String>,
        query: Box<Query>,
    },
    /// `RETRAIN MODEL name` — re-run the recorded training statement
    /// against current data and deploy the new version in one
    /// transaction. Also fired by `WHEN ... THEN RETRAIN MODEL m`.
    RetrainModel {
        name: String,
    },
    /// `DROP MODEL name` — drop through the same registry transaction
    /// path as train and deploy.
    DropModel {
        name: String,
    },
}

/// Window shape of a continuous query. `slide_ms == size_ms` is a
/// tumbling window; `slide_ms < size_ms` is sliding (overlapping).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowSpec {
    pub size_ms: i64,
    pub slide_ms: i64,
}

impl WindowSpec {
    pub fn tumbling(size_ms: i64) -> WindowSpec {
        WindowSpec {
            size_ms,
            slide_ms: size_ms,
        }
    }

    pub fn sliding(size_ms: i64, slide_ms: i64) -> WindowSpec {
        WindowSpec { size_ms, slide_ms }
    }

    pub fn is_tumbling(&self) -> bool {
        self.size_ms == self.slide_ms
    }
}

impl fmt::Display for WindowSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_tumbling() {
            write!(f, "TUMBLING ({})", self.size_ms)
        } else {
            write!(f, "SLIDING ({}, {})", self.size_ms, self.slide_ms)
        }
    }
}

/// An ALTER TABLE action.
#[derive(Debug, Clone, PartialEq)]
pub enum AlterAction {
    AddColumn(ColumnDecl),
    DropColumn(String),
}

/// The object of a GRANT/REVOKE.
#[derive(Debug, Clone, PartialEq)]
pub enum GrantObject {
    Table(String),
    /// `GRANT ... ON MODEL name` — models are securable like tables.
    Model(String),
}

/// Column declaration in CREATE TABLE.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnDecl {
    pub name: String,
    pub data_type: DataType,
    pub nullable: bool,
}

/// Source of rows for INSERT.
#[derive(Debug, Clone, PartialEq)]
pub enum InsertSource {
    Values(Vec<Vec<Expr>>),
    Query(Box<Query>),
}

/// A SELECT query with trailing ORDER BY / LIMIT, optionally a UNION of
/// further SELECT arms.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    pub select: Select,
    /// Additional `UNION [ALL]` arms, in order.
    pub unions: Vec<UnionArm>,
    pub order_by: Vec<OrderItem>,
    pub limit: Option<u64>,
    pub offset: Option<u64>,
}

/// One `UNION [ALL] SELECT ...` arm.
#[derive(Debug, Clone, PartialEq)]
pub struct UnionArm {
    pub select: Select,
    /// `true` for UNION ALL (keep duplicates).
    pub all: bool,
}

/// The SELECT core.
#[derive(Debug, Clone, PartialEq)]
pub struct Select {
    pub distinct: bool,
    pub projection: Vec<SelectItem>,
    pub from: Vec<TableRef>,
    pub selection: Option<Expr>,
    pub group_by: Vec<Expr>,
    pub having: Option<Expr>,
}

#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// `*`
    Wildcard,
    /// `alias.*`
    QualifiedWildcard(String),
    /// expression with optional alias
    Expr { expr: Expr, alias: Option<String> },
}

/// An ORDER BY item; `asc == false` means DESC. `expr` may be an output
/// ordinal (1-based) expressed as an integer literal.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderItem {
    pub expr: Expr,
    pub asc: bool,
}

/// A FROM-clause item.
#[derive(Debug, Clone, PartialEq)]
pub enum TableRef {
    Table {
        name: String,
        alias: Option<String>,
        /// Time-travel read of a specific table version
        /// (`FROM t VERSION 3`); `None` reads the latest snapshot.
        version: Option<u64>,
    },
    Subquery {
        query: Box<Query>,
        alias: String,
    },
    Join {
        left: Box<TableRef>,
        right: Box<TableRef>,
        join_type: JoinType,
        on: Option<Expr>,
    },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinType {
    Inner,
    Left,
    Cross,
}

impl fmt::Display for Query {
    /// Render back to parseable SQL. Subquery-bearing table refs and
    /// expressions render as `(<subquery>)` placeholders — callers that
    /// need round-trippable text (continuous-query specs) reject
    /// subqueries up front.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.select)?;
        for arm in &self.unions {
            write!(
                f,
                " UNION {}{}",
                if arm.all { "ALL " } else { "" },
                arm.select
            )?;
        }
        if !self.order_by.is_empty() {
            let items: Vec<String> = self
                .order_by
                .iter()
                .map(|o| {
                    format!("{}{}", o.expr, if o.asc { "" } else { " DESC" })
                })
                .collect();
            write!(f, " ORDER BY {}", items.join(", "))?;
        }
        if let Some(n) = self.limit {
            write!(f, " LIMIT {n}")?;
        }
        if let Some(n) = self.offset {
            write!(f, " OFFSET {n}")?;
        }
        Ok(())
    }
}

impl fmt::Display for Select {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "SELECT {}",
            if self.distinct { "DISTINCT " } else { "" }
        )?;
        let items: Vec<String> = self
            .projection
            .iter()
            .map(|p| match p {
                SelectItem::Wildcard => "*".to_string(),
                SelectItem::QualifiedWildcard(q) => format!("{q}.*"),
                SelectItem::Expr { expr, alias } => match alias {
                    Some(a) => format!("{expr} AS {a}"),
                    None => expr.to_string(),
                },
            })
            .collect();
        write!(f, "{}", items.join(", "))?;
        if !self.from.is_empty() {
            let tables: Vec<String> =
                self.from.iter().map(|t| t.to_string()).collect();
            write!(f, " FROM {}", tables.join(", "))?;
        }
        if let Some(w) = &self.selection {
            write!(f, " WHERE {w}")?;
        }
        if !self.group_by.is_empty() {
            let keys: Vec<String> =
                self.group_by.iter().map(|e| e.to_string()).collect();
            write!(f, " GROUP BY {}", keys.join(", "))?;
        }
        if let Some(h) = &self.having {
            write!(f, " HAVING {h}")?;
        }
        Ok(())
    }
}

impl fmt::Display for TableRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TableRef::Table {
                name,
                alias,
                version,
            } => {
                write!(f, "{name}")?;
                if let Some(v) = version {
                    write!(f, " VERSION {v}")?;
                }
                if let Some(a) = alias {
                    write!(f, " AS {a}")?;
                }
                Ok(())
            }
            TableRef::Subquery { alias, .. } => {
                write!(f, "(<subquery>) AS {alias}")
            }
            TableRef::Join {
                left,
                right,
                join_type,
                on,
            } => {
                let kind = match join_type {
                    JoinType::Inner => "JOIN",
                    JoinType::Left => "LEFT JOIN",
                    JoinType::Cross => "CROSS JOIN",
                };
                write!(f, "{left} {kind} {right}")?;
                if let Some(e) = on {
                    write!(f, " ON {e}")?;
                }
                Ok(())
            }
        }
    }
}

/// Binary operators, in increasing precedence groups.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    Or,
    And,
    Eq,
    NotEq,
    Lt,
    LtEq,
    Gt,
    GtEq,
    Plus,
    Minus,
    Mul,
    Div,
    Mod,
    Concat,
}

impl BinOp {
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinOp::Eq | BinOp::NotEq | BinOp::Lt | BinOp::LtEq | BinOp::Gt | BinOp::GtEq
        )
    }

    /// The comparison with operands swapped (`a < b` -> `b > a`).
    pub fn flip(self) -> BinOp {
        match self {
            BinOp::Lt => BinOp::Gt,
            BinOp::LtEq => BinOp::GtEq,
            BinOp::Gt => BinOp::Lt,
            BinOp::GtEq => BinOp::LtEq,
            other => other,
        }
    }

    /// The logical negation of a comparison (`<` -> `>=`).
    pub fn negate(self) -> Option<BinOp> {
        Some(match self {
            BinOp::Eq => BinOp::NotEq,
            BinOp::NotEq => BinOp::Eq,
            BinOp::Lt => BinOp::GtEq,
            BinOp::LtEq => BinOp::Gt,
            BinOp::Gt => BinOp::LtEq,
            BinOp::GtEq => BinOp::Lt,
            _ => return None,
        })
    }
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BinOp::Or => "OR",
            BinOp::And => "AND",
            BinOp::Eq => "=",
            BinOp::NotEq => "<>",
            BinOp::Lt => "<",
            BinOp::LtEq => "<=",
            BinOp::Gt => ">",
            BinOp::GtEq => ">=",
            BinOp::Plus => "+",
            BinOp::Minus => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Mod => "%",
            BinOp::Concat => "||",
        };
        f.write_str(s)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnOp {
    Not,
    Neg,
}

/// How a PREDICT call scores the rows it is handed. Fan-out is not a
/// strategy: the operator evaluating the PREDICT spreads its morsels over
/// the worker pool, and each morsel is scored by the strategy here.
/// (`Hash` lets the plan cache key on a session's strategy override.)
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PredictStrategy {
    /// The provider's choice: the compiled kernel.
    Auto,
    /// Interpret the pipeline row-at-a-time (the "inline SQL UDF" anchor).
    Row,
    /// Score the whole batch in one call to the compiled kernel (for tree
    /// ensembles, the level-synchronous walk over flattened nodes).
    Vectorized,
}

/// Scalar expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    Column {
        qualifier: Option<String>,
        name: String,
    },
    Literal(Value),
    Binary {
        left: Box<Expr>,
        op: BinOp,
        right: Box<Expr>,
    },
    Unary {
        op: UnOp,
        expr: Box<Expr>,
    },
    IsNull {
        expr: Box<Expr>,
        negated: bool,
    },
    InList {
        expr: Box<Expr>,
        list: Vec<Expr>,
        negated: bool,
    },
    InSubquery {
        expr: Box<Expr>,
        query: Box<Query>,
        negated: bool,
    },
    Exists {
        query: Box<Query>,
        negated: bool,
    },
    Between {
        expr: Box<Expr>,
        low: Box<Expr>,
        high: Box<Expr>,
        negated: bool,
    },
    Like {
        expr: Box<Expr>,
        pattern: Box<Expr>,
        negated: bool,
    },
    Case {
        operand: Option<Box<Expr>>,
        when_then: Vec<(Expr, Expr)>,
        else_expr: Option<Box<Expr>>,
    },
    Function {
        name: String,
        args: Vec<Expr>,
        distinct: bool,
    },
    Cast {
        expr: Box<Expr>,
        to: DataType,
    },
    /// `PREDICT(model_name, arg, ...)` — ML inference as a relational
    /// expression; the Flock extension of the dialect.
    Predict {
        model: String,
        args: Vec<Expr>,
        strategy: PredictStrategy,
        /// The model a plan rewriter derived for this call, kept alive as
        /// long as the plan is; `None` as written.
        pin: Option<ModelPin>,
    },
    /// Scalar subquery.
    Subquery(Box<Query>),
    /// `*` inside COUNT(*).
    Wildcard,
    /// `?` placeholder, 0-indexed in appearance order.
    Parameter(usize),
}

impl Expr {
    pub fn col(name: &str) -> Expr {
        Expr::Column {
            qualifier: None,
            name: name.to_string(),
        }
    }

    pub fn lit(v: impl Into<Value>) -> Expr {
        Expr::Literal(v.into())
    }

    pub fn binary(left: Expr, op: BinOp, right: Expr) -> Expr {
        Expr::Binary {
            left: Box::new(left),
            op,
            right: Box::new(right),
        }
    }

    pub fn and(left: Expr, right: Expr) -> Expr {
        Expr::binary(left, BinOp::And, right)
    }

    /// Conjoin a list of predicates; `None` when empty.
    pub fn conjunction(mut preds: Vec<Expr>) -> Option<Expr> {
        let first = if preds.is_empty() {
            return None;
        } else {
            preds.remove(0)
        };
        Some(preds.into_iter().fold(first, Expr::and))
    }

    /// Split an expression on top-level ANDs.
    pub fn split_conjunction(&self) -> Vec<&Expr> {
        match self {
            Expr::Binary {
                left,
                op: BinOp::And,
                right,
            } => {
                let mut v = left.split_conjunction();
                v.extend(right.split_conjunction());
                v
            }
            other => vec![other],
        }
    }

    /// Collect the (qualifier, name) pairs of all column references.
    pub fn referenced_columns(&self, out: &mut Vec<(Option<String>, String)>) {
        self.walk(&mut |e| {
            if let Expr::Column { qualifier, name } = e {
                out.push((qualifier.clone(), name.clone()));
            }
        });
    }

    /// Pre-order traversal over this expression tree (not descending into
    /// subqueries — those have their own scopes).
    pub fn walk<'a>(&'a self, f: &mut impl FnMut(&'a Expr)) {
        f(self);
        match self {
            Expr::Binary { left, right, .. } => {
                left.walk(f);
                right.walk(f);
            }
            Expr::Unary { expr, .. }
            | Expr::IsNull { expr, .. }
            | Expr::Cast { expr, .. } => expr.walk(f),
            Expr::InList { expr, list, .. } => {
                expr.walk(f);
                for e in list {
                    e.walk(f);
                }
            }
            Expr::InSubquery { expr, .. } => expr.walk(f),
            Expr::Between {
                expr, low, high, ..
            } => {
                expr.walk(f);
                low.walk(f);
                high.walk(f);
            }
            Expr::Like { expr, pattern, .. } => {
                expr.walk(f);
                pattern.walk(f);
            }
            Expr::Case {
                operand,
                when_then,
                else_expr,
            } => {
                if let Some(o) = operand {
                    o.walk(f);
                }
                for (w, t) in when_then {
                    w.walk(f);
                    t.walk(f);
                }
                if let Some(e) = else_expr {
                    e.walk(f);
                }
            }
            Expr::Function { args, .. } | Expr::Predict { args, .. } => {
                for a in args {
                    a.walk(f);
                }
            }
            Expr::Column { .. }
            | Expr::Literal(_)
            | Expr::Exists { .. }
            | Expr::Subquery(_)
            | Expr::Wildcard
            | Expr::Parameter(_) => {}
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Column { qualifier, name } => match qualifier {
                Some(q) => write!(f, "{q}.{name}"),
                None => write!(f, "{name}"),
            },
            Expr::Literal(Value::Text(s)) => write!(f, "'{s}'"),
            Expr::Literal(v) => write!(f, "{v}"),
            Expr::Binary { left, op, right } => write!(f, "({left} {op} {right})"),
            Expr::Unary { op: UnOp::Not, expr } => write!(f, "(NOT {expr})"),
            Expr::Unary { op: UnOp::Neg, expr } => write!(f, "(-{expr})"),
            Expr::IsNull { expr, negated } => {
                write!(f, "({expr} IS {}NULL)", if *negated { "NOT " } else { "" })
            }
            Expr::InList {
                expr,
                list,
                negated,
            } => {
                let items: Vec<String> = list.iter().map(|e| e.to_string()).collect();
                write!(
                    f,
                    "({expr} {}IN ({}))",
                    if *negated { "NOT " } else { "" },
                    items.join(", ")
                )
            }
            Expr::InSubquery { expr, negated, .. } => {
                write!(
                    f,
                    "({expr} {}IN (<subquery>))",
                    if *negated { "NOT " } else { "" }
                )
            }
            Expr::Exists { negated, .. } => {
                write!(f, "({}EXISTS (<subquery>))", if *negated { "NOT " } else { "" })
            }
            Expr::Between {
                expr,
                low,
                high,
                negated,
            } => write!(
                f,
                "({expr} {}BETWEEN {low} AND {high})",
                if *negated { "NOT " } else { "" }
            ),
            Expr::Like {
                expr,
                pattern,
                negated,
            } => write!(
                f,
                "({expr} {}LIKE {pattern})",
                if *negated { "NOT " } else { "" }
            ),
            Expr::Case {
                operand,
                when_then,
                else_expr,
            } => {
                write!(f, "CASE")?;
                if let Some(o) = operand {
                    write!(f, " {o}")?;
                }
                for (w, t) in when_then {
                    write!(f, " WHEN {w} THEN {t}")?;
                }
                if let Some(e) = else_expr {
                    write!(f, " ELSE {e}")?;
                }
                write!(f, " END")
            }
            Expr::Function {
                name,
                args,
                distinct,
            } => {
                let items: Vec<String> = args.iter().map(|e| e.to_string()).collect();
                write!(
                    f,
                    "{name}({}{})",
                    if *distinct { "DISTINCT " } else { "" },
                    items.join(", ")
                )
            }
            Expr::Cast { expr, to } => write!(f, "CAST({expr} AS {to})"),
            Expr::Predict { model, args, .. } => {
                let items: Vec<String> = args.iter().map(|e| e.to_string()).collect();
                write!(f, "PREDICT({model}, {})", items.join(", "))
            }
            Expr::Subquery(_) => write!(f, "(<subquery>)"),
            Expr::Wildcard => write!(f, "*"),
            Expr::Parameter(i) => write!(f, "?{i}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conjunction_roundtrip() {
        let e = Expr::conjunction(vec![
            Expr::binary(Expr::col("a"), BinOp::Gt, Expr::lit(1i64)),
            Expr::binary(Expr::col("b"), BinOp::Lt, Expr::lit(2i64)),
            Expr::col("c"),
        ])
        .unwrap();
        let parts = e.split_conjunction();
        assert_eq!(parts.len(), 3);
        assert_eq!(parts[2].to_string(), "c");
        assert!(Expr::conjunction(vec![]).is_none());
    }

    #[test]
    fn referenced_columns_walks_nested() {
        let e = Expr::binary(
            Expr::Function {
                name: "ABS".into(),
                args: vec![Expr::col("x")],
                distinct: false,
            },
            BinOp::Plus,
            Expr::Case {
                operand: None,
                when_then: vec![(Expr::col("y"), Expr::lit(1i64))],
                else_expr: Some(Box::new(Expr::col("z"))),
            },
        );
        let mut cols = vec![];
        e.referenced_columns(&mut cols);
        let names: Vec<&str> = cols.iter().map(|(_, n)| n.as_str()).collect();
        assert_eq!(names, vec!["x", "y", "z"]);
    }

    #[test]
    fn op_flip_and_negate() {
        assert_eq!(BinOp::Lt.flip(), BinOp::Gt);
        assert_eq!(BinOp::Eq.flip(), BinOp::Eq);
        assert_eq!(BinOp::GtEq.negate(), Some(BinOp::Lt));
        assert_eq!(BinOp::Plus.negate(), None);
    }

    #[test]
    fn display_is_readable() {
        let e = Expr::binary(Expr::col("a"), BinOp::GtEq, Expr::lit(0.5));
        assert_eq!(e.to_string(), "(a >= 0.5)");
    }
}
