//! Abstract syntax tree for the supported SQL dialect.

use crate::catalog::Privilege;
use crate::error::Result;
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

/// What [`Query::for_each_part`] hands its visitor: a base table the query
/// reads, or one of its expressions.
#[derive(Debug, Clone, Copy)]
pub enum QueryPart<'a> {
    Table {
        name: &'a str,
        alias: Option<&'a str>,
    },
    Expr(&'a Expr),
}

/// The traversal of a query's expressions ([`Query::for_each_part`]), in
/// source order: each SELECT arm's FROM (base tables, join conditions,
/// derived tables in full), projection, WHERE, GROUP BY and HAVING, then
/// ORDER BY. Subqueries held by expressions are not entered; they are
/// scopes of their own.
impl Query {
    /// Visit each base table and each expression of the query.
    pub fn for_each_part<'a>(&'a self, f: &mut impl FnMut(QueryPart<'a>)) {
        for select in std::iter::once(&self.select).chain(self.unions.iter().map(|a| &a.select)) {
            select.for_each_part(f);
        }
        for o in &self.order_by {
            f(QueryPart::Expr(&o.expr));
        }
    }

    /// Whether a scalar, IN or EXISTS subquery appears anywhere, derived
    /// tables included. Those run during planning, so the plan of such a
    /// query holds their results and is not cached.
    pub fn has_subqueries(&self) -> bool {
        let mut found = false;
        self.for_each_part(&mut |part| {
            if let QueryPart::Expr(e) = part {
                e.walk(&mut |x| {
                    found |= matches!(
                        x,
                        Expr::Subquery(_) | Expr::InSubquery { .. } | Expr::Exists { .. }
                    );
                })
            }
        });
        found
    }
}

impl Select {
    fn for_each_part<'a>(&'a self, f: &mut impl FnMut(QueryPart<'a>)) {
        for t in &self.from {
            t.for_each_part(f);
        }
        let items = self.projection.iter().filter_map(|item| match item {
            SelectItem::Expr { expr, .. } => Some(expr),
            _ => None,
        });
        for e in items
            .chain(&self.selection)
            .chain(&self.group_by)
            .chain(&self.having)
        {
            f(QueryPart::Expr(e));
        }
    }
}

impl TableRef {
    fn for_each_part<'a>(&'a self, f: &mut impl FnMut(QueryPart<'a>)) {
        match self {
            TableRef::Table { name, alias, .. } => f(QueryPart::Table {
                name,
                alias: alias.as_deref(),
            }),
            TableRef::Subquery { query, .. } => query.for_each_part(f),
            TableRef::Join {
                left, right, on, ..
            } => {
                left.for_each_part(f);
                right.for_each_part(f);
                if let Some(e) = on {
                    f(QueryPart::Expr(e));
                }
            }
        }
    }
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
}

/// What a conjunct says about one column ([`Expr::column_bound`]).
#[derive(Debug, Clone, Copy)]
pub enum ColumnBound<'a> {
    /// `col = e`.
    Eq(&'a Expr),
    /// `col < e`, `col <= e`, `col > e`, `col >= e` or `col BETWEEN low AND
    /// high`, read as a closed range (a superset of a strict bound's, so
    /// safe for pruning); an open side is `None`.
    Range {
        low: Option<&'a Expr>,
        high: Option<&'a Expr>,
    },
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

    /// Read a conjunct as a bound on one column: `col op e` or `e op col`
    /// (flipped so the column is on the left) for `=`, `<`, `<=`, `>` and
    /// `>=`, and `col BETWEEN low AND high`. The bounding expressions come
    /// back as written; each caller keeps the kinds it can use.
    pub fn column_bound(&self) -> Option<(&str, ColumnBound<'_>)> {
        match self {
            Expr::Binary { left, op, right } => {
                let (name, op, e) = match (&**left, &**right) {
                    (Expr::Column { name, .. }, e) => (name, *op, e),
                    (e, Expr::Column { name, .. }) => (name, op.flip(), e),
                    _ => return None,
                };
                let bound = match op {
                    BinOp::Eq => ColumnBound::Eq(e),
                    BinOp::Lt | BinOp::LtEq => ColumnBound::Range {
                        low: None,
                        high: Some(e),
                    },
                    BinOp::Gt | BinOp::GtEq => ColumnBound::Range {
                        low: Some(e),
                        high: None,
                    },
                    _ => return None,
                };
                Some((name, bound))
            }
            Expr::Between {
                expr,
                low,
                high,
                negated: false,
            } => match &**expr {
                Expr::Column { name, .. } => Some((
                    name,
                    ColumnBound::Range {
                        low: Some(low),
                        high: Some(high),
                    },
                )),
                _ => None,
            },
            _ => None,
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
        self.for_each_child(&mut |c| c.walk(f));
    }

    /// Call `f` on each direct child, in the order [`Expr::map_children`]
    /// rebuilds them. The operand of `IN (subquery)` is a child; a
    /// subquery is not (it is a scope of its own).
    pub fn for_each_child<'a>(&'a self, f: &mut impl FnMut(&'a Expr)) {
        match self {
            Expr::Binary { left, right, .. } => {
                f(left);
                f(right);
            }
            Expr::Unary { expr, .. }
            | Expr::IsNull { expr, .. }
            | Expr::Cast { expr, .. }
            | Expr::InSubquery { expr, .. } => f(expr),
            Expr::InList { expr, list, .. } => {
                f(expr);
                list.iter().for_each(f);
            }
            Expr::Between {
                expr, low, high, ..
            } => {
                f(expr);
                f(low);
                f(high);
            }
            Expr::Like { expr, pattern, .. } => {
                f(expr);
                f(pattern);
            }
            Expr::Case {
                operand,
                when_then,
                else_expr,
            } => {
                operand.iter().for_each(|o| f(o));
                for (w, t) in when_then {
                    f(w);
                    f(t);
                }
                else_expr.iter().for_each(|e| f(e));
            }
            Expr::Function { args, .. } | Expr::Predict { args, .. } => args.iter().for_each(f),
            Expr::Column { .. }
            | Expr::Literal(_)
            | Expr::Exists { .. }
            | Expr::Subquery(_)
            | Expr::Wildcard
            | Expr::Parameter(_) => {}
        }
    }

    /// Rebuild this expression with `f` applied to each direct child (the
    /// children of [`Expr::for_each_child`], in its order).
    pub fn map_children(self, f: &mut impl FnMut(Expr) -> Result<Expr>) -> Result<Expr> {
        Ok(match self {
            Expr::Binary { left, op, right } => Expr::Binary {
                left: Box::new(f(*left)?),
                op,
                right: Box::new(f(*right)?),
            },
            Expr::Unary { op, expr } => Expr::Unary {
                op,
                expr: Box::new(f(*expr)?),
            },
            Expr::IsNull { expr, negated } => Expr::IsNull {
                expr: Box::new(f(*expr)?),
                negated,
            },
            Expr::Cast { expr, to } => Expr::Cast {
                expr: Box::new(f(*expr)?),
                to,
            },
            Expr::InSubquery {
                expr,
                query,
                negated,
            } => Expr::InSubquery {
                expr: Box::new(f(*expr)?),
                query,
                negated,
            },
            Expr::InList {
                expr,
                list,
                negated,
            } => Expr::InList {
                expr: Box::new(f(*expr)?),
                list: list.into_iter().map(&mut *f).collect::<Result<_>>()?,
                negated,
            },
            Expr::Between {
                expr,
                low,
                high,
                negated,
            } => Expr::Between {
                expr: Box::new(f(*expr)?),
                low: Box::new(f(*low)?),
                high: Box::new(f(*high)?),
                negated,
            },
            Expr::Like {
                expr,
                pattern,
                negated,
            } => Expr::Like {
                expr: Box::new(f(*expr)?),
                pattern: Box::new(f(*pattern)?),
                negated,
            },
            Expr::Case {
                operand,
                when_then,
                else_expr,
            } => Expr::Case {
                operand: operand.map(|o| f(*o).map(Box::new)).transpose()?,
                when_then: when_then
                    .into_iter()
                    .map(|(w, t)| Ok((f(w)?, f(t)?)))
                    .collect::<Result<_>>()?,
                else_expr: else_expr.map(|e| f(*e).map(Box::new)).transpose()?,
            },
            Expr::Function {
                name,
                args,
                distinct,
            } => Expr::Function {
                name,
                args: args.into_iter().map(&mut *f).collect::<Result<_>>()?,
                distinct,
            },
            Expr::Predict {
                model,
                args,
                strategy,
                pin,
            } => Expr::Predict {
                model,
                args: args.into_iter().map(&mut *f).collect::<Result<_>>()?,
                strategy,
                pin,
            },
            leaf @ (Expr::Column { .. }
            | Expr::Literal(_)
            | Expr::Exists { .. }
            | Expr::Subquery(_)
            | Expr::Wildcard
            | Expr::Parameter(_)) => leaf,
        })
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

    /// One expression holding every `Expr` variant (subqueries are leaves
    /// of the traversals: their insides are other scopes).
    fn every_variant() -> Expr {
        let e = crate::parser::parse_expr(
            "CASE k WHEN 1 THEN -a ELSE NULL END IS NOT NULL AND b IN (1, ?) \
             AND c IN (SELECT x FROM t) AND EXISTS (SELECT 1) AND d BETWEEN 1 AND 2 \
             AND e LIKE 'x%' AND ABS(CAST(f AS DOUBLE)) > (SELECT 2) \
             AND PREDICT(m, g) > 0 AND COUNT(*) > 0",
        )
        .unwrap();
        let mut seen = [false; 17];
        e.walk(&mut |x| {
            let i = match x {
                Expr::Column { .. } => 0,
                Expr::Literal(_) => 1,
                Expr::Binary { .. } => 2,
                Expr::Unary { .. } => 3,
                Expr::IsNull { .. } => 4,
                Expr::InList { .. } => 5,
                Expr::InSubquery { .. } => 6,
                Expr::Exists { .. } => 7,
                Expr::Between { .. } => 8,
                Expr::Like { .. } => 9,
                Expr::Case { .. } => 10,
                Expr::Function { .. } => 11,
                Expr::Cast { .. } => 12,
                Expr::Predict { .. } => 13,
                Expr::Subquery(_) => 14,
                Expr::Wildcard => 15,
                Expr::Parameter(_) => 16,
            };
            seen[i] = true;
        });
        assert_eq!(seen, [true; 17], "{e}");
        e
    }

    #[test]
    fn the_owned_and_borrowed_child_enumerations_agree() {
        let e = every_variant();
        let mut walked = 0;
        e.walk(&mut |_| walked += 1);
        let mut rewritten = 0;
        let same = crate::plan::rewrite_expr(e.clone(), &mut |x| {
            rewritten += 1;
            Ok(x)
        })
        .unwrap();
        // `Value`'s `PartialEq` is SQL's (NULL equals nothing): compare text
        assert_eq!(format!("{same:?}"), format!("{e:?}"));
        assert_eq!(walked, rewritten);
    }

    /// Scores every model as a float; never asked to score here.
    struct FloatScores;

    impl crate::udf::InferenceProvider for FloatScores {
        fn output_type(&self, _model: &str) -> Result<DataType> {
            Ok(DataType::Float)
        }

        fn input_arity(&self, _model: &str) -> Result<usize> {
            Ok(1)
        }

        fn predict(
            &self,
            _model: &str,
            _inputs: &[crate::column::ColumnVector],
            _strategy: PredictStrategy,
            _user: &str,
        ) -> Result<crate::column::ColumnVector> {
            unreachable!("typing scores nothing")
        }
    }

    #[test]
    fn compiled_types_are_the_typed_types_at_every_node() {
        // What planning leaves of the variants a compiled expression cannot
        // hold: subqueries run to values, an aggregate read as a column.
        let planned = |e: Expr| {
            crate::plan::rewrite_expr(e, &mut |x| {
                Ok(match x {
                    Expr::Subquery(_) => Expr::lit(2i64),
                    Expr::Exists { .. } => Expr::lit(true),
                    Expr::InSubquery { expr, negated, .. } => Expr::InList {
                        expr,
                        list: vec![Expr::lit("x")],
                        negated,
                    },
                    Expr::Function { name, .. } if name == "COUNT" => Expr::col("n"),
                    x => x,
                })
            })
            .unwrap()
        };
        let schema = crate::schema::Schema::from_pairs(&[
            ("k", DataType::Int),
            ("a", DataType::Float),
            ("b", DataType::Int),
            ("c", DataType::Text),
            ("d", DataType::Int),
            ("e", DataType::Text),
            ("f", DataType::Int),
            ("g", DataType::Float),
            ("n", DataType::Int),
        ]);
        let extra = crate::parser::parse_expr(
            "k + NULL > ? * b OR COALESCE(NULL, ?, a) < CASE WHEN b > 1 THEN NULL END",
        )
        .unwrap();
        for e in [planned(every_variant()), extra] {
            let mut nodes = 0;
            e.walk(&mut |x| {
                nodes += 1;
                let typed = crate::plan::expr_type(x, &schema, &FloatScores).unwrap();
                let compiled = crate::exec::PhysExpr::compile(x, &schema, &FloatScores).unwrap();
                assert_eq!(
                    compiled.data_type,
                    typed.unwrap_or(DataType::Text),
                    "at {x}"
                );
            });
            assert!(nodes > 15, "{e}");
        }
        // NULL and `?` stay unknown to their parents
        let plus_null = crate::parser::parse_expr("k + NULL").unwrap();
        let compiled = crate::exec::PhysExpr::compile(&plus_null, &schema, &FloatScores);
        assert_eq!(compiled.unwrap().data_type, DataType::Int);
    }

    #[test]
    fn column_bounds_read_either_orientation_and_between() {
        let side = |b: Option<&Expr>| b.map_or("open".to_string(), |e| e.to_string());
        let read = |sql: &str| -> Vec<String> {
            let e = crate::parser::parse_expr(sql).unwrap();
            let conjuncts = e.split_conjunction();
            conjuncts
                .iter()
                .map(|c| match c.column_bound() {
                    Some((n, ColumnBound::Eq(e))) => format!("{n} = {e}"),
                    Some((n, ColumnBound::Range { low, high })) => {
                        format!("{n} in [{}, {}]", side(low), side(high))
                    }
                    None => "-".to_string(),
                })
                .collect()
        };
        assert_eq!(
            read("a = 1 AND 2 < b AND c <= ? AND d BETWEEN 1 AND 'z' AND 'x' = e"),
            [
                "a = 1",
                "b in [2, open]",
                "c in [open, ?0]",
                "d in [1, 'z']",
                "e = 'x'"
            ]
        );
        assert_eq!(
            read("a <> 1 AND a + 1 > 2 AND NOT a > 1 AND a NOT BETWEEN 1 AND 2 AND 1 < 2"),
            ["-"; 5]
        );
        // between two columns the left one is bounded by the right one
        assert_eq!(read("a < b"), ["a in [open, b]"]);
    }

    #[test]
    fn display_is_readable() {
        let e = Expr::binary(Expr::col("a"), BinOp::GtEq, Expr::lit(0.5));
        assert_eq!(e.to_string(), "(a >= 0.5)");
    }
}
