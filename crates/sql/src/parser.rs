//! Recursive-descent SQL parser.

use crate::ast::*;
use crate::catalog::Privilege;
use crate::error::{Result, SqlError};
use crate::lexer::{tokenize, Token};
use crate::types::{parse_date, DataType, Value};
use std::borrow::Cow;

/// Parse one SQL statement (a trailing semicolon is allowed).
pub fn parse_statement(sql: &str) -> Result<Statement> {
    Ok(parse_token_stream(tokenize(sql)?)?.0)
}

/// Parse a semicolon-separated script into statements.
pub fn parse_script(sql: &str) -> Result<Vec<Statement>> {
    let mut p = Parser::new(sql)?;
    let mut out = Vec::new();
    loop {
        while p.eat(&Token::Semicolon) {}
        if p.peek() == &Token::Eof {
            break;
        }
        out.push(p.statement()?);
        if !p.eat(&Token::Semicolon) {
            break;
        }
    }
    p.expect_eof()?;
    Ok(out)
}

/// Parse a bare expression (used by tests and the policy engine).
pub fn parse_expr(sql: &str) -> Result<Expr> {
    let mut p = Parser::new(sql)?;
    let e = p.expr()?;
    p.expect_eof()?;
    Ok(e)
}

/// Parse a pre-tokenized statement (the plan cache normalizes token streams
/// before parsing, so re-rendering to text would be lossy). Returns the
/// statement plus the number of `?` placeholders encountered.
pub fn parse_token_stream(tokens: Vec<Token<'_>>) -> Result<(Statement, usize)> {
    let mut p = Parser::from_tokens(tokens);
    let stmt = p.statement()?;
    p.eat(&Token::Semicolon);
    p.expect_eof()?;
    Ok((stmt, p.params))
}

/// The parser moves each token out of the stream as it consumes it (it
/// never backs up), so a word or literal reaches the AST with no copy
/// beyond the one the AST's own `String` needs.
struct Parser<'a> {
    tokens: Vec<Token<'a>>,
    pos: usize,
    params: usize,
}

impl<'a> Parser<'a> {
    fn new(sql: &'a str) -> Result<Self> {
        Ok(Parser::from_tokens(tokenize(sql)?))
    }

    fn from_tokens(mut tokens: Vec<Token<'a>>) -> Self {
        if tokens.last() != Some(&Token::Eof) {
            tokens.push(Token::Eof);
        }
        Parser {
            tokens,
            pos: 0,
            params: 0,
        }
    }

    fn peek(&self) -> &Token<'a> {
        self.peek_at(0)
    }

    /// The token `n` places ahead (the final `Eof` past the end).
    fn peek_at(&self, n: usize) -> &Token<'a> {
        &self.tokens[(self.pos + n).min(self.tokens.len() - 1)]
    }

    fn next(&mut self) -> Token<'a> {
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
            std::mem::take(&mut self.tokens[self.pos - 1])
        } else {
            Token::Eof
        }
    }

    /// Consume the next token if `want` accepts it.
    fn next_if(&mut self, want: impl FnOnce(&Token<'a>) -> bool) -> Option<Token<'a>> {
        want(self.peek()).then(|| self.next())
    }

    fn eat(&mut self, t: &Token) -> bool {
        if self.peek() == t {
            self.next();
            true
        } else {
            false
        }
    }

    /// Consume the next token if it is the given keyword.
    fn eat_kw(&mut self, kw: &str) -> bool {
        if let Token::Ident(s) = self.peek() {
            if s.eq_ignore_ascii_case(kw) {
                self.next();
                return true;
            }
        }
        false
    }

    fn peek_kw(&self, kw: &str) -> bool {
        matches!(self.peek(), Token::Ident(s) if s.eq_ignore_ascii_case(kw))
    }

    fn expect(&mut self, t: &Token) -> Result<()> {
        if self.eat(t) {
            Ok(())
        } else {
            Err(SqlError::Parse(format!(
                "expected '{t}', found '{}'",
                self.peek()
            )))
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<()> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(SqlError::Parse(format!(
                "expected keyword {kw}, found '{}'",
                self.peek()
            )))
        }
    }

    fn expect_eof(&mut self) -> Result<()> {
        if self.peek() == &Token::Eof {
            Ok(())
        } else {
            Err(SqlError::Parse(format!(
                "unexpected trailing input at '{}'",
                self.peek()
            )))
        }
    }

    fn ident(&mut self) -> Result<String> {
        match self.next() {
            Token::Ident(s) | Token::QuotedIdent(s) => Ok(s.into_owned()),
            other => Err(SqlError::Parse(format!(
                "expected identifier, found '{other}'"
            ))),
        }
    }

    // ---- statements ----

    fn statement(&mut self) -> Result<Statement> {
        if self.eat_kw("EXPLAIN") {
            let analyze = self.eat_kw("ANALYZE");
            return Ok(Statement::Explain {
                statement: Box::new(self.statement()?),
                analyze,
            });
        }
        if self.peek_kw("SELECT") {
            return Ok(Statement::Query(self.query()?));
        }
        if self.eat_kw("INSERT") {
            return self.insert();
        }
        if self.eat_kw("UPDATE") {
            return self.update();
        }
        if self.eat_kw("DELETE") {
            return self.delete();
        }
        if self.eat_kw("CREATE") {
            return self.create();
        }
        if self.eat_kw("DROP") {
            return self.drop();
        }
        if self.eat_kw("BEGIN") || self.eat_kw("START") {
            self.eat_kw("TRANSACTION");
            return Ok(Statement::Begin);
        }
        if self.eat_kw("COMMIT") {
            return Ok(Statement::Commit);
        }
        if self.eat_kw("ROLLBACK") {
            return Ok(Statement::Rollback);
        }
        if self.eat_kw("ALTER") {
            self.expect_kw("TABLE")?;
            let name = self.ident()?;
            if self.eat_kw("ADD") {
                self.eat_kw("COLUMN");
                let col_name = self.ident()?;
                let data_type = self.data_type()?;
                return Ok(Statement::AlterTable {
                    name,
                    action: AlterAction::AddColumn(ColumnDecl {
                        name: col_name,
                        data_type,
                        nullable: true, // added columns backfill NULL
                    }),
                });
            }
            if self.eat_kw("DROP") {
                self.eat_kw("COLUMN");
                let col_name = self.ident()?;
                return Ok(Statement::AlterTable {
                    name,
                    action: AlterAction::DropColumn(col_name),
                });
            }
            return Err(SqlError::Parse(
                "expected ADD COLUMN or DROP COLUMN after ALTER TABLE".into(),
            ));
        }
        if self.eat_kw("SHOW") {
            if self.eat_kw("STREAMS") {
                return Ok(Statement::ShowStreams);
            }
            self.expect_kw("TABLES")?;
            return Ok(Statement::ShowTables);
        }
        if self.eat_kw("DESCRIBE") || self.eat_kw("DESC") {
            let name = self.ident()?;
            return Ok(Statement::Describe { name });
        }
        if self.eat_kw("GRANT") {
            return self.grant(false);
        }
        if self.eat_kw("REVOKE") {
            return self.grant(true);
        }
        if self.eat_kw("SET") {
            let name = self.ident()?;
            if !self.eat(&Token::Eq) {
                self.expect_kw("TO")?;
            }
            let value = if self.eat_kw("DEFAULT") {
                None
            } else {
                Some(self.expr()?)
            };
            return Ok(Statement::Set { name, value });
        }
        if self.eat_kw("RETRAIN") {
            self.expect_kw("MODEL")?;
            let name = self.ident()?;
            return Ok(Statement::RetrainModel { name });
        }
        Err(SqlError::Parse(format!(
            "unsupported statement starting at '{}'",
            self.peek()
        )))
    }

    fn insert(&mut self) -> Result<Statement> {
        self.expect_kw("INTO")?;
        let table = self.ident()?;
        let columns = if self.peek() == &Token::LParen && !self.lparen_starts_query() {
            self.expect(&Token::LParen)?;
            let mut cols = vec![self.ident()?];
            while self.eat(&Token::Comma) {
                cols.push(self.ident()?);
            }
            self.expect(&Token::RParen)?;
            Some(cols)
        } else {
            None
        };
        let source = if self.eat_kw("VALUES") {
            let mut rows: Vec<Vec<Expr>> = Vec::new();
            loop {
                self.expect(&Token::LParen)?;
                let mut row = Vec::with_capacity(rows.first().map_or(4, Vec::len));
                row.push(self.cell()?);
                while self.eat(&Token::Comma) {
                    row.push(self.cell()?);
                }
                self.expect(&Token::RParen)?;
                rows.push(row);
                if !self.eat(&Token::Comma) {
                    break;
                }
            }
            InsertSource::Values(rows)
        } else {
            InsertSource::Query(Box::new(self.query()?))
        };
        Ok(Statement::Insert {
            table,
            columns,
            source,
        })
    }

    /// One `VALUES` cell. A lone literal — a number, a string or `NULL`,
    /// optionally after `-` — followed by `,` or `)` is read without the
    /// expression grammar, into the `Expr` that grammar builds for it; any
    /// other cell goes through [`Parser::expr`].
    fn cell(&mut self) -> Result<Expr> {
        let neg = usize::from(self.peek() == &Token::Minus);
        let literal = match self.peek_at(neg) {
            Token::Number(_) | Token::StringLit(_) => true,
            Token::Ident(w) => w.eq_ignore_ascii_case("NULL"),
            _ => false,
        };
        if !literal || !matches!(self.peek_at(neg + 1), Token::Comma | Token::RParen) {
            return self.expr();
        }
        if neg == 1 {
            self.next();
        }
        let cell = Expr::Literal(match self.next() {
            Token::Number(n) if neg == 1 => return Ok(Expr::Literal(negative_number(&n)?)),
            Token::Number(n) => number(&n)?,
            Token::StringLit(s) => Value::Text(s.into_owned()),
            _ => Value::Null,
        });
        Ok(if neg == 1 { negated(cell) } else { cell })
    }

    /// Does the upcoming `(` open a subquery (`(SELECT ...`)?
    fn lparen_starts_query(&self) -> bool {
        self.peek() == &Token::LParen
            && matches!(self.peek_at(1), Token::Ident(s) if s.eq_ignore_ascii_case("SELECT"))
    }

    fn update(&mut self) -> Result<Statement> {
        let table = self.ident()?;
        self.expect_kw("SET")?;
        let mut assignments = Vec::new();
        loop {
            let col = self.ident()?;
            self.expect(&Token::Eq)?;
            assignments.push((col, self.expr()?));
            if !self.eat(&Token::Comma) {
                break;
            }
        }
        let selection = if self.eat_kw("WHERE") {
            Some(self.expr()?)
        } else {
            None
        };
        Ok(Statement::Update {
            table,
            assignments,
            selection,
        })
    }

    fn delete(&mut self) -> Result<Statement> {
        self.expect_kw("FROM")?;
        let table = self.ident()?;
        let selection = if self.eat_kw("WHERE") {
            Some(self.expr()?)
        } else {
            None
        };
        Ok(Statement::Delete { table, selection })
    }

    fn create(&mut self) -> Result<Statement> {
        if self.eat_kw("TABLE") {
            let if_not_exists = if self.eat_kw("IF") {
                self.expect_kw("NOT")?;
                self.expect_kw("EXISTS")?;
                true
            } else {
                false
            };
            let name = self.ident()?;
            let columns = self.column_decls()?;
            return Ok(Statement::CreateTable {
                name,
                columns,
                if_not_exists,
            });
        }
        if self.eat_kw("STREAM") {
            return self.create_stream();
        }
        if self.eat_kw("CONTINUOUS") {
            self.expect_kw("QUERY")?;
            return self.create_continuous_query();
        }
        if self.eat_kw("VIEW") {
            let name = self.ident()?;
            self.expect_kw("AS")?;
            let query = self.query()?;
            return Ok(Statement::CreateView { name, query });
        }
        if self.eat_kw("USER") {
            let name = self.ident()?;
            return Ok(Statement::CreateUser { name });
        }
        if self.eat_kw("MODEL") {
            return self.create_model();
        }
        Err(SqlError::Parse(format!(
            "unsupported CREATE target '{}'",
            self.peek()
        )))
    }

    /// `CREATE MODEL name KIND kind [WITH (k = lit, ...)] TARGET col
    /// [OUTPUT out] AS SELECT ...`; the prefix through `MODEL` is already
    /// consumed. The legacy whole-table form
    /// `... FROM t TARGET y [FEATURES a, b] [OUTPUT o]` is desugared into
    /// an equivalent `AS SELECT` over the named table.
    fn create_model(&mut self) -> Result<Statement> {
        let name = self.ident()?;
        self.expect_kw("KIND")?;
        let kind = self.ident()?.to_ascii_lowercase();
        let mut options = Vec::new();
        if self.eat_kw("WITH") {
            self.expect(&Token::LParen)?;
            loop {
                let key = self.ident()?.to_ascii_lowercase();
                self.expect(&Token::Eq)?;
                let value = match self.expr()? {
                    Expr::Literal(v) => v,
                    other => {
                        return Err(SqlError::Parse(format!(
                            "WITH option '{key}' expects a literal value, got {other}"
                        )))
                    }
                };
                options.push((key, value));
                if !self.eat(&Token::Comma) {
                    break;
                }
            }
            self.expect(&Token::RParen)?;
        }
        if self.eat_kw("FROM") {
            // legacy whole-table form, desugared to `AS SELECT`
            let table = self.ident()?;
            self.expect_kw("TARGET")?;
            let target = self.ident()?;
            let mut features = Vec::new();
            if self.eat_kw("FEATURES") {
                features.push(self.ident()?);
                while self.eat(&Token::Comma) {
                    features.push(self.ident()?);
                }
            }
            let output = if self.eat_kw("OUTPUT") {
                Some(self.ident()?)
            } else {
                None
            };
            if features
                .iter()
                .any(|f| f.eq_ignore_ascii_case(&target))
            {
                return Err(SqlError::Plan(format!(
                    "target column '{target}' cannot also be a feature: training on \
                     the label leaks it into the model"
                )));
            }
            let projection = if features.is_empty() {
                vec![SelectItem::Wildcard]
            } else {
                features
                    .iter()
                    .chain(std::iter::once(&target))
                    .map(|c| SelectItem::Expr {
                        expr: Expr::Column {
                            qualifier: None,
                            name: c.clone(),
                        },
                        alias: None,
                    })
                    .collect()
            };
            let query = Query {
                select: Select {
                    distinct: false,
                    projection,
                    from: vec![TableRef::Table {
                        name: table,
                        alias: None,
                        version: None,
                    }],
                    selection: None,
                    group_by: vec![],
                    having: None,
                },
                unions: vec![],
                order_by: vec![],
                limit: None,
                offset: None,
            };
            return Ok(Statement::CreateModel {
                name,
                kind,
                options,
                target,
                output,
                query: Box::new(query),
            });
        }
        self.expect_kw("TARGET")?;
        let target = self.ident()?;
        let output = if self.eat_kw("OUTPUT") {
            Some(self.ident()?)
        } else {
            None
        };
        self.expect_kw("AS")?;
        let query = self.query()?;
        Ok(Statement::CreateModel {
            name,
            kind,
            options,
            target,
            output,
            query: Box::new(query),
        })
    }

    /// A type name; its parenthesized arguments (`VARCHAR(20)`,
    /// `DECIMAL(10, 2)`), if any, are read and dropped.
    fn data_type(&mut self) -> Result<DataType> {
        let ty_name = self.ident()?.to_ascii_uppercase();
        let data_type = DataType::parse(&ty_name)
            .ok_or_else(|| SqlError::Parse(format!("unknown type '{ty_name}'")))?;
        if self.eat(&Token::LParen) {
            while !matches!(self.peek(), Token::RParen | Token::Eof) {
                self.next();
            }
            self.expect(&Token::RParen)?;
        }
        Ok(data_type)
    }

    /// The parenthesized column list of CREATE TABLE / CREATE STREAM.
    fn column_decls(&mut self) -> Result<Vec<ColumnDecl>> {
        self.expect(&Token::LParen)?;
        let mut columns = Vec::new();
        loop {
            let col_name = self.ident()?;
            let data_type = self.data_type()?;
            let mut nullable = true;
            loop {
                if self.eat_kw("NOT") {
                    self.expect_kw("NULL")?;
                    nullable = false;
                } else if self.eat_kw("PRIMARY") {
                    self.expect_kw("KEY")?;
                    nullable = false;
                } else if self.eat_kw("NULL") {
                    // explicit NULL marker, already the default
                } else {
                    break;
                }
            }
            columns.push(ColumnDecl {
                name: col_name,
                data_type,
                nullable,
            });
            if !self.eat(&Token::Comma) {
                break;
            }
        }
        self.expect(&Token::RParen)?;
        Ok(columns)
    }

    /// `CREATE STREAM [IF NOT EXISTS] s (cols...) WATERMARK (et, lag)`;
    /// the `CREATE STREAM` prefix is already consumed.
    fn create_stream(&mut self) -> Result<Statement> {
        let if_not_exists = if self.eat_kw("IF") {
            self.expect_kw("NOT")?;
            self.expect_kw("EXISTS")?;
            true
        } else {
            false
        };
        let name = self.ident()?;
        let columns = self.column_decls()?;
        self.expect_kw("WATERMARK")?;
        self.expect(&Token::LParen)?;
        let event_time = self.ident()?;
        self.expect(&Token::Comma)?;
        let lag_ms = self.int_literal("watermark lag")?;
        self.expect(&Token::RParen)?;
        Ok(Statement::CreateStream {
            name,
            columns,
            event_time,
            lag_ms,
            if_not_exists,
        })
    }

    /// `CREATE CONTINUOUS QUERY name ON stream WINDOW TUMBLING (size) |
    /// SLIDING (size, slide) EMIT INTO sink AS SELECT ...
    /// [WHEN expr THEN HOLD MODEL m]`; the `CREATE CONTINUOUS QUERY`
    /// prefix is already consumed.
    fn create_continuous_query(&mut self) -> Result<Statement> {
        let name = self.ident()?;
        self.expect_kw("ON")?;
        let stream = self.ident()?;
        self.expect_kw("WINDOW")?;
        let window = if self.eat_kw("TUMBLING") {
            self.expect(&Token::LParen)?;
            let size = self.int_literal("window size")?;
            self.expect(&Token::RParen)?;
            WindowSpec::tumbling(size)
        } else if self.eat_kw("SLIDING") {
            self.expect(&Token::LParen)?;
            let size = self.int_literal("window size")?;
            self.expect(&Token::Comma)?;
            let slide = self.int_literal("window slide")?;
            self.expect(&Token::RParen)?;
            WindowSpec::sliding(size, slide)
        } else {
            return Err(SqlError::Parse(
                "expected TUMBLING or SLIDING after WINDOW".into(),
            ));
        };
        self.expect_kw("EMIT")?;
        self.expect_kw("INTO")?;
        let sink = self.ident()?;
        self.expect_kw("AS")?;
        let query = self.query()?;
        let (when, hold_model, retrain_model) = if self.eat_kw("WHEN") {
            let predicate = self.expr()?;
            self.expect_kw("THEN")?;
            if self.eat_kw("HOLD") {
                self.expect_kw("MODEL")?;
                (Some(predicate), Some(self.ident()?), None)
            } else if self.eat_kw("RETRAIN") {
                self.expect_kw("MODEL")?;
                (Some(predicate), None, Some(self.ident()?))
            } else {
                return Err(SqlError::Parse(
                    "expected HOLD MODEL or RETRAIN MODEL after THEN".into(),
                ));
            }
        } else {
            (None, None, None)
        };
        Ok(Statement::CreateContinuousQuery {
            name,
            stream,
            window,
            sink,
            query: Box::new(query),
            when,
            hold_model,
            retrain_model,
        })
    }

    /// A positive integer literal (e.g. window sizes and watermark lags).
    fn int_literal(&mut self, what: &str) -> Result<i64> {
        match self.expr()? {
            Expr::Literal(Value::Int(i)) if i >= 0 => Ok(i),
            other => Err(SqlError::Parse(format!(
                "{what} expects a non-negative integer, got {other}"
            ))),
        }
    }

    fn drop(&mut self) -> Result<Statement> {
        if self.eat_kw("TABLE") {
            let if_exists = if self.eat_kw("IF") {
                self.expect_kw("EXISTS")?;
                true
            } else {
                false
            };
            let name = self.ident()?;
            return Ok(Statement::DropTable { name, if_exists });
        }
        if self.eat_kw("VIEW") {
            let name = self.ident()?;
            return Ok(Statement::DropView { name });
        }
        if self.eat_kw("STREAM") {
            let name = self.ident()?;
            return Ok(Statement::DropStream { name });
        }
        if self.eat_kw("CONTINUOUS") {
            self.expect_kw("QUERY")?;
            let name = self.ident()?;
            return Ok(Statement::DropContinuousQuery { name });
        }
        if self.eat_kw("MODEL") {
            let name = self.ident()?;
            return Ok(Statement::DropModel { name });
        }
        Err(SqlError::Parse(format!(
            "unsupported DROP target '{}'",
            self.peek()
        )))
    }

    fn grant(&mut self, revoke: bool) -> Result<Statement> {
        let mut privileges = Vec::new();
        if self.eat_kw("ALL") {
            privileges.extend(Privilege::ALL);
        } else {
            loop {
                let word = self.ident()?;
                let p = Privilege::parse(&word).ok_or_else(|| {
                    SqlError::Parse(format!("unknown privilege '{word}'"))
                })?;
                privileges.push(p);
                if !self.eat(&Token::Comma) {
                    break;
                }
            }
        }
        self.expect_kw("ON")?;
        let object = if self.eat_kw("MODEL") {
            GrantObject::Model(self.ident()?)
        } else {
            self.eat_kw("TABLE");
            GrantObject::Table(self.ident()?)
        };
        if revoke {
            self.expect_kw("FROM")?;
        } else {
            self.expect_kw("TO")?;
        }
        let user = self.ident()?;
        Ok(if revoke {
            Statement::Revoke {
                privileges,
                object,
                user,
            }
        } else {
            Statement::Grant {
                privileges,
                object,
                user,
            }
        })
    }

    // ---- queries ----

    fn query(&mut self) -> Result<Query> {
        let select = self.select()?;
        let mut unions = Vec::new();
        while self.eat_kw("UNION") {
            let all = self.eat_kw("ALL");
            unions.push(UnionArm {
                select: self.select()?,
                all,
            });
        }
        let mut order_by = Vec::new();
        if self.eat_kw("ORDER") {
            self.expect_kw("BY")?;
            loop {
                let expr = self.expr()?;
                let asc = if self.eat_kw("DESC") {
                    false
                } else {
                    self.eat_kw("ASC");
                    true
                };
                order_by.push(OrderItem { expr, asc });
                if !self.eat(&Token::Comma) {
                    break;
                }
            }
        }
        let mut limit = None;
        let mut offset = None;
        if self.eat_kw("LIMIT") {
            limit = Some(self.unsigned()?);
            if self.eat_kw("OFFSET") {
                offset = Some(self.unsigned()?);
            }
        }
        Ok(Query {
            select,
            unions,
            order_by,
            limit,
            offset,
        })
    }

    fn unsigned(&mut self) -> Result<u64> {
        match self.next() {
            Token::Number(n) => n
                .parse::<u64>()
                .map_err(|_| SqlError::Parse(format!("expected integer, got '{n}'"))),
            other => Err(SqlError::Parse(format!(
                "expected integer, found '{other}'"
            ))),
        }
    }

    fn select(&mut self) -> Result<Select> {
        self.expect_kw("SELECT")?;
        let distinct = self.eat_kw("DISTINCT");
        self.eat_kw("ALL");
        let mut projection = Vec::new();
        loop {
            projection.push(self.select_item()?);
            if !self.eat(&Token::Comma) {
                break;
            }
        }
        let mut from = Vec::new();
        if self.eat_kw("FROM") {
            loop {
                from.push(self.table_ref()?);
                if !self.eat(&Token::Comma) {
                    break;
                }
            }
        }
        let selection = if self.eat_kw("WHERE") {
            Some(self.expr()?)
        } else {
            None
        };
        let mut group_by = Vec::new();
        if self.eat_kw("GROUP") {
            self.expect_kw("BY")?;
            loop {
                group_by.push(self.expr()?);
                if !self.eat(&Token::Comma) {
                    break;
                }
            }
        }
        let having = if self.eat_kw("HAVING") {
            Some(self.expr()?)
        } else {
            None
        };
        Ok(Select {
            distinct,
            projection,
            from,
            selection,
            group_by,
            having,
        })
    }

    fn select_item(&mut self) -> Result<SelectItem> {
        if self.eat(&Token::Star) {
            return Ok(SelectItem::Wildcard);
        }
        // alias.* ?
        if matches!(
            (self.peek(), self.peek_at(1), self.peek_at(2)),
            (Token::Ident(_), Token::Dot, Token::Star)
        ) {
            let q = self.ident()?;
            self.next();
            self.next();
            return Ok(SelectItem::QualifiedWildcard(q));
        }
        let expr = self.expr()?;
        let alias = if self.eat_kw("AS") {
            Some(self.ident()?)
        } else {
            // bare alias: an identifier not a clause keyword
            match self.peek() {
                Token::Ident(s) if !is_clause_keyword(s) => Some(self.ident()?),
                Token::QuotedIdent(_) => Some(self.ident()?),
                _ => None,
            }
        };
        Ok(SelectItem::Expr { expr, alias })
    }

    fn table_ref(&mut self) -> Result<TableRef> {
        let mut left = self.table_factor()?;
        loop {
            let join_type = if self.eat_kw("INNER") {
                self.expect_kw("JOIN")?;
                JoinType::Inner
            } else if self.eat_kw("LEFT") {
                self.eat_kw("OUTER");
                self.expect_kw("JOIN")?;
                JoinType::Left
            } else if self.eat_kw("CROSS") {
                self.expect_kw("JOIN")?;
                JoinType::Cross
            } else if self.eat_kw("JOIN") {
                JoinType::Inner
            } else {
                break;
            };
            let right = self.table_factor()?;
            let on = if join_type != JoinType::Cross && self.eat_kw("ON") {
                Some(self.expr()?)
            } else {
                None
            };
            left = TableRef::Join {
                left: Box::new(left),
                right: Box::new(right),
                join_type,
                on,
            };
        }
        Ok(left)
    }

    fn table_factor(&mut self) -> Result<TableRef> {
        if self.lparen_starts_query() {
            self.expect(&Token::LParen)?;
            let query = self.query()?;
            self.expect(&Token::RParen)?;
            self.eat_kw("AS");
            let alias = self.ident()?;
            return Ok(TableRef::Subquery {
                query: Box::new(query),
                alias,
            });
        }
        let name = self.ident()?;
        let version = if self.eat_kw("VERSION") {
            Some(self.unsigned()?)
        } else {
            None
        };
        let alias = if self.eat_kw("AS") {
            Some(self.ident()?)
        } else {
            match self.peek() {
                Token::Ident(s)
                    if !is_clause_keyword(s)
                        && !is_join_keyword(s)
                        && !s.eq_ignore_ascii_case("VERSION") =>
                {
                    Some(self.ident()?)
                }
                _ => None,
            }
        };
        let version = match version {
            Some(v) => Some(v),
            None if self.eat_kw("VERSION") => Some(self.unsigned()?),
            None => None,
        };
        Ok(TableRef::Table {
            name,
            alias,
            version,
        })
    }

    // ---- expressions (precedence climbing) ----

    pub(crate) fn expr(&mut self) -> Result<Expr> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> Result<Expr> {
        let mut left = self.and_expr()?;
        while self.eat_kw("OR") {
            let right = self.and_expr()?;
            left = Expr::binary(left, BinOp::Or, right);
        }
        Ok(left)
    }

    fn and_expr(&mut self) -> Result<Expr> {
        let mut left = self.not_expr()?;
        while self.eat_kw("AND") {
            let right = self.not_expr()?;
            left = Expr::binary(left, BinOp::And, right);
        }
        Ok(left)
    }

    fn not_expr(&mut self) -> Result<Expr> {
        if self.eat_kw("NOT") {
            let inner = self.not_expr()?;
            return Ok(Expr::Unary {
                op: UnOp::Not,
                expr: Box::new(inner),
            });
        }
        self.comparison()
    }

    fn comparison(&mut self) -> Result<Expr> {
        let left = self.additive()?;
        // IS [NOT] NULL
        if self.eat_kw("IS") {
            let negated = self.eat_kw("NOT");
            self.expect_kw("NULL")?;
            return Ok(Expr::IsNull {
                expr: Box::new(left),
                negated,
            });
        }
        let negated = if self.peek_kw("NOT")
            && matches!(self.peek_at(1), Token::Ident(s)
                if s.eq_ignore_ascii_case("IN")
                    || s.eq_ignore_ascii_case("BETWEEN")
                    || s.eq_ignore_ascii_case("LIKE"))
        {
            self.next();
            true
        } else {
            false
        };
        if self.eat_kw("IN") {
            self.expect(&Token::LParen)?;
            if self.peek_kw("SELECT") {
                let q = self.query()?;
                self.expect(&Token::RParen)?;
                return Ok(Expr::InSubquery {
                    expr: Box::new(left),
                    query: Box::new(q),
                    negated,
                });
            }
            let mut list = vec![self.expr()?];
            while self.eat(&Token::Comma) {
                list.push(self.expr()?);
            }
            self.expect(&Token::RParen)?;
            return Ok(Expr::InList {
                expr: Box::new(left),
                list,
                negated,
            });
        }
        if self.eat_kw("BETWEEN") {
            let low = self.additive()?;
            self.expect_kw("AND")?;
            let high = self.additive()?;
            return Ok(Expr::Between {
                expr: Box::new(left),
                low: Box::new(low),
                high: Box::new(high),
                negated,
            });
        }
        if self.eat_kw("LIKE") {
            let pattern = self.additive()?;
            return Ok(Expr::Like {
                expr: Box::new(left),
                pattern: Box::new(pattern),
                negated,
            });
        }
        if negated {
            return Err(SqlError::Parse(
                "expected IN, BETWEEN or LIKE after NOT".into(),
            ));
        }
        let op = match self.peek() {
            Token::Eq => BinOp::Eq,
            Token::NotEq => BinOp::NotEq,
            Token::Lt => BinOp::Lt,
            Token::LtEq => BinOp::LtEq,
            Token::Gt => BinOp::Gt,
            Token::GtEq => BinOp::GtEq,
            _ => return Ok(left),
        };
        self.next();
        let right = self.additive()?;
        Ok(Expr::binary(left, op, right))
    }

    fn additive(&mut self) -> Result<Expr> {
        let mut left = self.multiplicative()?;
        loop {
            let op = match self.peek() {
                Token::Plus => BinOp::Plus,
                Token::Minus => BinOp::Minus,
                Token::Concat => BinOp::Concat,
                _ => break,
            };
            self.next();
            let right = self.multiplicative()?;
            left = Expr::binary(left, op, right);
        }
        Ok(left)
    }

    fn multiplicative(&mut self) -> Result<Expr> {
        let mut left = self.unary()?;
        loop {
            let op = match self.peek() {
                Token::Star => BinOp::Mul,
                Token::Slash => BinOp::Div,
                Token::Percent => BinOp::Mod,
                _ => break,
            };
            self.next();
            let right = self.unary()?;
            left = Expr::binary(left, op, right);
        }
        Ok(left)
    }

    fn unary(&mut self) -> Result<Expr> {
        if self.eat(&Token::Minus) {
            if let Token::Number(n) = self.peek() {
                let v = negative_number(n)?;
                self.next();
                return Ok(Expr::Literal(v));
            }
            return Ok(negated(self.unary()?));
        }
        if self.eat(&Token::Plus) {
            return self.unary();
        }
        self.primary()
    }

    fn primary(&mut self) -> Result<Expr> {
        match self.next() {
            Token::Number(n) => Ok(Expr::Literal(number(&n)?)),
            Token::StringLit(s) => Ok(Expr::Literal(Value::Text(s.into_owned()))),
            Token::Question => {
                let idx = self.params;
                self.params += 1;
                Ok(Expr::Parameter(idx))
            }
            Token::LParen => {
                let e = if self.peek_kw("SELECT") {
                    Expr::Subquery(Box::new(self.query()?))
                } else {
                    self.expr()?
                };
                self.expect(&Token::RParen)?;
                Ok(e)
            }
            Token::Ident(word) => self.ident_led_expr(word),
            Token::QuotedIdent(name) => Ok(Expr::Column {
                qualifier: None,
                name: name.into_owned(),
            }),
            other => Err(SqlError::Parse(format!(
                "unexpected token '{other}' in expression"
            ))),
        }
    }

    /// The expression led by `word`, already consumed.
    fn ident_led_expr(&mut self, word: Cow<'a, str>) -> Result<Expr> {
        let kw = |k: &str| word.eq_ignore_ascii_case(k);
        if kw("NULL") {
            return Ok(Expr::Literal(Value::Null));
        }
        if kw("TRUE") || kw("FALSE") {
            return Ok(Expr::Literal(Value::Bool(kw("TRUE"))));
        }
        if kw("DATE") {
            if let Some(Token::StringLit(s)) = self.next_if(|t| matches!(t, Token::StringLit(_))) {
                let d = parse_date(&s)
                    .ok_or_else(|| SqlError::Parse(format!("invalid date literal '{s}'")))?;
                return Ok(Expr::Literal(Value::Date(d)));
            }
        }
        if kw("CASE") {
            return self.case_expr();
        }
        if kw("CAST") {
            self.expect(&Token::LParen)?;
            let e = self.expr()?;
            self.expect_kw("AS")?;
            let to = self.data_type()?;
            self.expect(&Token::RParen)?;
            return Ok(Expr::Cast {
                expr: Box::new(e),
                to,
            });
        }
        if kw("EXISTS") {
            self.expect(&Token::LParen)?;
            let q = self.query()?;
            self.expect(&Token::RParen)?;
            return Ok(Expr::Exists {
                query: Box::new(q),
                negated: false,
            });
        }
        if kw("PREDICT") && self.eat(&Token::LParen) {
            let model = self.ident()?;
            let mut args = Vec::new();
            while self.eat(&Token::Comma) {
                args.push(self.expr()?);
            }
            self.expect(&Token::RParen)?;
            return Ok(Expr::Predict {
                model,
                args,
                strategy: PredictStrategy::Auto,
                pin: None,
            });
        }
        if is_clause_keyword(&word) || is_join_keyword(&word) {
            return Err(SqlError::Parse(format!(
                "unexpected keyword '{word}' in expression"
            )));
        }
        // function call?
        if self.eat(&Token::LParen) {
            let name = word.to_ascii_uppercase();
            if self.eat(&Token::Star) {
                self.expect(&Token::RParen)?;
                return Ok(Expr::Function {
                    name,
                    args: vec![Expr::Wildcard],
                    distinct: false,
                });
            }
            let distinct = self.eat_kw("DISTINCT");
            let mut args = Vec::new();
            if self.peek() != &Token::RParen {
                args.push(self.expr()?);
                while self.eat(&Token::Comma) {
                    args.push(self.expr()?);
                }
            }
            self.expect(&Token::RParen)?;
            return Ok(Expr::Function {
                name,
                args,
                distinct,
            });
        }
        // qualified column?
        if self.eat(&Token::Dot) {
            let name = self.ident()?;
            return Ok(Expr::Column {
                qualifier: Some(word.into_owned()),
                name,
            });
        }
        Ok(Expr::Column {
            qualifier: None,
            name: word.into_owned(),
        })
    }

    fn case_expr(&mut self) -> Result<Expr> {
        let operand = if !self.peek_kw("WHEN") {
            Some(Box::new(self.expr()?))
        } else {
            None
        };
        let mut when_then = Vec::new();
        while self.eat_kw("WHEN") {
            let w = self.expr()?;
            self.expect_kw("THEN")?;
            let t = self.expr()?;
            when_then.push((w, t));
        }
        if when_then.is_empty() {
            return Err(SqlError::Parse("CASE requires at least one WHEN".into()));
        }
        let else_expr = if self.eat_kw("ELSE") {
            Some(Box::new(self.expr()?))
        } else {
            None
        };
        self.expect_kw("END")?;
        Ok(Expr::Case {
            operand,
            when_then,
            else_expr,
        })
    }
}

/// The value of a number literal: a decimal point or an exponent makes a
/// FLOAT, anything else an INT, or a FLOAT past the INT range.
pub(crate) fn number(n: &str) -> Result<Value> {
    let float = || {
        n.parse()
            .map(Value::Float)
            .map_err(|_| SqlError::Parse(format!("bad number '{n}'")))
    };
    if n.bytes().any(|b| matches!(b, b'.' | b'e' | b'E')) {
        return float();
    }
    n.parse().map(Value::Int).or_else(|_| float())
}

/// The value of the number literal `n` written directly after a unary
/// `-`: the sign folds into the literal, so `-9223372036854775808` is
/// INT's minimum, where its digits alone are past INT's range (a FLOAT).
/// The one sign-fold rule for number literals, on every path that reads
/// one: the expression grammar, the `VALUES` cell rule and the plan
/// cache's normalizer, which leaves these digits inline.
pub(crate) fn negative_number(n: &str) -> Result<Value> {
    if is_int_min_magnitude(n) {
        return Ok(Value::Int(i64::MIN));
    }
    let v = number(n)?;
    Ok(negated_literal(&v).unwrap_or(v))
}

/// Whether the number text `n` is `9223372036854775808` (2^63), the
/// magnitude only a negative INT has.
pub(crate) fn is_int_min_magnitude(n: &str) -> bool {
    n.parse::<u64>() == Ok(1 << 63)
}

/// `-v` for a number literal, when it folds (not for `i64::MIN`, whose
/// negation is past INT's range).
fn negated_literal(v: &Value) -> Option<Value> {
    match v {
        Value::Int(i) => i.checked_neg().map(Value::Int),
        Value::Float(f) => Some(Value::Float(-f)),
        _ => None,
    }
}

/// `-e`, with a number literal folded into its negation.
fn negated(e: Expr) -> Expr {
    let folded = match &e {
        Expr::Literal(v) => negated_literal(v),
        _ => None,
    };
    folded.map_or_else(
        || Expr::Unary {
            op: UnOp::Neg,
            expr: Box::new(e),
        },
        Expr::Literal,
    )
}

fn is_clause_keyword(s: &str) -> bool {
    const KW: &[&str] = &[
        "FROM", "WHERE", "GROUP", "HAVING", "ORDER", "LIMIT", "OFFSET", "UNION", "ON", "AND",
        "OR", "NOT", "AS", "JOIN", "INNER", "LEFT", "RIGHT", "CROSS", "SET", "VALUES", "WHEN",
        "THEN", "ELSE", "END", "ASC", "DESC", "IS", "IN", "BETWEEN", "LIKE", "SELECT",
    ];
    KW.iter().any(|k| s.eq_ignore_ascii_case(k))
}

fn is_join_keyword(s: &str) -> bool {
    const KW: &[&str] = &["JOIN", "INNER", "LEFT", "RIGHT", "CROSS", "ON"];
    KW.iter().any(|k| s.eq_ignore_ascii_case(k))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_simple_select() {
        let stmt = parse_statement("SELECT a, b + 1 AS b1 FROM t WHERE a > 2 LIMIT 10").unwrap();
        let Statement::Query(q) = stmt else {
            panic!("expected query")
        };
        assert_eq!(q.select.projection.len(), 2);
        assert_eq!(q.limit, Some(10));
        assert!(q.select.selection.is_some());
    }

    #[test]
    fn parses_joins_and_aliases() {
        let stmt = parse_statement(
            "SELECT o.id, c.name FROM orders o JOIN customers AS c ON o.cust = c.id \
             LEFT JOIN region r ON c.region = r.id",
        )
        .unwrap();
        let Statement::Query(q) = stmt else {
            panic!()
        };
        let TableRef::Join { join_type, .. } = &q.select.from[0] else {
            panic!("expected join tree")
        };
        assert_eq!(*join_type, JoinType::Left);
    }

    #[test]
    fn parses_implicit_join_from_list() {
        let stmt =
            parse_statement("SELECT * FROM a, b WHERE a.x = b.y").unwrap();
        let Statement::Query(q) = stmt else { panic!() };
        assert_eq!(q.select.from.len(), 2);
    }

    #[test]
    fn parses_group_by_having_order() {
        let stmt = parse_statement(
            "SELECT dept, COUNT(*) AS n, AVG(salary) FROM emp \
             GROUP BY dept HAVING COUNT(*) > 3 ORDER BY n DESC, dept",
        )
        .unwrap();
        let Statement::Query(q) = stmt else { panic!() };
        assert_eq!(q.select.group_by.len(), 1);
        assert!(q.select.having.is_some());
        assert_eq!(q.order_by.len(), 2);
        assert!(!q.order_by[0].asc);
    }

    #[test]
    fn parses_predict_expression() {
        let e = parse_expr("PREDICT(churn_model, age, income * 2)").unwrap();
        let Expr::Predict { model, args, strategy, .. } = e else {
            panic!()
        };
        assert_eq!(model, "churn_model");
        assert_eq!(args.len(), 2);
        assert_eq!(strategy, PredictStrategy::Auto);
    }

    #[test]
    fn parses_create_model_as_select() {
        let stmt = parse_statement(
            "CREATE MODEL churn KIND gbt WITH (trees = 30, seed = 7, test_fraction = 0.25) \
             TARGET churned OUTPUT churn_p \
             AS SELECT c.age, a.balance, c.churned FROM customers c \
             JOIN accounts a ON c.id = a.cust_id WHERE c.active = 1",
        )
        .unwrap();
        let Statement::CreateModel { name, kind, options, target, output, query } = stmt else {
            panic!("expected CreateModel")
        };
        assert_eq!(name, "churn");
        assert_eq!(kind, "gbt");
        assert_eq!(target, "churned");
        assert_eq!(output.as_deref(), Some("churn_p"));
        assert_eq!(options.len(), 3);
        assert_eq!(options[0], ("trees".to_string(), Value::Int(30)));
        assert_eq!(options[1], ("seed".to_string(), Value::Int(7)));
        assert_eq!(options[2], ("test_fraction".to_string(), Value::Float(0.25)));
        assert!(query.select.selection.is_some(), "WHERE clause must survive");
    }

    #[test]
    fn legacy_create_model_desugars_to_a_query() {
        let stmt = parse_statement(
            "CREATE MODEL m KIND logistic FROM labeled TARGET hi FEATURES age, income",
        )
        .unwrap();
        let Statement::CreateModel { target, query, output, .. } = stmt else {
            panic!("expected CreateModel")
        };
        assert_eq!(target, "hi");
        assert_eq!(output, None);
        // desugars to SELECT age, income, hi FROM labeled
        assert_eq!(query.select.projection.len(), 3);
        let TableRef::Table { name, .. } = &query.select.from[0] else {
            panic!("expected plain table scan")
        };
        assert_eq!(name, "labeled");
    }

    #[test]
    fn target_listed_as_feature_is_label_leakage() {
        let err = parse_statement(
            "CREATE MODEL leak KIND gbt FROM t TARGET y FEATURES x, y",
        )
        .unwrap_err();
        assert!(matches!(err, SqlError::Plan(_)), "{err}");
        assert!(err.to_string().contains("leaks"), "{err}");
        // case-insensitive: Y vs y is the same column
        let err = parse_statement(
            "CREATE MODEL leak KIND gbt FROM t TARGET y FEATURES x, Y",
        )
        .unwrap_err();
        assert!(err.to_string().contains("leaks"), "{err}");
    }

    #[test]
    fn with_options_must_be_literals() {
        let err = parse_statement(
            "CREATE MODEL m KIND gbt WITH (trees = a + 1) TARGET y AS SELECT * FROM t",
        )
        .unwrap_err();
        assert!(err.to_string().contains("literal"), "{err}");
    }

    #[test]
    fn parses_retrain_and_drop_model() {
        let stmt = parse_statement("RETRAIN MODEL churn").unwrap();
        assert!(matches!(stmt, Statement::RetrainModel { ref name } if name == "churn"));
        let stmt = parse_statement("DROP MODEL churn").unwrap();
        assert!(matches!(stmt, Statement::DropModel { ref name } if name == "churn"));
    }

    #[test]
    fn continuous_query_accepts_retrain_action() {
        let stmt = parse_statement(
            "CREATE CONTINUOUS QUERY cq ON s WINDOW TUMBLING (100) EMIT INTO sink \
             AS SELECT COUNT(*) AS n FROM s WHEN n > 10 THEN RETRAIN MODEL m",
        )
        .unwrap();
        let Statement::CreateContinuousQuery { retrain_model, hold_model, .. } = stmt else {
            panic!("expected CreateContinuousQuery")
        };
        assert_eq!(retrain_model.as_deref(), Some("m"));
        assert_eq!(hold_model, None);
    }

    #[test]
    fn parses_case_cast_between_like_in() {
        let e = parse_expr(
            "CASE WHEN x BETWEEN 1 AND 5 THEN 'low' WHEN name LIKE 'A%' THEN 'a' ELSE CAST(x AS VARCHAR) END",
        )
        .unwrap();
        assert!(matches!(e, Expr::Case { .. }));
        let e = parse_expr("x NOT IN (1, 2, 3)").unwrap();
        assert!(matches!(e, Expr::InList { negated: true, .. }));
    }

    #[test]
    fn parses_subqueries() {
        let stmt = parse_statement(
            "SELECT * FROM t WHERE id IN (SELECT id FROM u WHERE flag = 1) AND EXISTS (SELECT 1 FROM v)",
        )
        .unwrap();
        assert!(matches!(stmt, Statement::Query(_)));
        let stmt = parse_statement("SELECT * FROM (SELECT a FROM t) sub WHERE a > 0").unwrap();
        let Statement::Query(q) = stmt else { panic!() };
        assert!(matches!(&q.select.from[0], TableRef::Subquery { alias, .. } if alias == "sub"));
    }

    #[test]
    fn parses_ddl_dml() {
        let stmt = parse_statement(
            "CREATE TABLE t (id INT NOT NULL, name VARCHAR(30), score DOUBLE, born DATE)",
        )
        .unwrap();
        let Statement::CreateTable { columns, .. } = stmt else {
            panic!()
        };
        assert_eq!(columns.len(), 4);
        assert!(!columns[0].nullable);

        let stmt =
            parse_statement("INSERT INTO t (id, name) VALUES (1, 'x'), (2, 'y')").unwrap();
        let Statement::Insert { source, .. } = stmt else {
            panic!()
        };
        assert!(matches!(source, InsertSource::Values(rows) if rows.len() == 2));

        let stmt = parse_statement("UPDATE t SET score = score + 1 WHERE id = 3").unwrap();
        assert!(matches!(stmt, Statement::Update { .. }));

        let stmt = parse_statement("DELETE FROM t WHERE id = 3").unwrap();
        assert!(matches!(stmt, Statement::Delete { .. }));
    }

    #[test]
    fn parses_insert_from_query() {
        let stmt = parse_statement("INSERT INTO t SELECT * FROM s WHERE x > 0").unwrap();
        let Statement::Insert { source, .. } = stmt else {
            panic!()
        };
        assert!(matches!(source, InsertSource::Query(_)));
    }

    #[test]
    fn parses_grant_revoke() {
        let stmt = parse_statement("GRANT SELECT, INSERT ON TABLE t TO alice").unwrap();
        let Statement::Grant { privileges, .. } = stmt else {
            panic!()
        };
        assert_eq!(privileges.len(), 2);
        let stmt = parse_statement("REVOKE EXECUTE ON MODEL churn FROM bob").unwrap();
        let Statement::Revoke { object, .. } = stmt else {
            panic!()
        };
        assert_eq!(object, GrantObject::Model("churn".into()));
    }

    #[test]
    fn parses_txn_and_script() {
        let stmts = parse_script("BEGIN; INSERT INTO t VALUES (1); COMMIT;").unwrap();
        assert_eq!(stmts.len(), 3);
        assert_eq!(stmts[0], Statement::Begin);
        assert_eq!(stmts[2], Statement::Commit);
    }

    #[test]
    fn parses_date_literal_and_parameters() {
        let e = parse_expr("d >= DATE '1994-01-01' AND x = ?").unwrap();
        let mut cols = vec![];
        e.referenced_columns(&mut cols);
        assert_eq!(cols.len(), 2);
        let parts = e.split_conjunction();
        assert!(matches!(parts[1], Expr::Binary { right, .. } if matches!(**right, Expr::Parameter(0))));
    }

    #[test]
    fn negative_literals_fold() {
        let e = parse_expr("-5").unwrap();
        assert_eq!(e, Expr::Literal(Value::Int(-5)));
        let e = parse_expr("-2.5").unwrap();
        assert_eq!(e, Expr::Literal(Value::Float(-2.5)));
    }

    #[test]
    fn rejects_malformed_sql() {
        assert!(parse_statement("SELECT FROM").is_err());
        assert!(parse_statement("SELECT a FROM t WHERE").is_err());
        assert!(parse_statement("FOO BAR").is_err());
        assert!(parse_statement("SELECT a FROM t GROUP").is_err());
        assert!(parse_expr("CASE END").is_err());
    }

    #[test]
    fn explain_wraps_statement() {
        let stmt = parse_statement("EXPLAIN SELECT * FROM t").unwrap();
        assert!(matches!(stmt, Statement::Explain { analyze: false, .. }));
        let stmt = parse_statement("EXPLAIN ANALYZE SELECT * FROM t").unwrap();
        assert!(matches!(stmt, Statement::Explain { analyze: true, .. }));
    }

    #[test]
    fn count_star_parses_as_wildcard_arg() {
        let e = parse_expr("COUNT(*)").unwrap();
        let Expr::Function { name, args, .. } = e else {
            panic!()
        };
        assert_eq!(name, "COUNT");
        assert_eq!(args, vec![Expr::Wildcard]);
    }
}
