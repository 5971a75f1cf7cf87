//! Error type shared across the SQL engine.

use std::fmt;

/// Errors produced by the SQL engine.
///
/// Every layer (lexer, parser, planner, optimizer, executor, catalog,
/// transaction manager) reports failures through this single enum so that
/// callers can match on the failure class without knowing which layer
/// produced it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SqlError {
    /// Lexical error: unexpected character or malformed literal.
    Lex(String),
    /// Syntax error from the parser.
    Parse(String),
    /// Name-resolution or semantic analysis error (unknown table/column,
    /// type mismatch, ambiguous reference, ...).
    Plan(String),
    /// Runtime error raised during execution (division by zero, cast
    /// failure, overflow, ...).
    Execution(String),
    /// Catalog error: object already exists / not found / version missing.
    Catalog(String),
    /// Transaction error: conflicts, invalid state transitions.
    Transaction(String),
    /// Permission denied by the access-control layer.
    AccessDenied(String),
    /// Constraint violation (arity/type mismatch on INSERT, ...).
    Constraint(String),
    /// Durability I/O failure (WAL append/fsync, checkpoint write) or an
    /// unrecoverable inconsistency found during recovery.
    Io(String),
    /// Query aborted by an explicit `Session::cancel()` (cooperative — the
    /// executor notices at the next morsel/row-stride boundary).
    Cancelled(String),
    /// Query aborted because its `statement_timeout` deadline passed.
    Timeout(String),
    /// Query rejected up front by the admission controller (too many
    /// concurrent queries on this database).
    Admission(String),
    /// Query aborted mid-run because it exceeded its per-query row or
    /// memory budget.
    Budget(String),
}

impl fmt::Display for SqlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SqlError::Lex(m) => write!(f, "lexical error: {m}"),
            SqlError::Parse(m) => write!(f, "parse error: {m}"),
            SqlError::Plan(m) => write!(f, "planning error: {m}"),
            SqlError::Execution(m) => write!(f, "execution error: {m}"),
            SqlError::Catalog(m) => write!(f, "catalog error: {m}"),
            SqlError::Transaction(m) => write!(f, "transaction error: {m}"),
            SqlError::AccessDenied(m) => write!(f, "access denied: {m}"),
            SqlError::Constraint(m) => write!(f, "constraint violation: {m}"),
            SqlError::Io(m) => write!(f, "io error: {m}"),
            SqlError::Cancelled(m) => write!(f, "query cancelled: {m}"),
            SqlError::Timeout(m) => write!(f, "statement timeout: {m}"),
            SqlError::Admission(m) => write!(f, "admission rejected: {m}"),
            SqlError::Budget(m) => write!(f, "budget exceeded: {m}"),
        }
    }
}

impl std::error::Error for SqlError {}

impl SqlError {
    /// Stable, machine-readable error code — one per variant. This is the
    /// contract network clients program against: codes never change once
    /// shipped, while `Display` messages may be reworded freely.
    pub fn code(&self) -> &'static str {
        match self {
            SqlError::Lex(_) => "lex",
            SqlError::Parse(_) => "parse",
            SqlError::Plan(_) => "plan",
            SqlError::Execution(_) => "execution",
            SqlError::Catalog(_) => "catalog",
            SqlError::Transaction(_) => "transaction",
            SqlError::AccessDenied(_) => "access_denied",
            SqlError::Constraint(_) => "constraint",
            SqlError::Io(_) => "io",
            SqlError::Cancelled(_) => "cancelled",
            SqlError::Timeout(_) => "timeout",
            SqlError::Admission(_) => "admission",
            SqlError::Budget(_) => "budget",
        }
    }

    /// Whether re-submitting the identical statement may succeed without
    /// any client-side change. Only [`SqlError::Admission`] qualifies: the
    /// database was merely full at that instant. A `timeout` or `budget`
    /// failure will recur until the client changes its limits, and a
    /// `cancelled` statement was aborted on purpose.
    pub fn retryable(&self) -> bool {
        matches!(self, SqlError::Admission(_))
    }

    /// The variant's inner message, without the `Display` layer prefix.
    pub fn message(&self) -> &str {
        match self {
            SqlError::Lex(m)
            | SqlError::Parse(m)
            | SqlError::Plan(m)
            | SqlError::Execution(m)
            | SqlError::Catalog(m)
            | SqlError::Transaction(m)
            | SqlError::AccessDenied(m)
            | SqlError::Constraint(m)
            | SqlError::Io(m)
            | SqlError::Cancelled(m)
            | SqlError::Timeout(m)
            | SqlError::Admission(m)
            | SqlError::Budget(m) => m,
        }
    }

    /// Wire-safe form: `{code, message, retryable}`.
    pub fn to_wire(&self) -> WireError {
        WireError {
            code: self.code().to_string(),
            message: self.message().to_string(),
            retryable: self.retryable(),
        }
    }

    /// Rebuild the typed error from a stable code + message (the client
    /// side of the wire contract). Unknown codes — a newer server talking
    /// to an older client — degrade to [`SqlError::Execution`] rather than
    /// failing, so old clients keep working.
    pub fn from_code(code: &str, message: &str) -> SqlError {
        let m = message.to_string();
        match code {
            "lex" => SqlError::Lex(m),
            "parse" => SqlError::Parse(m),
            "plan" => SqlError::Plan(m),
            "execution" => SqlError::Execution(m),
            "catalog" => SqlError::Catalog(m),
            "transaction" => SqlError::Transaction(m),
            "access_denied" => SqlError::AccessDenied(m),
            "constraint" => SqlError::Constraint(m),
            "io" => SqlError::Io(m),
            "cancelled" => SqlError::Cancelled(m),
            "timeout" => SqlError::Timeout(m),
            "admission" => SqlError::Admission(m),
            "budget" => SqlError::Budget(m),
            other => SqlError::Execution(format!("[{other}] {message}")),
        }
    }
}

/// A [`SqlError`] serialized for the wire: stable `code`, human `message`,
/// and a `retryable` hint so clients can shed or retry load without
/// string-matching error text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    pub code: String,
    pub message: String,
    pub retryable: bool,
}

impl WireError {
    /// Reconstruct the typed error (inverse of [`SqlError::to_wire`]).
    pub fn to_sql_error(&self) -> SqlError {
        SqlError::from_code(&self.code, &self.message)
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Render through the reconstructed typed error so a round-tripped
        // error displays exactly like the original did on the server.
        write!(f, "{}", self.to_sql_error())
    }
}

/// Convenience alias used throughout the engine.
pub type Result<T> = std::result::Result<T, SqlError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_layer_and_message() {
        let e = SqlError::Parse("unexpected token".into());
        assert_eq!(e.to_string(), "parse error: unexpected token");
        let e = SqlError::AccessDenied("user bob lacks SELECT on t".into());
        assert!(e.to_string().starts_with("access denied"));
    }

    #[test]
    fn errors_are_comparable() {
        assert_eq!(SqlError::Lex("x".into()), SqlError::Lex("x".into()));
        assert_ne!(SqlError::Lex("x".into()), SqlError::Parse("x".into()));
    }

    /// Every variant, for exhaustive sweeps over the wire contract.
    fn all_variants() -> Vec<SqlError> {
        vec![
            SqlError::Lex("m".into()),
            SqlError::Parse("m".into()),
            SqlError::Plan("m".into()),
            SqlError::Execution("m".into()),
            SqlError::Catalog("m".into()),
            SqlError::Transaction("m".into()),
            SqlError::AccessDenied("m".into()),
            SqlError::Constraint("m".into()),
            SqlError::Io("m".into()),
            SqlError::Cancelled("m".into()),
            SqlError::Timeout("m".into()),
            SqlError::Admission("m".into()),
            SqlError::Budget("m".into()),
        ]
    }

    #[test]
    fn codes_are_stable_and_distinct() {
        let variants = all_variants();
        let codes: std::collections::HashSet<_> =
            variants.iter().map(|e| e.code()).collect();
        assert_eq!(codes.len(), variants.len(), "codes must be distinct");
        // The shipped contract: these exact strings, forever.
        assert_eq!(SqlError::Admission("x".into()).code(), "admission");
        assert_eq!(SqlError::Plan("x".into()).code(), "plan");
        assert_eq!(SqlError::AccessDenied("x".into()).code(), "access_denied");
    }

    #[test]
    fn wire_roundtrip_preserves_variant_message_and_display() {
        for e in all_variants() {
            let wire = e.to_wire();
            let back = wire.to_sql_error();
            assert_eq!(back, e, "round-trip must reproduce the variant");
            assert_eq!(back.to_string(), e.to_string());
            assert_eq!(wire.to_string(), e.to_string());
        }
    }

    #[test]
    fn only_admission_is_retryable() {
        for e in all_variants() {
            assert_eq!(
                e.retryable(),
                matches!(e, SqlError::Admission(_)),
                "{e:?}"
            );
        }
    }

    #[test]
    fn unknown_code_degrades_to_execution() {
        let e = SqlError::from_code("fancy_new_code", "details");
        assert!(matches!(&e, SqlError::Execution(m) if m.contains("fancy_new_code")));
        assert!(e.to_string().contains("details"));
    }
}
