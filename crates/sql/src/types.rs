//! Scalar value and data-type definitions.

use crate::error::{Result, SqlError};
use std::cmp::Ordering;
use std::fmt;

/// Logical column types supported by the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    Bool,
    Int,
    Float,
    Text,
    /// Days since an arbitrary epoch; enough fidelity for TPC-style workloads.
    Date,
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DataType::Bool => "BOOLEAN",
            DataType::Int => "BIGINT",
            DataType::Float => "DOUBLE",
            DataType::Text => "VARCHAR",
            DataType::Date => "DATE",
        };
        f.write_str(s)
    }
}

impl DataType {
    /// Parse a SQL type name (as produced by the lexer, uppercased).
    pub fn parse(name: &str) -> Option<DataType> {
        match name {
            "BOOLEAN" | "BOOL" => Some(DataType::Bool),
            "INT" | "INTEGER" | "BIGINT" | "SMALLINT" => Some(DataType::Int),
            "FLOAT" | "DOUBLE" | "REAL" | "DECIMAL" | "NUMERIC" => Some(DataType::Float),
            "VARCHAR" | "TEXT" | "CHAR" | "STRING" => Some(DataType::Text),
            "DATE" | "TIMESTAMP" => Some(DataType::Date),
            _ => None,
        }
    }

    /// Whether values of this type are numeric (usable in arithmetic).
    pub fn is_numeric(self) -> bool {
        matches!(self, DataType::Int | DataType::Float | DataType::Date)
    }

    /// The common supertype for binary numeric operations, if any.
    pub fn unify(self, other: DataType) -> Option<DataType> {
        use DataType::*;
        match (self, other) {
            (a, b) if a == b => Some(a),
            (Int, Float) | (Float, Int) => Some(Float),
            (Int, Date) | (Date, Int) => Some(Date),
            _ => None,
        }
    }
}

/// A single scalar value. `Null` is typeless, matching SQL semantics.
#[derive(Debug, Clone)]
pub enum Value {
    Null,
    Bool(bool),
    Int(i64),
    Float(f64),
    Text(String),
    Date(i32),
}

impl Value {
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Bool(_) => Some(DataType::Bool),
            Value::Int(_) => Some(DataType::Int),
            Value::Float(_) => Some(DataType::Float),
            Value::Text(_) => Some(DataType::Text),
            Value::Date(_) => Some(DataType::Date),
        }
    }

    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Numeric view of the value, coercing Int/Date to f64.
    pub fn as_f64(&self) -> Option<f64> {
        self.as_value_ref()?.as_f64()
    }

    /// Borrow a non-NULL value (`None` for NULL).
    pub fn as_value_ref(&self) -> Option<ValueRef<'_>> {
        Some(match self {
            Value::Null => return None,
            Value::Bool(b) => ValueRef::Bool(*b),
            Value::Int(i) => ValueRef::Int(*i),
            Value::Float(f) => ValueRef::Float(*f),
            Value::Text(s) => ValueRef::Text(s),
            Value::Date(d) => ValueRef::Date(*d),
        })
    }

    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            Value::Float(f) => Some(*f as i64),
            Value::Date(d) => Some(*d as i64),
            Value::Bool(b) => Some(*b as i64),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Text(s) => Some(s),
            _ => None,
        }
    }

    /// Cast to the given type, following SQL CAST semantics. NULL casts to
    /// NULL for any target type.
    pub fn cast(&self, to: DataType) -> Result<Value> {
        if self.is_null() {
            return Ok(Value::Null);
        }
        let err = || {
            SqlError::Execution(format!(
                "cannot cast {self} to {to}",
            ))
        };
        Ok(match (self, to) {
            (v, t) if v.data_type() == Some(t) => v.clone(),
            (Value::Int(i), DataType::Float) => Value::Float(*i as f64),
            (Value::Int(i), DataType::Bool) => Value::Bool(*i != 0),
            (Value::Int(i), DataType::Text) => Value::Text(i.to_string()),
            (Value::Int(i), DataType::Date) => Value::Date(*i as i32),
            (Value::Float(f), DataType::Int) => Value::Int(*f as i64),
            (Value::Float(f), DataType::Text) => Value::Text(format_f64(*f)),
            (Value::Float(f), DataType::Bool) => Value::Bool(*f != 0.0),
            (Value::Bool(b), DataType::Int) => Value::Int(*b as i64),
            (Value::Bool(b), DataType::Float) => Value::Float(*b as i64 as f64),
            (Value::Bool(b), DataType::Text) => Value::Text(b.to_string()),
            (Value::Date(d), DataType::Int) => Value::Int(*d as i64),
            (Value::Date(d), DataType::Text) => Value::Text(format_date(*d)),
            (Value::Text(s), DataType::Int) => {
                Value::Int(s.trim().parse::<i64>().map_err(|_| err())?)
            }
            (Value::Text(s), DataType::Float) => {
                Value::Float(s.trim().parse::<f64>().map_err(|_| err())?)
            }
            (Value::Text(s), DataType::Bool) => match s.to_ascii_lowercase().as_str() {
                "true" | "t" | "1" => Value::Bool(true),
                "false" | "f" | "0" => Value::Bool(false),
                _ => return Err(err()),
            },
            (Value::Text(s), DataType::Date) => Value::Date(parse_date(s).ok_or_else(err)?),
            _ => return Err(err()),
        })
    }

    /// Three-valued SQL comparison. Returns `None` when either side is NULL.
    pub fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        self.as_value_ref()?.sql_cmp(other.as_value_ref()?)
    }

    /// Total order used by ORDER BY and sort operators. NULLs sort as if
    /// *larger* than every non-NULL value (SQL's default `NULLS LAST` for
    /// ascending sorts; a descending sort therefore puts them first), and
    /// NaN sorts as larger than every non-NaN number regardless of its
    /// sign bit — so the order is numbers, then NaN, then NULL. Within
    /// non-NULLs: numeric-coercible values (Bool/Int/Float/Date) before
    /// text. Unlike [`Value::sql_cmp`] this never returns "incomparable",
    /// so mixed-type columns still sort deterministically.
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        match (self.is_null(), other.is_null()) {
            (true, true) => return Ordering::Equal,
            (true, false) => return Ordering::Greater,
            (false, true) => return Ordering::Less,
            (false, false) => {}
        }
        if let (Value::Int(a), Value::Int(b)) = (self, other) {
            return a.cmp(b); // exact beyond f64 precision
        }
        match (self.as_f64(), other.as_f64()) {
            (Some(a), Some(b)) => {
                // Normalize NaN sign so negative NaN does not sort below
                // -inf: every NaN compares equal, above all numbers.
                let norm = |x: f64| if x.is_nan() { f64::NAN } else { x };
                norm(a).total_cmp(&norm(b))
            }
            (Some(_), None) => Ordering::Less,
            (None, Some(_)) => Ordering::Greater,
            (None, None) => self
                .as_str()
                .unwrap_or("")
                .cmp(other.as_str().unwrap_or("")),
        }
    }

    /// Equality used for grouping and hash joins: NULL == NULL here
    /// (SQL GROUP BY semantics), and floats compare by bit pattern for NaN.
    pub fn group_eq(&self, other: &Value) -> bool {
        use Value::*;
        match (self, other) {
            (Null, Null) => true,
            (Float(a), Float(b)) => a.to_bits() == b.to_bits() || a == b,
            _ => self.sql_cmp(other) == Some(Ordering::Equal),
        }
    }

    /// Hash the value for grouping; consistent with [`Value::group_eq`].
    pub fn group_hash<H: std::hash::Hasher>(&self, state: &mut H) {
        use std::hash::Hash;
        match self {
            Value::Null => 0u8.hash(state),
            Value::Bool(b) => {
                1u8.hash(state);
                b.hash(state);
            }
            Value::Int(i) => {
                2u8.hash(state);
                // Hash ints as floats when they are representable so that
                // Int(1) and Float(1.0) group together, matching group_eq.
                (*i as f64).to_bits().hash(state);
            }
            Value::Float(f) => {
                2u8.hash(state);
                // group_eq treats 0.0 == -0.0, so both must hash alike.
                let f = if *f == 0.0 { 0.0 } else { *f };
                f.to_bits().hash(state);
            }
            Value::Text(s) => {
                3u8.hash(state);
                s.hash(state);
            }
            Value::Date(d) => {
                2u8.hash(state);
                (*d as f64).to_bits().hash(state);
            }
        }
    }
}

/// A borrowed non-NULL [`Value`]: what a typed column kernel reads out of
/// a column buffer without allocating. Numeric coercion and comparison
/// are defined here once, and [`Value`] delegates to them.
#[derive(Debug, Clone, Copy)]
pub enum ValueRef<'a> {
    Bool(bool),
    Int(i64),
    Float(f64),
    Text(&'a str),
    Date(i32),
}

impl ValueRef<'_> {
    /// Numeric view, coercing Bool/Int/Date to f64; text has none.
    pub fn as_f64(self) -> Option<f64> {
        match self {
            ValueRef::Int(i) => Some(i as f64),
            ValueRef::Float(f) => Some(f),
            ValueRef::Date(d) => Some(d as f64),
            ValueRef::Bool(b) => Some(if b { 1.0 } else { 0.0 }),
            ValueRef::Text(_) => None,
        }
    }

    /// SQL comparison: same-type values compare exactly, mixed numerics
    /// through f64 (`None` when either is NaN or the types do not mix).
    pub fn sql_cmp(self, other: ValueRef<'_>) -> Option<Ordering> {
        use ValueRef::*;
        match (self, other) {
            (Bool(a), Bool(b)) => Some(a.cmp(&b)),
            (Int(a), Int(b)) => Some(a.cmp(&b)),
            (Text(a), Text(b)) => Some(a.cmp(b)),
            (Date(a), Date(b)) => Some(a.cmp(&b)),
            (a, b) => a.as_f64()?.partial_cmp(&b.as_f64()?),
        }
    }

    pub fn to_value(self) -> Value {
        match self {
            ValueRef::Bool(b) => Value::Bool(b),
            ValueRef::Int(i) => Value::Int(i),
            ValueRef::Float(f) => Value::Float(f),
            ValueRef::Text(s) => Value::Text(s.to_string()),
            ValueRef::Date(d) => Value::Date(d),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("NULL"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => f.write_str(&format_f64(*x)),
            Value::Text(s) => f.write_str(s),
            Value::Date(d) => f.write_str(&format_date(*d)),
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        // Plain equality treats NULL != NULL (use group_eq for grouping).
        self.sql_cmp(other) == Some(Ordering::Equal)
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Text(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Text(v)
    }
}

/// Format a float the way SQL output expects: integral floats keep a `.0`
/// suffix so the type remains visible.
pub fn format_f64(f: f64) -> String {
    if f.is_finite() && f.fract() == 0.0 && f.abs() < 1e15 {
        format!("{f:.1}")
    } else {
        format!("{f}")
    }
}

/// Render a day offset as `YYYY-MM-DD` (proleptic Gregorian, day 0 =
/// 1970-01-01).
pub fn format_date(days: i32) -> String {
    let (y, m, d) = civil_from_days(days as i64);
    format!("{y:04}-{m:02}-{d:02}")
}

/// Parse `YYYY-MM-DD` into a day offset.
pub fn parse_date(s: &str) -> Option<i32> {
    let mut parts = s.trim().splitn(3, '-');
    let y: i64 = parts.next()?.parse().ok()?;
    let m: u32 = parts.next()?.parse().ok()?;
    let d: u32 = parts.next()?.parse().ok()?;
    if !(1..=12).contains(&m) || !(1..=31).contains(&d) {
        return None;
    }
    Some(days_from_civil(y, m, d) as i32)
}

// Howard Hinnant's algorithms for Gregorian <-> day-count conversion.
fn days_from_civil(y: i64, m: u32, d: u32) -> i64 {
    let y = if m <= 2 { y - 1 } else { y };
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = y - era * 400;
    let mp = ((m + 9) % 12) as i64;
    let doy = (153 * mp + 2) / 5 + d as i64 - 1;
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
    era * 146097 + doe - 719468
}

fn civil_from_days(z: i64) -> (i64, u32, u32) {
    let z = z + 719468;
    let era = if z >= 0 { z } else { z - 146096 } / 146097;
    let doe = z - era * 146097;
    let yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32;
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32;
    (if m <= 2 { y + 1 } else { y }, m, d)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn type_parsing_accepts_aliases() {
        assert_eq!(DataType::parse("INTEGER"), Some(DataType::Int));
        assert_eq!(DataType::parse("DOUBLE"), Some(DataType::Float));
        assert_eq!(DataType::parse("STRING"), Some(DataType::Text));
        assert_eq!(DataType::parse("BLOB"), None);
    }

    #[test]
    fn numeric_unification() {
        assert_eq!(DataType::Int.unify(DataType::Float), Some(DataType::Float));
        assert_eq!(DataType::Text.unify(DataType::Int), None);
        assert_eq!(DataType::Bool.unify(DataType::Bool), Some(DataType::Bool));
    }

    #[test]
    fn cast_int_float_text_roundtrip() {
        assert_eq!(
            Value::Int(42).cast(DataType::Float).unwrap(),
            Value::Float(42.0)
        );
        assert_eq!(
            Value::Text("3.5".into()).cast(DataType::Float).unwrap(),
            Value::Float(3.5)
        );
        assert!(Value::Text("abc".into()).cast(DataType::Int).is_err());
        // Value::Null == Value::Null is false under SQL eq, so check is_null.
        assert!(Value::Null.cast(DataType::Int).unwrap().is_null());
    }

    #[test]
    fn sql_comparison_is_three_valued() {
        assert_eq!(Value::Null.sql_cmp(&Value::Int(1)), None);
        assert_eq!(
            Value::Int(1).sql_cmp(&Value::Float(1.0)),
            Some(Ordering::Equal)
        );
        assert_eq!(
            Value::Text("a".into()).sql_cmp(&Value::Text("b".into())),
            Some(Ordering::Less)
        );
        // Cross-type non-numeric comparison yields NULL (None).
        assert_eq!(Value::Text("a".into()).sql_cmp(&Value::Int(1)), None);
    }

    #[test]
    fn total_order_sorts_nulls_last() {
        let mut vals = [Value::Int(2), Value::Null, Value::Int(1)];
        vals.sort_by(|a, b| a.total_cmp(b));
        assert_eq!(vals[0], Value::Int(1));
        assert_eq!(vals[1], Value::Int(2));
        assert!(vals[2].is_null());
    }

    #[test]
    fn total_order_puts_nan_above_numbers_below_null() {
        let neg_nan = f64::from_bits(f64::NAN.to_bits() | (1 << 63));
        let mut vals = [
            Value::Null,
            Value::Float(f64::NAN),
            Value::Float(f64::INFINITY),
            Value::Float(neg_nan),
            Value::Float(f64::NEG_INFINITY),
            Value::Float(0.0),
        ];
        vals.sort_by(|a, b| a.total_cmp(b));
        assert_eq!(vals[0], Value::Float(f64::NEG_INFINITY));
        assert_eq!(vals[1], Value::Float(0.0));
        assert_eq!(vals[2], Value::Float(f64::INFINITY));
        // Both NaNs (either sign) sort after all numbers...
        assert!(matches!(vals[3], Value::Float(f) if f.is_nan()));
        assert!(matches!(vals[4], Value::Float(f) if f.is_nan()));
        // ...and NULL sorts after NaN.
        assert!(vals[5].is_null());
    }

    #[test]
    fn group_eq_treats_null_as_equal() {
        assert!(Value::Null.group_eq(&Value::Null));
        assert!(!Value::Null.group_eq(&Value::Int(0)));
        assert!(Value::Int(1).group_eq(&Value::Float(1.0)));
    }

    #[test]
    fn date_roundtrip() {
        for s in ["1970-01-01", "1992-02-29", "2026-07-07", "1969-12-31"] {
            let d = parse_date(s).unwrap();
            assert_eq!(format_date(d), s);
        }
        assert_eq!(parse_date("1970-01-01"), Some(0));
        assert_eq!(parse_date("1970-01-02"), Some(1));
        assert_eq!(parse_date("not-a-date"), None);
        assert_eq!(parse_date("1970-13-01"), None);
    }

    #[test]
    fn float_formatting_keeps_decimal_point() {
        assert_eq!(format_f64(2.0), "2.0");
        assert_eq!(format_f64(2.5), "2.5");
    }
}
