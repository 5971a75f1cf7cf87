//! The JSON Flock writes its wire protocol, FONNX model codec, WAL and
//! checkpoint metadata, catalog objects and provenance exports in. There
//! is one grammar, the pull [`Reader`], and one printer, the push
//! [`Writer`]. On top of them sits the document model: build a [`Value`]
//! (by hand or with [`json!`]), index it, print it with `Display` (`{}`
//! compact, `{:#}` two-space pretty), parse it back with [`from_str`] /
//! [`from_slice`]. Types that persist as JSON write their own `to_json` /
//! `from_json` over this model, or drive the reader and writer directly
//! where a tree would cost too much (the wire protocol); there is no
//! derive.
//!
//! What the stored bytes depend on:
//! - objects keep their keys sorted, so equal documents print equally;
//! - integers stay integers: `i64::MIN` and `u64::MAX` print and parse
//!   back as themselves, never through `f64`;
//! - a float prints in the shortest form that parses back to the same
//!   bits (`-0.0` and subnormals included) and always keeps a `.` or an
//!   exponent, so it parses back as a float;
//! - NaN and ±infinity have no JSON spelling: `Value::from` turns them
//!   into `null` and [`Number::from_f64`] returns `None`; a literal too
//!   large for `f64` (`1e400`) is a parse error, never an infinity;
//! - parsing never panics: malformed input, trailing bytes, bad escapes,
//!   lone surrogates and nesting deeper than 128 levels are an [`Error`].

use std::collections::BTreeMap;
use std::fmt;

mod read;
mod write;

pub use read::{from_slice, from_str, Kind, Reader};
pub use write::Writer;

// ---------------------------------------------------------------------------
// Error
// ---------------------------------------------------------------------------

/// A parse failure with its byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    msg: &'static str,
    offset: usize,
}

impl Error {
    pub(crate) fn new(msg: &'static str, offset: usize) -> Error {
        Error { msg, offset }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.msg, self.offset)
    }
}

impl std::error::Error for Error {}

pub type Result<T> = std::result::Result<T, Error>;

// ---------------------------------------------------------------------------
// Number
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq)]
enum N {
    PosInt(u64),
    NegInt(i64),
    Float(f64),
}

/// A JSON number: non-negative integer, negative integer, or finite float.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Number(N);

impl Number {
    pub fn as_i64(&self) -> Option<i64> {
        match self.0 {
            N::PosInt(u) => i64::try_from(u).ok(),
            N::NegInt(i) => Some(i),
            N::Float(_) => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self.0 {
            N::PosInt(u) => Some(u),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        Some(match self.0 {
            N::PosInt(u) => u as f64,
            N::NegInt(i) => i as f64,
            N::Float(f) => f,
        })
    }

    /// `None` for NaN and the infinities, which JSON cannot spell.
    pub fn from_f64(f: f64) -> Option<Number> {
        f.is_finite().then_some(Number(N::Float(f)))
    }

    pub(crate) fn from_u64(u: u64) -> Number {
        Number(N::PosInt(u))
    }

    pub(crate) fn from_i64(i: i64) -> Number {
        match u64::try_from(i) {
            Ok(u) => Number(N::PosInt(u)),
            Err(_) => Number(N::NegInt(i)),
        }
    }
}

impl fmt::Display for Number {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        print(f, false, |w| w.number(*self))
    }
}

// ---------------------------------------------------------------------------
// Map
// ---------------------------------------------------------------------------

/// A JSON object with sorted keys.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Map(BTreeMap<String, Value>);

pub type Entry<'a> = std::collections::btree_map::Entry<'a, String, Value>;

impl Map {
    pub fn new() -> Self {
        Map(BTreeMap::new())
    }

    pub fn insert(&mut self, k: String, v: Value) -> Option<Value> {
        self.0.insert(k, v)
    }

    pub fn get(&self, k: &str) -> Option<&Value> {
        self.0.get(k)
    }

    pub fn entry<S: Into<String>>(&mut self, k: S) -> Entry<'_> {
        self.0.entry(k.into())
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    pub fn iter(&self) -> std::collections::btree_map::Iter<'_, String, Value> {
        self.0.iter()
    }
}

impl<'a> IntoIterator for &'a Map {
    type Item = (&'a String, &'a Value);
    type IntoIter = std::collections::btree_map::Iter<'a, String, Value>;
    fn into_iter(self) -> Self::IntoIter {
        self.0.iter()
    }
}

// ---------------------------------------------------------------------------
// Value
// ---------------------------------------------------------------------------

/// Any JSON document.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum Value {
    #[default]
    Null,
    Bool(bool),
    Number(Number),
    String(String),
    Array(Vec<Value>),
    Object(Map),
}

static NULL: Value = Value::Null;

/// What `Value::get` and `value[..]` accept: an object key or an array
/// position.
pub trait Index {
    fn index_into<'v>(&self, v: &'v Value) -> Option<&'v Value>;
}

impl Index for str {
    fn index_into<'v>(&self, v: &'v Value) -> Option<&'v Value> {
        match v {
            Value::Object(m) => m.get(self),
            _ => None,
        }
    }
}

impl Index for String {
    fn index_into<'v>(&self, v: &'v Value) -> Option<&'v Value> {
        self.as_str().index_into(v)
    }
}

impl Index for usize {
    fn index_into<'v>(&self, v: &'v Value) -> Option<&'v Value> {
        match v {
            Value::Array(a) => a.get(*self),
            _ => None,
        }
    }
}

impl<T: Index + ?Sized> Index for &T {
    fn index_into<'v>(&self, v: &'v Value) -> Option<&'v Value> {
        (**self).index_into(v)
    }
}

impl<I: Index> std::ops::Index<I> for Value {
    type Output = Value;
    fn index(&self, index: I) -> &Value {
        index.index_into(self).unwrap_or(&NULL)
    }
}

impl Value {
    pub fn get<I: Index>(&self, index: I) -> Option<&Value> {
        index.index_into(self)
    }

    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Number(n) => n.as_i64(),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(n) => n.as_u64(),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => n.as_f64(),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    pub fn as_object(&self) -> Option<&Map> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }

    pub fn as_object_mut(&mut self) -> Option<&mut Map> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }
}

macro_rules! from_unsigned {
    ($($t:ty)*) => {$(
        impl From<$t> for Value {
            fn from(u: $t) -> Value {
                Value::Number(Number::from_u64(u as u64))
            }
        }
    )*};
}
from_unsigned!(u8 u16 u32 u64 usize);

macro_rules! from_signed {
    ($($t:ty)*) => {$(
        impl From<$t> for Value {
            fn from(i: $t) -> Value {
                Value::Number(Number::from_i64(i as i64))
            }
        }
    )*};
}
from_signed!(i8 i16 i32 i64 isize);

impl From<f64> for Value {
    fn from(f: f64) -> Value {
        Number::from_f64(f).map_or(Value::Null, Value::Number)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Value {
        Value::Bool(b)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::String(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Value {
        Value::String(s)
    }
}

impl From<&String> for Value {
    fn from(s: &String) -> Value {
        Value::String(s.clone())
    }
}

impl From<Number> for Value {
    fn from(n: Number) -> Value {
        Value::Number(n)
    }
}

impl From<Map> for Value {
    fn from(m: Map) -> Value {
        Value::Object(m)
    }
}

impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(v: Vec<T>) -> Value {
        Value::Array(v.into_iter().map(Into::into).collect())
    }
}

impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Value {
        v.map_or(Value::Null, Into::into)
    }
}

// ---------------------------------------------------------------------------
// Printing
// ---------------------------------------------------------------------------

/// Runs `write` on a fresh buffer and hands `f` the text.
fn print(f: &mut fmt::Formatter<'_>, pretty: bool, write: impl FnOnce(&mut Writer)) -> fmt::Result {
    let mut out = Vec::new();
    let mut w = if pretty {
        Writer::pretty(&mut out)
    } else {
        Writer::new(&mut out)
    };
    write(&mut w);
    // The writer copies whole `&str`s and ASCII, so this never fails.
    f.write_str(std::str::from_utf8(&out).map_err(|_| fmt::Error)?)
}

/// Compact with `{}` (`to_string`), two-space pretty with `{:#}`.
impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        print(f, f.alternate(), |w| w.value(self))
    }
}

// ---------------------------------------------------------------------------
// json!
// ---------------------------------------------------------------------------

/// Builds a `Value` from JSON-like syntax: `null`, arrays, objects with
/// string-literal or `(expr)` keys, and any expression that is
/// `Into<Value>` — the forms Flock uses.
#[macro_export]
macro_rules! json {
    (null) => { $crate::Value::Null };
    ([ $($tt:tt)* ]) => {{
        #[allow(unused_mut)]
        let mut array = ::std::vec::Vec::<$crate::Value>::new();
        $crate::json_array!(array $($tt)*);
        $crate::Value::Array(array)
    }};
    ({ $($tt:tt)* }) => {{
        #[allow(unused_mut)]
        let mut object = $crate::Map::new();
        $crate::json_object!(object $($tt)*);
        $crate::Value::Object(object)
    }};
    ($other:expr) => { $crate::Value::from($other) };
}

/// Pushes array elements one at a time. Nested `null`/`[..]`/`{..}` are
/// matched before the general expression rule, because a macro cannot
/// back out of an `expr` fragment once it has started parsing one.
#[macro_export]
#[doc(hidden)]
macro_rules! json_array {
    ($array:ident) => {};
    ($array:ident null $(, $($rest:tt)*)?) => {
        $array.push($crate::Value::Null);
        $crate::json_array!($array $($($rest)*)?);
    };
    ($array:ident [ $($inner:tt)* ] $(, $($rest:tt)*)?) => {
        $array.push($crate::json!([ $($inner)* ]));
        $crate::json_array!($array $($($rest)*)?);
    };
    ($array:ident { $($inner:tt)* } $(, $($rest:tt)*)?) => {
        $array.push($crate::json!({ $($inner)* }));
        $crate::json_array!($array $($($rest)*)?);
    };
    ($array:ident $value:expr $(, $($rest:tt)*)?) => {
        $array.push($crate::Value::from($value));
        $crate::json_array!($array $($($rest)*)?);
    };
}

/// Inserts `key: value` pairs one at a time; same rule order as
/// [`json_array!`].
#[macro_export]
#[doc(hidden)]
macro_rules! json_object {
    ($object:ident) => {};
    ($object:ident $key:tt : null $(, $($rest:tt)*)?) => {
        $object.insert(::std::string::String::from($key), $crate::Value::Null);
        $crate::json_object!($object $($($rest)*)?);
    };
    ($object:ident $key:tt : [ $($inner:tt)* ] $(, $($rest:tt)*)?) => {
        $object.insert(::std::string::String::from($key), $crate::json!([ $($inner)* ]));
        $crate::json_object!($object $($($rest)*)?);
    };
    ($object:ident $key:tt : { $($inner:tt)* } $(, $($rest:tt)*)?) => {
        $object.insert(::std::string::String::from($key), $crate::json!({ $($inner)* }));
        $crate::json_object!($object $($($rest)*)?);
    };
    ($object:ident $key:tt : $value:expr $(, $($rest:tt)*)?) => {
        $object.insert(::std::string::String::from($key), $crate::Value::from($value));
        $crate::json_object!($object $($($rest)*)?);
    };
}

#[cfg(test)]
// `json!` pushes array elements one at a time; clippy skips that in other
// crates' expansions but not in this one's.
#[allow(clippy::vec_init_then_push)]
mod tests {
    use super::*;
    use flock_rng::rngs::StdRng;
    use flock_rng::{test_seeds, Rng, RngCore, SeedableRng};

    /// Prints `f`, parses it back, and checks it is the same float.
    fn assert_float_roundtrips(f: f64) {
        for text in [Value::from(f).to_string(), json!([f]).to_string()] {
            let back = from_str(&text).unwrap_or_else(|e| panic!("{text}: {e}"));
            let back = back.get(0).unwrap_or(&back);
            assert!(back.as_i64().is_none(), "{text} must stay a float");
            let got = back.as_f64().expect("a number");
            assert_eq!(got.to_bits(), f.to_bits(), "{f:e} printed as {text}");
        }
    }

    #[test]
    fn floats_print_and_parse_back_to_the_same_bits() {
        for f in [
            0.0,
            -0.0,
            0.1,
            2.0,
            -1.5e300,
            1e21,
            0.30000000000000004,
            // A FONNX weight that once came back one ULP off.
            0.12987318501218117,
            f64::MAX,
            f64::MIN,
            f64::MIN_POSITIVE,
            f64::EPSILON,
            5e-324,
            -5e-324,
            f64::from_bits(0x000F_FFFF_FFFF_FFFF), // largest subnormal
            f64::MIN_POSITIVE / 3.0,
            9007199254740993.0,
        ] {
            assert_float_roundtrips(f);
        }
        for seed in test_seeds(256) {
            let mut rng = StdRng::seed_from_u64(seed);
            for _ in 0..64 {
                // Any finite bit pattern, then a value of everyday size
                // with all seventeen digits significant.
                let f = f64::from_bits(rng.next_u64());
                if f.is_finite() {
                    assert_float_roundtrips(f);
                }
                let scale = 10f64.powi(rng.gen_range(-12i32..13));
                assert_float_roundtrips(rng.gen_range(-1.0..1.0) * scale);
            }
        }
    }

    #[test]
    fn integers_stay_integers() {
        for i in [i64::MIN, i64::MAX, -1, 0, (1 << 53) + 1, -(1 << 53) - 1] {
            let text = Value::from(i).to_string();
            assert_eq!(text, i.to_string());
            let back = from_str(&text).unwrap();
            assert_eq!(back.as_i64(), Some(i), "{text}");
        }
        for u in [u64::MAX, (1 << 53) + 1] {
            let text = Value::from(u).to_string();
            assert_eq!(text, u.to_string());
            let back = from_str(&text).unwrap();
            assert_eq!(back.as_u64(), Some(u), "{text}");
        }
        assert_eq!(from_str(&u64::MAX.to_string()).unwrap().as_i64(), None);
        let back = from_str("-42").unwrap();
        assert_eq!((back.as_i64(), back.as_u64()), (Some(-42), None));
        // Past u64 an integer literal can only be a float.
        let wide = from_str("18446744073709551616").unwrap();
        assert_eq!(wide.as_f64(), Some(18446744073709551616.0));
        assert_eq!(wide.as_u64(), None);
    }

    /// The one rule for what JSON cannot spell: NaN and ±infinity become
    /// `null` on the way in, and never come out of the parser.
    #[test]
    fn non_finite_floats_are_null_and_never_parsed() {
        for f in [f64::NAN, -f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(Value::from(f), Value::Null);
            assert_eq!(Number::from_f64(f), None);
            assert_eq!(
                json!({"x": f, "y": [f]}).to_string(),
                r#"{"x":null,"y":[null]}"#
            );
        }
        for text in [
            "1e400",
            "-1e400",
            "NaN",
            "nan",
            "Infinity",
            "-Infinity",
            "inf",
        ] {
            assert!(from_str(text).is_err(), "{text} must be rejected");
        }
    }

    #[test]
    fn strings_escape_and_parse_back() {
        let s = "x \"quoted\"\n\ttab \\ \u{1} \u{1f} é 漢 😀 \u{11d3f}";
        let text = Value::from(s).to_string();
        assert_eq!(from_str(&text).unwrap(), Value::from(s));
        assert_eq!(
            from_str(r#""\u00e9\ud83d\ude00\/\b\f""#).unwrap(),
            Value::from("é😀/\u{8}\u{c}")
        );
    }

    #[test]
    fn documents_roundtrip_compact_and_pretty() {
        let n = 3;
        let doc = json!({
            "a": [1, 2.5, null, true, {"k": "v"}],
            "b": {},
            "c": [],
            "d": n,
            ("e".to_string()): -1,
        });
        assert_eq!(
            doc.to_string(),
            r#"{"a":[1,2.5,null,true,{"k":"v"}],"b":{},"c":[],"d":3,"e":-1}"#
        );
        assert_eq!(from_str(&doc.to_string()).unwrap(), doc);
        let pretty = format!("{doc:#}");
        assert!(pretty.starts_with("{\n  \"a\": [\n    1,"), "{pretty}");
        assert_eq!(from_str(&pretty).unwrap(), doc);
        assert_eq!(doc["a"][4]["k"].as_str(), Some("v"));
        assert!(doc["nope"]["deeper"].is_null());
    }

    #[test]
    fn malformed_input_is_an_error_not_a_panic() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\"}",
            "{1:2}",
            "nul",
            "1 2",
            "01",
            "1.",
            ".5",
            "1e",
            "-",
            "+1",
            "\u{0}",
            "[1 2]",
            "{\"a\":1,}",
            "\"unterminated",
            "\"tab\there\"",
            // bad escapes
            "\"\\x\"",
            "\"\\U0041\"",
            "\"\\u12\"",
            "\"\\u12G4\"",
            "\"\\",
            // lone and mismatched surrogates
            "\"\\ud800\"",
            "\"\\udc00\"",
            "\"\\ud800x\"",
            "\"\\ud800\\u0041\"",
            "\"\\udbff\\ud800\"",
        ] {
            assert!(from_str(bad).is_err(), "{bad:?} must be rejected");
        }
        assert!(from_slice(&[0xff, 0xfe]).is_err());
        assert!(from_slice(b"\"\xc3\x28\"").is_err());
    }

    #[test]
    fn the_writer_prints_what_the_tree_prints() {
        let doc = json!({
            "a": [i64::MIN, u64::MAX, -0.0, f64::NAN, 5e-324, "q\"\u{1}\u{1f}é"],
            "b": {},
            "c": [[], {"k": null}],
        });
        for pretty in [false, true] {
            let mut out = Vec::new();
            let mut w = if pretty {
                Writer::pretty(&mut out)
            } else {
                Writer::new(&mut out)
            };
            w.begin_object();
            w.key("a");
            w.begin_array();
            w.i64(i64::MIN);
            w.u64(u64::MAX);
            w.f64(-0.0);
            w.f64(f64::NAN);
            w.f64(5e-324);
            w.str("q\"\u{1}\u{1f}é");
            w.end_array();
            w.key("b");
            w.begin_object();
            w.end_object();
            w.key("c");
            w.begin_array();
            w.begin_array();
            w.end_array();
            w.value(&json!({"k": null}));
            w.end_array();
            w.end_object();
            let want = if pretty { format!("{doc:#}") } else { doc.to_string() };
            assert_eq!(String::from_utf8(out).unwrap(), want);
        }
        assert_eq!(
            doc.to_string(),
            r#"{"a":[-9223372036854775808,18446744073709551615,-0.0,null,5e-324,"q\"\u0001\u001fé"],"b":{},"c":[[],{"k":null}]}"#
        );
    }

    #[test]
    fn the_reader_walks_a_document_in_its_own_order() {
        let text = r#" {"b": [1, -2, 2.5, "x\n"], "a": {"skip": [null, {"deep": true}]}, "c": "plain"} "#;
        let mut r = Reader::new(text.as_bytes());
        r.begin_object().unwrap();
        let mut keys = Vec::new();
        while let Some(key) = r.next_key().unwrap() {
            match &*key {
                "b" => {
                    r.begin_array().unwrap();
                    let mut kinds = Vec::new();
                    while r.next_item().unwrap() {
                        kinds.push(r.peek().unwrap());
                        r.skip().unwrap();
                    }
                    assert_eq!(kinds, [Kind::Number, Kind::Number, Kind::Number, Kind::String]);
                }
                "c" => assert!(matches!(r.str().unwrap(), std::borrow::Cow::Borrowed("plain"))),
                _ => r.skip().unwrap(),
            }
            keys.push(key.into_owned());
        }
        r.finish().unwrap();
        assert_eq!(keys, ["b", "a", "c"]);
        let mut r = Reader::new(b"-7");
        assert_eq!(r.number().unwrap().as_i64(), Some(-7));
        // Asking for another kind than the one there is an error.
        assert!(Reader::new(b"\"s\"").number().is_err());
        assert!(Reader::new(b"1").str().is_err());
    }

    #[test]
    fn a_skipped_value_is_checked_like_a_read_one() {
        let deep = format!("{{\"x\":{}{}}}", "[".repeat(200), "]".repeat(200));
        for bad in [
            r#"{"x":[1,]}"#,
            r#"{"x":"\ud800"}"#,
            r#"{"x":{"y":nul}}"#,
            r#"{"x":01}"#,
            r#"{"x":1e400}"#,
            r#"{"x":{"y" 1}}"#,
            &deep,
        ] {
            let mut r = Reader::new(bad.as_bytes());
            let skipped = r.skip().and_then(|()| r.finish());
            assert!(skipped.is_err(), "{bad}");
            assert_eq!(skipped, from_str(bad).map(drop), "{bad}");
        }
    }

    #[test]
    fn nesting_is_bounded_not_a_stack_overflow() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(from_str(&nested(100)).is_ok());
        assert!(from_str(&nested(1_000)).is_err());
        assert!(from_str(&"[".repeat(100_000)).is_err());
        assert!(from_str(&"{\"a\":".repeat(100_000)).is_err());
        assert!(from_str(&"[{\"a\":".repeat(50_000)).is_err());
    }

    #[test]
    fn truncated_and_mutated_documents_never_panic() {
        let doc = json!({
            "name": "m\u{e9}\"\\",
            "weights": [0.12987318501218117, -1e-300, 3],
            "nested": {"ok": true, "none": null, "list": [[], {}]},
        })
        .to_string();
        // Every strict prefix of an object is incomplete.
        for end in 0..doc.len() {
            assert!(from_slice(&doc.as_bytes()[..end]).is_err(), "prefix {end}");
        }
        let alphabet = b"{}[]\",:\\u0123456789.eE+-truefalsnl \xff\xc3";
        for seed in test_seeds(256) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut bytes = doc.clone().into_bytes();
            for _ in 0..rng.gen_range(1..4usize) {
                let at = rng.gen_range(0..bytes.len());
                bytes[at] = alphabet[rng.gen_range(0..alphabet.len())];
            }
            let _ = from_slice(&bytes);
            let junk: Vec<u8> = (0..rng.gen_range(0..64usize))
                .map(|_| alphabet[rng.gen_range(0..alphabet.len())])
                .collect();
            let _ = from_slice(&junk);
        }
    }
}
