//! The one JSON printer: a push writer over a byte buffer.
//!
//! A caller pushes values, keys and container brackets in document
//! order; the writer places the `,` and `:` separators (and, when
//! pretty, the newlines and two-space indents). It owns the three rules
//! the stored bytes depend on: how a string escapes, how an integer and
//! how a float prints. [`Value`]'s `Display` is this writer walking the
//! tree; the wire protocol drives it straight from its messages.

use crate::{Number, Value, N};

/// What goes before the next value or key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Sep {
    /// Nothing: the document's first value, or the value after a key.
    None,
    /// The first member of a container: a newline when pretty.
    First,
    /// A later member: `,`, then a newline when pretty.
    Comma,
}

/// Appends one JSON document to a `Vec<u8>`.
pub struct Writer<'a> {
    out: &'a mut Vec<u8>,
    next: Sep,
    /// `Some(depth)` prints two-space pretty; `None` compact.
    indent: Option<usize>,
}

impl<'a> Writer<'a> {
    /// A compact writer appending to `out`.
    pub fn new(out: &'a mut Vec<u8>) -> Writer<'a> {
        Writer {
            out,
            next: Sep::None,
            indent: None,
        }
    }

    /// A two-space pretty writer appending to `out`.
    pub fn pretty(out: &'a mut Vec<u8>) -> Writer<'a> {
        Writer {
            out,
            next: Sep::None,
            indent: Some(0),
        }
    }

    fn newline(&mut self) {
        if let Some(depth) = self.indent {
            self.out.push(b'\n');
            for _ in 0..depth {
                self.out.extend_from_slice(b"  ");
            }
        }
    }

    /// Writes the separator the next member needs.
    fn sep(&mut self) {
        match self.next {
            Sep::None => {}
            Sep::First => self.newline(),
            Sep::Comma => {
                self.out.push(b',');
                self.newline();
            }
        }
        self.next = Sep::Comma;
    }

    fn open(&mut self, bracket: u8) {
        self.sep();
        self.out.push(bracket);
        self.next = Sep::First;
        if let Some(depth) = &mut self.indent {
            *depth += 1;
        }
    }

    fn close(&mut self, bracket: u8) {
        if let Some(depth) = &mut self.indent {
            *depth -= 1;
        }
        // An empty container closes on the same line.
        if self.next != Sep::First {
            self.newline();
        }
        self.out.push(bracket);
        self.next = Sep::Comma;
    }

    pub fn begin_array(&mut self) {
        self.open(b'[');
    }

    pub fn end_array(&mut self) {
        self.close(b']');
    }

    pub fn begin_object(&mut self) {
        self.open(b'{');
    }

    pub fn end_object(&mut self) {
        self.close(b'}');
    }

    /// An object key; the next push is its value.
    pub fn key(&mut self, k: &str) {
        self.sep();
        escaped(self.out, k);
        self.out
            .extend_from_slice(if self.indent.is_some() { b": " } else { b":" });
        self.next = Sep::None;
    }

    pub fn null(&mut self) {
        self.sep();
        self.out.extend_from_slice(b"null");
    }

    pub fn bool(&mut self, b: bool) {
        self.sep();
        self.out
            .extend_from_slice(if b { b"true" } else { b"false" });
    }

    pub fn str(&mut self, s: &str) {
        self.sep();
        escaped(self.out, s);
    }

    /// An integer in plain decimal: `i64::MIN` prints as itself.
    pub fn i64(&mut self, i: i64) {
        self.sep();
        if i < 0 {
            self.out.push(b'-');
        }
        decimal(self.out, i.unsigned_abs());
    }

    pub fn u64(&mut self, u: u64) {
        self.sep();
        decimal(self.out, u);
    }

    /// A float in the shortest form that parses back to the same bits,
    /// always with a `.` or an exponent; `null` for NaN and ±infinity,
    /// which JSON cannot spell.
    pub fn f64(&mut self, f: f64) {
        match Number::from_f64(f) {
            Some(n) => self.number(n),
            None => self.null(),
        }
    }

    pub fn number(&mut self, n: Number) {
        match n.0 {
            N::PosInt(u) => self.u64(u),
            N::NegInt(i) => self.i64(i),
            N::Float(x) => {
                self.sep();
                // `{:?}` is Rust's shortest round-trip form and keeps ".0".
                use std::io::Write;
                let _ = write!(self.out, "{x:?}");
            }
        }
    }

    /// A whole document tree.
    pub fn value(&mut self, v: &Value) {
        match v {
            Value::Null => self.null(),
            Value::Bool(b) => self.bool(*b),
            Value::Number(n) => self.number(*n),
            Value::String(s) => self.str(s),
            Value::Array(items) => {
                self.begin_array();
                items.iter().for_each(|item| self.value(item));
                self.end_array();
            }
            Value::Object(m) => {
                self.begin_object();
                for (k, item) in m {
                    self.key(k);
                    self.value(item);
                }
                self.end_object();
            }
        }
    }
}

/// `u`'s decimal digits.
fn decimal(out: &mut Vec<u8>, mut u: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (u % 10) as u8;
        u /= 10;
        if u == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[at..]);
}

/// `s` quoted: `"` and `\` escaped, the control bytes as `\n`, `\r`,
/// `\t`, `\b`, `\f` or `\u00XX`, everything else (multi-byte characters
/// included) as it is.
fn escaped(out: &mut Vec<u8>, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let bytes = s.as_bytes();
    out.reserve(bytes.len() + 2);
    out.push(b'"');
    let mut start = 0;
    for (i, &b) in bytes.iter().enumerate() {
        let esc: &[u8] = match b {
            b'"' => b"\\\"",
            b'\\' => b"\\\\",
            b'\n' => b"\\n",
            b'\r' => b"\\r",
            b'\t' => b"\\t",
            0x08 => b"\\b",
            0x0c => b"\\f",
            0x00..=0x1f => b"\\u00",
            _ => continue,
        };
        out.extend_from_slice(&bytes[start..i]);
        out.extend_from_slice(esc);
        if esc == b"\\u00" {
            out.extend_from_slice(&[HEX[usize::from(b >> 4)], HEX[usize::from(b & 15)]]);
        }
        start = i + 1;
    }
    out.extend_from_slice(&bytes[start..]);
    out.push(b'"');
}
