//! The one JSON grammar: a pull reader over bytes, and the tree builder
//! ([`from_slice`]) on top of it.
//!
//! A caller asks for what it expects next — [`Reader::peek`] names the
//! kind of the coming value, [`Reader::next_key`] and
//! [`Reader::next_item`] walk a container, [`Reader::skip`] passes over a
//! value it does not want — so a decoder can read a document straight
//! into its own types. Whatever the caller reads or skips is checked in
//! full: a document the reader accepts is one [`from_slice`] accepts.

use crate::{Error, Map, Number, Result, Value};
use std::borrow::Cow;

/// Nesting allowed before the reader gives up (serde_json's limit): what
/// keeps hostile input from overflowing the stack.
const MAX_DEPTH: usize = 128;

/// Parses one JSON document; anything after it but whitespace is an error.
pub fn from_str(s: &str) -> Result<Value> {
    from_slice(s.as_bytes())
}

/// [`from_str`] over bytes, which must be UTF-8 inside strings.
pub fn from_slice(bytes: &[u8]) -> Result<Value> {
    let mut r = Reader::new(bytes);
    let v = tree(&mut r)?;
    r.finish()?;
    Ok(v)
}

fn tree(r: &mut Reader<'_>) -> Result<Value> {
    Ok(match r.peek()? {
        Kind::Null => {
            r.null()?;
            Value::Null
        }
        Kind::Bool => Value::Bool(r.bool()?),
        Kind::Number => Value::Number(r.number()?),
        Kind::String => Value::String(r.str()?.into_owned()),
        Kind::Array => {
            r.begin_array()?;
            let mut items = Vec::new();
            while r.next_item()? {
                items.push(tree(r)?);
            }
            Value::Array(items)
        }
        Kind::Object => {
            r.begin_object()?;
            let mut map = Map::new();
            while let Some(key) = r.next_key()? {
                let v = tree(r)?;
                map.insert(key.into_owned(), v);
            }
            Value::Object(map)
        }
    })
}

/// The kind of the value a [`Reader`] stands before.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Null,
    Bool,
    Number,
    String,
    Array,
    Object,
}

/// Reads one document value by value.
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Containers open around the reader.
    depth: usize,
    /// Whether the innermost open container has yielded no member yet.
    first: bool,
}

impl<'a> Reader<'a> {
    pub fn new(bytes: &'a [u8]) -> Reader<'a> {
        Reader {
            bytes,
            pos: 0,
            depth: 0,
            first: false,
        }
    }

    fn err(&self, msg: &'static str) -> Error {
        Error::new(msg, self.pos)
    }

    fn byte(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.byte(), Some(b' ' | b'\n' | b'\r' | b'\t')) {
            self.pos += 1;
        }
    }

    /// The kind of the next value, which is not consumed.
    pub fn peek(&mut self) -> Result<Kind> {
        self.skip_ws();
        if self.depth > MAX_DEPTH {
            return Err(self.err("recursion limit exceeded"));
        }
        match self.byte() {
            None => Err(self.err("EOF while parsing a value")),
            Some(b'n') => Ok(Kind::Null),
            Some(b't' | b'f') => Ok(Kind::Bool),
            Some(b'"') => Ok(Kind::String),
            Some(b'[') => Ok(Kind::Array),
            Some(b'{') => Ok(Kind::Object),
            Some(b'-' | b'0'..=b'9') => Ok(Kind::Number),
            Some(_) => Err(self.err("expected value")),
        }
    }

    /// Consumes the next value, which must be of kind `want`.
    fn expect(&mut self, want: Kind) -> Result<()> {
        match self.peek()? {
            kind if kind == want => Ok(()),
            _ => Err(self.err("expected value")),
        }
    }

    fn literal(&mut self, word: &'static [u8]) -> Result<()> {
        if self.bytes[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(())
        } else {
            Err(self.err("expected value"))
        }
    }

    pub fn null(&mut self) -> Result<()> {
        self.expect(Kind::Null)?;
        self.literal(b"null")
    }

    pub fn bool(&mut self) -> Result<bool> {
        self.expect(Kind::Bool)?;
        let b = self.byte() == Some(b't');
        self.literal(if b { b"true" } else { b"false" })?;
        Ok(b)
    }

    /// Opens an array; [`next_item`](Self::next_item) walks it.
    pub fn begin_array(&mut self) -> Result<()> {
        self.expect(Kind::Array)?;
        self.open();
        Ok(())
    }

    /// Opens an object; [`next_key`](Self::next_key) walks it.
    pub fn begin_object(&mut self) -> Result<()> {
        self.expect(Kind::Object)?;
        self.open();
        Ok(())
    }

    fn open(&mut self) {
        self.pos += 1;
        self.depth += 1;
        self.first = true;
    }

    fn close(&mut self) {
        self.pos += 1;
        self.depth -= 1;
        self.first = false;
    }

    /// `true` when the open array holds another item, which the caller
    /// reads next; `false` when its `]` is consumed.
    pub fn next_item(&mut self) -> Result<bool> {
        self.skip_ws();
        if std::mem::take(&mut self.first) {
            if self.byte() == Some(b']') {
                self.close();
                return Ok(false);
            }
            return Ok(true);
        }
        match self.byte() {
            Some(b',') => {
                self.pos += 1;
                Ok(true)
            }
            Some(b']') => {
                self.close();
                Ok(false)
            }
            _ => Err(self.err("expected `,` or `]`")),
        }
    }

    /// The open object's next key, with its `:` consumed, so the caller
    /// reads the value next; `None` when its `}` is consumed.
    pub fn next_key(&mut self) -> Result<Option<Cow<'a, str>>> {
        self.skip_ws();
        if std::mem::take(&mut self.first) {
            if self.byte() == Some(b'}') {
                self.close();
                return Ok(None);
            }
        } else {
            match self.byte() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.close();
                    return Ok(None);
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
            self.skip_ws();
        }
        if self.byte() != Some(b'"') {
            return Err(self.err("key must be a string"));
        }
        let key = self.string()?;
        self.skip_ws();
        if self.byte() != Some(b':') {
            return Err(self.err("expected `:`"));
        }
        self.pos += 1;
        Ok(Some(key))
    }

    /// Passes over the next value, checking it as closely as reading it.
    pub fn skip(&mut self) -> Result<()> {
        match self.peek()? {
            Kind::Null => self.null(),
            Kind::Bool => self.bool().map(drop),
            Kind::Number => self.number().map(drop),
            Kind::String => self.str().map(drop),
            Kind::Array => {
                self.begin_array()?;
                while self.next_item()? {
                    self.skip()?;
                }
                Ok(())
            }
            Kind::Object => {
                self.begin_object()?;
                while self.next_key()?.is_some() {
                    self.skip()?;
                }
                Ok(())
            }
        }
    }

    /// Only whitespace may follow the document.
    pub fn finish(&mut self) -> Result<()> {
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(self.err("trailing characters"));
        }
        Ok(())
    }

    fn digits(&mut self) -> usize {
        let start = self.pos;
        while matches!(self.byte(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos - start
    }

    /// A number: an integral text that fits stays an integer (`u64` when
    /// non-negative, `i64` when negative); anything else is a finite float.
    pub fn number(&mut self) -> Result<Number> {
        self.expect(Kind::Number)?;
        let start = self.pos;
        let negative = self.byte() == Some(b'-');
        if negative {
            self.pos += 1;
        }
        match self.byte() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                self.digits();
            }
            _ => return Err(self.err("invalid number")),
        }
        if matches!(self.byte(), Some(b'0'..=b'9')) {
            return Err(self.err("invalid number"));
        }
        let mut integral = true;
        if self.byte() == Some(b'.') {
            integral = false;
            self.pos += 1;
            if self.digits() == 0 {
                return Err(self.err("invalid number"));
            }
        }
        if matches!(self.byte(), Some(b'e' | b'E')) {
            integral = false;
            self.pos += 1;
            if matches!(self.byte(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if self.digits() == 0 {
                return Err(self.err("invalid number"));
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error::new("invalid number", start))?;
        if integral {
            // Integers that fit stay integers; wider ones become floats.
            if negative {
                if let Ok(i) = text.parse::<i64>() {
                    return Ok(Number::from_i64(i));
                }
            } else if let Ok(u) = text.parse::<u64>() {
                return Ok(Number::from_u64(u));
            }
        }
        let f: f64 = text.parse().map_err(|_| self.err("invalid number"))?;
        Number::from_f64(f).ok_or_else(|| self.err("number out of range"))
    }

    /// A string, borrowed from the input when it holds no escape.
    pub fn str(&mut self) -> Result<Cow<'a, str>> {
        self.expect(Kind::String)?;
        self.string()
    }

    fn hex4(&mut self) -> Result<u32> {
        let end = self.pos + 4;
        let digits = self
            .bytes
            .get(self.pos..end)
            .ok_or_else(|| self.err("EOF in \\u escape"))?;
        let mut code = 0u32;
        for &d in digits {
            let nibble = (d as char)
                .to_digit(16)
                .ok_or_else(|| self.err("invalid \\u escape"))?;
            code = code * 16 + nibble;
        }
        self.pos = end;
        Ok(code)
    }

    /// The string whose opening quote the reader stands on.
    fn string(&mut self) -> Result<Cow<'a, str>> {
        self.pos += 1;
        let mut out: Option<String> = None;
        loop {
            // The run up to the next quote, escape or control byte.
            let start = self.pos;
            while let Some(b) = self.byte() {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            let bytes: &'a [u8] = self.bytes;
            let run = std::str::from_utf8(&bytes[start..self.pos])
                .map_err(|_| Error::new("invalid UTF-8 in string", start))?;
            match self.byte() {
                None => return Err(self.err("EOF while parsing a string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(match out {
                        None => Cow::Borrowed(run),
                        Some(mut s) => {
                            s.push_str(run);
                            Cow::Owned(s)
                        }
                    });
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.byte().ok_or_else(|| self.err("EOF in escape"))?;
                    self.pos += 1;
                    let c = match esc {
                        b'"' => '"',
                        b'\\' => '\\',
                        b'/' => '/',
                        b'b' => '\u{8}',
                        b'f' => '\u{c}',
                        b'n' => '\n',
                        b'r' => '\r',
                        b't' => '\t',
                        b'u' => self.unicode_escape()?,
                        _ => return Err(self.err("invalid escape")),
                    };
                    let s = out.get_or_insert_with(String::new);
                    s.push_str(run);
                    s.push(c);
                }
                Some(_) => return Err(self.err("control character in string")),
            }
        }
    }

    /// The code point of a `\uXXXX` escape whose `\u` is already consumed,
    /// joining a surrogate pair.
    fn unicode_escape(&mut self) -> Result<char> {
        let hi = self.hex4()?;
        let code = if (0xD800..0xDC00).contains(&hi) {
            if !self.bytes[self.pos..].starts_with(b"\\u") {
                return Err(self.err("lone leading surrogate"));
            }
            self.pos += 2;
            let lo = self.hex4()?;
            if !(0xDC00..0xE000).contains(&lo) {
                return Err(self.err("invalid trailing surrogate"));
            }
            0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
        } else {
            hi
        };
        char::from_u32(code).ok_or_else(|| self.err("invalid code point"))
    }
}
