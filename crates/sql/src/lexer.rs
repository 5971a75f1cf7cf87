//! SQL lexer.

use crate::error::{Result, SqlError};
use std::borrow::Cow;
use std::fmt;

/// A lexical token. Keywords are recognized later, in the parser, so any
/// word lexes to `Ident`; the parser compares case-insensitively.
///
/// A word, number, string or quoted identifier borrows its span of the
/// statement text: lexing allocates only the token vector, plus one
/// `String` per string or quoted identifier whose doubled quote (`''`,
/// `""`) had to be unescaped. [`Token::into_owned`] detaches a stream from
/// its text; the plan cache keys on such owned streams (`Eq`/`Hash`
/// compare the text, borrowed or owned alike).
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub enum Token<'a> {
    Ident(Cow<'a, str>),
    /// A double-quoted identifier (exact case preserved, `""` unescaped).
    QuotedIdent(Cow<'a, str>),
    Number(Cow<'a, str>),
    /// A single-quoted string (`''` unescaped).
    StringLit(Cow<'a, str>),
    // punctuation & operators
    Comma,
    LParen,
    RParen,
    Semicolon,
    Star,
    Plus,
    Minus,
    Slash,
    Percent,
    Dot,
    Eq,
    NotEq,
    Lt,
    LtEq,
    Gt,
    GtEq,
    /// String concatenation `||`.
    Concat,
    /// Parameter placeholder `?` (used by the provenance query-log replay).
    Question,
    #[default]
    Eof,
}

impl Token<'_> {
    /// The same token, owning its text.
    pub fn into_owned(self) -> Token<'static> {
        let own = |s: Cow<'_, str>| Cow::Owned(s.into_owned());
        match self {
            Token::Ident(s) => Token::Ident(own(s)),
            Token::QuotedIdent(s) => Token::QuotedIdent(own(s)),
            Token::Number(s) => Token::Number(own(s)),
            Token::StringLit(s) => Token::StringLit(own(s)),
            Token::Comma => Token::Comma,
            Token::LParen => Token::LParen,
            Token::RParen => Token::RParen,
            Token::Semicolon => Token::Semicolon,
            Token::Star => Token::Star,
            Token::Plus => Token::Plus,
            Token::Minus => Token::Minus,
            Token::Slash => Token::Slash,
            Token::Percent => Token::Percent,
            Token::Dot => Token::Dot,
            Token::Eq => Token::Eq,
            Token::NotEq => Token::NotEq,
            Token::Lt => Token::Lt,
            Token::LtEq => Token::LtEq,
            Token::Gt => Token::Gt,
            Token::GtEq => Token::GtEq,
            Token::Concat => Token::Concat,
            Token::Question => Token::Question,
            Token::Eof => Token::Eof,
        }
    }
}

impl fmt::Display for Token<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Token::Ident(s) => write!(f, "{s}"),
            Token::QuotedIdent(s) => write!(f, "\"{s}\""),
            Token::Number(s) => write!(f, "{s}"),
            Token::StringLit(s) => write!(f, "'{s}'"),
            Token::Comma => f.write_str(","),
            Token::LParen => f.write_str("("),
            Token::RParen => f.write_str(")"),
            Token::Semicolon => f.write_str(";"),
            Token::Star => f.write_str("*"),
            Token::Plus => f.write_str("+"),
            Token::Minus => f.write_str("-"),
            Token::Slash => f.write_str("/"),
            Token::Percent => f.write_str("%"),
            Token::Dot => f.write_str("."),
            Token::Eq => f.write_str("="),
            Token::NotEq => f.write_str("<>"),
            Token::Lt => f.write_str("<"),
            Token::LtEq => f.write_str("<="),
            Token::Gt => f.write_str(">"),
            Token::GtEq => f.write_str(">="),
            Token::Concat => f.write_str("||"),
            Token::Question => f.write_str("?"),
            Token::Eof => f.write_str("<eof>"),
        }
    }
}

/// Tokenize a SQL string. Comments (`-- ...` and `/* ... */`) are skipped.
pub fn tokenize(sql: &str) -> Result<Vec<Token<'_>>> {
    lex::<false>(sql, &mut Vec::new())
}

/// Tokenize and also report the byte offset in `sql` at which each token
/// (the trailing `Eof` excluded) starts.
pub fn tokenize_spanned(sql: &str) -> Result<(Vec<Token<'_>>, Vec<usize>)> {
    let mut offsets = Vec::new();
    let tokens = lex::<true>(sql, &mut offsets)?;
    Ok((tokens, offsets))
}

/// Split a script into the text of each of its statements: from a
/// statement's first token up to the top-level `;` that ends it (a `;`
/// inside a string, a quoted identifier or a comment does not split).
/// Empty statements are dropped.
pub fn split_statements(sql: &str) -> Result<Vec<&str>> {
    let (tokens, offsets) = tokenize_spanned(sql)?;
    let mut out = Vec::new();
    let mut first = 0;
    for (k, &at) in offsets.iter().enumerate() {
        if tokens[k] == Token::Semicolon {
            if k > first {
                out.push(sql[offsets[first]..at].trim_end());
            }
            first = k + 1;
        }
    }
    if let Some(&start) = offsets.get(first) {
        out.push(sql[start..].trim_end());
    }
    Ok(out)
}

/// The tokenizer. `SPANS` is a compile-time switch so that plain
/// [`tokenize`] — on the serving hot path — pays nothing for offsets.
fn lex<'a, const SPANS: bool>(sql: &'a str, offsets: &mut Vec<usize>) -> Result<Vec<Token<'a>>> {
    let bytes = sql.as_bytes();
    // A token per three bytes of SQL: one allocation for most statements
    // (a 100-row INSERT of four-column rows runs 3.5 bytes a token).
    let mut tokens = Vec::with_capacity(bytes.len() / 3 + 2);
    let mut i = 0;
    while i < bytes.len() {
        // Each iteration consumes whitespace, a comment, or exactly one
        // token: `i` is where the next token starts unless this iteration
        // yields none, in which case the next one overwrites the guess.
        if SPANS {
            offsets.truncate(tokens.len());
            offsets.push(i);
        }
        let b = bytes[i];
        let (token, len) = match b {
            b' ' | b'\t' | b'\n' | b'\r' | 0x0b | 0x0c => {
                i += 1;
                continue;
            }
            b'-' if bytes.get(i + 1) == Some(&b'-') => {
                i += bytes[i..]
                    .iter()
                    .position(|&b| b == b'\n')
                    .unwrap_or(bytes.len() - i);
                continue;
            }
            b'/' if bytes.get(i + 1) == Some(&b'*') => {
                let Some(end) = sql[i + 2..].find("*/") else {
                    return Err(SqlError::Lex("unterminated block comment".into()));
                };
                i += end + 4;
                continue;
            }
            b'\'' => {
                let (s, end) = quoted(sql, i, b'\'')
                    .ok_or_else(|| SqlError::Lex("unterminated string literal".into()))?;
                (Token::StringLit(s), end - i)
            }
            b'"' => {
                let (s, end) = quoted(sql, i, b'"')
                    .ok_or_else(|| SqlError::Lex("unterminated quoted identifier".into()))?;
                (Token::QuotedIdent(s), end - i)
            }
            b'0'..=b'9' => {
                let end = number_end(bytes, i);
                (Token::Number(Cow::Borrowed(&sql[i..end])), end - i)
            }
            b'a'..=b'z' | b'A'..=b'Z' | b'_' => {
                let end = word_end(sql, i + 1);
                (Token::Ident(Cow::Borrowed(&sql[i..end])), end - i)
            }
            b',' => (Token::Comma, 1),
            b'(' => (Token::LParen, 1),
            b')' => (Token::RParen, 1),
            b';' => (Token::Semicolon, 1),
            b'*' => (Token::Star, 1),
            b'+' => (Token::Plus, 1),
            b'-' => (Token::Minus, 1),
            b'/' => (Token::Slash, 1),
            b'%' => (Token::Percent, 1),
            b'.' => (Token::Dot, 1),
            b'?' => (Token::Question, 1),
            b'=' => (Token::Eq, 1),
            b'!' if bytes.get(i + 1) == Some(&b'=') => (Token::NotEq, 2),
            b'<' => match bytes.get(i + 1) {
                Some(b'=') => (Token::LtEq, 2),
                Some(b'>') => (Token::NotEq, 2),
                _ => (Token::Lt, 1),
            },
            b'>' if bytes.get(i + 1) == Some(&b'=') => (Token::GtEq, 2),
            b'>' => (Token::Gt, 1),
            b'|' if bytes.get(i + 1) == Some(&b'|') => (Token::Concat, 2),
            _ => {
                // decode the current char properly (inputs may be any UTF-8)
                let c = sql[i..].chars().next().expect("in-bounds char");
                if c.is_whitespace() {
                    i += c.len_utf8();
                    continue;
                }
                if !c.is_alphabetic() {
                    return Err(SqlError::Lex(format!(
                        "unexpected character '{c}' at byte {i}"
                    )));
                }
                let end = word_end(sql, i + c.len_utf8());
                (Token::Ident(Cow::Borrowed(&sql[i..end])), end - i)
            }
        };
        tokens.push(token);
        i += len;
    }
    offsets.truncate(tokens.len());
    tokens.push(Token::Eof);
    Ok(tokens)
}

/// The quoted text opening at byte `open` (a `quote` byte) and the byte
/// just past its closing quote; `None` when it is unterminated. A doubled
/// quote inside stands for one, and only then is the text copied.
fn quoted(sql: &str, open: usize, quote: u8) -> Option<(Cow<'_, str>, usize)> {
    let bytes = sql.as_bytes();
    let mut unescaped: Option<String> = None;
    let mut run = open + 1;
    loop {
        // `quote` is ASCII, so it never matches inside a multi-byte char.
        let at = run + bytes[run..].iter().position(|&b| b == quote)?;
        if bytes.get(at + 1) == Some(&quote) {
            unescaped
                .get_or_insert_with(String::new)
                .push_str(&sql[run..=at]);
            run = at + 2;
            continue;
        }
        let text = match unescaped {
            None => Cow::Borrowed(&sql[run..at]),
            Some(mut s) => {
                s.push_str(&sql[run..at]);
                Cow::Owned(s)
            }
        };
        return Some((text, at + 1));
    }
}

/// End of the number starting at `start`: digits, an optional fraction,
/// and an exponent only when a digit follows its `e` (and sign).
fn number_end(bytes: &[u8], start: usize) -> usize {
    let digits = |mut i: usize| {
        while bytes.get(i).is_some_and(u8::is_ascii_digit) {
            i += 1;
        }
        i
    };
    let mut i = digits(start);
    if bytes.get(i) == Some(&b'.') {
        i = digits(i + 1);
    }
    if matches!(bytes.get(i), Some(b'e' | b'E')) {
        let mut j = i + 1;
        if matches!(bytes.get(j), Some(b'+' | b'-')) {
            j += 1;
        }
        if bytes.get(j).is_some_and(u8::is_ascii_digit) {
            i = digits(j);
        }
    }
    i
}

/// End of the word whose rest starts at `from`: letters, digits and `_`
/// of any script.
fn word_end(sql: &str, from: usize) -> usize {
    let bytes = sql.as_bytes();
    let mut i = from;
    while let Some(&b) = bytes.get(i) {
        if b.is_ascii_alphanumeric() || b == b'_' {
            i += 1;
        } else if b.is_ascii() {
            break;
        } else {
            let c = sql[i..].chars().next().expect("in-bounds char");
            if !c.is_alphanumeric() {
                break;
            }
            i += c.len_utf8();
        }
    }
    i
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lexes_basic_select() {
        let toks = tokenize("SELECT a, b FROM t WHERE a >= 1.5;").unwrap();
        assert_eq!(toks[0], Token::Ident("SELECT".into()));
        assert!(toks.contains(&Token::GtEq));
        assert!(toks.contains(&Token::Number("1.5".into())));
        assert_eq!(*toks.last().unwrap(), Token::Eof);
    }

    #[test]
    fn string_escapes_and_comments() {
        let toks = tokenize("-- comment\nSELECT 'it''s' /* block */ , \"Weird Col\"").unwrap();
        assert!(toks.contains(&Token::StringLit("it's".into())));
        assert!(toks.contains(&Token::QuotedIdent("Weird Col".into())));
    }

    #[test]
    fn spans_and_statement_splitting() {
        let sql = "  SELECT 'a;b' ; -- c;\n;INSERT /* ; */ INTO \"t;\" VALUES (1);\n";
        let (tokens, offsets) = tokenize_spanned(sql).unwrap();
        assert_eq!(tokens.len(), offsets.len() + 1, "one offset per token but Eof");
        assert_eq!(&sql[offsets[0]..offsets[0] + 6], "SELECT");
        assert_eq!(
            split_statements(sql).unwrap(),
            vec!["SELECT 'a;b'", "INSERT /* ; */ INTO \"t;\" VALUES (1)"]
        );
        assert_eq!(split_statements(" -- nothing\n ; ").unwrap(), Vec::<&str>::new());
        assert_eq!(split_statements("SELECT 1").unwrap(), vec!["SELECT 1"]);
    }

    #[test]
    fn operators() {
        let toks = tokenize("a <> b != c || d <= e").unwrap();
        let ops: Vec<&Token> = toks
            .iter()
            .filter(|t| !matches!(t, Token::Ident(_) | Token::Eof))
            .collect();
        assert_eq!(
            ops,
            vec![&Token::NotEq, &Token::NotEq, &Token::Concat, &Token::LtEq]
        );
    }

    #[test]
    fn scientific_numbers() {
        let toks = tokenize("1e5 2.5E-3 7").unwrap();
        assert_eq!(toks[0], Token::Number("1e5".into()));
        assert_eq!(toks[1], Token::Number("2.5E-3".into()));
        assert_eq!(toks[2], Token::Number("7".into()));
    }

    #[test]
    fn errors_on_garbage() {
        assert!(tokenize("SELECT @@@").is_err());
        assert!(tokenize("'unterminated").is_err());
        assert!(tokenize("/* unterminated").is_err());
    }

    #[test]
    fn unicode_in_strings() {
        let toks = tokenize("SELECT 'héllo 世界'").unwrap();
        assert!(toks.contains(&Token::StringLit("héllo 世界".into())));
    }
}
