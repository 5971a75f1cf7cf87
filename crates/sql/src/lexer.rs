//! SQL lexer.

use crate::error::{Result, SqlError};
use std::fmt;

/// A lexical token. Keywords are recognized later, in the parser, so any
/// word lexes to `Ident`; the parser compares case-insensitively.
/// (`Eq`/`Hash` let normalized token streams key the plan cache directly.)
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Token {
    Ident(String),
    /// A double-quoted identifier (exact case preserved).
    QuotedIdent(String),
    Number(String),
    StringLit(String),
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
    Eof,
}

impl fmt::Display for Token {
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
pub fn tokenize(sql: &str) -> Result<Vec<Token>> {
    lex::<false>(sql, &mut Vec::new())
}

/// Tokenize and also report the byte offset in `sql` at which each token
/// (the trailing `Eof` excluded) starts.
pub fn tokenize_spanned(sql: &str) -> Result<(Vec<Token>, Vec<usize>)> {
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
fn lex<const SPANS: bool>(sql: &str, offsets: &mut Vec<usize>) -> Result<Vec<Token>> {
    let bytes = sql.as_bytes();
    let mut tokens = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        // Each iteration consumes whitespace, a comment, or exactly one
        // token: `i` is where the next token starts unless this iteration
        // yields none, in which case the next one overwrites the guess.
        if SPANS {
            offsets.truncate(tokens.len());
            offsets.push(i);
        }
        // decode the current char properly (inputs may be any UTF-8)
        let c = sql[i..].chars().next().expect("in-bounds char");
        match c {
            c if c.is_whitespace() => i += c.len_utf8(),
            '-' if bytes.get(i + 1) == Some(&b'-') => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            '/' if bytes.get(i + 1) == Some(&b'*') => {
                let mut j = i + 2;
                loop {
                    if j + 1 >= bytes.len() {
                        return Err(SqlError::Lex("unterminated block comment".into()));
                    }
                    if bytes[j] == b'*' && bytes[j + 1] == b'/' {
                        break;
                    }
                    j += 1;
                }
                i = j + 2;
            }
            '\'' => {
                let mut s = String::new();
                let mut j = i + 1;
                loop {
                    if j >= bytes.len() {
                        return Err(SqlError::Lex("unterminated string literal".into()));
                    }
                    if bytes[j] == b'\'' {
                        // doubled quote is an escaped quote
                        if bytes.get(j + 1) == Some(&b'\'') {
                            s.push('\'');
                            j += 2;
                            continue;
                        }
                        break;
                    }
                    // respect UTF-8: advance by char
                    let ch_len = utf8_len(bytes[j]);
                    s.push_str(std::str::from_utf8(&bytes[j..j + ch_len]).map_err(|_| {
                        SqlError::Lex("invalid UTF-8 in string literal".into())
                    })?);
                    j += ch_len;
                }
                tokens.push(Token::StringLit(s));
                i = j + 1;
            }
            '"' => {
                let mut s = String::new();
                let mut j = i + 1;
                while j < bytes.len() && bytes[j] != b'"' {
                    let ch_len = utf8_len(bytes[j]);
                    s.push_str(std::str::from_utf8(&bytes[j..j + ch_len]).map_err(|_| {
                        SqlError::Lex("invalid UTF-8 in identifier".into())
                    })?);
                    j += ch_len;
                }
                if j >= bytes.len() {
                    return Err(SqlError::Lex("unterminated quoted identifier".into()));
                }
                tokens.push(Token::QuotedIdent(s));
                i = j + 1;
            }
            c if c.is_ascii_digit() => {
                let start = i;
                while i < bytes.len() && (bytes[i] as char).is_ascii_digit() {
                    i += 1;
                }
                if i < bytes.len() && bytes[i] == b'.' {
                    i += 1;
                    while i < bytes.len() && (bytes[i] as char).is_ascii_digit() {
                        i += 1;
                    }
                }
                // scientific notation
                if i < bytes.len() && (bytes[i] == b'e' || bytes[i] == b'E') {
                    let mut j = i + 1;
                    if j < bytes.len() && (bytes[j] == b'+' || bytes[j] == b'-') {
                        j += 1;
                    }
                    if j < bytes.len() && (bytes[j] as char).is_ascii_digit() {
                        i = j;
                        while i < bytes.len() && (bytes[i] as char).is_ascii_digit() {
                            i += 1;
                        }
                    }
                }
                tokens.push(Token::Number(sql[start..i].to_string()));
            }
            c if c.is_alphabetic() || c == '_' => {
                let start = i;
                for ch in sql[i..].chars() {
                    if ch.is_alphanumeric() || ch == '_' {
                        i += ch.len_utf8();
                    } else {
                        break;
                    }
                }
                tokens.push(Token::Ident(sql[start..i].to_string()));
            }
            ',' => {
                tokens.push(Token::Comma);
                i += 1;
            }
            '(' => {
                tokens.push(Token::LParen);
                i += 1;
            }
            ')' => {
                tokens.push(Token::RParen);
                i += 1;
            }
            ';' => {
                tokens.push(Token::Semicolon);
                i += 1;
            }
            '*' => {
                tokens.push(Token::Star);
                i += 1;
            }
            '+' => {
                tokens.push(Token::Plus);
                i += 1;
            }
            '-' => {
                tokens.push(Token::Minus);
                i += 1;
            }
            '/' => {
                tokens.push(Token::Slash);
                i += 1;
            }
            '%' => {
                tokens.push(Token::Percent);
                i += 1;
            }
            '.' => {
                tokens.push(Token::Dot);
                i += 1;
            }
            '?' => {
                tokens.push(Token::Question);
                i += 1;
            }
            '=' => {
                tokens.push(Token::Eq);
                i += 1;
            }
            '!' if bytes.get(i + 1) == Some(&b'=') => {
                tokens.push(Token::NotEq);
                i += 2;
            }
            '<' => {
                match bytes.get(i + 1) {
                    Some(b'=') => {
                        tokens.push(Token::LtEq);
                        i += 2;
                    }
                    Some(b'>') => {
                        tokens.push(Token::NotEq);
                        i += 2;
                    }
                    _ => {
                        tokens.push(Token::Lt);
                        i += 1;
                    }
                }
            }
            '>' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    tokens.push(Token::GtEq);
                    i += 2;
                } else {
                    tokens.push(Token::Gt);
                    i += 1;
                }
            }
            '|' if bytes.get(i + 1) == Some(&b'|') => {
                tokens.push(Token::Concat);
                i += 2;
            }
            other => {
                return Err(SqlError::Lex(format!(
                    "unexpected character '{other}' at byte {i}"
                )))
            }
        }
    }
    offsets.truncate(tokens.len());
    tokens.push(Token::Eof);
    Ok(tokens)
}

fn utf8_len(first_byte: u8) -> usize {
    match first_byte {
        b if b < 0x80 => 1,
        b if b >> 5 == 0b110 => 2,
        b if b >> 4 == 0b1110 => 3,
        _ => 4,
    }
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
