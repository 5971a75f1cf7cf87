//! Seeded differential for the wire codec (`FLOCK_DIFF_SEEDS`, 32 seeds
//! by default).
//!
//! The codec prints messages with the JSON crate's push writer and reads
//! them with its pull reader, with no `flock_json::Value` tree in
//! between. This suite keeps the tree codec the protocol used to be
//! built on as the reference — its own printer (escape rule, integer rule
//! and float rule), its own tree encoder and its own tree decoder — and
//! checks, over generated results and messages:
//! - a statement's reply written straight from its batch, the bytes of
//!   `ServerMsg::Rows(..).encode()` and the reference printer's bytes are
//!   one and the same;
//! - `decode` reads every encoded message back as the reference tree
//!   reading does, and as the message itself (non-finite floats as NULL);
//! - it reads the same with the keys reordered, whitespace added, unknown
//!   keys and repeated keys mixed in and characters spelled as `\u`
//!   escapes (surrogate pairs included);
//! - every truncation is refused, and every single-byte mutation is
//!   refused or read as the reference reads it;
//! - the frame reader returns each frame of a pipelined stream whole,
//!   however the stream is cut into reads.

use flock_json::{Map, Value as Json};
use flock_rng::rngs::StdRng;
use flock_rng::{test_seeds, Rng, RngCore, SeedableRng};
use flock_server::protocol::{
    encode_result_into, frame, ClientMsg, FrameError, FrameReader, ServerMsg, WireColumn, WireRows,
    DEFAULT_MAX_FRAME,
};
use flock_sql::{
    ColumnDef, ColumnVector, DataType, QueryResult, RecordBatch, Schema, SqlError, Value, WireError,
};
use std::fmt::Write as _;
use std::sync::Arc;

// ---------------------------------------------------------------------------
// The reference: the tree codec
// ---------------------------------------------------------------------------

/// The tree printer's string rule.
fn ref_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{8}' => out.push_str("\\b"),
            '\u{c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).unwrap(),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// The tree printer, compact, keys in the map's (sorted) order.
fn ref_print(out: &mut String, v: &Json) {
    match v {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::Number(n) => match (n.as_u64(), n.as_i64(), n.as_f64()) {
            (Some(u), _, _) => write!(out, "{u}").unwrap(),
            (None, Some(i), _) => write!(out, "{i}").unwrap(),
            (None, None, Some(f)) => write!(out, "{f:?}").unwrap(),
            (None, None, None) => unreachable!("every number has an f64 view"),
        },
        Json::String(s) => ref_str(out, s),
        Json::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                ref_print(out, item);
            }
            out.push(']');
        }
        Json::Object(m) => {
            out.push('{');
            for (i, (k, item)) in m.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                ref_str(out, k);
                out.push(':');
                ref_print(out, item);
            }
            out.push('}');
        }
    }
}

fn ref_text(v: &Json) -> String {
    let mut out = String::new();
    ref_print(&mut out, v);
    out
}

fn obj(pairs: Vec<(&str, Json)>) -> Json {
    let mut m = Map::new();
    for (k, v) in pairs {
        m.insert(k.to_string(), v);
    }
    Json::Object(m)
}

fn ref_value(v: &Value) -> Json {
    match v {
        Value::Null => Json::Null,
        Value::Bool(b) => Json::Bool(*b),
        Value::Int(i) => Json::from(*i),
        Value::Float(f) => Json::from(*f),
        Value::Text(s) => Json::String(s.clone()),
        Value::Date(d) => obj(vec![("date", Json::from(i64::from(*d)))]),
    }
}

fn ref_values(vs: &[Value]) -> Json {
    Json::Array(vs.iter().map(ref_value).collect())
}

fn ref_client_tree(m: &ClientMsg) -> Json {
    let s = |t: &str| Json::String(t.to_string());
    obj(match m {
        ClientMsg::Hello { user } => {
            vec![
                ("type", s("hello")),
                ("user", s(user)),
                ("protocol", Json::from(2u64)),
            ]
        }
        ClientMsg::Query { sql } => vec![("type", s("query")), ("sql", s(sql))],
        ClientMsg::Prepare { sql } => vec![("type", s("prepare")), ("sql", s(sql))],
        ClientMsg::Execute { stmt, params } => vec![
            ("type", s("execute")),
            ("stmt", Json::from(*stmt)),
            ("params", ref_values(params)),
        ],
        ClientMsg::CloseStmt { stmt } => {
            vec![("type", s("close_stmt")), ("stmt", Json::from(*stmt))]
        }
        ClientMsg::Cancel { session, key } => vec![
            ("type", s("cancel")),
            ("session", Json::from(*session)),
            ("key", Json::from(*key)),
        ],
        ClientMsg::Goodbye => vec![("type", s("goodbye"))],
    })
}

fn ref_server_tree(m: &ServerMsg) -> Json {
    let s = |t: &str| Json::String(t.to_string());
    obj(match m {
        ServerMsg::Welcome {
            session,
            cancel_key,
            server,
        } => vec![
            ("type", s("welcome")),
            ("session", Json::from(*session)),
            ("cancel_key", Json::from(*cancel_key)),
            ("server", s(server)),
            ("protocol", Json::from(2u64)),
        ],
        ServerMsg::Rows(r) => vec![
            ("type", s("rows")),
            (
                "columns",
                Json::Array(
                    r.columns
                        .iter()
                        .map(|c| obj(vec![("name", s(&c.name)), ("dtype", s(&c.dtype))]))
                        .collect(),
                ),
            ),
            (
                "rows",
                Json::Array(r.rows.iter().map(|row| ref_values(row)).collect()),
            ),
            ("rows_affected", Json::from(r.rows_affected)),
            ("message", s(&r.message)),
        ],
        ServerMsg::Prepared { stmt, params } => vec![
            ("type", s("prepared")),
            ("stmt", Json::from(*stmt)),
            ("params", Json::from(*params)),
        ],
        ServerMsg::StmtClosed => vec![("type", s("stmt_closed"))],
        ServerMsg::CancelAck { ok } => vec![("type", s("cancel_ack")), ("ok", Json::Bool(*ok))],
        ServerMsg::Error(e) => vec![
            ("type", s("error")),
            (
                "error",
                obj(vec![
                    ("code", s(&e.code)),
                    ("message", s(&e.message)),
                    ("retryable", Json::Bool(e.retryable)),
                ]),
            ),
        ],
        ServerMsg::Goodbye => vec![("type", s("goodbye"))],
    })
}

fn ref_value_from(v: &Json) -> Option<Value> {
    match v {
        Json::Null => Some(Value::Null),
        Json::Bool(b) => Some(Value::Bool(*b)),
        Json::String(s) => Some(Value::Text(s.clone())),
        Json::Object(_) => {
            let days = v.get("date")?.as_i64()?;
            Some(Value::Date(i32::try_from(days).ok()?))
        }
        _ => match v.as_i64() {
            Some(i) => Some(Value::Int(i)),
            None => v.as_f64().map(Value::Float),
        },
    }
}

fn ref_values_from(v: &Json) -> Option<Vec<Value>> {
    v.as_array()?.iter().map(ref_value_from).collect()
}

/// The tree reading of a client message; `None` where it refuses one.
fn ref_client_decode(payload: &[u8]) -> Option<ClientMsg> {
    let doc = flock_json::from_slice(payload).ok()?;
    let str_field = |k: &str| doc.get(k)?.as_str().map(str::to_string);
    let u64_field = |k: &str| doc.get(k)?.as_u64();
    Some(match doc.get("type")?.as_str()? {
        "hello" => ClientMsg::Hello {
            user: str_field("user")?,
        },
        "query" => ClientMsg::Query {
            sql: str_field("sql")?,
        },
        "prepare" => ClientMsg::Prepare {
            sql: str_field("sql")?,
        },
        "execute" => ClientMsg::Execute {
            stmt: u64_field("stmt")?,
            params: ref_values_from(doc.get("params")?)?,
        },
        "close_stmt" => ClientMsg::CloseStmt {
            stmt: u64_field("stmt")?,
        },
        "cancel" => ClientMsg::Cancel {
            session: u64_field("session")?,
            key: u64_field("key")?,
        },
        "goodbye" => ClientMsg::Goodbye,
        _ => return None,
    })
}

/// The tree reading of a server message; `None` where it refuses one.
fn ref_server_decode(payload: &[u8]) -> Option<ServerMsg> {
    let doc = flock_json::from_slice(payload).ok()?;
    let str_field = |v: &Json, k: &str| v.get(k)?.as_str().map(str::to_string);
    let u64_field = |k: &str| doc.get(k)?.as_u64();
    Some(match doc.get("type")?.as_str()? {
        "welcome" => ServerMsg::Welcome {
            session: u64_field("session")?,
            cancel_key: u64_field("cancel_key")?,
            server: str_field(&doc, "server")?,
        },
        "rows" => ServerMsg::Rows(WireRows {
            columns: (doc.get("columns")?.as_array()?.iter())
                .map(|c| {
                    Some(WireColumn {
                        name: str_field(c, "name")?,
                        dtype: str_field(c, "dtype")?,
                    })
                })
                .collect::<Option<_>>()?,
            rows: (doc.get("rows")?.as_array()?.iter())
                .map(ref_values_from)
                .collect::<Option<_>>()?,
            rows_affected: u64_field("rows_affected")?,
            message: str_field(&doc, "message")?,
        }),
        "prepared" => ServerMsg::Prepared {
            stmt: u64_field("stmt")?,
            params: u64_field("params")?,
        },
        "stmt_closed" => ServerMsg::StmtClosed,
        "cancel_ack" => ServerMsg::CancelAck {
            ok: doc.get("ok")?.as_bool()?,
        },
        "error" => {
            let e = doc.get("error")?;
            ServerMsg::Error(WireError {
                code: str_field(e, "code")?,
                message: str_field(e, "message")?,
                retryable: e.get("retryable")?.as_bool()?,
            })
        }
        "goodbye" => ServerMsg::Goodbye,
        _ => return None,
    })
}

// ---------------------------------------------------------------------------
// Generators
// ---------------------------------------------------------------------------

/// Characters text is drawn from: JSON's escapes, every kind of control
/// byte, `/`, DEL, and one-to-four-byte UTF-8 (astral planes included).
const CHARS: &[char] = &[
    'a',
    'Z',
    '0',
    ' ',
    '"',
    '\\',
    '/',
    '\n',
    '\r',
    '\t',
    '\u{8}',
    '\u{c}',
    '\u{0}',
    '\u{1}',
    '\u{1f}',
    '\u{7f}',
    'é',
    'ß',
    '漢',
    '\u{2028}',
    '\u{fffd}',
    '😀',
    '\u{11d3f}',
    '\u{10ffff}',
];

fn text(rng: &mut StdRng) -> String {
    (0..rng.gen_range(0..12usize))
        .map(|_| CHARS[rng.gen_range(0..CHARS.len())])
        .collect()
}

/// Floats that test the float rule: signed zeros, subnormals, the
/// extremes, non-finite values (sent as `null`), integral values (which
/// must stay floats) and any bit pattern.
fn float(rng: &mut StdRng) -> f64 {
    const EDGES: &[f64] = &[
        0.0,
        -0.0,
        2.0,
        -1.5e300,
        1e21,
        0.1,
        5e-324,
        -5e-324,
        2.2250738585072014e-308,
        f64::MIN_POSITIVE / 3.0,
        f64::MAX,
        f64::MIN,
        9007199254740993.0,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
    ];
    match rng.gen_range(0..4u32) {
        0 => EDGES[rng.gen_range(0..EDGES.len())],
        1 => f64::from_bits(rng.next_u64()),
        _ => rng.gen_range(-1.0..1.0) * 10f64.powi(rng.gen_range(-12i32..13)),
    }
}

fn int(rng: &mut StdRng) -> i64 {
    const EDGES: &[i64] = &[
        i64::MIN,
        i64::MIN + 1,
        -1,
        0,
        1,
        i64::MAX,
        1 << 53,
        -(1 << 53) - 1,
    ];
    match rng.gen_range(0..3u32) {
        0 => EDGES[rng.gen_range(0..EDGES.len())],
        1 => rng.next_u64() as i64,
        _ => rng.gen_range(-1000..1000i64),
    }
}

fn date(rng: &mut StdRng) -> i32 {
    match rng.gen_range(0..4u32) {
        0 => i32::MIN,
        1 => i32::MAX,
        _ => rng.gen_range(-40_000..40_000i32),
    }
}

/// A value of `ty`, or NULL.
fn value_of(rng: &mut StdRng, ty: DataType) -> Value {
    if rng.gen_range(0..6u32) == 0 {
        return Value::Null;
    }
    match ty {
        DataType::Bool => Value::Bool(rng.gen_range(0..2u32) == 1),
        DataType::Int => Value::Int(int(rng)),
        DataType::Float => Value::Float(float(rng)),
        DataType::Text => Value::Text(text(rng)),
        DataType::Date => Value::Date(date(rng)),
    }
}

const TYPES: [DataType; 5] = [
    DataType::Bool,
    DataType::Int,
    DataType::Float,
    DataType::Text,
    DataType::Date,
];

fn any_type(rng: &mut StdRng) -> DataType {
    TYPES[rng.gen_range(0..TYPES.len())]
}

fn values(rng: &mut StdRng) -> Vec<Value> {
    (0..rng.gen_range(0..6usize))
        .map(|_| {
            let ty = any_type(rng);
            value_of(rng, ty)
        })
        .collect()
}

fn u64_value(rng: &mut StdRng) -> u64 {
    match rng.gen_range(0..3u32) {
        0 => u64::MAX,
        1 => rng.next_u64(),
        _ => rng.gen_range(0..100u64),
    }
}

fn wire_rows(rng: &mut StdRng) -> WireRows {
    let types: Vec<DataType> = (0..rng.gen_range(0..5usize))
        .map(|_| any_type(rng))
        .collect();
    WireRows {
        columns: (types.iter())
            .map(|t| WireColumn {
                name: text(rng),
                dtype: t.to_string(),
            })
            .collect(),
        rows: (0..rng.gen_range(0..6usize))
            .map(|_| types.iter().map(|&t| value_of(rng, t)).collect())
            .collect(),
        rows_affected: u64_value(rng),
        message: text(rng),
    }
}

fn client_msg(rng: &mut StdRng) -> ClientMsg {
    match rng.gen_range(0..7u32) {
        0 => ClientMsg::Hello { user: text(rng) },
        1 => ClientMsg::Query { sql: text(rng) },
        2 => ClientMsg::Prepare { sql: text(rng) },
        3 => ClientMsg::Execute {
            stmt: u64_value(rng),
            params: values(rng),
        },
        4 => ClientMsg::CloseStmt {
            stmt: u64_value(rng),
        },
        5 => ClientMsg::Cancel {
            session: u64_value(rng),
            key: u64_value(rng),
        },
        _ => ClientMsg::Goodbye,
    }
}

fn server_msg(rng: &mut StdRng) -> ServerMsg {
    match rng.gen_range(0..8u32) {
        0 => ServerMsg::Welcome {
            session: u64_value(rng),
            cancel_key: u64_value(rng),
            server: text(rng),
        },
        1 | 2 => ServerMsg::Rows(wire_rows(rng)),
        3 => ServerMsg::Prepared {
            stmt: u64_value(rng),
            params: u64_value(rng),
        },
        4 => ServerMsg::StmtClosed,
        5 => ServerMsg::CancelAck {
            ok: rng.gen_range(0..2u32) == 1,
        },
        6 => ServerMsg::Error(WireError {
            code: text(rng),
            message: text(rng),
            retryable: rng.gen_range(0..2u32) == 1,
        }),
        _ => ServerMsg::Goodbye,
    }
}

/// A column of `rows` values of `ty`: plain, dictionary-coded text, or a
/// window into a longer buffer.
fn column(rng: &mut StdRng, ty: DataType, rows: usize) -> ColumnVector {
    if ty == DataType::Text && rng.gen_range(0..2u32) == 0 {
        let dict: Vec<String> = (0..rng.gen_range(1..5usize)).map(|_| text(rng)).collect();
        let codes = (0..rows)
            .map(|_| rng.gen_range(0..dict.len() as u32))
            .collect();
        let validity = (rng.gen_range(0..2u32) == 0)
            .then(|| (0..rows).map(|_| rng.gen_range(0..4u32) > 0).collect());
        return ColumnVector::from_dictionary(codes, Arc::new(dict), validity).unwrap();
    }
    let pad = rng.gen_range(0..3usize);
    let vals: Vec<Value> = (0..rows + 2 * pad).map(|_| value_of(rng, ty)).collect();
    ColumnVector::from_values(ty, &vals)
        .unwrap()
        .slice(pad, rows)
}

fn batch(rng: &mut StdRng) -> RecordBatch {
    let rows = rng.gen_range(0..8usize);
    let types: Vec<DataType> = (0..rng.gen_range(1..6usize))
        .map(|_| any_type(rng))
        .collect();
    let schema = Schema::new(
        types
            .iter()
            .map(|&t| ColumnDef::new(text(rng), t))
            .collect(),
    );
    let columns = types.iter().map(|&t| column(rng, t, rows)).collect();
    RecordBatch::new(Arc::new(schema), columns).unwrap()
}

// ---------------------------------------------------------------------------
// Rewriting an encoded document
// ---------------------------------------------------------------------------

fn ws(rng: &mut StdRng, out: &mut String) {
    for _ in 0..rng.gen_range(0..3usize) {
        out.push([' ', '\n', '\r', '\t'][rng.gen_range(0..4usize)]);
    }
}

/// `s` quoted with some characters spelled as `\u` escapes (astral ones
/// as surrogate pairs) and `/` sometimes as `\/`.
fn spelled_str(rng: &mut StdRng, out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        let mut units = [0u16; 2];
        match c {
            '/' if rng.gen_range(0..2u32) == 0 => out.push_str("\\/"),
            c if c == '"' || c == '\\' || (c as u32) < 0x20 || rng.gen_range(0..3u32) == 0 => {
                for u in c.encode_utf16(&mut units) {
                    let hex = if rng.gen_range(0..2u32) == 0 {
                        format!("{u:04x}")
                    } else {
                        format!("{u:04X}")
                    };
                    write!(out, "\\u{hex}").unwrap();
                }
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// An unknown member's value: any JSON, nested a little.
fn junk(rng: &mut StdRng, depth: usize) -> Json {
    match rng.gen_range(0..if depth > 2 { 4 } else { 6u32 }) {
        0 => Json::Null,
        1 => Json::Bool(true),
        2 => Json::from(float(rng)),
        3 => Json::String(text(rng)),
        4 => Json::Array(
            (0..rng.gen_range(0..3usize))
                .map(|_| junk(rng, depth + 1))
                .collect(),
        ),
        _ => obj(vec![
            ("date", Json::from(int(rng))),
            ("x", junk(rng, depth + 1)),
        ]),
    }
}

/// `v` printed as another writer might: members shuffled, whitespace
/// anywhere, unknown keys mixed in (at `top`, and inside any object),
/// a repeated key whose junk first value the real one follows, floats
/// in exponent form and characters as `\u` escapes.
fn scrambled(rng: &mut StdRng, out: &mut String, v: &Json, top: bool) {
    ws(rng, out);
    match v {
        Json::Number(n) if n.as_u64().is_none() && n.as_i64().is_none() => {
            let f = n.as_f64().unwrap();
            match rng.gen_range(0..2u32) {
                0 => write!(out, "{f:e}").unwrap(),
                _ => write!(out, "{f:?}").unwrap(),
            }
        }
        Json::String(s) => spelled_str(rng, out, s),
        Json::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                scrambled(rng, out, item, false);
            }
            ws(rng, out);
            out.push(']');
        }
        Json::Object(m) => {
            let mut members: Vec<(String, Json)> =
                m.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
            // Junk first, under a real key: the last value wins.
            if let Some((k, _)) = members.get(rng.gen_range(0..members.len().max(1))).cloned() {
                if rng.gen_range(0..3u32) == 0 {
                    members.insert(0, (k, junk(rng, 0)));
                }
            }
            for _ in 0..rng.gen_range(0..if top { 3 } else { 2usize }) {
                let at = rng.gen_range(0..members.len() + 1);
                members.insert(at, (format!("x_{}", text(rng)), junk(rng, 0)));
            }
            // Shuffle, keeping each repeated key's order.
            let mut order: Vec<usize> = (0..members.len()).collect();
            for i in (1..order.len()).rev() {
                order.swap(i, rng.gen_range(0..i + 1));
            }
            let mut seen = Vec::new();
            let mut ordered = Vec::new();
            for &i in &order {
                if !seen.contains(&members[i].0) {
                    seen.push(members[i].0.clone());
                    ordered.extend(members.iter().filter(|(k, _)| *k == members[i].0).cloned());
                }
            }
            out.push('{');
            for (i, (k, item)) in ordered.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                ws(rng, out);
                spelled_str(rng, out, k);
                ws(rng, out);
                out.push(':');
                scrambled(rng, out, item, false);
            }
            ws(rng, out);
            out.push('}');
        }
        other => out.push_str(&ref_text(other)),
    }
    ws(rng, out);
}

/// Bytes a mutation writes: JSON's punctuation, digits, letters of its
/// literals, escapes, whitespace and invalid UTF-8.
const ALPHABET: &[u8] = b"{}[]\",:\\/u0123456789.eE+-truefalsnl \t\n\xff\xc3\x80";

// ---------------------------------------------------------------------------
// Checks
// ---------------------------------------------------------------------------

fn dbg<T: std::fmt::Debug>(v: &T) -> String {
    format!("{v:?}")
}

/// `msg` as it reads back: NaN and ±infinity are sent as `null`.
fn over_the_wire(v: &Value) -> Value {
    match v {
        Value::Float(f) if !f.is_finite() => Value::Null,
        other => other.clone(),
    }
}

fn client_over_the_wire(m: &ClientMsg) -> ClientMsg {
    match m {
        ClientMsg::Execute { stmt, params } => ClientMsg::Execute {
            stmt: *stmt,
            params: params.iter().map(over_the_wire).collect(),
        },
        other => other.clone(),
    }
}

fn server_over_the_wire(m: &ServerMsg) -> ServerMsg {
    match m {
        ServerMsg::Rows(r) => ServerMsg::Rows(WireRows {
            rows: (r.rows.iter())
                .map(|row| row.iter().map(over_the_wire).collect())
                .collect(),
            ..r.clone()
        }),
        other => other.clone(),
    }
}

/// `decode` and the tree reading agree on `payload`: both refuse it, or
/// both read the same message.
fn agree<M: std::fmt::Debug>(payload: &[u8], direct: Result<M, FrameError>, tree: Option<M>) {
    match (&direct, &tree) {
        (Ok(a), Some(b)) => assert_eq!(dbg(a), dbg(b), "on {:?}", String::from_utf8_lossy(payload)),
        (Err(FrameError::BadMessage(_)), None) => {}
        _ => panic!(
            "decode {direct:?} but the tree reading {tree:?} on {:?}",
            String::from_utf8_lossy(payload)
        ),
    }
}

/// Each single-byte mutation of `text` through `check`.
fn mutate(rng: &mut StdRng, text: &str, mut check: impl FnMut(&[u8])) {
    let bytes = text.as_bytes();
    let mut copy = bytes.to_vec();
    for at in 0..bytes.len() {
        copy[at] = ALPHABET[rng.gen_range(0..ALPHABET.len())];
        check(&copy);
        copy[at] = bytes[at];
    }
}

#[test]
fn the_batch_writer_prints_the_messages_bytes() {
    for seed in test_seeds(32) {
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..8 {
            let b = batch(&mut rng);
            let wire = WireRows {
                columns: (b.schema().columns().iter())
                    .map(|c| WireColumn {
                        name: c.name.clone(),
                        dtype: c.data_type.to_string(),
                    })
                    .collect(),
                rows: (0..b.num_rows()).map(|i| b.row(i)).collect(),
                rows_affected: u64_value(&mut rng) as usize as u64,
                message: text(&mut rng),
            };
            let result = QueryResult {
                batch: Some(b),
                rows_affected: wire.rows_affected as usize,
                message: wire.message.clone(),
            };
            let msg = ServerMsg::Rows(wire);
            let mut framed = Vec::new();
            encode_result_into(&result, &mut framed);
            let reply = FrameReader::new(usize::MAX)
                .poll(&mut std::io::Cursor::new(&framed))
                .unwrap()
                .unwrap();
            let text = msg.encode();
            assert_eq!(String::from_utf8(reply).unwrap(), text, "seed {seed}");
            assert_eq!(ref_text(&ref_server_tree(&msg)), text, "seed {seed}");
            let mut in_place = Vec::new();
            msg.encode_into(&mut in_place);
            assert_eq!(in_place, framed, "seed {seed}");
        }
        // No batch: a DML or DDL result.
        let result = QueryResult {
            batch: None,
            rows_affected: 3,
            message: text(&mut rng),
        };
        let msg = ServerMsg::Rows(WireRows {
            rows_affected: 3,
            message: result.message.clone(),
            ..WireRows::default()
        });
        let mut framed = Vec::new();
        encode_result_into(&result, &mut framed);
        assert_eq!(framed, frame(msg.encode().as_bytes()), "seed {seed}");
    }
}

#[test]
fn messages_print_as_the_tree_and_read_back_as_it_reads() {
    for seed in test_seeds(32) {
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..8 {
            let m = client_msg(&mut rng);
            let text = m.encode();
            assert_eq!(text, ref_text(&ref_client_tree(&m)), "seed {seed}");
            let mut framed = Vec::new();
            m.encode_into(&mut framed);
            assert_eq!(framed, frame(text.as_bytes()), "seed {seed}");
            let back = ClientMsg::decode(text.as_bytes()).unwrap();
            assert_eq!(
                dbg(&back),
                dbg(&client_over_the_wire(&m)),
                "seed {seed}: {text}"
            );
            agree(
                text.as_bytes(),
                ClientMsg::decode(text.as_bytes()),
                ref_client_decode(text.as_bytes()),
            );

            let m = server_msg(&mut rng);
            let text = m.encode();
            assert_eq!(text, ref_text(&ref_server_tree(&m)), "seed {seed}");
            let mut framed = Vec::new();
            m.encode_into(&mut framed);
            assert_eq!(framed, frame(text.as_bytes()), "seed {seed}");
            let back = ServerMsg::decode(text.as_bytes()).unwrap();
            assert_eq!(
                dbg(&back),
                dbg(&server_over_the_wire(&m)),
                "seed {seed}: {text}"
            );
            agree(
                text.as_bytes(),
                ServerMsg::decode(text.as_bytes()),
                ref_server_decode(text.as_bytes()),
            );
        }
    }
}

#[test]
fn any_key_order_whitespace_unknown_keys_and_escapes_read_the_same() {
    for seed in test_seeds(32) {
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..8 {
            let m = client_msg(&mut rng);
            let tree = flock_json::from_str(&m.encode()).unwrap();
            let mut text = String::new();
            scrambled(&mut rng, &mut text, &tree, true);
            let back = ClientMsg::decode(text.as_bytes())
                .unwrap_or_else(|e| panic!("seed {seed}: {e} on {text:?}"));
            assert_eq!(
                dbg(&back),
                dbg(&client_over_the_wire(&m)),
                "seed {seed}: {text:?}"
            );
            agree(
                text.as_bytes(),
                ClientMsg::decode(text.as_bytes()),
                ref_client_decode(text.as_bytes()),
            );

            let m = server_msg(&mut rng);
            let tree = flock_json::from_str(&m.encode()).unwrap();
            let mut text = String::new();
            scrambled(&mut rng, &mut text, &tree, true);
            let back = ServerMsg::decode(text.as_bytes())
                .unwrap_or_else(|e| panic!("seed {seed}: {e} on {text:?}"));
            assert_eq!(
                dbg(&back),
                dbg(&server_over_the_wire(&m)),
                "seed {seed}: {text:?}"
            );
            agree(
                text.as_bytes(),
                ServerMsg::decode(text.as_bytes()),
                ref_server_decode(text.as_bytes()),
            );
        }
    }
}

#[test]
fn truncated_and_mutated_messages_are_refused_or_read_as_the_tree_reads_them() {
    for seed in test_seeds(32) {
        let mut rng = StdRng::seed_from_u64(seed);
        let m = client_msg(&mut rng);
        let text = m.encode();
        let tree = flock_json::from_str(&text).unwrap();
        let mut scrambled_text = String::new();
        scrambled(&mut rng, &mut scrambled_text, &tree, true);
        for t in [&text, &scrambled_text] {
            for end in 0..t.trim_end_matches([' ', '\n', '\r', '\t']).len() {
                assert!(
                    ClientMsg::decode(&t.as_bytes()[..end]).is_err(),
                    "seed {seed}: prefix {end} of {t:?}"
                );
            }
            mutate(&mut rng, t, |b| {
                agree(b, ClientMsg::decode(b), ref_client_decode(b))
            });
        }

        let m = server_msg(&mut rng);
        let text = m.encode();
        let tree = flock_json::from_str(&text).unwrap();
        let mut scrambled_text = String::new();
        scrambled(&mut rng, &mut scrambled_text, &tree, true);
        for t in [&text, &scrambled_text] {
            for end in 0..t.trim_end_matches([' ', '\n', '\r', '\t']).len() {
                assert!(
                    ServerMsg::decode(&t.as_bytes()[..end]).is_err(),
                    "seed {seed}: prefix {end} of {t:?}"
                );
            }
            mutate(&mut rng, t, |b| {
                agree(b, ServerMsg::decode(b), ref_server_decode(b))
            });
        }
    }
}

/// Shapes the protocol never sends are refused where the message needs
/// them and ignored where it does not, as the tree reading does.
#[test]
fn misshapen_fields_are_refused_only_where_needed() {
    for (text, refused) in [
        (r#"{"type":"error","error":null}"#, true),
        (r#"{"type":"error","error":{}}"#, true),
        (r#"{"type":"error","error":{"code":"plan"}}"#, true),
        (
            r#"{"type":"error","error":{"code":1,"message":"m","retryable":false}}"#,
            true,
        ),
        (
            r#"{"type":"error","error":{"code":"plan","message":"m","retryable":"yes"}}"#,
            true,
        ),
        (
            r#"{"type":"error","error":{"code":"plan","message":"m","retryable":true,"x":[1]}}"#,
            false,
        ),
        (r#"{"type":"goodbye","rows":{"not":"rows"},"ok":7}"#, false),
        (
            r#"{"type":"rows","columns":[],"rows":[[{"date":1.5}]],"rows_affected":0,"message":""}"#,
            true,
        ),
        (
            r#"{"type":"rows","columns":[],"rows":[[{"date":2147483648}]],"rows_affected":0,"message":""}"#,
            true,
        ),
        (
            r#"{"type":"rows","columns":[],"rows":[[{"x":1,"date":-3}]],"rows_affected":0,"message":""}"#,
            false,
        ),
        (
            r#"{"type":"rows","columns":[],"rows":[[[1]]],"rows_affected":0,"message":""}"#,
            true,
        ),
        (
            r#"{"type":"rows","columns":[],"rows":[[1],2],"rows_affected":0,"message":""}"#,
            true,
        ),
        (
            r#"{"type":"rows","columns":[{"name":"a"}],"rows":[],"rows_affected":0,"message":""}"#,
            true,
        ),
        (
            r#"{"type":"rows","columns":[],"rows":[],"rows_affected":-1,"message":""}"#,
            true,
        ),
        (r#"{"type":"prepared","stmt":1.0,"params":0}"#, true),
        (
            r#"{"type":"prepared","stmt":18446744073709551615,"params":0}"#,
            false,
        ),
        (r#"{"type":"nope"}"#, true),
        (r#"{"type":7}"#, true),
        (r#"["type","goodbye"]"#, true),
        (r#"{"type":"goodbye"} x"#, true),
    ] {
        let direct = ServerMsg::decode(text.as_bytes());
        assert_eq!(direct.is_err(), refused, "{text}: {direct:?}");
        agree(text.as_bytes(), direct, ref_server_decode(text.as_bytes()));
    }
    for (text, refused) in [
        (
            r#"{"type":"execute","stmt":1,"params":[18446744073709551615,-0.0,1e400]}"#,
            true,
        ),
        (
            r#"{"type":"execute","stmt":1,"params":[18446744073709551615,-0.0,1E2]}"#,
            false,
        ),
        (r#"{"type":"execute","stmt":-1,"params":[]}"#, true),
        (r#"{"type":"cancel","session":1}"#, true),
        (r#"{"type":"hello","user":"\ud800"}"#, true),
        (r#"{"type":"hello","user":"😀","protocol":"any"}"#, false),
    ] {
        let direct = ClientMsg::decode(text.as_bytes());
        assert_eq!(direct.is_err(), refused, "{text}: {direct:?}");
        agree(text.as_bytes(), direct, ref_client_decode(text.as_bytes()));
    }
}

/// A typed error sent as `ServerMsg::Error` comes back as itself.
#[test]
fn errors_keep_their_variant_over_the_wire() {
    for e in [
        SqlError::Parse("near \"x\"".into()),
        SqlError::Plan("no such column".into()),
        SqlError::AccessDenied("unknown user 'é'".into()),
        SqlError::Admission("full".into()),
        SqlError::Budget("limit\n".into()),
        SqlError::Execution("division by zero".into()),
    ] {
        let text = ServerMsg::Error(e.to_wire()).encode();
        match ServerMsg::decode(text.as_bytes()).unwrap() {
            ServerMsg::Error(back) => {
                assert_eq!(back, e.to_wire());
                assert_eq!(back.to_sql_error(), e);
            }
            other => panic!("{text} read as {other:?}"),
        }
    }
}

/// Several frames sent back to back and read in cuts of any size come
/// out whole and in order, and the reader holds nothing after the last.
#[test]
fn the_frame_reader_splits_a_pipelined_stream_at_any_cut() {
    struct Cuts<'a> {
        data: &'a [u8],
        pos: usize,
        rng: StdRng,
    }
    impl std::io::Read for Cuts<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.rng.gen_range(0..4u32) == 0 {
                return Err(std::io::ErrorKind::WouldBlock.into());
            }
            let n = self
                .rng
                .gen_range(1..300usize)
                .min(buf.len())
                .min(self.data.len() - self.pos);
            buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }
    for seed in test_seeds(32) {
        let mut rng = StdRng::seed_from_u64(seed);
        let msgs: Vec<ServerMsg> = (0..rng.gen_range(1..12usize))
            .map(|_| server_msg(&mut rng))
            .collect();
        let mut stream = Vec::new();
        for m in &msgs {
            m.encode_into(&mut stream);
        }
        // One large frame past the read-ahead, now and then.
        let big = ClientMsg::Query {
            sql: "x".repeat(rng.gen_range(0..20_000usize)),
        };
        big.encode_into(&mut stream);
        let mut src = Cuts {
            data: &stream,
            pos: 0,
            rng: StdRng::seed_from_u64(seed ^ 0x5eed),
        };
        let mut reader = FrameReader::new(DEFAULT_MAX_FRAME);
        let mut got = Vec::new();
        while got.len() < msgs.len() + 1 {
            if let Some(payload) = reader.poll(&mut src).unwrap() {
                got.push(payload);
            }
        }
        for (m, payload) in msgs.iter().zip(&got) {
            assert_eq!(payload, m.encode().as_bytes(), "seed {seed}");
        }
        assert_eq!(got[msgs.len()], big.encode().as_bytes(), "seed {seed}");
        assert_eq!(reader.buffered(), 0, "seed {seed}");
        assert!(matches!(
            reader.poll(&mut src),
            Err(FrameError::Closed) | Ok(None)
        ));
    }
}
