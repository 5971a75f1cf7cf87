//! The Flock wire protocol: length-prefixed, checksummed frames carrying
//! JSON documents.
//!
//! # Frame layout
//!
//! Every message — in both directions — is one frame:
//!
//! ```text
//! [payload_len: u32 LE][checksum64(payload): u64 LE][payload bytes]
//! ```
//!
//! This is the WAL's record frame — the one definition in
//! [`flock_sql::wal`] — applied to a socket: the length prefix delimits
//! messages on the byte stream and the checksum rejects corruption
//! *before* the payload is parsed. The payload is a single JSON object
//! with a `"type"` tag. Protocol 1 checksummed frames with FNV-1a;
//! protocol 2 uses the word-at-a-time [`checksum64`], so a frame from a
//! protocol-1 peer fails the checksum and is rejected as corrupt.
//!
//! # JSON, straight from and into the messages
//!
//! A message is printed with [`flock_json::Writer`] and read with
//! [`flock_json::Reader`], the JSON crate's one printer and one grammar,
//! with no `flock_json::Value` tree in between. The byte layout is pinned
//! here (the wire contract): every object prints its keys sorted, as a
//! tree would. Every decoder is total: keys may come in any order with
//! any whitespace, unknown keys are skipped, a repeated key keeps its
//! last value, and malformed input of any shape is a
//! [`FrameError::BadMessage`], never a panic. SQL `Value`s travel with
//! just enough tagging to round-trip the engine's types:
//! `Null`/`Bool`/`Int`/`Text` map to their JSON natives, `Float` to a
//! JSON float (non-finite floats degrade to `null`, as JSON has no
//! spelling for them), and `Date` to `{"date": days}`. A statement's
//! result is written straight from its batch's columns
//! ([`encode_result_into`]) through the same layout and the same
//! per-value writer as [`ServerMsg::Rows`], so both print the same bytes.

use flock_json::{Kind, Reader, Writer};
use flock_sql::types::ValueRef;
use flock_sql::wal::{checksum64, frame_header, frame_with};
use flock_sql::{QueryResult, Value as SqlValue, WireError};
use std::borrow::Cow;
use std::io::{self, Read};

/// Bytes before the payload: `u32` length + `u64` checksum.
pub use flock_sql::wal::FRAME_HEADER;

/// Default cap on a single frame's payload. Oversized length prefixes are
/// rejected *before* any allocation, so a hostile 4 GiB prefix costs the
/// server nothing.
pub const DEFAULT_MAX_FRAME: usize = 1 << 20;

/// Protocol version spoken by this build; sent in `Hello` and `Welcome`.
/// Version 2 changed the frame checksum (see the module docs).
pub const PROTOCOL_VERSION: u32 = 2;

// ---------------------------------------------------------------------------
// Frame errors
// ---------------------------------------------------------------------------

/// Why a frame could not be produced from the byte stream.
#[derive(Debug)]
pub enum FrameError {
    /// Clean EOF on a frame boundary — the peer hung up, no data lost.
    Closed,
    /// EOF mid-frame: the peer died between header and payload.
    Truncated,
    /// The length prefix exceeds the configured maximum.
    TooLarge { declared: usize, max: usize },
    /// Payload bytes do not hash to the header checksum.
    BadChecksum,
    /// The payload is not a JSON object with a known `"type"` tag.
    BadMessage(String),
    /// Underlying socket error (not a timeout — timeouts are surfaced as
    /// `Ok(None)` by [`FrameReader::poll`] so callers can keep waiting).
    Io(io::Error),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Closed => write!(f, "connection closed"),
            FrameError::Truncated => write!(f, "truncated frame"),
            FrameError::TooLarge { declared, max } => {
                write!(f, "frame of {declared} bytes exceeds max {max}")
            }
            FrameError::BadChecksum => write!(f, "frame checksum mismatch"),
            FrameError::BadMessage(m) => write!(f, "bad message: {m}"),
            FrameError::Io(e) => write!(f, "io error: {e}"),
        }
    }
}

impl FrameError {
    /// The stable error code a server sends back before closing, so even a
    /// protocol-level reject is machine-readable.
    pub fn to_wire(&self) -> WireError {
        WireError {
            code: "protocol".to_string(),
            message: self.to_string(),
            retryable: false,
        }
    }
}

// ---------------------------------------------------------------------------
// Frame I/O
// ---------------------------------------------------------------------------

/// Serialize one frame around a payload.
pub fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_HEADER + payload.len());
    flock_sql::wal::frame(&mut out, payload);
    out
}

/// Bytes a read asks for while the next frame's length is unknown:
/// enough for a typical request or reply in one `read`.
const READ_AHEAD: usize = 4096;

/// Incremental frame reader over a non-blocking-ish stream (a socket with
/// a short read timeout). Bytes received before a timeout are buffered, so
/// a frame that arrives in dribbles across many poll ticks is reassembled
/// losslessly; the caller regains control on every tick to check shutdown
/// flags and idle deadlines.
///
/// The socket reads straight into the reader's own buffer, grown to what
/// the pending frame's header declares, and a frame is consumed by moving
/// an offset: each payload byte is copied once, into the `Vec` that
/// [`poll`](Self::poll) returns.
pub struct FrameReader {
    /// Received, unconsumed bytes are `buf[start..end]`; the rest of
    /// `buf` is room for the next read.
    buf: Vec<u8>,
    start: usize,
    end: usize,
    max_frame: usize,
}

impl FrameReader {
    pub fn new(max_frame: usize) -> FrameReader {
        FrameReader { buf: Vec::new(), start: 0, end: 0, max_frame }
    }

    /// Try to complete one frame. Returns:
    /// * `Ok(Some(payload))` — a whole, checksum-verified frame;
    /// * `Ok(None)` — no complete frame yet (timeout tick); call again;
    /// * `Err(_)` — EOF, corruption, or a hard socket error.
    pub fn poll<R: Read>(&mut self, r: &mut R) -> Result<Option<Vec<u8>>, FrameError> {
        // First drain anything already buffered, then read more.
        loop {
            let pending = self.pending_frame()?;
            if let Some((len, want)) = pending.filter(|&(len, _)| self.buffered() >= len) {
                return self.take(len, want).map(Some);
            }
            self.make_room(pending.map_or(READ_AHEAD, |(len, _)| len.max(READ_AHEAD)));
            match r.read(&mut self.buf[self.end..]) {
                Ok(0) => {
                    return Err(if self.start == self.end {
                        FrameError::Closed
                    } else {
                        FrameError::Truncated
                    });
                }
                Ok(n) => self.end += n,
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    return Ok(None);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(FrameError::Io(e)),
            }
        }
    }

    /// The frame at `start`, once its header is in: its length, header
    /// included, and the payload checksum it declares. A declared length
    /// over the cap is rejected from the header alone, before any room is
    /// made for it.
    fn pending_frame(&self) -> Result<Option<(usize, u64)>, FrameError> {
        let Some(header) = self.buf[self.start..self.end].first_chunk() else {
            return Ok(None);
        };
        let (len, want) = frame_header(header);
        if len > self.max_frame {
            return Err(FrameError::TooLarge { declared: len, max: self.max_frame });
        }
        Ok(Some((FRAME_HEADER + len, want)))
    }

    /// Consumes the whole frame of `len` bytes at `start`.
    fn take(&mut self, len: usize, want: u64) -> Result<Vec<u8>, FrameError> {
        let payload = &self.buf[self.start + FRAME_HEADER..self.start + len];
        if checksum64(payload) != want {
            return Err(FrameError::BadChecksum);
        }
        let payload = payload.to_vec();
        self.start += len;
        if self.start == self.end {
            (self.start, self.end) = (0, 0);
        }
        Ok(payload)
    }

    /// Makes `buf` hold at least `bytes` bytes from `start`: the
    /// unconsumed bytes slide to the front, then `buf` grows if that is
    /// not room enough.
    fn make_room(&mut self, bytes: usize) {
        if self.start + bytes > self.buf.len() {
            self.buf.copy_within(self.start..self.end, 0);
            (self.start, self.end) = (0, self.end - self.start);
            if bytes > self.buf.len() {
                self.buf.resize(bytes, 0);
            }
        }
    }

    /// Bytes buffered but not yet consumed (tests use this).
    pub fn buffered(&self) -> usize {
        self.end - self.start
    }
}

// ---------------------------------------------------------------------------
// SQL values on the wire
// ---------------------------------------------------------------------------

/// Writes one engine value (`None` is NULL).
fn write_value(w: &mut Writer<'_>, v: Option<ValueRef<'_>>) {
    match v {
        None => w.null(),
        Some(ValueRef::Bool(b)) => w.bool(b),
        Some(ValueRef::Int(i)) => w.i64(i),
        Some(ValueRef::Float(f)) => w.f64(f),
        Some(ValueRef::Text(s)) => w.str(s),
        Some(ValueRef::Date(d)) => {
            w.begin_object();
            w.key("date");
            w.i64(i64::from(d));
            w.end_object();
        }
    }
}

fn write_values(w: &mut Writer<'_>, vs: &[SqlValue]) {
    w.begin_array();
    vs.iter().for_each(|v| write_value(w, v.as_value_ref()));
    w.end_array();
}

/// A value read from a message: `Ok(None)` when it is well-formed JSON of
/// a shape the protocol never puts there (the value is consumed whole),
/// so a message is refused only if its type needs the field.
type Field<T> = flock_json::Result<Option<T>>;

/// `read` the next value when it is of `kind`; skip it otherwise.
fn read_if<'a, T>(
    r: &mut Reader<'a>,
    kind: Kind,
    read: impl FnOnce(&mut Reader<'a>) -> Field<T>,
) -> Field<T> {
    match r.peek()? == kind {
        true => read(r),
        false => r.skip().map(|()| None),
    }
}

fn read_u64(r: &mut Reader<'_>) -> Field<u64> {
    read_if(r, Kind::Number, |r| Ok(r.number()?.as_u64()))
}

fn read_i64(r: &mut Reader<'_>) -> Field<i64> {
    read_if(r, Kind::Number, |r| Ok(r.number()?.as_i64()))
}

fn read_bool(r: &mut Reader<'_>) -> Field<bool> {
    read_if(r, Kind::Bool, |r| r.bool().map(Some))
}

fn read_str<'a>(r: &mut Reader<'a>) -> Field<Cow<'a, str>> {
    read_if(r, Kind::String, |r| r.str().map(Some))
}

fn read_string(r: &mut Reader<'_>) -> Field<String> {
    Ok(read_str(r)?.map(Cow::into_owned))
}

/// Walks an object, handing each key to `member`, which must read or
/// skip its value; `None` (the value skipped) when it is not an object.
fn read_object<'a>(
    r: &mut Reader<'a>,
    mut member: impl FnMut(&str, &mut Reader<'a>) -> flock_json::Result<()>,
) -> Field<()> {
    read_if(r, Kind::Object, |r| {
        r.begin_object()?;
        while let Some(key) = r.next_key()? {
            member(&key, r)?;
        }
        Ok(Some(()))
    })
}

/// An array whose every item `item` reads; `None` when it is not an
/// array or an item has another shape (the rest is still consumed).
fn read_array<'a, T>(
    r: &mut Reader<'a>,
    mut item: impl FnMut(&mut Reader<'a>) -> Field<T>,
) -> Field<Vec<T>> {
    read_if(r, Kind::Array, |r| {
        r.begin_array()?;
        let mut items = Some(Vec::new());
        while r.next_item()? {
            match &mut items {
                Some(done) => match item(r)? {
                    Some(v) => done.push(v),
                    None => items = None,
                },
                None => r.skip()?,
            }
        }
        Ok(items)
    })
}

/// One engine value: JSON natives, a float for a number past `i64`, and
/// `{"date": days}` (other keys ignored) for a date.
fn read_value(r: &mut Reader<'_>) -> Field<SqlValue> {
    Ok(match r.peek()? {
        Kind::Null => r.null().map(|()| Some(SqlValue::Null))?,
        Kind::Bool => Some(SqlValue::Bool(r.bool()?)),
        Kind::String => Some(SqlValue::Text(r.str()?.into_owned())),
        Kind::Number => {
            let n = r.number()?;
            n.as_i64().map(SqlValue::Int).or(n.as_f64().map(SqlValue::Float))
        }
        Kind::Object => {
            let mut days = None;
            let object = read_object(r, |key, r| {
                match key {
                    "date" => days = Some(read_i64(r)?),
                    _ => r.skip()?,
                }
                Ok(())
            })?;
            let days = object.and(days.flatten()).and_then(|d| i32::try_from(d).ok());
            days.map(SqlValue::Date)
        }
        Kind::Array => r.skip().map(|()| None)?,
    })
}

fn read_values(r: &mut Reader<'_>) -> Field<Vec<SqlValue>> {
    read_array(r, read_value)
}

/// Reads a whole message object with `member` (as [`read_object`]);
/// malformed JSON, trailing bytes or a non-object are refused.
fn read_message<'a>(
    payload: &'a [u8],
    member: impl FnMut(&str, &mut Reader<'a>) -> flock_json::Result<()>,
) -> Result<(), FrameError> {
    let invalid = |e: flock_json::Error| FrameError::BadMessage(format!("invalid JSON: {e}"));
    let mut r = Reader::new(payload);
    let object = read_object(&mut r, member).map_err(invalid)?;
    r.finish().map_err(invalid)?;
    object.ok_or_else(missing_type)
}

fn missing_type() -> FrameError {
    FrameError::BadMessage("missing \"type\" tag".into())
}

/// A field `typ` needs: present and of the protocol's shape.
fn required<T>(field: Option<Option<T>>, typ: &str, name: &str) -> Result<T, FrameError> {
    field
        .flatten()
        .ok_or_else(|| FrameError::BadMessage(format!("{typ}: bad \"{name}\"")))
}

/// The payload text of a message `write` prints.
fn to_text(write: impl FnOnce(&mut Writer<'_>)) -> String {
    let mut out = Vec::new();
    write(&mut Writer::new(&mut out));
    // The writer copies whole `&str`s and ASCII, so this is never lossy.
    String::from_utf8(out).unwrap_or_else(|e| String::from_utf8_lossy(e.as_bytes()).into_owned())
}

// ---------------------------------------------------------------------------
// Messages
// ---------------------------------------------------------------------------

/// Client → server messages.
#[derive(Debug, Clone, PartialEq)]
pub enum ClientMsg {
    /// Open a session as a catalog user. Must be the first message.
    Hello { user: String },
    /// Execute one SQL statement.
    Query { sql: String },
    /// Parse + plan a parameterized statement into the plan cache.
    Prepare { sql: String },
    /// Execute a previously prepared statement with bound parameters.
    Execute { stmt: u64, params: Vec<SqlValue> },
    /// Drop a prepared statement handle.
    CloseStmt { stmt: u64 },
    /// Out-of-band cancellation: sent *instead of* `Hello` on a fresh
    /// connection, naming the victim session and proving authority with
    /// the `cancel_key` that `Welcome` handed to that session's owner.
    Cancel { session: u64, key: u64 },
    /// Orderly close.
    Goodbye,
}

impl ClientMsg {
    /// The payload text (keys sorted).
    pub fn encode(&self) -> String {
        to_text(|w| self.write(w))
    }

    /// Appends this message as one whole frame to `out`, printed in place.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        frame_with(out, |out| self.write(&mut Writer::new(out)));
    }

    fn write(&self, w: &mut Writer<'_>) {
        w.begin_object();
        match self {
            ClientMsg::Hello { user } => {
                w.key("protocol");
                w.u64(u64::from(PROTOCOL_VERSION));
                w.key("type");
                w.str("hello");
                w.key("user");
                w.str(user);
            }
            ClientMsg::Query { sql } => {
                w.key("sql");
                w.str(sql);
                w.key("type");
                w.str("query");
            }
            ClientMsg::Prepare { sql } => {
                w.key("sql");
                w.str(sql);
                w.key("type");
                w.str("prepare");
            }
            ClientMsg::Execute { stmt, params } => write_execute_fields(w, *stmt, params),
            ClientMsg::CloseStmt { stmt } => {
                w.key("stmt");
                w.u64(*stmt);
                w.key("type");
                w.str("close_stmt");
            }
            ClientMsg::Cancel { session, key } => {
                w.key("key");
                w.u64(*key);
                w.key("session");
                w.u64(*session);
                w.key("type");
                w.str("cancel");
            }
            ClientMsg::Goodbye => {
                w.key("type");
                w.str("goodbye");
            }
        }
        w.end_object();
    }

    pub fn decode(payload: &[u8]) -> Result<ClientMsg, FrameError> {
        let (mut typ, mut user, mut sql, mut stmt, mut params, mut session, mut key) =
            (None, None, None, None, None, None, None);
        read_message(payload, |name, r| {
            match name {
                "type" => typ = Some(read_str(r)?),
                "user" => user = Some(read_string(r)?),
                "sql" => sql = Some(read_string(r)?),
                "stmt" => stmt = Some(read_u64(r)?),
                "params" => params = Some(read_values(r)?),
                "session" => session = Some(read_u64(r)?),
                "key" => key = Some(read_u64(r)?),
                _ => r.skip()?,
            }
            Ok(())
        })?;
        let typ = typ.flatten().ok_or_else(missing_type)?;
        let typ = &*typ;
        match typ {
            "hello" => Ok(ClientMsg::Hello { user: required(user, typ, "user")? }),
            "query" => Ok(ClientMsg::Query { sql: required(sql, typ, "sql")? }),
            "prepare" => Ok(ClientMsg::Prepare { sql: required(sql, typ, "sql")? }),
            "execute" => Ok(ClientMsg::Execute {
                stmt: required(stmt, typ, "stmt")?,
                params: required(params, typ, "params")?,
            }),
            "close_stmt" => Ok(ClientMsg::CloseStmt { stmt: required(stmt, typ, "stmt")? }),
            "cancel" => Ok(ClientMsg::Cancel {
                session: required(session, typ, "session")?,
                key: required(key, typ, "key")?,
            }),
            "goodbye" => Ok(ClientMsg::Goodbye),
            other => Err(FrameError::BadMessage(format!("unknown type \"{other}\""))),
        }
    }
}

/// The members of an `execute` request.
fn write_execute_fields(w: &mut Writer<'_>, stmt: u64, params: &[SqlValue]) {
    w.key("params");
    write_values(w, params);
    w.key("stmt");
    w.u64(stmt);
    w.key("type");
    w.str("execute");
}

/// Appends the frame of `ClientMsg::Execute { stmt, params }` to `out`
/// without the message's own copy of `params`.
pub(crate) fn encode_execute_into(stmt: u64, params: &[SqlValue], out: &mut Vec<u8>) {
    frame_with(out, |out| {
        let w = &mut Writer::new(out);
        w.begin_object();
        write_execute_fields(w, stmt, params);
        w.end_object();
    });
}

/// One column of a result set: name + declared type.
#[derive(Debug, Clone, PartialEq)]
pub struct WireColumn {
    pub name: String,
    pub dtype: String,
}

/// A result set flattened for the wire.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct WireRows {
    pub columns: Vec<WireColumn>,
    pub rows: Vec<Vec<SqlValue>>,
    pub rows_affected: u64,
    pub message: String,
}

/// Server → client messages.
#[derive(Debug, Clone, PartialEq)]
pub enum ServerMsg {
    /// Session opened. `cancel_key` authorizes out-of-band `Cancel`.
    Welcome { session: u64, cancel_key: u64, server: String },
    /// A statement's result.
    Rows(WireRows),
    /// A statement was prepared; execute it by handle.
    Prepared { stmt: u64, params: u64 },
    /// Acknowledges `CloseStmt`.
    StmtClosed,
    /// Acknowledges `Cancel`: whether the victim session existed, the key
    /// matched, and the flag was raised.
    CancelAck { ok: bool },
    /// A typed failure. SQL errors leave the connection usable; protocol
    /// errors are followed by the server closing it.
    Error(WireError),
    /// Orderly close (response to `Goodbye`, or server shutdown).
    Goodbye,
}

impl ServerMsg {
    /// The payload text (keys sorted).
    pub fn encode(&self) -> String {
        to_text(|w| self.write(w))
    }

    /// Appends this message as one whole frame to `out`, printed in place.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        frame_with(out, |out| self.write(&mut Writer::new(out)));
    }

    fn write(&self, w: &mut Writer<'_>) {
        w.begin_object();
        match self {
            ServerMsg::Welcome { session, cancel_key, server } => {
                w.key("cancel_key");
                w.u64(*cancel_key);
                w.key("protocol");
                w.u64(u64::from(PROTOCOL_VERSION));
                w.key("server");
                w.str(server);
                w.key("session");
                w.u64(*session);
                w.key("type");
                w.str("welcome");
            }
            ServerMsg::Rows(r) => {
                let columns = r.columns.iter().map(|c| (c.name.as_str(), c.dtype.as_str()));
                let row = |w: &mut Writer<'_>, i: usize| {
                    r.rows[i].iter().for_each(|v| write_value(w, v.as_value_ref()))
                };
                write_rows_fields(w, columns, r.rows.len(), row, r.rows_affected, &r.message);
            }
            ServerMsg::Prepared { stmt, params } => {
                w.key("params");
                w.u64(*params);
                w.key("stmt");
                w.u64(*stmt);
                w.key("type");
                w.str("prepared");
            }
            ServerMsg::StmtClosed => {
                w.key("type");
                w.str("stmt_closed");
            }
            ServerMsg::CancelAck { ok } => {
                w.key("ok");
                w.bool(*ok);
                w.key("type");
                w.str("cancel_ack");
            }
            ServerMsg::Error(e) => {
                w.key("error");
                w.begin_object();
                w.key("code");
                w.str(&e.code);
                w.key("message");
                w.str(&e.message);
                w.key("retryable");
                w.bool(e.retryable);
                w.end_object();
                w.key("type");
                w.str("error");
            }
            ServerMsg::Goodbye => {
                w.key("type");
                w.str("goodbye");
            }
        }
        w.end_object();
    }

    pub fn decode(payload: &[u8]) -> Result<ServerMsg, FrameError> {
        let (mut typ, mut session, mut cancel_key, mut server) = (None, None, None, None);
        let (mut columns, mut rows, mut rows_affected, mut message) = (None, None, None, None);
        let (mut stmt, mut params, mut ok, mut error) = (None, None, None, None);
        read_message(payload, |name, r| {
            match name {
                "type" => typ = Some(read_str(r)?),
                "session" => session = Some(read_u64(r)?),
                "cancel_key" => cancel_key = Some(read_u64(r)?),
                "server" => server = Some(read_string(r)?),
                "columns" => columns = Some(read_array(r, read_column)?),
                "rows" => rows = Some(read_array(r, read_values)?),
                "rows_affected" => rows_affected = Some(read_u64(r)?),
                "message" => message = Some(read_string(r)?),
                "stmt" => stmt = Some(read_u64(r)?),
                "params" => params = Some(read_u64(r)?),
                "ok" => ok = Some(read_bool(r)?),
                "error" => error = Some(read_error(r)?),
                _ => r.skip()?,
            }
            Ok(())
        })?;
        let typ = typ.flatten().ok_or_else(missing_type)?;
        let typ = &*typ;
        match typ {
            "welcome" => Ok(ServerMsg::Welcome {
                session: required(session, typ, "session")?,
                cancel_key: required(cancel_key, typ, "cancel_key")?,
                server: required(server, typ, "server")?,
            }),
            "rows" => Ok(ServerMsg::Rows(WireRows {
                columns: required(columns, typ, "columns")?,
                rows: required(rows, typ, "rows")?,
                rows_affected: required(rows_affected, typ, "rows_affected")?,
                message: required(message, typ, "message")?,
            })),
            "prepared" => Ok(ServerMsg::Prepared {
                stmt: required(stmt, typ, "stmt")?,
                params: required(params, typ, "params")?,
            }),
            "stmt_closed" => Ok(ServerMsg::StmtClosed),
            "cancel_ack" => Ok(ServerMsg::CancelAck { ok: required(ok, typ, "ok")? }),
            "error" => Ok(ServerMsg::Error(required(error, typ, "error")?)),
            "goodbye" => Ok(ServerMsg::Goodbye),
            other => Err(FrameError::BadMessage(format!("unknown type \"{other}\""))),
        }
    }
}

/// The members of a `rows` message, its one layout: the columns as
/// `(name, dtype)`, then `rows` rows whose values `row(w, i)` writes.
fn write_rows_fields<'c>(
    w: &mut Writer<'_>,
    columns: impl Iterator<Item = (&'c str, &'c str)>,
    rows: usize,
    mut row: impl FnMut(&mut Writer<'_>, usize),
    rows_affected: u64,
    message: &str,
) {
    w.key("columns");
    w.begin_array();
    for (name, dtype) in columns {
        w.begin_object();
        w.key("dtype");
        w.str(dtype);
        w.key("name");
        w.str(name);
        w.end_object();
    }
    w.end_array();
    w.key("message");
    w.str(message);
    w.key("rows");
    w.begin_array();
    for i in 0..rows {
        w.begin_array();
        row(w, i);
        w.end_array();
    }
    w.end_array();
    w.key("rows_affected");
    w.u64(rows_affected);
    w.key("type");
    w.str("rows");
}

/// Appends the frame of a statement's `rows` reply to `out`, written
/// straight from its batch's columns: the bytes of
/// `ServerMsg::Rows(..).encode()` for the same rows, with no row ever
/// gathered into values and no text copied.
pub fn encode_result_into(result: &QueryResult, out: &mut Vec<u8>) {
    let batch = result.batch.as_ref();
    let schema = batch.map_or(&[][..], |b| b.schema().columns());
    let columns = schema.iter().map(|c| (c.name.as_str(), c.data_type.name()));
    let rows = batch.map_or(0, |b| b.num_rows());
    let row = |w: &mut Writer<'_>, i: usize| {
        for col in batch.map_or(&[][..], |b| b.columns()) {
            write_value(w, col.value_ref(i));
        }
    };
    let (affected, message) = (result.rows_affected as u64, result.message.as_str());
    frame_with(out, |out| {
        let w = &mut Writer::new(out);
        w.begin_object();
        write_rows_fields(w, columns, rows, row, affected, message);
        w.end_object();
    });
}

fn read_column(r: &mut Reader<'_>) -> Field<WireColumn> {
    let (mut name, mut dtype) = (None, None);
    let object = read_object(r, |key, r| {
        match key {
            "name" => name = Some(read_string(r)?),
            "dtype" => dtype = Some(read_string(r)?),
            _ => r.skip()?,
        }
        Ok(())
    })?;
    Ok(object.and_then(|()| Some(WireColumn { name: name??, dtype: dtype?? })))
}

fn read_error(r: &mut Reader<'_>) -> Field<WireError> {
    let (mut code, mut message, mut retryable) = (None, None, None);
    let object = read_object(r, |key, r| {
        match key {
            "code" => code = Some(read_string(r)?),
            "message" => message = Some(read_string(r)?),
            "retryable" => retryable = Some(read_bool(r)?),
            _ => r.skip()?,
        }
        Ok(())
    })?;
    Ok(object.and_then(|()| {
        Some(WireError { code: code??, message: message??, retryable: retryable?? })
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    // Compare by Debug: `SqlValue`'s PartialEq has SQL semantics where
    // NULL != NULL, which is wrong for asserting wire fidelity.
    fn roundtrip_client(msg: ClientMsg) {
        let bytes = msg.encode().to_string().into_bytes();
        let back = ClientMsg::decode(&bytes).unwrap();
        assert_eq!(format!("{back:?}"), format!("{msg:?}"));
    }

    fn roundtrip_server(msg: ServerMsg) {
        let bytes = msg.encode().to_string().into_bytes();
        let back = ServerMsg::decode(&bytes).unwrap();
        assert_eq!(format!("{back:?}"), format!("{msg:?}"));
    }

    #[test]
    fn client_messages_roundtrip() {
        roundtrip_client(ClientMsg::Hello { user: "alice".into() });
        roundtrip_client(ClientMsg::Query { sql: "SELECT 1".into() });
        roundtrip_client(ClientMsg::Prepare { sql: "SELECT ?".into() });
        roundtrip_client(ClientMsg::Execute {
            stmt: 7,
            params: vec![
                SqlValue::Null,
                SqlValue::Bool(true),
                SqlValue::Int(-42),
                SqlValue::Float(2.5),
                SqlValue::Text("x \"quoted\"\nline".into()),
                SqlValue::Date(19000),
            ],
        });
        roundtrip_client(ClientMsg::CloseStmt { stmt: 7 });
        roundtrip_client(ClientMsg::Cancel { session: 3, key: u64::MAX });
        roundtrip_client(ClientMsg::Goodbye);
    }

    #[test]
    fn server_messages_roundtrip() {
        roundtrip_server(ServerMsg::Welcome {
            session: 1,
            cancel_key: 99,
            server: "flock-serve/0.1".into(),
        });
        roundtrip_server(ServerMsg::Rows(WireRows {
            columns: vec![
                WireColumn { name: "a".into(), dtype: "INT".into() },
                WireColumn { name: "b".into(), dtype: "TEXT".into() },
            ],
            rows: vec![
                vec![SqlValue::Int(1), SqlValue::Text("x".into())],
                vec![SqlValue::Null, SqlValue::Float(0.5)],
            ],
            rows_affected: 0,
            message: "2 rows".into(),
        }));
        roundtrip_server(ServerMsg::Prepared { stmt: 12, params: 2 });
        roundtrip_server(ServerMsg::StmtClosed);
        roundtrip_server(ServerMsg::CancelAck { ok: false });
        roundtrip_server(ServerMsg::Error(WireError {
            code: "admission".into(),
            message: "full".into(),
            retryable: true,
        }));
        roundtrip_server(ServerMsg::Goodbye);
    }

    /// `v` sent as an `execute` parameter and read back.
    fn value_roundtrip(v: SqlValue) -> SqlValue {
        let text = ClientMsg::Execute { stmt: 1, params: vec![v] }.encode();
        match ClientMsg::decode(text.as_bytes()).unwrap() {
            ClientMsg::Execute { mut params, .. } => params.remove(0),
            other => panic!("decoded as {other:?}"),
        }
    }

    #[test]
    fn whole_float_survives_as_float() {
        // 2.0 must not come back as Int(2): the JSON text keeps a ".0".
        assert_eq!(value_roundtrip(SqlValue::Float(2.0)), SqlValue::Float(2.0));
    }

    #[test]
    fn nonfinite_float_degrades_to_null() {
        assert!(matches!(value_roundtrip(SqlValue::Float(f64::NAN)), SqlValue::Null));
    }

    #[test]
    fn frame_reader_reassembles_dribbled_bytes() {
        let payload = ClientMsg::Query { sql: "SELECT 1".into() }.encode().to_string();
        let framed = frame(payload.as_bytes());
        let mut reader = FrameReader::new(DEFAULT_MAX_FRAME);
        // Feed one byte at a time through a cursor that yields WouldBlock
        // after each byte, as a slow socket would.
        struct Dribble<'a> {
            data: &'a [u8],
            pos: usize,
            ready: bool,
        }
        impl Read for Dribble<'_> {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                if !self.ready {
                    self.ready = true;
                    return Err(io::Error::new(io::ErrorKind::WouldBlock, "tick"));
                }
                self.ready = false;
                if self.pos >= self.data.len() {
                    return Ok(0);
                }
                buf[0] = self.data[self.pos];
                self.pos += 1;
                Ok(1)
            }
        }
        let mut src = Dribble { data: &framed, pos: 0, ready: true };
        let mut out = None;
        for _ in 0..(framed.len() * 2 + 4) {
            match reader.poll(&mut src) {
                Ok(Some(p)) => {
                    out = Some(p);
                    break;
                }
                Ok(None) => continue,
                Err(e) => panic!("unexpected {e}"),
            }
        }
        let out = out.expect("frame should complete");
        assert_eq!(out, payload.as_bytes());
        assert_eq!(reader.buffered(), 0);
    }

    #[test]
    fn corrupt_frames_are_typed_rejects() {
        // Bad checksum.
        let mut framed = frame(b"{\"type\":\"goodbye\"}");
        let last = framed.len() - 1;
        framed[last] ^= 0xFF;
        let mut reader = FrameReader::new(DEFAULT_MAX_FRAME);
        let mut cur = io::Cursor::new(framed);
        assert!(matches!(reader.poll(&mut cur), Err(FrameError::BadChecksum)));

        // Oversized declared length: rejected from the header alone.
        let mut hdr = Vec::new();
        hdr.extend_from_slice(&u32::MAX.to_le_bytes());
        hdr.extend_from_slice(&0u64.to_le_bytes());
        let mut reader = FrameReader::new(DEFAULT_MAX_FRAME);
        let mut cur = io::Cursor::new(hdr);
        assert!(matches!(reader.poll(&mut cur), Err(FrameError::TooLarge { .. })));

        // Truncated: header promises more payload than ever arrives.
        let full = frame(b"{\"type\":\"goodbye\"}");
        let cut = &full[..full.len() - 3];
        let mut reader = FrameReader::new(DEFAULT_MAX_FRAME);
        let mut cur = io::Cursor::new(cut.to_vec());
        assert!(matches!(reader.poll(&mut cur), Err(FrameError::Truncated)));

        // Valid frame, garbage JSON payload.
        let garbage = frame(b"\x00\x01\x02 not json");
        let mut reader = FrameReader::new(DEFAULT_MAX_FRAME);
        let mut cur = io::Cursor::new(garbage);
        let payload = reader.poll(&mut cur).unwrap().unwrap();
        assert!(matches!(ClientMsg::decode(&payload), Err(FrameError::BadMessage(_))));

        // Valid JSON, wrong shape.
        let wrong = frame(b"{\"type\":\"execute\",\"stmt\":\"nope\",\"params\":[]}");
        let mut reader = FrameReader::new(DEFAULT_MAX_FRAME);
        let mut cur = io::Cursor::new(wrong);
        let payload = reader.poll(&mut cur).unwrap().unwrap();
        assert!(matches!(ClientMsg::decode(&payload), Err(FrameError::BadMessage(_))));
    }
}
