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
//! # JSON, by hand
//!
//! Documents are built and picked apart at the [`flock_json::Value`] level
//! rather than via derived `Serialize` impls. That pins the byte layout to
//! this module (the wire contract) instead of to derive internals, and it
//! keeps every decoder total: malformed input of any shape surfaces as
//! [`FrameError`], never a panic. SQL `Value`s travel with just enough
//! tagging to round-trip the engine's types: `Null`/`Bool`/`Int`/`Text`
//! map to their JSON natives, `Float` to a JSON float (non-finite floats
//! degrade to `null`, as JSON has no spelling for them), and `Date` to
//! `{"date": days}`.

use flock_sql::wal::{checksum64, frame_header};
use flock_sql::{Value as SqlValue, WireError};
use flock_json::Value as Json;
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

/// Incremental frame reader over a non-blocking-ish stream (a socket with
/// a short read timeout). Bytes received before a timeout are buffered, so
/// a frame that arrives in dribbles across many poll ticks is reassembled
/// losslessly; the caller regains control on every tick to check shutdown
/// flags and idle deadlines.
pub struct FrameReader {
    buf: Vec<u8>,
    max_frame: usize,
}

impl FrameReader {
    pub fn new(max_frame: usize) -> FrameReader {
        FrameReader { buf: Vec::new(), max_frame }
    }

    /// Try to complete one frame. Returns:
    /// * `Ok(Some(payload))` — a whole, checksum-verified frame;
    /// * `Ok(None)` — no complete frame yet (timeout tick); call again;
    /// * `Err(_)` — EOF, corruption, or a hard socket error.
    pub fn poll<R: Read>(&mut self, r: &mut R) -> Result<Option<Vec<u8>>, FrameError> {
        // First drain anything already buffered, then read more.
        loop {
            if let Some(payload) = self.try_extract()? {
                return Ok(Some(payload));
            }
            let mut chunk = [0u8; 4096];
            match r.read(&mut chunk) {
                Ok(0) => {
                    return Err(if self.buf.is_empty() {
                        FrameError::Closed
                    } else {
                        FrameError::Truncated
                    });
                }
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
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

    fn try_extract(&mut self) -> Result<Option<Vec<u8>>, FrameError> {
        let Some(header) = self.buf.first_chunk() else {
            return Ok(None);
        };
        let (len, want) = frame_header(header);
        if len > self.max_frame {
            return Err(FrameError::TooLarge { declared: len, max: self.max_frame });
        }
        if self.buf.len() < FRAME_HEADER + len {
            return Ok(None);
        }
        let payload = self.buf[FRAME_HEADER..FRAME_HEADER + len].to_vec();
        if checksum64(&payload) != want {
            return Err(FrameError::BadChecksum);
        }
        self.buf.drain(..FRAME_HEADER + len);
        Ok(Some(payload))
    }

    /// Bytes buffered but not yet consumed (tests use this).
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }
}

// ---------------------------------------------------------------------------
// SQL value <-> JSON
// ---------------------------------------------------------------------------

/// Encode one engine value for the wire.
pub fn value_to_json(v: &SqlValue) -> Json {
    match v {
        SqlValue::Null => Json::Null,
        SqlValue::Bool(b) => Json::Bool(*b),
        SqlValue::Int(i) => Json::from(*i),
        SqlValue::Float(f) => Json::from(*f),
        SqlValue::Text(s) => Json::String(s.clone()),
        SqlValue::Date(d) => {
            let mut m = flock_json::Map::new();
            m.insert("date".to_string(), Json::from(i64::from(*d)));
            Json::Object(m)
        }
    }
}

/// Decode one wire value; `None` on shapes the protocol never emits.
pub fn value_from_json(v: &Json) -> Option<SqlValue> {
    match v {
        Json::Null => Some(SqlValue::Null),
        Json::Bool(b) => Some(SqlValue::Bool(*b)),
        Json::String(s) => Some(SqlValue::Text(s.clone())),
        Json::Object(_) => {
            let days = v.get("date")?.as_i64()?;
            Some(SqlValue::Date(i32::try_from(days).ok()?))
        }
        _ => {
            if let Some(i) = v.as_i64() {
                Some(SqlValue::Int(i))
            } else {
                v.as_f64().map(SqlValue::Float)
            }
        }
    }
}

fn values_to_json(vs: &[SqlValue]) -> Json {
    Json::Array(vs.iter().map(value_to_json).collect())
}

fn values_from_json(v: &Json) -> Option<Vec<SqlValue>> {
    v.as_array()?.iter().map(value_from_json).collect()
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
    pub fn encode(&self) -> Json {
        let mut m = flock_json::Map::new();
        match self {
            ClientMsg::Hello { user } => {
                m.insert("type".into(), Json::String("hello".into()));
                m.insert("user".into(), Json::String(user.clone()));
                m.insert("protocol".into(), Json::from(u64::from(PROTOCOL_VERSION)));
            }
            ClientMsg::Query { sql } => {
                m.insert("type".into(), Json::String("query".into()));
                m.insert("sql".into(), Json::String(sql.clone()));
            }
            ClientMsg::Prepare { sql } => {
                m.insert("type".into(), Json::String("prepare".into()));
                m.insert("sql".into(), Json::String(sql.clone()));
            }
            ClientMsg::Execute { stmt, params } => {
                m.insert("type".into(), Json::String("execute".into()));
                m.insert("stmt".into(), Json::from(*stmt));
                m.insert("params".into(), values_to_json(params));
            }
            ClientMsg::CloseStmt { stmt } => {
                m.insert("type".into(), Json::String("close_stmt".into()));
                m.insert("stmt".into(), Json::from(*stmt));
            }
            ClientMsg::Cancel { session, key } => {
                m.insert("type".into(), Json::String("cancel".into()));
                m.insert("session".into(), Json::from(*session));
                m.insert("key".into(), Json::from(*key));
            }
            ClientMsg::Goodbye => {
                m.insert("type".into(), Json::String("goodbye".into()));
            }
        }
        Json::Object(m)
    }

    pub fn decode(payload: &[u8]) -> Result<ClientMsg, FrameError> {
        let doc: Json = flock_json::from_slice(payload)
            .map_err(|e| FrameError::BadMessage(format!("invalid JSON: {e}")))?;
        let typ = doc
            .get("type")
            .and_then(|t| t.as_str())
            .ok_or_else(|| FrameError::BadMessage("missing \"type\" tag".into()))?;
        let field = |name: &str| {
            doc.get(name)
                .cloned()
                .ok_or_else(|| FrameError::BadMessage(format!("{typ}: missing \"{name}\"")))
        };
        let str_field = |name: &str| -> Result<String, FrameError> {
            field(name)?
                .as_str()
                .map(str::to_string)
                .ok_or_else(|| FrameError::BadMessage(format!("{typ}: \"{name}\" not a string")))
        };
        let u64_field = |name: &str| -> Result<u64, FrameError> {
            field(name)?
                .as_u64()
                .ok_or_else(|| FrameError::BadMessage(format!("{typ}: \"{name}\" not a u64")))
        };
        match typ {
            "hello" => Ok(ClientMsg::Hello { user: str_field("user")? }),
            "query" => Ok(ClientMsg::Query { sql: str_field("sql")? }),
            "prepare" => Ok(ClientMsg::Prepare { sql: str_field("sql")? }),
            "execute" => Ok(ClientMsg::Execute {
                stmt: u64_field("stmt")?,
                params: values_from_json(&field("params")?).ok_or_else(|| {
                    FrameError::BadMessage("execute: bad \"params\" array".into())
                })?,
            }),
            "close_stmt" => Ok(ClientMsg::CloseStmt { stmt: u64_field("stmt")? }),
            "cancel" => Ok(ClientMsg::Cancel {
                session: u64_field("session")?,
                key: u64_field("key")?,
            }),
            "goodbye" => Ok(ClientMsg::Goodbye),
            other => Err(FrameError::BadMessage(format!("unknown type \"{other}\""))),
        }
    }
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
    pub fn encode(&self) -> Json {
        let mut m = flock_json::Map::new();
        match self {
            ServerMsg::Welcome { session, cancel_key, server } => {
                m.insert("type".into(), Json::String("welcome".into()));
                m.insert("session".into(), Json::from(*session));
                m.insert("cancel_key".into(), Json::from(*cancel_key));
                m.insert("server".into(), Json::String(server.clone()));
                m.insert("protocol".into(), Json::from(u64::from(PROTOCOL_VERSION)));
            }
            ServerMsg::Rows(r) => {
                m.insert("type".into(), Json::String("rows".into()));
                m.insert(
                    "columns".into(),
                    Json::Array(
                        r.columns
                            .iter()
                            .map(|c| {
                                let mut cm = flock_json::Map::new();
                                cm.insert("name".into(), Json::String(c.name.clone()));
                                cm.insert("dtype".into(), Json::String(c.dtype.clone()));
                                Json::Object(cm)
                            })
                            .collect(),
                    ),
                );
                m.insert(
                    "rows".into(),
                    Json::Array(r.rows.iter().map(|row| values_to_json(row)).collect()),
                );
                m.insert("rows_affected".into(), Json::from(r.rows_affected));
                m.insert("message".into(), Json::String(r.message.clone()));
            }
            ServerMsg::Prepared { stmt, params } => {
                m.insert("type".into(), Json::String("prepared".into()));
                m.insert("stmt".into(), Json::from(*stmt));
                m.insert("params".into(), Json::from(*params));
            }
            ServerMsg::StmtClosed => {
                m.insert("type".into(), Json::String("stmt_closed".into()));
            }
            ServerMsg::CancelAck { ok } => {
                m.insert("type".into(), Json::String("cancel_ack".into()));
                m.insert("ok".into(), Json::Bool(*ok));
            }
            ServerMsg::Error(e) => {
                m.insert("type".into(), Json::String("error".into()));
                m.insert("error".into(), e.to_json());
            }
            ServerMsg::Goodbye => {
                m.insert("type".into(), Json::String("goodbye".into()));
            }
        }
        Json::Object(m)
    }

    pub fn decode(payload: &[u8]) -> Result<ServerMsg, FrameError> {
        let doc: Json = flock_json::from_slice(payload)
            .map_err(|e| FrameError::BadMessage(format!("invalid JSON: {e}")))?;
        let typ = doc
            .get("type")
            .and_then(|t| t.as_str())
            .ok_or_else(|| FrameError::BadMessage("missing \"type\" tag".into()))?;
        let bad = |what: &str| FrameError::BadMessage(format!("{typ}: bad \"{what}\""));
        match typ {
            "welcome" => Ok(ServerMsg::Welcome {
                session: doc.get("session").and_then(|v| v.as_u64()).ok_or_else(|| bad("session"))?,
                cancel_key: doc
                    .get("cancel_key")
                    .and_then(|v| v.as_u64())
                    .ok_or_else(|| bad("cancel_key"))?,
                server: doc
                    .get("server")
                    .and_then(|v| v.as_str())
                    .ok_or_else(|| bad("server"))?
                    .to_string(),
            }),
            "rows" => {
                let columns = doc
                    .get("columns")
                    .and_then(|v| v.as_array())
                    .ok_or_else(|| bad("columns"))?
                    .iter()
                    .map(|c| {
                        Some(WireColumn {
                            name: c.get("name")?.as_str()?.to_string(),
                            dtype: c.get("dtype")?.as_str()?.to_string(),
                        })
                    })
                    .collect::<Option<Vec<_>>>()
                    .ok_or_else(|| bad("columns"))?;
                let rows = doc
                    .get("rows")
                    .and_then(|v| v.as_array())
                    .ok_or_else(|| bad("rows"))?
                    .iter()
                    .map(values_from_json)
                    .collect::<Option<Vec<_>>>()
                    .ok_or_else(|| bad("rows"))?;
                Ok(ServerMsg::Rows(WireRows {
                    columns,
                    rows,
                    rows_affected: doc
                        .get("rows_affected")
                        .and_then(|v| v.as_u64())
                        .ok_or_else(|| bad("rows_affected"))?,
                    message: doc
                        .get("message")
                        .and_then(|v| v.as_str())
                        .ok_or_else(|| bad("message"))?
                        .to_string(),
                }))
            }
            "prepared" => Ok(ServerMsg::Prepared {
                stmt: doc.get("stmt").and_then(|v| v.as_u64()).ok_or_else(|| bad("stmt"))?,
                params: doc.get("params").and_then(|v| v.as_u64()).ok_or_else(|| bad("params"))?,
            }),
            "stmt_closed" => Ok(ServerMsg::StmtClosed),
            "cancel_ack" => Ok(ServerMsg::CancelAck {
                ok: doc.get("ok").and_then(|v| v.as_bool()).ok_or_else(|| bad("ok"))?,
            }),
            "error" => {
                let e = doc
                    .get("error")
                    .and_then(WireError::from_json)
                    .ok_or_else(|| bad("error"))?;
                Ok(ServerMsg::Error(e))
            }
            "goodbye" => Ok(ServerMsg::Goodbye),
            other => Err(FrameError::BadMessage(format!("unknown type \"{other}\""))),
        }
    }
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

    #[test]
    fn whole_float_survives_as_float() {
        // 2.0 must not come back as Int(2): the JSON text keeps a ".0".
        let v = value_to_json(&SqlValue::Float(2.0));
        let text = v.to_string();
        let back: Json = flock_json::from_str(&text).unwrap();
        assert_eq!(value_from_json(&back), Some(SqlValue::Float(2.0)));
    }

    #[test]
    fn nonfinite_float_degrades_to_null() {
        let v = value_to_json(&SqlValue::Float(f64::NAN));
        let text = v.to_string();
        let back: Json = flock_json::from_str(&text).unwrap();
        assert!(matches!(value_from_json(&back), Some(SqlValue::Null)));
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
