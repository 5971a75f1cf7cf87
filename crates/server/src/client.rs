//! Blocking client for the Flock wire protocol.
//!
//! Used by `flock-cli`, the connection-storm bench, and the protocol test
//! suite. Errors split so callers can react without string matching:
//! [`ClientError::Sql`] (typed server-side failure — the connection stays
//! usable), [`ClientError::Protocol`] (a reply that does not decode or
//! comes out of sequence), [`ClientError::Frame`] (a reply frame that
//! could not be read — the client closes its socket, and every later call
//! returns [`ClientError::Closed`]), and [`ClientError::Io`].

use crate::protocol::{
    encode_execute_into, ClientMsg, FrameError, FrameReader, ServerMsg, WireRows,
    DEFAULT_MAX_FRAME,
};
use flock_sql::{Value, WireError};
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Client-side failure.
#[derive(Debug)]
pub enum ClientError {
    /// The server answered with a typed SQL error; session still open.
    Sql(WireError),
    /// A reply that does not decode, or a reply of the wrong kind.
    Protocol(String),
    /// A reply frame could not be read (too large, corrupt, cut short, or
    /// the server hung up); the client has closed the connection.
    Frame(FrameError),
    /// The connection was closed by an earlier frame error; reconnect.
    Closed,
    Io(std::io::Error),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Sql(e) => write!(f, "{e}"),
            ClientError::Protocol(m) => write!(f, "protocol error: {m}"),
            ClientError::Frame(e) => write!(f, "protocol error: {e}"),
            ClientError::Closed => write!(f, "connection closed after a protocol error"),
            ClientError::Io(e) => write!(f, "io error: {e}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> Self {
        match e {
            FrameError::Io(io) => ClientError::Io(io),
            other => ClientError::Frame(other),
        }
    }
}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// A prepared-statement handle on the server.
#[derive(Debug, Clone, Copy)]
pub struct StmtHandle {
    pub id: u64,
    pub params: u64,
}

/// One authenticated connection.
pub struct Client {
    stream: TcpStream,
    reader: FrameReader,
    /// The request being sent, framed in place; reused from request to
    /// request.
    out: Vec<u8>,
    session: u64,
    cancel_key: u64,
    server: String,
    /// Set once a reply frame fails to read: the socket is shut down.
    closed: bool,
}

impl Client {
    /// Connect and authenticate. Fails with [`ClientError::Sql`] carrying
    /// `code = "access_denied"` for an unknown user.
    pub fn connect(addr: SocketAddr, user: &str) -> Result<Client, ClientError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        // A generous deadline so a wedged server can't hang the client
        // forever; individual long statements may legitimately take time,
        // so this is minutes, not milliseconds.
        stream.set_read_timeout(Some(Duration::from_secs(600)))?;
        let mut client = Client {
            stream,
            reader: FrameReader::new(DEFAULT_MAX_FRAME),
            out: Vec::new(),
            session: 0,
            cancel_key: 0,
            server: String::new(),
            closed: false,
        };
        match client.roundtrip(&ClientMsg::Hello { user: user.to_string() })? {
            ServerMsg::Welcome { session, cancel_key, server } => {
                client.session = session;
                client.cancel_key = cancel_key;
                client.server = server;
                Ok(client)
            }
            ServerMsg::Error(e) => Err(ClientError::Sql(e)),
            other => Err(ClientError::Protocol(format!("unexpected reply to hello: {other:?}"))),
        }
    }

    /// Server-assigned session id (cancellation target).
    pub fn session_id(&self) -> u64 {
        self.session
    }

    /// Proof-of-authority token for out-of-band [`Client::cancel`].
    pub fn cancel_key(&self) -> u64 {
        self.cancel_key
    }

    /// Server identification from `Welcome`.
    pub fn server_name(&self) -> &str {
        &self.server
    }

    /// Sends the request `encode` frames, and reads the reply. A request
    /// that fails to send, or a reply frame that fails to read or never
    /// comes, leaves the stream at no known frame boundary, so the socket
    /// is shut down and every later call fails with [`ClientError::Closed`].
    fn roundtrip_with(
        &mut self,
        encode: impl FnOnce(&mut Vec<u8>),
    ) -> Result<ServerMsg, ClientError> {
        if self.closed {
            return Err(ClientError::Closed);
        }
        self.out.clear();
        encode(&mut self.out);
        let sent = self.stream.write_all(&self.out).and_then(|()| self.stream.flush());
        let reply = match sent {
            Ok(()) => recv_frame(&mut self.reader, &mut self.stream),
            Err(e) => Err(ClientError::Io(e)),
        };
        if let Err(ClientError::Frame(_) | ClientError::Io(_)) = &reply {
            self.closed = true;
            let _ = self.stream.shutdown(std::net::Shutdown::Both);
        }
        reply
    }

    fn roundtrip(&mut self, msg: &ClientMsg) -> Result<ServerMsg, ClientError> {
        self.roundtrip_with(|out| msg.encode_into(out))
    }

    /// Execute one SQL statement.
    pub fn query(&mut self, sql: &str) -> Result<WireRows, ClientError> {
        match self.roundtrip(&ClientMsg::Query { sql: sql.to_string() })? {
            ServerMsg::Rows(r) => Ok(r),
            ServerMsg::Error(e) => Err(ClientError::Sql(e)),
            other => Err(ClientError::Protocol(format!("unexpected reply to query: {other:?}"))),
        }
    }

    /// Prepare a parameterized statement (server-side plan cache).
    pub fn prepare(&mut self, sql: &str) -> Result<StmtHandle, ClientError> {
        match self.roundtrip(&ClientMsg::Prepare { sql: sql.to_string() })? {
            ServerMsg::Prepared { stmt, params } => Ok(StmtHandle { id: stmt, params }),
            ServerMsg::Error(e) => Err(ClientError::Sql(e)),
            other => Err(ClientError::Protocol(format!("unexpected reply to prepare: {other:?}"))),
        }
    }

    /// Execute a prepared statement with bound parameters.
    pub fn execute(&mut self, stmt: StmtHandle, params: &[Value]) -> Result<WireRows, ClientError> {
        match self.roundtrip_with(|out| encode_execute_into(stmt.id, params, out))? {
            ServerMsg::Rows(r) => Ok(r),
            ServerMsg::Error(e) => Err(ClientError::Sql(e)),
            other => Err(ClientError::Protocol(format!("unexpected reply to execute: {other:?}"))),
        }
    }

    /// Drop a prepared statement.
    pub fn close_stmt(&mut self, stmt: StmtHandle) -> Result<(), ClientError> {
        match self.roundtrip(&ClientMsg::CloseStmt { stmt: stmt.id })? {
            ServerMsg::StmtClosed => Ok(()),
            ServerMsg::Error(e) => Err(ClientError::Sql(e)),
            other => Err(ClientError::Protocol(format!("unexpected reply to close: {other:?}"))),
        }
    }

    /// Orderly close; consumes the client.
    pub fn goodbye(mut self) -> Result<(), ClientError> {
        match self.roundtrip(&ClientMsg::Goodbye)? {
            ServerMsg::Goodbye => Ok(()),
            other => Err(ClientError::Protocol(format!("unexpected reply to goodbye: {other:?}"))),
        }
    }

    /// Out-of-band cancellation: open a *fresh* connection to `addr` and
    /// ask the server to raise `session`'s cancel flag. Returns whether
    /// the server accepted (session alive and key correct). The statement
    /// itself fails on the victim's own connection with code `cancelled`.
    pub fn cancel(addr: SocketAddr, session: u64, key: u64) -> Result<bool, ClientError> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        let mut out = Vec::new();
        ClientMsg::Cancel { session, key }.encode_into(&mut out);
        stream.write_all(&out)?;
        stream.flush()?;
        match recv_frame(&mut FrameReader::new(DEFAULT_MAX_FRAME), &mut stream)? {
            ServerMsg::CancelAck { ok } => Ok(ok),
            other => Err(ClientError::Protocol(format!("unexpected reply to cancel: {other:?}"))),
        }
    }
}

/// Read one server message. The stream's read timeout ends the wait with
/// [`ClientError::Io`] of kind `TimedOut`: a server that never replies
/// cannot hang the client.
fn recv_frame(reader: &mut FrameReader, stream: &mut TcpStream) -> Result<ServerMsg, ClientError> {
    match reader.poll(stream)? {
        Some(payload) => {
            ServerMsg::decode(&payload).map_err(|e| ClientError::Protocol(e.to_string()))
        }
        None => Err(ClientError::Io(std::io::Error::new(
            std::io::ErrorKind::TimedOut,
            "no reply from the server within the read timeout",
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::sync::mpsc;

    #[test]
    fn a_server_that_never_replies_ends_the_call_with_a_timeout() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let stream = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        // accepted and held open, never answered
        let _silent = listener.accept().unwrap();
        stream.set_read_timeout(Some(Duration::from_millis(50))).unwrap();
        let mut client = Client {
            stream,
            reader: FrameReader::new(DEFAULT_MAX_FRAME),
            out: Vec::new(),
            session: 0,
            cancel_key: 0,
            server: String::new(),
            closed: false,
        };
        let (done, outcome) = mpsc::channel();
        std::thread::spawn(move || {
            let _ = done.send(client.query("SELECT 1"));
        });
        match outcome.recv_timeout(Duration::from_secs(2)) {
            Ok(Err(ClientError::Io(e))) => assert_eq!(e.kind(), std::io::ErrorKind::TimedOut),
            Ok(other) => panic!("expected a timeout, got {other:?}"),
            Err(_) => panic!("the call was still waiting after 2 s"),
        }
    }
}
