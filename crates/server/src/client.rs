//! Blocking client for the Flock wire protocol.
//!
//! Used by `flock-cli`, the connection-storm bench, and the protocol test
//! suite. Errors split three ways so callers can react without string
//! matching: [`ClientError::Sql`] (typed server-side failure — the
//! connection stays usable), [`ClientError::Protocol`] (this peer or the
//! server violated the framing contract — drop the connection), and
//! [`ClientError::Io`].

use crate::protocol::{
    frame, ClientMsg, FrameError, FrameReader, ServerMsg, WireRows, DEFAULT_MAX_FRAME,
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
    /// Framing/sequencing violation on either side; connection is dead.
    Protocol(String),
    Io(std::io::Error),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Sql(e) => write!(f, "{e}"),
            ClientError::Protocol(m) => write!(f, "protocol error: {m}"),
            ClientError::Io(e) => write!(f, "io error: {e}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> Self {
        match e {
            FrameError::Io(io) => ClientError::Io(io),
            other => ClientError::Protocol(other.to_string()),
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
    session: u64,
    cancel_key: u64,
    server: String,
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
            session: 0,
            cancel_key: 0,
            server: String::new(),
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

    fn send(&mut self, msg: &ClientMsg) -> Result<(), ClientError> {
        let payload = msg.encode().to_string().into_bytes();
        self.stream.write_all(&frame(&payload))?;
        self.stream.flush()?;
        Ok(())
    }

    fn recv(&mut self) -> Result<ServerMsg, ClientError> {
        recv_frame(&mut self.reader, &mut self.stream)
    }

    fn roundtrip(&mut self, msg: &ClientMsg) -> Result<ServerMsg, ClientError> {
        self.send(msg)?;
        self.recv()
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
        let msg = ClientMsg::Execute { stmt: stmt.id, params: params.to_vec() };
        match self.roundtrip(&msg)? {
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
        let payload = ClientMsg::Cancel { session, key }.encode().to_string().into_bytes();
        stream.write_all(&frame(&payload))?;
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
        Some(payload) => Ok(ServerMsg::decode(&payload)?),
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
            session: 0,
            cancel_key: 0,
            server: String::new(),
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
