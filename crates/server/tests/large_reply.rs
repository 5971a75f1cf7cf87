//! A reply past the client's frame cap must not wedge the connection.
//!
//! - The server refuses to send a result whose framed payload exceeds
//!   `DEFAULT_MAX_FRAME` and answers with a typed `budget` error instead,
//!   so the same connection serves the next statement.
//! - A client that does receive a header past its cap (from a peer that
//!   ignores the rule) reports the typed frame error once, shuts its
//!   socket, and answers every later call with `ClientError::Closed`
//!   instead of re-reading the refused header.

use flock_core::FlockDb;
use flock_server::client::{Client, ClientError};
use flock_server::protocol::{
    frame, ClientMsg, FrameError, FrameReader, ServerMsg, DEFAULT_MAX_FRAME, FRAME_HEADER,
};
use flock_server::{Server, ServerConfig};
use flock_sql::Value;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;

/// 3 000 rows of a 400-character label: about 1.2 MB as one reply.
fn wide_table() -> Arc<FlockDb> {
    let db = Arc::new(FlockDb::new());
    db.database()
        .execute("CREATE TABLE t (x INT, label TEXT)")
        .unwrap();
    let label = "x".repeat(400);
    for start in (0..3_000).step_by(500) {
        let rows: Vec<String> = (start..start + 500)
            .map(|x| format!("({x}, '{label}')"))
            .collect();
        db.database()
            .execute(&format!("INSERT INTO t VALUES {}", rows.join(", ")))
            .unwrap();
    }
    db
}

#[test]
fn a_reply_past_the_cap_is_a_budget_error_and_the_connection_stays_usable() {
    let handle = Server::start(wide_table(), ServerConfig::default()).unwrap();
    let mut c = Client::connect(handle.local_addr(), "admin").unwrap();
    match c.query("SELECT x, label FROM t") {
        Err(ClientError::Sql(e)) => {
            assert_eq!(e.code, "budget", "{e:?}");
            assert!(!e.retryable, "{e:?}");
        }
        other => panic!("expected a budget error, got {other:?}"),
    }
    let one = c.query("SELECT 1").unwrap();
    assert_eq!(one.rows, vec![vec![Value::Int(1)]]);
    // a third of the rows fits under the cap and arrives whole
    let some = c.query("SELECT x, label FROM t WHERE x < 1000").unwrap();
    assert_eq!(some.rows.len(), 1_000);
    assert_eq!(some.rows[999][0], Value::Int(999));
    c.goodbye().unwrap();
    handle.shutdown();
}

/// Read one whole frame off a blocking socket.
fn read_frame(reader: &mut FrameReader, stream: &mut TcpStream) -> Vec<u8> {
    loop {
        if let Some(payload) = reader.poll(stream).unwrap() {
            return payload;
        }
    }
}

#[test]
fn a_reply_header_past_the_cap_closes_the_client() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    // A peer that greets, then answers the first query with the header of
    // a frame one byte past the cap, and waits for the client to hang up.
    let peer = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        let mut reader = FrameReader::new(DEFAULT_MAX_FRAME);
        let hello = read_frame(&mut reader, &mut stream);
        assert!(matches!(
            ClientMsg::decode(&hello),
            Ok(ClientMsg::Hello { .. })
        ));
        let mut out = Vec::new();
        ServerMsg::Welcome {
            session: 1,
            cancel_key: 2,
            server: "oversized".into(),
        }
        .encode_into(&mut out);
        stream.write_all(&out).unwrap();
        read_frame(&mut reader, &mut stream);
        let oversized = frame(&vec![b' '; DEFAULT_MAX_FRAME + 1]);
        stream.write_all(&oversized[..FRAME_HEADER]).unwrap();
        let mut rest = Vec::new();
        let _ = stream.read_to_end(&mut rest);
        rest.len()
    });
    let mut c = Client::connect(addr, "admin").unwrap();
    match c.query("SELECT 1") {
        Err(ClientError::Frame(FrameError::TooLarge { declared, max })) => {
            assert_eq!((declared, max), (DEFAULT_MAX_FRAME + 1, DEFAULT_MAX_FRAME));
        }
        other => panic!("expected TooLarge, got {other:?}"),
    }
    for _ in 0..2 {
        assert!(
            matches!(c.query("SELECT 1"), Err(ClientError::Closed)),
            "a later call must see the closed connection"
        );
    }
    // the client shut its socket: the peer reads EOF, and no more requests
    assert_eq!(peer.join().unwrap(), 0);
}
