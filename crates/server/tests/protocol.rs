//! Protocol torture suite: the server must survive everything a hostile
//! or broken peer can put on the socket — truncated frames, oversized
//! length prefixes, bad checksums, out-of-sequence messages, and random
//! bytes — answering each with a typed reject and a closed connection,
//! never a panic or a hung accept thread. Mirrors the WAL torn-tail sweep
//! style in `crates/sql/tests/recovery.rs`: every corruption is exercised
//! against a live server and the server is proven healthy afterwards by
//! running a normal session.

use flock_core::FlockDb;
use flock_rng::rngs::StdRng;
use flock_rng::{Rng, SeedableRng};
use flock_server::client::{Client, ClientError};
use flock_server::protocol::{frame, ClientMsg, FrameReader, ServerMsg, DEFAULT_MAX_FRAME};
use flock_server::{Server, ServerConfig, ServerHandle, MAX_PREPARED_PER_CONNECTION};
use flock_sql::ast::PredictStrategy;
use flock_sql::column::ColumnVector;
use flock_sql::exec::CancelToken;
use flock_sql::types::DataType;
use flock_sql::udf::InferenceProvider;
use flock_sql::{Result as SqlResult, Value};
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Start a server over a fresh in-memory FlockDb with a small demo table.
fn start_server() -> (Arc<FlockDb>, ServerHandle) {
    let db = Arc::new(FlockDb::new());
    db.database().execute("CREATE TABLE t (x INT, label TEXT)").unwrap();
    db.database()
        .execute("INSERT INTO t VALUES (1, 'a'), (2, 'b'), (3, 'c')")
        .unwrap();
    let handle = Server::start(db.clone(), ServerConfig::default()).unwrap();
    (db, handle)
}

/// Assert the server still serves a normal session end-to-end.
fn assert_healthy(addr: SocketAddr) {
    let mut c = Client::connect(addr, "admin").expect("server must still accept sessions");
    let rows = c.query("SELECT x FROM t WHERE x >= 2").expect("query must work");
    assert_eq!(rows.rows.len(), 2);
    c.goodbye().unwrap();
}

/// One engine-side counter, read over the wire like a client would.
fn metric(c: &mut Client, name: &str) -> i64 {
    let rows = c
        .query(&format!("SELECT value FROM flock_metrics WHERE metric = '{name}'"))
        .unwrap();
    assert_eq!(rows.rows.len(), 1, "metric {name} missing");
    match rows.rows[0][0] {
        Value::Int(v) => v,
        ref other => panic!("metric {name} not an int: {other:?}"),
    }
}

/// Read server frames off a raw socket until EOF; panics on hang.
fn drain_replies(stream: &mut TcpStream) -> Vec<ServerMsg> {
    stream.set_read_timeout(Some(Duration::from_millis(50))).unwrap();
    let mut reader = FrameReader::new(DEFAULT_MAX_FRAME);
    let mut out = Vec::new();
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        assert!(Instant::now() < deadline, "server reply never terminated");
        match reader.poll(stream) {
            Ok(Some(payload)) => out.push(ServerMsg::decode(&payload).unwrap()),
            Ok(None) => continue,
            Err(_) => return out, // EOF / reset: connection closed
        }
    }
}

#[test]
fn query_session_lifecycle_over_the_wire() {
    let (_db, handle) = start_server();
    let addr = handle.local_addr();

    let mut c = Client::connect(addr, "admin").unwrap();
    assert!(c.session_id() > 0);
    assert_eq!(c.server_name(), flock_server::SERVER_NAME);

    // DDL + DML + SELECT through one session.
    c.query("CREATE TABLE nums (n INT)").unwrap();
    let ins = c.query("INSERT INTO nums VALUES (10), (20), (30)").unwrap();
    assert_eq!(ins.rows_affected, 3);
    let rows = c.query("SELECT n FROM nums WHERE n > 10").unwrap();
    assert_eq!(rows.columns[0].name, "n");
    assert_eq!(rows.rows.len(), 2);

    // A SQL error is typed AND leaves the connection usable.
    let err = c.query("SELEC wrong").unwrap_err();
    match err {
        ClientError::Sql(e) => {
            assert_eq!(e.code, "parse");
            assert!(!e.retryable);
        }
        other => panic!("expected Sql error, got {other:?}"),
    }
    let rows = c.query("SELECT n FROM nums").unwrap();
    assert_eq!(rows.rows.len(), 3);

    // Malformed SET is typed too — and doesn't poison the session.
    let err = c.query("SET statement_timeout = 'soon'").unwrap_err();
    assert!(matches!(err, ClientError::Sql(e) if e.code == "plan"));
    c.query("SELECT n FROM nums").unwrap();

    c.goodbye().unwrap();
    assert_healthy(addr);
}

#[test]
fn prepared_statements_hit_the_plan_cache() {
    let (db, handle) = start_server();
    let addr = handle.local_addr();
    let mut c = Client::connect(addr, "admin").unwrap();

    let stmt = c.prepare("SELECT label FROM t WHERE x = ?").unwrap();
    assert_eq!(stmt.params, 1);
    let r1 = c.execute(stmt, &[Value::Int(1)]).unwrap();
    assert!(matches!(&r1.rows[0][0], Value::Text(s) if s == "a"));
    let r2 = c.execute(stmt, &[Value::Int(3)]).unwrap();
    assert!(matches!(&r2.rows[0][0], Value::Text(s) if s == "c"));
    assert!(
        db.database().plan_cache().hits.load(std::sync::atomic::Ordering::Relaxed) > 0,
        "repeat execute must hit the plan cache"
    );

    // Param arity mismatch: typed error, connection usable.
    let err = c.execute(stmt, &[]).unwrap_err();
    assert!(matches!(err, ClientError::Sql(_)));

    // Closing invalidates the handle but not the session.
    c.close_stmt(stmt).unwrap();
    let err = c.execute(stmt, &[Value::Int(1)]).unwrap_err();
    assert!(matches!(err, ClientError::Sql(e) if e.code == "protocol"));
    c.query("SELECT 1 + 1").unwrap();
    c.goodbye().unwrap();
    handle.shutdown();
}

#[test]
fn prepared_statements_per_connection_are_capped() {
    let (_db, handle) = start_server();
    let addr = handle.local_addr();
    let mut c = Client::connect(addr, "admin").unwrap();
    let sql = "SELECT label FROM t WHERE x = ?";
    let held: Vec<_> = (0..MAX_PREPARED_PER_CONNECTION)
        .map(|_| c.prepare(sql).unwrap())
        .collect();

    let err = c.prepare(sql).unwrap_err();
    assert!(
        matches!(&err, ClientError::Sql(e) if e.code == "budget" && !e.retryable),
        "prepare past the cap must be a non-retryable budget error, got {err}"
    );
    // The refusal leaves the connection and every held statement usable.
    let r = c.execute(held[MAX_PREPARED_PER_CONNECTION - 1], &[Value::Int(2)]).unwrap();
    assert!(matches!(&r.rows[0][0], Value::Text(s) if s == "b"));

    // Closing one frees exactly one slot.
    c.close_stmt(held[0]).unwrap();
    let again = c.prepare(sql).unwrap();
    let r = c.execute(again, &[Value::Int(3)]).unwrap();
    assert!(matches!(&r.rows[0][0], Value::Text(s) if s == "c"));
    assert!(matches!(c.prepare(sql), Err(ClientError::Sql(e)) if e.code == "budget"));

    // The cap is per connection.
    let mut other = Client::connect(addr, "admin").unwrap();
    other.prepare(sql).unwrap();
    other.goodbye().unwrap();
    c.goodbye().unwrap();
    handle.shutdown();
}

/// Zero-drop gate: 16 clients mix prepared executes and ad-hoc queries
/// under an admission limit of 2. Every request gets exactly one reply,
/// carrying its own row (a lost reply stalls the client, an extra one
/// answers the next request with the wrong row); retried `admission`
/// rejects are the only failures allowed.
#[test]
fn concurrent_clients_get_exactly_one_reply_per_request() {
    const CLIENTS: usize = 16;
    const REQUESTS: usize = 40;
    let db = Arc::new(FlockDb::new());
    db.database().execute("CREATE TABLE kv (k INT, v TEXT)").unwrap();
    let rows: Vec<String> = (0..256).map(|k| format!("({k}, 'value-{k}')")).collect();
    db.database()
        .execute(&format!("INSERT INTO kv VALUES {}", rows.join(", ")))
        .unwrap();
    let mut opts = db.database().exec_options();
    opts.max_concurrent_queries = 2;
    db.database().set_exec_options(opts);
    let handle = Server::start(db.clone(), ServerConfig::default()).unwrap();
    let addr = handle.local_addr();

    // Every client connects and prepares before any sends a request, so
    // all 16 sessions are open while the requests run.
    let ready = Arc::new(std::sync::Barrier::new(CLIENTS));
    let (tx, rx) = std::sync::mpsc::channel();
    let mut clients = Vec::new();
    for id in 0..CLIENTS {
        let (tx, ready) = (tx.clone(), ready.clone());
        clients.push(std::thread::spawn(move || {
            let run = || -> Result<usize, String> {
                let opened = Client::connect(addr, "admin").and_then(|mut c| {
                    let stmt = c.prepare("SELECT v FROM kv WHERE k = ?")?;
                    Ok((c, stmt))
                });
                ready.wait();
                let (mut c, stmt) = opened.map_err(|e| e.to_string())?;
                let mut replies = 0;
                for req in 0..REQUESTS {
                    let k = ((id * 31 + req * 7) % 256) as i64;
                    let mut attempts = 0;
                    let rows = loop {
                        let reply = if req % 2 == 0 {
                            c.execute(stmt, &[Value::Int(k)])
                        } else {
                            c.query(&format!("SELECT v FROM kv WHERE k = {k}"))
                        };
                        match reply {
                            Err(ClientError::Sql(e))
                                if e.code == "admission" && e.retryable && attempts < 10_000 =>
                            {
                                attempts += 1;
                                std::thread::sleep(Duration::from_micros(500));
                            }
                            other => break other.map_err(|e| format!("request {req}: {e}"))?,
                        }
                    };
                    let want = format!("value-{k}");
                    match rows.rows.as_slice() {
                        [row] if matches!(&row[0], Value::Text(s) if *s == want) => replies += 1,
                        other => return Err(format!("request {req} for {want} got {other:?}")),
                    }
                }
                c.goodbye().map_err(|e| e.to_string())?;
                Ok(replies)
            };
            let _ = tx.send((id, run()));
        }));
    }
    drop(tx);

    // A lost reply leaves its client blocked in a read, so the outcomes
    // are collected against a deadline before the threads are joined.
    let deadline = Instant::now() + Duration::from_secs(60);
    let mut replies = 0;
    for _ in 0..CLIENTS {
        let wait = deadline.saturating_duration_since(Instant::now());
        let (id, outcome) = rx
            .recv_timeout(wait)
            .expect("a client is still waiting for a reply");
        replies += outcome.unwrap_or_else(|e| panic!("client {id}: {e}"));
    }
    for client in clients {
        client.join().expect("client thread panicked");
    }
    assert_eq!(replies, CLIENTS * REQUESTS);

    // Shutdown joins every worker, so the gauge has settled.
    handle.shutdown();
    let open = db
        .database()
        .engine_metrics()
        .rows()
        .into_iter()
        .find(|(n, _)| *n == "server_connections_open")
        .map(|(_, v)| v);
    assert_eq!(open, Some(0), "no connection may stay open");
}

#[test]
fn unknown_user_is_rejected_and_counted() {
    let (_db, handle) = start_server();
    let addr = handle.local_addr();

    match Client::connect(addr, "mallory") {
        Err(ClientError::Sql(e)) => {
            assert_eq!(e.code, "access_denied");
            assert!(!e.retryable);
        }
        Err(other) => panic!("expected access_denied, got {other:?}"),
        Ok(_) => panic!("unknown user must not authenticate"),
    }

    // A created user can connect; the failure was counted.
    let mut admin = Client::connect(addr, "admin").unwrap();
    admin.query("CREATE USER analyst").unwrap();
    assert!(metric(&mut admin, "server_auth_failures") >= 1);
    admin.goodbye().unwrap();
    let c = Client::connect(addr, "analyst").unwrap();
    c.goodbye().unwrap();
    assert_healthy(addr);
}

#[test]
fn query_before_hello_is_a_typed_reject_and_close() {
    let (_db, handle) = start_server();
    let addr = handle.local_addr();

    let mut stream = TcpStream::connect(addr).unwrap();
    let payload = ClientMsg::Query { sql: "SELECT 1".into() }.encode().to_string();
    stream.write_all(&frame(payload.as_bytes())).unwrap();
    let replies = drain_replies(&mut stream);
    assert_eq!(replies.len(), 1);
    match &replies[0] {
        ServerMsg::Error(e) => assert_eq!(e.code, "protocol"),
        other => panic!("expected protocol error, got {other:?}"),
    }

    let mut admin = Client::connect(addr, "admin").unwrap();
    assert!(metric(&mut admin, "server_frames_rejected") >= 1);
    admin.goodbye().unwrap();
    assert_healthy(addr);
}

#[test]
fn corrupt_frame_torture_sweep() {
    let (_db, handle) = start_server();
    let addr = handle.local_addr();

    let hello = ClientMsg::Hello { user: "admin".into() }.encode().to_string();
    let good = frame(hello.as_bytes());

    // Torn tails, WAL-style: every strict prefix of a valid frame, with
    // the connection closed mid-frame afterwards.
    for cut in [1, 4, 11, 12, good.len() - 1] {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(&good[..cut]).unwrap();
        stream.shutdown(Shutdown::Write).unwrap();
        drain_replies(&mut stream); // must terminate, not hang
    }

    // Oversized length prefix: rejected before any payload is read.
    {
        let mut stream = TcpStream::connect(addr).unwrap();
        let mut hdr = Vec::new();
        hdr.extend_from_slice(&(u32::MAX).to_le_bytes());
        hdr.extend_from_slice(&0u64.to_le_bytes());
        stream.write_all(&hdr).unwrap();
        let replies = drain_replies(&mut stream);
        assert!(
            replies.iter().any(|m| matches!(m, ServerMsg::Error(e) if e.code == "protocol")),
            "oversized frame must get a typed reject, got {replies:?}"
        );
    }

    // Flipped payload byte: checksum reject.
    {
        let mut stream = TcpStream::connect(addr).unwrap();
        let mut bad = good.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x55;
        stream.write_all(&bad).unwrap();
        let replies = drain_replies(&mut stream);
        assert!(
            replies.iter().any(|m| matches!(m, ServerMsg::Error(e) if e.code == "protocol")),
            "checksum mismatch must get a typed reject, got {replies:?}"
        );
    }

    // Valid frame, garbage payload; then valid JSON of unknown type.
    for payload in [&b"\x00\xffnot json"[..], br#"{"type":"warp_core_breach"}"#] {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(&frame(payload)).unwrap();
        let replies = drain_replies(&mut stream);
        assert!(
            replies.iter().any(|m| matches!(m, ServerMsg::Error(e) if e.code == "protocol")),
            "bad message must get a typed reject, got {replies:?}"
        );
    }

    assert_healthy(addr);
}

#[test]
fn random_bytes_fuzz_never_kills_the_server() {
    let (_db, handle) = start_server();
    let addr = handle.local_addr();

    let mut rng = StdRng::seed_from_u64(0xF10C_F422);
    for round in 0..32 {
        let mut stream = TcpStream::connect(addr).unwrap();
        let len = rng.gen_range(1usize..512);
        let bytes: Vec<u8> = (0..len).map(|_| rng.gen_range(0u64..256) as u8).collect();
        stream.write_all(&bytes).unwrap();
        stream.shutdown(Shutdown::Write).unwrap();
        // The server must terminate the exchange (reply or close) quickly.
        drain_replies(&mut stream);
        // Interleave a real session every few rounds to prove liveness
        // while the fuzz is ongoing, not just after.
        if round % 8 == 7 {
            assert_healthy(addr);
        }
    }
    assert_healthy(addr);
}

#[test]
fn mid_query_disconnect_does_not_panic_or_leak_slots() {
    let (db, handle) = start_server();
    let addr = handle.local_addr();
    db.database().set_inference_provider(Arc::new(SlowProvider { ms: 3_000 }));
    db.database().execute("CREATE TABLE f (x DOUBLE)").unwrap();
    db.database().execute("INSERT INTO f VALUES (1.0), (2.0)").unwrap();

    let mut stream = TcpStream::connect(addr).unwrap();
    let hello = ClientMsg::Hello { user: "admin".into() }.encode().to_string();
    stream.write_all(&frame(hello.as_bytes())).unwrap();
    // Wait for Welcome, fire a slow query, then vanish mid-statement.
    stream.set_read_timeout(Some(Duration::from_millis(50))).unwrap();
    let mut reader = FrameReader::new(DEFAULT_MAX_FRAME);
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        assert!(Instant::now() < deadline, "no Welcome");
        if let Ok(Some(p)) = reader.poll(&mut stream) {
            assert!(matches!(ServerMsg::decode(&p).unwrap(), ServerMsg::Welcome { .. }));
            break;
        }
    }
    let q = ClientMsg::Query { sql: "SELECT PREDICT(m, x) FROM f".into() }.encode().to_string();
    stream.write_all(&frame(q.as_bytes())).unwrap();
    // Give the server a moment to admit the query, then drop the socket.
    let deadline = Instant::now() + Duration::from_secs(5);
    while db.database().admission().active() == 0 {
        assert!(Instant::now() < deadline, "query never admitted");
        std::thread::sleep(Duration::from_millis(5));
    }
    drop(stream);

    // The worker finishes the statement into a dead socket; the admission
    // slot must come back and the server must stay up.
    let deadline = Instant::now() + Duration::from_secs(30);
    while db.database().admission().active() > 0 {
        assert!(Instant::now() < deadline, "admission slot leaked");
        std::thread::sleep(Duration::from_millis(20));
    }
    assert_healthy(addr);
}

/// Provider that burns wall-clock in cancellable ticks, then returns.
struct SlowProvider {
    ms: u64,
}

impl InferenceProvider for SlowProvider {
    fn output_type(&self, _model: &str) -> SqlResult<DataType> {
        Ok(DataType::Float)
    }
    fn input_arity(&self, _model: &str) -> SqlResult<usize> {
        Ok(1)
    }
    fn predict(
        &self,
        _model: &str,
        inputs: &[ColumnVector],
        _strategy: PredictStrategy,
        _user: &str,
    ) -> SqlResult<ColumnVector> {
        Ok(ColumnVector::from_f64(vec![0.0; inputs[0].len()]))
    }
    fn predict_cancellable(
        &self,
        _model: &str,
        inputs: &[ColumnVector],
        _strategy: PredictStrategy,
        _user: &str,
        cancel: &CancelToken,
    ) -> SqlResult<ColumnVector> {
        for _ in 0..self.ms {
            cancel.check()?;
            std::thread::sleep(Duration::from_millis(1));
        }
        Ok(ColumnVector::from_f64(vec![0.0; inputs[0].len()]))
    }
}

#[test]
fn out_of_band_cancel_aborts_and_releases_the_slot() {
    let (db, handle) = start_server();
    let addr = handle.local_addr();
    // Effectively-infinite statement: only a cancel can end it.
    db.database().set_inference_provider(Arc::new(SlowProvider { ms: 600_000 }));
    db.database().execute("CREATE TABLE f (x DOUBLE)").unwrap();
    db.database().execute("INSERT INTO f VALUES (1.0), (2.0)").unwrap();

    let mut victim = Client::connect(addr, "admin").unwrap();
    let session = victim.session_id();
    let key = victim.cancel_key();

    // A wrong key must be refused and counted as an auth failure.
    assert!(!Client::cancel(addr, session, key ^ 1).unwrap());

    let worker = std::thread::spawn(move || {
        let err = victim.query("SELECT PREDICT(m, x) FROM f").unwrap_err();
        match err {
            ClientError::Sql(e) => assert_eq!(e.code, "cancelled"),
            other => panic!("expected cancelled, got {other:?}"),
        }
        // The same session keeps working after the cancellation.
        let rows = victim.query("SELECT x FROM t WHERE x = 1").unwrap();
        assert_eq!(rows.rows.len(), 1);
        victim.goodbye().unwrap();
    });

    // Wait until the statement is admitted, then cancel from a second
    // connection. Cancel in a loop: the flag resets at statement start,
    // so a cancel that lands before admission would be consumed.
    let deadline = Instant::now() + Duration::from_secs(10);
    while db.database().admission().active() == 0 {
        assert!(Instant::now() < deadline, "query never admitted");
        std::thread::sleep(Duration::from_millis(5));
    }
    let deadline = Instant::now() + Duration::from_secs(30);
    while !worker.is_finished() {
        assert!(Instant::now() < deadline, "cancel never took effect");
        assert!(Client::cancel(addr, session, key).unwrap());
        std::thread::sleep(Duration::from_millis(5));
    }
    worker.join().unwrap();

    // Slot released; wrong-key attempt was counted.
    assert_eq!(db.database().admission().active(), 0);
    let mut admin = Client::connect(addr, "admin").unwrap();
    assert!(metric(&mut admin, "server_auth_failures") >= 1);
    assert!(metric(&mut admin, "queries_cancelled") >= 1);
    admin.goodbye().unwrap();
    handle.shutdown();
}

#[test]
fn graceful_shutdown_drains_inflight_statements() {
    let (db, handle) = start_server();
    let addr = handle.local_addr();
    db.database().set_inference_provider(Arc::new(SlowProvider { ms: 400 }));
    db.database().execute("CREATE TABLE f (x DOUBLE)").unwrap();
    db.database().execute("INSERT INTO f VALUES (1.0)").unwrap();

    let worker = std::thread::spawn(move || {
        let mut c = Client::connect(addr, "admin").unwrap();
        // This statement is in flight when shutdown starts; it must still
        // complete and deliver its rows.
        let rows = c.query("SELECT PREDICT(m, x) FROM f").unwrap();
        assert_eq!(rows.rows.len(), 1);
        rows
    });

    let deadline = Instant::now() + Duration::from_secs(10);
    while db.database().admission().active() == 0 {
        assert!(Instant::now() < deadline, "query never admitted");
        std::thread::sleep(Duration::from_millis(5));
    }
    handle.shutdown(); // must block until the worker drained
    worker.join().unwrap();

    // After shutdown the port no longer serves sessions.
    assert!(Client::connect(addr, "admin").is_err());
}

#[test]
fn idle_connections_are_reaped() {
    let db = Arc::new(FlockDb::new());
    let config = ServerConfig {
        idle_timeout: Duration::from_millis(150),
        ..ServerConfig::default()
    };
    let handle = Server::start(db, config).unwrap();
    let addr = handle.local_addr();

    let mut stream = TcpStream::connect(addr).unwrap();
    let hello = ClientMsg::Hello { user: "admin".into() }.encode().to_string();
    stream.write_all(&frame(hello.as_bytes())).unwrap();
    // Send nothing else: the server must Goodbye and close on its own.
    let replies = drain_replies(&mut stream);
    assert!(
        replies.iter().any(|m| matches!(m, ServerMsg::Goodbye)),
        "idle reap should say Goodbye, got {replies:?}"
    );

    // EOF confirmed by drain_replies returning; server is still healthy.
    let mut probe = [0u8; 1];
    stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    assert_eq!(stream.read(&mut probe).unwrap_or(0), 0);
    let c = Client::connect(addr, "admin").unwrap();
    c.goodbye().unwrap();
    handle.shutdown();
}
