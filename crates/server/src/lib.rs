//! # flock-server
//!
//! A TCP server exposing a [`FlockDb`](flock_core::FlockDb) over the Flock
//! wire protocol (see [`protocol`]). The paper's Enterprise-Grade ML
//! system is *served* — governed data and models live behind a service
//! boundary, not linked into the application — so this crate is the
//! boundary: clients authenticate as catalog users, speak SQL (including
//! `PREDICT`, `PREPARE`-style plan-cache hits, and `SET` session knobs),
//! and inherit all of the engine's admission control, statement timeouts,
//! and cooperative cancellation per connection.
//!
//! Design points:
//!
//! * **Thread-per-connection over `std::net`.** No async runtime and no
//!   new dependencies; sessions are cheap and the engine's admission
//!   controller — not the socket layer — bounds concurrent query work.
//! * **One engine session per connection.** The first frame must be
//!   `Hello {user}`; the user must exist in the catalog. Every later
//!   statement runs with that session's grants, timeout, and metrics.
//! * **Out-of-band cancel.** `Welcome` returns a `cancel_key`; a *second*
//!   connection may send `Cancel {session, key}` pre-auth to raise the
//!   victim's cancel flag mid-statement. The engine aborts at the next
//!   row-stride boundary and the admission slot is released by RAII.
//! * **Hardened edges.** Read timeouts make every worker responsive to
//!   shutdown; frames are length-capped and checksummed before parsing;
//!   protocol violations get a typed `Error` reply and a closed
//!   connection; SQL errors leave the connection usable. A connection
//!   holds at most [`MAX_PREPARED_PER_CONNECTION`] prepared statements.
//!   Counters (`connections_accepted`, `connections_open`,
//!   `auth_failures`, `frames_rejected`) surface as `flock_metrics` rows.
//! * **Graceful shutdown.** [`ServerHandle::shutdown`] stops the accept
//!   loop, lets each worker finish (and answer) its in-flight statement,
//!   sends `Goodbye`, and joins every thread before returning.

pub mod client;
pub mod protocol;

use flock_core::FlockDb;
use flock_sql::exec::CancelHandle;
use flock_sql::{sync, PreparedStatement, SqlError, WireError};
use protocol::{
    encode_result_into, ClientMsg, FrameError, FrameReader, ServerMsg, DEFAULT_MAX_FRAME,
    FRAME_HEADER,
};
use std::collections::HashMap;
use std::collections::hash_map::RandomState;
use std::hash::{BuildHasher, Hash, Hasher};
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Identification string sent in `Welcome`.
pub const SERVER_NAME: &str = "flock-serve/0.1";

/// Prepared statements one connection may hold open at once. The next
/// `Prepare` is refused with a non-retryable `budget` error until
/// `CloseStmt` frees a slot, so client input cannot grow the map
/// without bound.
pub const MAX_PREPARED_PER_CONNECTION: usize = 1024;

/// Tunables for a [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Address to bind (use port 0 to let the OS pick; see
    /// [`ServerHandle::local_addr`]).
    pub bind: SocketAddr,
    /// Cap on a single frame's payload bytes.
    pub max_frame: usize,
    /// Read-poll tick: how quickly workers notice shutdown / cancellation
    /// of the *connection* (statement cancellation is the engine's job).
    pub poll_interval: Duration,
    /// Drop connections idle (no complete frame) for this long. Zero
    /// disables the idle check.
    pub idle_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            bind: "127.0.0.1:0".parse().unwrap(),
            max_frame: DEFAULT_MAX_FRAME,
            poll_interval: Duration::from_millis(25),
            idle_timeout: Duration::from_secs(300),
        }
    }
}

/// Per-session entry in the cancel registry.
struct SessionEntry {
    key: u64,
    handle: CancelHandle,
}

/// State shared by the accept loop and every worker.
struct Shared {
    db: Arc<FlockDb>,
    config: ServerConfig,
    shutdown: AtomicBool,
    sessions: Mutex<HashMap<u64, SessionEntry>>,
    next_session: AtomicU64,
    key_seed: RandomState,
    // flock_metrics counters.
    connections_accepted: Arc<AtomicU64>,
    connections_open: Arc<AtomicU64>,
    auth_failures: Arc<AtomicU64>,
    frames_rejected: Arc<AtomicU64>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl Shared {
    fn cancel_key_for(&self, session: u64) -> u64 {
        // Per-process random keys: RandomState is seeded from OS entropy,
        // so keys are unguessable across runs without adding a rand dep.
        let mut h = self.key_seed.build_hasher();
        session.hash(&mut h);
        0xF10C_5EED_u64.hash(&mut h);
        h.finish()
    }
}

/// A running server. Dropping the handle does *not* stop it; call
/// [`ServerHandle::shutdown`].
pub struct Server;

pub struct ServerHandle {
    shared: Arc<Shared>,
    addr: SocketAddr,
    accept_thread: Option<JoinHandle<()>>,
}

impl Server {
    /// Bind and start serving. Returns once the listener is live.
    pub fn start(db: Arc<FlockDb>, config: ServerConfig) -> std::io::Result<ServerHandle> {
        let listener = TcpListener::bind(config.bind)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            db,
            config,
            shutdown: AtomicBool::new(false),
            sessions: Mutex::new(HashMap::new()),
            next_session: AtomicU64::new(1),
            key_seed: RandomState::new(),
            connections_accepted: Arc::new(AtomicU64::new(0)),
            connections_open: Arc::new(AtomicU64::new(0)),
            auth_failures: Arc::new(AtomicU64::new(0)),
            frames_rejected: Arc::new(AtomicU64::new(0)),
            workers: Mutex::new(Vec::new()),
        });
        let metrics = shared.db.database().engine_metrics();
        metrics.register("server_connections_accepted", shared.connections_accepted.clone());
        metrics.register("server_connections_open", shared.connections_open.clone());
        metrics.register("server_auth_failures", shared.auth_failures.clone());
        metrics.register("server_frames_rejected", shared.frames_rejected.clone());

        let accept_shared = shared.clone();
        let accept_thread = std::thread::Builder::new()
            .name("flock-accept".into())
            .spawn(move || accept_loop(listener, accept_shared))?;
        Ok(ServerHandle { shared, addr, accept_thread: Some(accept_thread) })
    }
}

impl ServerHandle {
    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Connections currently open.
    pub fn connections_open(&self) -> u64 {
        self.shared.connections_open.load(Ordering::Relaxed)
    }

    /// Graceful shutdown: stop accepting, let every worker drain its
    /// in-flight statement, send `Goodbye`, and join all threads.
    pub fn shutdown(mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // Wake the blocking accept() with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        let workers = std::mem::take(&mut *sync::lock(&self.shared.workers));
        for w in workers {
            let _ = w.join();
        }
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    // The wake-up connection (or a late client): refuse.
                    drop(stream);
                    break;
                }
                shared.connections_accepted.fetch_add(1, Ordering::Relaxed);
                let conn_shared = shared.clone();
                let worker = std::thread::Builder::new()
                    .name("flock-conn".into())
                    .spawn(move || {
                        conn_shared.connections_open.fetch_add(1, Ordering::Relaxed);
                        // Connection panics must never take down the
                        // server; the counter is restored either way.
                        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(
                            || serve_connection(stream, &conn_shared),
                        ));
                        conn_shared.connections_open.fetch_sub(1, Ordering::Relaxed);
                        if result.is_err() {
                            conn_shared.frames_rejected.fetch_add(1, Ordering::Relaxed);
                        }
                    });
                if let Ok(handle) = worker {
                    sync::lock(&shared.workers).push(handle);
                }
            }
            Err(_) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                // Transient accept error (EMFILE, ...): keep serving.
                std::thread::sleep(Duration::from_millis(10));
            }
        }
    }
}

/// A send buffer grown past this by one large reply is released after
/// it, so an idle connection holds no more than this for replies.
const KEEP_SEND_BUFFER: usize = 64 << 10;

/// A connection's socket and the buffer its replies are framed in, reused
/// from reply to reply.
struct Conn {
    stream: TcpStream,
    out: Vec<u8>,
}

impl Conn {
    /// Send a message, ignoring socket errors (the peer may already be
    /// gone).
    fn send(&mut self, msg: &ServerMsg) {
        self.send_with(|out| msg.encode_into(out));
    }

    /// Send a statement's rows, written straight from its batch; a reply
    /// whose payload would pass a client's frame cap
    /// ([`DEFAULT_MAX_FRAME`]) is sent as a typed `budget` error instead,
    /// so the connection stays usable.
    fn send_result(&mut self, result: &flock_sql::QueryResult) {
        self.send_with(|out| {
            encode_result_into(result, out);
            let payload = out.len() - FRAME_HEADER;
            if payload > DEFAULT_MAX_FRAME {
                out.clear();
                let e = SqlError::Budget(format!(
                    "a reply of {payload} bytes exceeds the {DEFAULT_MAX_FRAME}-byte frame \
                     cap; select fewer rows or columns"
                ));
                ServerMsg::Error(e.to_wire()).encode_into(out);
            }
        });
    }

    fn send_with(&mut self, encode: impl FnOnce(&mut Vec<u8>)) {
        self.out.clear();
        encode(&mut self.out);
        let _ = self.stream.write_all(&self.out);
        let _ = self.stream.flush();
        if self.out.capacity() > KEEP_SEND_BUFFER {
            self.out = Vec::new();
        }
    }

    fn send_protocol_reject(&mut self, shared: &Shared, err: &FrameError) {
        shared.frames_rejected.fetch_add(1, Ordering::Relaxed);
        self.send(&ServerMsg::Error(err.to_wire()));
    }
}

/// Outcome of waiting for one frame.
enum Waited {
    Msg(ClientMsg),
    /// Peer disconnected cleanly between frames.
    Hangup,
    /// Server is shutting down / connection idled out.
    Stop,
}

fn wait_for_msg(
    stream: &mut TcpStream,
    reader: &mut FrameReader,
    shared: &Shared,
) -> Result<Waited, FrameError> {
    let idle = shared.config.idle_timeout;
    let started = Instant::now();
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return Ok(Waited::Stop);
        }
        match reader.poll(stream) {
            Ok(Some(payload)) => return ClientMsg::decode(&payload).map(Waited::Msg),
            Ok(None) => {
                if !idle.is_zero() && started.elapsed() > idle {
                    return Ok(Waited::Stop);
                }
            }
            Err(FrameError::Closed) => return Ok(Waited::Hangup),
            Err(e) => return Err(e),
        }
    }
}

fn serve_connection(stream: TcpStream, shared: &Shared) {
    let _ = stream.set_read_timeout(Some(shared.config.poll_interval));
    let _ = stream.set_nodelay(true);
    let mut reader = FrameReader::new(shared.config.max_frame);
    let mut conn = Conn { stream, out: Vec::new() };

    // First frame: Hello (open a session) or Cancel (out-of-band).
    let user = match wait_for_msg(&mut conn.stream, &mut reader, shared) {
        Ok(Waited::Msg(ClientMsg::Hello { user })) => user,
        Ok(Waited::Msg(ClientMsg::Cancel { session, key })) => {
            let ok = {
                let sessions = sync::lock(&shared.sessions);
                match sessions.get(&session) {
                    Some(entry) if entry.key == key => {
                        entry.handle.cancel();
                        true
                    }
                    _ => false,
                }
            };
            if !ok {
                shared.auth_failures.fetch_add(1, Ordering::Relaxed);
            }
            conn.send(&ServerMsg::CancelAck { ok });
            return;
        }
        Ok(Waited::Msg(_)) => {
            // Query-before-Hello and friends: typed reject, close.
            let e = FrameError::BadMessage("expected \"hello\" before any other message".into());
            conn.send_protocol_reject(shared, &e);
            return;
        }
        Ok(Waited::Hangup) => return,
        Ok(Waited::Stop) => {
            conn.send(&ServerMsg::Goodbye);
            return;
        }
        Err(e) => {
            conn.send_protocol_reject(shared, &e);
            return;
        }
    };

    // Authenticate: the user must exist in the catalog. ("admin" is the
    // bootstrap superuser; others are CREATE USER objects.)
    if !shared.db.user_exists(&user) {
        shared.auth_failures.fetch_add(1, Ordering::Relaxed);
        let denied = SqlError::AccessDenied(format!("unknown user '{user}'"));
        conn.send(&ServerMsg::Error(denied.to_wire()));
        return;
    }

    let mut session = shared.db.session(&user);
    let session_id = shared.next_session.fetch_add(1, Ordering::Relaxed);
    let cancel_key = shared.cancel_key_for(session_id);
    sync::lock(&shared.sessions).insert(
        session_id,
        SessionEntry { key: cancel_key, handle: session.cancel_handle() },
    );
    conn.send(&ServerMsg::Welcome { session: session_id, cancel_key, server: SERVER_NAME.into() });

    let mut prepared: HashMap<u64, PreparedStatement> = HashMap::new();
    let mut next_stmt: u64 = 1;

    loop {
        match wait_for_msg(&mut conn.stream, &mut reader, shared) {
            Ok(Waited::Msg(msg)) => match msg {
                ClientMsg::Query { sql } => match session.execute(&sql) {
                    Ok(r) => conn.send_result(&r),
                    Err(e) => conn.send(&ServerMsg::Error(e.to_wire())),
                },
                ClientMsg::Prepare { sql } => {
                    let prepared_stmt = if prepared.len() >= MAX_PREPARED_PER_CONNECTION {
                        Err(SqlError::Budget(format!(
                            "connection holds {MAX_PREPARED_PER_CONNECTION} prepared \
                             statements, the limit; close one first"
                        )))
                    } else {
                        session.prepare(&sql)
                    };
                    let reply = match prepared_stmt {
                        Ok(p) => {
                            let id = next_stmt;
                            next_stmt += 1;
                            let params = p.param_count() as u64;
                            prepared.insert(id, p);
                            ServerMsg::Prepared { stmt: id, params }
                        }
                        Err(e) => ServerMsg::Error(e.to_wire()),
                    };
                    conn.send(&reply);
                }
                ClientMsg::Execute { stmt, params } => match prepared.get(&stmt) {
                    Some(p) => match session.execute_prepared(p, &params) {
                        Ok(r) => conn.send_result(&r),
                        Err(e) => conn.send(&ServerMsg::Error(e.to_wire())),
                    },
                    None => conn.send(&ServerMsg::Error(WireError {
                        code: "protocol".into(),
                        message: format!("unknown prepared statement {stmt}"),
                        retryable: false,
                    })),
                },
                ClientMsg::CloseStmt { stmt } => {
                    prepared.remove(&stmt);
                    conn.send(&ServerMsg::StmtClosed);
                }
                ClientMsg::Goodbye => {
                    conn.send(&ServerMsg::Goodbye);
                    break;
                }
                ClientMsg::Hello { .. } | ClientMsg::Cancel { .. } => {
                    let e = FrameError::BadMessage(
                        "hello/cancel not valid on an open session".into(),
                    );
                    conn.send_protocol_reject(shared, &e);
                    break;
                }
            },
            Ok(Waited::Hangup) => break,
            Ok(Waited::Stop) => {
                conn.send(&ServerMsg::Goodbye);
                break;
            }
            Err(e) => {
                conn.send_protocol_reject(shared, &e);
                break;
            }
        }
    }
    sync::lock(&shared.sessions).remove(&session_id);
}
