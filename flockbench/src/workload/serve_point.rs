//! `serve_point` — the wire path.
//!
//! An in-process `Server` on `127.0.0.1:0` over an in-memory `FlockDb`
//! with a 4 096-row `accounts` table and a deployed 64×6 GBT. Client
//! connections issue a seeded mix of 45 % prepared 16-row `PREDICT`
//! windows, 45 % the same statement as ad-hoc text with literal keys, and
//! 10 % a non-ML 64-row lookup whose cost is mostly reply encoding.
//!
//! Why: frame codec, lexer, parser, plan cache, session and reply encode
//! do most of the work and the kernel almost none (16 rows), so
//! serving-path optimisations show here and kernel ones do not.
//!
//! Ad-hoc text reaches the plan cache by its raw tokens (`Session::execute`
//! does not normalise literals), so it hits only when the same text
//! repeats. Half the ad-hoc windows therefore come from a small hot set
//! and half are uniform: the mix holds cache hits and full re-plans in a
//! known proportion, reported as `plancache.hit_ratio`.
//!
//! Connections are `min(2, nproc)`. On the 2-core build machine two
//! connections keep both cores busy (1.8 of 2 cores in use); one leaves
//! each request waiting on a cold core's wake-up and was measured to be
//! the noisier choice.

use super::{even_mix, ratio, rng_for, Ctx, EngineCounters, Episode, Sample, Scale, Workload};
use crate::layers::{median_ns, replay_selects, Layers, Probe};
use crate::provider::TimingProvider;
use crate::stats::median;
use crate::trace::Tracer;
use flock_core::{FlockDb, Lineage};
use flock_ml::{
    ColumnPipeline, CompiledPipeline, DecisionTree, Frame, FrameCol, GbtModel, Model, Pipeline,
    ScoringMetrics, TreeNode,
};
use flock_rng::rngs::StdRng;
use flock_rng::Rng;
use flock_server::client::{Client, ClientError, StmtHandle};
use flock_server::protocol::{
    frame, ClientMsg, FrameReader, ServerMsg, WireColumn, WireRows, DEFAULT_MAX_FRAME,
};
use flock_server::{Server, ServerConfig, ServerHandle};
use flock_sql::{ColumnVector, DataType, RecordBatch, Schema, Value};
use serde_json::{json, Value as Json};
use std::sync::atomic::Ordering::Relaxed;
use std::sync::{Arc, Barrier};
use std::time::Instant;

const ROWS: usize = 4_096;
const TREES: usize = 64;
const TREE_DEPTH: usize = 6;
/// Rows scored per PREDICT request, and returned per lookup.
const PREDICT_WINDOW: i64 = 16;
const LOOKUP_WINDOW: i64 = 64;
const HOT_WINDOWS: usize = 16;
/// Timed and warm-up requests per episode, over all connections.
const OPS: usize = 12_000;
const WARMUP_OPS: usize = 400;
/// A refused request (admission) is retried this many times, then fails.
const RETRY_BUDGET: u32 = 3;

const PREDICT_SQL: &str =
    "SELECT k, PREDICT(risk, amount, rate) AS s FROM accounts WHERE k BETWEEN ? AND ?";
const LOOKUP_SQL: &str = "SELECT k, amount, rate, note FROM accounts WHERE k BETWEEN ? AND ?";

const KINDS: [&str; 4] = [
    "prepared_predict",
    "adhoc_predict_hot",
    "adhoc_predict_cold",
    "lookup",
];
/// Per mille of the mix, in `KINDS` order.
const SHARES: [u32; 4] = [450, 225, 225, 100];

/// One request: its kind (an index into `KINDS`) and its window's first key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    pub kind: u8,
    pub lo: i64,
}

const PREPARED: u8 = 0;
const LOOKUP: u8 = 3;

fn predict_text(lo: i64) -> String {
    format!(
        "SELECT k, PREDICT(risk, amount, rate) AS s FROM accounts WHERE k BETWEEN {lo} AND {}",
        lo + PREDICT_WINDOW - 1
    )
}

fn lookup_text(lo: i64) -> String {
    format!(
        "SELECT k, amount, rate, note FROM accounts WHERE k BETWEEN {lo} AND {}",
        lo + LOOKUP_WINDOW - 1
    )
}

pub struct ServePoint {
    clients: usize,
    amount: Vec<f64>,
    rate: Vec<f64>,
    note: Vec<String>,
    pipeline: Pipeline,
    /// Scores of every row from the standalone runtime: what each reply
    /// must equal bit for bit.
    expected: Vec<f64>,
    warmup: Vec<Op>,
    ops: Vec<Op>,
}

/// A seeded ensemble of full binary trees over (amount, rate).
fn seeded_gbt(rng: &mut StdRng) -> Model {
    fn grow(rng: &mut StdRng, depth: usize, nodes: &mut Vec<TreeNode>) -> usize {
        let at = nodes.len();
        if depth == 0 {
            nodes.push(TreeNode::Leaf {
                value: rng.gen_range(-1.0..1.0),
            });
            return at;
        }
        nodes.push(TreeNode::Leaf { value: 0.0 }); // replaced below
        let feature = rng.gen_range(0usize..2);
        let threshold = if feature == 0 {
            rng.gen_range(1_000.0f64..50_000.0)
        } else {
            rng.gen_range(0.01f64..0.25)
        };
        let left = grow(rng, depth - 1, nodes);
        let right = grow(rng, depth - 1, nodes);
        nodes[at] = TreeNode::Split {
            feature,
            threshold,
            left,
            right,
        };
        at
    }
    let trees = (0..TREES)
        .map(|_| {
            let mut nodes = Vec::new();
            grow(rng, TREE_DEPTH, &mut nodes);
            DecisionTree { nodes }
        })
        .collect();
    Model::Gbt(GbtModel {
        trees,
        learning_rate: 0.1,
        base_score: 0.2,
        sigmoid_output: true,
    })
}

/// The seeded request stream: kinds in exact shares, evenly interleaved;
/// windows from the seed by the hot/uniform rule in the module docs.
pub fn generate_ops(rng: &mut StdRng, n: usize, rows: usize) -> Vec<Op> {
    let predict_span = rows as i64 - PREDICT_WINDOW;
    let lookup_span = rows as i64 - LOOKUP_WINDOW;
    let hot: Vec<i64> = (0..HOT_WINDOWS)
        .map(|_| rng.gen_range(0..predict_span))
        .collect();
    even_mix(n, &SHARES)
        .into_iter()
        .map(|kind| Op {
            kind,
            lo: match KINDS[kind as usize] {
                "adhoc_predict_hot" => hot[rng.gen_range(0..hot.len())],
                "lookup" => rng.gen_range(0..lookup_span),
                _ => rng.gen_range(0..predict_span),
            },
        })
        .collect()
}

impl ServePoint {
    pub fn generate(seed: u64, scale: Scale) -> ServePoint {
        let mut rng = rng_for(seed, 1);
        let amount: Vec<f64> = (0..ROWS)
            .map(|_| rng.gen_range(1_000.0f64..50_000.0))
            .collect();
        let rate: Vec<f64> = (0..ROWS).map(|_| rng.gen_range(0.01f64..0.25)).collect();
        let note: Vec<String> = (0..ROWS)
            .map(|i| {
                format!(
                    "acct-{i:05}-{:08x}",
                    rng.gen_range(0u64..u64::from(u32::MAX))
                )
            })
            .collect();
        let pipeline = Pipeline::new(
            vec![
                ColumnPipeline::numeric("amount"),
                ColumnPipeline::numeric("rate"),
            ],
            seeded_gbt(&mut rng),
            "risk",
        );
        let frame = Frame::new()
            .with("amount", FrameCol::F64(amount.clone()))
            .and_then(|f| f.with("rate", FrameCol::F64(rate.clone())))
            .expect("columns have one length");
        let expected = CompiledPipeline::compile(&pipeline)
            .score(&frame)
            .expect("the standalone runtime scores the table");
        let mut op_rng = rng_for(seed, 2);
        let warmup = generate_ops(&mut op_rng, scale.n(WARMUP_OPS), ROWS);
        let ops = generate_ops(&mut op_rng, scale.n(OPS), ROWS);
        let clients = crate::env::nproc().min(2);
        ServePoint {
            clients,
            amount,
            rate,
            note,
            pipeline,
            expected,
            warmup,
            ops,
        }
    }

    /// An in-memory database holding the table and the deployed model.
    fn database(&self) -> Arc<FlockDb> {
        let db = FlockDb::new();
        db.execute("CREATE TABLE accounts (k INT, amount DOUBLE, rate DOUBLE, note VARCHAR)")
            .expect("create accounts");
        let schema = Arc::new(Schema::from_pairs(&[
            ("k", DataType::Int),
            ("amount", DataType::Float),
            ("rate", DataType::Float),
            ("note", DataType::Text),
        ]));
        let notes: Vec<Value> = self.note.iter().map(|n| Value::Text(n.clone())).collect();
        let batch = RecordBatch::new(
            schema,
            vec![
                ColumnVector::from_i64(0..ROWS as i64),
                ColumnVector::from_f64(self.amount.iter().copied()),
                ColumnVector::from_f64(self.rate.iter().copied()),
                ColumnVector::from_values(DataType::Text, &notes).expect("text column"),
            ],
        )
        .expect("accounts batch");
        let mut admin = db.session("admin");
        admin
            .append_batch("accounts", batch)
            .expect("load accounts");
        admin
            .deploy_model("risk", &self.pipeline, Lineage::default())
            .expect("deploy risk");
        Arc::new(db)
    }

    /// Whether a PREDICT reply holds exactly the window's rows with the
    /// standalone runtime's scores, bit for bit.
    fn predict_reply_ok(&self, lo: i64, rows: &WireRows) -> bool {
        rows.rows.len() == PREDICT_WINDOW as usize
            && rows
                .rows
                .iter()
                .enumerate()
                .all(|(i, r)| match r.as_slice() {
                    [Value::Int(k), Value::Float(s)] => {
                        *k == lo + i as i64 && s.to_bits() == self.expected[*k as usize].to_bits()
                    }
                    _ => false,
                })
    }

    fn lookup_reply_ok(&self, lo: i64, rows: &WireRows) -> bool {
        rows.rows.len() == LOOKUP_WINDOW as usize
            && rows
                .rows
                .iter()
                .enumerate()
                .all(|(i, r)| match r.as_slice() {
                    [Value::Int(k), Value::Float(a), Value::Float(rt), Value::Text(n)] => {
                        let at = (lo as usize) + i;
                        *k == at as i64
                            && a.to_bits() == self.amount[at].to_bits()
                            && rt.to_bits() == self.rate[at].to_bits()
                            && *n == self.note[at]
                    }
                    _ => false,
                })
    }
}

/// One authenticated connection with its two prepared statements.
struct Conn {
    client: Client,
    predict: StmtHandle,
    lookup: StmtHandle,
    retries: u64,
}

impl Conn {
    fn open(server: &ServerHandle) -> Conn {
        let mut client = Client::connect(server.local_addr(), "admin").expect("connect");
        let predict = client.prepare(PREDICT_SQL).expect("prepare predict");
        let lookup = client.prepare(LOOKUP_SQL).expect("prepare lookup");
        Conn {
            client,
            predict,
            lookup,
            retries: 0,
        }
    }

    /// Sends one request, retrying a retryable refusal within the budget.
    fn request(&mut self, op: Op) -> Result<WireRows, ClientError> {
        let mut attempt = 0;
        loop {
            let Op { kind, lo } = op;
            let reply = match kind {
                PREPARED => self.client.execute(
                    self.predict,
                    &[Value::Int(lo), Value::Int(lo + PREDICT_WINDOW - 1)],
                ),
                LOOKUP => self.client.execute(
                    self.lookup,
                    &[Value::Int(lo), Value::Int(lo + LOOKUP_WINDOW - 1)],
                ),
                _ => self.client.query(&predict_text(lo)),
            };
            match reply {
                Err(ClientError::Sql(e)) if e.retryable && attempt < RETRY_BUDGET => {
                    attempt += 1;
                    self.retries += 1;
                }
                other => return other,
            }
        }
    }
}

impl Workload for ServePoint {
    fn name(&self) -> &'static str {
        "serve_point"
    }

    fn kinds(&self) -> &'static [&'static str] {
        &KINDS
    }

    fn config(&self) -> Json {
        json!({
            "rows": ROWS, "trees": TREES, "tree_depth": TREE_DEPTH,
            "predict_window_rows": PREDICT_WINDOW, "lookup_window_rows": LOOKUP_WINDOW,
            "hot_windows": HOT_WINDOWS,
            "mix": "45% prepared PREDICT, 45% ad-hoc PREDICT text (half hot, half uniform), 10% 64-row lookup; exact counts, evenly interleaved",
            "load": "closed loop", "connections": self.clients,
            "ops_per_episode": self.ops.len(), "warmup_ops": self.warmup.len(),
            "retry_budget": RETRY_BUDGET,
        })
    }

    fn episode(&self, ctx: &Ctx) -> Episode {
        let mut ep = Episode::default();
        let setup = Instant::now();
        let db = self.database();
        if let Some(tracer) = &ctx.tracer {
            TimingProvider::install(db.database(), tracer);
        }
        let server = Server::start(db.clone(), ServerConfig::default()).expect("bind 127.0.0.1:0");
        let mut conns: Vec<Conn> = (0..self.clients).map(|_| Conn::open(&server)).collect();
        ep.setup_s = setup.elapsed().as_secs_f64();

        for (i, op) in self.warmup.iter().enumerate() {
            let _ = conns[i % self.clients].request(*op);
        }
        let mut engine = EngineCounters::start(db.database());
        let scored_before = db.provider().stats.rows_scored.load(Relaxed);

        // Connection c takes requests c, c + n, c + 2n, ... and waits for
        // each reply before sending the next.
        let barrier = Barrier::new(self.clients + 1);
        let mut started = Instant::now();
        let results: Vec<(Vec<Sample>, u64)> = std::thread::scope(|s| {
            let handles: Vec<_> = conns
                .iter_mut()
                .enumerate()
                .map(|(c, conn)| {
                    let barrier = &barrier;
                    let tracer = ctx.tracer.clone();
                    s.spawn(move || {
                        let mut lat: Vec<Sample> =
                            Vec::with_capacity(self.ops.len() / self.clients + 1);
                        let mut failed = 0u64;
                        barrier.wait();
                        for (i, op) in self.ops.iter().enumerate().skip(c).step_by(self.clients) {
                            let span = tracer
                                .as_ref()
                                .map(|t| t.open("client.request", i as u64 + 1, None));
                            let sent = Instant::now();
                            let ok = match conn.request(*op) {
                                Ok(rows) if op.kind == LOOKUP => self.lookup_reply_ok(op.lo, &rows),
                                Ok(rows) => self.predict_reply_ok(op.lo, &rows),
                                Err(_) => false,
                            };
                            lat.push(Sample {
                                kind: op.kind,
                                ns: sent.elapsed().as_nanos() as u64,
                            });
                            if let (Some(t), Some(id)) = (&tracer, span) {
                                t.close(id);
                            }
                            failed += u64::from(!ok);
                        }
                        (lat, failed)
                    })
                })
                .collect();
            barrier.wait();
            started = Instant::now();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect()
        });
        ep.timed_s = started.elapsed().as_secs_f64();
        for (lat, failed) in results {
            ep.attempted += lat.len() as u64;
            ep.failed += failed;
            ep.lat.extend(lat);
        }
        ep.rows = db.provider().stats.rows_scored.load(Relaxed) - scored_before;

        let retries: u64 = conns.iter().map(|c| c.retries).sum();
        for conn in conns {
            let said_goodbye = conn.client.goodbye().is_ok();
            ep.check(said_goodbye, "orderly goodbye");
        }
        server.shutdown();
        engine.finish(db.database());
        let c = &mut ep.counters;
        engine.caches_into(c);
        c.insert("server.admission_retries", retries as f64);
        c.insert(
            "server.frames_rejected",
            engine.now("server_frames_rejected"),
        );
        c.insert(
            "server.connections_open_after",
            engine.now("server_connections_open"),
        );
        ep
    }

    fn layers(&self, ctx: &Ctx, out: &mut Layers) {
        let tracer = ctx.tracer();
        let db = self.database();
        let provider_counters = TimingProvider::install(db.database(), tracer);
        let sample_lo = self
            .ops
            .iter()
            .find(|op| op.kind != PREPARED && op.kind != LOOKUP)
            .map_or(0, |op| op.lo);
        let probes = [
            Probe {
                sql: predict_text(sample_lo),
                weight: 0.9,
            },
            Probe {
                sql: lookup_text(sample_lo.min(ROWS as i64 - LOOKUP_WINDOW)),
                weight: 0.1,
            },
        ];
        let per_probe = replay_selects(&db, &provider_counters, &probes, 60, tracer, out);

        // The standalone kernel on exactly the window's rows.
        let lo = sample_lo as usize;
        let hi = lo + PREDICT_WINDOW as usize;
        let frame = Frame::new()
            .with("amount", FrameCol::F64(self.amount[lo..hi].to_vec()))
            .and_then(|f| f.with("rate", FrameCol::F64(self.rate[lo..hi].to_vec())))
            .expect("window frame");
        let compiled = CompiledPipeline::compile(&self.pipeline);
        let scoring = ScoringMetrics::default();
        let kernel_ns = median_ns(tracer, "ml.kernel", 200, || {
            std::hint::black_box(
                compiled
                    .score_with_metrics(&frame, &scoring)
                    .expect("kernel"),
            );
        });
        out.set("ml.kernel_ms", kernel_ns / 1e6);
        out.set("ml.featurize_ns_per_row", scoring.featurize.ns_per_row());
        out.set("ml.score_ns_per_row", scoring.score.ns_per_row());
        let in_db = per_probe[0]
            .get("engine.stmt_cached_ns")
            .copied()
            .unwrap_or(0.0);
        out.set("engine.tax_ratio", ratio(in_db, kernel_ns));

        self.protocol_layers(&db, tracer, out);
    }
}

impl ServePoint {
    /// Replays captured messages through the frame codec, and measures
    /// what the wire adds over an in-process `FlockSession::execute` of
    /// the same statement.
    fn protocol_layers(&self, db: &Arc<FlockDb>, tracer: &Arc<Tracer>, out: &mut Layers) {
        let sample: Vec<Op> = self.ops.iter().copied().take(200).collect();
        let mut session = db.session("admin");
        let requests: Vec<ClientMsg> = sample
            .iter()
            .map(|&Op { kind, lo }| match kind {
                PREPARED => ClientMsg::Execute {
                    stmt: 1,
                    params: vec![Value::Int(lo), Value::Int(lo + PREDICT_WINDOW - 1)],
                },
                LOOKUP => ClientMsg::Execute {
                    stmt: 2,
                    params: vec![Value::Int(lo), Value::Int(lo + LOOKUP_WINDOW - 1)],
                },
                _ => ClientMsg::Query {
                    sql: predict_text(lo),
                },
            })
            .collect();
        // The server flattens a result exactly like this before encoding.
        let replies: Vec<ServerMsg> = sample
            .iter()
            .map(|op| {
                let sql = if op.kind == LOOKUP {
                    lookup_text(op.lo)
                } else {
                    predict_text(op.lo)
                };
                let result = session.execute(&sql).expect("in-process statement");
                let batch = result.batch.expect("rows");
                ServerMsg::Rows(WireRows {
                    columns: batch
                        .schema()
                        .columns()
                        .iter()
                        .map(|c| WireColumn {
                            name: c.name.clone(),
                            dtype: c.data_type.to_string(),
                        })
                        .collect(),
                    rows: (0..batch.num_rows()).map(|i| batch.row(i)).collect(),
                    rows_affected: result.rows_affected as u64,
                    message: result.message,
                })
            })
            .collect();

        let read_frame = |framed: &[u8]| {
            FrameReader::new(DEFAULT_MAX_FRAME)
                .poll(&mut std::io::Cursor::new(framed))
                .expect("a whole valid frame")
                .expect("complete")
        };
        let n = sample.len() as f64;
        let framed_requests: Vec<Vec<u8>> = requests
            .iter()
            .map(|m| frame(m.encode().to_string().as_bytes()))
            .collect();
        let framed_replies: Vec<Vec<u8>> = replies
            .iter()
            .map(|m| frame(m.encode().to_string().as_bytes()))
            .collect();
        out.set(
            "protocol.req_encode_ns",
            median_ns(tracer, "protocol.req_encode", 15, || {
                for m in &requests {
                    std::hint::black_box(frame(m.encode().to_string().as_bytes()));
                }
            }) / n,
        );
        out.set(
            "protocol.req_decode_ns",
            median_ns(tracer, "protocol.req_decode", 15, || {
                for f in &framed_requests {
                    std::hint::black_box(
                        ClientMsg::decode(&read_frame(f)).expect("request decodes"),
                    );
                }
            }) / n,
        );
        out.set(
            "protocol.reply_encode_ns",
            median_ns(tracer, "protocol.reply_encode", 15, || {
                for m in &replies {
                    std::hint::black_box(frame(m.encode().to_string().as_bytes()));
                }
            }) / n,
        );
        out.set(
            "protocol.reply_decode_ns",
            median_ns(tracer, "protocol.reply_decode", 15, || {
                for f in &framed_replies {
                    std::hint::black_box(ServerMsg::decode(&read_frame(f)).expect("reply decodes"));
                }
            }) / n,
        );
        out.set(
            "protocol.bytes_per_reply",
            framed_replies.iter().map(Vec::len).sum::<usize>() as f64 / n,
        );

        // Round trip against the same statement in process.
        let server = Server::start(db.clone(), ServerConfig::default()).expect("bind 127.0.0.1:0");
        let mut conn = Conn::open(&server);
        let mut rtt = Vec::with_capacity(sample.len());
        let mut local = Vec::with_capacity(sample.len());
        let prepared = session.prepare(PREDICT_SQL).expect("prepare in process");
        let prepared_lookup = session.prepare(LOOKUP_SQL).expect("prepare in process");
        for (i, op) in sample.iter().enumerate() {
            let started = Instant::now();
            tracer.span("client.rtt", i as u64 + 1, None, || {
                std::hint::black_box(conn.request(*op).expect("request over the wire"));
            });
            rtt.push(started.elapsed().as_nanos() as f64 / 1e3);
            let started = Instant::now();
            let lo = op.lo;
            tracer.span("engine.stmt_in_process", i as u64 + 1, None, || {
                match op.kind {
                    PREPARED => {
                        let p = [Value::Int(lo), Value::Int(lo + PREDICT_WINDOW - 1)];
                        std::hint::black_box(
                            session.execute_prepared(&prepared, &p).expect("in process"),
                        );
                    }
                    LOOKUP => {
                        let p = [Value::Int(lo), Value::Int(lo + LOOKUP_WINDOW - 1)];
                        std::hint::black_box(
                            session
                                .execute_prepared(&prepared_lookup, &p)
                                .expect("in process"),
                        );
                    }
                    _ => {
                        std::hint::black_box(
                            session.execute(&predict_text(lo)).expect("in process"),
                        );
                    }
                }
            });
            local.push(started.elapsed().as_nanos() as f64 / 1e3);
        }
        let _ = conn.client.goodbye();
        server.shutdown();
        out.set("client.rtt_us", median(&rtt));
        out.set(
            "server.wire_overhead_us",
            (median(&rtt) - median(&local)).max(0.0),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::rng_for;

    #[test]
    fn the_same_seed_reproduces_the_statement_stream_byte_for_byte() {
        let render = |seed: u64| -> String {
            generate_ops(&mut rng_for(seed, 2), 500, ROWS)
                .iter()
                .map(|op| match op.kind {
                    PREPARED => format!("P{};", op.lo),
                    LOOKUP => lookup_text(op.lo),
                    _ => predict_text(op.lo),
                })
                .collect()
        };
        assert_eq!(render(7), render(7));
        assert_ne!(render(7), render(8));
        // Every seed holds the same amount of each kind of work.
        for seed in [7, 8] {
            let ops = generate_ops(&mut rng_for(seed, 2), 4_000, ROWS);
            let count = |k: u8| ops.iter().filter(|o| o.kind == k).count();
            assert_eq!(
                [count(0), count(1), count(2), count(3)],
                [1_800, 900, 900, 400]
            );
            assert!(ops.iter().all(|op| {
                let window = if op.kind == LOOKUP {
                    LOOKUP_WINDOW
                } else {
                    PREDICT_WINDOW
                };
                op.lo >= 0 && op.lo + window <= ROWS as i64
            }));
        }
    }
}
