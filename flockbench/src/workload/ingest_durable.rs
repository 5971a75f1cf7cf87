//! `ingest_durable` — the write path on disk.
//!
//! `FlockDb::open_with_fs` on a fresh directory with default
//! `DurabilityOptions` (fsync on commit, checkpoint every 64 commits) and
//! a table memory budget small enough that commit-time offload runs.
//! Set-up bulk-loads 20 000 rows so the writer appends to a table that
//! already has parts. One writer session then replays a mix in exact
//! shares, evenly interleaved (keys and values from the seed): 70 % autocommit
//! `INSERT … VALUES` of 100 rows, 10 % explicit `BEGIN; INSERT 10 rows;
//! UPDATE … WHERE k = ?; COMMIT`, 10 % a 250-event insert into a stream
//! with a tumbling-window continuous query followed by
//! `stream_tick_now()`, and 10 % prepared range reads over recently
//! written keys (the cached plan takes the `Rebind` path because DML moved
//! the table version). The harness stands in for the merger thread with a
//! `merge_now()` every 40 operations. Afterwards the handle is dropped and
//! the database reopened.
//!
//! Why: `run_insert`, commit, WAL append, fsync, checkpoint,
//! offload/part encode and the CQ tick do the work — ROADMAP item 2's
//! O(table) INSERT and full-snapshot checkpoints live here — and reads
//! beside writes expose a write-path gain that readers pay for.

use super::{
    dir_bytes, even_mix, open_disk, rng_for, Ctx, EngineCounters, Episode, Sample, Scale, Workload,
};
use crate::fsx::FsCounters;
use crate::layers::{median_ns, replay_selects, Layers, Probe};
use crate::provider::ProviderCounters;
use flock_core::{FlockDb, FlockSession};
use flock_rng::rngs::StdRng;
use flock_rng::Rng;
use flock_sql::wal::{RedoOp, WalRecord};
use flock_sql::{ColumnVector, DataType, RecordBatch, Schema, Value};
use serde_json::{json, Value as Json};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

/// Operations per episode: enough commits for two checkpoints.
const OPS: usize = 160;
const WARMUP_OPS: usize = 8;
const INSERT_ROWS: usize = 100;
const TXN_ROWS: usize = 10;
const STREAM_EVENTS: usize = 250;
/// Event-time distance between stream events; one insert fills exactly
/// one tumbling window.
const EVENT_GAP_MS: i64 = 4;
const WINDOW_MS: i64 = STREAM_EVENTS as i64 * EVENT_GAP_MS;
const READ_SPAN: i64 = 500;
const READ_SQL: &str = "SELECT COUNT(*), SUM(k) FROM events WHERE k BETWEEN ? AND ?";
/// Rows bulk-loaded into `events` during set-up.
const BASE_ROWS: usize = 20_000;
/// The harness runs the merger's work between operations at this cadence
/// (the background thread is off so that counts repeat).
const MERGE_EVERY_OPS: usize = 40;
/// Resident bytes a table may hold before a commit offloads it into
/// parts. The base load is ten budgets and an episode adds about six more.
const TABLE_MEMORY_BUDGET: u64 = 64 << 10;
const REGIONS: [&str; 5] = ["amer", "emea", "apac", "latam", "anz"];

const DDL: [&str; 3] = [
    "CREATE TABLE events (k INT, ts INT, v DOUBLE, cat VARCHAR)",
    "CREATE STREAM clicks (et INT NOT NULL, uid INT NOT NULL, region VARCHAR, amount DOUBLE) \
     WATERMARK (et, 0)",
    "CREATE CONTINUOUS QUERY clicks_1s ON clicks WINDOW TUMBLING (1000) EMIT INTO clicks_out AS \
     SELECT region, COUNT(*) AS n, SUM(amount) AS total FROM clicks GROUP BY region",
];

const KINDS: [&str; 4] = [
    "insert_100",
    "txn_insert_update",
    "stream_250_tick",
    "range_read",
];
/// Percent of the mix, in `KINDS` order.
const SHARES: [u32; 4] = [70, 10, 10, 10];

/// One operation with its statement text rendered ahead of the timed
/// phase, and what a correct reply to it holds.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    Insert { sql: String },
    Txn { insert: String, update: String },
    Stream { sql: String },
    Read { lo: i64, hi: i64 },
}

/// An open database and what the writer holds on it.
struct Live {
    db: FlockDb,
    session: FlockSession,
    read: flock_sql::PreparedStatement,
    counters: Arc<FsCounters>,
}

impl Op {
    /// Index into `KINDS`.
    fn kind(&self) -> u8 {
        match self {
            Op::Insert { .. } => 0,
            Op::Txn { .. } => 1,
            Op::Stream { .. } => 2,
            Op::Read { .. } => 3,
        }
    }
}

pub struct IngestDurable {
    base_rows: usize,
    warmup: Vec<Op>,
    ops: Vec<Op>,
    totals: Totals,
}

/// What the operation lists add up to.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Totals {
    /// Rows acknowledged into `events` (base load, warm-up and timed), and
    /// the sum of their keys.
    event_rows: i64,
    key_sum: i64,
    rows: u64,
    user_bytes: u64,
}

struct Generator {
    rng: StdRng,
    next_k: i64,
    next_et: i64,
    totals: Totals,
}

impl Generator {
    /// `n` rows for `events`, keys ascending from where the last left off.
    fn event_rows(&mut self, n: usize) -> String {
        let mut sql = String::from("INSERT INTO events VALUES ");
        for i in 0..n {
            let k = self.next_k;
            self.next_k += 1;
            // Multiples of 1/8: sums are exact in any order.
            let v = self.rng.gen_range(0i64..80_000) as f64 / 8.0;
            let cat = self.rng.gen_range(0u32..8);
            let sep = if i == 0 { "" } else { ", " };
            write!(sql, "{sep}({k}, {}, {v:?}, 'c{cat}')", k * 3).expect("write to a String");
            self.totals.event_rows += 1;
            self.totals.key_sum += k;
            self.totals.rows += 1;
            self.totals.user_bytes += 8 + 8 + 8 + 2;
        }
        sql
    }

    fn op(&mut self, kind: u8) -> Op {
        match kind {
            0 => Op::Insert {
                sql: self.event_rows(INSERT_ROWS),
            },
            1 => {
                let insert = self.event_rows(TXN_ROWS);
                let victim = self.rng.gen_range(0..self.next_k);
                Op::Txn {
                    insert,
                    update: format!("UPDATE events SET v = v + 1.0 WHERE k = {victim}"),
                }
            }
            2 => {
                let mut sql = String::from("INSERT INTO clicks VALUES ");
                for i in 0..STREAM_EVENTS {
                    let region = REGIONS[self.rng.gen_range(0..REGIONS.len())];
                    let amount = self.rng.gen_range(0i64..8_000) as f64 / 8.0;
                    let uid = self.rng.gen_range(0i64..10_000);
                    let sep = if i == 0 { "" } else { ", " };
                    write!(
                        sql,
                        "{sep}({}, {uid}, '{region}', {amount:?})",
                        self.next_et
                    )
                    .expect("write to a String");
                    self.next_et += EVENT_GAP_MS;
                    self.totals.rows += 1;
                    self.totals.user_bytes += 8 + 8 + 8 + region.len() as u64;
                }
                Op::Stream { sql }
            }
            _ => {
                let hi = self.next_k - 1;
                let lo = (hi - READ_SPAN + 1).max(0); // keys are dense from 0
                Op::Read { lo, hi }
            }
        }
    }
}

/// The seeded operation lists (warm-up, then timed) and their totals.
fn generate_ops(
    seed: u64,
    base_rows: usize,
    warmup: usize,
    timed: usize,
) -> (Vec<Op>, Vec<Op>, Totals) {
    let base = base_rows as i64;
    // The bulk-loaded keys 0..base are acknowledged rows too.
    let loaded = Totals {
        event_rows: base,
        key_sum: base * (base - 1) / 2,
        ..Totals::default()
    };
    let mut g = Generator {
        rng: rng_for(seed, 3),
        next_k: base,
        next_et: 0,
        totals: loaded,
    };
    // Both lists hold the mix in exact shares and the same order for every
    // seed; the seed sets keys, values and the UPDATE's victim.
    let warm: Vec<Op> = even_mix(warmup, &SHARES)
        .into_iter()
        .map(|k| g.op(k))
        .collect();
    let at_warm = g.totals;
    let ops: Vec<Op> = even_mix(timed, &SHARES)
        .into_iter()
        .map(|k| g.op(k))
        .collect();
    // Keys and the key sum cover both lists (everything acknowledged);
    // rows and bytes cover the timed list only (what the rates divide).
    let totals = Totals {
        rows: g.totals.rows - at_warm.rows,
        user_bytes: g.totals.user_bytes - at_warm.user_bytes,
        ..g.totals
    };
    (warm, ops, totals)
}

fn int_cell(batch: &RecordBatch, col: usize) -> Option<i64> {
    (batch.num_rows() == 1)
        .then(|| batch.column(col).get(0).as_i64())
        .flatten()
}

impl IngestDurable {
    pub fn generate(seed: u64, scale: Scale) -> IngestDurable {
        let base_rows = scale.n(BASE_ROWS);
        let (warmup, ops, totals) =
            generate_ops(seed, base_rows, scale.n(WARMUP_OPS), scale.n(OPS).max(12));
        IngestDurable {
            base_rows,
            warmup,
            ops,
            totals,
        }
    }

    fn open(&self, ctx: &Ctx, counters: &Arc<FsCounters>) -> FlockDb {
        open_disk(&ctx.dir, counters, &ctx.tracer, TABLE_MEMORY_BUDGET)
    }

    /// A fresh database with the schema, stream and continuous query in
    /// place, the base rows loaded and the range read prepared.
    fn database(&self, ctx: &Ctx) -> Live {
        let counters = Arc::new(FsCounters::default());
        let db = self.open(ctx, &counters);
        let mut session = db.session("admin");
        for ddl in DDL {
            session.execute(ddl).expect("set-up DDL");
        }
        session
            .append_batch("events", sample_batch(self.base_rows))
            .expect("base load");
        let read = session.prepare(READ_SQL).expect("prepare the range read");
        Live {
            db,
            session,
            read,
            counters,
        }
    }

    /// Executes one operation; `Ok(true)` when every reply was correct.
    /// In the traced run also files the statement-kind timings.
    fn apply(
        &self,
        op: &Op,
        live: &mut Live,
        ep: &mut Episode,
        traced: bool,
    ) -> flock_sql::Result<bool> {
        let Live {
            db,
            session,
            read,
            counters,
        } = live;
        let sample = |ep: &mut Episode, name: &'static str, v: f64| {
            if traced {
                ep.layer_samples.entry(name).or_default().push(v);
            }
        };
        match op {
            Op::Insert { sql } => {
                let fs_before = counters.snapshot().busy_ns;
                let started = Instant::now();
                let r = session.execute(sql)?;
                let ns = started.elapsed().as_nanos() as f64;
                let fs_ns = (counters.snapshot().busy_ns - fs_before) as f64;
                sample(
                    ep,
                    "engine.insert_ns_per_row",
                    (ns - fs_ns).max(0.0) / INSERT_ROWS as f64,
                );
                Ok(r.rows_affected == INSERT_ROWS)
            }
            Op::Txn { insert, update } => {
                session.execute("BEGIN")?;
                let inserted = session.execute(insert)?.rows_affected == TXN_ROWS;
                let updated = session.execute(update)?.rows_affected == 1;
                let started = Instant::now();
                session.execute("COMMIT")?;
                sample(ep, "engine.commit_ns", started.elapsed().as_nanos() as f64);
                Ok(inserted && updated)
            }
            Op::Stream { sql } => {
                let inserted = session.execute(sql)?.rows_affected == STREAM_EVENTS;
                let started = Instant::now();
                db.database().stream_tick_now();
                sample(ep, "stream.tick_ns", started.elapsed().as_nanos() as f64);
                Ok(inserted)
            }
            Op::Read { lo, hi } => {
                let r = session.execute_prepared(read, &[Value::Int(*lo), Value::Int(*hi)])?;
                let (count, key_sum) = (hi - lo + 1, (lo + hi) * (hi - lo + 1) / 2);
                Ok(r.batch.is_some_and(|b| {
                    int_cell(&b, 0) == Some(count) && int_cell(&b, 1) == Some(key_sum)
                }))
            }
        }
    }

    /// After reopening: every acknowledged row is there (count and key
    /// checksum) and each emitted window equals the batch `GROUP BY` over
    /// the same events, group order included.
    fn check_recovered(&self, db: &FlockDb, ep: &mut Episode) {
        let mut session = db.session("admin");
        let held = session.query("SELECT COUNT(*), SUM(k) FROM events").ok();
        let ok = held.is_some_and(|b| {
            int_cell(&b, 0) == Some(self.totals.event_rows)
                && int_cell(&b, 1) == Some(self.totals.key_sum)
        });
        ep.check(ok, "reopened database holds every acknowledged row");

        let rows = |b: &RecordBatch| {
            (0..b.num_rows())
                .map(|i| format!("{:?}", b.row(i)))
                .collect::<Vec<_>>()
        };
        let Ok(sink) = session.query("SELECT * FROM clicks_out") else {
            ep.check(false, "continuous-query sink is readable");
            return;
        };
        let mut starts: Vec<i64> = (0..sink.num_rows())
            .filter_map(|i| sink.column(0).get(i).as_i64())
            .collect();
        starts.sort_unstable();
        starts.dedup();
        let streamed = self
            .ops
            .iter()
            .chain(&self.warmup)
            .filter(|op| matches!(op, Op::Stream { .. }))
            .count();
        ep.check(
            starts.len() + 1 >= streamed,
            "every window but the open one was emitted",
        );
        for s in starts {
            let want = session.query(&format!(
                "SELECT region, COUNT(*) AS n, SUM(amount) AS total FROM clicks \
                 WHERE et >= {s} AND et < {} GROUP BY region",
                s + WINDOW_MS
            ));
            let got: Vec<String> = (0..sink.num_rows())
                .filter(|&i| sink.column(0).get(i).as_i64() == Some(s))
                .map(|i| format!("{:?}", &sink.row(i)[1..]))
                .collect();
            ep.check(
                want.is_ok_and(|w| rows(&w) == got),
                "window equals the batch GROUP BY",
            );
        }
    }
}

impl Workload for IngestDurable {
    fn name(&self) -> &'static str {
        "ingest_durable"
    }

    fn kinds(&self) -> &'static [&'static str] {
        &KINDS
    }

    fn config(&self) -> Json {
        json!({
            "fsync_policy": "fsync_on_commit = true, checkpoint every 64 commits (DurabilityOptions::default())",
            "table_memory_budget_bytes": TABLE_MEMORY_BUDGET,
            "base_rows": self.base_rows, "merge_now_every_ops": MERGE_EVERY_OPS,
            "mix": "exact counts, evenly interleaved: 70% autocommit INSERT of 100 rows, 10% BEGIN/INSERT 10/UPDATE/COMMIT, \
                    10% 250-event stream insert + stream_tick_now(), 10% prepared range read of recent keys",
            "load": "closed loop, one writer session",
            "ops_per_episode": self.ops.len(), "warmup_ops": self.warmup.len(),
            "rows_per_episode": self.totals.rows, "user_bytes_per_episode": self.totals.user_bytes,
        })
    }

    fn episode(&self, ctx: &Ctx) -> Episode {
        let mut ep = Episode::default();
        let traced = ctx.tracer.is_some();
        let setup = Instant::now();
        let mut live = self.database(ctx);
        ep.setup_s = setup.elapsed().as_secs_f64();
        let counters = live.counters.clone();

        for op in &self.warmup {
            let ok = self.apply(op, &mut live, &mut ep, false).unwrap_or(false);
            ep.check(ok, "warm-up operation");
        }
        let fs_before = counters.snapshot();
        let mut engine = EngineCounters::start(live.db.database());
        let mut merges = 0;
        let started = Instant::now();
        for (i, op) in self.ops.iter().enumerate() {
            let checkpoints = counters.snapshot().checkpoints;
            let sent = Instant::now();
            let ok = ctx.request(i as u64 + 1, || {
                self.apply(op, &mut live, &mut ep, traced).unwrap_or(false)
            });
            let ns = sent.elapsed().as_nanos() as u64;
            ep.lat.push(Sample {
                kind: op.kind(),
                ns,
            });
            ep.attempted += 1;
            ep.failed += u64::from(!ok);
            if counters.snapshot().checkpoints > checkpoints {
                ep.checkpoint_stall_us = ep.checkpoint_stall_us.max(ns as f64 / 1e3);
            }
            if (i + 1) % MERGE_EVERY_OPS == 0 {
                merges += live.db.database().merge_now();
            }
        }
        ep.timed_s = started.elapsed().as_secs_f64();
        ep.rows = self.totals.rows;
        ep.user_bytes = self.totals.user_bytes;
        ep.dir_bytes = dir_bytes(&ctx.dir);

        let fs = counters.snapshot().since(&fs_before);
        engine.finish(live.db.database());
        let c = &mut ep.counters;
        fs.counts_into(c);
        engine.caches_into(c);
        engine.parts_into(c);
        c.insert(
            "fs.bytes_written_per_user_byte",
            fs.bytes_written() as f64 / self.totals.user_bytes.max(1) as f64,
        );
        c.insert("parts.merged", merges as f64);
        c.insert(
            "stream.windows_closed",
            engine.delta("stream_windows_closed"),
        );
        c.insert("stream.rows_emitted", engine.delta("stream_rows_emitted"));
        c.insert("stream.late_events", engine.delta("stream_late_events"));
        c.insert("stream.cq_errors", engine.delta("stream_cq_errors"));
        if traced {
            let s = &mut ep.layer_samples;
            s.entry("fs.sync_ns").or_default().push(fs.sync_ns as f64);
            s.entry("fs.busy_ns").or_default().push(fs.busy_ns as f64);
            s.entry("checkpoint.ns")
                .or_default()
                .push(fs.checkpoint_ns as f64);
        }

        // Drop the handle, reopen, answer one query.
        let dropped = Instant::now();
        drop(live);
        let db = self.open(ctx, &counters);
        let answered = db.query("SELECT COUNT(*) FROM events").is_ok();
        ep.recover_s = Some(dropped.elapsed().as_secs_f64());
        ep.check(answered, "first query after reopening");
        self.check_recovered(&db, &mut ep);
        ep
    }

    fn layers(&self, ctx: &Ctx, out: &mut Layers) {
        let tracer = ctx.tracer();
        let mut live = self.database(ctx);
        let mut scratch = Episode::default();
        for op in self.warmup.iter().chain(self.ops.iter().take(40)) {
            let _ = self.apply(op, &mut live, &mut scratch, false);
        }
        let db = &live.db;

        // The read of the mix, layer by layer (plan, optimizer, exec).
        let sql = format!(
            "SELECT COUNT(*), SUM(k) FROM events WHERE k BETWEEN 100 AND {}",
            99 + READ_SPAN
        );
        replay_selects(
            db,
            &ProviderCounters::default(),
            &[Probe { sql, weight: 1.0 }],
            30,
            tracer,
            out,
        );

        // The statement that dominates the mix: lexing and parsing one
        // 100-row INSERT.
        if let Some(Op::Insert { sql }) = self.ops.iter().find(|op| matches!(op, Op::Insert { .. }))
        {
            let tokens = flock_sql::lexer::tokenize(sql).expect("INSERT lexes");
            out.set("lexer.tokens_per_stmt", tokens.len() as f64);
            let lex = median_ns(tracer, "lexer.tokenize", 30, || {
                std::hint::black_box(flock_sql::lexer::tokenize(sql).expect("INSERT lexes"));
            });
            // `parse_statement` lexes first; the parser's share is the rest.
            let lex_and_parse = median_ns(tracer, "parser.parse_statement", 30, || {
                std::hint::black_box(
                    flock_sql::parser::parse_statement(sql).expect("INSERT parses"),
                );
            });
            out.set("lexer.tokenize_ns", lex);
            out.set("parser.parse_ns", (lex_and_parse - lex).max(0.0));
        }

        // The WAL's redo record and a part image for rows of this shape.
        let record = WalRecord::Op {
            txn_id: 1,
            op: RedoOp::AppendRows {
                table: "events".into(),
                version: 2,
                txn_id: 1,
                rows: sample_batch(INSERT_ROWS),
            },
        };
        out.set(
            "wal.record_encode_ns",
            median_ns(tracer, "wal.record_encode", 200, || {
                std::hint::black_box(record.encode());
            }),
        );
        let part_rows = sample_batch(4_096);
        let encode_ns = median_ns(tracer, "parts.encode", 20, || {
            std::hint::black_box(flock_sql::parts::encode_part(1, 0, &part_rows));
        });
        out.set(
            "parts.encode_ns_per_row",
            encode_ns / part_rows.num_rows() as f64,
        );
    }
}

/// `n` rows shaped like `events` with keys `0..n`: the base load, and the
/// input of the codec measurements.
fn sample_batch(n: usize) -> RecordBatch {
    let schema = Arc::new(Schema::from_pairs(&[
        ("k", DataType::Int),
        ("ts", DataType::Int),
        ("v", DataType::Float),
        ("cat", DataType::Text),
    ]));
    let cats: Vec<Value> = (0..n).map(|i| Value::Text(format!("c{}", i % 8))).collect();
    RecordBatch::new(
        schema,
        vec![
            ColumnVector::from_i64(0..n as i64),
            ColumnVector::from_i64((0..n as i64).map(|k| k * 3)),
            ColumnVector::from_f64((0..n).map(|i| (i * 37 % 80_000) as f64 / 8.0)),
            ColumnVector::from_values(DataType::Text, &cats).expect("text column"),
        ],
    )
    .expect("sample batch")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_reproduces_the_statement_stream_byte_for_byte() {
        let (warm_a, ops_a, totals_a) = generate_ops(11, 50, 4, 60);
        let (warm_b, ops_b, totals_b) = generate_ops(11, 50, 4, 60);
        assert_eq!((&warm_a, &ops_a, totals_a), (&warm_b, &ops_b, totals_b));
        assert_ne!(ops_a, generate_ops(12, 50, 4, 60).1);
        // Keys are dense from 0, so the checksum follows from the count.
        let Totals {
            event_rows,
            key_sum,
            ..
        } = totals_a;
        assert_eq!(key_sum, event_rows * (event_rows - 1) / 2);
        // Every seed holds the same amount of each kind of work.
        let count = |ops: &[Op], k: u8| ops.iter().filter(|op| op.kind() == k).count();
        for ops in [&ops_a, &generate_ops(12, 50, 4, 60).1] {
            assert_eq!(
                [count(ops, 0), count(ops, 1), count(ops, 2), count(ops, 3)],
                [42, 6, 6, 6]
            );
        }
    }
}
