//! `scan_parts` — data larger than the engine's own memory budget, no ML.
//!
//! An on-disk database whose `facts` table (`k INT, ts INT, v DOUBLE, cat
//! VARCHAR`) is about six times its table memory budget, loaded in set-up
//! through `append_batch` in 8 192-row batches under a small budget, then
//! `merge_now()` under the real one to a fixed part layout, then
//! checkpointed and reopened so scans start from disk parts. A 1 000-row
//! `dim` stays resident. One session round-robins `S1` a zone-map-pruned
//! range aggregate, `S2` a full-table `GROUP BY cat`, `S3` an unprunable
//! `WHERE v > x` projecting one column, and `S4` a range-limited join to
//! `dim` with a group-by.
//!
//! Why: part decode, zone-map pruning and the relational operators do the
//! work. It uses the `parts` layer for reads where `ingest_durable` uses
//! it for writes — a part format that decodes faster but encodes slower
//! moves the two in opposite directions — and it is the "larger than
//! cache" case beside `predict_scan`'s "fits in memory".

use super::{
    dir_bytes, open_disk, ratio, rng_for, Ctx, EngineCounters, Episode, Sample, Scale, Workload,
};
use crate::fsx::FsCounters;
use crate::layers::{median_ns, replay_selects, Layers, Probe};
use crate::provider::ProviderCounters;
use flock_core::FlockDb;
use flock_rng::Rng;
use flock_sql::{ColumnVector, DataType, RecordBatch, Schema, Value};
use serde_json::{json, Value as Json};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

const ROWS: usize = 400_000;
const LOAD_BATCH: usize = 8_192;
/// `facts` is 4 columns × 8 bytes × 400 000 rows ≈ 12.8 MB in the engine's
/// resident model: about six budgets.
const TABLE_MEMORY_BUDGET: u64 = 2 << 20;
/// The load runs under an eighth of the budget so every batch becomes a
/// small part; the merger then folds them up to the real budget's cap.
const LOAD_BUDGET_DIVISOR: u64 = 8;
const DIM_ROWS: usize = 1_000;
const CATS: usize = 8;
const GROUPS: usize = 10;
/// Timed rounds of (S1, S2, S3, S4) per episode, and untimed ones before.
const ROUNDS: usize = 24;
const WARMUP_ROUNDS: usize = 2;
/// S1 reads a sixteenth of the key space, S4 an eighth.
const S1_FRACTION: usize = 16;
const S4_FRACTION: usize = 8;
const S3_THRESHOLD: f64 = 9_000.0;

/// A statement and the answer the generator computed for it: rows of
/// (group label, count, sum), floats compared by value — every `v` is a
/// multiple of 1/8, so a sum is exact in any order.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    pub sql: String,
    pub want: BTreeMap<String, (i64, f64)>,
}

pub struct ScanParts {
    rows: usize,
    budget: u64,
    ts: Vec<i64>,
    v: Vec<f64>,
    cat: Vec<u8>,
    /// `dim.grp` by `dim.id`.
    dim_group: Vec<u8>,
    warmup: Vec<Query>,
    queries: Vec<Query>,
    user_bytes: u64,
}

fn facts_schema() -> Arc<Schema> {
    Arc::new(Schema::from_pairs(&[
        ("k", DataType::Int),
        ("ts", DataType::Int),
        ("v", DataType::Float),
        ("cat", DataType::Text),
    ]))
}

impl ScanParts {
    pub fn generate(seed: u64, scale: Scale) -> ScanParts {
        let rows = scale.n(ROWS);
        let mut rng = rng_for(seed, 4);
        // `ts` climbs with `k` through 0..DIM_ROWS and is S4's join key.
        let ts: Vec<i64> = (0..rows).map(|k| (k * DIM_ROWS / rows) as i64).collect();
        let v: Vec<f64> = (0..rows)
            .map(|_| rng.gen_range(0i64..80_000) as f64 / 8.0)
            .collect();
        let cat: Vec<u8> = (0..rows)
            .map(|_| rng.gen_range(0..CATS as u32) as u8)
            .collect();
        let dim_group: Vec<u8> = (0..DIM_ROWS)
            .map(|_| rng.gen_range(0..GROUPS as u32) as u8)
            .collect();
        let user_bytes = rows as u64 * (8 + 8 + 8 + 2);
        let mut w = ScanParts {
            rows,
            budget: if scale.smoke {
                TABLE_MEMORY_BUDGET / 20
            } else {
                TABLE_MEMORY_BUDGET
            },
            ts,
            v,
            cat,
            dim_group,
            warmup: Vec::new(),
            queries: Vec::new(),
            user_bytes,
        };
        let mut round = |w: &ScanParts| -> Vec<Query> {
            let s1 = rng.gen_range(0..rows - rows / S1_FRACTION);
            let s4 = rng.gen_range(0..rows - rows / S4_FRACTION);
            vec![w.s1(s1), w.s2(), w.s3(), w.s4(s4)]
        };
        w.warmup = (0..WARMUP_ROUNDS.min(scale.n(ROUNDS)))
            .flat_map(|_| round(&w))
            .collect();
        w.queries = (0..scale.n(ROUNDS).max(2))
            .flat_map(|_| round(&w))
            .collect();
        w
    }

    pub fn queries(&self) -> &[Query] {
        &self.queries
    }

    fn aggregate(
        &self,
        rows: impl Iterator<Item = usize>,
        label: impl Fn(usize) -> String,
    ) -> BTreeMap<String, (i64, f64)> {
        let mut out: BTreeMap<String, (i64, f64)> = BTreeMap::new();
        for i in rows {
            let e = out.entry(label(i)).or_default();
            e.0 += 1;
            e.1 += self.v[i];
        }
        out
    }

    fn s1(&self, lo: usize) -> Query {
        let hi = lo + self.rows / S1_FRACTION - 1;
        Query {
            sql: format!("SELECT COUNT(*), SUM(v) FROM facts WHERE k BETWEEN {lo} AND {hi}"),
            want: self.aggregate(lo..=hi, |_| "all".into()),
        }
    }

    fn s2(&self) -> Query {
        Query {
            sql: "SELECT cat, COUNT(*), SUM(v) FROM facts GROUP BY cat".into(),
            want: self.aggregate(0..self.rows, |i| format!("c{}", self.cat[i])),
        }
    }

    fn s3(&self) -> Query {
        let hits = (0..self.rows).filter(|&i| self.v[i] > S3_THRESHOLD);
        let (n, ts_sum) = hits.fold((0i64, 0i64), |(n, s), i| (n + 1, s + self.ts[i]));
        Query {
            sql: format!("SELECT COUNT(ts), SUM(ts) FROM facts WHERE v > {S3_THRESHOLD:?}"),
            want: BTreeMap::from([("all".to_string(), (n, ts_sum as f64))]),
        }
    }

    fn s4(&self, lo: usize) -> Query {
        let hi = lo + self.rows / S4_FRACTION - 1;
        Query {
            sql: format!(
                "SELECT d.grp, COUNT(*), SUM(f.v) FROM facts f JOIN dim d ON f.ts = d.id \
                 WHERE f.k BETWEEN {lo} AND {hi} GROUP BY d.grp"
            ),
            want: self.aggregate(lo..=hi, |i| {
                format!("g{}", self.dim_group[self.ts[i] as usize])
            }),
        }
    }

    /// Loads, merges, checkpoints and reopens; returns the reopened
    /// database and how many merges ran.
    fn database(&self, ctx: &Ctx, counters: &Arc<FsCounters>) -> (FlockDb, usize) {
        let db = open_disk(
            &ctx.dir,
            counters,
            &ctx.tracer,
            self.budget / LOAD_BUDGET_DIVISOR,
        );
        let mut session = db.session("admin");
        session
            .execute("CREATE TABLE facts (k INT, ts INT, v DOUBLE, cat VARCHAR)")
            .expect("create facts");
        session
            .execute("CREATE TABLE dim (id INT, grp VARCHAR, w DOUBLE)")
            .expect("create dim");
        let schema = facts_schema();
        for start in (0..self.rows).step_by(LOAD_BATCH) {
            let end = (start + LOAD_BATCH).min(self.rows);
            let cats: Vec<Value> = self.cat[start..end]
                .iter()
                .map(|c| Value::Text(format!("c{c}")))
                .collect();
            let batch = RecordBatch::new(
                schema.clone(),
                vec![
                    ColumnVector::from_i64(start as i64..end as i64),
                    ColumnVector::from_i64(self.ts[start..end].iter().copied()),
                    ColumnVector::from_f64(self.v[start..end].iter().copied()),
                    ColumnVector::from_values(DataType::Text, &cats).expect("text column"),
                ],
            )
            .expect("facts batch");
            session.append_batch("facts", batch).expect("append facts");
        }
        let groups: Vec<Value> = self
            .dim_group
            .iter()
            .map(|g| Value::Text(format!("g{g}")))
            .collect();
        let dim = RecordBatch::new(
            Arc::new(Schema::from_pairs(&[
                ("id", DataType::Int),
                ("grp", DataType::Text),
                ("w", DataType::Float),
            ])),
            vec![
                ColumnVector::from_i64(0..DIM_ROWS as i64),
                ColumnVector::from_values(DataType::Text, &groups).expect("text column"),
                ColumnVector::from_f64((0..DIM_ROWS).map(|i| i as f64 / 8.0)),
            ],
        )
        .expect("dim batch");
        session.append_batch("dim", dim).expect("append dim");
        db.database().set_table_memory_budget(self.budget);
        let merges = db.database().merge_now();
        db.database().checkpoint_now().expect("checkpoint");
        drop(session);
        drop(db);
        (
            open_disk(&ctx.dir, counters, &ctx.tracer, self.budget),
            merges,
        )
    }

    fn answer_ok(batch: &RecordBatch, want: &BTreeMap<String, (i64, f64)>) -> bool {
        let got: Option<BTreeMap<String, (i64, f64)>> = (0..batch.num_rows())
            .map(|i| match batch.row(i).as_slice() {
                [Value::Text(label), Value::Int(n), sum] => {
                    Some((label.clone(), (*n, sum.as_f64()?)))
                }
                // An ungrouped aggregate is the single group "all".
                [Value::Int(n), sum] => Some(("all".to_string(), (*n, sum.as_f64()?))),
                _ => None,
            })
            .collect();
        got.as_ref() == Some(want)
    }
}

impl Workload for ScanParts {
    fn name(&self) -> &'static str {
        "scan_parts"
    }

    fn kinds(&self) -> &'static [&'static str] {
        &[
            "s1_pruned_range",
            "s2_group_by_cat",
            "s3_unprunable_filter",
            "s4_range_join_dim",
        ]
    }

    fn config(&self) -> Json {
        json!({
            "rows": self.rows, "dim_rows": DIM_ROWS, "load_batch_rows": LOAD_BATCH,
            "table_memory_budget_bytes": self.budget,
            "resident_model_bytes": self.rows * 4 * 8,
            "fsync_policy": "fsync_on_commit = true, checkpoint every 64 commits (DurabilityOptions::default())",
            "queries": "S1 pruned range aggregate (1/16 of keys), S2 GROUP BY cat, S3 WHERE v > x, S4 range join to dim (1/8 of keys)",
            "load": "closed loop, one session",
            "ops_per_episode": self.queries.len(), "warmup_ops": self.warmup.len(),
            "user_bytes": self.user_bytes,
        })
    }

    fn episode(&self, ctx: &Ctx) -> Episode {
        let mut ep = Episode::default();
        let counters = Arc::new(FsCounters::default());
        let setup = Instant::now();
        let (db, merges) = self.database(ctx, &counters);
        let mut session = db.session("admin");
        ep.setup_s = setup.elapsed().as_secs_f64();
        let loaded = session.query("SELECT COUNT(*) FROM facts").ok();
        ep.check(
            loaded.is_some_and(|b| b.column(0).get(0).as_i64() == Some(self.rows as i64)),
            "reopened facts holds every loaded row",
        );

        for q in &self.warmup {
            let _ = session.query(&q.sql);
        }
        let fs_before = counters.snapshot();
        let mut engine = EngineCounters::start(db.database());
        let started = Instant::now();
        for (i, q) in self.queries.iter().enumerate() {
            let sent = Instant::now();
            let ok = ctx.request(i as u64 + 1, || {
                session
                    .query(&q.sql)
                    .is_ok_and(|b| Self::answer_ok(&b, &q.want))
            });
            // Rounds are (S1, S2, S3, S4) in order.
            ep.lat.push(Sample {
                kind: (i % 4) as u8,
                ns: sent.elapsed().as_nanos() as u64,
            });
            ep.attempted += 1;
            ep.failed += u64::from(!ok);
        }
        ep.timed_s = started.elapsed().as_secs_f64();
        ep.user_bytes = self.user_bytes;
        ep.dir_bytes = dir_bytes(&ctx.dir);

        engine.finish(db.database());
        let fs = counters.snapshot().since(&fs_before);
        ep.rows = engine.delta("rows_scanned") as u64;
        let (pruned, scanned) = (
            engine.delta("zonemap_parts_pruned"),
            engine.delta("zonemap_parts_scanned"),
        );
        let c = &mut ep.counters;
        fs.counts_into(c);
        engine.caches_into(c);
        engine.parts_into(c);
        c.insert("parts.merged", merges as f64);
        c.insert("parts.pruned", pruned);
        c.insert("parts.scanned", scanned);
        c.insert("parts.prune_ratio", ratio(pruned, pruned + scanned));
        c.insert("parts.scan_peak_bytes", engine.now("part_scan_peak_bytes"));
        // Over the whole episode: the load is where this workload writes.
        c.insert(
            "fs.bytes_written_per_user_byte",
            counters.snapshot().bytes_written() as f64 / self.user_bytes as f64,
        );
        if ctx.tracer.is_some() {
            let s = &mut ep.layer_samples;
            s.entry("fs.busy_ns").or_default().push(fs.busy_ns as f64);
            s.entry("fs.sync_ns").or_default().push(fs.sync_ns as f64);
        }

        let dropped = Instant::now();
        drop(session);
        drop(db);
        let db = open_disk(&ctx.dir, &counters, &ctx.tracer, self.budget);
        let answered = db.query("SELECT COUNT(*) FROM facts");
        ep.recover_s = Some(dropped.elapsed().as_secs_f64());
        ep.check(
            answered.is_ok_and(|b| b.column(0).get(0).as_i64() == Some(self.rows as i64)),
            "first query after reopening",
        );
        ep
    }

    fn layers(&self, ctx: &Ctx, out: &mut Layers) {
        let tracer = ctx.tracer();
        let counters = Arc::new(FsCounters::default());
        let (db, _) = self.database(ctx, &counters);
        let probes: Vec<Probe> = self.queries[..4]
            .iter()
            .map(|q| Probe {
                sql: q.sql.clone(),
                weight: 1.0,
            })
            .collect();
        replay_selects(&db, &ProviderCounters::default(), &probes, 9, tracer, out);

        // One merged part of `facts`, decoded whole and projected to `v`.
        let catalog = db.database().catalog();
        let part = catalog
            .table("facts")
            .ok()
            .and_then(|t| t.current().parts.first().cloned());
        if let Some(meta) = part {
            let name = flock_sql::parts::part_file_name(meta.id);
            let bytes = std::fs::read(ctx.dir.join(name)).expect("part file");
            out.set(
                "parts.decode_ns_per_part",
                median_ns(tracer, "parts.decode", 15, || {
                    std::hint::black_box(
                        flock_sql::parts::decode_part(&bytes, None).expect("part decodes"),
                    );
                }),
            );
            out.set(
                "parts.decode_projected_ns_per_part",
                median_ns(tracer, "parts.decode_projected", 15, || {
                    std::hint::black_box(
                        flock_sql::parts::decode_part(&bytes, Some(&[2])).expect("part decodes"),
                    );
                }),
            );
            let batch = flock_sql::parts::decode_part(&bytes, None)
                .expect("part decodes")
                .batch;
            let encode_ns = median_ns(tracer, "parts.encode", 9, || {
                std::hint::black_box(flock_sql::parts::encode_part(meta.id, meta.level, &batch));
            });
            out.set(
                "parts.encode_ns_per_row",
                encode_ns / batch.num_rows().max(1) as f64,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_reproduces_the_statement_stream_and_its_answers() {
        let scale = Scale { smoke: true };
        let (a, b) = (ScanParts::generate(5, scale), ScanParts::generate(5, scale));
        assert_eq!(a.queries(), b.queries());
        assert_ne!(a.queries(), ScanParts::generate(6, scale).queries());
        // S2 covers the whole table.
        let total: i64 = a.queries()[1].want.values().map(|(n, _)| n).sum();
        assert_eq!(total, a.rows as i64);
        // S4's groups partition its key range.
        let joined: i64 = a.queries()[3].want.values().map(|(n, _)| n).sum();
        assert_eq!(joined, (a.rows / S4_FRACTION) as i64);
    }
}
