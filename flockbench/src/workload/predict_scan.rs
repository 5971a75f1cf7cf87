//! `predict_scan` — batch scoring in process.
//!
//! One `FlockSession` over an in-memory 120 000-row `customers` table (the
//! corpus crate's `TabularDataset`) and a deployed 40×6 GBT round-robins
//! `Q1` `AVG(PREDICT(…)) WHERE city = 'nyc' AND age >= 30` (the query
//! ROADMAP measured at 34.5 ms in-DB against a 12.7 ms kernel; the
//! cross-optimizer can specialise it), `Q2` `AVG(PREDICT(…))` over the
//! whole table, and `Q3` a thresholded top-100 by score.
//!
//! Why: scan and filter operators, the cross-optimizer, the provider,
//! featurisation and the tree kernel do the work; parsing and the wire are
//! under 1 %. This is where the in-DB "engine tax" over the standalone
//! kernel is attributed and where kernel or operator work shows.
//! `serve_point` is its bypass.

use super::{ratio, Ctx, EngineCounters, Episode, Sample, Scale, Workload};
use crate::layers::{median_ns, replay_selects, Layers, Probe};
use crate::provider::TimingProvider;
use flock_core::{FlockDb, Lineage, XOptConfig};
use flock_corpus::tabular::TabularDataset;
use flock_ml::{CompiledPipeline, Frame, FrameCol, Pipeline, ScoringMetrics};
use flock_sql::{ColumnVector, DataType, RecordBatch, Schema, Value};
use serde_json::{json, Value as Json};
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;
use std::time::Instant;

const ROWS: usize = 120_000;
/// The model is a constant of the benchmark, like the schema: trained on
/// a fixed-seed sample, so every run scores the same trees and the seed
/// changes the rows, not the work per row.
const TRAIN_ROWS: usize = 8_000;
const MODEL_SEED: u64 = 42;
const TREES: usize = 40;
const DEPTH: usize = 6;
/// Timed rounds of (Q1, Q2, Q3) per episode, and untimed ones before.
const ROUNDS: usize = 12;
const WARMUP_ROUNDS: usize = 2;
const TOP_K: usize = 100;

const ARGS: &str = "age, income, debt, tenure, noise1, noise2, city";

fn queries() -> [String; 3] {
    [
        format!("SELECT AVG(PREDICT(good_model, {ARGS})) FROM customers WHERE city = 'nyc' AND age >= 30.0"),
        format!("SELECT AVG(PREDICT(good_model, {ARGS})) FROM customers"),
        format!(
            "SELECT id, PREDICT(good_model, {ARGS}) AS s FROM customers \
             WHERE PREDICT(good_model, {ARGS}) > 0.5 ORDER BY s DESC LIMIT {TOP_K}"
        ),
    ]
}

pub struct PredictScan {
    data: TabularDataset,
    pipeline: Pipeline,
    rounds: usize,
    warmup_rounds: usize,
}

/// A statement's result reduced to what is compared: every cell, floats by
/// their bits.
type Fingerprint = Vec<Vec<u64>>;

fn fingerprint(batch: &RecordBatch) -> Fingerprint {
    (0..batch.num_rows())
        .map(|r| {
            batch
                .row(r)
                .iter()
                .map(|v| match v {
                    Value::Int(i) => *i as u64,
                    Value::Float(f) => f.to_bits(),
                    other => panic!("unexpected result cell {other:?}"),
                })
                .collect()
        })
        .collect()
}

impl PredictScan {
    pub fn generate(seed: u64, scale: Scale) -> PredictScan {
        let rows = scale.n(ROWS);
        let data = TabularDataset::generate(rows, seed);
        let pipeline = TabularDataset::generate(scale.n(TRAIN_ROWS).max(400), MODEL_SEED)
            .train_pipeline(TREES, DEPTH);
        PredictScan {
            data,
            pipeline,
            rounds: scale.n(ROUNDS).max(2),
            warmup_rounds: WARMUP_ROUNDS.min(scale.n(ROUNDS)),
        }
    }

    /// An in-memory database with `customers` loaded and the model deployed.
    fn database(&self) -> FlockDb {
        let d = &self.data;
        let db = FlockDb::new();
        db.execute(
            "CREATE TABLE customers (id INT, age DOUBLE, income DOUBLE, debt DOUBLE, \
             tenure DOUBLE, noise1 DOUBLE, noise2 DOUBLE, city VARCHAR)",
        )
        .expect("create customers");
        let schema = Arc::new(Schema::from_pairs(&[
            ("id", DataType::Int),
            ("age", DataType::Float),
            ("income", DataType::Float),
            ("debt", DataType::Float),
            ("tenure", DataType::Float),
            ("noise1", DataType::Float),
            ("noise2", DataType::Float),
            ("city", DataType::Text),
        ]));
        let cities: Vec<Value> = d.city.iter().map(|c| Value::Text(c.clone())).collect();
        let batch = RecordBatch::new(
            schema,
            vec![
                ColumnVector::from_i64(0..d.len() as i64),
                ColumnVector::from_f64(d.age.iter().copied()),
                ColumnVector::from_f64(d.income.iter().copied()),
                ColumnVector::from_f64(d.debt.iter().copied()),
                ColumnVector::from_f64(d.tenure.iter().copied()),
                ColumnVector::from_f64(d.noise1.iter().copied()),
                ColumnVector::from_f64(d.noise2.iter().copied()),
                ColumnVector::from_values(DataType::Text, &cities).expect("text column"),
            ],
        )
        .expect("customers batch");
        let mut admin = db.session("admin");
        admin
            .append_batch("customers", batch)
            .expect("load customers");
        admin
            .deploy_model("good_model", &self.pipeline, Lineage::default())
            .expect("deploy good_model");
        db
    }

    /// The pipeline's inputs for the rows at `keep`.
    fn frame_of(&self, keep: &[usize]) -> Frame<'static> {
        let d = &self.data;
        let take = |v: &[f64]| FrameCol::F64(keep.iter().map(|&i| v[i]).collect());
        Frame::new()
            .with("age", take(&d.age))
            .and_then(|f| f.with("income", take(&d.income)))
            .and_then(|f| f.with("debt", take(&d.debt)))
            .and_then(|f| f.with("tenure", take(&d.tenure)))
            .and_then(|f| f.with("noise1", take(&d.noise1)))
            .and_then(|f| f.with("noise2", take(&d.noise2)))
            .and_then(|f| {
                f.with(
                    "city",
                    FrameCol::Str(keep.iter().map(|&i| d.city[i].clone()).collect()),
                )
            })
            .expect("columns have one length")
    }

    fn q1_rows(&self) -> Vec<usize> {
        (0..self.data.len())
            .filter(|&i| self.data.city[i] == "nyc" && self.data.age[i] >= 30.0)
            .collect()
    }

    /// Checks the in-DB answers against the standalone runtime: the two
    /// averages to rounding (the engine sums per morsel, the check sums in
    /// row order) and the top-k scores bit for bit.
    fn check_against_kernel(&self, ep: &mut Episode, reference: &[Fingerprint; 3]) {
        let compiled = CompiledPipeline::compile(&self.pipeline);
        let all: Vec<usize> = (0..self.data.len()).collect();
        let scores = compiled
            .score(&self.frame_of(&all))
            .expect("standalone scores");
        let mean = |idx: &[usize]| idx.iter().map(|&i| scores[i]).sum::<f64>() / idx.len() as f64;
        let close = |fp: &Fingerprint, want: f64| {
            fp.len() == 1 && ((f64::from_bits(fp[0][0]) - want) / want).abs() < 1e-9
        };
        ep.check(
            close(&reference[0], mean(&self.q1_rows())),
            "Q1 equals the standalone kernel",
        );
        ep.check(
            close(&reference[1], mean(&all)),
            "Q2 equals the standalone kernel",
        );
        let mut top: Vec<u64> = scores
            .iter()
            .filter(|s| **s > 0.5)
            .map(|s| s.to_bits())
            .collect();
        top.sort_unstable_by(|a, b| f64::from_bits(*b).total_cmp(&f64::from_bits(*a)));
        top.truncate(TOP_K);
        let got: Vec<u64> = reference[2].iter().map(|r| r[1]).collect();
        let ids_match = reference[2]
            .iter()
            .all(|r| scores[r[0] as usize].to_bits() == r[1]);
        ep.check(
            got == top && ids_match,
            "Q3 top-k equals the standalone kernel",
        );
    }
}

impl Workload for PredictScan {
    fn name(&self) -> &'static str {
        "predict_scan"
    }

    fn kinds(&self) -> &'static [&'static str] {
        &[
            "q1_avg_predict_filtered",
            "q2_avg_predict_all",
            "q3_top_k_by_score",
        ]
    }

    fn config(&self) -> Json {
        json!({
            "rows": self.data.len(), "train_rows": TRAIN_ROWS, "model_seed": MODEL_SEED, "trees": TREES, "depth": DEPTH,
            "queries": queries().to_vec(),
            "load": "closed loop, one session", "rounds_per_episode": self.rounds,
            "ops_per_episode": self.rounds * 3, "warmup_rounds": self.warmup_rounds,
        })
    }

    fn episode(&self, ctx: &Ctx) -> Episode {
        let mut ep = Episode::default();
        let qs = queries();
        let setup = Instant::now();
        let db = self.database();
        if let Some(tracer) = &ctx.tracer {
            TimingProvider::install(db.database(), tracer);
        }
        let mut session = db.session("admin");
        ep.setup_s = setup.elapsed().as_secs_f64();

        // References: the cross-optimizer must not change a single bit.
        let run_all = |session: &mut flock_core::FlockSession| -> [Fingerprint; 3] {
            [0, 1, 2].map(|i| fingerprint(&session.query(&qs[i]).expect("reference query")))
        };
        db.set_xopt_config(XOptConfig::disabled());
        let plain = run_all(&mut session);
        db.set_xopt_config(XOptConfig::default());
        let reference = run_all(&mut session);
        for (i, name) in ["Q1", "Q2", "Q3"].iter().enumerate() {
            ep.check(
                plain[i] == reference[i],
                &format!("{name} bit-equal with xopt on and off"),
            );
        }
        self.check_against_kernel(&mut ep, &reference);

        for _ in 0..self.warmup_rounds {
            for q in &qs {
                let _ = session.query(q);
            }
        }
        let mut engine = EngineCounters::start(db.database());
        let scored_before = db.provider().stats.rows_scored.load(Relaxed);
        let started = Instant::now();
        for round in 0..self.rounds {
            for (i, q) in qs.iter().enumerate() {
                let sent = Instant::now();
                let ok = ctx.request((round * 3 + i) as u64 + 1, || {
                    session
                        .query(q)
                        .is_ok_and(|b| fingerprint(&b) == reference[i])
                });
                ep.lat.push(Sample {
                    kind: i as u8,
                    ns: sent.elapsed().as_nanos() as u64,
                });
                ep.attempted += 1;
                ep.failed += u64::from(!ok);
            }
        }
        ep.timed_s = started.elapsed().as_secs_f64();
        ep.rows = db.provider().stats.rows_scored.load(Relaxed) - scored_before;
        engine.finish(db.database());
        engine.caches_into(&mut ep.counters);
        ep
    }

    fn layers(&self, ctx: &Ctx, out: &mut Layers) {
        let tracer = ctx.tracer();
        let db = self.database();
        let provider_counters = TimingProvider::install(db.database(), tracer);
        let probes: Vec<Probe> = queries()
            .into_iter()
            .map(|sql| Probe { sql, weight: 1.0 })
            .collect();
        let per_probe = replay_selects(&db, &provider_counters, &probes, 9, tracer, out);

        // The standalone kernel on exactly Q1's qualifying rows.
        let frame = self.frame_of(&self.q1_rows());
        let compiled = CompiledPipeline::compile(&self.pipeline);
        let scoring = ScoringMetrics::default();
        let kernel_ns = median_ns(tracer, "ml.kernel", 9, || {
            std::hint::black_box(
                compiled
                    .score_with_metrics(&frame, &scoring)
                    .expect("kernel"),
            );
        });
        out.set("ml.kernel_ms", kernel_ns / 1e6);
        out.set("ml.featurize_ns_per_row", scoring.featurize.ns_per_row());
        out.set("ml.score_ns_per_row", scoring.score.ns_per_row());
        let q1 = per_probe[0]
            .get("engine.stmt_cached_ns")
            .copied()
            .unwrap_or(0.0);
        out.set("engine.tax_ratio", ratio(q1, kernel_ns));
        let q2 = &per_probe[1];
        let share = ratio(
            q2.get("provider.predict_ns").copied().unwrap_or(0.0),
            q2.get("engine.stmt_cached_ns").copied().unwrap_or(0.0),
        );
        out.detail
            .insert("provider_share_of_q2".to_string(), share.into());
    }
}
