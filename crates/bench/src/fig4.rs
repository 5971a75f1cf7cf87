//! Figure 4: in-database inference vs standalone runtimes.
//!
//! Left panel: total inference time across dataset sizes for
//! * `sklearn`  — row-at-a-time interpreted scoring (standalone);
//! * `ORT` — the standalone vectorized runtime (single thread);
//! * `SONNX` — in-DBMS PREDICT with engine parallelism, cross-optimizer
//!   off;
//! * `SONNX-ext` — in-DBMS PREDICT with the full cross-optimizer.
//!
//! Right panel: speedups at a fixed size relative to the Inline-SQL
//! anchor (in-DB scoring through the row-UDF path), matching the paper's
//! "Inline SQL 1× / ORT 17× / Optimized 24×" bar.

use flock_core::{FlockDb, Lineage, XOptConfig};
use flock_corpus::tabular::TabularDataset;
use flock_ml::{interpreted_score, StandaloneRuntime};
use flock_sql::exec::ExecOptions;
use std::time::Instant;

/// Milliseconds of the fastest of `repeats` runs.
pub fn time_best_ms(repeats: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..repeats.max(1) {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64() * 1e3);
    }
    best
}

/// One row of the left panel.
#[derive(Debug, Clone)]
pub struct Fig4Row {
    pub size: usize,
    pub sklearn_ms: f64,
    pub ort_ms: f64,
    pub sonnx_ms: f64,
    pub sonnx_ext_ms: f64,
}

/// Threads the host actually offers.
pub fn host_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// One operator of the executed in-DB plan with its *measured* self time,
/// read from the engine's plan metrics (the same numbers `EXPLAIN
/// ANALYZE` prints) instead of being re-derived from outer wall clocks.
#[derive(Debug, Clone)]
pub struct OperatorTime {
    pub depth: usize,
    pub name: String,
    pub detail: String,
    pub rows_out: u64,
    pub self_ms: f64,
    /// Effective parallel degree (1 = ran serially).
    pub degree: u64,
}

/// Per-operator breakdown of the most recent query `db` executed.
pub fn last_query_operator_times(db: &FlockDb) -> Vec<OperatorTime> {
    db.database()
        .last_query_metrics()
        .map(|snap| {
            snap.walk()
                .into_iter()
                .map(|(depth, n)| OperatorTime {
                    depth,
                    name: n.name.clone(),
                    detail: n.detail.clone(),
                    rows_out: n.rows_out,
                    self_ms: n.self_ns as f64 / 1e6,
                    degree: n.degree,
                })
                .collect()
        })
        .unwrap_or_default()
}

/// The right panel: speedups vs the Inline-SQL anchor.
#[derive(Debug, Clone)]
pub struct SpeedupAnchor {
    pub size: usize,
    pub inline_sql_ms: f64,
    pub ort_ms: f64,
    pub optimized_ms: f64,
    /// Measured per-operator times of the final optimized run.
    pub optimized_breakdown: Vec<OperatorTime>,
}

impl SpeedupAnchor {
    pub fn ort_speedup(&self) -> f64 {
        self.inline_sql_ms / self.ort_ms
    }

    pub fn optimized_speedup(&self) -> f64 {
        self.inline_sql_ms / self.optimized_ms
    }
}

/// The PREDICT query scored in every in-DB configuration.
pub const SCORING_QUERY: &str = "SELECT AVG(PREDICT(good_model, age, income, debt, \
     tenure, noise1, noise2, city)) FROM customers";

/// Build a Flock database with the dataset loaded and the model deployed.
pub fn build_db(data: &TabularDataset, trees: usize, depth: usize) -> FlockDb {
    let db = FlockDb::new();
    data.load_into(db.database()).expect("load");
    let pipeline = data.train_pipeline(trees, depth);
    db.session("admin")
        .deploy_model("good_model", &pipeline, Lineage::default())
        .expect("deploy");
    db
}

/// Run the left panel at the given sizes.
pub fn run_sizes(sizes: &[usize], trees: usize, depth: usize, repeats: usize) -> Vec<Fig4Row> {
    sizes
        .iter()
        .map(|&size| {
            let data = TabularDataset::generate(size, 42);
            let frame = data.frame();
            let pipeline = data.train_pipeline(trees, depth);

            // standalone runtimes
            let sklearn_ms = time_best_ms(repeats, || {
                let _ = interpreted_score(&pipeline, &frame).expect("interpreted");
            });
            let ort_ms = time_best_ms(repeats, || {
                let _ = StandaloneRuntime::new().score(&pipeline, &frame).expect("ort");
            });

            // in-DB: plain SONNX (no cross-optimizer)
            let db = build_db(&data, trees, depth);
            db.set_xopt_config(XOptConfig::disabled());
            let sonnx_ms = time_best_ms(repeats, || {
                let _ = db.query(SCORING_QUERY).expect("sonnx");
            });

            // in-DB: SONNX-ext (full cross-optimizer)
            db.set_xopt_config(XOptConfig::default());
            let sonnx_ext_ms = time_best_ms(repeats, || {
                let _ = db.query(SCORING_QUERY).expect("sonnx-ext");
            });

            Fig4Row {
                size,
                sklearn_ms,
                ort_ms,
                sonnx_ms,
                sonnx_ext_ms,
            }
        })
        .collect()
}

/// Run the right panel at a fixed size.
pub fn run_anchor(size: usize, trees: usize, depth: usize, repeats: usize) -> SpeedupAnchor {
    let data = TabularDataset::generate(size, 42);
    let frame = data.frame();
    let pipeline = data.train_pipeline(trees, depth);

    // Inline SQL: in-DB scoring through the row-at-a-time UDF path
    let db = build_db(&data, trees, depth);
    db.set_xopt_config(XOptConfig::disabled());
    db.database().set_exec_options(ExecOptions::serial());
    let mut row_session = db.session("admin");
    row_session
        .execute("SET predict_strategy = 'row'")
        .expect("row strategy");
    let inline_sql_ms = time_best_ms(repeats, || {
        let _ = row_session.query(SCORING_QUERY).expect("inline sql");
    });

    // ORT: standalone vectorized
    let ort_ms = time_best_ms(repeats, || {
        let _ = StandaloneRuntime::new().score(&pipeline, &frame).expect("ort");
    });

    // Optimized: in-DB with the full cross-optimizer and parallelism
    db.database().set_exec_options(ExecOptions::default());
    db.set_xopt_config(XOptConfig::default());
    let optimized_ms = time_best_ms(repeats, || {
        let _ = db.query(SCORING_QUERY).expect("optimized");
    });
    // measured per-operator times of the run that just finished
    let optimized_breakdown = last_query_operator_times(&db);

    SpeedupAnchor {
        size,
        inline_sql_ms,
        ort_ms,
        optimized_ms,
        optimized_breakdown,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Small-size smoke test of the full harness (shape assertions only;
    /// the real run uses the binary).
    #[test]
    fn harness_produces_consistent_scores() {
        let rows = run_sizes(&[2_000], 8, 3, 1);
        assert_eq!(rows.len(), 1);
        let r = &rows[0];
        assert!(r.sklearn_ms > 0.0 && r.ort_ms > 0.0);
        assert!(r.sonnx_ms > 0.0 && r.sonnx_ext_ms > 0.0);
    }

    #[test]
    fn in_db_results_numerically_match_standalone() {
        let size = 3_000;
        let data = TabularDataset::generate(size, 42);
        let pipeline = data.train_pipeline(8, 3);
        let standalone = StandaloneRuntime::new()
            .score(&pipeline, &data.frame())
            .unwrap();
        let avg: f64 = standalone.iter().sum::<f64>() / size as f64;

        let db = build_db(&data, 8, 3);
        for cfg in [XOptConfig::disabled(), XOptConfig::default()] {
            db.set_xopt_config(cfg);
            let b = db.query(SCORING_QUERY).unwrap();
            let got = b.column(0).get(0).as_f64().unwrap();
            assert!(
                (got - avg).abs() < 1e-9,
                "in-DB average {got} != standalone {avg}"
            );
        }
    }

    #[test]
    fn anchor_speedups_are_sensible() {
        let a = run_anchor(5_000, 8, 3, 1);
        assert!(a.ort_speedup() > 1.0, "ORT should beat inline SQL");
        assert!(a.optimized_speedup() > 1.0);
        // the breakdown comes from real measured plan metrics: the scan
        // materialized the whole table, and self times are non-negative
        let scan = a
            .optimized_breakdown
            .iter()
            .find(|o| o.name == "Scan")
            .expect("scan in breakdown");
        assert_eq!(scan.rows_out, 5_000);
        assert!(a.optimized_breakdown.iter().all(|o| o.self_ms >= 0.0));
    }
}
