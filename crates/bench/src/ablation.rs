//! Ablation of the cross-optimizer: contribution of each rule to the
//! in-DB inference time (DESIGN.md §3: "every optimization can be toggled
//! independently, so the bench harness reports per-optimization
//! contributions").

use crate::fig4::{build_db, time_best_ms, SCORING_QUERY};
use flock_core::XOptConfig;
use flock_corpus::tabular::TabularDataset;

/// One ablation configuration and its measured time.
#[derive(Debug, Clone)]
pub struct AblationRow {
    pub config: &'static str,
    pub ms: f64,
}

/// The configurations swept, from nothing to everything.
pub fn configurations() -> Vec<(&'static str, XOptConfig)> {
    let base = XOptConfig::disabled();
    vec![
        ("none (SONNX)", base),
        (
            "+feature pruning",
            XOptConfig {
                feature_pruning: true,
                ..base
            },
        ),
        (
            "+model compression",
            XOptConfig {
                model_compression: true,
                ..base
            },
        ),
        (
            "+pruning +compression",
            XOptConfig {
                feature_pruning: true,
                model_compression: true,
                ..base
            },
        ),
        ("all (SONNX-ext)", XOptConfig::default()),
    ]
}

/// Run the ablation at the given dataset size.
pub fn run(size: usize, trees: usize, depth: usize, repeats: usize) -> Vec<AblationRow> {
    let data = TabularDataset::generate(size, 42);
    let db = build_db(&data, trees, depth);
    configurations()
        .into_iter()
        .map(|(name, cfg)| {
            db.set_xopt_config(cfg);
            // warm the derived-model cache so measurement excludes the
            // one-time rewrite cost
            let _ = db.query(SCORING_QUERY).expect("warmup");
            let ms = time_best_ms(repeats, || {
                let _ = db.query(SCORING_QUERY).expect("ablation query");
            });
            AblationRow { config: name, ms }
        })
        .collect()
}

/// The text-heavy scenario: a logistic churn model whose hashed-text
/// input carries zero weight after feature selection. Naive in-DB scoring
/// still tokenizes and hashes every comment; feature pruning removes the
/// column (and projection pruning removes it from the scan).
pub const TEXT_QUERY: &str = "SELECT COUNT(*) FROM customers \
     WHERE PREDICT(churn_text, income, debt, comment) >= 0.8";

/// Run the text-pipeline ablation: cross-optimizer off vs on.
pub fn run_text(size: usize, buckets: usize, repeats: usize) -> Vec<AblationRow> {
    use flock_core::{FlockDb, Lineage};
    let data = TabularDataset::generate(size, 42);
    let db = FlockDb::new();
    data.load_into(db.database()).expect("load");
    let pipeline = data.train_text_pipeline(buckets);
    db.session("admin")
        .deploy_model("churn_text", &pipeline, Lineage::default())
        .expect("deploy");

    [("none (SONNX)", XOptConfig::disabled()), ("all (SONNX-ext)", XOptConfig::default())]
        .into_iter()
        .map(|(name, cfg)| {
            db.set_xopt_config(cfg);
            let _ = db.query(TEXT_QUERY).expect("warmup");
            let ms = time_best_ms(repeats, || {
                let _ = db.query(TEXT_QUERY).expect("text ablation");
            });
            AblationRow { config: name, ms }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ablation_rows_cover_all_configs() {
        let rows = run(2_000, 6, 3, 1);
        assert_eq!(rows.len(), configurations().len());
        for r in &rows {
            assert!(r.ms > 0.0, "{}", r.config);
        }
    }

    #[test]
    fn text_pipeline_pruning_pays_off_and_preserves_results() {
        use flock_core::{FlockDb, Lineage};
        let data = TabularDataset::generate(3_000, 5);
        let pipeline = data.train_text_pipeline(256);
        // the comment column really is unused
        let usage = pipeline.input_usage();
        assert_eq!(usage, vec![true, true, false]);

        let count_for = |cfg: XOptConfig| {
            let db = FlockDb::with_config(cfg);
            data.load_into(db.database()).unwrap();
            db.session("admin")
                .deploy_model("churn_text", &pipeline, Lineage::default())
                .unwrap();
            db.query(TEXT_QUERY).unwrap().column(0).get(0)
        };
        assert_eq!(count_for(XOptConfig::disabled()), count_for(XOptConfig::default()));
    }
}
