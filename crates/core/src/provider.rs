//! The inference provider: scores registered models inside query
//! execution, implementing the engine's PREDICT extension point.

use crate::registry::{ModelRegistry, RegisteredModel};
use flock_ml::{interpreted_score_with_metrics, Frame, FrameCol, Pipeline, ScoringMetrics};
use flock_sql::ast::PredictStrategy;
use flock_sql::exec::CancelToken;
use flock_sql::udf::InferenceProvider;
use flock_sql::{ColumnVector, DataType, SqlError};
use std::sync::atomic::AtomicU64;
use std::sync::Arc;

/// Scoring statistics — used by tests, ablation reporting and the
/// `predict_*` rows of `flock_metrics`. One call counter per way a PREDICT
/// can score: the interpreted per-row scorer or one call to the compiled
/// kernel. A parallel operator makes one call per morsel.
#[derive(Debug, Default)]
pub struct PredictStats {
    pub row_calls: Arc<AtomicU64>,
    pub vectorized_calls: Arc<AtomicU64>,
    pub rows_scored: Arc<AtomicU64>,
}

impl PredictStats {
    /// The counters under their `flock_metrics` row names.
    pub fn counters(&self) -> [(&'static str, Arc<AtomicU64>); 3] {
        [
            ("predict_row_calls", self.row_calls.clone()),
            ("predict_vectorized_calls", self.vectorized_calls.clone()),
            ("predict_rows_scored", self.rows_scored.clone()),
        ]
    }
}

/// Implements [`InferenceProvider`] over the model registry.
pub struct FlockInferenceProvider {
    registry: Arc<ModelRegistry>,
    pub stats: Arc<PredictStats>,
    /// Per-stage scoring latency/row counters (featurize vs. model eval vs.
    /// interpreted path), cumulative across all PREDICT calls.
    pub scoring: Arc<ScoringMetrics>,
}

impl FlockInferenceProvider {
    pub fn new(registry: Arc<ModelRegistry>) -> Self {
        FlockInferenceProvider {
            registry,
            stats: Arc::new(PredictStats::default()),
            scoring: Arc::new(ScoringMetrics::default()),
        }
    }

    fn model(&self, model: &str) -> Result<Arc<RegisteredModel>, SqlError> {
        self.registry
            .get(model)
            .ok_or_else(|| SqlError::Catalog(format!("model '{model}' is not deployed")))
    }

    /// Shared scoring path; `cancel` is polled before scoring, so a
    /// `statement_timeout` stops the next morsel's PREDICT. One lookup
    /// yields both the pipeline the frame is laid out by and the kernel
    /// that scores it, so a concurrent redeploy cannot pair two versions.
    fn predict_inner(
        &self,
        model: &str,
        inputs: &[ColumnVector],
        strategy: PredictStrategy,
        cancel: &CancelToken,
    ) -> Result<ColumnVector, SqlError> {
        use std::sync::atomic::Ordering;
        cancel.check()?;
        let model = self.model(model)?;
        let frame = columns_to_frame(&model.pipeline, inputs)?;
        self.stats
            .rows_scored
            .fetch_add(frame.num_rows() as u64, Ordering::Relaxed);

        let scores: Vec<f64> = match strategy {
            PredictStrategy::Row => {
                self.stats.row_calls.fetch_add(1, Ordering::Relaxed);
                interpreted_score_with_metrics(&model.pipeline, &frame, &self.scoring)
                    .map_err(|e| SqlError::Execution(e.to_string()))?
            }
            PredictStrategy::Auto => {
                self.stats.vectorized_calls.fetch_add(1, Ordering::Relaxed);
                self.registry
                    .kernel(&model)
                    .score_with_metrics(&frame, &self.scoring)
                    .map_err(|e| SqlError::Execution(e.to_string()))?
            }
        };
        Ok(ColumnVector::from_f64(scores))
    }
}

/// Convert PREDICT argument columns into an ML frame using the pipeline's
/// declared input names (positional binding against the *bound* columns —
/// inputs the cross-optimizer folded into the pipeline take no argument).
/// Borrows the engine's column buffers whenever they are directly usable
/// (all-valid float / text vectors); copies only on nulls or type casts.
pub fn columns_to_frame<'a>(
    pipeline: &Pipeline,
    inputs: &'a [ColumnVector],
) -> Result<Frame<'a>, SqlError> {
    let bound = pipeline.bound_columns();
    if inputs.len() != bound.len() {
        return Err(SqlError::Execution(format!(
            "model '{}' expects {} arguments, got {}",
            pipeline.output,
            bound.len(),
            inputs.len()
        )));
    }
    let mut frame = Frame::new();
    for (&i, col) in bound.iter().zip(inputs) {
        let cp = &pipeline.columns[i];
        let fc = if pipeline.input_is_text(i) {
            match col.as_text_slice() {
                Some(slice) if !col.has_nulls() => FrameCol::StrBorrowed(slice),
                // A dictionary column or text with NULLs reads one `&str`
                // per row; only a non-text column builds a `Value`.
                _ => FrameCol::Str(
                    (0..col.len())
                        .map(|r| match col.str_at(r) {
                            Some(s) => s.to_string(),
                            None if col.is_null(r) => String::new(),
                            None => col.get(r).to_string(),
                        })
                        .collect(),
                ),
            }
        } else if let Some(slice) = col.as_f64_slice() {
            FrameCol::F64Borrowed(slice)
        } else {
            FrameCol::F64(
                (0..col.len())
                    .map(|r| col.get_f64(r).unwrap_or(f64::NAN))
                    .collect(),
            )
        };
        frame
            .push(cp.input.clone(), fc)
            .map_err(|e| SqlError::Execution(e.to_string()))?;
    }
    Ok(frame)
}

impl InferenceProvider for FlockInferenceProvider {
    fn output_type(&self, model: &str) -> Result<DataType, SqlError> {
        self.model(model)?;
        // all pipelines emit a single float score
        Ok(DataType::Float)
    }

    fn input_arity(&self, model: &str) -> Result<usize, SqlError> {
        Ok(self.model(model)?.pipeline.bound_columns().len())
    }

    fn describe(&self, model: &str) -> Option<String> {
        self.registry.get(model).map(|m| m.metadata.kind.clone())
    }

    fn predict(
        &self,
        model: &str,
        inputs: &[ColumnVector],
        strategy: PredictStrategy,
        _user: &str,
    ) -> Result<ColumnVector, SqlError> {
        self.predict_inner(model, inputs, strategy, &CancelToken::none())
    }

    fn predict_cancellable(
        &self,
        model: &str,
        inputs: &[ColumnVector],
        strategy: PredictStrategy,
        _user: &str,
        cancel: &CancelToken,
    ) -> Result<ColumnVector, SqlError> {
        self.predict_inner(model, inputs, strategy, cancel)
    }

    /// Model-deployment epoch: redeploying or dropping any model bumps
    /// it, invalidating every cached plan whose `PREDICT` was bound
    /// against the old registry state.
    fn plan_epoch(&self) -> u64 {
        self.registry.plan_epoch()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::meta::{Lineage, ModelMetadata};
    use flock_ml::{ColumnPipeline, LinearModel, Model};
    use flock_sql::Value;

    fn registry_with_model() -> Arc<ModelRegistry> {
        let registry = Arc::new(ModelRegistry::new());
        let pipeline = Pipeline::new(
            vec![
                ColumnPipeline::numeric("a"),
                ColumnPipeline::one_hot("c", vec!["x".into(), "y".into()]),
            ],
            Model::Linear(LinearModel::new(vec![2.0, 10.0, 20.0], 1.0)),
            "score",
        );
        let metadata = ModelMetadata::of("m", &pipeline, Lineage::default());
        registry.insert("m", RegisteredModel::new(pipeline, metadata, 1));
        registry
    }

    #[test]
    fn all_strategies_agree() {
        let provider = FlockInferenceProvider::new(registry_with_model());
        let a = ColumnVector::from_f64([1.0, 2.0, 3.0]);
        let c = ColumnVector::from_values(
            DataType::Text,
            &[
                Value::Text("x".into()),
                Value::Text("y".into()),
                Value::Text("?".into()),
            ],
        )
        .unwrap();
        let inputs = [a, c];
        let expected = [13.0, 25.0, 7.0];
        for strategy in [PredictStrategy::Row, PredictStrategy::Auto] {
            let out = provider.predict("m", &inputs, strategy, "admin").unwrap();
            for (i, e) in expected.iter().enumerate() {
                assert_eq!(out.get(i), Value::Float(*e), "{strategy:?}");
            }
        }
        use std::sync::atomic::Ordering;
        assert_eq!(provider.stats.rows_scored.load(Ordering::Relaxed), 6);
        assert_eq!(provider.stats.row_calls.load(Ordering::Relaxed), 1);
        // stage metrics: Auto takes the compiled path (featurize + score);
        // Row lands in interpret
        assert_eq!(provider.scoring.featurize.rows.load(Ordering::Relaxed), 3);
        assert_eq!(provider.scoring.score.rows.load(Ordering::Relaxed), 3);
        assert_eq!(provider.scoring.interpret.rows.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn unknown_model_and_arity_errors() {
        let provider = FlockInferenceProvider::new(registry_with_model());
        assert!(provider.output_type("ghost").is_err());
        assert_eq!(provider.input_arity("m").unwrap(), 2);
        let one = [ColumnVector::from_f64([1.0])];
        assert!(provider
            .predict("m", &one, PredictStrategy::Auto, "admin")
            .is_err());
    }

    #[test]
    fn nulls_become_nan_and_empty_strings() {
        let provider = FlockInferenceProvider::new(registry_with_model());
        let mut a = ColumnVector::from_f64([1.0]);
        a.push_null();
        let c = ColumnVector::from_values(
            DataType::Text,
            &[Value::Text("x".into()), Value::Null],
        )
        .unwrap();
        let out = provider
            .predict("m", &[a, c], PredictStrategy::Auto, "admin")
            .unwrap();
        // NaN numeric becomes 0 after featurization; null text matches no category
        assert_eq!(out.get(0), Value::Float(13.0));
        assert_eq!(out.get(1), Value::Float(1.0));
    }

    #[test]
    fn all_valid_engine_columns_are_borrowed_not_copied() {
        let provider = FlockInferenceProvider::new(registry_with_model());
        let model = provider.model("m").unwrap();
        let a = ColumnVector::from_f64([1.0, 2.0]);
        let c = ColumnVector::from_values(
            DataType::Text,
            &[Value::Text("x".into()), Value::Text("y".into())],
        )
        .unwrap();
        let inputs = [a, c];
        let frame = columns_to_frame(&model.pipeline, &inputs).unwrap();
        let nums = frame.column("a").unwrap().as_f64().unwrap();
        assert_eq!(
            nums.as_ptr(),
            inputs[0].as_f64_slice().unwrap().as_ptr(),
            "float column borrows the engine buffer"
        );
        let texts = frame.column("c").unwrap().as_str().unwrap();
        assert_eq!(
            texts.as_ptr(),
            inputs[1].as_text_slice().unwrap().as_ptr(),
            "text column borrows the engine buffer"
        );
    }
}
