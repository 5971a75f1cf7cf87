//! Compiled pipelines: the evaluation-ready artifact the compiled-pipeline
//! cache stores.
//!
//! Compilation rewrites the model into the layout the batch kernels want —
//! tree-family models become [`FlatTrees`] struct-of-arrays ensembles —
//! while featurization plans are carried through unchanged. Compiled
//! scoring is bit-identical to [`Pipeline::score`]: same featurizers, same
//! batching ([`SCORE_BATCH_ROWS`]), same split rule and summation order.

use crate::error::Result;
use crate::frame::Frame;
use crate::matrix::Matrix;
use crate::model::flat::FlatTrees;
use crate::model::{sigmoid, Model};
use crate::pipeline::Pipeline;
use crate::runtime::{ScoringMetrics, SCORE_BATCH_ROWS};

/// How the flattened-tree accumulator turns into final scores.
#[derive(Debug, Clone, PartialEq)]
pub enum FlatKind {
    /// A single decision tree: the accumulated value is the score.
    Single,
    /// Random forest: mean of the accumulated tree values.
    ForestMean { count: usize },
    /// Gradient-boosted trees: `base + lr * sum`, optionally squashed.
    Gbt {
        learning_rate: f64,
        base_score: f64,
        sigmoid_output: bool,
    },
}

/// A model in evaluation-ready layout.
#[derive(Debug, Clone, PartialEq)]
pub enum CompiledModel {
    /// Tree-family model flattened into struct-of-arrays node storage.
    Flat { trees: FlatTrees, kind: FlatKind },
    /// Models without a compiled form fall back to the stock scorer.
    Plain(Model),
}

impl CompiledModel {
    pub fn compile(model: &Model) -> CompiledModel {
        match model {
            Model::Tree(t) => CompiledModel::Flat {
                trees: FlatTrees::from_trees(std::slice::from_ref(t)),
                kind: FlatKind::Single,
            },
            Model::Forest(f) => CompiledModel::Flat {
                trees: FlatTrees::from_trees(&f.trees),
                kind: FlatKind::ForestMean {
                    count: f.trees.len(),
                },
            },
            Model::Gbt(g) => CompiledModel::Flat {
                trees: FlatTrees::from_trees(&g.trees),
                kind: FlatKind::Gbt {
                    learning_rate: g.learning_rate,
                    base_score: g.base_score,
                    sigmoid_output: g.sigmoid_output,
                },
            },
            other => CompiledModel::Plain(other.clone()),
        }
    }

    /// Did compilation produce a kernel-friendly layout (vs. a fallback)?
    pub fn is_flat(&self) -> bool {
        matches!(self, CompiledModel::Flat { .. })
    }

    /// Score a feature batch: tree ensembles through the level-synchronous
    /// kernel ([`FlatTrees::accumulate`]), other models through the stock
    /// scorer.
    pub fn score_batch(&self, x: &Matrix) -> Vec<f64> {
        match self {
            CompiledModel::Plain(m) => m.score_batch(x),
            CompiledModel::Flat { trees, kind } => {
                let mut acc = vec![0.0; x.rows()];
                trees.accumulate(x, &mut acc);
                match kind {
                    FlatKind::Single => {}
                    FlatKind::ForestMean { count } => {
                        if *count > 0 {
                            let c = *count as f64;
                            for v in &mut acc {
                                *v /= c;
                            }
                        }
                    }
                    FlatKind::Gbt {
                        learning_rate,
                        base_score,
                        sigmoid_output,
                    } => {
                        for v in &mut acc {
                            let raw = base_score + learning_rate * *v;
                            *v = if *sigmoid_output { sigmoid(raw) } else { raw };
                        }
                    }
                }
                acc
            }
        }
    }
}

/// A pipeline compiled for repeated in-engine scoring. Cached by the model
/// registry keyed on (model, version, specialization fingerprint).
#[derive(Debug, Clone)]
pub struct CompiledPipeline {
    /// The (possibly specialized) source pipeline: featurization plans,
    /// input binding, and output name come from here.
    pub pipeline: Pipeline,
    pub model: CompiledModel,
}

impl CompiledPipeline {
    pub fn compile(pipeline: &Pipeline) -> CompiledPipeline {
        CompiledPipeline {
            pipeline: pipeline.clone(),
            model: CompiledModel::compile(&pipeline.model),
        }
    }

    pub fn score(&self, frame: &Frame) -> Result<Vec<f64>> {
        self.score_inner(frame, None)
    }

    /// Like [`score`](Self::score), recording featurize/score stage
    /// latency and row counts (same stages the standalone runtime fills).
    pub fn score_with_metrics(
        &self,
        frame: &Frame,
        metrics: &ScoringMetrics,
    ) -> Result<Vec<f64>> {
        self.score_inner(frame, Some(metrics))
    }

    fn score_inner(&self, frame: &Frame, metrics: Option<&ScoringMetrics>) -> Result<Vec<f64>> {
        let n = frame.num_rows();
        let mut out = Vec::with_capacity(n);
        for chunk in frame.chunks(SCORE_BATCH_ROWS) {
            let t = std::time::Instant::now();
            let x = self.pipeline.featurize(&chunk)?;
            if let Some(m) = metrics {
                m.featurize.record(chunk.num_rows(), t.elapsed());
            }
            let t = std::time::Instant::now();
            let scores = self.model.score_batch(&x);
            if let Some(m) = metrics {
                m.score.record(scores.len(), t.elapsed());
            }
            out.extend(scores);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::featurize::ColumnPipeline;
    use crate::frame::FrameCol;
    use crate::model::{DecisionTree, GbtModel, RandomForest, TreeNode};
    use crate::runtime::StandaloneRuntime;

    fn stump(feature: usize, threshold: f64, lo: f64, hi: f64) -> DecisionTree {
        DecisionTree {
            nodes: vec![
                TreeNode::Split {
                    feature,
                    threshold,
                    left: 1,
                    right: 2,
                },
                TreeNode::Leaf { value: lo },
                TreeNode::Leaf { value: hi },
            ],
        }
    }

    fn frame() -> Frame<'static> {
        Frame::new()
            .with("a", FrameCol::F64(vec![1.0, -2.0, f64::NAN, 0.5]))
            .unwrap()
            .with("b", FrameCol::F64(vec![10.0, 0.0, 3.0, -1.0]))
            .unwrap()
    }

    fn check_model(model: Model) {
        let p = Pipeline::new(
            vec![ColumnPipeline::numeric("a"), ColumnPipeline::numeric("b")],
            model,
            "out",
        );
        let f = frame();
        let stock = StandaloneRuntime::new().score(&p, &f).unwrap();
        let compiled = CompiledPipeline::compile(&p);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&compiled.score(&f).unwrap()), bits(&stock));
        let metrics = ScoringMetrics::default();
        let metered = compiled.score_with_metrics(&f, &metrics).unwrap();
        assert_eq!(bits(&metered), bits(&stock));
    }

    #[test]
    fn compiled_trees_are_bit_exact() {
        check_model(Model::Tree(stump(0, 0.0, -1.0, 1.0)));
        check_model(Model::Forest(RandomForest {
            trees: vec![
                stump(0, 0.0, 1.0, 2.0),
                stump(1, 1.0, 0.1, 0.7),
                stump(0, -1.0, -5.0, 5.0),
            ],
        }));
        check_model(Model::Gbt(GbtModel {
            trees: vec![stump(0, 0.5, -1.0, 1.0), stump(1, 2.0, 0.25, -0.25)],
            learning_rate: 0.3,
            base_score: 0.5,
            sigmoid_output: true,
        }));
    }

    #[test]
    fn empty_forest_scores_zero() {
        let p = Pipeline::new(
            vec![ColumnPipeline::numeric("a")],
            Model::Forest(RandomForest { trees: vec![] }),
            "out",
        );
        let f = Frame::new().with("a", FrameCol::F64(vec![1.0])).unwrap();
        let compiled = CompiledPipeline::compile(&p);
        assert_eq!(compiled.score(&f).unwrap(), vec![0.0]);
        assert_eq!(p.score(&f).unwrap(), vec![0.0]);
    }

    #[test]
    fn non_tree_models_fall_back_to_plain() {
        let m = CompiledModel::compile(&Model::Linear(crate::model::LinearModel::new(
            vec![1.0],
            0.0,
        )));
        assert!(!m.is_flat());
    }
}
