//! Compiled pipelines: the evaluation-ready form of a pipeline. Each model
//! registry entry, deployed version or derived variant, compiles its own on
//! first use and keeps it (a `OnceLock` in the entry).
//!
//! Compilation rewrites the model into the layout the batch kernels want:
//! a tree-family model becomes [`FlatTrees`], scored by featurizing a
//! row-major matrix and walking the flattened nodes. Once the pipeline has
//! scored [`MASKS_AFTER_ROWS`] rows it also builds the model's
//! [`LeafMaskTrees`] form, if the model fits it (at most 64 leaves a tree,
//! at most 255 distinct thresholds a feature, no NaN threshold, bounded
//! tables), and from then on scores by leaf masks over `u8` feature bins,
//! its inputs featurized straight into those bins, column by column, with
//! no row-major matrix. Compiled scoring is bit-identical to
//! [`Pipeline::score`] either way: same featurizers, same batching
//! ([`SCORE_BATCH_ROWS`]), same split rule and summation order.

use crate::error::{MlError, Result};
use crate::featurize::Encoder;
use crate::frame::Frame;
use crate::model::flat::FlatTrees;
use crate::model::leafmask::LeafMaskTrees;
use crate::model::{sigmoid, DecisionTree, Model};
use crate::pipeline::Pipeline;
use crate::runtime::{ScoringMetrics, StageMetrics, SCORE_BATCH_ROWS};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Rows a compiled tree pipeline scores through [`FlatTrees`] before it
/// builds its leaf-mask tables. For predict_scan's 40×6 GBT the build
/// takes ~0.35–0.55 ms (flattening the nodes ~40 µs) and saves ~130–300 ns
/// a row after (2-core host), so a pipeline that scores a few hundred
/// rows, like an ad-hoc window's specialised variant, never pays for
/// tables, and one that scores more repays them within its first few
/// thousand rows.
pub const MASKS_AFTER_ROWS: usize = 4096;

/// How a tree ensemble's per-row sum of leaves turns into final scores.
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

impl FlatKind {
    /// Turn per-row sums (accumulated from `-0.0`, the start of the arena
    /// scorers' `sum()`) into scores, as the arena scorers do.
    pub fn finish(&self, acc: &mut [f64]) {
        match self {
            FlatKind::Single => {}
            // The arena scores an empty forest 0.
            FlatKind::ForestMean { count: 0 } => acc.fill(0.0),
            FlatKind::ForestMean { count } => {
                let c = *count as f64;
                for v in acc {
                    *v /= c;
                }
            }
            FlatKind::Gbt {
                learning_rate,
                base_score,
                sigmoid_output,
            } => {
                for v in acc {
                    let raw = base_score + learning_rate * *v;
                    *v = if *sigmoid_output { sigmoid(raw) } else { raw };
                }
            }
        }
    }
}

/// A model in evaluation-ready layout.
#[derive(Debug, Clone, PartialEq)]
pub enum CompiledModel {
    /// Tree-family model flattened into struct-of-arrays node storage.
    Flat { trees: FlatTrees, kind: FlatKind },
    /// Models without a compiled form fall back to the stock scorer.
    Plain(Model),
}

/// The trees of a tree-family model, and how their sum becomes a score.
fn tree_family(model: &Model) -> Option<(&[DecisionTree], FlatKind)> {
    Some(match model {
        Model::Tree(t) => (std::slice::from_ref(t), FlatKind::Single),
        Model::Forest(f) => (
            &f.trees[..],
            FlatKind::ForestMean {
                count: f.trees.len(),
            },
        ),
        Model::Gbt(g) => (
            &g.trees[..],
            FlatKind::Gbt {
                learning_rate: g.learning_rate,
                base_score: g.base_score,
                sigmoid_output: g.sigmoid_output,
            },
        ),
        _ => return None,
    })
}

impl CompiledModel {
    pub fn compile(model: &Model) -> CompiledModel {
        match tree_family(model) {
            Some((trees, kind)) => CompiledModel::Flat {
                trees: FlatTrees::from_trees(trees),
                kind,
            },
            None => CompiledModel::Plain(model.clone()),
        }
    }

    /// Did compilation produce a kernel-friendly layout (vs. a fallback)?
    pub fn is_flat(&self) -> bool {
        matches!(self, CompiledModel::Flat { .. })
    }
}

/// How one input column becomes the bins of the features the leaf-mask
/// kernel reads (features no tree splits on have no bins).
#[derive(Debug, Clone)]
enum ColumnBins {
    /// No tree splits on the column's features: its input is only checked,
    /// as featurization checks it.
    Unused,
    /// A numeric feature: the steps, NaN to 0, then its bin.
    Numeric { slot: usize },
    /// One-hot: each category feature's slot with its bin of 0.0, and per
    /// category, its feature's slot and bin of 1.0.
    OneHot {
        zeros: Vec<(usize, u8)>,
        ones: Vec<Option<(usize, u8)>>,
    },
    /// Constant features: constant bins, (slot, bin).
    Fixed { bins: Vec<(usize, u8)> },
    /// Any other encoder: encoded into an `f64` scratch, then binned as
    /// (feature within the column, slot).
    Encoded { features: Vec<(usize, usize)> },
}

/// `f64` values the [`ColumnBins::Encoded`] scratch holds at once.
const ENCODE_SCRATCH: usize = 16 * 1024;

/// The bins of one chunk, slot-major, and the encode scratch; one set per
/// thread, kept across calls so scoring does not allocate.
#[derive(Default)]
struct BinScratch {
    bins: Vec<u8>,
    encoded: Vec<f64>,
}

thread_local! {
    static SCRATCH: std::cell::RefCell<BinScratch> = std::cell::RefCell::default();
}

/// A tree model's leaf-mask form and, per input column, how the column
/// becomes the bins it reads.
#[derive(Debug)]
struct Masks {
    trees: LeafMaskTrees,
    binning: Vec<ColumnBins>,
}

/// A pipeline compiled for repeated in-engine scoring.
#[derive(Debug)]
pub struct CompiledPipeline {
    /// The (possibly specialized) source pipeline: featurization plans,
    /// input binding, and output name come from here.
    pub pipeline: Pipeline,
    pub model: CompiledModel,
    /// The leaf-mask form, built once the pipeline has scored
    /// [`MASKS_AFTER_ROWS`] rows (or [`leaf_masks`](Self::leaf_masks) asked
    /// for it): `None` inside when the model does not fit it.
    masks: OnceLock<Option<Masks>>,
    /// Rows scored before the leaf-mask form was built: a count only (the
    /// `OnceLock` publishes the tables), so `Relaxed` suffices.
    scored: AtomicUsize,
}

impl CompiledPipeline {
    pub fn compile(pipeline: &Pipeline) -> CompiledPipeline {
        CompiledPipeline {
            pipeline: pipeline.clone(),
            model: CompiledModel::compile(&pipeline.model),
            masks: OnceLock::new(),
            scored: AtomicUsize::new(0),
        }
    }

    /// Whether the pipeline scores by leaf masks from now on: builds the
    /// leaf-mask form now if it has not been built, and reports whether
    /// the model fits it.
    pub fn leaf_masks(&self) -> bool {
        self.built_masks().is_some()
    }

    fn built_masks(&self) -> Option<&Masks> {
        self.masks
            .get_or_init(|| {
                let (trees, _) = tree_family(&self.pipeline.model)?;
                let trees = LeafMaskTrees::build(trees, self.pipeline.feature_width())?;
                let binning = column_bins(&self.pipeline, &trees);
                Some(Masks { trees, binning })
            })
            .as_ref()
    }

    /// The leaf-mask form to score `rows` more rows with, built when they
    /// bring the pipeline to [`MASKS_AFTER_ROWS`].
    fn masks_for(&self, rows: usize) -> Option<&Masks> {
        if let Some(built) = self.masks.get() {
            return built.as_ref();
        }
        if !self.model.is_flat() {
            return None;
        }
        let scored = self.scored.fetch_add(rows, Ordering::Relaxed) + rows;
        if scored < MASKS_AFTER_ROWS {
            return None;
        }
        self.built_masks()
    }

    pub fn score(&self, frame: &Frame) -> Result<Vec<f64>> {
        self.score_inner(frame, None)
    }

    /// Like [`score`](Self::score), recording featurize/score stage
    /// latency and row counts (same stages the standalone runtime fills).
    /// Scored by leaf masks, featurize covers binning too.
    pub fn score_with_metrics(
        &self,
        frame: &Frame,
        metrics: &ScoringMetrics,
    ) -> Result<Vec<f64>> {
        self.score_inner(frame, Some(metrics))
    }

    fn score_inner(&self, frame: &Frame, metrics: Option<&ScoringMetrics>) -> Result<Vec<f64>> {
        let (featurize, score) = (metrics.map(|m| &m.featurize), metrics.map(|m| &m.score));
        let masks = self.masks_for(frame.num_rows());
        let mut out = Vec::with_capacity(frame.num_rows());
        for chunk in frame.chunks(SCORE_BATCH_ROWS) {
            let rows = chunk.num_rows();
            match (&self.model, masks) {
                (CompiledModel::Flat { kind, .. }, Some(masks)) => SCRATCH.with(|s| {
                    let s = &mut *s.borrow_mut();
                    timed(featurize, rows, || {
                        masks.bin_chunk(&self.pipeline, &chunk, s)
                    })?;
                    let start = out.len();
                    out.resize(start + rows, -0.0);
                    timed(score, rows, || {
                        masks.trees.accumulate_bins(&s.bins, &mut out[start..]);
                        kind.finish(&mut out[start..]);
                    });
                    Ok::<_, MlError>(())
                })?,
                (CompiledModel::Flat { trees, kind }, None) => {
                    let x = timed(featurize, rows, || self.pipeline.featurize(&chunk))?;
                    let start = out.len();
                    out.resize(start + rows, -0.0);
                    timed(score, rows, || {
                        trees.accumulate(&x, &mut out[start..]);
                        kind.finish(&mut out[start..]);
                    });
                }
                (CompiledModel::Plain(model), _) => {
                    let x = timed(featurize, rows, || self.pipeline.featurize(&chunk))?;
                    out.extend(timed(score, rows, || model.score_batch(&x)));
                }
            }
        }
        Ok(out)
    }
}

impl Masks {
    /// Featurize `frame` for `pipeline` straight into `s.bins`: slot `k`
    /// of row `r` at `k * rows + r`. Fails where [`Pipeline::featurize`]
    /// would.
    fn bin_chunk(&self, pipeline: &Pipeline, frame: &Frame, s: &mut BinScratch) -> Result<()> {
        let trees = &self.trees;
        let n = frame.num_rows();
        let bins = &mut s.bins;
        bins.clear();
        bins.resize(n * trees.num_slots(), 0);
        let col = |slot: usize| slot * n..(slot + 1) * n;
        for (cp, plan) in pipeline.columns.iter().zip(&self.binning) {
            match plan {
                ColumnBins::Unused => cp.check_input(frame)?,
                ColumnBins::Numeric { slot } => {
                    let fb = trees.feature_bins(*slot);
                    let vals = cp.numeric_input(frame)?;
                    for (b, &raw) in bins[col(*slot)].iter_mut().zip(vals) {
                        *b = fb.bin(cp.numeric_value(raw));
                    }
                }
                ColumnBins::OneHot { zeros, ones } => {
                    let Encoder::OneHot { categories } = &cp.encoder else {
                        unreachable!("one-hot bins come from a one-hot column")
                    };
                    let vals = cp.text_input(frame)?;
                    for &(slot, b) in zeros {
                        bins[col(slot)].fill(b);
                    }
                    for (r, v) in vals.iter().enumerate() {
                        let hit = categories.position(v);
                        if let Some((slot, b)) = hit.and_then(|i| ones[i]) {
                            bins[slot * n + r] = b;
                        }
                    }
                }
                ColumnBins::Fixed { bins: fixed } => {
                    for &(slot, b) in fixed {
                        bins[col(slot)].fill(b);
                    }
                }
                ColumnBins::Encoded { features } => {
                    let w = cp.width();
                    let block = (ENCODE_SCRATCH / w).max(1);
                    for start in (0..n).step_by(block) {
                        let end = (start + block).min(n);
                        s.encoded.clear();
                        s.encoded.resize((end - start) * w, 0.0);
                        cp.encode_rows_into(frame, start..end, &mut s.encoded, 0, w)?;
                        for &(i, slot) in features {
                            let fb = trees.feature_bins(slot);
                            let out = &mut bins[slot * n + start..slot * n + end];
                            for (b, row) in out.iter_mut().zip(s.encoded.chunks_exact(w)) {
                                *b = fb.bin(row[i]);
                            }
                        }
                    }
                }
            }
        }
        Ok(())
    }
}

/// Run `f`, recording `rows` and its time on `stage` when there is one.
fn timed<T>(stage: Option<&StageMetrics>, rows: usize, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let v = f();
    if let Some(stage) = stage {
        stage.record(rows, t.elapsed());
    }
    v
}

/// Per input column of `pipeline`, how it becomes the bins `trees` read.
fn column_bins(pipeline: &Pipeline, trees: &LeafMaskTrees) -> Vec<ColumnBins> {
    let mut offset = 0;
    let bin = |slot: usize, x: f64| trees.feature_bins(slot).bin(x);
    pipeline
        .columns
        .iter()
        .map(|cp| {
            let used: Vec<(usize, usize)> = (0..cp.width())
                .filter_map(|i| trees.slot(offset + i).map(|slot| (i, slot)))
                .collect();
            offset += cp.width();
            if used.is_empty() {
                return ColumnBins::Unused;
            }
            match &cp.encoder {
                Encoder::Numeric => ColumnBins::Numeric { slot: used[0].1 },
                Encoder::OneHot { categories } => {
                    let mut ones = vec![None; categories.len()];
                    for &(i, slot) in &used {
                        ones[i] = Some((slot, bin(slot, 1.0)));
                    }
                    let zeros = used.iter().map(|&(_, s)| (s, bin(s, 0.0))).collect();
                    ColumnBins::OneHot { zeros, ones }
                }
                Encoder::Fixed { values } => ColumnBins::Fixed {
                    bins: used.iter().map(|&(i, s)| (s, bin(s, values[i]))).collect(),
                },
                Encoder::Hashing { .. } | Encoder::Binned { .. } => {
                    ColumnBins::Encoded { features: used }
                }
            }
        })
        .collect()
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
        // The flattened nodes first, then the leaf masks.
        for masks in [false, true] {
            assert_eq!(compiled.masks.get().is_some(), masks);
            assert_eq!(bits(&compiled.score(&f).unwrap()), bits(&stock));
            let metrics = ScoringMetrics::default();
            let metered = compiled.score_with_metrics(&f, &metrics).unwrap();
            assert_eq!(bits(&metered), bits(&stock));
            assert!(compiled.leaf_masks(), "small trees fit");
        }
    }

    #[test]
    fn leaf_masks_are_built_once_the_rows_repay_them() {
        let p = Pipeline::new(
            vec![ColumnPipeline::numeric("a")],
            Model::Tree(stump(0, 0.0, -1.0, 1.0)),
            "out",
        );
        let rows = |n: usize| {
            let xs = (0..n).map(|i| i as f64 - 100.0).collect();
            Frame::new().with("a", FrameCol::F64(xs)).unwrap()
        };
        let compiled = CompiledPipeline::compile(&p);
        let small = rows(MASKS_AFTER_ROWS / 4);
        for _ in 0..3 {
            assert_eq!(compiled.score(&small).unwrap(), p.score(&small).unwrap());
        }
        assert!(
            compiled.masks.get().is_none(),
            "3/4 of the rows: still flat"
        );
        // The call that brings the count to the threshold builds them.
        assert_eq!(compiled.score(&small).unwrap(), p.score(&small).unwrap());
        assert!(compiled.masks.get().is_some_and(|m| m.is_some()));
        // A model that does not fit tries once and keeps the nodes.
        let deep = Pipeline::new(
            vec![ColumnPipeline::numeric("a")],
            Model::Forest(RandomForest {
                trees: (0..300).map(|i| stump(0, i as f64, 0.0, 1.0)).collect(),
            }),
            "out",
        );
        let compiled = CompiledPipeline::compile(&deep);
        let big = rows(MASKS_AFTER_ROWS);
        assert_eq!(compiled.score(&big).unwrap(), deep.score(&big).unwrap());
        assert!(compiled.masks.get().is_some_and(|m| m.is_none()));
        assert!(!compiled.leaf_masks());
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
