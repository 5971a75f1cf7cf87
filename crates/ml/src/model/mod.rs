//! Model zoo: every scorer the pipeline layer can embed.

pub mod bayes;
pub mod ensemble;
pub mod flat;
pub mod leafmask;
pub mod knn;
pub mod linear;
pub mod tree;

pub use bayes::GaussianNb;
pub use ensemble::{GbtModel, RandomForest};
pub use flat::FlatTrees;
pub use knn::KnnModel;
pub use linear::{sigmoid, LinearModel};
pub use tree::{DecisionTree, TreeNode};

use crate::matrix::Matrix;

/// A trained model over a fixed-width feature vector.
#[derive(Debug, Clone, PartialEq)]
pub enum Model {
    /// Linear regression: `w·x + b`.
    Linear(LinearModel),
    /// Logistic regression: `sigmoid(w·x + b)`.
    Logistic(LinearModel),
    Tree(DecisionTree),
    Forest(RandomForest),
    Gbt(GbtModel),
    NaiveBayes(GaussianNb),
    Knn(KnnModel),
}

impl Model {
    /// Score a single feature row.
    #[inline]
    pub fn score_row(&self, x: &[f64]) -> f64 {
        match self {
            Model::Linear(m) => m.score_row(x),
            Model::Logistic(m) => sigmoid(m.score_row(x)),
            Model::Tree(m) => m.score_row(x),
            Model::Forest(m) => m.score_row(x),
            Model::Gbt(m) => m.score_row(x),
            Model::NaiveBayes(m) => m.score_row(x),
            Model::Knn(m) => m.score_row(x),
        }
    }

    /// Score a whole feature matrix.
    pub fn score_batch(&self, x: &Matrix) -> Vec<f64> {
        match self {
            Model::Linear(m) => m.score_batch(x),
            Model::Logistic(m) => m.score_batch(x).into_iter().map(sigmoid).collect(),
            Model::Tree(m) => m.score_batch(x),
            Model::Forest(m) => m.score_batch(x),
            Model::Gbt(m) => m.score_batch(x),
            Model::NaiveBayes(m) => m.score_batch(x),
            Model::Knn(m) => m.score_batch(x),
        }
    }

    /// Which of the `dim` features influence the output — the sparsity
    /// signal the cross-optimizer's pruning rule consumes. Conservative:
    /// `true` means "may be used".
    pub fn used_features(&self, dim: usize) -> Vec<bool> {
        match self {
            Model::Linear(m) | Model::Logistic(m) => {
                let mut used = m.used_features();
                used.resize(dim, false);
                used
            }
            Model::Tree(m) => m.used_features(dim),
            Model::Forest(m) => m.used_features(dim),
            Model::Gbt(m) => m.used_features(dim),
            Model::NaiveBayes(m) => {
                let mut used = m.used_features();
                used.resize(dim, false);
                used
            }
            // kNN distances touch every dimension
            Model::Knn(_) => vec![true; dim],
        }
    }

    /// Restrict the model to the features in `keep` (in order). The caller
    /// guarantees every actually-used feature is kept.
    pub fn select_features(&self, keep: &[usize], old_dim: usize) -> Model {
        let mut mapping = vec![None; old_dim];
        for (new, &old) in keep.iter().enumerate() {
            mapping[old] = Some(new);
        }
        match self {
            Model::Linear(m) => Model::Linear(m.select_features(keep)),
            Model::Logistic(m) => Model::Logistic(m.select_features(keep)),
            Model::Tree(m) => Model::Tree(m.remap_features(&mapping)),
            Model::Forest(m) => Model::Forest(m.remap_features(&mapping)),
            Model::Gbt(m) => Model::Gbt(m.remap_features(&mapping)),
            Model::NaiveBayes(m) => Model::NaiveBayes(GaussianNb {
                log_prior_ratio: m.log_prior_ratio,
                class0: keep.iter().map(|&i| m.class0[i]).collect(),
                class1: keep.iter().map(|&i| m.class1[i]).collect(),
            }),
            Model::Knn(m) => Model::Knn(KnnModel {
                k: m.k,
                points: m.points.select_columns(keep),
                targets: m.targets.clone(),
            }),
        }
    }

    /// Compress using per-feature (min, max) ranges (tree-family models
    /// prune unreachable branches; linear models drop epsilon weights).
    pub fn compress(&self, ranges: &[(f64, f64)]) -> Model {
        match self {
            Model::Tree(m) => Model::Tree(m.compress(ranges)),
            Model::Forest(m) => Model::Forest(m.compress(ranges)),
            Model::Gbt(m) => Model::Gbt(m.compress(ranges)),
            Model::Linear(m) => Model::Linear(m.sparsify(1e-12)),
            Model::Logistic(m) => Model::Logistic(m.sparsify(1e-12)),
            other => other.clone(),
        }
    }

    /// Rough complexity measure (weights or tree nodes) — used by the
    /// physical-operator-selection rule and reported by ablations.
    pub fn complexity(&self) -> usize {
        match self {
            Model::Linear(m) | Model::Logistic(m) => m.dim(),
            Model::Tree(m) => m.num_nodes(),
            Model::Forest(m) => m.num_nodes(),
            Model::Gbt(m) => m.num_nodes(),
            Model::NaiveBayes(m) => m.dim() * 2,
            Model::Knn(m) => m.points.rows() * m.points.cols(),
        }
    }

    pub fn kind_name(&self) -> &'static str {
        match self {
            Model::Linear(_) => "linear",
            Model::Logistic(_) => "logistic",
            Model::Tree(_) => "tree",
            Model::Forest(_) => "forest",
            Model::Gbt(_) => "gbt",
            Model::NaiveBayes(_) => "naive_bayes",
            Model::Knn(_) => "knn",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dispatch_consistency_row_vs_batch() {
        let models = vec![
            Model::Linear(LinearModel::new(vec![1.0, -2.0], 0.5)),
            Model::Logistic(LinearModel::new(vec![1.0, -2.0], 0.0)),
            Model::Tree(DecisionTree::leaf(3.0)),
        ];
        let x = Matrix::from_rows(&[vec![1.0, 2.0], vec![0.0, 0.0]]);
        for m in models {
            let batch = m.score_batch(&x);
            for (r, out) in batch.iter().enumerate() {
                assert_eq!(*out, m.score_row(x.row(r)), "{}", m.kind_name());
            }
        }
    }

    #[test]
    fn select_features_matches_full_model() {
        // weight on feature 1 is zero -> prune it
        let m = Model::Linear(LinearModel::new(vec![2.0, 0.0, 3.0], 1.0));
        let used = m.used_features(3);
        assert_eq!(used, vec![true, false, true]);
        let keep: Vec<usize> = used
            .iter()
            .enumerate()
            .filter_map(|(i, u)| u.then_some(i))
            .collect();
        let pruned = m.select_features(&keep, 3);
        assert_eq!(
            m.score_row(&[1.0, 99.0, 2.0]),
            pruned.score_row(&[1.0, 2.0])
        );
    }

    #[test]
    fn complexity_is_positive() {
        let m = Model::Gbt(GbtModel {
            trees: vec![DecisionTree::leaf(0.0); 3],
            learning_rate: 0.1,
            base_score: 0.0,
            sigmoid_output: false,
        });
        assert_eq!(m.complexity(), 3);
    }
}
