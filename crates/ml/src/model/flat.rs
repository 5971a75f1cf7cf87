//! Flattened tree ensembles: a packed-node layout plus a batch walk
//! kernel.
//!
//! The arena-of-enums representation in [`tree`](super::tree) is the
//! training/serialization format; scoring it walks tagged-enum nodes per
//! row per tree. The compiled-pipeline cache instead stores ensembles in
//! this flattened layout — one contiguous array of 24-byte packed nodes
//! shared by every tree, so a node visit is a single indexed load of one
//! cache line (the earlier four parallel arrays cost four bounds checks
//! and up to four cache lines per visit) — and evaluates them
//! batch-at-a-time: the row loop streams the feature matrix while the
//! compact node array stays cache-resident.
//!
//! Scores are bit-identical to the arena walker
//! ([`DecisionTree::score_row`], the reference the tests compare against):
//! the same NaN-goes-left split rule, and per-row tree contributions
//! accumulated in tree order from `-0.0` (matching the
//! `iter().map(score_row).sum()` left fold).

use super::tree::{DecisionTree, TreeNode};
use crate::matrix::Matrix;

/// Sentinel feature index marking a leaf node.
pub const LEAF: u32 = u32::MAX;

/// One flattened tree node: 24 bytes, a single cache-line-friendly load
/// per visit. For leaves, `threshold` holds the leaf *value* and
/// `feature` is [`LEAF`].
#[derive(Debug, Clone, Copy, PartialEq)]
struct FlatNode {
    /// Split threshold for internal nodes; the leaf value for leaves.
    threshold: f64,
    /// Split feature; [`LEAF`] marks leaves.
    feature: u32,
    /// Child links. Leaves self-loop (`left == right == self`), so the
    /// level-synchronous batch kernel can keep stepping every cursor for
    /// a fixed number of rounds without a per-row "done" branch.
    left: u32,
    right: u32,
}

/// One or more trees flattened into shared packed-node storage.
#[derive(Debug, Clone, PartialEq)]
pub struct FlatTrees {
    nodes: Vec<FlatNode>,
    /// Node index of each tree's root.
    roots: Vec<u32>,
    /// Max root-to-leaf edge count per tree: how many synchronous steps
    /// the batch kernel needs before every cursor is parked on a leaf.
    depths: Vec<u32>,
}

/// Cursor and sum buffers of [`FlatTrees::accumulate`], one set per
/// thread and kept across calls so the scoring hot loop never allocates.
#[derive(Default)]
struct BatchScratch {
    /// Current node index of each row's walk.
    cursors: Vec<u32>,
    /// Per-row running ensemble sum (tree-order left fold).
    sums: Vec<f64>,
}

thread_local! {
    static SCRATCH: std::cell::RefCell<BatchScratch> = std::cell::RefCell::default();
}

fn tree_depth(nodes: &[TreeNode], i: usize) -> u32 {
    match &nodes[i] {
        TreeNode::Leaf { .. } => 0,
        TreeNode::Split { left, right, .. } => {
            1 + tree_depth(nodes, *left).max(tree_depth(nodes, *right))
        }
    }
}

impl FlatTrees {
    pub fn from_trees(trees: &[DecisionTree]) -> FlatTrees {
        let total: usize = trees.iter().map(DecisionTree::num_nodes).sum();
        let mut flat = FlatTrees {
            nodes: Vec::with_capacity(total),
            roots: Vec::with_capacity(trees.len()),
            depths: Vec::with_capacity(trees.len()),
        };
        for t in trees {
            let base = flat.nodes.len() as u32;
            flat.roots.push(base);
            flat.depths.push(tree_depth(&t.nodes, 0));
            for (n, node) in t.nodes.iter().enumerate() {
                flat.nodes.push(match node {
                    TreeNode::Split {
                        feature,
                        threshold,
                        left,
                        right,
                    } => FlatNode {
                        threshold: *threshold,
                        feature: *feature as u32,
                        left: base + *left as u32,
                        right: base + *right as u32,
                    },
                    TreeNode::Leaf { value } => FlatNode {
                        threshold: *value,
                        feature: LEAF,
                        left: base + n as u32,
                        right: base + n as u32,
                    },
                });
            }
        }
        flat
    }

    pub fn num_trees(&self) -> usize {
        self.roots.len()
    }

    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Add every tree's prediction for every row into `acc` (length =
    /// `x.rows()`): level-synchronous traversal over row blocks. Within a
    /// block, one tree at a time, every row's cursor takes the tree's
    /// full depth in lock-step rounds; the inner loop is
    /// branch-predictable (a data-dependent select, no walk-termination
    /// branch) because leaves self-loop, and the rows are independent so
    /// the node loads pipeline across iterations instead of serializing
    /// on one row's parent-to-child chain. Blocking keeps the feature
    /// rows L1-resident across all `trees × depth` rounds that revisit
    /// them, and the final round folds the landed leaf's value straight
    /// into the row sum. Bit-exact with the arena walker: the split rule
    /// compares `v > threshold` (NaN compares false → goes left, same as
    /// `v.is_nan() || v <= threshold`), and per-row sums fold tree
    /// contributions in tree order before a single add into `acc`.
    pub fn accumulate(&self, x: &Matrix, acc: &mut [f64]) {
        SCRATCH.with(|s| self.accumulate_with(x, acc, &mut s.borrow_mut()));
    }

    fn accumulate_with(&self, x: &Matrix, acc: &mut [f64], scratch: &mut BatchScratch) {
        debug_assert_eq!(acc.len(), x.rows());
        let rows = x.rows();
        let cols = x.cols();
        if rows == 0 {
            return;
        }
        let nodes = self.nodes.as_slice();
        if cols == 0 {
            // No feature to split on: only single-leaf trees can be
            // walked, and every row folds the same leaves in tree order.
            debug_assert!(self.depths.iter().all(|d| *d == 0));
            let sum = self
                .roots
                .iter()
                .fold(-0.0, |sum, &root| sum + nodes[root as usize].threshold);
            for out in acc.iter_mut() {
                *out += sum;
            }
            return;
        }
        // Rows per block: 256 rows of a dozen f64 features ≈ 24 KiB,
        // comfortably inside L1d alongside one tree's packed nodes.
        const BLOCK: usize = 256;
        let block = BLOCK.min(rows);
        scratch.cursors.resize(block, 0);
        scratch.sums.resize(block, 0.0);
        for (out_block, x_block) in acc.chunks_mut(BLOCK).zip(x.data().chunks(BLOCK * cols)) {
            let n = out_block.len();
            let cursors = &mut scratch.cursors[..n];
            let sums = &mut scratch.sums[..n];
            // -0.0 starts the fold, as it starts the arena's `sum()`: a
            // row whose leaves are all -0.0 sums to -0.0.
            sums.fill(-0.0);
            for (t, &root) in self.roots.iter().enumerate() {
                let depth = self.depths[t];
                if depth == 0 {
                    // Single-leaf tree: no walk, just the leaf value.
                    let v = nodes[root as usize].threshold;
                    for sum in sums.iter_mut() {
                        *sum += v;
                    }
                    continue;
                }
                cursors.fill(root);
                for _ in 0..depth - 1 {
                    for (cursor, row) in cursors.iter_mut().zip(x_block.chunks_exact(cols)) {
                        let node = &nodes[*cursor as usize];
                        // Leaves carry the LEAF sentinel: clamp the
                        // feature index into range (the loaded value is
                        // discarded — the self-loop keeps the cursor
                        // parked either way).
                        let fi = (node.feature as usize).min(cols - 1);
                        *cursor = if row[fi] > node.threshold {
                            node.right
                        } else {
                            node.left
                        };
                    }
                }
                // Final round: every cursor lands on (or already sits
                // self-looped at) a leaf; fold its value into the row
                // sum in the same pass.
                for (sum, (cursor, row)) in sums
                    .iter_mut()
                    .zip(cursors.iter().zip(x_block.chunks_exact(cols)))
                {
                    let node = &nodes[*cursor as usize];
                    let fi = (node.feature as usize).min(cols - 1);
                    let leaf = if row[fi] > node.threshold {
                        node.right
                    } else {
                        node.left
                    };
                    *sum += nodes[leaf as usize].threshold;
                }
            }
            for (out, &sum) in out_block.iter_mut().zip(sums.iter()) {
                *out += sum;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::tree::TreeNode;

    fn sample() -> DecisionTree {
        // x0 <= 5 ? (x1 <= 2 ? 10 : 20) : 30
        DecisionTree {
            nodes: vec![
                TreeNode::Split {
                    feature: 0,
                    threshold: 5.0,
                    left: 1,
                    right: 2,
                },
                TreeNode::Split {
                    feature: 1,
                    threshold: 2.0,
                    left: 3,
                    right: 4,
                },
                TreeNode::Leaf { value: 30.0 },
                TreeNode::Leaf { value: 10.0 },
                TreeNode::Leaf { value: 20.0 },
            ],
        }
    }

    /// The reference: the arena walker's per-row left fold over trees,
    /// added to the accumulator's starting value.
    fn assert_matches_arena(trees: &[DecisionTree], rows: &[Vec<f64>], start: f64) {
        let flat = FlatTrees::from_trees(trees);
        let x = Matrix::from_rows(rows);
        let mut acc = vec![start; rows.len()];
        flat.accumulate(&x, &mut acc);
        for (r, row) in rows.iter().enumerate() {
            let folded: f64 = trees.iter().map(|t| t.score_row(row)).sum();
            assert_eq!(acc[r].to_bits(), (start + folded).to_bits(), "row {r} diverged");
        }
    }

    #[test]
    fn flat_matches_arena_walker() {
        // Mixed depths (3-deep, single-leaf, 3-deep) plus NaN rows and
        // boundary values exercise the self-loop and clamp paths.
        let trees = vec![sample(), DecisionTree::leaf(-3.0), sample()];
        let flat = FlatTrees::from_trees(&trees);
        assert_eq!(flat.num_trees(), 3);
        assert_eq!(flat.num_nodes(), 11);
        let rows = vec![
            vec![4.0, 1.0],
            vec![4.0, 3.0],
            vec![6.0, 0.0],
            vec![f64::NAN, 1.0],
            vec![5.0, f64::NAN],
            vec![5.0, 2.0],
            vec![f64::INFINITY, f64::NEG_INFINITY],
        ];
        assert_matches_arena(&trees, &rows, 0.5);
        // The thread's scratch, now sized for seven rows, serves a
        // smaller batch and one spanning several blocks.
        assert_matches_arena(&trees, &rows[..3], 0.0);
        let many: Vec<Vec<f64>> = (0..700)
            .map(|i| vec![(i % 13) as f64 - 1.0, (i % 5) as f64])
            .collect();
        assert_matches_arena(&trees, &many, 0.0);
    }

    #[test]
    fn unbalanced_trees_match_the_arena_walker() {
        // A lopsided tree (left arm 3 deep, right arm a bare leaf): rows
        // landing early self-loop through the remaining rounds while
        // deep rows keep walking.
        let lopsided = DecisionTree {
            nodes: vec![
                TreeNode::Split {
                    feature: 0,
                    threshold: 10.0,
                    left: 1,
                    right: 2,
                },
                TreeNode::Split {
                    feature: 1,
                    threshold: 1.0,
                    left: 3,
                    right: 4,
                },
                TreeNode::Leaf { value: 100.0 },
                TreeNode::Split {
                    feature: 0,
                    threshold: 3.0,
                    left: 5,
                    right: 6,
                },
                TreeNode::Leaf { value: 7.0 },
                TreeNode::Leaf { value: -1.0 },
                TreeNode::Leaf { value: 2.0 },
            ],
        };
        let rows: Vec<Vec<f64>> = (0..40)
            .map(|i| vec![(i as f64) * 0.4, (i % 7) as f64 * 0.5])
            .collect();
        assert_matches_arena(&[lopsided, sample()], &rows, 0.0);
    }

    #[test]
    fn empty_ensemble_empty_batch_and_featureless_input() {
        let flat = FlatTrees::from_trees(&[]);
        let x = Matrix::from_rows(&[vec![1.0]]);
        let mut acc = vec![0.25];
        flat.accumulate(&x, &mut acc);
        assert_eq!(acc, vec![0.25]);

        let flat = FlatTrees::from_trees(&[sample()]);
        let mut acc: Vec<f64> = Vec::new();
        flat.accumulate(&Matrix::zeros(0, 2), &mut acc);
        assert!(acc.is_empty());

        // Zero feature columns: single-leaf trees still fold in order.
        let flat = FlatTrees::from_trees(&[DecisionTree::leaf(0.1), DecisionTree::leaf(0.2)]);
        let mut acc = vec![1.0; 2];
        flat.accumulate(&Matrix::zeros(2, 0), &mut acc);
        assert_eq!(acc, vec![1.0 + (-0.0 + 0.1 + 0.2); 2]);
    }

    #[test]
    fn depths_cover_every_leaf() {
        let trees = vec![sample(), DecisionTree::leaf(7.0)];
        let flat = FlatTrees::from_trees(&trees);
        assert_eq!(flat.depths, vec![2, 0]);
    }
}
