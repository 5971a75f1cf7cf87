//! Leaf-mask tree ensembles over `u8` feature bins (QuickScorer, Lucchese
//! et al., SIGIR 2015), the compiled form of tree models that fit it.
//!
//! Each feature's distinct split thresholds, sorted, are its bin edges: a
//! value's bin is how many of them it exceeds, so `x > t_k` holds exactly
//! when `bin(x) > k`, and NaN, which exceeds nothing, gets bin 0 and goes
//! left as in the arena walker. A tree's leaves are numbered left to
//! right, one bit each of a `u64`. A split that sends a row right rules
//! out its left subtree's leaves, and the row's exit leaf is the leftmost
//! leaf no split rules out. So for each tree, and each feature the tree
//! splits on, a table indexed by bin holds the AND of the "drop my left
//! subtree" masks of the tree's splits on that feature that the bin
//! exceeds. Scoring a row is one lookup per (tree, feature): `mask &=
//! table[bin]`, then `leaf = mask.trailing_zeros()`.
//!
//! Scores are bit-identical to the arena walker
//! ([`DecisionTree::score_row`]): the same leaf for every row, and per-row
//! tree contributions folded in tree order from `-0.0`, as the arena's
//! `sum()` folds them, before a single add into the accumulator.
//!
//! A model fits when every tree has at most [`MAX_LEAVES`] leaves, no
//! feature has more than [`MAX_THRESHOLDS`] distinct thresholds, no
//! threshold is NaN and the tables stay within [`MAX_TABLE_BYTES`];
//! [`LeafMaskTrees::build`] returns `None` otherwise and the model keeps
//! [`FlatTrees`](super::flat::FlatTrees).

use super::tree::{DecisionTree, TreeNode};

/// Leaves per tree: one bit of a `u64` mask each.
pub const MAX_LEAVES: usize = 64;
/// Distinct split thresholds per feature: `m` thresholds make `m + 1`
/// bins, and a bin is a `u8`.
pub const MAX_THRESHOLDS: usize = 255;
/// Bytes of all of a model's (tree, feature) tables together, checked
/// before any table is allocated. A table holds a mask per bin of its
/// feature, so 1 MiB is 512 tables of 256 bins, or more of fewer: a
/// 40-tree depth-6 GBT over a dozen features needs about 300 tables and
/// 170 KiB.
pub const MAX_TABLE_BYTES: usize = 1 << 20;

/// Masks past the last table, so every table starts a full `u8` window
/// of the storage: a bin indexes the window without a bounds check.
const PAD: usize = u8::MAX as usize;

/// Rows scored together: their sums and bins stay in L1 while every
/// tree's tables are applied to them.
const BLOCK: usize = 1024;
/// Rows whose masks a tree's terms narrow together, held in registers.
const GROUP: usize = 8;

/// One feature's bin edges: its sorted distinct split thresholds.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct FeatureBins {
    edges: Vec<f64>,
}

impl FeatureBins {
    /// How many bins the feature has: one more than its thresholds.
    fn count(&self) -> usize {
        self.edges.len() + 1
    }

    /// How many thresholds `x` exceeds. NaN exceeds none: bin 0.
    #[inline]
    pub(crate) fn bin(&self, x: f64) -> u8 {
        self.edges.partition_point(|e| *e < x) as u8
    }
}

/// One (tree, feature) table: where its masks start and the feature's
/// bin slot.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Term {
    slot: u32,
    table: u32,
}

/// A tree as the kernel sees it: its terms and its leaves in
/// left-to-right order.
#[derive(Debug, Clone, PartialEq)]
struct MaskTree {
    terms: std::ops::Range<usize>,
    leaves: std::ops::Range<usize>,
}

/// Tree ensemble compiled to leaf-mask tables over feature bins.
#[derive(Debug, Clone, PartialEq)]
pub struct LeafMaskTrees {
    /// `slot_of[feature]`: the feature's bin slot, or `None` when no tree
    /// splits on it (its bins are never computed).
    slot_of: Vec<Option<u32>>,
    /// Bin edges per slot, in feature order.
    bins: Vec<FeatureBins>,
    trees: Vec<MaskTree>,
    terms: Vec<Term>,
    /// Every table's masks, one per bin of its feature, back to back,
    /// then [`PAD`] more.
    tables: Vec<u64>,
    leaves: Vec<f64>,
}

/// Leaves `[lo, hi)` cleared, every other bit set.
fn drop_leaves(lo: usize, hi: usize) -> u64 {
    let span = (1u128 << hi) - (1u128 << lo);
    !(span as u64)
}

impl LeafMaskTrees {
    /// The leaf-mask form of `trees` over `width` features, or `None` when
    /// they do not fit (see the module doc) or are not trees over `width`
    /// features ([`DecisionTree::check`]). Work is O(table entries + nodes
    /// · log nodes), and the table bound is checked before the tables are
    /// allocated.
    pub fn build(trees: &[DecisionTree], width: usize) -> Option<LeafMaskTrees> {
        let mut splits: Vec<(usize, f64)> = Vec::new();
        for t in trees {
            t.check(width).ok()?;
            let mut leaves = 0;
            for node in &t.nodes {
                match node {
                    TreeNode::Leaf { .. } => leaves += 1,
                    TreeNode::Split { threshold, .. } if threshold.is_nan() => return None,
                    TreeNode::Split {
                        feature, threshold, ..
                    } => splits.push((*feature, *threshold)),
                }
            }
            if leaves > MAX_LEAVES {
                return None;
            }
        }
        // Per feature, the sorted distinct thresholds (-0.0 == 0.0: both
        // split alike).
        splits.sort_unstable_by(|a, b| a.0.cmp(&b.0).then(a.1.total_cmp(&b.1)));
        splits.dedup_by(|a, b| a.0 == b.0 && a.1 == b.1);
        let mut slot_of = vec![None; width];
        let mut bins = Vec::new();
        for group in splits.chunk_by(|a, b| a.0 == b.0) {
            if group.len() > MAX_THRESHOLDS {
                return None;
            }
            let thresholds: Vec<f64> = group.iter().map(|s| s.1).collect();
            slot_of[group[0].0] = Some(bins.len() as u32);
            bins.push(FeatureBins { edges: thresholds });
        }
        // Each tree's (slot, threshold index, mask) per split, by slot.
        let mut per_tree = Vec::with_capacity(trees.len());
        let mut entries = 0usize;
        for t in trees {
            let (masks, leaves) = split_masks(t);
            let mut cuts: Vec<(u32, usize, u64)> = masks
                .into_iter()
                .map(|(feature, threshold, mask)| {
                    let slot = slot_of[feature].expect("every split feature has a slot");
                    let edges = &bins[slot as usize].edges;
                    (slot, edges.partition_point(|e| *e < threshold), mask)
                })
                .collect();
            cuts.sort_unstable_by_key(|c| c.0);
            entries += cuts
                .chunk_by(|a, b| a.0 == b.0)
                .map(|group| bins[group[0].0 as usize].count())
                .sum::<usize>();
            per_tree.push((cuts, leaves));
        }
        if entries.saturating_mul(std::mem::size_of::<u64>()) > MAX_TABLE_BYTES {
            return None;
        }
        let mut out = LeafMaskTrees {
            slot_of,
            bins,
            trees: Vec::with_capacity(trees.len()),
            terms: Vec::new(),
            tables: Vec::with_capacity(entries + PAD),
            leaves: Vec::new(),
        };
        for (cuts, leaves) in per_tree {
            let (terms, first_leaf) = (out.terms.len(), out.leaves.len());
            for group in cuts.chunk_by(|a, b| a.0 == b.0) {
                let start = out.tables.len();
                let count = out.bins[group[0].0 as usize].count();
                out.tables.resize(start + count, u64::MAX);
                let table = &mut out.tables[start..];
                // A split on threshold k rules its left subtree out for
                // every bin above k: mark it at k + 1, then AND forward.
                for &(_, k, mask) in group {
                    table[k + 1] &= mask;
                }
                for b in 1..count {
                    table[b] &= table[b - 1];
                }
                out.terms.push(Term {
                    slot: group[0].0,
                    table: start as u32,
                });
            }
            out.leaves.extend(leaves);
            out.trees.push(MaskTree {
                terms: terms..out.terms.len(),
                leaves: first_leaf..out.leaves.len(),
            });
        }
        out.tables.resize(entries + PAD, u64::MAX);
        Some(out)
    }

    /// The bin slot of `feature`, if any tree splits on it.
    pub(crate) fn slot(&self, feature: usize) -> Option<usize> {
        self.slot_of
            .get(feature)
            .copied()
            .flatten()
            .map(|s| s as usize)
    }

    /// Number of bin slots: the features some tree splits on.
    pub(crate) fn num_slots(&self) -> usize {
        self.bins.len()
    }

    /// The bin edges of `slot`.
    pub(crate) fn feature_bins(&self, slot: usize) -> &FeatureBins {
        &self.bins[slot]
    }

    /// Add every tree's prediction for every row into `acc`, reading the
    /// rows' bins slot-major: slot `s` of row `r` at `bins[s * rows + r]`,
    /// with `rows = acc.len()`. Per block of rows and per tree, each
    /// (tree, feature) table narrows the rows' masks, the lowest set bit
    /// picks the leaf, and the leaf folds into the row's sum in tree
    /// order; the sums then take a single add into `acc`.
    pub(crate) fn accumulate_bins(&self, bins: &[u8], acc: &mut [f64]) {
        let rows = acc.len();
        debug_assert_eq!(bins.len(), rows * self.num_slots());
        let mut sums = [0.0f64; BLOCK];
        for (start, out) in (0..rows).step_by(BLOCK).zip(acc.chunks_mut(BLOCK)) {
            let sums = &mut sums[..out.len()];
            sums.fill(-0.0);
            for tree in &self.trees {
                let mut groups = sums.chunks_exact_mut(GROUP);
                let mut row = start;
                for group in &mut groups {
                    self.fold::<GROUP>(tree, bins, rows, row, group);
                    row += GROUP;
                }
                for (i, sum) in groups.into_remainder().iter_mut().enumerate() {
                    self.fold::<1>(tree, bins, rows, row + i, std::slice::from_mut(sum));
                }
            }
            for (a, sum) in out.iter_mut().zip(sums.iter()) {
                *a += sum;
            }
        }
    }

    /// Fold `tree`'s leaf for rows `row..row + G` into `sums`, the rows'
    /// masks held in registers across the tree's terms.
    #[inline(always)]
    fn fold<const G: usize>(
        &self,
        tree: &MaskTree,
        bins: &[u8],
        rows: usize,
        row: usize,
        sums: &mut [f64],
    ) {
        let mut masks = [u64::MAX; G];
        for term in &self.terms[tree.terms.clone()] {
            // The table's window: its own masks, then masks no bin of
            // its feature reaches.
            let table: &[u64; 256] = self.tables[term.table as usize..][..256]
                .try_into()
                .expect("a window is 256 masks");
            let col = &bins[term.slot as usize * rows + row..][..G];
            for (mask, &b) in masks.iter_mut().zip(col) {
                *mask &= table[b as usize];
            }
        }
        let leaves = &self.leaves[tree.leaves.clone()];
        for (sum, mask) in sums.iter_mut().zip(masks) {
            *sum += leaves[mask.trailing_zeros() as usize];
        }
    }
}

/// Each split of `t` as (feature, threshold, mask clearing its left
/// subtree's leaves), and the leaf values left to right. `t` has passed
/// [`DecisionTree::check`]. A pre-order walk numbers the leaves: a
/// split's left subtree holds exactly the leaves numbered between the
/// visits of its left and its right child.
fn split_masks(t: &DecisionTree) -> (Vec<(usize, f64, u64)>, Vec<f64>) {
    let mut first = vec![0usize; t.nodes.len()];
    let mut leaves = Vec::new();
    let mut stack = vec![0usize];
    while let Some(i) = stack.pop() {
        first[i] = leaves.len();
        match &t.nodes[i] {
            TreeNode::Leaf { value } => leaves.push(*value),
            TreeNode::Split { left, right, .. } => stack.extend([*right, *left]),
        }
    }
    let masks = t
        .nodes
        .iter()
        .filter_map(|n| match n {
            TreeNode::Split {
                feature,
                threshold,
                left,
                right,
            } => Some((
                *feature,
                *threshold,
                drop_leaves(first[*left], first[*right]),
            )),
            TreeNode::Leaf { .. } => None,
        })
        .collect();
    (masks, leaves)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiled::CompiledPipeline;
    use crate::featurize::ColumnPipeline;
    use crate::frame::{Frame, FrameCol};
    use crate::model::{Model, RandomForest};
    use crate::pipeline::Pipeline;

    /// x0 <= 5 ? (x1 <= 2 ? 10 : 20) : 30
    fn sample() -> DecisionTree {
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

    /// A forest of `trees` over numeric columns `x0`, `x1`, … scores
    /// `rows` through the leaf-mask kernel as the arena walker does.
    fn assert_matches_arena(trees: Vec<DecisionTree>, rows: &[Vec<f64>]) {
        let columns = (0..rows[0].len())
            .map(|i| ColumnPipeline::numeric(format!("x{i}")))
            .collect();
        let p = Pipeline::new(columns, Model::Forest(RandomForest { trees }), "y");
        let compiled = CompiledPipeline::compile(&p);
        assert!(compiled.leaf_masks());
        let mut frame = Frame::new();
        for i in 0..rows[0].len() {
            let col = rows.iter().map(|r| r[i]).collect();
            frame = frame.with(format!("x{i}"), FrameCol::F64(col)).unwrap();
        }
        let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect::<Vec<_>>();
        assert_eq!(
            bits(compiled.score(&frame).unwrap()),
            bits(p.score(&frame).unwrap())
        );
    }

    #[test]
    fn leaves_are_numbered_left_to_right() {
        let (masks, leaves) = split_masks(&sample());
        assert_eq!(leaves, vec![10.0, 20.0, 30.0]);
        assert_eq!(masks[0], (0, 5.0, !0b011));
        assert_eq!(masks[1], (1, 2.0, !0b001));
        assert_eq!(drop_leaves(0, 64), 0);
    }

    #[test]
    fn bins_count_the_thresholds_a_value_exceeds() {
        let ts = [f64::NEG_INFINITY, -1.0, 0.0, 0.5, 3.0, f64::INFINITY];
        let fb = FeatureBins { edges: ts.to_vec() };
        let values = [
            f64::NAN,
            f64::NEG_INFINITY,
            -2.0,
            -1.0,
            -0.0,
            0.0,
            1e-300,
            0.5,
            2.9999,
            3.0,
            1e300,
            f64::INFINITY,
        ];
        for x in values {
            let want = ts.iter().filter(|t| x > **t).count();
            assert_eq!(fb.bin(x) as usize, want, "x = {x}");
        }
        assert_eq!(fb.count(), 7);
    }

    #[test]
    fn masks_match_the_arena_walker() {
        let trees = vec![sample(), DecisionTree::leaf(-3.0), sample()];
        let mut rows: Vec<Vec<f64>> = (0..300)
            .map(|i| vec![(i % 13) as f64 - 1.0, (i % 5) as f64])
            .collect();
        rows.extend([
            vec![f64::NAN, 1.0],
            vec![5.0, f64::NAN],
            vec![f64::INFINITY, f64::NEG_INFINITY],
        ]);
        assert_matches_arena(trees, &rows);
    }

    #[test]
    fn what_does_not_fit_is_refused() {
        let mut nan = sample();
        if let TreeNode::Split { threshold, .. } = &mut nan.nodes[1] {
            *threshold = f64::NAN;
        }
        assert!(LeafMaskTrees::build(&[nan], 2).is_none());
        assert!(
            LeafMaskTrees::build(&[sample()], 1).is_none(),
            "not a tree over 1 feature"
        );
        let built = LeafMaskTrees::build(&[sample(), sample()], 3).unwrap();
        assert_eq!((built.num_slots(), built.slot(2)), (2, None));
        // One table per (tree, feature), shared thresholds or not, each
        // a mask per bin of its feature (one threshold: two bins).
        assert_eq!(built.tables.len(), 2 * 2 * 2 + PAD);
    }
}
