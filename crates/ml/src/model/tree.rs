//! Decision trees (CART-style, axis-aligned splits, scalar leaf values).

use crate::matrix::Matrix;

/// One tree node. Trees are stored as an arena with the root at index 0.
#[derive(Debug, Clone, PartialEq)]
pub enum TreeNode {
    /// Internal split: go left when `x[feature] <= threshold` (NaN goes
    /// left as well, treating missing as small).
    Split {
        feature: usize,
        threshold: f64,
        left: usize,
        right: usize,
    },
    Leaf {
        value: f64,
    },
}

/// A regression/scoring tree.
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionTree {
    pub nodes: Vec<TreeNode>,
}

impl DecisionTree {
    pub fn leaf(value: f64) -> Self {
        DecisionTree {
            nodes: vec![TreeNode::Leaf { value }],
        }
    }

    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    pub fn depth(&self) -> usize {
        fn depth_of(nodes: &[TreeNode], i: usize) -> usize {
            match &nodes[i] {
                TreeNode::Leaf { .. } => 1,
                TreeNode::Split { left, right, .. } => {
                    1 + depth_of(nodes, *left).max(depth_of(nodes, *right))
                }
            }
        }
        if self.nodes.is_empty() {
            0
        } else {
            depth_of(&self.nodes, 0)
        }
    }

    /// Check the arena is a tree over `width` features: every split reads
    /// a feature below `width`, every child index is in range, and every
    /// node is reached exactly once from root 0 (so no cycle, no shared
    /// subtree, no orphan). The scorers index by these fields unchecked.
    pub fn check(&self, width: usize) -> Result<(), String> {
        if self.nodes.is_empty() {
            return Err("tree has no nodes".into());
        }
        let mut seen = vec![false; self.nodes.len()];
        let mut stack = vec![0usize];
        while let Some(i) = stack.pop() {
            if std::mem::replace(&mut seen[i], true) {
                return Err(format!("node {i} is reached twice"));
            }
            if let TreeNode::Split {
                feature,
                left,
                right,
                ..
            } = &self.nodes[i]
            {
                if *feature >= width {
                    return Err(format!(
                        "node {i} splits on feature {feature} of {width}"
                    ));
                }
                for child in [*left, *right] {
                    if child >= self.nodes.len() {
                        return Err(format!(
                            "node {i} has child {child} of {} nodes",
                            self.nodes.len()
                        ));
                    }
                    stack.push(child);
                }
            }
        }
        match seen.iter().position(|s| !s) {
            Some(i) => Err(format!("node {i} is unreachable from the root")),
            None => Ok(()),
        }
    }

    #[inline]
    pub fn score_row(&self, x: &[f64]) -> f64 {
        let mut i = 0usize;
        loop {
            match &self.nodes[i] {
                TreeNode::Leaf { value } => return *value,
                TreeNode::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    let v = x[*feature];
                    i = if v.is_nan() || v <= *threshold {
                        *left
                    } else {
                        *right
                    };
                }
            }
        }
    }

    pub fn score_batch(&self, x: &Matrix) -> Vec<f64> {
        (0..x.rows()).map(|r| self.score_row(x.row(r))).collect()
    }

    /// Which features any split tests.
    pub fn used_features(&self, dim: usize) -> Vec<bool> {
        let mut used = vec![false; dim];
        for n in &self.nodes {
            if let TreeNode::Split { feature, .. } = n {
                if *feature < dim {
                    used[*feature] = true;
                }
            }
        }
        used
    }

    /// Remap feature indices after column pruning. `mapping[old] = new`.
    pub fn remap_features(&self, mapping: &[Option<usize>]) -> DecisionTree {
        let nodes = self
            .nodes
            .iter()
            .map(|n| match n {
                TreeNode::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => TreeNode::Split {
                    feature: mapping[*feature].expect("pruned feature still used"),
                    threshold: *threshold,
                    left: *left,
                    right: *right,
                },
                leaf => leaf.clone(),
            })
            .collect();
        DecisionTree { nodes }
    }

    /// **Model compression via data statistics** (paper §4.1): prune
    /// branches unreachable given per-feature [min, max] ranges of the
    /// actual input data, and collapse splits whose subtrees agree.
    /// Returns a tree that scores identically on any input within range.
    pub fn compress(&self, ranges: &[(f64, f64)]) -> DecisionTree {
        #[derive(Clone)]
        struct Bound {
            lo: Vec<f64>,
            hi: Vec<f64>,
        }
        // Build a new arena by walking reachable nodes.
        fn walk(
            old: &[TreeNode],
            i: usize,
            bound: &mut Bound,
            out: &mut Vec<TreeNode>,
        ) -> usize {
            match &old[i] {
                TreeNode::Leaf { value } => {
                    out.push(TreeNode::Leaf { value: *value });
                    out.len() - 1
                }
                TreeNode::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    let f = *feature;
                    let (lo, hi) = (bound.lo[f], bound.hi[f]);
                    // Range entirely on one side: the split never branches.
                    if hi <= *threshold {
                        return walk(old, *left, bound, out);
                    }
                    if lo > *threshold {
                        return walk(old, *right, bound, out);
                    }
                    // Recurse with tightened bounds.
                    let saved_hi = bound.hi[f];
                    bound.hi[f] = *threshold;
                    let li = walk(old, *left, bound, out);
                    bound.hi[f] = saved_hi;

                    let saved_lo = bound.lo[f];
                    bound.lo[f] = *threshold;
                    let ri = walk(old, *right, bound, out);
                    bound.lo[f] = saved_lo;

                    // Merge identical leaves.
                    if let (TreeNode::Leaf { value: a }, TreeNode::Leaf { value: b }) =
                        (&out[li], &out[ri])
                    {
                        if a == b {
                            let v = *a;
                            // roll back the two leaf pushes when possible
                            if ri == out.len() - 1 && li == out.len() - 2 {
                                out.truncate(out.len() - 2);
                            }
                            out.push(TreeNode::Leaf { value: v });
                            return out.len() - 1;
                        }
                    }
                    out.push(TreeNode::Split {
                        feature: f,
                        threshold: *threshold,
                        left: li,
                        right: ri,
                    });
                    out.len() - 1
                }
            }
        }

        let dim = ranges.len();
        let mut bound = Bound {
            lo: (0..dim).map(|i| ranges[i].0).collect(),
            hi: (0..dim).map(|i| ranges[i].1).collect(),
        };
        let mut out = Vec::new();
        let root = walk(&self.nodes, 0, &mut bound, &mut out);
        // The walker appends children before parents, so the root is last;
        // normalize so the root is at index 0 by index remapping.
        if root != 0 {
            let n = out.len();
            let remap = |i: usize| -> usize {
                if i == root {
                    0
                } else if i < root {
                    i + 1
                } else {
                    i
                }
            };
            let mut rotated: Vec<TreeNode> = Vec::with_capacity(n);
            rotated.push(out[root].clone());
            rotated.extend(out[..root].iter().cloned());
            rotated.extend(out[root + 1..].iter().cloned());
            for node in &mut rotated {
                if let TreeNode::Split { left, right, .. } = node {
                    *left = remap(*left);
                    *right = remap(*right);
                }
            }
            return DecisionTree { nodes: rotated };
        }
        DecisionTree { nodes: out }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn scoring_follows_splits() {
        let t = sample();
        assert_eq!(t.score_row(&[4.0, 1.0]), 10.0);
        assert_eq!(t.score_row(&[4.0, 3.0]), 20.0);
        assert_eq!(t.score_row(&[6.0, 0.0]), 30.0);
        // NaN routes left
        assert_eq!(t.score_row(&[f64::NAN, 1.0]), 10.0);
    }

    #[test]
    fn used_features_reports_splits() {
        let t = sample();
        assert_eq!(t.used_features(3), vec![true, true, false]);
    }

    #[test]
    fn compress_prunes_unreachable_branches() {
        let t = sample();
        // data never exceeds x0 = 5 -> right branch unreachable
        let c = t.compress(&[(0.0, 5.0), (0.0, 10.0)]);
        assert!(c.num_nodes() < t.num_nodes());
        for (a, b) in [([4.0, 1.0], 10.0), ([5.0, 3.0], 20.0)] {
            assert_eq!(c.score_row(&a), b);
        }
        // x1 never exceeds 2 -> inner split also collapses
        let c2 = t.compress(&[(0.0, 5.0), (0.0, 2.0)]);
        assert_eq!(c2.num_nodes(), 1);
        assert_eq!(c2.score_row(&[1.0, 1.0]), 10.0);
    }

    #[test]
    fn compress_preserves_semantics_in_range() {
        let t = sample();
        let ranges = [(0.0, 10.0), (0.0, 10.0)];
        let c = t.compress(&ranges);
        for x0 in 0..=10 {
            for x1 in 0..=10 {
                let x = [x0 as f64, x1 as f64];
                assert_eq!(t.score_row(&x), c.score_row(&x));
            }
        }
    }

    #[test]
    fn identical_leaves_merge() {
        let t = DecisionTree {
            nodes: vec![
                TreeNode::Split {
                    feature: 0,
                    threshold: 1.0,
                    left: 1,
                    right: 2,
                },
                TreeNode::Leaf { value: 7.0 },
                TreeNode::Leaf { value: 7.0 },
            ],
        };
        let c = t.compress(&[(0.0, 2.0)]);
        assert_eq!(c.num_nodes(), 1);
    }

    #[test]
    fn check_rejects_what_is_not_a_tree() {
        assert_eq!(sample().check(2), Ok(()));
        assert_eq!(DecisionTree::leaf(1.0).check(0), Ok(()));
        assert!(sample().check(1).unwrap_err().contains("feature 1 of 1"));
        assert!(DecisionTree { nodes: vec![] }.check(1).is_err());
        let split = |left, right| TreeNode::Split {
            feature: 0,
            threshold: 0.0,
            left,
            right,
        };
        let leaf = TreeNode::Leaf { value: 0.0 };
        let bad = [
            (vec![split(1, 9), leaf.clone()], "child 9"),
            (vec![split(1, 2), split(0, 2), leaf.clone()], "reached twice"),
            (vec![split(1, 1), leaf.clone()], "reached twice"),
            (vec![split(1, 2), leaf.clone(), leaf.clone(), leaf], "unreachable"),
        ];
        for (nodes, why) in bad {
            let err = DecisionTree { nodes }.check(1).unwrap_err();
            assert!(err.contains(why), "{err}");
        }
    }

    #[test]
    fn depth_counts_levels() {
        assert_eq!(sample().depth(), 3);
        assert_eq!(DecisionTree::leaf(1.0).depth(), 1);
    }

    #[test]
    fn remap_features_rewrites_indices() {
        let t = sample();
        let remapped = t.remap_features(&[Some(1), Some(0), None]);
        assert_eq!(remapped.score_row(&[1.0, 4.0]), t.score_row(&[4.0, 1.0]));
    }
}
