//! Seeded differential sweep over the compiled tree kernels: whatever
//! `CompiledPipeline` picks for a tree-family pipeline (the leaf-mask
//! kernel over feature bins when the model fits it, the flattened-node
//! walk otherwise) must score bit-equal to the arena walker
//! (`Pipeline::score`) and to the flattened-node walk (`FlatTrees`) over
//! the same featurized rows.
//!
//! Generated ensembles have depth 0 to 6, unbalanced and single-leaf trees
//! and thresholds shared across trees, drawn from a small pool that holds
//! ±0.0 and ±inf; inputs are drawn from the same pool (so they equal
//! thresholds often) plus NaN. Every encoder feeds them: numeric with
//! steps, one-hot with unseen categories, `Fixed`, `Binned` and `Hashing`.
//! A second test checks the eligibility boundaries: 64 vs 65 leaves, 255 vs
//! 256 thresholds on one feature, and the table byte bound.
//!
//! Deterministic via flock-rng; seed count defaults to 256 and is
//! overridable with `FLOCK_DIFF_SEEDS` (CI sweeps wider).

use flock_ml::compiled::FlatKind;
use flock_ml::model::leafmask::{MAX_LEAVES, MAX_TABLE_BYTES, MAX_THRESHOLDS};
use flock_ml::model::FlatTrees;
use flock_ml::{
    ColumnPipeline, CompiledPipeline, DecisionTree, Encoder, Frame, FrameCol, GbtModel, Model,
    NumericStep, Pipeline, RandomForest, TreeNode,
};
use flock_rng::rngs::StdRng;
use flock_rng::{test_seeds, Rng, SeedableRng};

/// Values thresholds, inputs and constants are drawn from.
const POOL: [f64; 12] = [
    f64::NEG_INFINITY,
    -2.0,
    -1.0,
    -0.5,
    -0.0,
    0.0,
    0.5,
    1.0,
    1.5,
    2.0,
    3.0,
    f64::INFINITY,
];
const CATEGORIES: [&str; 3] = ["a", "b", "c"];
/// Text a row may hold: known categories, unseen ones, and token lists for
/// the hashing encoder.
const TEXTS: [&str; 7] = ["a", "b", "c", "zz", "", "a b", "c c a"];

fn pooled(rng: &mut StdRng) -> f64 {
    match rng.gen_range(0..4u32) {
        0 => rng.gen_range(-3.0..3.0),
        _ => POOL[rng.gen_range(0..POOL.len())],
    }
}

fn column(rng: &mut StdRng, i: usize) -> ColumnPipeline {
    let input = format!("c{i}");
    let steps = (0..rng.gen_range(0..3usize))
        .map(|_| match rng.gen_range(0..5u32) {
            0 => NumericStep::Impute { fill: pooled(rng) },
            1 => NumericStep::Standardize {
                mean: rng.gen_range(-1.0..1.0),
                std: [0.0, 0.5, 2.0][rng.gen_range(0..3usize)],
            },
            2 => NumericStep::MinMax {
                min: -1.0,
                max: [-1.0, 1.0, 3.0][rng.gen_range(0..3usize)],
            },
            3 => NumericStep::Log1p,
            _ => NumericStep::Clip { lo: -1.0, hi: 2.0 },
        })
        .collect();
    let encoder = match rng.gen_range(0..5u32) {
        0 | 1 => Encoder::Numeric,
        2 => Encoder::OneHot {
            categories: CATEGORIES[..rng.gen_range(1..=3usize)]
                .iter()
                .map(|c| c.to_string())
                .collect(),
        },
        3 => match rng.gen_range(0..3u32) {
            0 => Encoder::Fixed {
                values: (0..rng.gen_range(1..3usize)).map(|_| pooled(rng)).collect(),
            },
            1 => Encoder::Hashing {
                buckets: rng.gen_range(1..4usize),
            },
            _ => Encoder::Binned {
                edges: vec![-1.0, 0.0, 1.5],
            },
        },
        _ => Encoder::Numeric,
    };
    ColumnPipeline {
        input,
        steps,
        encoder,
    }
}

/// A random tree of at most `depth` levels: splits stop early at random,
/// so trees come unbalanced, and `depth` 0 is a single leaf.
fn tree(rng: &mut StdRng, depth: usize, width: usize, thresholds: &[f64]) -> DecisionTree {
    fn grow(
        rng: &mut StdRng,
        depth: usize,
        width: usize,
        thresholds: &[f64],
        nodes: &mut Vec<TreeNode>,
    ) -> usize {
        let at = nodes.len();
        let value = match rng.gen_range(0..6u32) {
            0 => -0.0,
            1 => rng.gen_range(-1.0..1.0),
            _ => rng.gen_range(-8i32..8) as f64 * 0.125,
        };
        nodes.push(TreeNode::Leaf { value });
        if depth > 0 && width > 0 && rng.gen_range(0..5u32) > 0 {
            let feature = rng.gen_range(0..width);
            let threshold = thresholds[rng.gen_range(0..thresholds.len())];
            let left = grow(rng, depth - 1, width, thresholds, nodes);
            let right = grow(rng, depth - 1, width, thresholds, nodes);
            nodes[at] = TreeNode::Split {
                feature,
                threshold,
                left,
                right,
            };
        }
        at
    }
    let mut nodes = Vec::new();
    grow(rng, depth, width, thresholds, &mut nodes);
    DecisionTree { nodes }
}

fn model(rng: &mut StdRng, width: usize) -> Model {
    // Thresholds shared across the ensemble's trees.
    let thresholds: Vec<f64> = (0..rng.gen_range(1..8usize)).map(|_| pooled(rng)).collect();
    let trees = |rng: &mut StdRng, n: usize| -> Vec<DecisionTree> {
        (0..n)
            .map(|_| {
                let depth = rng.gen_range(0..=6usize);
                tree(rng, depth, width, &thresholds)
            })
            .collect()
    };
    match rng.gen_range(0..3u32) {
        0 => Model::Tree(trees(rng, 1).pop().unwrap()),
        1 => Model::Forest(RandomForest {
            trees: {
                let n = rng.gen_range(0..6usize);
                trees(rng, n)
            },
        }),
        _ => Model::Gbt(GbtModel {
            trees: {
                let n = rng.gen_range(0..10usize);
                trees(rng, n)
            },
            learning_rate: [0.1, 0.5, 1.0][rng.gen_range(0..3usize)],
            base_score: [-0.0, 0.0, 0.25][rng.gen_range(0..3usize)],
            sigmoid_output: rng.gen_bool(0.5),
        }),
    }
}

fn frame(rng: &mut StdRng, columns: &[ColumnPipeline]) -> Frame<'static> {
    // Row counts around the kernel's 8-row groups and 1024-row blocks.
    let rows = match rng.gen_range(0..6u32) {
        0 => rng.gen_range(0..3usize),
        1 => rng.gen_range(7..10usize),
        2 => rng.gen_range(1020..1040usize),
        _ => rng.gen_range(10..200usize),
    };
    let mut f = Frame::new();
    for cp in columns {
        let col = if cp.encoder.takes_strings() {
            FrameCol::Str(
                (0..rows)
                    .map(|_| TEXTS[rng.gen_range(0..TEXTS.len())].to_string())
                    .collect(),
            )
        } else {
            FrameCol::F64(
                (0..rows)
                    .map(|_| match rng.gen_range(0..8u32) {
                        0 => f64::NAN,
                        _ => pooled(rng),
                    })
                    .collect(),
            )
        };
        f.push(cp.input.clone(), col).unwrap();
    }
    f
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn flat_kind(model: &Model) -> (&[DecisionTree], FlatKind) {
    match model {
        Model::Tree(t) => (std::slice::from_ref(t), FlatKind::Single),
        Model::Forest(f) => (
            &f.trees,
            FlatKind::ForestMean {
                count: f.trees.len(),
            },
        ),
        Model::Gbt(g) => (
            &g.trees,
            FlatKind::Gbt {
                learning_rate: g.learning_rate,
                base_score: g.base_score,
                sigmoid_output: g.sigmoid_output,
            },
        ),
        other => panic!("not a tree model: {other:?}"),
    }
}

/// The compiled kernel's scores of `f`, checked bit for bit against the
/// arena walker and the flattened-node walk. The kernel builds its leaf
/// masks at once rather than after `MASKS_AFTER_ROWS` rows; returns
/// whether the model fits them.
fn assert_kernels_agree(p: &Pipeline, f: &Frame, what: &str) -> bool {
    let compiled = CompiledPipeline::compile(p);
    let fits = compiled.leaf_masks();
    let got = bits(&compiled.score(f).unwrap());
    let arena = bits(&p.score(f).unwrap());
    assert_eq!(got, arena, "{what}: compiled kernel vs arena walker");
    let (trees, kind) = flat_kind(&p.model);
    let x = p.featurize(f).unwrap();
    let mut flat = vec![-0.0; x.rows()];
    FlatTrees::from_trees(trees).accumulate(&x, &mut flat);
    kind.finish(&mut flat);
    assert_eq!(got, bits(&flat), "{what}: compiled kernel vs FlatTrees");
    fits
}

#[test]
fn compiled_tree_kernels_match_the_arena_walker() {
    let mut leaf_mask = 0;
    let seeds = test_seeds(256);
    let total = seeds.end;
    for seed in seeds {
        let mut rng = StdRng::seed_from_u64(seed);
        let columns: Vec<ColumnPipeline> = (0..rng.gen_range(1..5usize))
            .map(|i| column(&mut rng, i))
            .collect();
        let width = columns.iter().map(ColumnPipeline::width).sum();
        let p = Pipeline::new(columns, model(&mut rng, width), "y");
        let f = frame(&mut rng, &p.columns);
        if assert_kernels_agree(&p, &f, &format!("seed {seed}")) {
            leaf_mask += 1;
        }
    }
    // Generated models are small: every one fits the leaf-mask kernel.
    assert_eq!(leaf_mask, total);
}

/// `n` stumps on feature 0 of a one-column pipeline, thresholds
/// `threshold(i)`.
fn stumps(n: usize, threshold: impl Fn(usize) -> f64) -> Pipeline {
    let trees = (0..n)
        .map(|i| DecisionTree {
            nodes: vec![
                TreeNode::Split {
                    feature: 0,
                    threshold: threshold(i),
                    left: 1,
                    right: 2,
                },
                TreeNode::Leaf { value: -0.25 },
                TreeNode::Leaf { value: 0.5 },
            ],
        })
        .collect();
    Pipeline::new(
        vec![ColumnPipeline::numeric("x")],
        Model::Gbt(GbtModel {
            trees,
            learning_rate: 0.5,
            base_score: 0.0,
            sigmoid_output: false,
        }),
        "y",
    )
}

/// A caterpillar of `leaves - 1` splits on feature 0 at 0, 1, 2, …: each
/// split's right child is the next split.
fn caterpillar(leaves: usize) -> Pipeline {
    let mut nodes = Vec::new();
    for i in 0..leaves - 1 {
        nodes.push(TreeNode::Split {
            feature: 0,
            threshold: i as f64,
            left: nodes.len() + 1,
            right: nodes.len() + 2,
        });
        nodes.push(TreeNode::Leaf { value: i as f64 });
    }
    nodes.push(TreeNode::Leaf { value: -1.0 });
    Pipeline::new(
        vec![ColumnPipeline::numeric("x")],
        Model::Tree(DecisionTree { nodes }),
        "y",
    )
}

/// Every integer and half-integer from -1 to `to`, plus NaN and ±inf: each
/// threshold, and each gap between two.
fn ladder(to: usize) -> Frame<'static> {
    let mut xs: Vec<f64> = (-2..=2 * to as i64).map(|i| i as f64 * 0.5).collect();
    xs.extend([f64::NAN, f64::INFINITY, f64::NEG_INFINITY]);
    Frame::new().with("x", FrameCol::F64(xs)).unwrap()
}

#[test]
fn eligibility_boundaries_pick_the_right_kernel() {
    let f = ladder(300);
    for (leaves, fits) in [(MAX_LEAVES, true), (MAX_LEAVES + 1, false)] {
        let fitted = assert_kernels_agree(&caterpillar(leaves), &f, &format!("{leaves} leaves"));
        assert_eq!(fitted, fits, "{leaves} leaves");
    }
    for (n, fits) in [(MAX_THRESHOLDS, true), (MAX_THRESHOLDS + 1, false)] {
        let p = stumps(n, |i| i as f64);
        let fitted = assert_kernels_agree(&p, &f, &format!("{n} thresholds"));
        assert_eq!(fitted, fits, "{n} thresholds");
    }
    // One table per stump, a mask per bin: 7 thresholds make 8 bins of 8
    // bytes. Thresholds repeat, so only the byte bound can refuse.
    let tables = MAX_TABLE_BYTES / 64;
    for (n, fits) in [(tables, true), (tables + 1, false)] {
        let p = stumps(n, |i| (i % 7) as f64);
        let fitted = assert_kernels_agree(&p, &ladder(8), &format!("{n} tables"));
        assert_eq!(fitted, fits, "{n} tables");
    }
}
