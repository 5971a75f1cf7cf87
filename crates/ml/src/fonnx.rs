//! FONNX — the *Flock Open Neural Network eXchange* format.
//!
//! The paper argues "the most widely studied or promising families of
//! models can be uniformly represented" (citing ONNX); FONNX is our
//! closed-world equivalent: a versioned, self-describing serialization of
//! a [`Pipeline`] that the DBMS stores as the payload of a model catalog
//! object.
//!
//! The codec is hand-written over [`flock_json::Value`]: externally-tagged
//! enums and field-name objects (the shape a serde derive would emit), so
//! the format is fully specified here.

use crate::error::{MlError, Result};
use crate::featurize::{ColumnPipeline, Encoder, NumericStep};
use crate::matrix::Matrix;
use crate::model::{
    DecisionTree, GaussianNb, GbtModel, KnnModel, LinearModel, Model, RandomForest, TreeNode,
};
use crate::pipeline::Pipeline;
use flock_json::{Map, Value};

/// Current format version. Readers reject newer majors.
pub const FONNX_VERSION: u32 = 1;

/// Serialize a pipeline to FONNX bytes. Whatever [`from_bytes`] would
/// refuse is an error here, so bytes that do not decode never reach the
/// catalog: a NaN or infinite number anywhere (JSON cannot spell one; the
/// codec would write `null`), and a tree that is not a tree over the
/// pipeline's features.
pub fn to_bytes(pipeline: &Pipeline) -> Result<Vec<u8>> {
    check_trees(pipeline)?;
    let body = pipeline_to_value(pipeline);
    // The encoder writes no `null` of its own: each one is such a number.
    if let Some(path) = null_path(&body) {
        return Err(MlError::Format(format!(
            "pipeline{path} is NaN or infinite, which FONNX cannot store"
        )));
    }
    let mut doc = Map::new();
    doc.insert("format".to_string(), Value::from("fonnx"));
    doc.insert("version".to_string(), Value::from(FONNX_VERSION));
    doc.insert("pipeline".to_string(), body);
    Ok(Value::Object(doc).to_string().into_bytes())
}

/// Where the first `null` in `v` sits, as `.key[index]…` steps.
fn null_path(v: &Value) -> Option<String> {
    match v {
        Value::Null => Some(String::new()),
        Value::Array(xs) => xs
            .iter()
            .enumerate()
            .find_map(|(i, x)| null_path(x).map(|p| format!("[{i}]{p}"))),
        Value::Object(m) => m
            .iter()
            .find_map(|(k, x)| null_path(x).map(|p| format!(".{k}{p}"))),
        _ => None,
    }
}

/// Deserialize FONNX bytes back into a pipeline.
pub fn from_bytes(bytes: &[u8]) -> Result<Pipeline> {
    let doc: Value =
        flock_json::from_slice(bytes).map_err(|e| MlError::Format(e.to_string()))?;
    let format = doc
        .get("format")
        .and_then(Value::as_str)
        .ok_or_else(|| MlError::Format("missing 'format' field".into()))?;
    if format != "fonnx" {
        return Err(MlError::Format(format!(
            "not a FONNX document (format = '{format}')"
        )));
    }
    let version = doc
        .get("version")
        .and_then(Value::as_u64)
        .ok_or_else(|| MlError::Format("missing 'version' field".into()))?;
    if version > FONNX_VERSION as u64 {
        return Err(MlError::Format(format!(
            "unsupported FONNX version {version} (max {FONNX_VERSION})"
        )));
    }
    let pipeline = doc
        .get("pipeline")
        .ok_or_else(|| MlError::Format("missing 'pipeline' field".into()))?;
    let pipeline = pipeline_from_value(pipeline)?;
    check_trees(&pipeline)?;
    Ok(pipeline)
}

/// Every tree of a tree-family model must be a tree over the pipeline's
/// features ([`DecisionTree::check`]): the scorers index by split feature
/// and child without a bounds check of their own.
fn check_trees(pipeline: &Pipeline) -> Result<()> {
    let trees = match &pipeline.model {
        Model::Tree(t) => std::slice::from_ref(t),
        Model::Forest(f) => &f.trees,
        Model::Gbt(g) => &g.trees,
        _ => return Ok(()),
    };
    let width = pipeline.feature_width();
    for (i, tree) in trees.iter().enumerate() {
        tree.check(width)
            .map_err(|e| bad(&format!("tree {i}: {e}")))?;
    }
    Ok(())
}

// ------------------------------------------------------------- encoding

fn obj(pairs: Vec<(&str, Value)>) -> Value {
    let mut m = Map::new();
    for (k, v) in pairs {
        m.insert(k.to_string(), v);
    }
    Value::Object(m)
}

/// Externally-tagged enum variant: `{"Tag": payload}`.
fn variant(tag: &str, payload: Value) -> Value {
    obj(vec![(tag, payload)])
}

fn f64s(xs: &[f64]) -> Value {
    Value::Array(xs.iter().map(|&x| Value::from(x)).collect())
}

fn strings(xs: &[String]) -> Value {
    Value::Array(xs.iter().map(|s| Value::from(s.as_str())).collect())
}

fn pipeline_to_value(p: &Pipeline) -> Value {
    obj(vec![
        (
            "columns",
            Value::Array(p.columns.iter().map(column_to_value).collect()),
        ),
        ("model", model_to_value(&p.model)),
        ("output", Value::from(p.output.as_str())),
    ])
}

fn column_to_value(c: &ColumnPipeline) -> Value {
    obj(vec![
        ("input", Value::from(c.input.as_str())),
        (
            "steps",
            Value::Array(c.steps.iter().map(step_to_value).collect()),
        ),
        ("encoder", encoder_to_value(&c.encoder)),
    ])
}

fn step_to_value(s: &NumericStep) -> Value {
    match s {
        NumericStep::Impute { fill } => {
            variant("Impute", obj(vec![("fill", Value::from(*fill))]))
        }
        NumericStep::Standardize { mean, std } => variant(
            "Standardize",
            obj(vec![("mean", Value::from(*mean)), ("std", Value::from(*std))]),
        ),
        NumericStep::MinMax { min, max } => variant(
            "MinMax",
            obj(vec![("min", Value::from(*min)), ("max", Value::from(*max))]),
        ),
        NumericStep::Log1p => Value::from("Log1p"),
        NumericStep::Clip { lo, hi } => variant(
            "Clip",
            obj(vec![("lo", Value::from(*lo)), ("hi", Value::from(*hi))]),
        ),
    }
}

fn encoder_to_value(e: &Encoder) -> Value {
    match e {
        Encoder::Numeric => Value::from("Numeric"),
        Encoder::OneHot { categories } => variant(
            "OneHot",
            obj(vec![("categories", strings(categories))]),
        ),
        Encoder::Hashing { buckets } => {
            variant("Hashing", obj(vec![("buckets", Value::from(*buckets))]))
        }
        Encoder::Binned { edges } => variant("Binned", obj(vec![("edges", f64s(edges))])),
        Encoder::Fixed { values } => variant("Fixed", obj(vec![("values", f64s(values))])),
    }
}

fn model_to_value(m: &Model) -> Value {
    match m {
        Model::Linear(lm) => variant("Linear", linear_to_value(lm)),
        Model::Logistic(lm) => variant("Logistic", linear_to_value(lm)),
        Model::Tree(t) => variant("Tree", tree_to_value(t)),
        Model::Forest(f) => variant(
            "Forest",
            obj(vec![(
                "trees",
                Value::Array(f.trees.iter().map(tree_to_value).collect()),
            )]),
        ),
        Model::Gbt(g) => variant(
            "Gbt",
            obj(vec![
                (
                    "trees",
                    Value::Array(g.trees.iter().map(tree_to_value).collect()),
                ),
                ("learning_rate", Value::from(g.learning_rate)),
                ("base_score", Value::from(g.base_score)),
                ("sigmoid_output", Value::from(g.sigmoid_output)),
            ]),
        ),
        Model::NaiveBayes(nb) => variant(
            "NaiveBayes",
            obj(vec![
                ("log_prior_ratio", Value::from(nb.log_prior_ratio)),
                ("class0", pairs_to_value(&nb.class0)),
                ("class1", pairs_to_value(&nb.class1)),
            ]),
        ),
        Model::Knn(k) => variant(
            "Knn",
            obj(vec![
                ("k", Value::from(k.k)),
                ("points", matrix_to_value(&k.points)),
                ("targets", f64s(&k.targets)),
            ]),
        ),
    }
}

fn linear_to_value(lm: &LinearModel) -> Value {
    obj(vec![
        ("weights", f64s(&lm.weights)),
        ("bias", Value::from(lm.bias)),
    ])
}

fn tree_to_value(t: &DecisionTree) -> Value {
    obj(vec![(
        "nodes",
        Value::Array(t.nodes.iter().map(node_to_value).collect()),
    )])
}

fn node_to_value(n: &TreeNode) -> Value {
    match n {
        TreeNode::Split {
            feature,
            threshold,
            left,
            right,
        } => variant(
            "Split",
            obj(vec![
                ("feature", Value::from(*feature)),
                ("threshold", Value::from(*threshold)),
                ("left", Value::from(*left)),
                ("right", Value::from(*right)),
            ]),
        ),
        TreeNode::Leaf { value } => {
            variant("Leaf", obj(vec![("value", Value::from(*value))]))
        }
    }
}

fn pairs_to_value(ps: &[(f64, f64)]) -> Value {
    Value::Array(
        ps.iter()
            .map(|&(a, b)| Value::Array(vec![Value::from(a), Value::from(b)]))
            .collect(),
    )
}

fn matrix_to_value(m: &Matrix) -> Value {
    obj(vec![
        ("rows", Value::from(m.rows())),
        ("cols", Value::from(m.cols())),
        ("data", f64s(m.data())),
    ])
}

// ------------------------------------------------------------- decoding

fn bad(what: &str) -> MlError {
    MlError::Format(format!("malformed FONNX: {what}"))
}

fn get<'a>(v: &'a Value, key: &str, what: &str) -> Result<&'a Value> {
    v.get(key).ok_or_else(|| bad(&format!("{what}.{key} missing")))
}

fn as_f64(v: &Value, what: &str) -> Result<f64> {
    v.as_f64().ok_or_else(|| bad(&format!("{what} not a number")))
}

fn as_usize(v: &Value, what: &str) -> Result<usize> {
    v.as_u64()
        .map(|u| u as usize)
        .ok_or_else(|| bad(&format!("{what} not an integer")))
}

fn as_bool(v: &Value, what: &str) -> Result<bool> {
    v.as_bool().ok_or_else(|| bad(&format!("{what} not a bool")))
}

fn as_str<'a>(v: &'a Value, what: &str) -> Result<&'a str> {
    v.as_str().ok_or_else(|| bad(&format!("{what} not a string")))
}

fn as_array<'a>(v: &'a Value, what: &str) -> Result<&'a Vec<Value>> {
    v.as_array().ok_or_else(|| bad(&format!("{what} not an array")))
}

fn f64s_from(v: &Value, what: &str) -> Result<Vec<f64>> {
    as_array(v, what)?.iter().map(|x| as_f64(x, what)).collect()
}

fn strings_from(v: &Value, what: &str) -> Result<Vec<String>> {
    as_array(v, what)?
        .iter()
        .map(|x| as_str(x, what).map(str::to_string))
        .collect()
}

/// Split an externally-tagged enum value into `(tag, payload)`. Unit
/// variants arrive as plain strings with a null payload.
fn untag<'a>(v: &'a Value, what: &str) -> Result<(&'a str, &'a Value)> {
    static NULL: Value = Value::Null;
    if let Some(tag) = v.as_str() {
        return Ok((tag, &NULL));
    }
    let m = v
        .as_object()
        .ok_or_else(|| bad(&format!("{what} not a variant")))?;
    let mut it = m.iter();
    match (it.next(), it.next()) {
        (Some((tag, payload)), None) => Ok((tag.as_str(), payload)),
        _ => Err(bad(&format!("{what} not a single-key variant"))),
    }
}

fn pipeline_from_value(v: &Value) -> Result<Pipeline> {
    let columns = as_array(get(v, "columns", "pipeline")?, "pipeline.columns")?
        .iter()
        .map(column_from_value)
        .collect::<Result<Vec<_>>>()?;
    let model = model_from_value(get(v, "model", "pipeline")?)?;
    let output = as_str(get(v, "output", "pipeline")?, "pipeline.output")?.to_string();
    Ok(Pipeline {
        columns,
        model,
        output,
    })
}

fn column_from_value(v: &Value) -> Result<ColumnPipeline> {
    let input = as_str(get(v, "input", "column")?, "column.input")?.to_string();
    let steps = as_array(get(v, "steps", "column")?, "column.steps")?
        .iter()
        .map(step_from_value)
        .collect::<Result<Vec<_>>>()?;
    let encoder = encoder_from_value(get(v, "encoder", "column")?)?;
    Ok(ColumnPipeline {
        input,
        steps,
        encoder,
    })
}

fn step_from_value(v: &Value) -> Result<NumericStep> {
    let (tag, p) = untag(v, "step")?;
    match tag {
        "Impute" => Ok(NumericStep::Impute {
            fill: as_f64(get(p, "fill", "Impute")?, "Impute.fill")?,
        }),
        "Standardize" => Ok(NumericStep::Standardize {
            mean: as_f64(get(p, "mean", "Standardize")?, "Standardize.mean")?,
            std: as_f64(get(p, "std", "Standardize")?, "Standardize.std")?,
        }),
        "MinMax" => Ok(NumericStep::MinMax {
            min: as_f64(get(p, "min", "MinMax")?, "MinMax.min")?,
            max: as_f64(get(p, "max", "MinMax")?, "MinMax.max")?,
        }),
        "Log1p" => Ok(NumericStep::Log1p),
        "Clip" => Ok(NumericStep::Clip {
            lo: as_f64(get(p, "lo", "Clip")?, "Clip.lo")?,
            hi: as_f64(get(p, "hi", "Clip")?, "Clip.hi")?,
        }),
        other => Err(bad(&format!("unknown numeric step '{other}'"))),
    }
}

fn encoder_from_value(v: &Value) -> Result<Encoder> {
    let (tag, p) = untag(v, "encoder")?;
    match tag {
        "Numeric" => Ok(Encoder::Numeric),
        "OneHot" => Ok(Encoder::OneHot {
            categories: strings_from(
                get(p, "categories", "OneHot")?,
                "OneHot.categories",
            )?
            .into(),
        }),
        "Hashing" => Ok(Encoder::Hashing {
            buckets: as_usize(get(p, "buckets", "Hashing")?, "Hashing.buckets")?,
        }),
        "Binned" => Ok(Encoder::Binned {
            edges: f64s_from(get(p, "edges", "Binned")?, "Binned.edges")?,
        }),
        "Fixed" => Ok(Encoder::Fixed {
            values: f64s_from(get(p, "values", "Fixed")?, "Fixed.values")?,
        }),
        other => Err(bad(&format!("unknown encoder '{other}'"))),
    }
}

fn model_from_value(v: &Value) -> Result<Model> {
    let (tag, p) = untag(v, "model")?;
    match tag {
        "Linear" => Ok(Model::Linear(linear_from_value(p)?)),
        "Logistic" => Ok(Model::Logistic(linear_from_value(p)?)),
        "Tree" => Ok(Model::Tree(tree_from_value(p)?)),
        "Forest" => Ok(Model::Forest(RandomForest {
            trees: trees_from_value(get(p, "trees", "Forest")?)?,
        })),
        "Gbt" => Ok(Model::Gbt(GbtModel {
            trees: trees_from_value(get(p, "trees", "Gbt")?)?,
            learning_rate: as_f64(get(p, "learning_rate", "Gbt")?, "Gbt.learning_rate")?,
            base_score: as_f64(get(p, "base_score", "Gbt")?, "Gbt.base_score")?,
            sigmoid_output: as_bool(
                get(p, "sigmoid_output", "Gbt")?,
                "Gbt.sigmoid_output",
            )?,
        })),
        "NaiveBayes" => Ok(Model::NaiveBayes(GaussianNb {
            log_prior_ratio: as_f64(
                get(p, "log_prior_ratio", "NaiveBayes")?,
                "NaiveBayes.log_prior_ratio",
            )?,
            class0: pairs_from_value(get(p, "class0", "NaiveBayes")?)?,
            class1: pairs_from_value(get(p, "class1", "NaiveBayes")?)?,
        })),
        "Knn" => Ok(Model::Knn(KnnModel {
            k: as_usize(get(p, "k", "Knn")?, "Knn.k")?,
            points: matrix_from_value(get(p, "points", "Knn")?)?,
            targets: f64s_from(get(p, "targets", "Knn")?, "Knn.targets")?,
        })),
        other => Err(bad(&format!("unknown model kind '{other}'"))),
    }
}

fn linear_from_value(v: &Value) -> Result<LinearModel> {
    Ok(LinearModel {
        weights: f64s_from(get(v, "weights", "linear")?, "linear.weights")?,
        bias: as_f64(get(v, "bias", "linear")?, "linear.bias")?,
    })
}

fn tree_from_value(v: &Value) -> Result<DecisionTree> {
    let nodes = as_array(get(v, "nodes", "tree")?, "tree.nodes")?
        .iter()
        .map(node_from_value)
        .collect::<Result<Vec<_>>>()?;
    Ok(DecisionTree { nodes })
}

fn trees_from_value(v: &Value) -> Result<Vec<DecisionTree>> {
    as_array(v, "trees")?.iter().map(tree_from_value).collect()
}

fn node_from_value(v: &Value) -> Result<TreeNode> {
    let (tag, p) = untag(v, "node")?;
    match tag {
        "Split" => Ok(TreeNode::Split {
            feature: as_usize(get(p, "feature", "Split")?, "Split.feature")?,
            threshold: as_f64(get(p, "threshold", "Split")?, "Split.threshold")?,
            left: as_usize(get(p, "left", "Split")?, "Split.left")?,
            right: as_usize(get(p, "right", "Split")?, "Split.right")?,
        }),
        "Leaf" => Ok(TreeNode::Leaf {
            value: as_f64(get(p, "value", "Leaf")?, "Leaf.value")?,
        }),
        other => Err(bad(&format!("unknown tree node '{other}'"))),
    }
}

fn pairs_from_value(v: &Value) -> Result<Vec<(f64, f64)>> {
    as_array(v, "pairs")?
        .iter()
        .map(|pair| {
            let a = as_array(pair, "pair")?;
            if a.len() != 2 {
                return Err(bad("pair arity"));
            }
            Ok((as_f64(&a[0], "pair.0")?, as_f64(&a[1], "pair.1")?))
        })
        .collect()
}

fn matrix_from_value(v: &Value) -> Result<Matrix> {
    let rows = as_usize(get(v, "rows", "matrix")?, "matrix.rows")?;
    let cols = as_usize(get(v, "cols", "matrix")?, "matrix.cols")?;
    let data = f64s_from(get(v, "data", "matrix")?, "matrix.data")?;
    if data.len() != rows * cols {
        return Err(bad("matrix shape/data mismatch"));
    }
    Ok(Matrix::from_vec(rows, cols, data))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::featurize::ColumnPipeline;
    use crate::model::{LinearModel, Model};

    fn sample() -> Pipeline {
        Pipeline::new(
            vec![
                ColumnPipeline::numeric("a"),
                ColumnPipeline::one_hot("b", vec!["x".into(), "y".into()]),
            ],
            Model::Logistic(LinearModel::new(vec![1.0, 2.0, 3.0], -0.5)),
            "p",
        )
    }

    #[test]
    fn roundtrip_is_identity() {
        let p = sample();
        let bytes = to_bytes(&p).unwrap();
        let back = from_bytes(&bytes).unwrap();
        assert_eq!(p, back);
    }

    #[test]
    fn roundtrips_every_model_family() {
        use crate::model::{
            DecisionTree, GaussianNb, GbtModel, KnnModel, RandomForest, TreeNode,
        };
        let tree = DecisionTree {
            nodes: vec![
                TreeNode::Split {
                    feature: 0,
                    threshold: 1.5,
                    left: 1,
                    right: 2,
                },
                TreeNode::Leaf { value: -1.0 },
                TreeNode::Leaf { value: 2.5 },
            ],
        };
        let models = vec![
            Model::Linear(LinearModel::new(vec![0.25, -4.0], 1.0)),
            Model::Tree(tree.clone()),
            Model::Forest(RandomForest {
                trees: vec![tree.clone(), tree.clone()],
            }),
            Model::Gbt(GbtModel {
                trees: vec![tree],
                learning_rate: 0.1,
                base_score: 0.5,
                sigmoid_output: true,
            }),
            Model::NaiveBayes(GaussianNb {
                log_prior_ratio: 0.2,
                class0: vec![(0.0, 1.0), (2.0, 0.5)],
                class1: vec![(1.0, 1.0), (3.0, 0.25)],
            }),
            Model::Knn(KnnModel {
                k: 3,
                points: Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]),
                targets: vec![0.0, 1.0],
            }),
        ];
        for model in models {
            let p = Pipeline::new(
                vec![ColumnPipeline::numeric("a"), ColumnPipeline::numeric("b")],
                model,
                "out",
            );
            let back = from_bytes(&to_bytes(&p).unwrap()).unwrap();
            assert_eq!(p, back);
        }
    }

    #[test]
    fn rejects_garbage_and_wrong_format() {
        assert!(from_bytes(b"not json").is_err());
        let wrong = flock_json::json!({
            "format": "onnx", "version": 1,
            "pipeline": {"columns": [], "model": {"Linear": {"weights": [], "bias": 0.0}}, "output": "y"}
        });
        assert!(from_bytes(wrong.to_string().as_bytes()).is_err());
    }

    fn stump_pipeline(feature: usize, threshold: f64, right: usize) -> Pipeline {
        use crate::model::{DecisionTree, TreeNode};
        let nodes = vec![
            TreeNode::Split {
                feature,
                threshold,
                left: 1,
                right,
            },
            TreeNode::Leaf { value: 1.0 },
            TreeNode::Leaf { value: 2.0 },
        ];
        Pipeline::new(
            vec![ColumnPipeline::numeric("a")],
            Model::Tree(DecisionTree { nodes }),
            "out",
        )
    }

    #[test]
    fn numbers_json_cannot_spell_are_an_encode_error() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let err = to_bytes(&stump_pipeline(0, bad, 2)).unwrap_err();
            assert_eq!(
                err,
                MlError::Format(
                    "pipeline.model.Tree.nodes[0].Split.threshold is NaN or infinite, \
                     which FONNX cannot store"
                        .into()
                )
            );
        }
        let mut p = sample();
        p.columns[0].steps.push(NumericStep::Clip {
            lo: f64::NEG_INFINITY,
            hi: 1.0,
        });
        let err = to_bytes(&p).unwrap_err().to_string();
        assert!(err.contains("pipeline.columns[0].steps[0].Clip.lo"), "{err}");
        // -0.0 and the extremes are finite and round-trip bit for bit.
        for ok in [-0.0, f64::MAX, f64::MIN_POSITIVE] {
            let p = stump_pipeline(0, ok, 2);
            assert_eq!(from_bytes(&to_bytes(&p).unwrap()).unwrap(), p);
        }
    }

    #[test]
    fn malformed_trees_neither_encode_nor_decode() {
        for (p, why) in [
            (stump_pipeline(5, 0.5, 2), "feature 5 of 1"),
            (stump_pipeline(0, 0.5, 9), "child 9 of 3"),
            (stump_pipeline(0, 0.5, 0), "node 0 is reached twice"),
        ] {
            let err = to_bytes(&p).unwrap_err().to_string();
            assert!(err.contains(why), "{err}");
            // The same document written past the encoder's check.
            let mut doc = Map::new();
            doc.insert("format".to_string(), Value::from("fonnx"));
            doc.insert("version".to_string(), Value::from(FONNX_VERSION));
            doc.insert("pipeline".to_string(), pipeline_to_value(&p));
            let bytes = Value::Object(doc).to_string().into_bytes();
            let err = from_bytes(&bytes).unwrap_err().to_string();
            assert!(err.contains(why), "{err}");
        }
    }

    #[test]
    fn rejects_future_version() {
        let mut doc = flock_json::from_slice(
            &to_bytes(&sample()).unwrap(),
        )
        .unwrap();
        doc.as_object_mut()
            .unwrap()
            .insert("version".into(), flock_json::json!(999));
        assert!(from_bytes(doc.to_string().as_bytes()).is_err());
    }
}
