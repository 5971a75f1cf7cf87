//! A model version the catalog commits is the version PREDICT serves, or
//! PREDICT fails: no payload that cannot be decoded, or that decodes to
//! something that is not a tree over the pipeline's features, reaches the
//! catalog through `deploy_model`, `update_model` or `import_model` (each
//! returns the error and commits nothing), and a current version that does
//! not decode stops its model from scoring instead of leaving an older
//! version in its place.

use flock_core::{FlockDb, Lineage, ModelPackage, MODEL_KIND};
use flock_ml::{fonnx, ColumnPipeline, DecisionTree, Model, Pipeline, TreeNode};
use flock_sql::{DurabilityOptions, MemFs, Value};

/// One split on `x` at `threshold`: 1.0 on the left, 2.0 on the right.
fn split_on_x(threshold: f64) -> Pipeline {
    tree(vec![
        TreeNode::Split {
            feature: 0,
            threshold,
            left: 1,
            right: 2,
        },
        TreeNode::Leaf { value: 1.0 },
        TreeNode::Leaf { value: 2.0 },
    ])
}

fn tree(nodes: Vec<TreeNode>) -> Pipeline {
    Pipeline::new(
        vec![ColumnPipeline::numeric("x")],
        Model::Tree(DecisionTree { nodes }),
        "y",
    )
}

fn database() -> FlockDb {
    let db = FlockDb::new();
    db.execute("CREATE TABLE t (x DOUBLE)").unwrap();
    db.execute("INSERT INTO t VALUES (0.0)").unwrap();
    db
}

fn score(db: &FlockDb, model: &str) -> flock_sql::Result<Value> {
    let b = db.query(&format!("SELECT PREDICT({model}, x) FROM t"))?;
    Ok(b.column(0).get(0))
}

fn version(db: &FlockDb, model: &str) -> Option<u64> {
    db.registry().get(model).map(|m| m.version)
}

#[test]
fn an_update_json_cannot_spell_commits_nothing() {
    let db = database();
    let mut s = db.session("admin");
    s.deploy_model("m", &split_on_x(1.0), Lineage::default())
        .unwrap();
    assert_eq!(score(&db, "m").unwrap(), Value::Float(1.0));
    // Version 2 would send x = 0 right, to 2.0.
    let err = s
        .update_model("m", &split_on_x(f64::NEG_INFINITY), Lineage::default())
        .unwrap_err();
    assert!(err.to_string().contains("NaN or infinite"), "{err}");
    assert_eq!(version(&db, "m"), Some(1));
    assert_eq!(score(&db, "m").unwrap(), Value::Float(1.0));
    // The name still takes a version FONNX can store.
    assert_eq!(
        s.update_model("m", &split_on_x(-1.0), Lineage::default())
            .unwrap(),
        2
    );
    assert_eq!(score(&db, "m").unwrap(), Value::Float(2.0));
}

#[test]
fn a_deploy_json_cannot_spell_leaves_the_name_free() {
    let db = database();
    let mut s = db.session("admin");
    let err = s
        .deploy_model("n", &split_on_x(f64::NAN), Lineage::default())
        .unwrap_err();
    assert!(err.to_string().contains("NaN or infinite"), "{err}");
    assert!(score(&db, "n").is_err());
    s.deploy_model("n", &split_on_x(-1.0), Lineage::default())
        .unwrap();
    assert_eq!(score(&db, "n").unwrap(), Value::Float(2.0));
}

#[test]
fn an_undecodable_current_version_stops_scoring() {
    let db = database();
    db.session("admin")
        .deploy_model("m", &split_on_x(1.0), Lineage::default())
        .unwrap();
    assert_eq!(score(&db, "m").unwrap(), Value::Float(1.0));
    // A plain engine session writes bytes no FONNX reader accepts.
    let mut raw = db.database().session("admin");
    let v = raw
        .update_extension_object(
            MODEL_KIND,
            "m",
            b"not fonnx".to_vec(),
            flock_json::Value::Null,
        )
        .unwrap();
    assert_eq!(v, 2);
    assert_eq!(version(&db, "m"), None);
    assert!(
        score(&db, "m").is_err(),
        "version 1 must not score for version 2"
    );
}

/// A split on feature 5 of a one-column pipeline.
fn split_past_the_width() -> Pipeline {
    let mut p = split_on_x(0.5);
    if let Model::Tree(t) = &mut p.model {
        t.nodes[0] = TreeNode::Split {
            feature: 5,
            threshold: 0.5,
            left: 1,
            right: 2,
        };
    }
    p
}

/// `split_on_x` with a fourth node no split reaches.
fn orphan_node() -> Pipeline {
    let Model::Tree(mut t) = split_on_x(0.5).model else {
        unreachable!()
    };
    t.nodes.push(TreeNode::Leaf { value: 3.0 });
    tree(t.nodes)
}

#[test]
fn a_deploy_that_is_not_a_tree_leaves_the_name_free() {
    for (p, why) in [
        (split_past_the_width(), "splits on feature 5 of 1"),
        (orphan_node(), "node 3 is unreachable"),
    ] {
        let db = database();
        let mut s = db.session("admin");
        let err = s.deploy_model("n", &p, Lineage::default()).unwrap_err();
        assert!(err.to_string().contains(why), "{err}");
        assert_eq!(version(&db, "n"), None);
        assert!(score(&db, "n").is_err());
        s.deploy_model("n", &split_on_x(-1.0), Lineage::default())
            .unwrap();
        assert_eq!(score(&db, "n").unwrap(), Value::Float(2.0));
    }
}

#[test]
fn an_update_that_is_not_a_tree_commits_nothing() {
    for (p, why) in [
        (split_past_the_width(), "splits on feature 5 of 1"),
        (orphan_node(), "node 3 is unreachable"),
    ] {
        let db = database();
        let mut s = db.session("admin");
        s.deploy_model("m", &split_on_x(1.0), Lineage::default())
            .unwrap();
        let err = s.update_model("m", &p, Lineage::default()).unwrap_err();
        assert!(err.to_string().contains(why), "{err}");
        assert_eq!(version(&db, "m"), Some(1));
        assert_eq!(score(&db, "m").unwrap(), Value::Float(1.0));
        assert_eq!(
            s.update_model("m", &split_on_x(-1.0), Lineage::default())
                .unwrap(),
            2
        );
        assert_eq!(score(&db, "m").unwrap(), Value::Float(2.0));
    }
}

/// The FONNX bytes of `pipeline` with its one `from` spelled `to`: a
/// payload the encoder, which refuses malformed trees, cannot write.
fn edited_payload(pipeline: &Pipeline, from: &str, to: &str) -> Vec<u8> {
    let text = String::from_utf8(fonnx::to_bytes(pipeline).unwrap()).unwrap();
    assert_eq!(text.matches(from).count(), 1, "{from} in {text}");
    text.replace(from, to).into_bytes()
}

/// `import_model` of `payload` fails, and no model `bad` exists.
fn import_is_refused(payload: Vec<u8>, why: &str) {
    let db = database();
    let package = ModelPackage {
        name: "bad".into(),
        version: 1,
        payload,
        metadata: flock_json::Value::Null,
    };
    let err = db.session("admin").import_model(&package).unwrap_err();
    assert!(err.to_string().contains(why), "{err}");
    assert_eq!(version(&db, "bad"), None);
    assert!(score(&db, "bad").is_err());
}

#[test]
fn import_refuses_a_split_on_a_feature_the_pipeline_lacks() {
    let payload = edited_payload(&split_on_x(0.5), "\"feature\":0", "\"feature\":5");
    import_is_refused(payload, "splits on feature 5 of 1");
}

#[test]
fn import_refuses_a_child_index_out_of_range() {
    let payload = edited_payload(&split_on_x(0.5), "\"right\":2", "\"right\":9");
    import_is_refused(payload, "child 9 of 3 nodes");
}

#[test]
fn import_refuses_a_child_that_points_back_to_an_ancestor() {
    let p = tree(vec![
        TreeNode::Split {
            feature: 0,
            threshold: 0.5,
            left: 1,
            right: 2,
        },
        TreeNode::Split {
            feature: 0,
            threshold: 0.25,
            left: 3,
            right: 4,
        },
        TreeNode::Leaf { value: 2.0 },
        TreeNode::Leaf { value: 1.0 },
        TreeNode::Leaf { value: 3.0 },
    ]);
    // Node 1's right child becomes the root.
    import_is_refused(
        edited_payload(&p, "\"right\":4", "\"right\":0"),
        "node 0 is reached twice",
    );
}

fn undecodable_models(db: &FlockDb) -> Value {
    let b = db
        .query("SELECT value FROM flock_metrics WHERE metric = 'registry_undecodable_models'")
        .unwrap();
    assert_eq!(b.num_rows(), 1);
    b.column(0).get(0)
}

#[test]
fn an_undecodable_payload_is_counted_not_lost_on_reopen() {
    let mem = MemFs::new();
    let db = FlockDb::open_with_fs(mem.clone(), DurabilityOptions::default()).unwrap();
    db.execute("CREATE TABLE t (x DOUBLE)").unwrap();
    db.execute("INSERT INTO t VALUES (0.0)").unwrap();
    db.session("admin")
        .deploy_model("good", &split_on_x(1.0), Lineage::default())
        .unwrap();
    // A plain engine session commits bytes no FONNX reader accepts.
    db.database()
        .session("admin")
        .create_extension_object(
            MODEL_KIND,
            "bad",
            b"not fonnx".to_vec(),
            flock_json::Value::Null,
        )
        .unwrap();
    drop(db);

    let db = FlockDb::open_with_fs(mem.crash_image(), DurabilityOptions::default()).unwrap();
    assert_eq!(undecodable_models(&db), Value::Int(1));
    let err = score(&db, "bad").unwrap_err();
    assert!(err.to_string().contains("not deployed"), "{err}");
    assert_eq!(score(&db, "good").unwrap(), Value::Float(1.0));
    // A decodable version brings the model back and the count down.
    db.session("admin")
        .update_model("bad", &split_on_x(-1.0), Lineage::default())
        .unwrap();
    assert_eq!(undecodable_models(&db), Value::Int(0));
    assert_eq!(score(&db, "bad").unwrap(), Value::Float(2.0));
}
