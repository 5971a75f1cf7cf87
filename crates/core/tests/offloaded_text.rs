//! PREDICT over a table whose text input lives in disk parts. A part scan
//! decodes a dictionary-encoded text block into a dictionary column (codes
//! into a shared list of strings), and the provider builds the model's
//! string input from it one `&str` per row. The scores must be the bits
//! the same rows score resident, under every `predict_strategy`, with the
//! cross-optimizer on and off.

use flock_core::{FlockDb, Lineage, XOptConfig};
use flock_ml::{ColumnPipeline, DecisionTree, GbtModel, Model, Pipeline, TreeNode};
use flock_rng::rngs::StdRng;
use flock_rng::{Rng, SeedableRng};
use flock_sql::{ColumnVector, DataType, DurabilityOptions, MemFs, RecordBatch, Schema, Value};
use std::sync::Arc;

const ROWS: usize = 6_000;

/// 40 stumps over `age` and the one-hot `city`: too large for the
/// cross-optimizer to inline, so PREDICT stays a provider call.
fn pipeline() -> Pipeline {
    let stump = |feature, threshold, lo, hi| DecisionTree {
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
    };
    let trees = (0..40)
        .map(|i| match i % 3 {
            0 => stump(0, 20.0 + i as f64, -0.25, 0.5),
            1 => stump(1, 0.5, 0.0, 0.25),  // city = nyc
            _ => stump(2, 0.5, 0.25, -0.5), // city = sf
        })
        .collect();
    Pipeline::new(
        vec![
            ColumnPipeline::numeric("age"),
            ColumnPipeline::one_hot("city", vec!["nyc".into(), "sf".into()]),
        ],
        Model::Gbt(GbtModel {
            trees,
            learning_rate: 0.5,
            base_score: 0.0,
            sigmoid_output: false,
        }),
        "score",
    )
}

/// Create table `name` and append the generated rows, NULL and empty
/// cities among them.
fn load(db: &FlockDb, name: &str) {
    db.execute(&format!(
        "CREATE TABLE {name} (id INT, age DOUBLE, city VARCHAR)"
    ))
    .unwrap();
    let mut rng = StdRng::seed_from_u64(11);
    let age: Vec<Value> = (0..ROWS)
        .map(|_| Value::Float(rng.gen_range(18i64..80) as f64))
        .collect();
    let city: Vec<Value> = (0..ROWS)
        .map(|_| match rng.gen_range(0..10u32) {
            0 => Value::Null,
            1 => Value::Text(String::new()),
            2..=4 => Value::Text("nyc".into()),
            5..=6 => Value::Text("sf".into()),
            _ => Value::Text("austin".into()),
        })
        .collect();
    let schema = Arc::new(Schema::from_pairs(&[
        ("id", DataType::Int),
        ("age", DataType::Float),
        ("city", DataType::Text),
    ]));
    let batch = RecordBatch::new(
        schema,
        vec![
            ColumnVector::from_i64(0..ROWS as i64),
            ColumnVector::from_values(DataType::Float, &age).unwrap(),
            ColumnVector::from_values(DataType::Text, &city).unwrap(),
        ],
    )
    .unwrap();
    db.session("admin").append_batch(name, batch).unwrap();
}

/// Every cell of a result, floats by their bits.
fn digest(batch: &RecordBatch) -> Vec<String> {
    (0..batch.num_rows())
        .map(|r| {
            let cells: Vec<String> = batch
                .row(r)
                .iter()
                .map(|v| match v {
                    Value::Float(f) => format!("{:#x}", f.to_bits()),
                    other => format!("{other:?}"),
                })
                .collect();
            cells.join("|")
        })
        .collect()
}

#[test]
fn predict_over_offloaded_text_scores_the_resident_bits() {
    let db = FlockDb::open_with_fs(MemFs::new(), DurabilityOptions::default()).unwrap();
    load(&db, "resident");
    // 1 024-row parts: 3 columns x 8 bytes x 1 024 rows is half the budget.
    db.database().set_table_memory_budget(3 * 8 * 2 * 1024);
    load(&db, "offloaded");
    db.session("admin")
        .deploy_model("m", &pipeline(), Lineage::default())
        .unwrap();
    let scan = db
        .database()
        .catalog()
        .scan_table("offloaded", None)
        .unwrap();
    let parts = db
        .database()
        .catalog()
        .table("offloaded")
        .unwrap()
        .current()
        .parts
        .len();
    assert!(parts > 1, "{parts} parts");
    let first = scan.chunks().next().unwrap().unwrap();
    assert!(first.column(2).is_dictionary(), "city decodes to codes");

    let q = |t: &str| format!("SELECT id, PREDICT(m, age, city) AS s FROM {t} ORDER BY id");
    for xopt in [XOptConfig::disabled(), XOptConfig::default()] {
        db.set_xopt_config(xopt);
        for strategy in ["auto", "row"] {
            let mut s = db.session("admin");
            s.execute(&format!("SET predict_strategy = '{strategy}'"))
                .unwrap();
            let want = digest(&s.query(&q("resident")).unwrap());
            assert_eq!(want.len(), ROWS);
            assert_eq!(
                digest(&s.query(&q("offloaded")).unwrap()),
                want,
                "{strategy}"
            );
        }
    }
}
