//! SQL-level differential test of the PREDICT hot path: the flockbench
//! Q1/Q2/Q3 shapes (filtered AVG, full AVG, thresholded top-k by score)
//! over a table with NULL `city`, NaN and NULL `age`, and scores that tie
//! in droves at the LIMIT boundary must produce the same bits whichever
//! way they run — serial or morsel-parallel, cross-optimizer on or off,
//! and under every `predict_strategy`. The oracle is the serial engine
//! with the cross-optimizer off.
//!
//! Two models are deployed, one for each compiled tree kernel: `m` fits
//! the leaf-mask kernel and `wide`, with 300 distinct thresholds on
//! `income`, keeps the flattened-node walk. Every query runs against both.
//!
//! The models' leaves are multiples of 1/4 and their output is not
//! squashed, so every score is a small multiple of 1/8 and sums of them
//! are exact in f64: `AVG` cannot differ by association between the serial
//! and the per-morsel path, and "equal" can mean bit-equal.

use flock_core::{FlockDb, Lineage, XOptConfig};
use flock_corpus::tabular::TabularDataset;
use flock_ml::{
    ColumnPipeline, CompiledPipeline, DecisionTree, GbtModel, Model, Pipeline, TreeNode,
};
use flock_rng::rngs::StdRng;
use flock_rng::{Rng, SeedableRng};
use flock_sql::exec::ExecOptions;
use flock_sql::{ColumnVector, DataType, RecordBatch, Schema, Value};
use std::sync::Arc;

const ROWS: usize = 12_000;
const ARGS: &str = "age, income, city";

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

fn quarter(k: i64) -> f64 {
    k as f64 * 0.25
}

/// 60 stumps (180 nodes: too large for the cross-optimizer to inline, so
/// PREDICT stays a provider call) over age, income and the one-hot city.
fn pipeline() -> Pipeline {
    let trees = (0..60)
        .map(|i| match i % 4 {
            0 => stump(0, 20.0 + i as f64, quarter(-1), quarter(2)),
            1 => stump(1, 30_000.0 + 1_000.0 * i as f64, quarter(1), quarter(-1)),
            2 => stump(2, 0.5, quarter(0), quarter(1)), // city = nyc
            _ => stump(3, 0.5, quarter(1), quarter(-2)), // city = sf
        })
        .collect();
    gbt(trees)
}

/// `pipeline()`'s stumps plus 300 on `income` with distinct thresholds,
/// all inside the column's range and each between two different leaves
/// (so no compression or specialisation can drop below 256 of them): too
/// many bins for the leaf-mask kernel.
fn wide_pipeline() -> Pipeline {
    let Model::Gbt(mut g) = pipeline().model else {
        unreachable!()
    };
    g.trees.extend((0..300).map(|i| {
        let threshold = 20_150.0 + 300.0 * i as f64;
        stump(1, threshold, quarter(i % 3 - 1), quarter(2 + i % 2))
    }));
    gbt(g.trees)
}

fn gbt(trees: Vec<DecisionTree>) -> Pipeline {
    Pipeline::new(
        vec![
            ColumnPipeline::numeric("age"),
            ColumnPipeline::numeric("income"),
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

fn database() -> FlockDb {
    let db = FlockDb::new();
    db.execute("CREATE TABLE customers (id INT, age DOUBLE, income DOUBLE, city VARCHAR)")
        .unwrap();
    let mut rng = StdRng::seed_from_u64(7);
    let mut age = Vec::with_capacity(ROWS);
    let mut income = Vec::with_capacity(ROWS);
    let mut city = Vec::with_capacity(ROWS);
    for _ in 0..ROWS {
        age.push(match rng.gen_range(0..20u32) {
            0 => Value::Float(f64::NAN),
            1 => Value::Null,
            _ => Value::Float(rng.gen_range(18i64..80) as f64),
        });
        income.push(Value::Float(rng.gen_range(20i64..120) as f64 * 1_000.0));
        city.push(match rng.gen_range(0..10u32) {
            0 => Value::Null,
            1 => Value::Text(String::new()),
            2..=4 => Value::Text("nyc".into()),
            5..=6 => Value::Text("sf".into()),
            _ => Value::Text("austin".into()),
        });
    }
    let schema = Arc::new(Schema::from_pairs(&[
        ("id", DataType::Int),
        ("age", DataType::Float),
        ("income", DataType::Float),
        ("city", DataType::Text),
    ]));
    let batch = RecordBatch::new(
        schema,
        vec![
            ColumnVector::from_i64(0..ROWS as i64),
            ColumnVector::from_values(DataType::Float, &age).unwrap(),
            ColumnVector::from_values(DataType::Float, &income).unwrap(),
            ColumnVector::from_values(DataType::Text, &city).unwrap(),
        ],
    )
    .unwrap();
    let mut admin = db.session("admin");
    admin.append_batch("customers", batch).unwrap();
    admin
        .deploy_model("m", &pipeline(), Lineage::default())
        .unwrap();
    admin
        .deploy_model("wide", &wide_pipeline(), Lineage::default())
        .unwrap();
    db
}

const MODELS: [&str; 2] = ["m", "wide"];

fn queries(model: &str) -> Vec<String> {
    let p = format!("PREDICT({model}, {ARGS})");
    vec![
        // Q1, Q2: aggregates over a filtered and an unfiltered scan
        format!("SELECT AVG({p}), COUNT(*) FROM customers WHERE city = 'nyc' AND age >= 30.0"),
        format!("SELECT AVG({p}), MIN({p}), MAX({p}) FROM customers"),
        // Q3: WHERE and SELECT list share the score; ties at the boundary
        format!("SELECT id, {p} AS s FROM customers WHERE {p} > 0.5 ORDER BY s DESC LIMIT 100"),
        format!(
            "SELECT id, {p} AS s FROM customers WHERE {p} > 0.5 ORDER BY s DESC LIMIT 50 OFFSET 25"
        ),
        format!("SELECT id, {p} AS s FROM customers WHERE {p} <= 0.5 AND city <> 'sf' ORDER BY s LIMIT 7"),
        format!("SELECT id, {p} AS s, city FROM customers WHERE age < 40.0 ORDER BY s DESC, city, id LIMIT 40"),
        // the score twice in the list, never in WHERE; LIMIT past the end
        format!("SELECT id, {p} AS s, {p} * 2 AS d FROM customers WHERE age > 77.0 ORDER BY s LIMIT 5000"),
        "SELECT id FROM customers WHERE city IS NULL ORDER BY age DESC, id LIMIT 0".to_string(),
    ]
}

/// Every cell of a result, floats by their bits.
fn digest(batch: &RecordBatch) -> Vec<String> {
    (0..batch.num_rows())
        .map(|r| {
            batch
                .row(r)
                .iter()
                .map(|v| match v {
                    Value::Float(f) => format!("{:#x}", f.to_bits()),
                    other => format!("{other:?}"),
                })
                .collect::<Vec<_>>()
                .join("|")
        })
        .collect()
}

fn configure(db: &FlockDb, parallel: bool, xopt: bool) {
    db.set_xopt_config(if xopt {
        XOptConfig::default()
    } else {
        XOptConfig::disabled()
    });
    // 512-row morsels: two dozen of them, and top-k ties straddle many.
    db.database().set_exec_options(ExecOptions {
        morsel_rows: 512,
        ..ExecOptions::with_threads(if parallel { 4 } else { 1 }, 1)
    });
}

#[test]
fn predict_queries_agree_across_every_execution_path() {
    let db = database();
    let qs: Vec<String> = MODELS.iter().flat_map(|m| queries(m)).collect();
    configure(&db, false, false);
    let oracle: Vec<Vec<String>> = qs
        .iter()
        .map(|q| digest(&db.query(q).unwrap_or_else(|e| panic!("{q}: {e}"))))
        .collect();
    for (model, oracle) in MODELS.iter().zip(oracle.chunks(qs.len() / MODELS.len())) {
        assert_eq!(
            oracle[2].len(),
            100,
            "{model}: the threshold must leave more than k rows"
        );
        // The tie-break only matters if the k-th score also occurs past k.
        let score_of = |row: &String| row.split('|').nth(1).unwrap().to_string();
        let boundary = score_of(oracle[2].last().unwrap());
        let tied_inside = oracle[2].iter().filter(|r| score_of(r) == boundary).count();
        let all = digest(
            &db.query(&format!(
                "SELECT id, PREDICT({model}, {ARGS}) FROM customers"
            ))
            .unwrap(),
        );
        let tied = all.iter().filter(|r| score_of(r) == boundary).count();
        assert!(
            tied > tied_inside,
            "{model}: {tied} rows tie at the boundary, {tied_inside} inside"
        );
        assert!(oracle[7].is_empty());
    }

    for parallel in [false, true] {
        for xopt in [false, true] {
            configure(&db, parallel, xopt);
            for strategy in ["auto", "row"] {
                let mut s = db.session("admin");
                s.execute(&format!("SET predict_strategy = '{strategy}'"))
                    .unwrap();
                for (q, want) in qs.iter().zip(&oracle) {
                    let got = digest(&s.query(q).unwrap_or_else(|e| panic!("{q}: {e}")));
                    assert_eq!(
                        &got, want,
                        "parallel={parallel} xopt={xopt} strategy={strategy}: {q}"
                    );
                }
            }
        }
    }
    // Each model scored through its own kernel, base and variants alike:
    // the variants the cross-optimizer rewrites each query to keep their
    // base model's kernel.
    let registry = db.registry();
    let leaf_mask = |name: &str| {
        let model = registry
            .get(name)
            .unwrap_or_else(|| panic!("{name} is not live"));
        registry.kernel(&model).leaf_masks()
    };
    assert!(leaf_mask("m") && !leaf_mask("wide"));
    configure(&db, false, true);
    let mut variants = 0;
    for q in &qs {
        let b = db.query(&format!("EXPLAIN {q}")).unwrap();
        let plan: String = (0..b.num_rows())
            .map(|r| b.column(0).get(r).to_string())
            .collect();
        // Output names keep the query's text; the plan's calls name the
        // variant they score.
        for call in plan.split("PREDICT(").skip(1) {
            let name = call.split(',').next().unwrap();
            if let Some((base, _)) = name.split_once('#') {
                assert_eq!(leaf_mask(name), base == "m", "{name}");
                variants += 1;
            }
        }
    }
    // Every query but the last (which scores nothing) takes a variant.
    assert!(variants >= qs.len() - 2, "{variants} rewritten PREDICTs");
}

/// The benchmark's two model shapes keep their kernels: predict_scan's
/// trained 40×6 GBT takes the leaf-mask kernel, serve_point's 64 full
/// depth-6 trees with random thresholds on two features the flattened
/// walk. A model change that silently drops the fast path fails here.
#[test]
fn benchmark_model_shapes_pin_their_kernels() {
    let scan = TabularDataset::generate(8_000, 42).train_pipeline(40, 6);
    assert!(
        CompiledPipeline::compile(&scan).leaf_masks(),
        "predict_scan's model left the leaf-mask kernel"
    );

    let mut rng = StdRng::seed_from_u64(1);
    fn grow(rng: &mut StdRng, depth: usize, nodes: &mut Vec<TreeNode>) -> usize {
        let at = nodes.len();
        nodes.push(TreeNode::Leaf {
            value: rng.gen_range(-1.0..1.0),
        });
        if depth > 0 {
            let feature = rng.gen_range(0usize..2);
            let threshold = if feature == 0 {
                rng.gen_range(1_000.0f64..50_000.0)
            } else {
                rng.gen_range(0.01f64..0.25)
            };
            let left = grow(rng, depth - 1, nodes);
            let right = grow(rng, depth - 1, nodes);
            nodes[at] = TreeNode::Split {
                feature,
                threshold,
                left,
                right,
            };
        }
        at
    }
    let trees = (0..64)
        .map(|_| {
            let mut nodes = Vec::new();
            grow(&mut rng, 6, &mut nodes);
            DecisionTree { nodes }
        })
        .collect();
    let point = Pipeline::new(
        vec![
            ColumnPipeline::numeric("amount"),
            ColumnPipeline::numeric("rate"),
        ],
        Model::Gbt(GbtModel {
            trees,
            learning_rate: 0.1,
            base_score: 0.2,
            sigmoid_output: true,
        }),
        "risk",
    );
    assert!(
        !CompiledPipeline::compile(&point).leaf_masks(),
        "serve_point's model must keep the flattened walk"
    );
}

fn explain_analyze(db: &FlockDb, q: &str) -> String {
    let b = db.query(&format!("EXPLAIN ANALYZE {q}")).unwrap();
    (0..b.num_rows())
        .map(|r| b.column(0).get(r).to_string())
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn explain_analyze_shows_the_shared_score_and_the_top_k() {
    let db = database();
    let qs = queries("m");
    for xopt in [false, true] {
        configure(&db, true, xopt);
        let plan = explain_analyze(&db, &qs[2]);
        assert!(plan.contains("scored once, 2 refs"), "xopt={xopt}:\n{plan}");
        assert!(plan.contains("Sort [TopK(k=100)"), "xopt={xopt}:\n{plan}");
        // OFFSET widens the selection; the Limit above drops the prefix.
        assert!(explain_analyze(&db, &qs[3]).contains("TopK(k=75)"));
        let plan = explain_analyze(&db, &qs[6]);
        assert!(plan.contains("scored once, 2 refs"), "xopt={xopt}:\n{plan}");
    }
    // One scoring pass: the whole table once, not once per mention.
    configure(&db, true, false);
    let scored = &db.provider().stats.rows_scored;
    let before = scored.load(std::sync::atomic::Ordering::Relaxed);
    db.query(&qs[2]).unwrap();
    assert_eq!(
        scored.load(std::sync::atomic::Ordering::Relaxed) - before,
        ROWS as u64
    );
}

#[test]
fn flock_metrics_counts_calls_per_scorer() {
    let db = database();
    configure(&db, false, false);
    let metric = |name: &str| -> Option<i64> {
        let b = db
            .query(&format!(
                "SELECT value FROM flock_metrics WHERE metric = '{name}'"
            ))
            .unwrap();
        (b.num_rows() == 1).then(|| match b.column(0).get(0) {
            Value::Int(v) => v,
            other => panic!("{name} = {other:?}"),
        })
    };
    let q = format!("SELECT SUM(PREDICT(m, {ARGS})) FROM customers");
    let mut s = db.session("admin");
    // One call per statement here (a serial aggregate over one batch),
    // except the row strategy, which calls the interpreter once per row.
    for (strategy, counter, calls) in [
        ("auto", "predict_vectorized_calls", 1),
        ("row", "predict_row_calls", ROWS as i64),
    ] {
        let before = metric(counter).unwrap_or_else(|| panic!("{counter} is not exported"));
        let rows_before = metric("predict_rows_scored").unwrap();
        s.execute(&format!("SET predict_strategy = '{strategy}'"))
            .unwrap();
        s.query(&q).unwrap();
        assert_eq!(metric(counter).unwrap(), before + calls, "{strategy}");
        assert_eq!(
            metric("predict_rows_scored").unwrap(),
            rows_before + ROWS as i64
        );
    }
    // One call counter per scorer, and no other.
    let calls = db
        .query(
            "SELECT metric FROM flock_metrics WHERE metric LIKE 'predict_%_calls' \
             ORDER BY metric",
        )
        .unwrap();
    let calls: Vec<String> = (0..calls.num_rows())
        .map(|r| calls.column(0).get(r).to_string())
        .collect();
    assert_eq!(calls, ["predict_row_calls", "predict_vectorized_calls"]);
}
