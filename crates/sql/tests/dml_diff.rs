//! Seeded differential sweep over UPDATE and DELETE. The engine rewrites
//! only the parts holding a changed row and logs a row delta; the
//! reference here is the row-at-a-time algorithm over `Vec<Vec<Value>>`
//! (evaluate the WHERE clause row by row, then every assignment on the old
//! row, check NOT NULL, rebuild the table with the INSERT casts).
//!
//! Each seed opens a durable database on an in-memory file system with a
//! small random memory budget, so that the table is mostly disk parts, and
//! runs a random sequence of INSERT, UPDATE and DELETE — equality, range
//! and no WHERE; assignments that read other columns, produce NULLs,
//! violate NOT NULL or change type; single-row, whole-part and whole-table
//! deletes — plus BEGIN … COMMIT and BEGIN … ROLLBACK blocks. Every cell is
//! compared after each statement, after `merge_now`, after a checkpoint
//! and clean reopen, and after reopening a crash image (which replays the
//! logged row deltas over the checkpointed parts).
//!
//! Deterministic via flock-rng; seed count defaults to 64 and is
//! overridable with `FLOCK_DIFF_SEEDS` (CI sweeps wider).

use flock_rng::{rngs::StdRng, test_seeds, Rng, SeedableRng};
use flock_sql::ast::{Expr, Statement};
use flock_sql::exec::{EvalContext, PhysExpr};
use flock_sql::parser::parse_statement;
use flock_sql::udf::NoInference;
use flock_sql::{Database, DurabilityOptions, MemFs, RecordBatch, Schema, SqlError, Value};
use std::sync::Arc;

const DDL: &str = "CREATE TABLE t (k INT NOT NULL, a INT, v DOUBLE, s VARCHAR)";

/// The reference table: its schema and its rows in position order.
#[derive(Clone)]
struct Model {
    schema: Arc<Schema>,
    rows: Vec<Vec<Value>>,
}

fn eval_ctx() -> EvalContext {
    EvalContext::new(Arc::new(NoInference), "admin", 1)
}

fn compile(e: &Expr, schema: &Schema) -> flock_sql::Result<PhysExpr> {
    PhysExpr::compile(e, schema, &NoInference)
}

impl Model {
    fn new(db: &Database) -> Model {
        let schema = db.catalog().table("t").unwrap().schema().clone();
        Model {
            schema,
            rows: Vec::new(),
        }
    }

    fn batch(&self) -> RecordBatch {
        RecordBatch::from_rows(self.schema.clone(), &self.rows).unwrap()
    }

    /// Apply one statement row by row; the result is the affected-row
    /// count, or the statement's failure (the model is then unchanged).
    fn apply(&mut self, sql: &str) -> flock_sql::Result<usize> {
        let schema = self.schema.clone();
        let ctx = eval_ctx();
        let data = self.batch();
        let selected = |pred: Option<&PhysExpr>, i: usize| -> flock_sql::Result<bool> {
            Ok(match pred {
                Some(p) => p.eval_row(&data, i, &ctx)?.as_bool() == Some(true),
                None => true,
            })
        };
        match parse_statement(sql)? {
            Statement::Insert { .. } => {
                let rows = parse_values(&schema, sql);
                let n = rows.len();
                self.rows.extend(rows);
                Ok(n)
            }
            Statement::Update {
                assignments,
                selection,
                ..
            } => {
                let pred = selection
                    .as_ref()
                    .map(|p| compile(p, &schema))
                    .transpose()?;
                let compiled: Vec<(usize, PhysExpr)> = assignments
                    .iter()
                    .map(|(c, e)| Ok((schema.index_of(c).unwrap(), compile(e, &schema)?)))
                    .collect::<flock_sql::Result<_>>()?;
                let mut rows = self.rows.clone();
                let mut updated = 0;
                for (i, row) in rows.iter_mut().enumerate() {
                    if !selected(pred.as_ref(), i)? {
                        continue;
                    }
                    updated += 1;
                    for (idx, e) in &compiled {
                        let v = e.eval_row(&data, i, &ctx)?;
                        if v.is_null() && !schema.column(*idx).nullable {
                            return Err(SqlError::Constraint("NOT NULL".into()));
                        }
                        row[*idx] = v;
                    }
                }
                // the INSERT casts, as the table stores the values
                let rebuilt = RecordBatch::from_rows(schema.clone(), &rows)?;
                self.rows = (0..rebuilt.num_rows()).map(|i| rebuilt.row(i)).collect();
                Ok(updated)
            }
            Statement::Delete { selection, .. } => {
                let pred = selection
                    .as_ref()
                    .map(|p| compile(p, &schema))
                    .transpose()?;
                let mut kept = Vec::new();
                for (i, row) in self.rows.iter().enumerate() {
                    if !selected(pred.as_ref(), i)? {
                        kept.push(row.clone());
                    }
                }
                let deleted = self.rows.len() - kept.len();
                self.rows = kept;
                Ok(deleted)
            }
            other => panic!("not a DML statement: {other:?}"),
        }
    }
}

/// The rows of an `INSERT INTO t VALUES …` this file generated.
fn parse_values(schema: &Arc<Schema>, sql: &str) -> Vec<Vec<Value>> {
    let Statement::Insert {
        source: flock_sql::ast::InsertSource::Values(rows),
        ..
    } = parse_statement(sql).unwrap()
    else {
        panic!("{sql}")
    };
    let empty = RecordBatch::empty(Arc::new(Schema::default()));
    let rows: Vec<Vec<Value>> = rows
        .iter()
        .map(|r| {
            r.iter()
                .map(|e| {
                    let e = flock_sql::optimizer::fold_expr(e.clone()).unwrap();
                    compile(&e, &Schema::default())
                        .unwrap()
                        .eval_row(&empty, 0, &eval_ctx())
                        .unwrap()
                })
                .collect()
        })
        .collect();
    let b = RecordBatch::from_rows(schema.clone(), &rows).unwrap();
    (0..b.num_rows()).map(|i| b.row(i)).collect()
}

/// Every cell of the current version, read through its chunk source in
/// position order (no executor in between).
fn cells(db: &Database) -> Vec<String> {
    let b = db
        .catalog()
        .scan_table("t", None)
        .unwrap()
        .collect()
        .unwrap();
    (0..b.num_rows())
        .map(|i| format!("{:?}", b.row(i)))
        .collect()
}

fn model_cells(m: &Model) -> Vec<String> {
    m.rows.iter().map(|r| format!("{r:?}")).collect()
}

struct Gen {
    rng: StdRng,
    next_k: i64,
}

impl Gen {
    fn key(&mut self) -> i64 {
        self.rng.gen_range(0..self.next_k.max(1) + 3)
    }

    fn insert(&mut self) -> String {
        let n = self.rng.gen_range(1..40usize);
        let rows: Vec<String> = (0..n)
            .map(|_| {
                // keys mostly ascending, with repeats: ranges of keys are
                // runs of positions, often whole parts
                self.next_k += self.rng.gen_range(0..3i64);
                let a = match self.rng.gen_range(0..6u32) {
                    0 => "NULL".to_string(),
                    _ => self.rng.gen_range(-5i64..20).to_string(),
                };
                let v = match self.rng.gen_range(0..6u32) {
                    0 => "NULL".to_string(),
                    _ => format!("{:?}", self.rng.gen_range(-20i64..40) as f64 * 0.5),
                };
                let s = match self.rng.gen_range(0..5u32) {
                    0 => "NULL".to_string(),
                    i => format!("'s{i}'"),
                };
                format!("({}, {a}, {v}, {s})", self.next_k)
            })
            .collect();
        format!("INSERT INTO t VALUES {}", rows.join(", "))
    }

    /// An UPDATE; `safe` ones cannot fail.
    fn update(&mut self, safe: bool) -> String {
        let (c, lo) = (self.key(), self.key());
        let hi = lo + self.rng.gen_range(0..20i64);
        let f = self.rng.gen_range(-10i64..20) as f64 * 0.5;
        let kind = self.rng.gen_range(0..if safe { 8u32 } else { 10 });
        match kind {
            0 => format!("UPDATE t SET v = v + 1.5 WHERE k = {c}"),
            1 => format!("UPDATE t SET a = a + 1 WHERE k BETWEEN {lo} AND {hi}"),
            2 => format!("UPDATE t SET s = 'u{c}'"),
            3 => format!("UPDATE t SET v = a * 2, a = k WHERE k > {c}"),
            4 => format!("UPDATE t SET a = NULL, s = NULL WHERE a < {}", c % 7),
            5 => "UPDATE t SET v = v + a WHERE s = 's1'".to_string(),
            6 => format!("UPDATE t SET k = k + 1000 WHERE v > {f:?}"),
            7 => format!("UPDATE t SET v = k WHERE k <= {c} AND k >= {lo}"),
            8 => format!("UPDATE t SET k = NULL WHERE k = {c}"),
            _ => format!("UPDATE t SET a = 'x{c}' WHERE k >= {lo} AND k <= {hi}"),
        }
    }

    fn delete(&mut self) -> String {
        let (c, lo) = (self.key(), self.key());
        let hi = lo + self.rng.gen_range(0..30i64);
        let f = self.rng.gen_range(-10i64..20) as f64 * 0.5;
        match self.rng.gen_range(0..20u32) {
            0..=5 => format!("DELETE FROM t WHERE k = {c}"),
            6..=11 => format!("DELETE FROM t WHERE k BETWEEN {lo} AND {hi}"),
            12..=14 => "DELETE FROM t WHERE a IS NULL".to_string(),
            15..=18 => format!("DELETE FROM t WHERE v > {f:?} AND k < {c}"),
            _ => "DELETE FROM t".to_string(),
        }
    }

    fn statement(&mut self, safe: bool) -> String {
        match self.rng.gen_range(0..10u32) {
            0..=3 => self.insert(),
            4..=7 => self.update(safe),
            _ => self.delete(),
        }
    }
}

fn opts(rng: &mut StdRng) -> DurabilityOptions {
    DurabilityOptions {
        fsync_on_commit: true,
        checkpoint_every_commits: [0, 3, 5, 8][rng.gen_range(0..4usize)],
        keep_checkpoints: 2,
    }
}

fn open(mem: Arc<MemFs>, opts: DurabilityOptions, budget: u64) -> Database {
    let db = Database::open_with_fs(mem, opts).unwrap();
    db.set_table_memory_budget(budget);
    db
}

/// Run `sql` on both sides: both succeed with the same count, or both fail.
fn step(db: &Database, model: &mut Model, sql: &str, ctx: &str) {
    let want = model.apply(sql);
    let got = db.execute(sql);
    match (&want, &got) {
        (Ok(n), Ok(r)) => assert_eq!(r.rows_affected, *n, "{ctx}: {sql}"),
        (Err(_), Err(_)) => {}
        _ => panic!(
            "{ctx}: {sql}: reference {want:?}, engine {:?}",
            got.map(|r| r.rows_affected)
        ),
    }
    assert_eq!(cells(db), model_cells(model), "{ctx}: after {sql}");
}

fn run_seed(seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let opts = opts(&mut rng);
    // 4 columns x 8 bytes a cell: parts of 4 to 32 rows
    let budget = [256u64, 512, 1024, 2048][rng.gen_range(0..4usize)];
    let mut mem = MemFs::new();
    let mut db = open(mem.clone(), opts, budget);
    db.execute(DDL).unwrap();
    let mut model = Model::new(&db);
    let mut g = Gen {
        rng: StdRng::seed_from_u64(seed ^ 0x5eed),
        next_k: 0,
    };
    // a first load so that the table starts out in parts
    for _ in 0..3 {
        let sql = g.insert();
        step(&db, &mut model, &sql, &format!("seed {seed}"));
    }
    let steps = rng.gen_range(20..40usize);
    for i in 0..steps {
        let ctx = format!("seed {seed} step {i}");
        match rng.gen_range(0..20u32) {
            0 | 1 => {
                // a transaction block: COMMIT applies it, ROLLBACK none of it
                let commit = rng.gen_range(0..2u32) == 0;
                let mut session = db.session("admin");
                session.execute("BEGIN").unwrap();
                let mut inside = model.clone();
                for _ in 0..rng.gen_range(1..4usize) {
                    let sql = g.statement(true);
                    let n = inside.apply(&sql).unwrap();
                    let r = session
                        .execute(&sql)
                        .unwrap_or_else(|e| panic!("{ctx}: {sql}: {e}"));
                    assert_eq!(r.rows_affected, n, "{ctx}: {sql}");
                }
                session
                    .execute(if commit { "COMMIT" } else { "ROLLBACK" })
                    .unwrap();
                if commit {
                    model = inside;
                }
                assert_eq!(cells(&db), model_cells(&model), "{ctx}: after the block");
            }
            2 => {
                db.set_table_memory_budget(0);
                db.merge_now();
                db.set_table_memory_budget(budget);
                assert_eq!(cells(&db), model_cells(&model), "{ctx}: after merge_now");
            }
            3 => {
                db.checkpoint_now().unwrap();
                drop(db);
                mem = mem.clean_image();
                db = open(mem.clone(), opts, budget);
                assert_eq!(cells(&db), model_cells(&model), "{ctx}: after clean reopen");
            }
            4 | 5 => {
                let digest = db.state_digest();
                drop(db);
                mem = mem.crash_image();
                db = open(mem.clone(), opts, budget);
                assert_eq!(db.state_digest(), digest, "{ctx}: crash reopen digest");
                assert_eq!(cells(&db), model_cells(&model), "{ctx}: after crash reopen");
            }
            _ => {
                let sql = g.statement(false);
                step(&db, &mut model, &sql, &ctx);
            }
        }
    }
    // Every logged delta since the last checkpoint replays over its parts.
    let image = mem.crash_image();
    drop(db);
    let rec = open(image, opts, budget);
    assert_eq!(
        cells(&rec),
        model_cells(&model),
        "seed {seed}: final crash reopen"
    );
}

#[test]
fn update_and_delete_match_the_row_at_a_time_reference() {
    for seed in test_seeds(64) {
        run_seed(seed);
    }
}

/// The first deletes and updates of a seed that provably run over parts:
/// the sweep is not vacuous.
#[test]
fn the_sweep_rewrites_parts() {
    let mem = MemFs::new();
    let db = open(mem, DurabilityOptions::default(), 512);
    db.execute(DDL).unwrap();
    let mut model = Model::new(&db);
    let mut g = Gen {
        rng: StdRng::seed_from_u64(7),
        next_k: 0,
    };
    for _ in 0..6 {
        let sql = g.insert();
        step(&db, &mut model, &sql, "load");
    }
    let parts = db.catalog().table("t").unwrap().current().parts.len();
    assert!(parts >= 4, "{parts} parts");
    step(
        &db,
        &mut model,
        "UPDATE t SET v = 0.5 WHERE k = 3",
        "one row",
    );
    step(
        &db,
        &mut model,
        "DELETE FROM t WHERE k < 20",
        "leading parts",
    );
    let rewritten = db
        .query("SELECT value FROM flock_metrics WHERE metric = 'parts_rewritten'")
        .unwrap();
    assert!(matches!(rewritten.column(0).get(0), Value::Int(n) if n >= 1));
}
