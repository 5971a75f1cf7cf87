//! The high-throughput PREDICT serving path, quantified:
//!
//! 1. **Prepared vs. unprepared** — scores/second of a windowed PREDICT
//!    statement executed through a prepared handle + shared plan cache
//!    (lex/parse/plan/xopt skipped on the hot path) versus re-submitting
//!    the SQL text with inline literals every time, at 1/2/4/8 concurrent
//!    sessions under admission control. Every statement gets a
//!    globally-unique window so the unprepared baseline really re-plans
//!    each time (identical texts would hit the raw-token cache and
//!    measure nothing).
//! 2. **Compiled kernel vs. interpreter** — full-table scoring
//!    throughput of the compiled pipeline (the level-synchronous FlatTree
//!    kernel every strategy but `'row'` scores through,
//!    `SET predict_strategy = 'vectorized'`) against the per-row
//!    interpreter (`'row'`), plus a bit-exactness sweep across the row
//!    and vectorized strategies, serial and with the operator fanned out
//!    over its morsel pool.
//!
//! Gate: prepared must clear `GATE_SPEEDUP`x the unprepared
//! baseline at 4 sessions and every strategy must agree bit-for-bit, or
//! the process exits non-zero. Set `FLOCK_SERVING_SHORT=1` for the CI
//! smoke configuration (fewer statements, 1.5x gate).
//!
//! Writes `results/BENCH_serving.json`.

use flock_core::{FlockDb, Lineage, XOptConfig};
use flock_ml::{ColumnPipeline, DecisionTree, GbtModel, Model, Pipeline, TreeNode};
use flock_rng::rngs::StdRng;
use flock_rng::{Rng, SeedableRng};
use flock_sql::exec::ExecOptions;
use flock_sql::Value;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

const ROWS: usize = 4_096;
const WINDOW: i64 = 64;
const TREES: usize = 64;
const TREE_DEPTH: usize = 6;
const SESSION_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn short_mode() -> bool {
    std::env::var("FLOCK_SERVING_SHORT").is_ok_and(|v| v == "1")
}

/// A seeded ensemble of full binary trees over (amount, rate).
fn gbt(rng: &mut StdRng) -> Model {
    fn grow(rng: &mut StdRng, depth: usize, nodes: &mut Vec<TreeNode>) -> usize {
        let at = nodes.len();
        if depth == 0 {
            nodes.push(TreeNode::Leaf {
                value: rng.gen_range(-1.0..1.0),
            });
            return at;
        }
        nodes.push(TreeNode::Leaf { value: 0.0 }); // placeholder
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
        at
    }
    let trees = (0..TREES)
        .map(|_| {
            let mut nodes = Vec::new();
            grow(rng, TREE_DEPTH, &mut nodes);
            DecisionTree { nodes }
        })
        .collect();
    Model::Gbt(GbtModel {
        trees,
        learning_rate: 0.1,
        base_score: 0.2,
        sigmoid_output: true,
    })
}

/// PREDICT survives as a provider call (no inlining), so
/// `SET predict_strategy` picks the scorer under test.
fn serving_db() -> FlockDb {
    let db = FlockDb::with_config(XOptConfig {
        inline_models: false,
        predicate_specialization: false,
        ..XOptConfig::default()
    });
    db.database().set_exec_options(ExecOptions {
        // Admission control smaller than the widest session count, so the
        // 8-session run measures queueing, not just scheduling.
        max_concurrent_queries: 4,
        ..ExecOptions::serial()
    });
    db.execute("CREATE TABLE loans (id INT, amount DOUBLE, rate DOUBLE)")
        .unwrap();
    let mut rng = StdRng::seed_from_u64(97);
    for chunk in (0..ROWS).collect::<Vec<_>>().chunks(1000) {
        let rows: Vec<String> = chunk
            .iter()
            .map(|&i| {
                format!(
                    "({i}, {:.4}, {:.6})",
                    rng.gen_range(1_000.0f64..50_000.0),
                    rng.gen_range(0.01f64..0.25)
                )
            })
            .collect();
        db.execute(&format!("INSERT INTO loans VALUES {}", rows.join(", ")))
            .unwrap();
    }
    let mut s = db.session("admin");
    let pipeline = Pipeline::new(
        vec![
            ColumnPipeline::numeric("amount"),
            ColumnPipeline::numeric("rate"),
        ],
        gbt(&mut rng),
        "risk",
    );
    s.deploy_model("risk", &pipeline, Lineage::default()).unwrap();
    db
}

const PREPARED_SQL: &str =
    "SELECT SUM(PREDICT(risk, amount, rate)) FROM loans WHERE id >= ? AND id < ?";

/// Process-global statement counter: each serving statement, across every
/// session, mode, and run, draws a fresh index so its window (and hence
/// its SQL text in unprepared mode) differs from any recent statement's.
/// 997 is coprime with the window space, so starts cycle through all of
/// it before repeating — long after the 128-entry plan cache evicted
/// the earlier raw-token entry.
static STMT_COUNTER: AtomicUsize = AtomicUsize::new(0);

fn next_window_start() -> i64 {
    let i = STMT_COUNTER.fetch_add(1, Ordering::Relaxed);
    ((i * 997) % (ROWS - WINDOW as usize)) as i64
}

#[derive(Clone, Copy)]
enum Mode {
    Unprepared,
    Prepared,
}

/// Run `stmts` windowed PREDICT statements on each of `sessions`
/// concurrent sessions; returns (scores/sec, p50 us, p99 us).
/// One measured point: (sessions, scores/sec, p50 µs, p99 µs).
type SessionPoint = (usize, f64, f64, f64);

fn serve(db: &FlockDb, mode: Mode, sessions: usize, stmts: usize) -> (f64, f64, f64) {
    let latencies: Mutex<Vec<u64>> = Mutex::new(Vec::with_capacity(sessions * stmts));
    let t = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..sessions {
            let db = db.clone();
            let latencies = &latencies;
            scope.spawn(move || {
                let mut s = db.session("admin");
                let prepared = match mode {
                    Mode::Unprepared => None,
                    Mode::Prepared => Some(s.prepare(PREPARED_SQL).unwrap()),
                };
                let mut local = Vec::with_capacity(stmts);
                for _ in 0..stmts {
                    let a = next_window_start();
                    let b = a + WINDOW;
                    // Admission control is fail-fast; a serving client
                    // retries on rejection, and the latency it observes
                    // (recorded here) includes that queueing delay.
                    let t = Instant::now();
                    loop {
                        let r = match &prepared {
                            Some(p) => {
                                s.execute_prepared(p, &[Value::Int(a), Value::Int(b)])
                            }
                            None => s.execute(&format!(
                                "SELECT SUM(PREDICT(risk, amount, rate)) FROM loans \
                                 WHERE id >= {a} AND id < {b}"
                            )),
                        };
                        match r {
                            Ok(_) => break,
                            Err(flock_sql::SqlError::Admission(_)) => {
                                std::thread::sleep(std::time::Duration::from_micros(100));
                            }
                            Err(e) => panic!("serving statement failed: {e}"),
                        }
                    }
                    local.push(t.elapsed().as_micros() as u64);
                }
                latencies.lock().unwrap().extend(local);
            });
        }
    });
    let elapsed = t.elapsed().as_secs_f64();
    let mut lat = latencies.into_inner().unwrap();
    lat.sort_unstable();
    let pct = |p: f64| lat[((lat.len() - 1) as f64 * p) as usize] as f64;
    let scores_per_sec = (sessions * stmts) as f64 * WINDOW as f64 / elapsed;
    (scores_per_sec, pct(0.50), pct(0.99))
}

/// Full-table scoring throughput (rows/sec) under one strategy.
fn kernel_rows_per_sec(db: &FlockDb, strategy: &str, repeats: usize) -> f64 {
    let mut s = db.session("admin");
    s.execute(&format!("SET predict_strategy = '{strategy}'"))
        .unwrap();
    let sql = "SELECT SUM(PREDICT(risk, amount, rate)) FROM loans";
    s.query(sql).unwrap(); // warm compile + cache
    let t = Instant::now();
    for _ in 0..repeats {
        s.query(sql).unwrap();
    }
    (repeats * ROWS) as f64 / t.elapsed().as_secs_f64()
}

/// Every strategy must produce bit-identical scores on the full table,
/// serial and with the scan's operator fanned out over four workers.
fn bit_exact(db: &FlockDb) -> bool {
    let scores = |strategy: &str| -> Vec<u64> {
        let mut s = db.session("admin");
        s.execute(&format!("SET predict_strategy = '{strategy}'"))
            .unwrap();
        let b = s
            .query("SELECT id, PREDICT(risk, amount, rate) FROM loans ORDER BY id")
            .unwrap();
        (0..b.num_rows())
            .map(|r| {
                let Value::Float(v) = b.column(1).get(r) else {
                    panic!("score must be a float")
                };
                v.to_bits()
            })
            .collect()
    };
    let baseline = scores("vectorized");
    let serial = db.database().exec_options();
    db.database().set_exec_options(ExecOptions {
        morsel_rows: 512,
        ..ExecOptions::with_threads(4, 1)
    });
    let fanned_out = scores("vectorized");
    db.database().set_exec_options(serial);
    fanned_out == baseline && scores("row") == baseline
}

fn main() {
    let short = short_mode();
    let stmts = if short { 60 } else { 300 };
    let kernel_repeats = if short { 3 } else { 10 };
    let gate_speedup = if short { 1.5 } else { 2.0 };

    eprintln!("loading {ROWS} rows + {TREES}-tree GBT...");
    let db = serving_db();

    eprintln!("checking strategy bit-exactness...");
    let exact = bit_exact(&db);

    eprintln!("kernel ablation (full-table scoring)...");
    let row_rps = kernel_rows_per_sec(&db, "row", kernel_repeats);
    let compiled_rps = kernel_rows_per_sec(&db, "vectorized", kernel_repeats);

    let modes: [(&str, Mode); 2] = [
        ("unprepared", Mode::Unprepared),
        ("prepared", Mode::Prepared),
    ];
    let mut results: Vec<(&str, Vec<SessionPoint>)> = Vec::new();
    for (name, mode) in modes {
        eprintln!("serving mode: {name}...");
        let per_count = SESSION_COUNTS
            .iter()
            .map(|&n| {
                let (sps, p50, p99) = serve(&db, mode, n, stmts);
                (n, sps, p50, p99)
            })
            .collect();
        results.push((name, per_count));
    }

    let at4 = |name: &str| -> f64 {
        results
            .iter()
            .find(|(n, _)| *n == name)
            .and_then(|(_, rows)| rows.iter().find(|(n, ..)| *n == 4))
            .map(|(_, sps, ..)| *sps)
            .unwrap()
    };
    let speedup = at4("prepared") / at4("unprepared");

    println!("serving path ({ROWS} rows, {WINDOW}-row windows, {stmts} stmts/session):");
    for (name, rows) in &results {
        println!("  {name}:");
        for (n, sps, p50, p99) in rows {
            println!(
                "    {n} session(s): {sps:>12.0} scores/s  p50 {p50:>7.0} us  p99 {p99:>7.0} us"
            );
        }
    }
    println!("kernel ablation (full table): interpreted {row_rps:.0} rows/s, compiled {compiled_rps:.0} rows/s");
    println!("bit-exact across row/vectorized, serial and morsel-parallel: {exact}");
    println!("prepared vs unprepared at 4 sessions: {speedup:.2}x (gate {gate_speedup}x)");

    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"bench\": \"serving\",");
    let _ = writeln!(out, "  \"rows\": {ROWS},");
    let _ = writeln!(out, "  \"window\": {WINDOW},");
    let _ = writeln!(out, "  \"trees\": {TREES},");
    let _ = writeln!(out, "  \"stmts_per_session\": {stmts},");
    let _ = writeln!(out, "  \"short_mode\": {short},");
    let _ = writeln!(out, "  \"bit_exact\": {exact},");
    let _ = writeln!(out, "  \"kernel_row_rows_per_sec\": {row_rps:.1},");
    let _ = writeln!(out, "  \"kernel_compiled_rows_per_sec\": {compiled_rps:.1},");
    let _ = writeln!(out, "  \"speedup_at_4_sessions\": {speedup:.3},");
    let _ = writeln!(out, "  \"gate_speedup\": {gate_speedup},");
    let _ = writeln!(out, "  \"modes\": {{");
    for (mi, (name, rows)) in results.iter().enumerate() {
        let _ = writeln!(out, "    \"{name}\": {{");
        for (ri, (n, sps, p50, p99)) in rows.iter().enumerate() {
            let comma = if ri + 1 < rows.len() { "," } else { "" };
            let _ = writeln!(
                out,
                "      \"{n}\": {{\"scores_per_sec\": {sps:.1}, \"p50_us\": {p50:.0}, \"p99_us\": {p99:.0}}}{comma}"
            );
        }
        let comma = if mi + 1 < results.len() { "," } else { "" };
        let _ = writeln!(out, "    }}{comma}");
    }
    out.push_str("  }\n}\n");
    std::fs::create_dir_all("results").unwrap();
    std::fs::write("results/BENCH_serving.json", &out).unwrap();
    eprintln!("wrote results/BENCH_serving.json");

    if !exact {
        eprintln!("FAIL: strategy ablation is not bit-exact");
        std::process::exit(1);
    }
    if speedup < gate_speedup {
        eprintln!("FAIL: prepared speedup {speedup:.2}x < {gate_speedup}x gate");
        std::process::exit(1);
    }
    println!("serving gates passed");
}
