//! Session-safety tests: the seeded concurrent stress harness plus the
//! regression tests for cooperative cancellation, `statement_timeout`,
//! admission control, per-query budgets, per-session metrics, and
//! concurrent log-id assignment.
//!
//! The harness runs N threads of a seeded mixed read/write workload
//! against one `Database` under both WAL modes, under random mid-run
//! cancellations, and with the ledger in disk parts that merges and
//! checkpoints retire under open transactions and snapshot reads, then
//! proves the final state is equivalent to *some*
//! serial order of the committed transactions. Every committed effect is
//! commutative (balance deposits, append-only ledger inserts with unique
//! `(thread, seq)` keys), so "some serial order" has a closed form: the
//! final sums and the ledger row set must match exactly the set of
//! transactions the clients saw commit — nothing lost, nothing duplicated,
//! no effect from an aborted transaction.

use flock_rng::rngs::StdRng;
use flock_rng::{Rng, SeedableRng};
use flock_sql::ast::PredictStrategy;
use flock_sql::column::ColumnVector;
use flock_sql::exec::{CancelHandle, CancelToken, ExecOptions};
use flock_sql::types::DataType;
use flock_sql::udf::InferenceProvider;
use flock_sql::{Database, DurabilityOptions, MemFs, Result, SqlError, Value};
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

const N_THREADS: usize = 4;
const N_ACCOUNTS: i64 = 8;
const STEPS: usize = 40;
const INITIAL_BALANCE: i64 = 1_000;
/// Memory budget of the parts runs: the ledger (3 INT columns) goes to
/// disk past 10 resident rows, in 5-row parts.
const PARTS_BUDGET: u64 = 256;

/// Seeds to sweep. CI raises the sweep via `FLOCK_STRESS_SEEDS`; the
/// default keeps a plain `cargo test` fast.
fn seeds() -> Vec<u64> {
    let n = std::env::var("FLOCK_STRESS_SEEDS")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(2);
    (0..n.max(1)).map(|i| 0xF10C + i * 7919).collect()
}

/// Effects of the transactions one worker saw commit.
#[derive(Default)]
struct Committed {
    deposits: i64,
    ledger: Vec<(i64, i64, i64)>, // (thread, seq, delta)
    read_cancels: u64,
}

/// Errors the workload may legitimately hit: optimistic write-write
/// conflicts at commit, "no open transaction" from the cleanup ROLLBACK,
/// and chaos-injected cancellations. Anything else (a panic, a poisoned
/// lock, an untyped error) fails the harness.
fn acceptable(e: &SqlError) -> bool {
    matches!(e, SqlError::Transaction(_) | SqlError::Cancelled(_))
}

fn f64_of(v: &Value) -> f64 {
    v.as_f64().unwrap_or_else(|| panic!("expected number, got {v:?}"))
}

/// One stress run. With `parts`, the ledger lives in disk parts: a
/// maintenance thread merges them (lifting the budget, which caps merges,
/// for the pass) and checkpoints in a loop beside the background merger,
/// and every deposit transaction reads the ledger before it writes.
fn stress(seed: u64, fsync: bool, chaos: bool, parts: bool) {
    let mem = MemFs::new();
    let opts = DurabilityOptions {
        fsync_on_commit: fsync,
        checkpoint_every_commits: 16,
        keep_checkpoints: 2,
    };
    let db = Database::open_with_fs(mem.clone(), opts).unwrap();
    db.execute("CREATE TABLE accounts (id INT, balance INT)").unwrap();
    for id in 0..N_ACCOUNTS {
        db.execute(&format!("INSERT INTO accounts VALUES ({id}, {INITIAL_BALANCE})"))
            .unwrap();
    }
    db.execute("CREATE TABLE ledger (thread INT, seq INT, delta INT)").unwrap();
    if parts {
        db.set_table_memory_budget(PARTS_BUDGET);
        db.start_background_merge();
    }

    let handles: Arc<Mutex<Vec<CancelHandle>>> = Arc::new(Mutex::new(Vec::new()));
    let done = Arc::new(AtomicBool::new(false));

    let per_worker: Vec<Committed> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..N_THREADS)
            .map(|t| {
                let db = db.clone();
                let handles = handles.clone();
                scope.spawn(move || worker(&db, t, seed, parts, &handles))
            })
            .collect();
        let chaos_thread = chaos.then(|| {
            let handles = handles.clone();
            let done = done.clone();
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(seed ^ 0xC4A05);
                while !done.load(Ordering::Relaxed) {
                    let targets = handles.lock().unwrap();
                    if !targets.is_empty() {
                        targets[rng.gen_range(0usize..targets.len())].cancel();
                    }
                    drop(targets);
                    std::thread::sleep(Duration::from_millis(1));
                }
            })
        });
        let maintenance = parts.then(|| {
            let (db, done) = (db.clone(), done.clone());
            scope.spawn(move || {
                while !done.load(Ordering::Relaxed) {
                    db.set_table_memory_budget(0);
                    db.merge_now();
                    db.set_table_memory_budget(PARTS_BUDGET);
                    db.checkpoint_now().unwrap();
                    std::thread::sleep(Duration::from_millis(1));
                }
            })
        });
        let results: Vec<Committed> = workers.into_iter().map(|w| w.join().unwrap()).collect();
        done.store(true, Ordering::Relaxed);
        for t in chaos_thread.into_iter().chain(maintenance) {
            t.join().unwrap();
        }
        results
    });

    db.stop_background_merge();

    // --- serial-order equivalence of the committed transactions --------
    let committed_deposits: i64 = per_worker.iter().map(|c| c.deposits).sum();
    let expected: HashSet<(i64, i64, i64)> =
        per_worker.iter().flat_map(|c| c.ledger.iter().copied()).collect();
    let committed_count: usize = per_worker.iter().map(|c| c.ledger.len()).sum();
    assert_eq!(expected.len(), committed_count, "(thread, seq) keys are unique by construction");

    let total = db.query("SELECT SUM(balance) FROM accounts").unwrap();
    assert_eq!(
        f64_of(&total.column(0).get(0)) as i64,
        N_ACCOUNTS * INITIAL_BALANCE + committed_deposits,
        "seed {seed}: final balances must reflect exactly the committed deposits"
    );
    let rows = db.query("SELECT thread, seq, delta FROM ledger").unwrap();
    assert_eq!(
        rows.num_rows(),
        committed_count,
        "seed {seed}: ledger row count != committed transaction count"
    );
    let mut seen = HashSet::new();
    for r in 0..rows.num_rows() {
        let key = (
            f64_of(&rows.column(0).get(r)) as i64,
            f64_of(&rows.column(1).get(r)) as i64,
            f64_of(&rows.column(2).get(r)) as i64,
        );
        assert!(seen.insert(key), "seed {seed}: duplicate ledger row {key:?}");
        assert!(expected.contains(&key), "seed {seed}: phantom ledger row {key:?}");
    }

    // --- log ids stayed unique and gap-free under concurrency ----------
    let log = db.query_log();
    let mut ids: Vec<u64> = log.iter().map(|e| e.id).collect();
    ids.sort_unstable();
    assert_eq!(
        ids,
        (1..=log.len() as u64).collect::<Vec<_>>(),
        "seed {seed}: query-log ids must be unique and gap-free"
    );
    let audit = db.audit_log();
    let mut seqs: Vec<u64> = audit.iter().map(|a| a.seq).collect();
    seqs.sort_unstable();
    assert_eq!(
        seqs,
        (1..=audit.len() as u64).collect::<Vec<_>>(),
        "seed {seed}: audit seqs must be unique and gap-free"
    );

    // --- cancellation surfaced as typed errors and counted --------------
    let read_cancels: u64 = per_worker.iter().map(|c| c.read_cancels).sum();
    let metrics: std::collections::HashMap<_, _> =
        db.engine_metrics().rows().into_iter().collect();
    assert!(
        metrics["queries_cancelled"] >= read_cancels,
        "seed {seed}: every typed read cancellation must be counted \
         ({} counter vs {read_cancels} observed)",
        metrics["queries_cancelled"]
    );
    assert_eq!(db.admission().active(), 0, "seed {seed}: leaked admission slot");
    if parts {
        assert!(metrics["parts_total"] > 0, "seed {seed}: the ledger never reached disk");
        assert!(metrics["parts_merged"] > 0, "seed {seed}: no merge ran");
    }

    // --- durability: recovery reproduces the live state bit-for-bit ----
    // The images are copies, so recovering never perturbs the live WAL.
    let live = db.state_digest();
    let reopened = Database::open_with_fs(mem.clean_image(), opts).unwrap();
    assert_eq!(
        reopened.state_digest(),
        live,
        "seed {seed}: clean-shutdown recovery diverged (fsync={fsync})"
    );
    if fsync {
        // With fsync-on-commit every acknowledged commit survives a crash.
        let recovered = Database::open_with_fs(mem.crash_image(), opts).unwrap();
        assert_eq!(
            recovered.state_digest(),
            live,
            "seed {seed}: crash recovery lost an acknowledged commit"
        );
    }
}

fn worker(
    db: &Database,
    t: usize,
    seed: u64,
    parts: bool,
    handles: &Mutex<Vec<CancelHandle>>,
) -> Committed {
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(1009).wrapping_add(t as u64));
    let mut s = db.session("admin");
    handles.lock().unwrap().push(s.cancel_handle());
    let mut out = Committed::default();
    for seq in 0..STEPS {
        match rng.gen_range(0u32..10) {
            // Deposit transaction: commutative balance bump + unique
            // (thread, seq) ledger row. Committed iff COMMIT returned Ok.
            0..=5 => {
                let acct = rng.gen_range(0i64..N_ACCOUNTS);
                let delta = rng.gen_range(1i64..100);
                let res = (|| -> Result<()> {
                    s.execute("BEGIN")?;
                    s.execute(&format!(
                        "UPDATE accounts SET balance = balance + {delta} WHERE id = {acct}"
                    ))?;
                    if parts {
                        s.query("SELECT COUNT(*), SUM(delta) FROM ledger")?;
                    }
                    s.execute(&format!("INSERT INTO ledger VALUES ({t}, {seq}, {delta})"))?;
                    s.execute("COMMIT")?;
                    Ok(())
                })();
                match res {
                    Ok(()) => {
                        out.deposits += delta;
                        out.ledger.push((t as i64, seq as i64, delta));
                    }
                    Err(e) => {
                        assert!(acceptable(&e), "worker {t} seq {seq}: unexpected error {e}");
                        // Clear any transaction a mid-txn failure left open.
                        let _ = s.execute("ROLLBACK");
                    }
                }
            }
            // Aggregate read: must either succeed or die a *typed* death.
            6 | 7 => match s.query("SELECT SUM(balance), COUNT(*) FROM accounts") {
                Ok(b) => assert_eq!(b.num_rows(), 1),
                Err(e) => {
                    assert!(acceptable(&e), "worker {t} seq {seq}: unexpected error {e}");
                    if matches!(e, SqlError::Cancelled(_)) {
                        out.read_cancels += 1;
                    }
                }
            },
            // Join-shaped read.
            8 => match s.query(
                "SELECT a.id, COUNT(*), SUM(l.delta) FROM accounts a \
                 JOIN ledger l ON a.id = l.thread \
                 GROUP BY a.id ORDER BY a.id",
            ) {
                Ok(_) => {}
                Err(e) => {
                    assert!(acceptable(&e), "worker {t} seq {seq}: unexpected error {e}");
                    if matches!(e, SqlError::Cancelled(_)) {
                        out.read_cancels += 1;
                    }
                }
            },
            // Point read through ORDER BY (sort operator under chaos).
            _ => match s.query("SELECT id, balance FROM accounts ORDER BY balance DESC, id") {
                Ok(b) => assert_eq!(b.num_rows() as i64, N_ACCOUNTS),
                Err(e) => {
                    assert!(acceptable(&e), "worker {t} seq {seq}: unexpected error {e}");
                    if matches!(e, SqlError::Cancelled(_)) {
                        out.read_cancels += 1;
                    }
                }
            },
        }
    }
    out
}

#[test]
fn stress_buffered_wal() {
    for seed in seeds() {
        stress(seed, false, false, false);
    }
}

#[test]
fn stress_fsync_wal() {
    for seed in seeds() {
        stress(seed, true, false, false);
    }
}

#[test]
fn stress_with_chaos_cancellation() {
    for seed in seeds() {
        stress(seed, false, true, false);
        stress(seed, true, true, false);
    }
}

#[test]
fn stress_with_parts_and_merger() {
    for seed in seeds() {
        stress(seed, false, false, true);
        stress(seed, true, false, true);
    }
}

// ===================================================================
// Conflict-aborted transactions leave no WAL trace
// ===================================================================

#[test]
fn conflict_aborted_txn_leaves_no_wal_trace() {
    let mem = MemFs::new();
    let opts = DurabilityOptions {
        fsync_on_commit: true,
        checkpoint_every_commits: 64,
        keep_checkpoints: 2,
    };
    let db = Database::open_with_fs(mem.clone(), opts).unwrap();
    db.execute("CREATE TABLE t (a INT)").unwrap();
    db.execute("INSERT INTO t VALUES (1)").unwrap();

    let mut s1 = db.session("admin");
    let mut s2 = db.session("admin");
    s1.execute("BEGIN").unwrap();
    s2.execute("BEGIN").unwrap();
    s1.execute("UPDATE t SET a = 2").unwrap();
    s2.execute("UPDATE t SET a = 3").unwrap();
    s1.execute("COMMIT").unwrap();
    let committed = db.state_digest();

    let err = s2.execute("COMMIT").unwrap_err();
    assert!(
        matches!(err, SqlError::Transaction(_)),
        "conflict must be a typed transaction error, got {err:?}"
    );
    assert_eq!(
        db.state_digest(),
        committed,
        "aborted txn must not perturb committed in-memory state"
    );

    // Kill point: crash right after the conflict abort. Recovery must
    // replay the aborted transaction to *nothing* — only s1's commit.
    let recovered = Database::open_with_fs(mem.crash_image(), opts).unwrap();
    assert_eq!(
        recovered.state_digest(),
        committed,
        "aborted txn left a trace in the WAL"
    );
    let b = recovered.query("SELECT a FROM t").unwrap();
    assert_eq!(b.column(0).get(0), Value::Int(2));

    // next_txn advances monotonically across the restart: a transaction
    // committed after recovery gets a fresh id, even though the aborted
    // txn's id was never persisted.
    let max_before = db.query_log().iter().map(|e| e.txn_id).max().unwrap();
    let mut s = recovered.session("admin");
    s.execute("INSERT INTO t VALUES (9)").unwrap();
    let max_after = recovered.query_log().iter().map(|e| e.txn_id).max().unwrap();
    assert!(
        max_after > max_before,
        "txn ids must stay monotonic across recovery ({max_after} vs {max_before})"
    );
}

// ===================================================================
// Concurrent log appends: 8 sessions, ids unique and gap-free
// ===================================================================

#[test]
fn concurrent_sessions_keep_log_ids_gap_free_and_metrics_consistent() {
    const SESSIONS: usize = 8;
    const PER_SESSION: usize = 12;
    let db = Database::new();
    let metrics_before: std::collections::HashMap<_, _> =
        db.engine_metrics().rows().into_iter().collect();

    std::thread::scope(|scope| {
        for t in 0..SESSIONS {
            let db = db.clone();
            scope.spawn(move || {
                let mut s = db.session("admin");
                s.execute(&format!("CREATE TABLE t{t} (x INT)")).unwrap();
                for i in 0..PER_SESSION {
                    s.execute(&format!("INSERT INTO t{t} VALUES ({i})")).unwrap();
                    let b = s.query(&format!("SELECT COUNT(*) FROM t{t}")).unwrap();
                    assert_eq!(b.column(0).get(0), Value::Int(i as i64 + 1));
                }
            });
        }
    });

    let log = db.query_log();
    let mut ids: Vec<u64> = log.iter().map(|e| e.id).collect();
    let sorted_already = ids.windows(2).all(|w| w[0] < w[1]);
    assert!(sorted_already, "log ids must be assigned in append order");
    ids.sort_unstable();
    assert_eq!(
        ids,
        (1..=log.len() as u64).collect::<Vec<_>>(),
        "concurrent appends must not duplicate or skip log ids"
    );
    let audit = db.audit_log();
    let mut seqs: Vec<u64> = audit.iter().map(|a| a.seq).collect();
    seqs.sort_unstable();
    assert_eq!(seqs, (1..=audit.len() as u64).collect::<Vec<_>>());

    // No lost counter updates: exactly SESSIONS * PER_SESSION SELECTs ran,
    // each returning one row.
    let metrics: std::collections::HashMap<_, _> =
        db.engine_metrics().rows().into_iter().collect();
    let queries = metrics["queries"] - metrics_before["queries"];
    let returned = metrics["rows_returned"] - metrics_before["rows_returned"];
    assert_eq!(queries, (SESSIONS * PER_SESSION) as u64);
    assert_eq!(returned, (SESSIONS * PER_SESSION) as u64);
}

// ===================================================================
// Per-session last_query_metrics (regression: engine-global clobbering)
// ===================================================================

#[test]
fn session_metrics_survive_other_sessions_in_lockstep() {
    let db = Database::new();
    db.execute("CREATE TABLE t (x INT)").unwrap();
    db.execute("INSERT INTO t VALUES (1), (2), (3), (4), (5)").unwrap();

    let mut s1 = db.session("admin");
    let mut s2 = db.session("admin");
    // Lockstep: each round, s1 reads 5 rows, then s2 reads 2. Before the
    // fix a session's snapshot lived on the Database and the later query
    // clobbered the earlier session's numbers.
    for _ in 0..3 {
        s1.query("SELECT x FROM t").unwrap();
        s2.query("SELECT x FROM t WHERE x <= 2").unwrap();
        let m1 = s1.last_query_metrics().expect("s1 ran a query");
        let m2 = s2.last_query_metrics().expect("s2 ran a query");
        assert_eq!(m1.rows_out, 5, "s1's snapshot clobbered by s2");
        assert_eq!(m2.rows_out, 2);
        // The engine-global snapshot is documented to be last-writer-wins.
        assert_eq!(db.last_query_metrics().unwrap().rows_out, 2);
    }
}

// ===================================================================
// Typed cancellation / timeout / admission / budget errors
// ===================================================================

/// An inference provider that blocks until the statement's token fires,
/// making cancellation and timeout tests fully deterministic: the query
/// cannot complete on its own.
struct BlockUntilCancelled;

impl InferenceProvider for BlockUntilCancelled {
    fn output_type(&self, _model: &str) -> Result<DataType> {
        Ok(DataType::Float)
    }
    fn input_arity(&self, _model: &str) -> Result<usize> {
        Ok(1)
    }
    fn predict(
        &self,
        _model: &str,
        inputs: &[ColumnVector],
        _strategy: PredictStrategy,
        _user: &str,
    ) -> Result<ColumnVector> {
        // Only reachable through the non-cancellable entry point, which
        // the engine never uses; return zeros to keep the trait total.
        Ok(ColumnVector::from_f64(vec![0.0; inputs[0].len()]))
    }
    fn predict_cancellable(
        &self,
        _model: &str,
        _inputs: &[ColumnVector],
        _strategy: PredictStrategy,
        _user: &str,
        cancel: &CancelToken,
    ) -> Result<ColumnVector> {
        loop {
            cancel.check()?;
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}

fn blocking_db() -> Database {
    let db = Database::new();
    db.execute("CREATE TABLE t (x DOUBLE)").unwrap();
    db.execute("INSERT INTO t VALUES (1.0), (2.0), (3.0)").unwrap();
    db.set_inference_provider(Arc::new(BlockUntilCancelled));
    db
}

#[test]
fn cancel_mid_query_is_typed_and_releases_resources() {
    let db = blocking_db();
    let (tx, rx) = std::sync::mpsc::channel();
    let worker = {
        let db = db.clone();
        std::thread::spawn(move || {
            let mut s = db.session("admin");
            tx.send(s.cancel_handle()).unwrap();
            let err = s.query("SELECT PREDICT(m, x) FROM t").unwrap_err();
            assert!(matches!(err, SqlError::Cancelled(_)), "got {err:?}");
            // Partial metrics survive the unwind.
            assert!(s.last_query_metrics().is_some());
        })
    };
    let handle = rx.recv().unwrap();
    // The flag resets at statement start, so keep setting it until the
    // worker observes the cancellation and exits.
    while !worker.is_finished() {
        handle.cancel();
        std::thread::sleep(Duration::from_millis(1));
    }
    worker.join().unwrap();

    let m: std::collections::HashMap<_, _> = db.engine_metrics().rows().into_iter().collect();
    assert!(m["queries_cancelled"] >= 1);
    assert_eq!(db.admission().active(), 0, "cancelled query leaked its slot");
    // The engine is still healthy: no poisoned lock, plain queries run.
    assert_eq!(db.query("SELECT COUNT(*) FROM t").unwrap().column(0).get(0), Value::Int(3));
}

#[test]
fn statement_timeout_is_typed_and_resettable() {
    let db = blocking_db();
    let mut s = db.session("admin");

    s.execute("SET statement_timeout = 15").unwrap();
    assert_eq!(s.statement_timeout(), Some(15));
    let err = s.query("SELECT PREDICT(m, x) FROM t").unwrap_err();
    assert!(matches!(err, SqlError::Timeout(_)), "got {err:?}");
    assert!(s.last_query_metrics().is_some(), "partial metrics must survive a timeout");

    let m: std::collections::HashMap<_, _> = db.engine_metrics().rows().into_iter().collect();
    assert!(m["queries_timed_out"] >= 1);
    assert_eq!(db.admission().active(), 0, "timed-out query leaked its slot");

    // DEFAULT restores the engine-wide setting (off here) and the session
    // works again — the timeout must not stick to later statements.
    s.execute("SET statement_timeout = DEFAULT").unwrap();
    assert_eq!(s.statement_timeout(), None);
    assert_eq!(s.query("SELECT COUNT(*) FROM t").unwrap().column(0).get(0), Value::Int(3));

    // `SET statement_timeout = 0` disables it explicitly (kept as an
    // override, distinct from DEFAULT); the `TO` spelling is accepted.
    s.execute("SET statement_timeout TO 0").unwrap();
    assert_eq!(s.statement_timeout(), Some(0));
}

#[test]
fn engine_wide_statement_timeout_applies_without_session_override() {
    let db = blocking_db();
    db.set_exec_options(ExecOptions {
        statement_timeout_ms: 15,
        ..ExecOptions::default()
    });
    let err = db.query("SELECT PREDICT(m, x) FROM t").unwrap_err();
    assert!(matches!(err, SqlError::Timeout(_)), "got {err:?}");

    // A session-level `SET statement_timeout = 0` overrides the engine
    // default to "disabled" (a plain query stands in for the blocking
    // PREDICT, which would now hang forever by design).
    let mut s = db.session("admin");
    s.execute("SET statement_timeout = 0").unwrap();
    assert_eq!(s.query("SELECT COUNT(*) FROM t").unwrap().column(0).get(0), Value::Int(3));
}

#[test]
fn set_rejects_bad_values_and_unknown_variables() {
    let db = Database::new();
    let mut s = db.session("admin");
    assert!(s.execute("SET statement_timeout = 'abc'").is_err());
    assert!(s.execute("SET statement_timeout = -5").is_err());
    assert!(s.execute("SET nonexistent_variable = 1").is_err());
    // Constant expressions fold before validation.
    s.execute("SET statement_timeout = 10 + 5").unwrap();
    assert_eq!(s.statement_timeout(), Some(15));
}

#[test]
fn admission_controller_rejects_at_capacity_with_typed_error() {
    let db = Database::new();
    db.execute("CREATE TABLE t (x INT)").unwrap();
    db.execute("INSERT INTO t VALUES (1)").unwrap();
    db.set_exec_options(ExecOptions {
        max_concurrent_queries: 1,
        ..ExecOptions::default()
    });

    // Occupy the single slot, as a long-running query would.
    let slot = db.admission().try_acquire(1).expect("first slot");
    let err = db.query("SELECT x FROM t").unwrap_err();
    assert!(matches!(err, SqlError::Admission(_)), "got {err:?}");
    let m: std::collections::HashMap<_, _> = db.engine_metrics().rows().into_iter().collect();
    assert!(m["admission_rejected"] >= 1);

    drop(slot);
    assert_eq!(db.query("SELECT x FROM t").unwrap().num_rows(), 1);
    assert_eq!(db.admission().active(), 0);
}

#[test]
fn query_budget_rejects_oversized_queries_with_typed_error() {
    let db = Database::new();
    db.execute("CREATE TABLE t (x INT)").unwrap();
    let rows: Vec<String> = (0..200).map(|i| format!("({i})")).collect();
    db.execute(&format!("INSERT INTO t VALUES {}", rows.join(", "))).unwrap();

    db.set_exec_options(ExecOptions {
        max_rows_budget: 50,
        ..ExecOptions::default()
    });
    let err = db.query("SELECT x FROM t").unwrap_err();
    assert!(matches!(err, SqlError::Budget(_)), "got {err:?}");
    let m: std::collections::HashMap<_, _> = db.engine_metrics().rows().into_iter().collect();
    assert!(m["budget_rejected"] >= 1);
    assert_eq!(db.admission().active(), 0, "over-budget query leaked its slot");

    db.set_exec_options(ExecOptions {
        max_mem_bytes: 64, // 200 rows * 8 bytes blows this immediately
        ..ExecOptions::default()
    });
    let err = db.query("SELECT x FROM t").unwrap_err();
    assert!(matches!(err, SqlError::Budget(_)), "got {err:?}");

    // Removing the limits restores normal execution.
    db.set_exec_options(ExecOptions::default());
    assert_eq!(db.query("SELECT x FROM t").unwrap().num_rows(), 200);
}

// ===================================================================
// Training scans run through the query pipeline: same timeout, same counters
// ===================================================================

#[test]
fn timed_out_training_scan_is_counted_and_leaves_the_session_usable() {
    let db = blocking_db();
    let mut s = db.session("admin");
    let timed_out = || {
        let rows = db.engine_metrics().rows();
        rows.iter().find(|(n, _)| *n == "queries_timed_out").unwrap().1
    };
    let before = timed_out();
    s.execute("SET statement_timeout = 15").unwrap();
    // the training query's PREDICT blocks until the deadline fires
    let err = s
        .execute("CREATE MODEL m2 KIND linear TARGET x AS SELECT PREDICT(m, x) AS p, x FROM t")
        .unwrap_err();
    assert!(matches!(err, SqlError::Timeout(_)), "got {err:?}");
    assert_eq!(timed_out() - before, 1, "a timed-out training scan is a timed-out query");
    assert!(s.last_query_metrics().is_some(), "partial metrics must survive");
    assert_eq!(db.admission().active(), 0);
    assert!(!s.in_transaction());
    s.execute("SET statement_timeout = DEFAULT").unwrap();
    assert_eq!(s.query("SELECT COUNT(*) FROM t").unwrap().column(0).get(0), Value::Int(3));
}
