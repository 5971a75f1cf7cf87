//! Streaming ingestion + continuous queries, end to end: stream DDL and
//! append-only enforcement, tumbling/sliding windowed aggregates that
//! must be bit-equal to the equivalent batch GROUP BY over the same
//! captured events (including across crash/recovery), late-event
//! accounting, continuous PREDICT over each closed window, and
//! the policy monitor whose threshold breach places a model on hold.

use flock_sql::ast::PredictStrategy;
use flock_sql::column::ColumnVector;
use flock_sql::types::DataType;
use flock_sql::udf::InferenceProvider;
use flock_sql::{
    Database, DurabilityOptions, DurableFs, FailpointFs, MemFs, RecordBatch, Result, SqlError,
    Value,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

// ---------------------------------------------------------------- helpers

fn rows_of(b: &RecordBatch) -> Vec<Vec<Value>> {
    (0..b.num_rows()).map(|i| b.row(i)).collect()
}

fn metric(db: &Database, name: &str) -> i64 {
    let b = db
        .query(&format!(
            "SELECT value FROM flock_metrics WHERE metric = '{name}'"
        ))
        .unwrap();
    assert_eq!(b.num_rows(), 1, "metric '{name}' missing");
    match b.column(0).get(0) {
        Value::Int(v) => v,
        other => panic!("metric '{name}' is not an int: {other:?}"),
    }
}

/// The batch reference for one window: the same aggregate over the same
/// events, restricted to `[start, start+size)` by a plain WHERE.
fn batch_window(db: &Database, select: &str, start: i64, size: i64) -> Vec<Vec<Value>> {
    let q = format!("{select} WHERE et >= {start} AND et < {} GROUP BY k", start + size);
    rows_of(&db.query(&q).unwrap())
}

/// Compare a sink against per-window batch references, bit for bit. The
/// sink's first column is `window_start`; remaining columns must equal
/// the batch rows (same values, same group order).
fn assert_sink_matches_batch(db: &Database, sink: &str, select: &str, size: i64) {
    let sink_rows = rows_of(&db.query(&format!("SELECT * FROM {sink}")).unwrap());
    assert!(!sink_rows.is_empty(), "sink '{sink}' is empty");
    let mut starts: Vec<i64> = sink_rows
        .iter()
        .map(|r| match r[0] {
            Value::Int(s) => s,
            ref other => panic!("window_start is not an int: {other:?}"),
        })
        .collect();
    starts.dedup();
    let mut at = 0usize;
    for start in starts {
        let expect = batch_window(db, select, start, size);
        for want in &expect {
            let got = &sink_rows[at];
            assert_eq!(Value::Int(start), got[0]);
            assert_eq!(
                want[..],
                got[1..],
                "window [{start}, {}) diverged from batch GROUP BY",
                start + size
            );
            at += 1;
        }
    }
    assert_eq!(at, sink_rows.len(), "sink holds rows no batch window explains");
}

/// Deterministic two-feature scorer (strategy-insensitive), used for the
/// continuous-PREDICT and policy-hold tests.
struct RiskScorer;

impl InferenceProvider for RiskScorer {
    fn output_type(&self, _model: &str) -> Result<DataType> {
        Ok(DataType::Float)
    }
    fn input_arity(&self, _model: &str) -> Result<usize> {
        Ok(2)
    }
    fn predict(
        &self,
        model: &str,
        inputs: &[ColumnVector],
        _strategy: PredictStrategy,
        _user: &str,
    ) -> Result<ColumnVector> {
        if model != "risk" {
            return Err(SqlError::Execution(format!("unknown model '{model}'")));
        }
        let n = inputs[0].len();
        let vals: Vec<Value> = (0..n)
            .map(|i| match (inputs[0].get(i).as_f64(), inputs[1].get(i).as_f64()) {
                (Some(a), Some(b)) => Value::Float((a / 100.0 + b / 10.0).min(1.0)),
                _ => Value::Float(0.0),
            })
            .collect();
        ColumnVector::from_values(DataType::Float, &vals)
    }
}

// -------------------------------------------------------------------- DDL

#[test]
fn create_stream_ddl_and_show() {
    let db = Database::new();
    db.execute("CREATE STREAM clicks (et INT, k INT, v INT) WATERMARK (et, 50)")
        .unwrap();
    // duplicate rejected; IF NOT EXISTS tolerated
    let err = db
        .execute("CREATE STREAM clicks (et INT, k INT) WATERMARK (et, 0)")
        .unwrap_err();
    assert!(err.to_string().contains("already exists"), "{err}");
    db.execute("CREATE STREAM IF NOT EXISTS clicks (et INT, k INT) WATERMARK (et, 0)")
        .unwrap();

    db.execute("INSERT INTO clicks VALUES (10, 1, 5), (20, 2, 6)")
        .unwrap();
    let b = db.query("SHOW STREAMS").unwrap();
    assert_eq!(b.num_rows(), 1);
    assert_eq!(b.schema().names(), vec![
        "name",
        "event_time",
        "lag_ms",
        "rows",
        "continuous_queries"
    ]);
    assert_eq!(b.column(0).get(0), Value::Text("clicks".into()));
    assert_eq!(b.column(1).get(0), Value::Text("et".into()));
    assert_eq!(b.column(2).get(0), Value::Int(50));
    assert_eq!(b.column(3).get(0), Value::Int(2));
    assert_eq!(b.column(4).get(0), Value::Int(0));

    // streams are queryable like tables
    let b = db.query("SELECT SUM(v) FROM clicks").unwrap();
    assert_eq!(b.column(0).get(0), Value::Int(11));
}

#[test]
fn watermark_column_must_be_an_int_column() {
    let db = Database::new();
    let err = db
        .execute("CREATE STREAM s (et DOUBLE, k INT) WATERMARK (et, 0)")
        .unwrap_err();
    assert!(err.to_string().contains("must be INT"), "{err}");
    let err = db
        .execute("CREATE STREAM s (et INT, k INT) WATERMARK (missing, 0)")
        .unwrap_err();
    assert!(err.to_string().contains("not a column"), "{err}");
}

#[test]
fn streams_are_append_only() {
    let db = Database::new();
    db.execute("CREATE STREAM s (et INT, v INT) WATERMARK (et, 0)")
        .unwrap();
    db.execute("INSERT INTO s VALUES (1, 10)").unwrap();
    for sql in [
        "UPDATE s SET v = 0",
        "DELETE FROM s",
        "ALTER TABLE s ADD COLUMN z INT",
    ] {
        let err = db.execute(sql).unwrap_err();
        assert!(err.to_string().contains("append-only"), "{sql}: {err}");
    }
    let err = db.execute("DROP TABLE s").unwrap_err();
    assert!(err.to_string().contains("DROP STREAM"), "{err}");
    db.execute("DROP STREAM s").unwrap();
    assert_eq!(db.query("SHOW STREAMS").unwrap().num_rows(), 0);
}

#[test]
fn drop_stream_refuses_while_a_cq_reads_it() {
    let db = Database::new();
    db.execute("CREATE STREAM s (et INT, k INT) WATERMARK (et, 0)")
        .unwrap();
    db.execute(
        "CREATE CONTINUOUS QUERY counts ON s WINDOW TUMBLING (100) \
         EMIT INTO s_counts AS SELECT k, COUNT(*) AS n FROM s GROUP BY k",
    )
    .unwrap();
    let err = db.execute("DROP STREAM s").unwrap_err();
    assert!(err.to_string().contains("continuous query"), "{err}");
    db.execute("DROP CONTINUOUS QUERY counts").unwrap();
    db.execute("DROP STREAM s").unwrap();
    // the sink survives as ordinary data
    assert_eq!(db.query("SELECT * FROM s_counts").unwrap().num_rows(), 0);
}

#[test]
fn create_cq_validates_up_front() {
    let db = Database::new();
    db.execute("CREATE STREAM s (et INT, k INT) WATERMARK (et, 0)")
        .unwrap();
    // sliding window must tile the size
    let err = db
        .execute(
            "CREATE CONTINUOUS QUERY c ON s WINDOW SLIDING (100, 33) \
             EMIT INTO out AS SELECT k, COUNT(*) AS n FROM s GROUP BY k",
        )
        .unwrap_err();
    assert!(err.to_string().contains("multiple"), "{err}");
    // query must read the CQ's stream
    let err = db
        .execute(
            "CREATE CONTINUOUS QUERY c ON s WINDOW TUMBLING (100) \
             EMIT INTO out AS SELECT k, COUNT(*) AS n FROM elsewhere GROUP BY k",
        )
        .unwrap_err();
    assert!(err.to_string().contains("must read stream"), "{err}");
    // unknown stream
    let err = db
        .execute(
            "CREATE CONTINUOUS QUERY c ON ghost WINDOW TUMBLING (100) \
             EMIT INTO out AS SELECT k, COUNT(*) AS n FROM ghost GROUP BY k",
        )
        .unwrap_err();
    assert!(err.to_string().contains("does not exist"), "{err}");
    // nothing half-created
    assert!(db.query("SELECT * FROM out").is_err());
}

// ------------------------------------------------- windowed bit-equality

#[test]
fn tumbling_window_matches_batch_group_by() {
    let db = Database::new();
    db.execute("CREATE STREAM s (et INT, k INT, v INT) WATERMARK (et, 0)")
        .unwrap();
    db.execute(
        "CREATE CONTINUOUS QUERY agg ON s WINDOW TUMBLING (100) \
         EMIT INTO s_agg AS \
         SELECT k, COUNT(*) AS n, SUM(v) AS total, AVG(v) AS mean FROM s GROUP BY k",
    )
    .unwrap();
    db.execute(
        "INSERT INTO s VALUES \
         (10, 1, 5), (20, 2, 7), (30, 1, 9), (110, 1, 1), \
         (150, 3, 8), (190, 2, 4), (205, 1, 2), (390, 9, 9)",
    )
    .unwrap();
    let emitted = db.stream_tick_now();
    // watermark 390 closes [0,100), [100,200), [200,300); [300,400) stays open
    assert_eq!(emitted, 3);
    assert_sink_matches_batch(
        &db,
        "s_agg",
        "SELECT k, COUNT(*) AS n, SUM(v) AS total, AVG(v) AS mean FROM s",
        100,
    );
    // idempotent: a tick with no new events emits nothing
    assert_eq!(db.stream_tick_now(), 0);
    assert_eq!(metric(&db, "stream_windows_closed"), 3);
    assert!(metric(&db, "stream_rows_emitted") >= 3);
}

#[test]
fn sliding_window_matches_batch_group_by() {
    let db = Database::new();
    db.execute("CREATE STREAM s (et INT, k INT, v INT) WATERMARK (et, 25)")
        .unwrap();
    db.execute(
        "CREATE CONTINUOUS QUERY agg ON s WINDOW SLIDING (200, 100) \
         EMIT INTO s_agg AS \
         SELECT k, COUNT(*) AS n, MIN(v) AS lo, MAX(v) AS hi FROM s GROUP BY k",
    )
    .unwrap();
    db.execute(
        "INSERT INTO s VALUES \
         (50, 1, 5), (150, 1, 3), (150, 2, 11), (250, 2, 2), (310, 1, 7), (640, 1, 1)",
    )
    .unwrap();
    let emitted = db.stream_tick_now();
    // watermark 615 closes [-100,100), [0,200), [100,300), [200,400), [300,500)
    // (empty [ -100,100 ) has no groups and emits no rows; [400,600) empty too)
    assert!(emitted >= 4, "emitted {emitted}");
    assert_sink_matches_batch(
        &db,
        "s_agg",
        "SELECT k, COUNT(*) AS n, MIN(v) AS lo, MAX(v) AS hi FROM s",
        200,
    );
    // every event appears in both windows that contain it
    let b = db
        .query("SELECT COUNT(*) FROM s_agg WHERE window_start = 0 OR window_start = 100")
        .unwrap();
    assert!(matches!(b.column(0).get(0), Value::Int(n) if n >= 3));
}

#[test]
fn where_clause_filters_events_but_not_watermark() {
    let db = Database::new();
    db.execute("CREATE STREAM s (et INT, k INT, v INT) WATERMARK (et, 0)")
        .unwrap();
    db.execute(
        "CREATE CONTINUOUS QUERY agg ON s WINDOW TUMBLING (100) \
         EMIT INTO s_agg AS \
         SELECT k, COUNT(*) AS n FROM s WHERE v > 5 GROUP BY k",
    )
    .unwrap();
    // the filtered-out high-et row still advances the watermark
    db.execute("INSERT INTO s VALUES (10, 1, 9), (20, 1, 1), (500, 1, 0)")
        .unwrap();
    assert!(db.stream_tick_now() >= 1);
    let rows = rows_of(&db.query("SELECT * FROM s_agg").unwrap());
    assert_eq!(rows, vec![vec![Value::Int(0), Value::Int(1), Value::Int(1)]]);
}

#[test]
fn late_events_are_dropped_and_counted() {
    let db = Database::new();
    db.execute("CREATE STREAM s (et INT, k INT) WATERMARK (et, 0)")
        .unwrap();
    db.execute(
        "CREATE CONTINUOUS QUERY agg ON s WINDOW TUMBLING (100) \
         EMIT INTO s_agg AS SELECT k, COUNT(*) AS n FROM s GROUP BY k",
    )
    .unwrap();
    db.execute("INSERT INTO s VALUES (10, 1), (350, 1)").unwrap();
    assert!(db.stream_tick_now() >= 1); // closes [0,100) at least
    let before = rows_of(&db.query("SELECT * FROM s_agg").unwrap());
    // arrives after every window containing t=15 closed
    db.execute("INSERT INTO s VALUES (15, 1)").unwrap();
    db.stream_tick_now();
    let after = rows_of(&db.query("SELECT * FROM s_agg").unwrap());
    assert_eq!(before, after, "late event must not reopen a closed window");
    assert_eq!(metric(&db, "stream_late_events"), 1);
}

// --------------------------------------------------- crash and recovery

#[test]
fn windowed_results_survive_crash_recovery_bit_for_bit() {
    let opts = DurabilityOptions {
        fsync_on_commit: true,
        checkpoint_every_commits: 4,
        keep_checkpoints: 2,
    };
    let mem = MemFs::new();
    let fp = FailpointFs::new(mem.clone(), u64::MAX);
    let db = Database::open_with_fs(fp, opts).unwrap();
    db.execute("CREATE STREAM s (et INT, k INT, v INT) WATERMARK (et, 0)")
        .unwrap();
    db.execute(
        "CREATE CONTINUOUS QUERY agg ON s WINDOW TUMBLING (100) \
         EMIT INTO s_agg AS SELECT k, COUNT(*) AS n, SUM(v) AS total FROM s GROUP BY k",
    )
    .unwrap();
    db.execute("INSERT INTO s VALUES (10, 1, 5), (20, 2, 7), (130, 1, 3), (260, 1, 1)")
        .unwrap();
    assert_eq!(db.stream_tick_now(), 2); // closes [0,100), [100,200)
    let sink_before = rows_of(&db.query("SELECT * FROM s_agg").unwrap());
    assert_eq!(sink_before.len(), 3);

    // crash: only fsynced bytes survive
    let rec = Database::open_with_fs(mem.crash_image(), opts).unwrap();
    let sink_after = rows_of(&rec.query("SELECT * FROM s_agg").unwrap());
    assert_eq!(sink_before, sink_after, "sink must survive bit-for-bit");

    // the rebuilt runtime replays the stream from scratch; the durable
    // emission cursor must suppress re-emission of already-sunk windows
    assert_eq!(rec.stream_tick_now(), 0);
    assert_eq!(
        sink_after,
        rows_of(&rec.query("SELECT * FROM s_agg").unwrap()),
        "replay after recovery duplicated windows"
    );

    // and the pipeline keeps going: new events close the next window
    rec.execute("INSERT INTO s VALUES (300, 2, 8), (520, 1, 1)")
        .unwrap();
    assert_eq!(rec.stream_tick_now(), 2); // [200,300), [300,400)
    assert_sink_matches_batch(
        &rec,
        "s_agg",
        "SELECT k, COUNT(*) AS n, SUM(v) AS total FROM s",
        100,
    );
}

/// A filesystem that counts the bytes read from part files.
struct PartReadCounter {
    inner: Arc<MemFs>,
    part_bytes: AtomicU64,
}

impl DurableFs for PartReadCounter {
    fn read(&self, name: &str) -> std::io::Result<Vec<u8>> {
        let data = self.inner.read(name)?;
        if name.starts_with("part.") {
            self.part_bytes.fetch_add(data.len() as u64, Ordering::Relaxed);
        }
        Ok(data)
    }
    fn write_all(&self, name: &str, data: &[u8]) -> std::io::Result<()> {
        self.inner.write_all(name, data)
    }
    fn append(&self, name: &str, data: &[u8]) -> std::io::Result<()> {
        self.inner.append(name, data)
    }
    fn sync(&self, name: &str) -> std::io::Result<()> {
        self.inner.sync(name)
    }
    fn rename(&self, from: &str, to: &str) -> std::io::Result<()> {
        self.inner.rename(from, to)
    }
    fn remove(&self, name: &str) -> std::io::Result<()> {
        self.inner.remove(name)
    }
    fn list(&self) -> std::io::Result<Vec<String>> {
        self.inner.list()
    }
}

#[test]
fn cq_tick_reads_only_rows_past_its_cursor() {
    let fs = Arc::new(PartReadCounter {
        inner: MemFs::new(),
        part_bytes: AtomicU64::new(0),
    });
    let db = Database::open_with_fs(fs.clone(), DurabilityOptions::default()).unwrap();
    db.set_table_memory_budget(2048);
    db.execute("CREATE STREAM s (et INT, k INT, v INT) WATERMARK (et, 0)")
        .unwrap();
    db.execute(
        "CREATE CONTINUOUS QUERY agg ON s WINDOW TUMBLING (100) \
         EMIT INTO s_agg AS SELECT k, COUNT(*) AS n, SUM(v) AS total FROM s GROUP BY k",
    )
    .unwrap();
    // 200 events overflow the budget: the stream's history goes to parts
    let events: Vec<String> = (0..200).map(|i| format!("({}, {}, {i})", i * 10, i % 3)).collect();
    db.execute(&format!("INSERT INTO s VALUES {}", events.join(", ")))
        .unwrap();
    assert!(db.catalog().table("s").unwrap().current().has_parts());
    assert!(db.stream_tick_now() > 0);
    assert!(fs.part_bytes.load(Ordering::Relaxed) > 0, "first tick reads the history");

    // Only the resident tail is new: the next tick decodes no part.
    let before = fs.part_bytes.load(Ordering::Relaxed);
    db.execute("INSERT INTO s VALUES (2000, 1, 1), (2150, 2, 2), (2310, 0, 3)")
        .unwrap();
    assert!(db.stream_tick_now() > 0);
    assert_eq!(
        fs.part_bytes.load(Ordering::Relaxed),
        before,
        "a tail-only tick must not read parts behind its cursor"
    );
    assert_sink_matches_batch(
        &db,
        "s_agg",
        "SELECT k, COUNT(*) AS n, SUM(v) AS total FROM s",
        100,
    );
}

/// Kill the process at every durable-write boundary of a streaming
/// workload. Whatever survives, recovery must yield a sink that is
/// bit-equal to the batch GROUP BY over the recovered stream contents —
/// no duplicated windows, no windows from lost events.
#[test]
fn kill_point_matrix_keeps_sink_and_batch_equal() {
    let opts = DurabilityOptions {
        fsync_on_commit: true,
        checkpoint_every_commits: 3,
        keep_checkpoints: 2,
    };
    let workload = |db: &Database| -> flock_sql::Result<()> {
        db.execute("CREATE STREAM s (et INT, k INT, v INT) WATERMARK (et, 0)")?;
        db.execute(
            "CREATE CONTINUOUS QUERY agg ON s WINDOW TUMBLING (100) \
             EMIT INTO s_agg AS SELECT k, COUNT(*) AS n, SUM(v) AS total FROM s GROUP BY k",
        )?;
        db.execute("INSERT INTO s VALUES (10, 1, 5), (60, 2, 7), (150, 1, 3)")?;
        db.stream_tick_now();
        db.execute("INSERT INTO s VALUES (220, 2, 9), (410, 1, 2)")?;
        db.stream_tick_now();
        Ok(())
    };

    // count the durable ops of a full run
    let mem = MemFs::new();
    let fp = FailpointFs::new(mem, u64::MAX);
    let db = Database::open_with_fs(fp.clone(), opts).unwrap();
    workload(&db).unwrap();
    let total_ops = fp.ops_attempted();
    assert!(total_ops > 10, "workload too small");

    for kill in 0..=total_ops {
        let mem = MemFs::new();
        let fp = FailpointFs::new(mem.clone(), kill);
        let db = Database::open_with_fs(fp, opts).unwrap();
        let _ = workload(&db); // fails once the kill point fires
        let rec = match Database::open_with_fs(mem.crash_image(), opts) {
            Ok(rec) => rec,
            Err(e) => panic!("recovery failed at kill point {kill}: {e}"),
        };
        if !rec.catalog().has_extension("cq", "agg") {
            continue; // died before the CQ existed
        }
        // drive the recovered instance: replay + close whatever the
        // recovered events' watermark allows
        rec.stream_tick_now();
        rec.stream_tick_now();
        let sink = rows_of(&rec.query("SELECT * FROM s_agg").unwrap());
        if sink.is_empty() {
            continue;
        }
        assert_sink_matches_batch(
            &rec,
            "s_agg",
            "SELECT k, COUNT(*) AS n, SUM(v) AS total FROM s",
            100,
        );
        // no window emitted twice
        let mut starts: Vec<i64> = sink
            .iter()
            .map(|r| match (&r[0], &r[1]) {
                (Value::Int(s), Value::Int(k)) => s * 1000 + k,
                _ => panic!("unexpected sink row {r:?}"),
            })
            .collect();
        let n = starts.len();
        starts.sort_unstable();
        starts.dedup();
        assert_eq!(n, starts.len(), "kill point {kill}: duplicated sink rows");
    }
}

// ------------------------------------- continuous PREDICT + policy hold

#[test]
fn continuous_predict_scores_closed_windows_and_policy_hold_fires() {
    let db = Database::new();
    db.set_inference_provider(Arc::new(RiskScorer));
    let mut admin = db.session("admin");
    admin
        .create_extension_object(
            "model",
            "risk",
            vec![1, 2, 3],
            flock_json::from_str("{}").unwrap(),
        )
        .unwrap();
    db.execute("CREATE STREAM txns (et INT, acct INT, amount INT) WATERMARK (et, 0)")
        .unwrap();
    db.execute(
        "CREATE CONTINUOUS QUERY monitor ON txns WINDOW TUMBLING (100) \
         EMIT INTO txn_scores AS \
         SELECT acct, COUNT(*) AS n, AVG(amount) AS mean_amount, \
                PREDICT(risk, AVG(amount), COUNT(*)) AS score \
         FROM txns GROUP BY acct \
         WHEN score > 0.9 THEN HOLD MODEL risk",
    )
    .unwrap();

    // window 1: calm traffic, no breach
    db.execute("INSERT INTO txns VALUES (10, 1, 20), (40, 1, 10), (160, 2, 5)")
        .unwrap();
    assert_eq!(db.stream_tick_now(), 1);
    assert_eq!(metric(&db, "stream_policy_breaches"), 0);
    let b = db.query("SELECT score FROM txn_scores").unwrap();
    assert_eq!(b.num_rows(), 1);
    // scorer: 15/100 + 2/10 = 0.35
    let Value::Float(x) = b.column(0).get(0) else {
        panic!()
    };
    assert!((x - 0.35).abs() < 1e-9, "score {x}");
    // the held-model path hasn't fired; scoring still allowed
    db.query("SELECT PREDICT(risk, amount, 1) FROM txns").unwrap();

    // window 2: a burst that breaches the threshold
    db.execute(
        "INSERT INTO txns VALUES \
         (210, 7, 95), (220, 7, 99), (230, 7, 97), (240, 7, 98), \
         (250, 7, 96), (260, 7, 94), (270, 7, 99), (280, 7, 98), \
         (290, 7, 97), (295, 7, 95), (400, 1, 1)",
    )
    .unwrap();
    assert!(db.stream_tick_now() >= 1);
    assert_eq!(metric(&db, "stream_policy_breaches"), 1);
    assert!(metric(&db, "stream_predict_windows") >= 2);

    // the breach held the model: PREDICT now refuses, and both the breach
    // and the hold are in the audit log
    let err = db
        .query("SELECT PREDICT(risk, amount, 1) FROM txns")
        .unwrap_err();
    assert!(err.to_string().contains("on hold"), "{err}");
    let audit = db.audit_log();
    assert!(
        audit.iter().any(|r| r.action == "POLICY BREACH"),
        "no POLICY BREACH audit row"
    );
    assert!(
        audit.iter().any(|r| r.action == "MODEL HOLD"),
        "no MODEL HOLD audit row"
    );
    assert!(
        audit.iter().any(|r| r.action == "HOLD BLOCKED"),
        "no HOLD BLOCKED audit row"
    );

    // the monitor's sink keeps the breaching window's scores for forensics
    let b = db
        .query("SELECT COUNT(*) FROM txn_scores WHERE score > 0.9")
        .unwrap();
    assert!(matches!(b.column(0).get(0), Value::Int(n) if n >= 1));
}

#[test]
fn held_model_blocks_cached_plans_too() {
    let db = Database::new();
    db.set_inference_provider(Arc::new(RiskScorer));
    let mut admin = db.session("admin");
    admin
        .create_extension_object(
            "model",
            "risk",
            vec![],
            flock_json::from_str("{}").unwrap(),
        )
        .unwrap();
    db.execute("CREATE TABLE t (a INT, b INT)").unwrap();
    db.execute("INSERT INTO t VALUES (1, 2)").unwrap();
    let mut s = db.session("admin");
    let prepared = s.prepare("SELECT PREDICT(risk, a, b) FROM t").unwrap();
    s.execute_prepared(&prepared, &[]).unwrap();
    // hold the model through a policy-style metadata update, then the
    // cached plan must refuse on its next execute
    let cur = db.catalog().extension("model", "risk").unwrap().current().clone();
    let mut meta = cur.metadata.clone();
    meta.as_object_mut()
        .unwrap()
        .insert("hold".into(), flock_json::Value::Bool(true));
    s.update_extension_object("model", "risk", cur.payload.clone(), meta)
        .unwrap();
    let err = s.execute_prepared(&prepared, &[]).unwrap_err();
    assert!(err.to_string().contains("on hold"), "{err}");
}

// ------------------------------------------------------ scheduler thread

#[test]
fn background_scheduler_emits_without_manual_ticks() {
    let db = Database::new();
    db.set_stream_tick_ms(5);
    db.start_stream_scheduler();
    db.execute("CREATE STREAM s (et INT, k INT) WATERMARK (et, 0)")
        .unwrap();
    db.execute(
        "CREATE CONTINUOUS QUERY agg ON s WINDOW TUMBLING (100) \
         EMIT INTO s_agg AS SELECT k, COUNT(*) AS n FROM s GROUP BY k",
    )
    .unwrap();
    db.execute("INSERT INTO s VALUES (10, 1), (20, 1), (250, 2)")
        .unwrap();
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    loop {
        let n = db.query("SELECT * FROM s_agg").unwrap().num_rows();
        if n >= 1 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "scheduler never emitted the closed window"
        );
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    let rows = rows_of(&db.query("SELECT * FROM s_agg").unwrap());
    assert_eq!(rows, vec![vec![Value::Int(0), Value::Int(1), Value::Int(2)]]);
    db.stop_stream_scheduler();
}

#[test]
fn set_stream_tick_ms_knob() {
    let db = Database::new();
    db.execute("SET stream_tick_ms = 7").unwrap();
    let err = db.execute("SET stream_tick_ms = 0").unwrap_err();
    assert!(err.to_string().contains("positive"), "{err}");
    db.execute("SET stream_tick_ms = DEFAULT").unwrap();
}
