//! Lifecycle of the one background thread behind a database: the part
//! merger and the continuous-query scheduler share a ticker that holds
//! only a weak reference to the database it serves.

use flock_sql::ast::PredictStrategy;
use flock_sql::udf::InferenceProvider;
use flock_sql::{ColumnVector, DataType, Database, DurabilityOptions, MemFs, Result, Value};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// The ticker tests count this process's `flock-*` threads, so they must
/// not overlap.
static SERIAL: Mutex<()> = Mutex::new(());

/// Names of this process's live `flock-*` threads (Linux only; elsewhere
/// the thread-leak assertions are vacuous).
fn flock_threads() -> Vec<String> {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return Vec::new();
    };
    tasks
        .flatten()
        .filter_map(|t| std::fs::read_to_string(t.path().join("comm")).ok())
        .map(|name| name.trim().to_string())
        .filter(|name| name.starts_with("flock-"))
        .collect()
}

/// Wait (bounded) until this process's `flock-*` threads are exactly
/// `expected`. Polling, because a new thread names itself only once it
/// runs and an exited one lingers in `/proc` for a moment after its join.
fn wait_for_flock_threads(expected: &[&str], why: &str) {
    if !std::path::Path::new("/proc/self/task").exists() {
        return;
    }
    let deadline = Instant::now() + Duration::from_secs(5);
    while flock_threads() != expected {
        assert!(
            Instant::now() < deadline,
            "{why}: expected {expected:?}, found {:?}",
            flock_threads()
        );
        std::thread::sleep(Duration::from_millis(2));
    }
}

fn wait_for_no_flock_threads(why: &str) {
    wait_for_flock_threads(&[], why);
}

/// A database with one stream and one continuous query over it, ticking
/// every millisecond once the scheduler starts.
fn streaming_db() -> Database {
    let db = Database::open_with_fs(MemFs::new(), DurabilityOptions::default()).unwrap();
    db.set_stream_tick_ms(1);
    db.execute("CREATE STREAM clicks (et INT, page INT) WATERMARK (et, 0)").unwrap();
    db.execute(
        "CREATE CONTINUOUS QUERY counts ON clicks WINDOW TUMBLING (10) EMIT INTO windows \
         AS SELECT page, COUNT(*) AS n FROM clicks GROUP BY page",
    )
    .unwrap();
    db
}

fn sink_rows(db: &Database) -> usize {
    db.query("SELECT * FROM windows").unwrap().num_rows()
}

/// Insert events until the background scheduler has emitted a window.
fn feed_until_emitted(db: &Database, from_et: &mut i64) {
    let deadline = Instant::now() + Duration::from_secs(10);
    let start = sink_rows(db);
    while sink_rows(db) == start {
        assert!(Instant::now() < deadline, "background scheduler never ticked");
        db.execute(&format!("INSERT INTO clicks VALUES ({}, 1)", *from_et)).unwrap();
        *from_et += 10;
        std::thread::sleep(Duration::from_millis(2));
    }
}

#[test]
fn start_and_stop_are_idempotent_in_any_order() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    wait_for_no_flock_threads("before the test");
    let db = streaming_db();
    assert!(flock_threads().is_empty(), "open_with_fs starts nothing");

    db.stop_stream_scheduler();
    db.stop_background_merge();
    db.start_stream_scheduler();
    db.start_stream_scheduler();
    db.start_background_merge();
    db.start_background_merge();
    wait_for_flock_threads(&["flock-ticker"], "one thread serves both jobs");
    let mut et = 0;
    feed_until_emitted(&db, &mut et);

    // stopping one job keeps the thread for the other
    db.stop_stream_scheduler();
    db.stop_stream_scheduler();
    wait_for_flock_threads(&["flock-ticker"], "the merger still needs its thread");
    let emitted = sink_rows(&db);
    db.execute(&format!("INSERT INTO clicks VALUES ({}, 1)", et + 100)).unwrap();
    std::thread::sleep(Duration::from_millis(30));
    assert_eq!(sink_rows(&db), emitted, "a stopped scheduler must not tick");
    assert!(db.stream_tick_now() > 0, "the manual tick still works");

    // stopping the last job stops the thread
    db.stop_background_merge();
    wait_for_no_flock_threads("after stopping both jobs");
    db.stop_background_merge();

    // and it all starts again
    db.start_stream_scheduler();
    wait_for_flock_threads(&["flock-ticker"], "restart");
    et += 200;
    feed_until_emitted(&db, &mut et);
    drop(db);
    wait_for_no_flock_threads("after dropping the only handle");
}

/// Scores nothing: reports that a tick reached `predict`, then holds the
/// tick there until the test releases it.
struct GateProbe {
    entered: Mutex<mpsc::Sender<()>>,
    release: Mutex<mpsc::Receiver<()>>,
}

impl InferenceProvider for GateProbe {
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
        self.entered.lock().unwrap().send(()).unwrap();
        let _ = self.release.lock().unwrap().recv_timeout(Duration::from_secs(10));
        ColumnVector::from_values(DataType::Float, &vec![Value::Float(0.5); inputs[0].len()])
    }
}

#[test]
fn the_ticker_may_drop_the_last_handle_itself() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    wait_for_no_flock_threads("before the test");
    // a panic on the ticker thread (a self-join would be one) fails no
    // test by itself: record it
    static TICKER_PANICKED: AtomicUsize = AtomicUsize::new(0);
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if std::thread::current().name().is_some_and(|n| n.starts_with("flock-")) {
            TICKER_PANICKED.fetch_add(1, Ordering::SeqCst);
        }
        default_hook(info);
    }));

    let (entered_tx, entered_rx) = mpsc::channel();
    let (release_tx, release_rx) = mpsc::channel();
    let db = Database::open_with_fs(MemFs::new(), DurabilityOptions::default()).unwrap();
    db.set_inference_provider(Arc::new(GateProbe {
        entered: Mutex::new(entered_tx),
        release: Mutex::new(release_rx),
    }));
    db.set_stream_tick_ms(1);
    db.session("admin")
        .create_extension_object("model", "m", vec![1], serde_json::json!({}))
        .unwrap();
    db.execute("CREATE STREAM clicks (et INT, page INT) WATERMARK (et, 0)").unwrap();
    db.execute(
        "CREATE CONTINUOUS QUERY scored ON clicks WINDOW TUMBLING (10) EMIT INTO windows \
         AS SELECT page, PREDICT(m, COUNT(*)) AS s FROM clicks GROUP BY page",
    )
    .unwrap();
    // a commit hook lives as long as the shared state: its drop is the
    // observable proof that the database itself was freed
    let token = Arc::new(());
    let held = token.clone();
    db.add_commit_hook(Arc::new(move |_, _| {
        let _ = &held;
    }));
    db.execute("INSERT INTO clicks VALUES (1, 1), (15, 1)").unwrap();
    db.start_stream_scheduler();
    db.start_background_merge();

    // the background tick is now inside the window's PREDICT, holding the
    // handle it upgraded for this tick ...
    entered_rx.recv_timeout(Duration::from_secs(10)).expect("background tick never scored");
    // ... so this drop is not the last one and must return at once,
    let started = Instant::now();
    drop(db);
    assert!(started.elapsed() < Duration::from_secs(1), "drop waited for the tick");
    assert_eq!(Arc::strong_count(&token), 2, "the tick keeps the database alive");
    // and when the tick finishes, the ticker thread itself frees the
    // database — stopping, never joining, itself.
    release_tx.send(()).unwrap();
    wait_for_no_flock_threads("after the ticker dropped the last handle");
    let _ = std::panic::take_hook();
    assert_eq!(Arc::strong_count(&token), 1, "database state leaked");
    assert_eq!(TICKER_PANICKED.load(Ordering::SeqCst), 0, "the ticker thread panicked");
}

#[test]
fn a_clone_on_another_thread_keeps_the_ticker_alive() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    wait_for_no_flock_threads("before the test");
    let db = streaming_db();
    db.start_stream_scheduler();
    let clone = db.clone();
    drop(db);
    let worker = std::thread::spawn(move || {
        // the original handle is gone; the scheduler must still be ticking
        let mut et = 0;
        feed_until_emitted(&clone, &mut et);
        feed_until_emitted(&clone, &mut et);
    });
    worker.join().unwrap();
    wait_for_no_flock_threads("after the clone dropped on its thread");
}

/// Scores by recording how many scorers are inside `predict` at once.
struct OverlapProbe {
    inside: AtomicUsize,
    max_inside: AtomicUsize,
    calls: AtomicUsize,
}

impl InferenceProvider for OverlapProbe {
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
        let now = self.inside.fetch_add(1, Ordering::SeqCst) + 1;
        self.max_inside.fetch_max(now, Ordering::SeqCst);
        self.calls.fetch_add(1, Ordering::SeqCst);
        // widen the window an interleaved tick would have to land in
        std::thread::sleep(Duration::from_micros(200));
        self.inside.fetch_sub(1, Ordering::SeqCst);
        let vals = vec![Value::Float(0.5); inputs[0].len()];
        ColumnVector::from_values(DataType::Float, &vals)
    }
}

#[test]
fn manual_and_background_ticks_never_interleave() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let probe = Arc::new(OverlapProbe {
        inside: AtomicUsize::new(0),
        max_inside: AtomicUsize::new(0),
        calls: AtomicUsize::new(0),
    });
    let db = Database::open_with_fs(MemFs::new(), DurabilityOptions::default()).unwrap();
    db.set_inference_provider(probe.clone());
    db.set_stream_tick_ms(1);
    let mut admin = db.session("admin");
    admin
        .create_extension_object("model", "m", vec![1], serde_json::json!({}))
        .unwrap();
    db.execute("CREATE STREAM clicks (et INT, page INT) WATERMARK (et, 0)").unwrap();
    // the per-window PREDICT is the only scoring in this test, so every
    // `predict` call happens inside some tick
    db.execute(
        "CREATE CONTINUOUS QUERY scored ON clicks WINDOW TUMBLING (10) EMIT INTO windows \
         AS SELECT page, PREDICT(m, COUNT(*)) AS s FROM clicks GROUP BY page",
    )
    .unwrap();
    db.start_stream_scheduler();

    let deadline = Instant::now() + Duration::from_secs(10);
    let mut et = 0;
    let mut manual_emitted = 0;
    while probe.calls.load(Ordering::SeqCst) < 60 || manual_emitted == 0 {
        assert!(Instant::now() < deadline, "ticks stalled");
        db.execute(&format!("INSERT INTO clicks VALUES ({et}, 1), ({}, 2)", et + 1)).unwrap();
        et += 10;
        manual_emitted += db.stream_tick_now();
    }
    db.stop_stream_scheduler();
    assert_eq!(probe.max_inside.load(Ordering::SeqCst), 1, "two ticks ran at once");
    // every closed window reached the sink exactly once
    let b = db.query("SELECT window_start, page FROM windows ORDER BY window_start, page").unwrap();
    let mut seen = std::collections::BTreeSet::new();
    for r in 0..b.num_rows() {
        assert!(seen.insert((b.column(0).get(r).as_i64(), b.column(1).get(r).as_i64())));
    }
}
