//! An INSERT costs the rows it adds. An in-memory table (no memory budget,
//! so every version stays resident) is loaded with 100 000 rows by
//! 100-row literal INSERTs, the shape of flockbench `ingest_durable`'s
//! `insert_100`. Two gates:
//!
//! - time: the median INSERT of the last tenth of the load takes at most
//!   1.5x the median of the first tenth. Checked in release builds only
//!   (`cargo test --release`), where the timing means something;
//! - memory, deterministically: the resident chunks held by all 1 001
//!   versions, each counted once by `Arc` identity, hold at most 4x the
//!   rows of the data.
//!
//! ~1 s of test time in release on a 2-core x86-64 host.
//!
//! Two more tests pin how such a tail reads afterwards: a DELETE over it
//! leaves every chunk read as a view but its last run of small ones, and
//! its float aggregates keep their bits across a crash reopen (WAL replay
//! rebuilds the same chunks) but only their value across a checkpoint
//! reopen (the checkpoint restores the tail as one chunk).

use flock_sql::exec::ExecOptions;
use flock_sql::table::SEAL_ROWS;
use flock_sql::{Database, DurabilityOptions, MemFs, Value};
use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;

const INSERTS: usize = 1_000;
const ROWS_PER_INSERT: usize = 100;
const REGIONS: [&str; 5] = ["amer", "emea", "apac", "latam", "anz"];

/// 100 rows from `first` on, row `k` holding `v(k)` in `v`.
fn insert_sql(first: usize, v: fn(usize) -> f64) -> String {
    let rows: Vec<String> = (first..first + ROWS_PER_INSERT)
        .map(|k| {
            let v = v(k);
            format!("({k}, {}, {v}, '{}')", k * 3, REGIONS[k % 5])
        })
        .collect();
    format!("INSERT INTO events VALUES {}", rows.join(", "))
}

fn eighths(k: usize) -> f64 {
    (k % 97) as f64 / 8.0
}

/// Create `events` and grow it by `inserts` 100-row INSERTs.
fn load(db: &Database, inserts: usize, v: fn(usize) -> f64) {
    db.execute("CREATE TABLE events (k INT, ts INT, v DOUBLE, cat VARCHAR)")
        .unwrap();
    let mut session = db.session("admin");
    for i in 0..inserts {
        session
            .execute(&insert_sql(i * ROWS_PER_INSERT, v))
            .unwrap();
    }
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

#[test]
fn an_insert_costs_the_rows_it_adds() {
    let db = Database::new();
    db.execute("CREATE TABLE events (k INT, ts INT, v DOUBLE, cat VARCHAR)")
        .unwrap();
    let statements: Vec<String> = (0..INSERTS)
        .map(|i| insert_sql(i * ROWS_PER_INSERT, eighths))
        .collect();
    let mut session = db.session("admin");
    let mut took = Vec::with_capacity(INSERTS);
    for sql in &statements {
        let started = Instant::now();
        session.execute(sql).unwrap();
        took.push(started.elapsed().as_secs_f64());
    }

    let catalog = db.catalog();
    let table = catalog.table("events").unwrap();
    let total = INSERTS * ROWS_PER_INSERT;
    assert_eq!(table.row_count(), total);
    assert_eq!(table.versions().len(), INSERTS + 1);
    let mut seen = HashSet::new();
    let mut held_rows = 0;
    for v in table.versions() {
        for chunk in v.data.chunks() {
            if seen.insert(Arc::as_ptr(chunk)) {
                held_rows += chunk.num_rows();
            }
        }
    }
    assert!(
        held_rows <= 4 * total,
        "versions hold {held_rows} distinct resident rows for {total} rows of data"
    );
    let b = db.query("SELECT COUNT(*), SUM(k) FROM events").unwrap();
    assert_eq!(
        b.row(0)[1],
        flock_sql::Value::Int((total * (total - 1) / 2) as i64)
    );

    let tenth = INSERTS / 10;
    let first = median(took[..tenth].to_vec());
    let last = median(took[INSERTS - tenth..].to_vec());
    if !cfg!(debug_assertions) {
        assert!(
            last <= 1.5 * first,
            "the last tenth's median INSERT took {:.0} µs, the first tenth's {:.0} µs",
            last * 1e6,
            first * 1e6
        );
    }
}

#[test]
fn a_delete_leaves_the_grown_tail_read_as_views() {
    let db = Database::new();
    load(&db, 200, eighths);
    // about eight rows from every sealed chunk
    db.execute("DELETE FROM events WHERE k % 500 = 0").unwrap();
    let catalog = db.catalog();
    let version = catalog.table("events").unwrap().current().clone();
    let tail = version.data.chunks();
    let scan = version.scan(None);
    let last_run = tail.len() + 1 - scan.chunk_count();
    let open: usize = tail[tail.len() - last_run..]
        .iter()
        .map(|c| c.num_rows())
        .sum();
    assert!(
        last_run == 1 || open < SEAL_ROWS,
        "{} chunks of {} rows read as one",
        last_run,
        open
    );
    for (i, chunk) in tail[..tail.len() - last_run].iter().enumerate() {
        let read = scan.chunk(i).unwrap();
        let (a, b) = (
            read.column(0).as_i64_slice(),
            chunk.column(0).as_i64_slice(),
        );
        assert_eq!(a.unwrap().as_ptr(), b.unwrap().as_ptr(), "chunk {i} copied");
    }
    let b = db.query("SELECT COUNT(*), SUM(k) FROM events").unwrap();
    let kept: Vec<i64> = (0..20_000).filter(|k| k % 500 != 0).collect();
    assert_eq!(b.row(0)[0], Value::Int(kept.len() as i64));
    assert_eq!(b.row(0)[1], Value::Int(kept.iter().sum()));
}

/// Aggregates over a resident tail grown by INSERTs, at two threads, as
/// `Debug` strings: exact columns (counts, integer sums, bounds) apart
/// from the float sums and averages.
fn aggregates(db: &Database) -> (Vec<String>, Vec<f64>) {
    db.set_exec_options(ExecOptions::with_threads(2, 1));
    let sql = [
        "SELECT COUNT(*), SUM(k), MIN(v), MAX(v), SUM(v), AVG(v) FROM events",
        "SELECT cat, COUNT(*), SUM(k), MIN(v), MAX(v), SUM(v), AVG(v) FROM events \
         GROUP BY cat ORDER BY cat",
    ];
    let (mut exact, mut floats) = (Vec::new(), Vec::new());
    for q in sql {
        let b = db.query(q).unwrap();
        for r in 0..b.num_rows() {
            let row = b.row(r);
            let (head, tail) = row.split_at(row.len() - 2);
            exact.push(format!("{head:?}"));
            floats.extend(tail.iter().map(|v| v.as_f64().unwrap()));
        }
    }
    (exact, floats)
}

#[test]
fn resident_aggregates_across_a_reopen() {
    let opts = DurabilityOptions {
        fsync_on_commit: true,
        checkpoint_every_commits: 0,
        keep_checkpoints: 2,
    };
    let mem = MemFs::new();
    let db = Database::open_with_fs(mem.clone(), opts).unwrap();
    // sevenths: float sums that round, so their association shows
    load(&db, 60, |k| k as f64 / 7.0);
    let chunks = |db: &Database| {
        let catalog = db.catalog();
        let table = catalog.table("events").unwrap();
        table.current().data.chunks().len()
    };
    assert!(chunks(&db) > 2, "the INSERTs left one chunk");
    let (exact, floats) = aggregates(&db);
    let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();

    // WAL replay appends the same deltas: the same chunks, the same bits
    drop(db);
    let mem = mem.crash_image();
    let db = Database::open_with_fs(mem.clone(), opts).unwrap();
    let replayed = aggregates(&db);
    assert_eq!(replayed.0, exact);
    assert_eq!(bits(&replayed.1), bits(&floats));

    // A checkpoint restores the tail as one chunk: float sums associate
    // over its morsels instead, so only their value is kept.
    db.checkpoint_now().unwrap();
    drop(db);
    let mem = mem.clean_image();
    let db = Database::open_with_fs(mem.clone(), opts).unwrap();
    assert_eq!(chunks(&db), 1);
    let reopened = aggregates(&db);
    assert_eq!(reopened.0, exact);
    for (a, b) in reopened.1.iter().zip(&floats) {
        assert!((a - b).abs() <= 1e-12 * b.abs(), "{a} vs {b}");
    }
    drop(db);
    let db = Database::open_with_fs(mem.clean_image(), opts).unwrap();
    assert_eq!(bits(&aggregates(&db).1), bits(&reopened.1));
}

/// Shapes whose operators above the scan compose onto its chunk map
/// (projections, filters, an aggregate over a projection) or gather its
/// chunks (LIMIT, DISTINCT, UNION ALL, a join, a top-K), over `{t}`.
const COMPOSED: [&str; 9] = [
    "SELECT k, v FROM {t}",
    "SELECT k, v * 2.0 + ts AS w FROM {t}",
    "SELECT * FROM (SELECT k, v * 3.0 AS w, cat FROM {t}) s WHERE w > 20.0 AND k % 3 = 1",
    "SELECT cat, COUNT(*), SUM(w), MIN(w), MAX(w), AVG(w) \
     FROM (SELECT cat, v * 2.0 + 0.125 AS w FROM {t}) s GROUP BY cat ORDER BY cat",
    "SELECT k, v FROM {t} LIMIT 50 OFFSET 4000",
    "SELECT DISTINCT cat, k % 7 FROM {t}",
    "SELECT k, v FROM {t} WHERE k < 300 UNION ALL SELECT k, v FROM {t} WHERE k >= 14700",
    "SELECT a.k, b.v, b.cat FROM {t} a JOIN {t} b ON a.k = b.ts WHERE a.k % 5 = 0",
    "SELECT k, v FROM {t} ORDER BY v DESC, k LIMIT 20",
];

/// Each operator of the plan the session ran last: depth, name, rows in
/// and rows out.
fn row_counts(session: &flock_sql::Session) -> Vec<(usize, String, u64, u64)> {
    let snapshot = session.last_query_metrics().unwrap();
    (snapshot.walk().into_iter())
        .map(|(depth, op)| (depth, op.name.clone(), op.rows_in, op.rows_out))
        .collect()
}

#[test]
fn composed_operators_read_a_grown_tail_as_its_one_chunk_copy() {
    let db = Database::new();
    load(&db, 150, eighths);
    db.execute("CREATE TABLE flat (k INT, ts INT, v DOUBLE, cat VARCHAR)")
        .unwrap();
    db.execute("INSERT INTO flat SELECT * FROM events").unwrap();
    let chunks = |t: &str| {
        let catalog = db.catalog();
        let version = catalog.table(t).unwrap().current().clone();
        version.scan(None).chunk_count()
    };
    assert!(chunks("events") >= 4, "sealed runs and an open one");
    assert_eq!(chunks("flat"), 1);
    for threads in [1, 2] {
        db.set_exec_options(ExecOptions::with_threads(threads, 64));
        let mut session = db.session("admin");
        for shape in COMPOSED {
            let [grown, flat] = ["events", "flat"].map(|t| shape.replace("{t}", t));
            let rows = |sql: &str| {
                let b = db.query(sql).unwrap();
                (0..b.num_rows())
                    .map(|r| format!("{:?}", b.row(r)))
                    .collect::<Vec<_>>()
            };
            let want = rows(&flat);
            assert!(!want.is_empty(), "{flat}");
            assert_eq!(rows(&grown), want, "{threads} threads: {grown}");
            session.execute(&format!("EXPLAIN ANALYZE {flat}")).unwrap();
            let want = row_counts(&session);
            session.execute(&format!("EXPLAIN ANALYZE {grown}")).unwrap();
            assert_eq!(row_counts(&session), want, "{threads} threads: {grown}");
        }
    }
}
