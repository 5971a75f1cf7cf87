//! Disk-resident part tests: memory-budget offload must be invisible to
//! queries, zone maps must prune, merges must stay purely physical, and
//! every crash point across part flush / merge / checkpoint must recover
//! to a committed state. Extends the recovery kill-point matrix over the
//! part lifecycle and pins the checkpoint-prune regression (retained
//! generations must never reference deleted part files).

use flock_sql::{Database, DurabilityOptions, FailpointFs, MemFs, Value};
use std::collections::HashSet;
use std::sync::Arc;

/// Small enough that a few dozen rows of (INT, DOUBLE, VARCHAR) overflow
/// it: 3 columns x 8 bytes/cell => over budget past 170 resident rows,
/// flushed in 85-row parts.
const BUDGET: u64 = 4096;

fn opts_fsync() -> DurabilityOptions {
    DurabilityOptions {
        fsync_on_commit: true,
        checkpoint_every_commits: 4,
        keep_checkpoints: 2,
    }
}

/// INSERT `n` rows starting at key `lo`: monotone `k`, exact-binary `v`
/// (k/2, so float sums are order-independent), low-cardinality `cat`.
fn insert_chunk(db: &Database, lo: i64, n: i64) -> flock_sql::Result<()> {
    let rows: Vec<String> = (lo..lo + n)
        .map(|k| format!("({k}, {}.{}, 'c{}')", k / 2, if k % 2 == 0 { 0 } else { 5 }, k % 3))
        .collect();
    db.execute(&format!("INSERT INTO t VALUES {}", rows.join(", ")))
        .map(|_| ())
}

fn rows_of(b: &flock_sql::RecordBatch) -> Vec<Vec<Value>> {
    (0..b.num_rows())
        .map(|i| (0..b.num_columns()).map(|c| b.column(c).get(i)).collect())
        .collect()
}

/// Run every comparison query on both databases and assert identical
/// results (the workload has no NULLs, so plain equality is exact).
fn assert_same_results(budgeted: &Database, reference: &Database, context: &str) {
    // The oldest version of `t` with disk parts: older than the current
    // one whenever history still holds it.
    let oldest_parts = budgeted
        .catalog()
        .table("t")
        .ok()
        .and_then(|t| t.versions().iter().find(|v| v.has_parts()).map(|v| v.version));
    let time_travel = oldest_parts
        .map(|v| format!("SELECT COUNT(*), SUM(v), MAX(k) FROM t VERSION {v} WHERE k > 20"));
    for q in [
        "SELECT k, v, cat FROM t ORDER BY k",
        "SELECT COUNT(*), SUM(v), MIN(k), MAX(k) FROM t",
        "SELECT cat, COUNT(*), SUM(v) FROM t GROUP BY cat ORDER BY cat",
        "SELECT k, v FROM t WHERE k BETWEEN 100 AND 110 ORDER BY k",
        "SELECT COUNT(*) FROM t WHERE cat = 'c1'",
        "SELECT cat, COUNT(*), SUM(v) FROM t WHERE k > 50 GROUP BY cat ORDER BY cat",
        "SELECT k, v FROM t WHERE cat = 'c2' ORDER BY k",
        "SELECT t.k, t.v, u.w FROM t JOIN u ON t.k = u.k WHERE u.w = 3 ORDER BY t.k",
    ]
    .into_iter()
    .chain(time_travel.as_deref())
    {
        let a = budgeted.query(q).unwrap_or_else(|e| panic!("{context}: {q}: {e}"));
        let b = reference.query(q).unwrap();
        assert_eq!(rows_of(&a), rows_of(&b), "{context}: {q}");
    }
}

fn metric(db: &Database, name: &str) -> i64 {
    let b = db
        .query(&format!("SELECT value FROM flock_metrics WHERE metric = '{name}'"))
        .unwrap();
    assert_eq!(b.num_rows(), 1, "metric {name} not registered");
    match b.column(0).get(0) {
        Value::Int(v) => v,
        other => panic!("metric {name}: {other:?}"),
    }
}

/// Budgeted durable database plus an unbudgeted in-memory reference fed
/// the same rows: `t`, and `u (k, w)` to join it with (offloaded too once
/// past 256 rows).
fn budgeted_pair(total_rows: i64) -> (Database, Database, Arc<MemFs>) {
    let mem = MemFs::new();
    let db = Database::open_with_fs(mem.clone(), opts_fsync()).unwrap();
    db.set_table_memory_budget(BUDGET);
    let reference = Database::new();
    for d in [&db, &reference] {
        d.execute("CREATE TABLE t (k INT, v DOUBLE, cat VARCHAR)").unwrap();
        d.execute("CREATE TABLE u (k INT, w INT)").unwrap();
    }
    let mut lo = 0;
    while lo < total_rows {
        let n = 48.min(total_rows - lo);
        let u_rows: Vec<String> = (lo..lo + n).map(|k| format!("({k}, {})", k % 7)).collect();
        for d in [&db, &reference] {
            insert_chunk(d, lo, n).unwrap();
            d.execute(&format!("INSERT INTO u VALUES {}", u_rows.join(", ")))
                .unwrap();
        }
        lo += n;
    }
    (db, reference, mem)
}

// --------------------------------------------------- offload correctness

#[test]
fn offloaded_table_matches_resident_reference_through_merge_and_reopen() {
    let (db, reference, mem) = budgeted_pair(384);
    assert!(
        metric(&db, "parts_total") >= 4,
        "384 rows under a {BUDGET}-byte budget must have flushed parts"
    );
    assert_same_results(&db, &reference, "after offload");

    // Merging is purely physical: same answers, same logical digest. The
    // scan-sized budget blocks merges (a merged part would overflow the
    // scan envelope), so lift it for the merge pass.
    let before = db.state_digest();
    db.set_table_memory_budget(0);
    assert!(db.merge_now() > 0, "consecutive level-0 parts must merge");
    db.set_table_memory_budget(BUDGET);
    assert_eq!(db.state_digest(), before, "merge must not change the logical state");
    assert!(metric(&db, "parts_merged") > 0);
    assert_same_results(&db, &reference, "after merge");

    // Reopen from a clean shutdown: parts + WAL tail reconstruct the
    // exact state.
    db.checkpoint_now().unwrap();
    let digest = db.state_digest();
    drop(db);
    let rec = Database::open_with_fs(mem.clean_image(), opts_fsync()).unwrap();
    assert_eq!(rec.state_digest(), digest, "reopen must be bit-identical");
    rec.set_table_memory_budget(BUDGET);
    assert_same_results(&rec, &reference, "after reopen");

    // The reopened engine keeps offloading: more writes, still correct.
    insert_chunk(&rec, 384, 48).unwrap();
    insert_chunk(&reference, 384, 48).unwrap();
    insert_chunk(&rec, 432, 48).unwrap();
    insert_chunk(&reference, 432, 48).unwrap();
    assert_same_results(&rec, &reference, "writes after reopen");
}

#[test]
fn update_delete_and_alter_see_offloaded_rows() {
    let (db, reference, _mem) = budgeted_pair(384);
    for d in [&db, &reference] {
        d.execute("UPDATE t SET v = 0.0 WHERE k < 10").unwrap();
        d.execute("DELETE FROM t WHERE k >= 300").unwrap();
        d.execute("ALTER TABLE t ADD COLUMN flag INT").unwrap();
    }
    assert_same_results(&db, &reference, "after rewrite DML over parts");
    let a = db.query("SELECT COUNT(*), SUM(v) FROM t WHERE v = 0.0").unwrap();
    let b = reference.query("SELECT COUNT(*), SUM(v) FROM t WHERE v = 0.0").unwrap();
    assert_eq!(rows_of(&a), rows_of(&b));
}

#[test]
fn set_table_memory_budget_knob() {
    let mem = MemFs::new();
    let db = Database::open_with_fs(mem, opts_fsync()).unwrap();
    let mut s = db.session("admin");
    s.execute(&format!("SET table_memory_budget = {BUDGET}")).unwrap();
    assert_eq!(db.table_memory_budget(), BUDGET);
    db.execute("CREATE TABLE t (k INT, v DOUBLE, cat VARCHAR)").unwrap();
    insert_chunk(&db, 0, 200).unwrap();
    assert!(metric(&db, "parts_total") > 0, "SET budget must enable offload");
    s.execute("SET table_memory_budget = DEFAULT").unwrap();
    assert_eq!(db.table_memory_budget(), 0);
    assert!(s.execute("SET table_memory_budget = 'lots'").is_err());
    assert!(s.execute("SET table_memory_budget = -1").is_err());
}

// ------------------------------------------------- pruning & observability

#[test]
fn explain_analyze_reports_zone_map_pruning() {
    let (db, _reference, _mem) = budgeted_pair(384);
    let b = db
        .query("EXPLAIN ANALYZE SELECT SUM(v) FROM t WHERE k BETWEEN 0 AND 40")
        .unwrap();
    let tree: String = (0..b.num_rows())
        .map(|i| match b.column(0).get(i) {
            Value::Text(s) => s + "\n",
            other => panic!("{other:?}"),
        })
        .collect();
    // one Scan line: rows read, parts pruned, the fused filter
    let scan = tree.lines().find(|l| l.contains("Scan [")).unwrap_or_else(|| panic!("{tree}"));
    assert!(scan.contains("parts pruned"), "{tree}");
    assert!(scan.contains("fused filter"), "{tree}");
    assert!(!tree.contains("Filter ["), "the filter is fused into the scan: {tree}");
    // k is monotone across parts, so a low-range predicate must prune
    // at least one part whose zone lies entirely above it.
    let pruned_before = metric(&db, "zonemap_parts_pruned");
    db.query("SELECT SUM(v) FROM t WHERE k BETWEEN 0 AND 40").unwrap();
    assert!(
        metric(&db, "zonemap_parts_pruned") > pruned_before,
        "selective scan must prune parts via zone maps: {tree}"
    );
    assert!(metric(&db, "zonemap_parts_scanned") > 0);
}

#[test]
fn part_and_merge_counters_surface_in_flock_metrics() {
    let (db, _reference, _mem) = budgeted_pair(384);
    db.query("SELECT SUM(v) FROM t WHERE k < 40").unwrap();
    assert!(metric(&db, "parts_total") > 0);
    assert!(metric(&db, "part_bytes_on_disk") > 0);
    // RLE/FOR on the monotone int column and a dictionary on the
    // low-cardinality text column must beat the raw footprint.
    assert!(
        metric(&db, "part_bytes_uncompressed") > metric(&db, "part_bytes_on_disk"),
        "compressed parts must be smaller than their decoded form"
    );
    assert!(metric(&db, "zonemap_parts_scanned") > 0);
    assert_eq!(metric(&db, "parts_merged"), 0);
    db.set_table_memory_budget(0);
    db.merge_now();
    assert!(metric(&db, "parts_merged") > 0);
}

/// Rows the most recent query read, as its query-log entry records them.
fn logged_rows_scanned(db: &Database, sql: &str) -> u64 {
    db.query(sql).unwrap();
    let log = db.query_log();
    let entry = log.iter().rev().find(|e| e.sql == sql).expect("query logged");
    entry.rows_scanned
}

#[test]
fn rows_scanned_is_rows_read_resident_or_offloaded() {
    let (db, reference, _mem) = budgeted_pair(384);
    // `cat` has no zone-map bounds, so no part prunes: both tables are
    // read whole, and the fused filter's survivors are not what counts.
    for sql in [
        "SELECT COUNT(*) FROM t WHERE cat = 'c1'",
        "SELECT cat, COUNT(*) FROM t WHERE cat <> 'c0' GROUP BY cat",
    ] {
        assert_eq!(logged_rows_scanned(&db, sql), 384, "offloaded: {sql}");
        assert_eq!(logged_rows_scanned(&reference, sql), 384, "resident: {sql}");
        let snap = db.last_query_metrics().unwrap();
        assert_eq!(snap.rows_scanned(), 384, "{sql}");
    }
}

/// The scan gates, as counts: a zone-selective query reads at most half
/// the rows of the full scan, before and after a merge; no decoded part
/// and no resident tail outgrows the memory budget.
#[test]
fn selective_scans_prune_and_stay_within_the_budget() {
    let (db, _reference, _mem) = budgeted_pair(384);
    let full = "SELECT MIN(k), SUM(v), MAX(cat) FROM t";
    let selective = "SELECT COUNT(*), SUM(v) FROM t WHERE k BETWEEN 300 AND 340";
    let check = |context: &str| {
        // pruning happens at plan time; a cached plan would skip it
        db.plan_cache().clear();
        let all = logged_rows_scanned(&db, full);
        assert_eq!(all, 384, "{context}");
        let pruned_before = metric(&db, "zonemap_parts_pruned");
        let read = logged_rows_scanned(&db, selective);
        assert!(2 * read <= all, "{context}: selective scan read {read} of {all} rows");
        assert!(metric(&db, "zonemap_parts_pruned") > pruned_before, "{context}");
    };
    let tail = db.catalog().table("t").unwrap().current().data.num_rows() as u64;
    assert!(tail * 3 * 8 <= BUDGET, "resident tail of {tail} rows is over the budget");
    check("after offload");
    assert!(metric(&db, "part_scan_peak_bytes") as u64 <= BUDGET);

    // A raised budget lets runs of level-0 parts merge; pruning must keep
    // working on the merged layout, and decoding within the new envelope.
    db.set_table_memory_budget(BUDGET * 4);
    assert!(db.merge_now() > 0, "raising the budget must enable compaction");
    check("after merge");
    assert!(metric(&db, "part_scan_peak_bytes") as u64 <= BUDGET * 4);
}

// --------------------------------------------------- kill-point matrix

/// Deterministic workload covering the part lifecycle: offload inside an
/// INSERT commit, a synchronous merge pass, checkpoints that make parts
/// reachable, and UPDATE / DELETE that rewrite the parts they touch and
/// log row deltas — one touching a middle part and the resident tail, one
/// emptying a whole part, one rolled back. Every step leaves the engine in
/// a digestable committed state.
const STEPS: usize = 21;

/// `DELETE` exactly the rows of the current version's second part (keys
/// are unique and ascending across parts), or nothing if it has none.
fn delete_second_part(db: &Database) -> flock_sql::Result<()> {
    let catalog = db.catalog();
    let cur = catalog.table("t")?.current().clone();
    let Some(zone) = cur.parts.get(1).map(|p| p.zones[0].clone()) else {
        return Ok(());
    };
    let (lo, hi) = (zone.min.unwrap(), zone.max.unwrap());
    db.execute(&format!("DELETE FROM t WHERE k BETWEEN {lo} AND {hi}"))
        .map(|_| ())
}

fn apply_step(db: &Database, i: usize) -> flock_sql::Result<()> {
    match i {
        0 => db
            .execute("CREATE TABLE t (k INT, v DOUBLE, cat VARCHAR)")
            .map(|_| ()),
        1 => insert_chunk(db, 0, 48),
        2 => insert_chunk(db, 48, 48),
        3 => insert_chunk(db, 96, 48),
        // 192 resident rows > budget: this commit flushes 3 parts.
        4 => insert_chunk(db, 144, 48),
        5 => insert_chunk(db, 192, 48),
        6 => insert_chunk(db, 240, 48),
        7 => insert_chunk(db, 288, 48),
        // second flush: 6 level-0 parts on disk now
        8 => insert_chunk(db, 336, 48),
        9 => {
            // Merge under the default cap (physical only, no WAL traffic;
            // a failed write mid-merge must leave the state untouched).
            db.set_table_memory_budget(0);
            db.merge_now();
            db.set_table_memory_budget(BUDGET);
            Ok(())
        }
        10 => db.checkpoint_now().map(|_| ()),
        // UPDATE / DELETE rewrite the parts holding a changed row
        11 => db.execute("UPDATE t SET v = 0.0 WHERE k < 10").map(|_| ()),
        12 => db.execute("DELETE FROM t WHERE k >= 360").map(|_| ()),
        13 => db.checkpoint_now().map(|_| ()),
        14 => db.query("SELECT cat, COUNT(*) FROM t GROUP BY cat").map(|_| ()),
        // three more parts behind the merged one, then a resident tail
        15 => insert_chunk(db, 400, 200),
        16 => insert_chunk(db, 600, 20),
        // one UPDATE that edits a middle part (no zone bounds under OR)
        // and the tail together
        17 => db
            .execute("UPDATE t SET v = v + 1.0, cat = 'upd' WHERE k = 500 OR k >= 610")
            .map(|_| ()),
        18 => delete_second_part(db),
        19 => {
            // the rolled-back UPDATE writes a part no state references
            let mut s = db.session("admin");
            s.execute("BEGIN")?;
            s.execute("UPDATE t SET v = -1.0 WHERE k = 200")?;
            s.execute("ROLLBACK").map(|_| ())
        }
        20 => db.checkpoint_now().map(|_| ()),
        _ => unreachable!("workload has {STEPS} steps"),
    }
}

fn open_budgeted(fs: Arc<dyn flock_sql::DurableFs>, opts: DurabilityOptions) -> Database {
    let db = Database::open_with_fs(fs, opts).unwrap();
    db.set_table_memory_budget(BUDGET);
    db
}

fn count_ops(opts: DurabilityOptions) -> u64 {
    let fp = FailpointFs::new(MemFs::new(), u64::MAX);
    let db = open_budgeted(fp.clone(), opts);
    for i in 0..STEPS {
        apply_step(&db, i).unwrap();
    }
    fp.ops_attempted()
}

/// The recovery-test kill matrix, extended over part flush, merge, and
/// checkpoint-of-parts boundaries. With fsync-on-commit, recovery must
/// reproduce the killed instance's surviving state digest-exactly —
/// including states whose tables live mostly in disk parts.
fn kill_matrix(opts: DurabilityOptions, exact_when_fsync: bool) {
    let total_ops = count_ops(opts);
    assert!(total_ops > 40, "workload too small to exercise part kill points");

    for k in 0..=total_ops {
        let mem = MemFs::new();
        let fp = FailpointFs::new(mem.clone(), k);
        let db = open_budgeted(fp.clone(), opts);
        let mut prefix_digests: HashSet<u64> = HashSet::from([db.state_digest()]);
        let mut steps_ok = 0usize;
        for i in 0..STEPS {
            match apply_step(&db, i) {
                Ok(()) => {
                    steps_ok += 1;
                    prefix_digests.insert(db.state_digest());
                }
                Err(e) => {
                    assert!(
                        fp.killed(),
                        "kill point {k} step {i}: failed before the kill: {e}"
                    );
                    prefix_digests.insert(db.state_digest());
                }
            }
        }
        let survivor = db.state_digest();

        let image = mem.crash_image();
        let rec = Database::open_with_fs(image, opts)
            .unwrap_or_else(|e| panic!("recovery failed at kill point {k}: {e}"));
        let recovered = rec.state_digest();

        assert!(
            prefix_digests.contains(&recovered),
            "kill point {k}: recovered digest {recovered:#x} is not any \
             committed prefix ({steps_ok} steps committed)"
        );
        if exact_when_fsync {
            assert_eq!(
                recovered, survivor,
                "kill point {k}: fsynced recovery diverged from the \
                 surviving in-memory state ({steps_ok} steps committed)"
            );
        }
    }
}

#[test]
fn kill_point_matrix_over_part_lifecycle_fsync_recovers_exactly() {
    kill_matrix(opts_fsync(), true);
}

#[test]
fn kill_point_matrix_over_part_lifecycle_buffered_recovers_a_prefix() {
    let opts = DurabilityOptions {
        fsync_on_commit: false,
        checkpoint_every_commits: 4,
        keep_checkpoints: 2,
    };
    kill_matrix(opts, false);
}

// ------------------------------------------- part-granular UPDATE/DELETE

fn part_files(mem: &MemFs) -> HashSet<String> {
    mem.file_names()
        .into_iter()
        .filter(|n| n.starts_with("part.") && !n.ends_with(".tmp"))
        .collect()
}

#[test]
fn one_row_update_rewrites_exactly_one_part() {
    let (db, reference, _mem) = budgeted_pair(384);
    assert!(db.catalog().table("t").unwrap().current().parts.len() >= 4);
    let (rewritten, total) = (metric(&db, "parts_rewritten"), metric(&db, "parts_total"));
    for d in [&db, &reference] {
        d.execute("UPDATE t SET v = 99.5 WHERE k = 200").unwrap();
    }
    assert_eq!(metric(&db, "parts_rewritten"), rewritten + 1);
    assert!(metric(&db, "parts_total") <= total + 1);
    // a match-free UPDATE and a whole-table DELETE write no part
    for d in [&db, &reference] {
        d.execute("UPDATE t SET v = 0.5 WHERE k = 100000").unwrap();
    }
    assert_eq!(metric(&db, "parts_rewritten"), rewritten + 1);
    assert_same_results(&db, &reference, "after a one-row UPDATE");
    for d in [&db, &reference] {
        d.execute("DELETE FROM u").unwrap();
    }
    assert_eq!(metric(&db, "parts_rewritten"), rewritten + 1);
    let left = db.query("SELECT COUNT(*) FROM u").unwrap();
    assert_eq!(left.column(0).get(0), Value::Int(0));
}

#[test]
fn rolled_back_update_part_is_reclaimed_by_checkpoints() {
    let (db, _reference, mem) = budgeted_pair(384);
    db.checkpoint_now().unwrap();
    let before = part_files(&mem);
    let mut s = db.session("admin");
    s.execute("BEGIN").unwrap();
    s.execute("UPDATE t SET v = -1.0 WHERE k = 200").unwrap();
    let written: Vec<String> = part_files(&mem).difference(&before).cloned().collect();
    assert_eq!(written.len(), 1, "the UPDATE rewrote one part: {written:?}");
    // While the transaction is open a checkpoint must not prune its part.
    db.checkpoint_now().unwrap();
    assert!(part_files(&mem).contains(&written[0]));
    s.execute("ROLLBACK").unwrap();
    db.checkpoint_now().unwrap();
    db.checkpoint_now().unwrap();
    assert!(
        !part_files(&mem).contains(&written[0]),
        "the rolled-back part must be reclaimed"
    );
}

// --------------------------------------------- torn files and fallback

#[test]
fn orphaned_part_tmp_is_swept_on_open() {
    let (db, _reference, mem) = budgeted_pair(384);
    db.checkpoint_now().unwrap();
    let digest = db.state_digest();
    drop(db);
    let image = mem.clean_image();
    // A crash mid-part-write leaves only a `.tmp`: recovery must ignore
    // and remove it without touching the logical state.
    image.put_file("part.00099999.tmp", vec![0xDE, 0xAD, 0xBE, 0xEF]);
    let rec = Database::open_with_fs(image.clone(), opts_fsync()).unwrap();
    assert_eq!(rec.state_digest(), digest);
    assert!(
        !image.file_names().iter().any(|n| n.ends_with(".tmp")),
        "part tmps must be swept at open: {:?}",
        image.file_names()
    );
}

#[test]
fn corrupt_or_missing_part_falls_back_a_checkpoint_generation() {
    let opts = opts_fsync();
    let mem = MemFs::new();
    let db = Database::open_with_fs(mem.clone(), opts).unwrap();
    db.execute("CREATE TABLE t (k INT, v DOUBLE, cat VARCHAR)").unwrap();
    // Generation 1: resident-only state, checkpointed without parts.
    insert_chunk(&db, 0, 48).unwrap();
    db.checkpoint_now().unwrap();
    // Generation 2: offload, then checkpoint a part-referencing snapshot.
    db.set_table_memory_budget(BUDGET);
    insert_chunk(&db, 48, 144).unwrap();
    db.checkpoint_now().unwrap();
    assert!(metric(&db, "parts_total") > 0);
    let digest = db.state_digest();
    drop(db);

    let parts: Vec<String> = mem
        .clean_image()
        .file_names()
        .into_iter()
        .filter(|n| n.starts_with("part.") && !n.ends_with(".tmp"))
        .collect();
    assert!(!parts.is_empty());

    // Torn part (byte flip): the newest checkpoint references a part that
    // no longer checksums, so recovery must reject that generation and
    // replay the WAL from the older one to the same final state.
    let image = mem.clean_image();
    let mut bytes = image.file(&parts[0]).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    image.put_file(&parts[0], bytes);
    let rec = Database::open_with_fs(image, opts).expect("fallback must succeed");
    assert_eq!(rec.state_digest(), digest, "fallback after part corruption");

    // Missing part file entirely: same fallback.
    let image = mem.clean_image();
    image.remove_file(&parts[0]);
    let rec = Database::open_with_fs(image, opts).expect("fallback must succeed");
    assert_eq!(rec.state_digest(), digest, "fallback after part deletion");

    // Corrupt newest manifest (checkpoint) with parts in play: also falls
    // back a generation.
    let image = mem.clean_image();
    let mut checkpoints: Vec<String> = image
        .file_names()
        .into_iter()
        .filter(|n| n.starts_with("checkpoint."))
        .collect();
    checkpoints.sort();
    assert!(checkpoints.len() >= 2, "need two generations: {checkpoints:?}");
    let newest = checkpoints.last().unwrap().clone();
    let mut garbage = image.file(&newest).unwrap();
    let mid = garbage.len() / 2;
    garbage[mid] ^= 0xFF;
    image.put_file(&newest, garbage);
    let rec = Database::open_with_fs(image, opts).unwrap();
    assert_eq!(rec.state_digest(), digest, "fallback after manifest corruption");
}

/// Regression: checkpoint pruning must compute the live part set as the
/// union over ALL retained generations — pruning by the newest alone
/// deletes files an older retained checkpoint still references, which
/// turns a routine fallback into data loss.
#[test]
fn prune_then_recover_from_older_generation() {
    let opts = opts_fsync();
    let mem = MemFs::new();
    let db = Database::open_with_fs(mem.clone(), opts).unwrap();
    db.set_table_memory_budget(BUDGET);
    db.execute("CREATE TABLE t (k INT, v DOUBLE, cat VARCHAR)").unwrap();
    for step in 0..8 {
        insert_chunk(&db, step * 48, 48).unwrap();
    }
    let small_parts = mem
        .file_names()
        .iter()
        .filter(|n| n.starts_with("part.") && !n.ends_with(".tmp"))
        .count();
    assert!(small_parts >= 6);

    // Merge retires the small parts logically; two checkpoint generations
    // later no retained manifest references them, and pruning may delete
    // the files.
    db.set_table_memory_budget(0);
    assert!(db.merge_now() > 0);
    db.set_table_memory_budget(BUDGET);
    db.checkpoint_now().unwrap();
    insert_chunk(&db, 384, 8).unwrap();
    db.checkpoint_now().unwrap();
    insert_chunk(&db, 392, 8).unwrap();
    db.checkpoint_now().unwrap();
    let remaining = mem
        .file_names()
        .iter()
        .filter(|n| n.starts_with("part.") && !n.ends_with(".tmp"))
        .count();
    assert!(
        remaining < small_parts,
        "pruning must reclaim merged-away part files ({small_parts} -> {remaining})"
    );
    let digest = db.state_digest();
    drop(db);

    // Every retained generation must still be fully readable: recover
    // from the newest, then force fallback by deleting it and recover
    // from the older generation. If pruning had deleted a part the older
    // generation references, this is where it would detonate.
    let image = mem.clean_image();
    assert_eq!(
        Database::open_with_fs(image.clone(), opts).unwrap().state_digest(),
        digest
    );
    let mut checkpoints: Vec<String> = image
        .file_names()
        .into_iter()
        .filter(|n| n.starts_with("checkpoint."))
        .collect();
    checkpoints.sort();
    assert!(checkpoints.len() >= 2, "{checkpoints:?}");
    image.remove_file(checkpoints.last().unwrap());
    let rec = Database::open_with_fs(image, opts)
        .expect("older retained generation must recover after prune");
    assert_eq!(rec.state_digest(), digest, "fallback generation lost part data");
}

/// Regression: a merge splices parts into the current version without
/// bumping its version number, and checkpoint pruning later deletes the
/// merged-away part files. A cached or prepared SELECT bound before the
/// merge must be rebound to the merged layout, not read the deleted parts.
#[test]
fn cached_plans_rebind_across_merge_and_part_pruning() {
    let (db, reference, _mem) = budgeted_pair(384);
    let total = "SELECT COUNT(*), SUM(v) FROM t";
    for _ in 0..2 {
        db.query(total).unwrap();
    }
    let mut session = db.session("admin");
    let prepared = session.prepare("SELECT COUNT(*), SUM(v) FROM t WHERE k >= ?").unwrap();
    session.execute_prepared(&prepared, &[Value::Int(10)]).unwrap();

    db.set_table_memory_budget(0);
    assert!(db.merge_now() > 0, "consecutive level-0 parts must merge");
    db.set_table_memory_budget(BUDGET);
    for step in 0..3 {
        db.checkpoint_now().unwrap();
        db.execute(&format!("INSERT INTO u VALUES ({}, 0)", 1000 + step)).unwrap();
    }

    let want = rows_of(&reference.query(total).unwrap());
    assert_eq!(rows_of(&db.query(total).unwrap()), want, "cached SELECT after merge");
    let got = session
        .execute_prepared(&prepared, &[Value::Int(10)])
        .unwrap()
        .batch
        .unwrap();
    let want = reference
        .query("SELECT COUNT(*), SUM(v) FROM t WHERE k >= 10")
        .unwrap();
    assert_eq!(rows_of(&got), rows_of(&want), "prepared SELECT after merge");
}

/// Wide frame-of-reference columns (deltas needing ~61-63 bits) must
/// round-trip through the part codec bit-exactly. Regression for the FOR
/// bit-packer's u64 accumulator dropping high bits once width + residual
/// bits exceeded 64 (folded in from the since-removed tmp_for_width.rs).
#[test]
fn wide_for_roundtrip() {
    use flock_sql::batch::RecordBatch;
    use flock_sql::column::ColumnVector;
    use flock_sql::parts::{decode_part, encode_part};
    use flock_sql::schema::Schema;
    use flock_sql::types::DataType;

    // distinct values spanning ~2^61 so FOR with width 61-63 is chosen
    let vals: Vec<i64> = (0..1000i64).map(|i| i * 3_000_000_000_000_000).collect();
    let schema = Arc::new(Schema::from_pairs(&[("k", DataType::Int)]));
    let b = RecordBatch::new(schema, vec![ColumnVector::from_i64(vals.clone())]).unwrap();
    let (file, _) = encode_part(1, 0, &b);
    let p = decode_part(&file, None).unwrap();
    for (i, v) in vals.iter().enumerate() {
        assert_eq!(p.batch.column(0).get(i), Value::Int(*v), "row {i}");
    }
}

// ------------------------------------------------------- part lifetime

fn opts_manual() -> DurabilityOptions {
    DurabilityOptions {
        fsync_on_commit: true,
        checkpoint_every_commits: 0,
        keep_checkpoints: 2,
    }
}

/// 16 × 48-row INSERTs into `t` under the budget: 768 rows, most of them
/// in level-0 parts that a merge can fold.
fn sixteen_inserts(fs: Arc<dyn flock_sql::DurableFs>) -> Database {
    let db = open_budgeted(fs, opts_manual());
    db.execute("CREATE TABLE t (k INT, v DOUBLE, cat VARCHAR)").unwrap();
    db.execute("CREATE TABLE u (k INT, w INT)").unwrap();
    for i in 0..16 {
        insert_chunk(&db, i * 48, 48).unwrap();
    }
    db
}

fn part_ids(db: &Database) -> HashSet<u64> {
    let catalog = db.catalog();
    let t = catalog.table("t").unwrap();
    t.current().parts.iter().map(|p| p.id).collect()
}

/// Merge `t`, truncate its history and take three checkpoints: no
/// retained checkpoint names the merged-away parts any more. Returns their
/// file names.
fn merge_and_checkpoint_thrice(db: &Database) -> Vec<String> {
    let before = part_ids(db);
    db.set_table_memory_budget(0);
    assert!(db.merge_now() > 0, "level-0 parts must merge");
    db.set_table_memory_budget(BUDGET);
    db.session("admin").truncate_table_history("t", 1).unwrap();
    for _ in 0..3 {
        db.checkpoint_now().unwrap();
    }
    let after = part_ids(db);
    let retired: Vec<String> = before
        .difference(&after)
        .map(|&id| flock_sql::parts::part_file_name(id))
        .collect();
    assert!(!retired.is_empty());
    retired
}

/// An open transaction reads the parts its snapshot names for as long as
/// it is open, whatever merges and checkpoints run beside it; once it
/// ends, the next checkpoint deletes the merged-away files.
#[test]
fn open_transaction_reads_across_merge_and_checkpoints() {
    let mem = MemFs::new();
    let db = sixteen_inserts(mem.clone());
    let total = "SELECT COUNT(*), SUM(v) FROM t";
    let mut s = db.session("admin");
    s.execute("BEGIN").unwrap();
    let want = rows_of(&s.query(total).unwrap());
    assert_eq!(want[0][0], Value::Int(768));

    let retired = merge_and_checkpoint_thrice(&db);
    let got = s.query(total).unwrap_or_else(|e| panic!("read inside the transaction: {e}"));
    assert_eq!(rows_of(&got), want, "the transaction reads its own snapshot");
    assert!(retired.iter().all(|f| part_files(&mem).contains(f)));
    s.execute("INSERT INTO u VALUES (1, 1)").unwrap();
    s.execute("COMMIT").unwrap();
    assert_eq!(db.query("SELECT COUNT(*) FROM u").unwrap().column(0).get(0), Value::Int(1));

    db.checkpoint_now().unwrap();
    let left: Vec<&String> = retired.iter().filter(|f| part_files(&mem).contains(*f)).collect();
    assert!(left.is_empty(), "merged-away parts outlived the transaction: {left:?}");
    assert_eq!(rows_of(&db.query(total).unwrap()), want);
}

/// A catalog snapshot is a reader too: it scans every row after a merge
/// and three checkpoints, and its parts go with it. A cached plan bound
/// before the merge moves onto the merged parts at its next use.
#[test]
fn catalog_snapshot_scans_across_merge_and_checkpoints() {
    let mem = MemFs::new();
    let db = sixteen_inserts(mem.clone());
    let total = "SELECT COUNT(*), SUM(v) FROM t";
    let want = rows_of(&db.query(total).unwrap());
    let snapshot = db.catalog();
    let retired = merge_and_checkpoint_thrice(&db);
    assert_eq!(rows_of(&db.query(total).unwrap()), want);
    let rows = snapshot
        .scan_table("t", None)
        .and_then(|scan| scan.collect())
        .unwrap_or_else(|e| panic!("scan of a snapshot taken before the merge: {e}"));
    assert_eq!(rows.num_rows(), 768);
    let keys: HashSet<String> = (0..768).map(|i| format!("{:?}", rows.column(0).get(i))).collect();
    assert_eq!(keys.len(), 768, "every row once");

    drop(snapshot);
    db.checkpoint_now().unwrap();
    let left: Vec<&String> = retired.iter().filter(|f| part_files(&mem).contains(*f)).collect();
    assert!(left.is_empty(), "merged-away parts outlived the snapshot: {left:?}");
}

fn part_bytes(mem: &MemFs) -> i64 {
    part_files(mem)
        .iter()
        .map(|f| mem.file(f).map_or(0, |b| b.len() as i64))
        .sum()
}

/// `parts_total` and `part_bytes_on_disk` count the part files on disk,
/// whichever state (or none) still names them.
#[test]
fn part_inventory_counts_the_files_on_disk() {
    let mem = MemFs::new();
    let db = open_budgeted(mem.clone(), opts_manual());
    let check = |db: &Database, mem: &MemFs, step: &str| {
        assert_eq!(metric(db, "parts_total"), part_files(mem).len() as i64, "{step}");
        assert_eq!(metric(db, "part_bytes_on_disk"), part_bytes(mem), "{step}");
    };
    db.execute("CREATE TABLE t (k INT, v DOUBLE, cat VARCHAR)").unwrap();
    for i in 0..8 {
        insert_chunk(&db, i * 48, 48).unwrap();
        check(&db, &mem, &format!("offload {i}"));
    }
    db.execute("UPDATE t SET v = 0.5 WHERE k = 200").unwrap();
    check(&db, &mem, "update");
    db.set_table_memory_budget(0);
    assert!(db.merge_now() > 0);
    db.set_table_memory_budget(BUDGET);
    check(&db, &mem, "merge");
    for i in 0..3 {
        db.checkpoint_now().unwrap();
        check(&db, &mem, &format!("checkpoint {i}"));
    }
    drop(db);
    let image = mem.clean_image();
    let rec = open_budgeted(image.clone(), opts_manual());
    check(&rec, &image, "reopen");
    rec.checkpoint_now().unwrap();
    check(&rec, &image, "checkpoint after reopen");
}

/// A transaction's rewritten part that no state took goes at the very
/// first checkpoint of a fresh directory.
#[test]
fn first_checkpoint_reclaims_a_rolled_back_part() {
    let mem = MemFs::new();
    let db = open_budgeted(mem.clone(), opts_manual());
    db.execute("CREATE TABLE t (k INT, v DOUBLE, cat VARCHAR)").unwrap();
    for i in 0..8 {
        insert_chunk(&db, i * 48, 48).unwrap();
    }
    assert!(db.catalog().table("t").unwrap().current().has_parts());
    let before = part_files(&mem);
    let mut s = db.session("admin");
    s.execute("BEGIN").unwrap();
    s.execute("UPDATE t SET v = -1.0 WHERE k = 200").unwrap();
    s.execute("ROLLBACK").unwrap();
    let written: Vec<String> = part_files(&mem).difference(&before).cloned().collect();
    assert_eq!(written.len(), 1, "the UPDATE rewrote one part: {written:?}");
    db.checkpoint_now().unwrap();
    assert!(
        !part_files(&mem).contains(&written[0]),
        "the first checkpoint must reclaim the rolled-back part"
    );
}

/// Replay holds the parts it rebuilds in memory; the first checkpoint
/// writes only those a recovered version still names.
#[test]
fn replay_writes_only_the_held_parts_still_named() {
    let mem = MemFs::new();
    let db = open_budgeted(mem.clone(), opts_manual());
    db.execute("CREATE TABLE t (k INT, v DOUBLE, cat VARCHAR)").unwrap();
    for i in 0..8 {
        insert_chunk(&db, i * 48, 48).unwrap();
    }
    db.checkpoint_now().unwrap();
    // two rewrites of the same part, then only the newest version kept
    db.execute("UPDATE t SET v = 1.5 WHERE k = 100").unwrap();
    db.execute("UPDATE t SET v = 2.5 WHERE k = 100").unwrap();
    db.session("admin").truncate_table_history("t", 1).unwrap();
    let digest = db.state_digest();
    drop(db);

    let fs = FsLog::new(mem.crash_image());
    let rec = open_budgeted(fs.clone(), opts_manual());
    assert_eq!(rec.state_digest(), digest);
    fs.ops.lock().unwrap().clear();
    rec.checkpoint_now().unwrap();
    let written: Vec<String> = fs
        .ops
        .lock()
        .unwrap()
        .iter()
        .filter(|op| op.starts_with("rename part."))
        .cloned()
        .collect();
    assert_eq!(written.len(), 1, "one live rebuilt part: {written:?}");
    assert_eq!(rec.state_digest(), digest);
    drop(rec);
    let again = Database::open_with_fs(fs.inner.clean_image(), opts_manual()).unwrap();
    assert_eq!(again.state_digest(), digest);
}

/// A filesystem that records every read (`read <name>`) and every rename
/// into place (`rename <to>`).
struct FsLog {
    inner: Arc<MemFs>,
    ops: std::sync::Mutex<Vec<String>>,
}

impl FsLog {
    fn new(inner: Arc<MemFs>) -> Arc<FsLog> {
        Arc::new(FsLog {
            inner,
            ops: Default::default(),
        })
    }
}

impl flock_sql::DurableFs for FsLog {
    fn read(&self, name: &str) -> std::io::Result<Vec<u8>> {
        self.ops.lock().unwrap().push(format!("read {name}"));
        self.inner.read(name)
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
        self.ops.lock().unwrap().push(format!("rename {to}"));
        self.inner.rename(from, to)
    }
    fn remove(&self, name: &str) -> std::io::Result<()> {
        self.inner.remove(name)
    }
    fn list(&self) -> std::io::Result<Vec<String>> {
        self.inner.list()
    }
}

/// Checkpoints know the part ids of the generations they retain: none of
/// them reads a checkpoint file back.
#[test]
fn a_checkpoint_reads_no_checkpoint_file() {
    let fs = FsLog::new(MemFs::new());
    let db = sixteen_inserts(fs.clone());
    db.set_table_memory_budget(0);
    db.merge_now();
    fs.ops.lock().unwrap().clear();
    for _ in 0..4 {
        insert_chunk(&db, 10_000, 1).unwrap();
        db.checkpoint_now().unwrap();
    }
    let ops = fs.ops.lock().unwrap().clone();
    assert!(
        !ops.iter().any(|op| op.starts_with("read checkpoint.")),
        "checkpoints read {ops:?}"
    );
}

/// While a retained checkpoint that did not decode at open is kept, no
/// part is deleted — it may name any of them. Once it is pruned, the
/// parts nothing names go.
#[test]
fn an_undecodable_retained_checkpoint_blocks_part_deletion() {
    let opts = DurabilityOptions {
        keep_checkpoints: 3,
        ..opts_manual()
    };
    let mem = MemFs::new();
    let db = open_budgeted(mem.clone(), opts);
    db.execute("CREATE TABLE t (k INT, v DOUBLE, cat VARCHAR)").unwrap();
    for i in 0..8 {
        insert_chunk(&db, i * 48, 48).unwrap();
    }
    db.checkpoint_now().unwrap();
    db.checkpoint_now().unwrap();
    drop(db);
    let orphan = "part.00099999";
    for corrupt in [false, true] {
        let image = mem.clean_image();
        image.put_file(orphan, vec![0; 16]);
        if corrupt {
            let mut bytes = image.file("checkpoint.00000001").unwrap();
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0xFF;
            image.put_file("checkpoint.00000001", bytes);
        }
        let rec = open_budgeted(image.clone(), opts);
        rec.checkpoint_now().unwrap();
        assert_eq!(
            image.file(orphan).is_some(),
            corrupt,
            "an orphan survives the first checkpoint iff a retained one is unreadable"
        );
        rec.checkpoint_now().unwrap();
        assert!(image.file(orphan).is_none(), "pruning the unreadable generation frees it");
    }
}

/// A dead part stays while a retained checkpoint names it, so recovery
/// can fall back to the generation taken before a merge.
#[test]
fn a_retained_checkpoint_keeps_the_dead_parts_it_names() {
    let mem = MemFs::new();
    let db = sixteen_inserts(mem.clone());
    db.checkpoint_now().unwrap();
    db.set_table_memory_budget(0);
    assert!(db.merge_now() > 0);
    // the merged-away parts are dead now, but the first checkpoint names them
    db.checkpoint_now().unwrap();
    let digest = db.state_digest();
    drop(db);
    let image = mem.clean_image();
    let mut checkpoints: Vec<String> = image
        .file_names()
        .into_iter()
        .filter(|n| n.starts_with("checkpoint."))
        .collect();
    checkpoints.sort();
    image.remove_file(checkpoints.last().unwrap());
    let rec = Database::open_with_fs(image, opts_manual()).unwrap();
    assert_eq!(rec.state_digest(), digest, "the older generation lost parts");
}
