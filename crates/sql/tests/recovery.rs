//! Crash-recovery tests: a deterministic fault-injection harness that
//! kills the "process" at every write/fsync boundary of a mixed workload
//! and asserts the recovered state is bit-identical to a committed prefix
//! of the reference run. Also covers torn tails (mid-record truncation),
//! byte-flip corruption, missing/corrupt checkpoints, refusal of a
//! directory in an older frame format, and the lineage pin guard on
//! `truncate_table_history`.

use flock_sql::{Database, DurabilityOptions, FailpointFs, MemFs, SqlError, Value};
use std::collections::HashSet;
use std::sync::Arc;

/// Number of steps in the deterministic workload.
const STEPS: usize = 16;

/// Apply workload step `i` against `db`. Every step is one autocommit
/// transaction (or a read that appends to the query log), so every
/// successful step is a valid recovery target.
fn apply_step(db: &Database, i: usize) -> flock_sql::Result<()> {
    let mut s = db.session("admin");
    match i {
        0 => s.execute("CREATE TABLE t (a INT, b DOUBLE, s VARCHAR)").map(|_| ()),
        1 => s
            .execute("INSERT INTO t VALUES (1, 1.5, 'x'), (2, 2.5, 'y')")
            .map(|_| ()),
        2 => s.execute("INSERT INTO t VALUES (3, NULL, NULL)").map(|_| ()),
        3 => s.execute("UPDATE t SET b = 9.5 WHERE a = 2").map(|_| ()),
        4 => s.execute("DELETE FROM t WHERE a = 1").map(|_| ()),
        5 => s.execute("ALTER TABLE t ADD COLUMN c INT").map(|_| ()),
        6 => s.execute("CREATE VIEW v AS SELECT a, b FROM t").map(|_| ()),
        7 => s.execute("CREATE TABLE scratch (z INT)").map(|_| ()),
        8 => s.execute("DROP TABLE scratch").map(|_| ()),
        9 => s.execute("CREATE USER analyst").map(|_| ()),
        10 => s.execute("GRANT SELECT ON TABLE t TO analyst").map(|_| ()),
        11 => s.execute("SELECT a, b FROM t ORDER BY a").map(|_| ()),
        12 => s.create_extension_object(
            "model",
            "churn",
            vec![1, 2, 3],
            flock_json::from_str(
                r#"{"lineage": {"training_table": "t", "training_table_version": 3}}"#,
            )
            .unwrap(),
        ),
        13 => s
            .update_extension_object(
                "model",
                "churn",
                vec![4, 5, 6],
                flock_json::from_str(r#"{"note": "retrained"}"#).unwrap(),
            )
            .map(|_| ()),
        14 => s.execute("INSERT INTO t VALUES (7, 7.5, 'z', 70)").map(|_| ()),
        15 => s.execute("SELECT COUNT(*) FROM v").map(|_| ()),
        _ => unreachable!("workload has {STEPS} steps"),
    }
}

fn opts_fsync() -> DurabilityOptions {
    DurabilityOptions {
        fsync_on_commit: true,
        checkpoint_every_commits: 4,
        keep_checkpoints: 2,
    }
}

/// Count how many durable-fs mutations the workload performs under `opts`.
fn count_ops(opts: DurabilityOptions) -> u64 {
    let mem = MemFs::new();
    let fp = FailpointFs::new(mem, u64::MAX);
    let db = Database::open_with_fs(fp.clone(), opts).unwrap();
    for i in 0..STEPS {
        apply_step(&db, i).unwrap();
    }
    fp.ops_attempted()
}

/// The kill-point matrix: for every write/fsync boundary `k`, run the
/// workload until the injected kill, take the crash image (only fsynced
/// bytes survive), recover, and check the recovered state.
///
/// Recovery targets are the digests of *this* run after each statement
/// (audit/query-log timestamps make digests run-specific), so "recovered a
/// committed prefix" means: bit-identical to the state some prefix of the
/// workload's acknowledged commits produced.
fn kill_matrix(opts: DurabilityOptions, exact_when_fsync: bool) {
    let total_ops = count_ops(opts);
    assert!(total_ops > 10, "workload too small to exercise kill points");

    for k in 0..=total_ops {
        let mem = MemFs::new();
        let fp = FailpointFs::new(mem.clone(), k);
        // Opening an empty database performs no durable writes, so it must
        // survive any kill point.
        let db = Database::open_with_fs(fp.clone(), opts)
            .unwrap_or_else(|e| panic!("open failed at kill point {k}: {e}"));
        let mut prefix_digests: HashSet<u64> = HashSet::from([db.state_digest()]);
        let mut steps_ok = 0usize;
        for i in 0..STEPS {
            match apply_step(&db, i) {
                Ok(()) => {
                    steps_ok += 1;
                    prefix_digests.insert(db.state_digest());
                }
                Err(e) => {
                    // Failures are legitimate only once the kill point has
                    // fired (the failed commit, or a cascade from an earlier
                    // step that never committed).
                    assert!(
                        fp.killed(),
                        "kill point {k} step {i}: failed before the kill: {e}"
                    );
                    prefix_digests.insert(db.state_digest());
                }
            }
        }
        let survivor = db.state_digest();

        // Recover from what survived the crash.
        let image = mem.crash_image();
        let rec = Database::open_with_fs(image, opts)
            .unwrap_or_else(|e| panic!("recovery failed at kill point {k}: {e}"));
        let recovered = rec.state_digest();

        assert!(
            prefix_digests.contains(&recovered),
            "kill point {k}: recovered digest {recovered:#x} is not any \
             committed prefix of the run ({steps_ok} steps committed)"
        );
        if exact_when_fsync {
            // fsync-on-commit: every acknowledged commit was synced before
            // install, so recovery reproduces the killed instance's memory
            // bit for bit.
            assert_eq!(
                recovered, survivor,
                "kill point {k}: fsynced recovery diverged from the \
                 surviving in-memory state ({steps_ok} steps committed)"
            );
        }
    }
}

#[test]
fn kill_point_matrix_fsync_recovers_exactly() {
    kill_matrix(opts_fsync(), true);
}

#[test]
fn kill_point_matrix_buffered_recovers_a_committed_prefix() {
    // Without fsync-on-commit a crash may lose a suffix of acknowledged
    // commits, but recovery must still land on a committed prefix.
    let opts = DurabilityOptions {
        fsync_on_commit: false,
        checkpoint_every_commits: 4,
        keep_checkpoints: 2,
    };
    kill_matrix(opts, false);
}

#[test]
fn clean_shutdown_reopen_is_bit_identical_and_writes_nothing() {
    let opts = opts_fsync();
    let mem = MemFs::new();
    let db = Database::open_with_fs(mem.clone(), opts).unwrap();
    for i in 0..STEPS {
        apply_step(&db, i).unwrap();
    }
    let final_digest = db.state_digest();
    drop(db);

    let image = mem.clean_image();
    let before: Vec<(String, Vec<u8>)> = image
        .file_names()
        .into_iter()
        .map(|n| (n.clone(), image.file(&n).unwrap()))
        .collect();

    // Reopen through a counting failpoint that never fires: recovery of a
    // cleanly shut down database must not write a single byte.
    let fp = FailpointFs::new(image.clone(), u64::MAX);
    let db2 = Database::open_with_fs(fp.clone(), opts).unwrap();
    assert_eq!(db2.state_digest(), final_digest, "clean reopen must be bit-identical");
    assert_eq!(
        fp.ops_attempted(),
        0,
        "recovery of a clean log must not perform any durable writes"
    );
    let after: Vec<(String, Vec<u8>)> = image
        .file_names()
        .into_iter()
        .map(|n| (n.clone(), image.file(&n).unwrap()))
        .collect();
    assert_eq!(before, after, "reopen must leave the on-disk image untouched");
}

/// Frame boundaries (byte offsets) of a WAL segment:
/// `[len: u32 LE][checksum: u64 LE][payload]` per record.
fn frame_boundaries(segment: &[u8]) -> Vec<usize> {
    let mut offsets = vec![0usize];
    let mut pos = 0usize;
    while pos + 12 <= segment.len() {
        let len = u32::from_le_bytes(segment[pos..pos + 4].try_into().unwrap()) as usize;
        let end = pos + 12 + len;
        if end > segment.len() {
            break;
        }
        pos = end;
        offsets.push(pos);
    }
    offsets
}

/// Build a single-segment image (checkpoints disabled) from the workload.
/// Returns the image, the segment name and bytes, the options, and the
/// digest of the live database at shutdown.
fn single_segment_image() -> (Arc<MemFs>, String, Vec<u8>, DurabilityOptions, u64) {
    let opts = DurabilityOptions {
        fsync_on_commit: true,
        checkpoint_every_commits: 0, // keep everything in one segment
        keep_checkpoints: 2,
    };
    let mem = MemFs::new();
    let db = Database::open_with_fs(mem.clone(), opts).unwrap();
    for i in 0..STEPS {
        apply_step(&db, i).unwrap();
    }
    let live = db.state_digest();
    drop(db);
    let image = mem.clean_image();
    let segments: Vec<String> = image
        .file_names()
        .into_iter()
        .filter(|n| n.starts_with("wal."))
        .collect();
    assert_eq!(segments.len(), 1, "expected one segment, got {segments:?}");
    let name = segments[0].clone();
    let bytes = image.file(&name).unwrap();
    (image, name, bytes, opts, live)
}

fn recover_digest(image: &Arc<MemFs>, opts: DurabilityOptions) -> u64 {
    Database::open_with_fs(image.clone(), opts)
        .expect("recovery must not fail")
        .state_digest()
}

#[test]
fn torn_tail_truncation_sweep_discards_partial_frames() {
    let (_, name, bytes, opts, _) = single_segment_image();
    let boundaries = frame_boundaries(&bytes);
    assert!(boundaries.len() > 10, "workload wrote too few records");

    // Digest recovered at each exact frame boundary.
    let mut boundary_digest = Vec::new();
    for &b in &boundaries {
        let img = MemFs::new();
        img.put_file(&name, bytes[..b].to_vec());
        boundary_digest.push(recover_digest(&img, opts));
    }

    // Truncating anywhere inside a frame must recover exactly the state of
    // the last complete frame before the cut. Sweep every boundary, its
    // neighbors, and a stride through the interior bytes.
    let mut cuts: Vec<usize> = Vec::new();
    for &b in &boundaries {
        cuts.extend([b, b.saturating_sub(1), b + 1]);
    }
    cuts.extend((0..bytes.len()).step_by(13));
    cuts.retain(|&c| c <= bytes.len());
    cuts.sort_unstable();
    cuts.dedup();

    for cut in cuts {
        let img = MemFs::new();
        img.put_file(&name, bytes[..cut].to_vec());
        let got = recover_digest(&img, opts);
        // index of greatest boundary <= cut
        let idx = boundaries.partition_point(|&b| b <= cut) - 1;
        assert_eq!(
            got, boundary_digest[idx],
            "cut at byte {cut}: expected the state of frame boundary {} \
             (offset {})",
            idx, boundaries[idx]
        );
    }
}

#[test]
fn byte_flip_corruption_truncates_at_the_damaged_record() {
    let (_, name, bytes, opts, _) = single_segment_image();
    let boundaries = frame_boundaries(&bytes);
    let boundary_set: HashSet<u64> = boundaries
        .iter()
        .map(|&b| {
            let img = MemFs::new();
            img.put_file(&name, bytes[..b].to_vec());
            recover_digest(&img, opts)
        })
        .collect();

    for pos in (0..bytes.len()).step_by(11) {
        let mut corrupted = bytes.clone();
        corrupted[pos] ^= 0x40;
        let img = MemFs::new();
        img.put_file(&name, corrupted);
        // Recovery must neither fail nor surface torn state: the damaged
        // record and everything after it are discarded, landing on a state
        // that some clean prefix of the log also produces.
        let got = recover_digest(&img, opts);
        assert!(
            boundary_set.contains(&got),
            "flip at byte {pos}: recovered state matches no clean log prefix"
        );
    }
}

#[test]
fn recovery_without_any_checkpoint_replays_the_full_log() {
    // Pure WAL replay: no checkpoint file exists, so recovery starts from
    // an empty catalog and must replay the whole log to the final state.
    let (image, _, _, opts, live) = single_segment_image();
    assert!(
        !image.file_names().iter().any(|n| n.starts_with("checkpoint.")),
        "this test requires a checkpoint-free image"
    );
    assert_eq!(recover_digest(&image, opts), live);

    // Same workload with checkpointing on also recovers its own state.
    let opts_ck = opts_fsync();
    let mem = MemFs::new();
    let db = Database::open_with_fs(mem.clone(), opts_ck).unwrap();
    for i in 0..STEPS {
        apply_step(&db, i).unwrap();
    }
    let expect = db.state_digest();
    drop(db);
    assert_eq!(recover_digest(&mem.clean_image(), opts_ck), expect);
}

#[test]
fn corrupt_newest_checkpoint_falls_back_to_the_previous_one() {
    let opts = opts_fsync(); // checkpoint every 4 commits, keep 2
    let mem = MemFs::new();
    let db = Database::open_with_fs(mem.clone(), opts).unwrap();
    for i in 0..STEPS {
        apply_step(&db, i).unwrap();
    }
    let expect = db.state_digest();
    drop(db);
    let image = mem.clean_image();
    let mut checkpoints: Vec<String> = image
        .file_names()
        .into_iter()
        .filter(|n| n.starts_with("checkpoint."))
        .collect();
    checkpoints.sort();
    assert!(
        checkpoints.len() >= 2,
        "expected at least two retained checkpoints, got {checkpoints:?}"
    );
    let newest = checkpoints.last().unwrap().clone();

    // Corrupt the newest checkpoint: recovery must fall back to an older
    // one and replay the intervening segments to the same final state.
    let mut garbage = image.file(&newest).unwrap();
    let mid = garbage.len() / 2;
    garbage[mid] ^= 0xFF;
    image.put_file(&newest, garbage);
    assert_eq!(recover_digest(&image, opts), expect, "fallback after corruption");

    // Remove it entirely: same story.
    image.remove_file(&newest);
    assert_eq!(recover_digest(&image, opts), expect, "fallback after deletion");
}

/// FNV-1a 64-bit: the frame checksum of on-disk format 1.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The same frames as format 1 wrote them: each checksum replaced by the
/// FNV-1a of its payload.
fn to_format_1(file: &[u8]) -> Vec<u8> {
    let boundaries = frame_boundaries(file);
    assert_eq!(*boundaries.last().unwrap(), file.len(), "file is whole frames");
    let mut out = Vec::with_capacity(file.len());
    for w in boundaries.windows(2) {
        let (len, payload) = (&file[w[0]..w[0] + 4], &file[w[0] + 12..w[1]]);
        out.extend_from_slice(len);
        out.extend_from_slice(&fnv1a64(payload).to_le_bytes());
        out.extend_from_slice(payload);
    }
    out
}

/// A directory written with format-1 frames fails every current checksum.
/// Recovery must refuse it with a typed error naming the format, and write
/// nothing: treating its first frame as a torn tail would recover an empty
/// catalog and trim the log.
#[test]
fn format_1_directory_is_refused_and_left_untouched() {
    let with_checkpoints = opts_fsync();
    let wal_only = DurabilityOptions {
        checkpoint_every_commits: 0,
        ..with_checkpoints
    };
    for opts in [with_checkpoints, wal_only] {
        let mem = MemFs::new();
        let db = Database::open_with_fs(mem.clone(), opts).unwrap();
        for i in 0..STEPS {
            apply_step(&db, i).unwrap();
        }
        drop(db);
        let image = mem.clean_image();
        let names = image.file_names();
        assert_eq!(
            names.iter().any(|n| n.starts_with("checkpoint.")),
            opts.checkpoint_every_commits > 0
        );
        for name in &names {
            image.put_file(name, to_format_1(&image.file(name).unwrap()));
        }
        let before: Vec<(String, Vec<u8>)> =
            names.iter().map(|n| (n.clone(), image.file(n).unwrap())).collect();

        let fp = FailpointFs::new(image.clone(), u64::MAX);
        let err = Database::open_with_fs(fp.clone(), opts)
            .err()
            .expect("a format-1 directory must not open");
        assert!(
            matches!(&err, SqlError::Io(m) if m.contains("format 1")),
            "unexpected error: {err}"
        );
        assert_eq!(fp.ops_attempted(), 0, "refusing must not write");
        let after: Vec<(String, Vec<u8>)> = image
            .file_names()
            .into_iter()
            .map(|n| (n.clone(), image.file(&n).unwrap()))
            .collect();
        assert_eq!(before, after, "every file must be byte-identical");
    }
}

#[test]
fn recovery_is_deterministic() {
    let opts = opts_fsync();
    let mem = MemFs::new();
    let db = Database::open_with_fs(mem.clone(), opts).unwrap();
    for i in 0..STEPS {
        apply_step(&db, i).unwrap();
    }
    drop(db);
    let d1 = recover_digest(&mem.clean_image(), opts);
    let d2 = recover_digest(&mem.clean_image(), opts);
    assert_eq!(d1, d2);
}

#[test]
fn uncommitted_transaction_is_not_logged_and_not_recovered() {
    let opts = opts_fsync();
    let mem = MemFs::new();
    let db = Database::open_with_fs(mem.clone(), opts).unwrap();
    db.execute("CREATE TABLE t (a INT)").unwrap();
    db.execute("INSERT INTO t VALUES (1)").unwrap();
    let committed = db.state_digest();

    let mut s = db.session("admin");
    s.execute("BEGIN").unwrap();
    s.execute("INSERT INTO t VALUES (2)").unwrap();
    // crash with the transaction still open
    let image = mem.crash_image();
    let rec = Database::open_with_fs(image, opts).unwrap();
    // digest first: running queries on the recovered engine appends to its
    // (durable) query log, which is part of the state being digested
    assert_eq!(rec.state_digest(), committed);
    assert_eq!(
        rec.query("SELECT COUNT(*) FROM t").unwrap().column(0).get(0),
        Value::Int(1),
        "the uncommitted insert must not survive"
    );
}

#[test]
fn recovered_table_supports_time_travel_and_new_writes() {
    let opts = opts_fsync();
    let mem = MemFs::new();
    let db = Database::open_with_fs(mem.clone(), opts).unwrap();
    db.execute("CREATE TABLE t (a INT)").unwrap();
    db.execute("INSERT INTO t VALUES (1)").unwrap();
    db.execute("INSERT INTO t VALUES (2)").unwrap();
    drop(db);

    let img = mem.clean_image();
    let rec = Database::open_with_fs(img.clone(), opts).unwrap();
    // whole version chain restored, not just the tip
    assert_eq!(
        rec.query("SELECT COUNT(*) FROM t VERSION 2").unwrap().column(0).get(0),
        Value::Int(1)
    );
    assert_eq!(
        rec.query("SELECT COUNT(*) FROM t").unwrap().column(0).get(0),
        Value::Int(2)
    );
    // the recovered engine keeps logging: write, crash again, recover again
    rec.execute("INSERT INTO t VALUES (3)").unwrap();
    let digest = rec.state_digest();
    drop(rec);
    let rec2 = Database::open_with_fs(img.clean_image(), opts).unwrap();
    assert_eq!(rec2.state_digest(), digest);
    assert_eq!(
        rec2.query("SELECT COUNT(*) FROM t").unwrap().column(0).get(0),
        Value::Int(3)
    );
}

#[test]
fn audit_of_denied_access_survives_rollback_and_crash() {
    let opts = opts_fsync();
    let mem = MemFs::new();
    let db = Database::open_with_fs(mem.clone(), opts).unwrap();
    db.execute("CREATE TABLE secrets (a INT)").unwrap();
    db.execute("CREATE USER intruder").unwrap();
    let mut s = db.session("intruder");
    assert!(matches!(
        s.execute("SELECT * FROM secrets"),
        Err(SqlError::AccessDenied(_))
    ));
    // the denial is audited even though the statement's txn aborted
    let denied = |a: &flock_sql::engine::AuditRecord| {
        a.user == "intruder" && a.action == "ACCESS DENIED"
    };
    assert!(db.audit_log().iter().any(denied));

    let rec = Database::open_with_fs(mem.crash_image(), opts).unwrap();
    assert!(
        rec.audit_log().iter().any(denied),
        "security audit records must survive a crash"
    );
}

/// `BEGIN; EXPLAIN ANALYZE SELECT * FROM secrets` as a user without
/// `SELECT`, then `end` ends the transaction; returns the number of
/// `ACCESS DENIED` rows the database holds afterwards.
fn denials_after_explain_in_txn(db: &Database, end: impl FnOnce(flock_sql::Session)) -> usize {
    db.execute("CREATE TABLE secrets (a INT)").unwrap();
    db.execute("CREATE USER intruder").unwrap();
    let mut s = db.session("intruder");
    s.execute("BEGIN").unwrap();
    assert!(matches!(
        s.execute("EXPLAIN ANALYZE SELECT * FROM secrets"),
        Err(SqlError::AccessDenied(_))
    ));
    end(s);
    db.audit_log()
        .iter()
        .filter(|a| a.user == "intruder" && a.action == "ACCESS DENIED")
        .count()
}

#[test]
fn audit_of_denial_inside_a_transaction_survives_rollback() {
    let opts = opts_fsync();
    let mem = MemFs::new();
    let db = Database::open_with_fs(mem.clone(), opts).unwrap();
    let denied = denials_after_explain_in_txn(&db, |mut s| {
        s.execute("ROLLBACK").unwrap();
    });
    assert_eq!(denied, 1, "ROLLBACK must keep the denial's audit row");
    let rec = Database::open_with_fs(mem.crash_image(), opts).unwrap();
    assert_eq!(
        rec.audit_log().iter().filter(|a| a.action == "ACCESS DENIED").count(),
        1,
        "the kept audit row must be durable"
    );
}

#[test]
fn audit_of_denial_inside_a_transaction_survives_session_drop() {
    let db = Database::new();
    let denied = denials_after_explain_in_txn(&db, drop);
    assert_eq!(denied, 1, "dropping a session inside BEGIN must keep the denial's audit row");
}

#[test]
fn truncate_history_refuses_to_drop_lineage_pinned_versions() {
    let db = Database::new();
    db.execute("CREATE TABLE train (a INT)").unwrap();
    db.execute("INSERT INTO train VALUES (1)").unwrap();
    db.execute("INSERT INTO train VALUES (2)").unwrap();
    db.execute("INSERT INTO train VALUES (3)").unwrap();
    // versions now: 1 (empty), 2, 3, 4
    let mut s = db.session("admin");
    s.create_extension_object(
        "model",
        "m",
        vec![0xAB],
        flock_json::from_str(
            r#"{"lineage": {"training_table": "train", "training_table_version": 2}}"#,
        )
        .unwrap(),
    )
    .unwrap();

    // keep=2 would drop versions 1 and 2, but a deployed model trained on
    // version 2 pins it.
    let err = s.truncate_table_history("train", 2).unwrap_err();
    match err {
        SqlError::Constraint(msg) => {
            assert!(msg.contains("pinned"), "got: {msg}");
            assert!(msg.contains("2"), "should name the pinned version: {msg}");
        }
        other => panic!("expected constraint violation, got {other}"),
    }
    // keep=3 keeps the pinned version and succeeds.
    let dropped = s.truncate_table_history("train", 3).unwrap();
    assert_eq!(dropped, vec![1]);
    // once the model is gone the pin is lifted
    s.drop_extension_object("model", "m").unwrap();
    let dropped = s.truncate_table_history("train", 1).unwrap();
    assert_eq!(dropped, vec![2, 3]);
    assert_eq!(
        db.query("SELECT COUNT(*) FROM train").unwrap().column(0).get(0),
        Value::Int(3)
    );
}

#[test]
fn truncate_history_is_durable() {
    let opts = opts_fsync();
    let mem = MemFs::new();
    let db = Database::open_with_fs(mem.clone(), opts).unwrap();
    db.execute("CREATE TABLE t (a INT)").unwrap();
    db.execute("INSERT INTO t VALUES (1)").unwrap();
    db.execute("INSERT INTO t VALUES (2)").unwrap();
    let mut s = db.session("admin");
    let dropped = s.truncate_table_history("t", 1).unwrap();
    assert_eq!(dropped, vec![1, 2]);
    let digest = db.state_digest();
    drop(s);
    drop(db);
    let rec = Database::open_with_fs(mem.crash_image(), opts).unwrap();
    assert_eq!(rec.state_digest(), digest);
    assert!(
        rec.query("SELECT * FROM t VERSION 1").is_err(),
        "truncated versions must stay truncated after recovery"
    );
}
