//! Segment management, checkpointing, and recovery.
//!
//! On-disk layout (flat files inside the database directory):
//!
//! * `wal.NNNNNNNN` — log segments. Segment `k` holds every record
//!   appended after checkpoint `k` was taken (`wal.00000000` holds
//!   everything before the first checkpoint).
//! * `checkpoint.NNNNNNNN` — full state snapshots, one framed checksummed
//!   record each, written to a `.tmp` file, fsynced, then renamed.
//!
//! Recovery loads the newest checkpoint that decodes cleanly (falling back
//! to an older retained one if the newest is lost or corrupt) and replays
//! the segments at or after it, in order. Replay stops at the first torn,
//! checksum-failing, or inapplicable record — everything before that point
//! is exactly the committed prefix — and trims the damaged tail so new
//! appends land on a record boundary. A transaction's redo ops are
//! buffered until its COMMIT record and applied atomically; ops without a
//! COMMIT (the crash hit mid-transaction) are discarded. A directory
//! written in on-disk format 1 (FNV-1a frame checksums) is refused with an
//! error before anything is written, rather than read as one torn tail.

use super::checkpoint::{
    encode_snapshot, ExtensionSnapshot, ExtensionVersionSnapshot, Snapshot, TableSnapshot,
    VersionSnapshot,
};
use super::codec::{frame, frame_header, read_frame, FRAME_HEADER};
use super::fs::DurableFs;
use super::record::{RedoOp, RowRuns, WalRecord};
use super::DurabilityOptions;
use crate::batch::RecordBatch;
use crate::catalog::{AccessControl, Catalog, ExtensionObject, ExtensionVersion, ViewDef};
use crate::engine::{AuditRecord, QueryLogEntry};
use crate::error::{Result, SqlError};
use crate::parts::{parse_part_name, part_file_name, validate_part_image, PartMeta, PartStore};
use crate::table::Table;
use std::collections::{BTreeSet, HashMap};
use std::io;
use std::sync::Arc;

fn segment_name(seq: u64) -> String {
    format!("wal.{seq:08}")
}

fn checkpoint_name(seq: u64) -> String {
    format!("checkpoint.{seq:08}")
}

fn parse_seq(name: &str, prefix: &str) -> Option<u64> {
    let rest = name.strip_prefix(prefix)?;
    if rest.len() != 8 || !rest.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    rest.parse().ok()
}

/// Writer side of the log: owns the active segment and the checkpoint
/// cadence. Lives inside the engine's state lock, so appends are ordered
/// exactly like commits.
pub struct WalManager {
    fs: Arc<dyn DurableFs>,
    /// The part files beside the log, for their in-flight registry.
    store: Arc<PartStore>,
    opts: DurabilityOptions,
    /// Active segment sequence (== the newest checkpoint's sequence).
    seq: u64,
    commits_since_checkpoint: u64,
}

impl WalManager {
    pub fn options(&self) -> DurabilityOptions {
        self.opts
    }

    pub fn fs(&self) -> &Arc<dyn DurableFs> {
        &self.fs
    }

    /// Append framed records to the active segment; fsync when the
    /// durability options demand it. Nothing is installed in memory until
    /// this returns `Ok` — that is the "write-ahead" in WAL.
    pub fn append(&mut self, records: &[WalRecord]) -> io::Result<()> {
        let mut buf = Vec::new();
        for r in records {
            frame(&mut buf, &r.encode());
        }
        let name = segment_name(self.seq);
        self.fs.append(&name, &buf)?;
        if self.opts.fsync_on_commit {
            self.fs.sync(&name)?;
        }
        Ok(())
    }

    /// Record one commit; returns `true` when a checkpoint is due.
    pub fn note_commit(&mut self) -> bool {
        self.commits_since_checkpoint += 1;
        self.opts.checkpoint_every_commits > 0
            && self.commits_since_checkpoint >= self.opts.checkpoint_every_commits
    }

    /// Write a checkpoint of `snapshot` and switch to a fresh segment.
    /// Protocol: write out the parts replay held in memory, then write
    /// `checkpoint.N.tmp`, fsync it, atomically rename to `checkpoint.N` —
    /// a crash at any point leaves either the old or the new checkpoint
    /// fully intact, never a half-written one or one missing a part.
    pub fn checkpoint(&mut self, snapshot: &Snapshot) -> io::Result<u64> {
        self.store
            .flush_held()
            .map_err(|e| io::Error::other(e.to_string()))?;
        let seq = self.seq + 1;
        let mut framed = Vec::new();
        frame(&mut framed, &encode_snapshot(snapshot));
        let tmp = format!("{}.tmp", checkpoint_name(seq));
        self.fs.write_all(&tmp, &framed)?;
        self.fs.sync(&tmp)?;
        self.fs.rename(&tmp, &checkpoint_name(seq))?;
        self.seq = seq;
        self.commits_since_checkpoint = 0;
        self.prune();
        Ok(seq)
    }

    /// Best-effort retention: keep the newest `keep_checkpoints`
    /// checkpoints and every segment needed to replay from the oldest one
    /// retained. Failures are ignored — stale files never affect
    /// correctness, only disk usage.
    fn prune(&self) {
        let keep = self.opts.keep_checkpoints.max(1);
        let Ok(names) = self.fs.list() else { return };
        let mut checkpoints: Vec<u64> = names
            .iter()
            .filter_map(|n| parse_seq(n, "checkpoint."))
            .collect();
        checkpoints.sort_unstable_by(|a, b| b.cmp(a));
        let Some(&floor) = checkpoints.get(..keep).and_then(|kept| kept.last()) else {
            return;
        };
        for name in &names {
            let stale_ckpt = parse_seq(name, "checkpoint.").is_some_and(|s| s < floor);
            let stale_seg = parse_seq(name, "wal.").is_some_and(|s| s < floor);
            let stale_tmp = name.ends_with(".tmp")
                && parse_seq(name.trim_end_matches(".tmp"), "checkpoint.")
                    .is_some_and(|s| s <= self.seq);
            if stale_ckpt || stale_seg || stale_tmp {
                let _ = self.fs.remove(name);
            }
        }
        self.prune_parts(&names, &checkpoints, keep);
    }

    /// Part retirement, tied to checkpoint retention: a part file is live
    /// iff at least one *retained* checkpoint references it, so recovery
    /// can fall back a generation and still find every part that
    /// generation needs — or its writer still has it in flight (an open
    /// transaction's rewritten part, a merge not yet spliced in). If any
    /// retained checkpoint fails to read or decode, nothing is deleted —
    /// losing disk space is recoverable, deleting a part a fallback
    /// checkpoint references is not. Part tmp files are never touched here
    /// (a writer may own one); they are swept at open.
    fn prune_parts(&self, names: &[String], checkpoints_desc: &[u64], keep: usize) {
        let retained = &checkpoints_desc[..keep.min(checkpoints_desc.len())];
        let mut live: BTreeSet<u64> = BTreeSet::new();
        for &seq in retained {
            let Ok(bytes) = self.fs.read(&checkpoint_name(seq)) else {
                return;
            };
            let Ok((payload, _)) = read_frame(&bytes, 0) else {
                return;
            };
            let Ok(snap) = super::checkpoint::decode_snapshot(payload) else {
                return;
            };
            for t in &snap.tables {
                for v in &t.versions {
                    live.extend(v.parts.iter().map(|p| p.id));
                }
            }
        }
        for name in names {
            if let Some(id) = parse_part_name(name) {
                if !live.contains(&id) && !self.store.is_in_flight(id) {
                    let _ = self.fs.remove(name);
                }
            }
        }
    }
}

/// True iff every part file a snapshot references exists and passes its
/// frame checksum. Recovery refuses a checkpoint generation whose parts
/// are torn or missing and falls back to an older one.
fn snapshot_parts_valid(fs: &Arc<dyn DurableFs>, snap: &Snapshot) -> bool {
    let ids: BTreeSet<u64> = snap
        .tables
        .iter()
        .flat_map(|t| &t.versions)
        .flat_map(|v| &v.parts)
        .map(|p| p.id)
        .collect();
    ids.iter().all(|&id| {
        fs.read(&part_file_name(id))
            .is_ok_and(|bytes| validate_part_image(&bytes))
    })
}

/// FNV-1a 64-bit, the frame checksum of on-disk format 1. No code path
/// reads data framed with it: recovery only uses it to recognise a format-1
/// directory in [`refuse_format_1`].
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Called only for a frame that failed its checksum. If the frame is whole
/// and its checksum is the FNV-1a of its payload, the directory was written
/// in format 1: every frame in it fails [`checksum64`](super::checksum64),
/// and treating this one as a torn tail would recover an empty catalog and
/// trim the log. Refuse to open it instead, before anything is written.
fn refuse_format_1(file: &str, bytes: &[u8], pos: usize) -> Result<()> {
    let Some((len, crc)) = bytes.get(pos..).and_then(|b| b.first_chunk()).map(frame_header) else {
        return Ok(());
    };
    let payload = bytes.get(pos + FRAME_HEADER..).and_then(|b| b.get(..len));
    if payload.is_some_and(|p| fnv1a64(p) == crc) {
        return Err(SqlError::Io(format!(
            "{file} is in on-disk format 1 (FNV-1a frame checksums), which this \
             build does not read; the directory was left untouched"
        )));
    }
    Ok(())
}

/// Everything recovery hands back to the engine.
pub struct RecoveredState {
    pub catalog: Catalog,
    pub next_txn: u64,
    pub next_log_id: u64,
    pub next_audit_seq: u64,
    pub query_log: Vec<QueryLogEntry>,
    pub audit_log: Vec<AuditRecord>,
    pub manager: WalManager,
}

/// Open a database directory: load the newest valid checkpoint, replay
/// the log, repair any torn tail, and return the recovered state plus a
/// manager positioned to append. `store` is the directory's part store:
/// the recovered catalog reads its parts, and row deltas replay against
/// them. A clean shutdown recovers with zero writes — byte-for-byte, the
/// directory is untouched; replay itself never writes a part.
pub fn recover(
    fs: Arc<dyn DurableFs>,
    store: Arc<PartStore>,
    opts: DurabilityOptions,
) -> Result<RecoveredState> {
    let names = fs
        .list()
        .map_err(|e| SqlError::Io(format!("listing wal directory: {e}")))?;
    let mut checkpoints: Vec<u64> = names
        .iter()
        .filter_map(|n| parse_seq(n, "checkpoint."))
        .collect();
    checkpoints.sort_unstable_by(|a, b| b.cmp(a));
    let mut segments: Vec<u64> = names.iter().filter_map(|n| parse_seq(n, "wal.")).collect();
    segments.sort_unstable();

    // Newest checkpoint that reads and decodes cleanly wins.
    let mut base: Option<(u64, Snapshot)> = None;
    for &seq in &checkpoints {
        let Ok(bytes) = fs.read(&checkpoint_name(seq)) else {
            continue;
        };
        let Ok((payload, _)) = read_frame(&bytes, 0) else {
            refuse_format_1(&checkpoint_name(seq), &bytes, 0)?;
            continue;
        };
        let Ok(snap) = super::checkpoint::decode_snapshot(payload) else {
            continue;
        };
        if !snapshot_parts_valid(&fs, &snap) {
            continue;
        }
        base = Some((seq, snap));
        break;
    }

    let (base_seq, mut catalog, mut next_txn, mut next_log_id, mut next_audit_seq, mut query_log, mut audit_log) =
        match base {
            Some((seq, snap)) => {
                let catalog = restore_catalog(&snap)?;
                (
                    seq,
                    catalog,
                    snap.next_txn,
                    snap.next_log_id,
                    snap.next_audit_seq,
                    snap.query_log,
                    snap.audit_log,
                )
            }
            None => (0, Catalog::new(), 1, 1, 1, Vec::new(), Vec::new()),
        };
    catalog.set_part_store(store.clone());

    // Replay segments at or after the checkpoint, stopping at the first
    // record that is torn, corrupt, or cannot apply.
    let mut pending: HashMap<u64, Vec<RedoOp>> = HashMap::new();
    let mut damage: Option<(u64, usize)> = None; // (segment, valid prefix)
    'segments: for &seq in segments.iter().filter(|&&s| s >= base_seq) {
        let bytes = fs
            .read(&segment_name(seq))
            .map_err(|e| SqlError::Io(format!("reading segment {seq}: {e}")))?;
        let mut pos = 0;
        while pos < bytes.len() {
            let Ok((payload, next)) = read_frame(&bytes, pos) else {
                refuse_format_1(&segment_name(seq), &bytes, pos)?;
                damage = Some((seq, pos));
                break 'segments;
            };
            let Ok(record) = WalRecord::decode(payload) else {
                damage = Some((seq, pos));
                break 'segments;
            };
            let applied = match record {
                WalRecord::Begin { txn_id } => {
                    next_txn = next_txn.max(txn_id + 1);
                    pending.insert(txn_id, Vec::new());
                    Ok(())
                }
                WalRecord::Op { txn_id, op } => {
                    next_txn = next_txn.max(txn_id + 1);
                    pending.entry(txn_id).or_default().push(op);
                    Ok(())
                }
                WalRecord::Commit { txn_id } => {
                    next_txn = next_txn.max(txn_id + 1);
                    let ops = pending.remove(&txn_id).unwrap_or_default();
                    // Apply the whole transaction atomically: mutate a
                    // clone, install only on full success.
                    let mut trial = catalog.clone();
                    match ops.iter().try_for_each(|op| apply_op(&mut trial, op)) {
                        Ok(()) => {
                            catalog = trial;
                            Ok(())
                        }
                        Err(e) => Err(e),
                    }
                }
                WalRecord::QueryLog(q) => {
                    next_log_id = next_log_id.max(q.id + 1);
                    query_log.push(q);
                    Ok(())
                }
                WalRecord::Audit(a) => {
                    next_audit_seq = next_audit_seq.max(a.seq + 1);
                    audit_log.push(a);
                    Ok(())
                }
            };
            if applied.is_err() {
                damage = Some((seq, pos));
                break 'segments;
            }
            pos = next;
        }
    }

    // Trim the damaged tail (and discard anything after it) so the next
    // append starts at a record boundary. Clean logs take this branch
    // never — recovery after clean shutdown writes nothing.
    if let Some((seq, valid)) = damage {
        let bytes = fs
            .read(&segment_name(seq))
            .map_err(|e| SqlError::Io(format!("re-reading segment {seq}: {e}")))?;
        fs.write_all(&segment_name(seq), &bytes[..valid])
            .and_then(|_| fs.sync(&segment_name(seq)))
            .map_err(|e| SqlError::Io(format!("trimming segment {seq}: {e}")))?;
        for &later in segments.iter().filter(|&&s| s > seq) {
            let _ = fs.remove(&segment_name(later));
        }
    }

    let active = match damage {
        Some((seq, _)) => seq,
        None => segments
            .last()
            .copied()
            .unwrap_or(base_seq)
            .max(base_seq),
    };

    Ok(RecoveredState {
        catalog,
        next_txn,
        next_log_id,
        next_audit_seq,
        query_log,
        audit_log,
        manager: WalManager {
            fs,
            store,
            opts,
            seq: active,
            commits_since_checkpoint: 0,
        },
    })
}

/// Apply one redo op. Version numbers are validated against the recovered
/// chain — a mismatch means the log does not belong to this state, and
/// replay stops rather than guessing.
fn apply_op(catalog: &mut Catalog, op: &RedoOp) -> Result<()> {
    match op {
        RedoOp::CreateTable {
            name,
            schema,
            txn_id,
        } => catalog.create_table(Table::new(name.clone(), schema.clone(), *txn_id)?),
        RedoOp::PushVersion {
            table,
            version,
            txn_id,
            data,
        } => catalog
            .table_mut(table)?
            .restore_version(*version, *txn_id, data.clone()),
        RedoOp::AppendRows {
            table,
            version,
            txn_id,
            rows,
        } => {
            let t = catalog.table_mut(table)?;
            let current = t.current().data.clone();
            if current.num_columns() != rows.num_columns() {
                return Err(SqlError::Io(format!(
                    "append-rows arity mismatch replaying '{table}'"
                )));
            }
            // An append only grows the resident tail; a part-backed
            // base keeps its disk prefix.
            let parts: Vec<PartMeta> = t.current().parts.clone();
            let mut cols = current.columns().to_vec();
            for (dst, src) in cols.iter_mut().zip(rows.columns()) {
                dst.append(src)?;
            }
            let batch = RecordBatch::new(t.schema().clone(), cols)?;
            t.restore_version_with_parts(*version, *txn_id, parts, batch)
        }
        RedoOp::UpdateRows {
            table,
            version,
            txn_id,
            positions,
            rows,
        } => apply_delta(catalog, table, *version, *txn_id, positions, Some(rows)),
        RedoOp::DeleteRows {
            table,
            version,
            txn_id,
            positions,
        } => apply_delta(catalog, table, *version, *txn_id, positions, None),
        RedoOp::DropTable { name } => catalog.drop_table(name),
        RedoOp::TruncateHistory { table, keep } => {
            catalog.table_mut(table)?.truncate_history(*keep as usize);
            Ok(())
        }
        RedoOp::CreateView { name, sql } => catalog.create_view(ViewDef {
            name: name.clone(),
            sql: sql.clone(),
        }),
        RedoOp::DropView { name } => catalog.drop_view(name),
        RedoOp::CreateExtension {
            kind,
            name,
            owner,
            txn_id,
            payload,
            metadata,
        } => catalog.create_extension(
            kind,
            name,
            owner,
            payload.clone(),
            metadata.clone(),
            *txn_id,
        ),
        RedoOp::UpdateExtension {
            kind,
            name,
            version,
            txn_id,
            payload,
            metadata,
        } => {
            let v = catalog.update_extension(kind, name, payload.clone(), metadata.clone(), *txn_id)?;
            if v != *version {
                return Err(SqlError::Io(format!(
                    "extension version mismatch replaying {kind} '{name}': \
                     logged {version}, replayed {v}"
                )));
            }
            Ok(())
        }
        RedoOp::DropExtension { kind, name } => catalog.drop_extension(kind, name),
        RedoOp::AccessSet(dump) => {
            catalog.access = AccessControl::from_dump(dump);
            Ok(())
        }
    }
}

/// Redo an UPDATE (`rows`) or DELETE (`None`) logged as a row delta
/// against the previous version (see [`TableVersion::apply_delta`]).
///
/// [`TableVersion::apply_delta`]: crate::table::TableVersion::apply_delta
fn apply_delta(
    catalog: &mut Catalog,
    table: &str,
    version: u64,
    txn_id: u64,
    positions: &RowRuns,
    rows: Option<&RecordBatch>,
) -> Result<()> {
    let store = catalog.part_store().cloned();
    let t = catalog.table_mut(table)?;
    let cur = t.current().clone();
    if rows.is_some_and(|r| r.num_columns() != cur.data.num_columns()) {
        return Err(SqlError::Io(format!(
            "update-rows arity mismatch replaying '{table}'"
        )));
    }
    let at = positions
        .positions(cur.total_rows() as u64)
        .ok_or_else(|| SqlError::Io(format!("row runs out of range replaying '{table}'")))?;
    let (parts, tail) = cur.apply_delta(store.as_ref(), &at, rows)?;
    t.restore_version_with_parts(version, txn_id, parts, tail)
}

/// Canonical snapshot of committed state (checkpoints and digests).
pub(crate) fn build_snapshot(
    catalog: &Catalog,
    next_txn: u64,
    next_log_id: u64,
    next_audit_seq: u64,
    query_log: &[QueryLogEntry],
    audit_log: &[AuditRecord],
) -> Snapshot {
    let tables = catalog
        .table_names()
        .iter()
        .map(|name| {
            let t = catalog.table(name).expect("listed table exists");
            TableSnapshot {
                name: t.name().to_string(),
                versions: t
                    .versions()
                    .iter()
                    .map(|v| VersionSnapshot {
                        version: v.version,
                        txn_id: v.txn_id,
                        parts: v.parts.clone(),
                        data: v.data.clone(),
                    })
                    .collect(),
            }
        })
        .collect();
    let views = catalog.views().cloned().collect();
    let extensions = catalog
        .extensions_all()
        .map(|x| ExtensionSnapshot {
            kind: x.kind.clone(),
            name: x.name.clone(),
            owner: x.owner.clone(),
            versions: x
                .versions
                .iter()
                .map(|v| ExtensionVersionSnapshot {
                    version: v.version,
                    txn_id: v.txn_id,
                    payload: v.payload.clone(),
                    metadata: v.metadata.clone(),
                })
                .collect(),
        })
        .collect();
    Snapshot {
        next_txn,
        next_log_id,
        next_audit_seq,
        tables,
        views,
        extensions,
        access: catalog.access.dump(),
        query_log: query_log.to_vec(),
        audit_log: audit_log.to_vec(),
    }
}

/// Rebuild a catalog from a decoded checkpoint.
fn restore_catalog(snap: &Snapshot) -> Result<Catalog> {
    let mut catalog = Catalog::new();
    for t in &snap.tables {
        let history: Vec<(u64, u64, Vec<PartMeta>, RecordBatch)> = t
            .versions
            .iter()
            .map(|v| (v.version, v.txn_id, v.parts.clone(), v.data.clone()))
            .collect();
        catalog.create_table(Table::from_history(t.name.clone(), history)?)?;
    }
    for v in &snap.views {
        catalog.create_view(v.clone())?;
    }
    for x in &snap.extensions {
        catalog.install_extension(ExtensionObject {
            kind: x.kind.clone(),
            name: x.name.clone(),
            owner: x.owner.clone(),
            versions: x
                .versions
                .iter()
                .map(|v| ExtensionVersion {
                    version: v.version,
                    txn_id: v.txn_id,
                    payload: v.payload.clone(),
                    metadata: v.metadata.clone(),
                })
                .collect(),
        })?;
    }
    catalog.access = AccessControl::from_dump(&snap.access);
    Ok(catalog)
}
