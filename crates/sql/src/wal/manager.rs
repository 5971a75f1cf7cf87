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
//!
//! Part files (`part.NNNNNNNN`, see [`crate::parts`]) live while a handle
//! or a retained checkpoint names them. The manager keeps the part ids of
//! each retained checkpoint in memory — computed from the snapshot it
//! serialises, or once at open from the files — and each checkpoint
//! deletes the dead parts none of them names. No checkpoint reads a
//! checkpoint file.

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
use crate::parts::{parse_part_name, part_file_name, Part, PartMeta, PartStore};
use crate::table::{Table, Tail};
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

/// The part ids one checkpoint names; `None` for a checkpoint that did not
/// decode at open, whose parts are unknown.
type Generation = (u64, Option<BTreeSet<u64>>);

/// Writer side of the log: owns the active segment and the checkpoint
/// cadence. Lives inside the engine's state lock, so appends are ordered
/// exactly like commits.
pub struct WalManager {
    fs: Arc<dyn DurableFs>,
    /// The part files beside the log, whose dead ones checkpoints delete.
    store: Arc<PartStore>,
    opts: DurabilityOptions,
    /// Active segment sequence (== the newest checkpoint's sequence).
    seq: u64,
    commits_since_checkpoint: u64,
    /// Every retained checkpoint with the part ids it names, oldest first.
    generations: Vec<Generation>,
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
        self.generations.retain(|(s, _)| *s != seq);
        let ids = snapshot_parts(snapshot).map(|p| p.id).collect();
        self.generations.push((seq, Some(ids)));
        self.prune();
        Ok(seq)
    }

    /// Best-effort retention: keep the newest `keep_checkpoints`
    /// checkpoints and every segment needed to replay from the oldest one
    /// retained (all of them while fewer exist), then delete every dead
    /// part no retained checkpoint names — none while a retained one has
    /// unknown parts: losing disk space is recoverable, deleting a part a
    /// fallback checkpoint references is not. Failures are ignored —
    /// stale files never affect correctness, only disk usage. Part tmp
    /// files are never touched here (a writer may own one); they are
    /// swept at open.
    fn prune(&mut self) {
        let keep = self.opts.keep_checkpoints.max(1);
        let cut = self.generations.len().saturating_sub(keep);
        self.generations.drain(..cut);
        let floor = (self.generations.len() == keep).then(|| self.generations[0].0);
        let names = self.fs.list().unwrap_or_default();
        for name in &names {
            let stale = |prefix| {
                parse_seq(name, prefix)
                    .zip(floor)
                    .is_some_and(|(s, f)| s < f)
            };
            let stale_tmp = name.ends_with(".tmp")
                && parse_seq(name.trim_end_matches(".tmp"), "checkpoint.")
                    .is_some_and(|s| s <= self.seq);
            if stale("checkpoint.") || stale("wal.") || stale_tmp {
                let _ = self.fs.remove(name);
            }
        }
        let generations = &self.generations;
        if generations.iter().all(|(_, ids)| ids.is_some()) {
            let named = |id| {
                generations
                    .iter()
                    .flat_map(|(_, ids)| ids)
                    .any(|s| s.contains(&id))
            };
            self.store.delete_dead(named);
        }
    }
}

/// The parts a snapshot names, once per version naming each.
fn snapshot_parts(snap: &Snapshot) -> impl Iterator<Item = &PartMeta> {
    snap.tables
        .iter()
        .flat_map(|t| &t.versions)
        .flat_map(|v| &v.parts)
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
/// the recovered catalog holds handles on its parts, row deltas replay
/// against them, and every other part file on disk is queued dead. A
/// clean shutdown recovers with zero writes — byte-for-byte, the
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

    // Every checkpoint is decoded once. The newest that decodes and whose
    // parts are all intact is the base; each one's part ids are kept while
    // it is retained. Each part file on disk gets one handle, with the
    // manifest a checkpoint gives it; an orphan no checkpoint describes
    // counts its file length. The restored catalog takes the base's
    // handles; the rest drop as recovery returns, queueing their files
    // dead — crash orphans, and parts only an older checkpoint names.
    let mut base: Option<(u64, Snapshot)> = None;
    let mut generations: Vec<Generation> = Vec::new();
    let mut handles: HashMap<u64, Part> = HashMap::new();
    let on_disk: BTreeSet<u64> = names.iter().filter_map(|n| parse_part_name(n)).collect();
    for &seq in &checkpoints {
        let snap = match fs.read(&checkpoint_name(seq)) {
            Ok(bytes) => match read_frame(&bytes, 0) {
                Ok((payload, _)) => super::checkpoint::decode_snapshot(payload).ok(),
                Err(_) => {
                    refuse_format_1(&checkpoint_name(seq), &bytes, 0)?;
                    None
                }
            },
            Err(_) => None,
        };
        let ids: Option<BTreeSet<u64>> = snap
            .as_ref()
            .map(|s| snapshot_parts(s).map(|p| p.id).collect());
        generations.insert(0, (seq, ids.clone()));
        let (Some(snap), Some(ids)) = (snap, ids) else {
            continue;
        };
        for p in snapshot_parts(&snap).filter(|p| on_disk.contains(&p.id)) {
            handles
                .entry(p.id)
                .or_insert_with(|| store.adopt(p.clone()));
        }
        // A generation naming a torn or missing part is no base.
        if base.is_none() && ids.iter().all(|&id| store.validate_part(id)) {
            base = Some((seq, snap));
        }
    }
    for &id in &on_disk {
        handles.entry(id).or_insert_with(|| {
            let len = fs.read(&part_file_name(id)).map_or(0, |f| f.len() as u64);
            store.adopt(PartMeta {
                id,
                bytes_on_disk: len,
                ..PartMeta::default()
            })
        });
    }

    let (base_seq, mut catalog, mut next_txn, mut next_log_id, mut next_audit_seq, mut query_log, mut audit_log) =
        match base {
            Some((seq, snap)) => {
                let catalog = restore_catalog(&snap, &handles)?;
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
            generations,
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
            if t.current().data.num_columns() != rows.num_columns() {
                return Err(SqlError::Io(format!(
                    "append-rows arity mismatch replaying '{table}'"
                )));
            }
            // As the append did: parts and chunks shared, the rows pushed
            // as a chunk of the table's schema.
            let rows = RecordBatch::new(t.schema().clone(), rows.columns().to_vec())?;
            t.restore_append(*version, *txn_id, rows)
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
                        parts: v.parts.iter().map(|p| PartMeta::clone(p)).collect(),
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

/// Rebuild a catalog from a decoded checkpoint whose every part has a
/// handle in `handles`.
fn restore_catalog(snap: &Snapshot, handles: &HashMap<u64, Part>) -> Result<Catalog> {
    let mut catalog = Catalog::new();
    for t in &snap.tables {
        let history: Vec<(u64, u64, Vec<Part>, Tail)> = t
            .versions
            .iter()
            .map(|v| {
                let parts = v.parts.iter().map(|m| handles[&m.id].clone()).collect();
                (v.version, v.txn_id, parts, v.data.clone())
            })
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
