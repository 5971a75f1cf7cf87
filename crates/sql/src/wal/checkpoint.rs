//! Checkpoints: full snapshots of the committed database state.
//!
//! A checkpoint file is a single framed, checksummed record containing the
//! whole durable state — table version chains, views, extension objects
//! (models), grants, both logs, and the id counters. Recovery loads the
//! newest valid checkpoint and replays only the segments written after it.
//!
//! The same canonical encoding doubles as the engine's state digest: it is
//! deterministic (sorted maps, bit-exact floats, canonical JSON), so two
//! states are bit-identical iff their encodings are.

use super::codec::{self, Corrupt, Dec, DecodeResult, Enc};
use super::record::{get_access_dump, put_access_dump};
use crate::catalog::{AccessDump, ViewDef};
use crate::engine::{AuditRecord, QueryLogEntry};
use crate::parts::PartMeta;
use crate::table::Tail;

/// Bump when the checkpoint or WAL record layout changes incompatibly.
/// v2: table versions carry a part manifest (disk-resident prefix) ahead
/// of the resident tail batch.
pub const FORMAT_VERSION: u8 = 2;

/// One table version in a snapshot (stats are recomputed on restore —
/// they are a pure function of the tail data and part zone maps).
#[derive(Debug, Clone)]
pub struct VersionSnapshot {
    pub version: u64,
    pub txn_id: u64,
    /// Manifest of the disk-resident prefix: the checkpoint references
    /// part files instead of rewriting their rows, which is what makes
    /// checkpoints O(resident tail) rather than O(table).
    pub parts: Vec<PartMeta>,
    /// The resident tail, encoded as one batch of its chunks' rows.
    pub data: Tail,
}

#[derive(Debug, Clone)]
pub struct TableSnapshot {
    pub name: String,
    pub versions: Vec<VersionSnapshot>,
}

#[derive(Debug, Clone)]
pub struct ExtensionVersionSnapshot {
    pub version: u64,
    pub txn_id: u64,
    pub payload: Vec<u8>,
    pub metadata: flock_json::Value,
}

#[derive(Debug, Clone)]
pub struct ExtensionSnapshot {
    pub kind: String,
    pub name: String,
    pub owner: String,
    pub versions: Vec<ExtensionVersionSnapshot>,
}

/// The complete durable state of a database, in canonical order (tables,
/// views, and extensions sorted by their catalog keys).
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    pub next_txn: u64,
    pub next_log_id: u64,
    pub next_audit_seq: u64,
    pub tables: Vec<TableSnapshot>,
    pub views: Vec<ViewDef>,
    pub extensions: Vec<ExtensionSnapshot>,
    pub access: AccessDump,
    pub query_log: Vec<QueryLogEntry>,
    pub audit_log: Vec<AuditRecord>,
}

pub fn encode_snapshot(s: &Snapshot) -> Vec<u8> {
    let mut e = Enc::new();
    e.u8(FORMAT_VERSION);
    e.u64(s.next_txn);
    e.u64(s.next_log_id);
    e.u64(s.next_audit_seq);
    e.u32(s.tables.len() as u32);
    for t in &s.tables {
        e.str(&t.name);
        e.u32(t.versions.len() as u32);
        for v in &t.versions {
            e.u64(v.version);
            e.u64(v.txn_id);
            e.u32(v.parts.len() as u32);
            for p in &v.parts {
                crate::parts::put_part_meta(&mut e, p);
            }
            codec::put_tail(&mut e, &v.data);
        }
    }
    e.u32(s.views.len() as u32);
    for v in &s.views {
        e.str(&v.name);
        e.str(&v.sql);
    }
    e.u32(s.extensions.len() as u32);
    for x in &s.extensions {
        e.str(&x.kind);
        e.str(&x.name);
        e.str(&x.owner);
        e.u32(x.versions.len() as u32);
        for v in &x.versions {
            e.u64(v.version);
            e.u64(v.txn_id);
            e.bytes(&v.payload);
            codec::put_json(&mut e, &v.metadata);
        }
    }
    put_access_dump(&mut e, &s.access);
    e.u32(s.query_log.len() as u32);
    for q in &s.query_log {
        codec::put_query_log(&mut e, q);
    }
    e.u32(s.audit_log.len() as u32);
    for a in &s.audit_log {
        codec::put_audit(&mut e, a);
    }
    e.buf
}

pub fn decode_snapshot(payload: &[u8]) -> DecodeResult<Snapshot> {
    let mut d = Dec::new(payload);
    if d.u8()? != FORMAT_VERSION {
        return Err(Corrupt);
    }
    let next_txn = d.u64()?;
    let next_log_id = d.u64()?;
    let next_audit_seq = d.u64()?;
    let n = d.seq_len()?;
    let mut tables = Vec::with_capacity(n);
    for _ in 0..n {
        let name = d.str()?;
        let nv = d.seq_len()?;
        let mut versions = Vec::with_capacity(nv);
        for _ in 0..nv {
            let version = d.u64()?;
            let txn_id = d.u64()?;
            let np = d.seq_len()?;
            let parts = (0..np)
                .map(|_| crate::parts::get_part_meta(&mut d))
                .collect::<DecodeResult<Vec<_>>>()?;
            versions.push(VersionSnapshot {
                version,
                txn_id,
                parts,
                data: Tail::from_batch(codec::get_batch(&mut d)?),
            });
        }
        if versions.is_empty() {
            return Err(Corrupt);
        }
        tables.push(TableSnapshot { name, versions });
    }
    let n = d.seq_len()?;
    let mut views = Vec::with_capacity(n);
    for _ in 0..n {
        views.push(ViewDef {
            name: d.str()?,
            sql: d.str()?,
        });
    }
    let n = d.seq_len()?;
    let mut extensions = Vec::with_capacity(n);
    for _ in 0..n {
        let kind = d.str()?;
        let name = d.str()?;
        let owner = d.str()?;
        let nv = d.seq_len()?;
        let mut versions = Vec::with_capacity(nv);
        for _ in 0..nv {
            versions.push(ExtensionVersionSnapshot {
                version: d.u64()?,
                txn_id: d.u64()?,
                payload: d.bytes()?,
                metadata: codec::get_json(&mut d)?,
            });
        }
        if versions.is_empty() {
            return Err(Corrupt);
        }
        extensions.push(ExtensionSnapshot {
            kind,
            name,
            owner,
            versions,
        });
    }
    let access = get_access_dump(&mut d)?;
    let n = d.seq_len()?;
    let mut query_log = Vec::with_capacity(n);
    for _ in 0..n {
        query_log.push(codec::get_query_log(&mut d)?);
    }
    let n = d.seq_len()?;
    let mut audit_log = Vec::with_capacity(n);
    for _ in 0..n {
        audit_log.push(codec::get_audit(&mut d)?);
    }
    d.finish()?;
    Ok(Snapshot {
        next_txn,
        next_log_id,
        next_audit_seq,
        tables,
        views,
        extensions,
        access,
        query_log,
        audit_log,
    })
}
