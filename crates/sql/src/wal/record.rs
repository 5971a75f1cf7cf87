//! Logical WAL records.
//!
//! The log is redo-only: each committed transaction contributes a BEGIN
//! marker, one [`RedoOp`] per catalog mutation (captured at mutation time
//! inside the transaction), a COMMIT marker, and then the query-log and
//! audit entries the commit flushed. Audit records can also appear outside
//! a commit — rolled-back transactions still flush their security events,
//! per the engine's "must survive rollback" rule — so they are standalone
//! records applied unconditionally on replay.

use super::codec::{self, Corrupt, Dec, DecodeResult, Enc};
use crate::batch::RecordBatch;
use crate::catalog::AccessDump;
use crate::engine::{AuditRecord, QueryLogEntry};
use crate::schema::Schema;

/// One logical redo operation against the catalog. Replaying a committed
/// transaction's ops in order reproduces exactly the state its commit
/// installed (table versions keep their version numbers and owning txn
/// ids, so time travel and lineage pins survive recovery).
#[derive(Debug, Clone)]
pub enum RedoOp {
    /// CREATE TABLE: a fresh table whose version 1 is the empty snapshot.
    CreateTable {
        name: String,
        schema: Schema,
        txn_id: u64,
    },
    /// Install a full snapshot as `version` (ALTER TABLE: the batch
    /// carries the evolved schema, so schema evolution needs no other op).
    PushVersion {
        table: String,
        version: u64,
        txn_id: u64,
        data: RecordBatch,
    },
    /// Install `version` by appending `rows` to the previous snapshot —
    /// the INSERT fast path, logging O(rows added) instead of O(table).
    AppendRows {
        table: String,
        version: u64,
        txn_id: u64,
        rows: RecordBatch,
    },
    /// Install `version` as the previous one with the rows at `positions`
    /// replaced, in order, by `rows` (UPDATE: full new rows; logging
    /// O(rows changed) instead of O(table)).
    UpdateRows {
        table: String,
        version: u64,
        txn_id: u64,
        positions: RowRuns,
        rows: RecordBatch,
    },
    /// Install `version` as the previous one without the rows at
    /// `positions` (DELETE; a whole-table DELETE is one run).
    DeleteRows {
        table: String,
        version: u64,
        txn_id: u64,
        positions: RowRuns,
    },
    DropTable {
        name: String,
    },
    /// Drop all but the newest `keep` versions (pin checks already ran at
    /// execution time; replay must reproduce the outcome verbatim).
    TruncateHistory {
        table: String,
        keep: u64,
    },
    CreateView {
        name: String,
        sql: String,
    },
    DropView {
        name: String,
    },
    CreateExtension {
        kind: String,
        name: String,
        owner: String,
        txn_id: u64,
        payload: Vec<u8>,
        metadata: flock_json::Value,
    },
    UpdateExtension {
        kind: String,
        name: String,
        version: u64,
        txn_id: u64,
        payload: Vec<u8>,
        metadata: flock_json::Value,
    },
    DropExtension {
        kind: String,
        name: String,
    },
    /// Full access-control state after the transaction. Grants commit as
    /// whole-state last-writer-wins in the engine, and the log mirrors
    /// that semantics exactly rather than inventing a finer-grained one.
    AccessSet(AccessDump),
}

/// Logical row positions in a table version — row numbers counted across
/// its parts and then its tail — as ascending, disjoint `(start, len)`
/// runs. Independent of the physical layout: the same rows in other parts
/// (offload, merge, a replay that left more rows resident) have the same
/// positions.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RowRuns(pub Vec<(u64, u64)>);

impl RowRuns {
    /// Runs of strictly ascending positions.
    pub fn from_positions(positions: &[u64]) -> RowRuns {
        let mut runs: Vec<(u64, u64)> = Vec::new();
        for &p in positions {
            match runs.last_mut() {
                Some((start, len)) if *start + *len == p => *len += 1,
                _ => runs.push((p, 1)),
            }
        }
        RowRuns(runs)
    }

    /// Every position, ascending; `None` unless the runs are non-empty,
    /// ascending, disjoint and end at or before `rows`.
    pub fn positions(&self, rows: u64) -> Option<Vec<u64>> {
        let mut end = 0u64;
        for &(start, len) in &self.0 {
            if len == 0 || start < end {
                return None;
            }
            end = start.checked_add(len).filter(|&e| e <= rows)?;
        }
        Some(self.0.iter().flat_map(|&(s, n)| s..s + n).collect())
    }
}

fn put_runs(e: &mut Enc, runs: &RowRuns) {
    e.u32(runs.0.len() as u32);
    for &(start, len) in &runs.0 {
        e.u64(start);
        e.u64(len);
    }
}

fn get_runs(d: &mut Dec) -> DecodeResult<RowRuns> {
    let n = d.seq_len()?;
    let mut runs = Vec::with_capacity(n);
    for _ in 0..n {
        runs.push((d.u64()?, d.u64()?));
    }
    Ok(RowRuns(runs))
}

/// One framed record in a WAL segment.
#[derive(Debug, Clone)]
pub enum WalRecord {
    Begin { txn_id: u64 },
    Op { txn_id: u64, op: RedoOp },
    Commit { txn_id: u64 },
    QueryLog(QueryLogEntry),
    Audit(AuditRecord),
}

fn object_kind_tag(k: crate::catalog::ObjectKind) -> u8 {
    match k {
        crate::catalog::ObjectKind::Table => 0,
        crate::catalog::ObjectKind::View => 1,
        crate::catalog::ObjectKind::Extension => 2,
    }
}

fn object_kind_from(tag: u8) -> DecodeResult<crate::catalog::ObjectKind> {
    Ok(match tag {
        0 => crate::catalog::ObjectKind::Table,
        1 => crate::catalog::ObjectKind::View,
        2 => crate::catalog::ObjectKind::Extension,
        _ => return Err(Corrupt),
    })
}

fn privilege_tag(p: crate::catalog::Privilege) -> u8 {
    crate::catalog::Privilege::ALL
        .iter()
        .position(|x| *x == p)
        .expect("Privilege::ALL covers every variant") as u8
}

fn privilege_from(tag: u8) -> DecodeResult<crate::catalog::Privilege> {
    crate::catalog::Privilege::ALL
        .get(tag as usize)
        .copied()
        .ok_or(Corrupt)
}

pub(super) fn put_access_dump(e: &mut Enc, d: &AccessDump) {
    e.u32(d.users.len() as u32);
    for u in &d.users {
        e.str(u);
    }
    e.u32(d.superusers.len() as u32);
    for u in &d.superusers {
        e.str(u);
    }
    e.u32(d.grants.len() as u32);
    for (user, obj, privs) in &d.grants {
        e.str(user);
        e.u8(object_kind_tag(obj.kind));
        e.str(&obj.name);
        e.u32(privs.len() as u32);
        for p in privs {
            e.u8(privilege_tag(*p));
        }
    }
}

pub(super) fn get_access_dump(d: &mut Dec) -> DecodeResult<AccessDump> {
    let n = d.seq_len()?;
    let mut users = Vec::with_capacity(n);
    for _ in 0..n {
        users.push(d.str()?);
    }
    let n = d.seq_len()?;
    let mut superusers = Vec::with_capacity(n);
    for _ in 0..n {
        superusers.push(d.str()?);
    }
    let n = d.seq_len()?;
    let mut grants = Vec::with_capacity(n);
    for _ in 0..n {
        let user = d.str()?;
        let kind = object_kind_from(d.u8()?)?;
        let name = d.str()?;
        let np = d.seq_len()?;
        let mut privs = Vec::with_capacity(np);
        for _ in 0..np {
            privs.push(privilege_from(d.u8()?)?);
        }
        grants.push((
            user,
            crate::catalog::ObjectRef { kind, name },
            privs,
        ));
    }
    Ok(AccessDump {
        users,
        superusers,
        grants,
    })
}

fn put_op(e: &mut Enc, op: &RedoOp) {
    match op {
        RedoOp::CreateTable {
            name,
            schema,
            txn_id,
        } => {
            e.u8(0);
            e.str(name);
            codec::put_schema(e, schema);
            e.u64(*txn_id);
        }
        RedoOp::PushVersion {
            table,
            version,
            txn_id,
            data,
        } => {
            e.u8(1);
            e.str(table);
            e.u64(*version);
            e.u64(*txn_id);
            codec::put_batch(e, data);
        }
        RedoOp::AppendRows {
            table,
            version,
            txn_id,
            rows,
        } => {
            e.u8(2);
            e.str(table);
            e.u64(*version);
            e.u64(*txn_id);
            codec::put_batch(e, rows);
        }
        RedoOp::UpdateRows {
            table,
            version,
            txn_id,
            positions,
            rows,
        } => {
            e.u8(11);
            e.str(table);
            e.u64(*version);
            e.u64(*txn_id);
            put_runs(e, positions);
            codec::put_batch(e, rows);
        }
        RedoOp::DeleteRows {
            table,
            version,
            txn_id,
            positions,
        } => {
            e.u8(12);
            e.str(table);
            e.u64(*version);
            e.u64(*txn_id);
            put_runs(e, positions);
        }
        RedoOp::DropTable { name } => {
            e.u8(3);
            e.str(name);
        }
        RedoOp::TruncateHistory { table, keep } => {
            e.u8(4);
            e.str(table);
            e.u64(*keep);
        }
        RedoOp::CreateView { name, sql } => {
            e.u8(5);
            e.str(name);
            e.str(sql);
        }
        RedoOp::DropView { name } => {
            e.u8(6);
            e.str(name);
        }
        RedoOp::CreateExtension {
            kind,
            name,
            owner,
            txn_id,
            payload,
            metadata,
        } => {
            e.u8(7);
            e.str(kind);
            e.str(name);
            e.str(owner);
            e.u64(*txn_id);
            e.bytes(payload);
            codec::put_json(e, metadata);
        }
        RedoOp::UpdateExtension {
            kind,
            name,
            version,
            txn_id,
            payload,
            metadata,
        } => {
            e.u8(8);
            e.str(kind);
            e.str(name);
            e.u64(*version);
            e.u64(*txn_id);
            e.bytes(payload);
            codec::put_json(e, metadata);
        }
        RedoOp::DropExtension { kind, name } => {
            e.u8(9);
            e.str(kind);
            e.str(name);
        }
        RedoOp::AccessSet(dump) => {
            e.u8(10);
            put_access_dump(e, dump);
        }
    }
}

fn get_op(d: &mut Dec) -> DecodeResult<RedoOp> {
    Ok(match d.u8()? {
        0 => RedoOp::CreateTable {
            name: d.str()?,
            schema: codec::get_schema(d)?,
            txn_id: d.u64()?,
        },
        1 => RedoOp::PushVersion {
            table: d.str()?,
            version: d.u64()?,
            txn_id: d.u64()?,
            data: codec::get_batch(d)?,
        },
        2 => RedoOp::AppendRows {
            table: d.str()?,
            version: d.u64()?,
            txn_id: d.u64()?,
            rows: codec::get_batch(d)?,
        },
        3 => RedoOp::DropTable { name: d.str()? },
        4 => RedoOp::TruncateHistory {
            table: d.str()?,
            keep: d.u64()?,
        },
        5 => RedoOp::CreateView {
            name: d.str()?,
            sql: d.str()?,
        },
        6 => RedoOp::DropView { name: d.str()? },
        7 => RedoOp::CreateExtension {
            kind: d.str()?,
            name: d.str()?,
            owner: d.str()?,
            txn_id: d.u64()?,
            payload: d.bytes()?,
            metadata: codec::get_json(d)?,
        },
        8 => RedoOp::UpdateExtension {
            kind: d.str()?,
            name: d.str()?,
            version: d.u64()?,
            txn_id: d.u64()?,
            payload: d.bytes()?,
            metadata: codec::get_json(d)?,
        },
        9 => RedoOp::DropExtension {
            kind: d.str()?,
            name: d.str()?,
        },
        10 => RedoOp::AccessSet(get_access_dump(d)?),
        11 => RedoOp::UpdateRows {
            table: d.str()?,
            version: d.u64()?,
            txn_id: d.u64()?,
            positions: get_runs(d)?,
            rows: codec::get_batch(d)?,
        },
        12 => RedoOp::DeleteRows {
            table: d.str()?,
            version: d.u64()?,
            txn_id: d.u64()?,
            positions: get_runs(d)?,
        },
        _ => return Err(Corrupt),
    })
}

impl WalRecord {
    /// Encode into a raw payload (framing/checksumming is the segment
    /// writer's job).
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc::new();
        match self {
            WalRecord::Begin { txn_id } => {
                e.u8(0);
                e.u64(*txn_id);
            }
            WalRecord::Op { txn_id, op } => {
                e.u8(1);
                e.u64(*txn_id);
                put_op(&mut e, op);
            }
            WalRecord::Commit { txn_id } => {
                e.u8(2);
                e.u64(*txn_id);
            }
            WalRecord::QueryLog(q) => {
                e.u8(3);
                codec::put_query_log(&mut e, q);
            }
            WalRecord::Audit(a) => {
                e.u8(4);
                codec::put_audit(&mut e, a);
            }
        }
        e.buf
    }

    /// Decode one record payload; anything malformed is [`Corrupt`].
    pub fn decode(payload: &[u8]) -> DecodeResult<WalRecord> {
        let mut d = Dec::new(payload);
        let rec = match d.u8()? {
            0 => WalRecord::Begin { txn_id: d.u64()? },
            1 => WalRecord::Op {
                txn_id: d.u64()?,
                op: get_op(&mut d)?,
            },
            2 => WalRecord::Commit { txn_id: d.u64()? },
            3 => WalRecord::QueryLog(codec::get_query_log(&mut d)?),
            4 => WalRecord::Audit(codec::get_audit(&mut d)?),
            _ => return Err(Corrupt),
        };
        d.finish()?;
        Ok(rec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::ColumnVector;
    use crate::types::DataType;
    use std::sync::Arc;

    #[test]
    fn row_runs_round_trip_and_reject_what_does_not_fit() {
        let at = [0, 1, 2, 5, 7, 8];
        let runs = RowRuns::from_positions(&at);
        assert_eq!(runs.0, vec![(0, 3), (5, 1), (7, 2)]);
        assert_eq!(runs.positions(9).unwrap(), at);
        assert!(runs.positions(8).is_none(), "a run past the version's end");
        assert!(RowRuns(vec![(2, 2), (3, 1)]).positions(9).is_none(), "overlap");
        assert!(RowRuns(vec![(4, 1), (2, 1)]).positions(9).is_none(), "descending");
        assert!(RowRuns(vec![(1, 0)]).positions(9).is_none(), "empty run");
        assert!(RowRuns(vec![(u64::MAX, 2)]).positions(9).is_none(), "overflow");
        // a whole-table delete is one run
        assert_eq!(RowRuns::from_positions(&(0..1000).collect::<Vec<_>>()).0, vec![(0, 1000)]);
    }

    #[test]
    fn row_delta_records_round_trip() {
        let schema = Arc::new(crate::schema::Schema::from_pairs(&[("k", DataType::Int)]));
        let rows = RecordBatch::new(schema, vec![ColumnVector::from_i64([4, 9])]).unwrap();
        let positions = RowRuns(vec![(3, 1), (10, 1)]);
        for op in [
            RedoOp::UpdateRows {
                table: "t".into(),
                version: 7,
                txn_id: 3,
                positions: positions.clone(),
                rows,
            },
            RedoOp::DeleteRows {
                table: "t".into(),
                version: 8,
                txn_id: 3,
                positions,
            },
        ] {
            let record = WalRecord::Op { txn_id: 3, op };
            let back = WalRecord::decode(&record.encode()).unwrap();
            assert_eq!(format!("{back:?}"), format!("{record:?}"));
        }
    }
}
