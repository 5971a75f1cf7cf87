//! Versioned tables.
//!
//! Every committed write (INSERT/UPDATE/DELETE) produces a new immutable
//! [`TableVersion`]. The paper makes table versioning load-bearing for
//! governance: "an INSERT to a table results in a new version of the table
//! in the provenance data model", and model lineage pins the exact data
//! version a model was trained on.

use crate::batch::RecordBatch;
use crate::error::{Result, SqlError};
use crate::parts::{DecodeGate, Part, PartStore};
use crate::schema::Schema;
use crate::stats::TableStats;
use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// One immutable snapshot of a table's contents.
///
/// A version's rows are the concatenation of its disk-resident `parts`
/// (in order) followed by the resident `data` tail. Fully resident
/// versions simply have no parts; nothing else changes. Parts are
/// immutable and may be shared by several versions of the same table
/// (an append carries the prefix forward and only grows the tail).
#[derive(Debug)]
pub struct TableVersion {
    /// Monotonically increasing per-table version number, starting at 1.
    pub version: u64,
    /// The transaction id that committed this version.
    pub txn_id: u64,
    /// Disk-resident prefix of this snapshot, oldest part first. The
    /// handles keep the part files alive as long as the version is.
    pub parts: Vec<Part>,
    /// Resident tail (the whole snapshot when `parts` is empty).
    pub data: RecordBatch,
    /// Exact statistics for the tail, merged with zone-map-derived
    /// statistics for the parts (see [`TableStats::compute_with_parts`]).
    pub stats: TableStats,
}

impl TableVersion {
    /// A snapshot with its statistics: exact over the tail, merged with
    /// the parts' zone maps — a pure function of both, so building one
    /// never touches part files.
    pub fn new(version: u64, txn_id: u64, parts: Vec<Part>, data: RecordBatch) -> Arc<Self> {
        let stats = TableStats::compute_with_parts(&parts, &data);
        Arc::new(TableVersion {
            version,
            txn_id,
            parts,
            data,
            stats,
        })
    }

    /// Total rows in this snapshot: disk parts plus resident tail.
    pub fn total_rows(&self) -> usize {
        self.part_rows() + self.data.num_rows()
    }

    /// Rows held in disk-resident parts.
    pub fn part_rows(&self) -> usize {
        self.parts.iter().map(|p| p.rows as usize).sum()
    }

    pub fn has_parts(&self) -> bool {
        !self.parts.is_empty()
    }

    /// This version's rows as a chunk source; `store` holds its parts.
    pub fn scan(&self, store: Option<&Arc<PartStore>>) -> TableScan {
        TableScan::new(&self.parts, &self.data, store)
    }

    /// The parts and tail of this version with a row delta applied — how
    /// WAL replay redoes an UPDATE or DELETE. `at` lists logical row
    /// positions, strictly ascending; `rows` holds the new rows at those
    /// positions in order (an UPDATE), or is `None` (a DELETE). Positions
    /// are logical, so the delta applies to any physical layout of the
    /// same rows. As the statement did, it carries untouched parts by
    /// reference, drops a part the DELETE empties without reading it,
    /// puts one rebuilt part in the place of each edited one and edits the
    /// resident tail — but writes no file: rebuilt parts are held in
    /// memory until the next checkpoint writes them out
    /// ([`PartStore::hold_part`]).
    pub(crate) fn apply_delta(
        &self,
        store: Option<&Arc<PartStore>>,
        at: &[u64],
        rows: Option<&RecordBatch>,
    ) -> Result<(Vec<Part>, RecordBatch)> {
        let total = self.total_rows() as u64;
        if at.windows(2).any(|w| w[0] >= w[1])
            || at.last().is_some_and(|&p| p >= total)
            || rows.is_some_and(|r| r.num_rows() != at.len())
        {
            return Err(SqlError::Io(format!(
                "row delta does not fit version {} ({total} rows)",
                self.version
            )));
        }
        let schema = self.data.schema();
        let mut parts = Vec::with_capacity(self.parts.len());
        let (mut start, mut done) = (0u64, 0usize);
        for p in &self.parts {
            let end = start + p.rows;
            let n = at[done..].partition_point(|&x| x < end);
            if n == 0 {
                parts.push(p.clone());
            } else if rows.is_some() || n as u64 != p.rows {
                let store = store.ok_or_else(|| {
                    SqlError::Io("table has disk parts but no part store is attached".into())
                })?;
                let raw = store.read_part(p.id)?;
                let chunk = RecordBatch::new(schema.clone(), raw.columns().to_vec())?;
                let local: Vec<usize> = at[done..done + n]
                    .iter()
                    .map(|&x| (x - start) as usize)
                    .collect();
                let new_rows = rows.map(|r| r.slice(done, n));
                let edited = edit_chunk(&chunk, &local, new_rows.as_ref())?;
                parts.push(store.hold_part(&edited, p.level));
            }
            (start, done) = (end, done + n);
        }
        let local: Vec<usize> = at[done..].iter().map(|&x| (x - start) as usize).collect();
        let tail_rows = rows.map(|r| r.slice(done, usize::MAX));
        Ok((parts, edit_chunk(&self.data, &local, tail_rows.as_ref())?))
    }
}

/// `chunk` with the rows at `at` (ascending positions within it) replaced,
/// in order, by `rows` (an UPDATE) or removed (`None`: a DELETE).
pub(crate) fn edit_chunk(
    chunk: &RecordBatch,
    at: &[usize],
    rows: Option<&RecordBatch>,
) -> Result<RecordBatch> {
    if at.is_empty() {
        return Ok(chunk.clone());
    }
    let n = chunk.num_rows();
    match rows {
        None => {
            let mut keep = vec![true; n];
            for &i in at {
                keep[i] = false;
            }
            chunk.filter(&keep)
        }
        Some(rows) => {
            // Row `n + j` of the concatenation is the `j`-th new row.
            let both = RecordBatch::concat(chunk.schema().clone(), &[chunk.clone(), rows.clone()])?;
            let mut pick: Vec<usize> = (0..n).collect();
            for (j, &i) in at.iter().enumerate() {
                pick[i] = n + j;
            }
            both.take(&pick)
        }
    }
}

/// Per-column `[lo, hi]` bounds (either side open) keyed by scan output
/// column: what a predicate implies, in the form zone maps prune with.
pub type ColBounds = HashMap<usize, (Option<f64>, Option<f64>)>;

/// The rows of one table version as a sequence of chunks: its disk parts,
/// oldest first, each decoded only when read and only for the wanted
/// columns, then its resident tail. Every reader of a version's rows —
/// the executor's `Scan`, ALTER, the continuous-query tick and the state
/// digest — goes through this one source, so none of them knows where the
/// rows live; only UPDATE and DELETE, which rewrite parts in place, walk
/// a version's parts themselves. Chunks are read by index, in any order
/// and from several threads; a reader holds each decoded part through a
/// `DecodeGate`, which keeps the parts it has in flight within the
/// table memory budget and records their peak.
#[derive(Debug, Clone)]
pub struct TableScan {
    /// Schema of every chunk (the projected columns).
    schema: Arc<Schema>,
    store: Option<Arc<PartStore>>,
    /// Parts still to read, oldest first.
    parts: Vec<Part>,
    /// Parts dropped by zone-map pruning, and how many there were before.
    pruned: usize,
    total_parts: usize,
    /// Projected resident tail.
    tail: RecordBatch,
    /// Base-table column indices to decode; `None` = every column.
    projection: Option<Vec<usize>>,
    /// Leading rows of the first part not to return (a cursor inside it).
    skip: usize,
}

impl TableScan {
    /// Disk `parts` (read from `store`) followed by the resident `tail`.
    pub fn new(parts: &[Part], tail: &RecordBatch, store: Option<&Arc<PartStore>>) -> Self {
        TableScan {
            schema: tail.schema().clone(),
            store: store.cloned(),
            parts: parts.to_vec(),
            pruned: 0,
            total_parts: parts.len(),
            tail: tail.clone(),
            projection: None,
            skip: 0,
        }
    }

    /// Read only the base-table columns `projection` (all when `None`),
    /// presented under `schema`.
    pub fn project(mut self, projection: Option<&[usize]>, schema: Arc<Schema>) -> Result<Self> {
        let columns = match projection {
            Some(indices) => indices.iter().map(|&i| self.tail.column(i).clone()).collect(),
            None => self.tail.columns().to_vec(),
        };
        self.tail = RecordBatch::new(schema.clone(), columns)?;
        self.schema = schema;
        self.projection = projection.map(<[usize]>::to_vec);
        Ok(self)
    }

    /// Zone-map pruning: drop every part whose zone maps show no row can
    /// fall inside `bounds`. Counted on the part store as parts pruned and
    /// parts scanned.
    pub fn prune(&mut self, bounds: &ColBounds) {
        let Some(store) = self.store.as_ref().filter(|_| !self.parts.is_empty()) else {
            return;
        };
        let projection = self.projection.as_deref();
        self.parts.retain(|p| {
            p.may_match(
                bounds
                    .iter()
                    .map(|(&c, &b)| (projection.map_or(c, |pr| pr[c]), b)),
            )
        });
        self.pruned = self.total_parts - self.parts.len();
        store
            .zonemap_parts_pruned
            .fetch_add(self.pruned as u64, Ordering::Relaxed);
        store
            .zonemap_parts_scanned
            .fetch_add(self.parts.len() as u64, Ordering::Relaxed);
    }

    /// Start at row `n` of the version: parts wholly before it are skipped
    /// by their row counts and never decoded.
    pub fn skip_rows(mut self, mut n: usize) -> Self {
        while self.parts.first().is_some_and(|p| p.rows as usize <= n) {
            n -= self.parts.remove(0).rows as usize;
        }
        if self.parts.is_empty() {
            self.tail = self.tail.slice(n, usize::MAX);
        } else {
            self.skip = n;
        }
        self
    }

    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// Parts still to read.
    pub fn parts(&self) -> &[Part] {
        &self.parts
    }

    /// Parts pruned, of how many the version had.
    pub fn pruned(&self) -> (usize, usize) {
        (self.pruned, self.total_parts)
    }

    /// Rows the scan reads (after pruning and skipping, before any filter).
    pub fn rows(&self) -> usize {
        self.parts.iter().map(|p| p.rows as usize).sum::<usize>() - self.skip
            + self.tail.num_rows()
    }

    /// Chunks to read: the remaining parts, then the tail unless empty.
    pub fn chunk_count(&self) -> usize {
        self.parts.len() + usize::from(self.tail.num_rows() > 0)
    }

    /// Chunk `i` of [`chunk_count`](Self::chunk_count): part `i` decoded,
    /// or the resident tail after the last part.
    pub fn chunk(&self, i: usize) -> Result<RecordBatch> {
        let Some(p) = self.parts.get(i) else {
            return Ok(self.tail.clone());
        };
        let store = self.store.as_ref().ok_or_else(|| {
            SqlError::Io("table has disk parts but no part store is attached".into())
        })?;
        let raw = store.read_part_projected(p.id, self.projection.as_deref())?;
        // decoded under the part's stored schema; present as ours
        let chunk = RecordBatch::new(self.schema.clone(), raw.columns().to_vec())?;
        Ok(match i {
            0 if self.skip > 0 => chunk.slice(self.skip, usize::MAX),
            _ => chunk,
        })
    }

    /// Decoded bytes of chunk `i` as the memory budget counts them (8 per
    /// cell); the resident tail decodes nothing.
    pub(crate) fn chunk_bytes(&self, i: usize) -> u64 {
        self.parts
            .get(i)
            .map_or(0, |p| p.rows * self.schema.len() as u64 * 8)
    }

    /// The gate one read of this scan holds its decoded parts through.
    pub(crate) fn decode_gate(&self) -> DecodeGate {
        match &self.store {
            Some(store) => store.decode_gate(),
            None => DecodeGate::new(0, None),
        }
    }

    /// The chunks in order, one decoded part alive at a time.
    pub fn chunks(&self) -> impl Iterator<Item = Result<RecordBatch>> + '_ {
        let gate = self.decode_gate();
        (0..self.chunk_count()).map(move |i| {
            let _held = gate.reserve(self.chunk_bytes(i));
            self.chunk(i)
        })
    }

    /// Drain every chunk into one batch.
    pub fn collect(&self) -> Result<RecordBatch> {
        let chunks = self.chunks().collect::<Result<Vec<_>>>()?;
        concat_chunks(&self.schema, chunks)
    }
}

/// Concatenate a scan's chunks. A lone non-empty chunk — a resident
/// table, or everything pruned but one chunk — comes back as-is, never
/// copied through [`RecordBatch::concat`].
pub fn concat_chunks(schema: &Arc<Schema>, chunks: Vec<RecordBatch>) -> Result<RecordBatch> {
    let mut chunks: Vec<RecordBatch> = chunks.into_iter().filter(|c| c.num_rows() > 0).collect();
    match chunks.len() {
        0 => Ok(RecordBatch::empty(schema.clone())),
        1 => Ok(chunks.remove(0)),
        _ => RecordBatch::concat(schema.clone(), &chunks),
    }
}

/// A named, versioned table.
#[derive(Debug, Clone)]
pub struct Table {
    name: String,
    schema: Arc<Schema>,
    versions: Vec<Arc<TableVersion>>,
}

impl Table {
    /// Create an empty table; version 1 is the empty snapshot.
    pub fn new(name: impl Into<String>, schema: Schema, txn_id: u64) -> Result<Self> {
        schema.check_unique_names()?;
        let schema = Arc::new(schema);
        let data = RecordBatch::empty(schema.clone());
        Ok(Table {
            name: name.into(),
            schema,
            versions: vec![TableVersion::new(1, txn_id, Vec::new(), data)],
        })
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// Latest committed version.
    pub fn current(&self) -> &Arc<TableVersion> {
        self.versions.last().expect("tables always have >=1 version")
    }

    /// Latest version number.
    pub fn current_version(&self) -> u64 {
        self.current().version
    }

    pub fn versions(&self) -> &[Arc<TableVersion>] {
        &self.versions
    }

    /// Time-travel read of a specific version.
    pub fn at_version(&self, version: u64) -> Result<&Arc<TableVersion>> {
        self.versions
            .iter()
            .find(|v| v.version == version)
            .ok_or_else(|| {
                SqlError::Catalog(format!(
                    "table '{}' has no version {version} (latest is {})",
                    self.name,
                    self.current_version()
                ))
            })
    }

    pub fn row_count(&self) -> usize {
        self.current().total_rows()
    }

    /// Install a fully resident snapshot. Only ALTER TABLE (through
    /// [`evolve`](Self::evolve)) writes one: it drains the version's
    /// [`TableScan`] into one batch under the new schema, so no part of
    /// the old layout is referenced by the new version. Row writes keep
    /// their parts through [`push_version_with_parts`](Self::push_version_with_parts).
    pub fn push_version(&mut self, data: RecordBatch, txn_id: u64) -> Result<u64> {
        self.push_version_with_parts(Vec::new(), data, txn_id)
    }

    /// Install a new snapshot as disk parts plus a resident tail (appends
    /// carry the current parts forward; UPDATE and DELETE carry the parts
    /// they did not touch and put a rewritten part in the place of each
    /// one they did).
    pub fn push_version_with_parts(
        &mut self,
        parts: Vec<Part>,
        data: RecordBatch,
        txn_id: u64,
    ) -> Result<u64> {
        if data.schema().len() != self.schema.len() {
            return Err(SqlError::Constraint(format!(
                "new version of '{}' has wrong arity",
                self.name
            )));
        }
        let version = self.current_version() + 1;
        self.versions
            .push(TableVersion::new(version, txn_id, parts, data));
        Ok(version)
    }

    /// Replace the current version in place with a part-backed equivalent
    /// (offload: same version number and txn, same logical rows, but
    /// history collapsed to one version whose prefix lives on disk; merge:
    /// a run of parts folded into one). The current version becomes a new
    /// `Arc`, so cached plans bound to the old one are rebound.
    pub fn replace_current_with_parts(&mut self, parts: Vec<Part>, tail: RecordBatch) {
        let cur = self.current();
        let v = TableVersion::new(cur.version, cur.txn_id, parts, tail);
        *self.versions.last_mut().expect("tables always have >=1 version") = v;
    }

    /// Install a new snapshot *with a new schema* (ALTER TABLE). Older
    /// versions keep their original schema; time-travel reads see the
    /// schema that was live at that version.
    pub fn evolve(&mut self, new_schema: Schema, data: RecordBatch, txn_id: u64) -> Result<u64> {
        new_schema.check_unique_names()?;
        if data.schema().len() != new_schema.len() {
            return Err(SqlError::Constraint(format!(
                "evolved snapshot of '{}' does not match the new schema",
                self.name
            )));
        }
        self.schema = Arc::new(new_schema);
        self.push_version(data, txn_id)
    }

    /// Drop all but the most recent `keep` versions (history truncation;
    /// the provenance catalog retains the lineage record independently).
    pub fn truncate_history(&mut self, keep: usize) {
        let keep = keep.max(1);
        if self.versions.len() > keep {
            self.versions.drain(..self.versions.len() - keep);
        }
    }

    /// History truncation that refuses to drop any version in `pinned`
    /// (versions a deployed model's lineage records as its training data).
    /// Returns the version numbers actually dropped.
    pub fn truncate_history_pinned(&mut self, keep: usize, pinned: &[u64]) -> Result<Vec<u64>> {
        let keep = keep.max(1);
        if self.versions.len() <= keep {
            return Ok(Vec::new());
        }
        let cut = self.versions.len() - keep;
        let dropped: Vec<u64> = self.versions[..cut].iter().map(|v| v.version).collect();
        if let Some(pin) = dropped.iter().find(|v| pinned.contains(v)) {
            return Err(SqlError::Constraint(format!(
                "cannot truncate history of '{}': version {pin} is pinned by \
                 a deployed model's lineage (keep more versions or drop the \
                 model first)",
                self.name,
            )));
        }
        self.versions.drain(..cut);
        Ok(dropped)
    }

    /// Append a snapshot with explicit version and txn ids (WAL replay).
    /// The version must extend the chain exactly — a gap means the log and
    /// the base state do not belong together.
    pub fn restore_version(&mut self, version: u64, txn_id: u64, data: RecordBatch) -> Result<()> {
        self.restore_version_with_parts(version, txn_id, Vec::new(), data)
    }

    /// WAL-replay install that carries disk parts forward (AppendRows over
    /// a part-backed base keeps every part and grows the tail; a row delta
    /// keeps the parts before the first one it edits, see
    /// [`TableVersion::apply_delta`]).
    pub fn restore_version_with_parts(
        &mut self,
        version: u64,
        txn_id: u64,
        parts: Vec<Part>,
        data: RecordBatch,
    ) -> Result<()> {
        if version != self.current_version() + 1 {
            return Err(SqlError::Io(format!(
                "wal replay version mismatch on '{}': have {}, log says {version}",
                self.name,
                self.current_version()
            )));
        }
        // The batch carries its schema, so ALTER replays through the same
        // path as plain writes.
        self.schema = data.schema().clone();
        self.versions
            .push(TableVersion::new(version, txn_id, parts, data));
        Ok(())
    }

    /// Rebuild a table from recovered `(version, txn_id, parts, data)`
    /// tuples (checkpoint restore). Stats are recomputed (see
    /// [`TableVersion::new`]); the live schema is the newest snapshot's.
    pub fn from_history(
        name: impl Into<String>,
        history: Vec<(u64, u64, Vec<Part>, RecordBatch)>,
    ) -> Result<Self> {
        let name = name.into();
        let Some(last) = history.last() else {
            return Err(SqlError::Io(format!(
                "checkpoint has no versions for table '{name}'"
            )));
        };
        if history.windows(2).any(|w| w[1].0 <= w[0].0) {
            return Err(SqlError::Io(format!(
                "checkpoint versions for table '{name}' are not increasing"
            )));
        }
        let schema = last.3.schema().clone();
        let versions = history
            .into_iter()
            .map(|(version, txn_id, parts, data)| TableVersion::new(version, txn_id, parts, data))
            .collect();
        Ok(Table {
            name,
            schema,
            versions,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use crate::types::{DataType, Value};

    fn make() -> Table {
        Table::new(
            "t",
            Schema::from_pairs(&[("id", DataType::Int), ("v", DataType::Float)]),
            1,
        )
        .unwrap()
    }

    fn batch_of(t: &Table, rows: &[(i64, f64)]) -> RecordBatch {
        let rows: Vec<Vec<Value>> = rows
            .iter()
            .map(|(i, f)| vec![Value::Int(*i), Value::Float(*f)])
            .collect();
        RecordBatch::from_rows(t.schema().clone(), &rows).unwrap()
    }

    #[test]
    fn new_table_starts_at_version_one() {
        let t = make();
        assert_eq!(t.current_version(), 1);
        assert_eq!(t.row_count(), 0);
    }

    #[test]
    fn writes_create_new_versions_and_keep_old() {
        let mut t = make();
        let b1 = batch_of(&t, &[(1, 0.5)]);
        let v2 = t.push_version(b1, 7).unwrap();
        assert_eq!(v2, 2);
        let b2 = batch_of(&t, &[(1, 0.5), (2, 1.5)]);
        t.push_version(b2, 8).unwrap();

        assert_eq!(t.current_version(), 3);
        assert_eq!(t.row_count(), 2);
        // Time travel: version 2 still has one row.
        let old = t.at_version(2).unwrap();
        assert_eq!(old.data.num_rows(), 1);
        assert_eq!(old.txn_id, 7);
        assert!(t.at_version(99).is_err());
    }

    #[test]
    fn stats_follow_versions() {
        let mut t = make();
        t.push_version(batch_of(&t, &[(1, 2.0), (2, 8.0)]), 2).unwrap();
        let st = &t.current().stats;
        assert_eq!(st.row_count, 2);
        assert_eq!(st.columns[1].max, Some(8.0));
    }

    #[test]
    fn history_truncation_keeps_latest() {
        let mut t = make();
        for i in 0..5 {
            t.push_version(batch_of(&t, &[(i, i as f64)]), i as u64 + 2)
                .unwrap();
        }
        assert_eq!(t.versions().len(), 6);
        t.truncate_history(2);
        assert_eq!(t.versions().len(), 2);
        assert_eq!(t.current_version(), 6);
        assert!(t.at_version(1).is_err());
    }

    #[test]
    fn duplicate_schema_names_rejected() {
        let r = Table::new(
            "bad",
            Schema::from_pairs(&[("a", DataType::Int), ("a", DataType::Int)]),
            1,
        );
        assert!(r.is_err());
    }
}
