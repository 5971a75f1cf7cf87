//! Versioned tables.
//!
//! Every committed write (INSERT/UPDATE/DELETE) produces a new immutable
//! [`TableVersion`]. The paper makes table versioning load-bearing for
//! governance: "an INSERT to a table results in a new version of the table
//! in the provenance data model", and model lineage pins the exact data
//! version a model was trained on.
//!
//! A version's rows are its disk parts followed by its resident [`Tail`]:
//! a list of immutable chunks behind `Arc`s, shared by every version that
//! holds them, as parts are. So a version costs what it changed, not the
//! table:
//! - an append shares every chunk of the version before and pushes its
//!   delta as one more; its stats merge the previous version's with the
//!   delta's;
//! - UPDATE and DELETE (and their WAL replay) share every chunk and part
//!   they do not touch and replace each one they do; offload, merge and
//!   recovery recompute the stats over the parts and chunks they install.
//!
//! Chunks of fewer than `SEAL_ROWS / 2` rows ([`SEAL_ROWS`] is the
//! executor's morsel) group into runs of about `SEAL_ROWS` rows
//! (`runs`). Appends and edits fold each closed run of several chunks
//! into one, so a tail holds at most one run of several chunks, its last,
//! of fewer than `SEAL_ROWS` rows. An append thus copies fewer than `SEAL_ROWS`
//! existing rows, and a scan ([`TableScan`]) reads every chunk as a view
//! but that last run, which it concatenates.

use crate::batch::RecordBatch;
use crate::column::{ColumnVector, RawColumn};
use crate::error::{Result, SqlError};
use crate::exec::{resolve_zones, ZoneTerm};
use crate::parts::{DecodeGate, Part, PartStore};
use crate::schema::Schema;
use crate::stats::TableStats;
use crate::types::Value;
use std::collections::HashMap;
use std::ops::Range;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Rows at which a run of small resident chunks is folded into one sealed
/// chunk: the executor's morsel size, so a sealed chunk holds at least one.
pub const SEAL_ROWS: usize = crate::exec::DEFAULT_MORSEL_ROWS;

/// How chunks of `rows` rows each, in order, group into runs: a chunk of
/// at least `SEAL_ROWS / 2` rows alone, adjacent smaller ones together
/// until a run holds `SEAL_ROWS` rows. Every run is closed but a last one
/// of small chunks holding fewer than `SEAL_ROWS` rows, which later chunks
/// may still join.
fn runs(rows: &[usize]) -> Vec<Range<usize>> {
    let mut runs: Vec<Range<usize>> = Vec::new();
    let mut open = 0; // rows of the last run, while it takes more chunks
    for (i, &n) in rows.iter().enumerate() {
        let small = n < SEAL_ROWS / 2;
        match runs.last_mut() {
            Some(run) if open > 0 && small => {
                run.end = i + 1;
                open += n;
            }
            _ => {
                runs.push(i..i + 1);
                open = if small { n } else { 0 };
            }
        }
        if open >= SEAL_ROWS {
            open = 0;
        }
    }
    runs
}

/// A version's resident rows: immutable chunks, oldest first, each shared
/// by `Arc` with every version that holds it. Empty chunks are never kept.
#[derive(Debug, Clone)]
pub struct Tail {
    schema: Arc<Schema>,
    chunks: Vec<Arc<RecordBatch>>,
    rows: usize,
}

impl Tail {
    pub fn empty(schema: Arc<Schema>) -> Tail {
        Tail::from_chunks(schema, [])
    }

    /// One batch as a tail of one chunk (of none when it is empty).
    pub fn from_batch(batch: RecordBatch) -> Tail {
        Tail::from_chunks(batch.schema().clone(), [batch])
    }

    /// Batches under `schema`, in order, as a tail.
    pub fn from_chunks(schema: Arc<Schema>, chunks: impl IntoIterator<Item = RecordBatch>) -> Tail {
        Tail::from_shared(schema, chunks.into_iter().map(Arc::new).collect())
    }

    fn from_shared(schema: Arc<Schema>, mut chunks: Vec<Arc<RecordBatch>>) -> Tail {
        chunks.retain(|c| c.num_rows() > 0);
        let rows = chunks.iter().map(|c| c.num_rows()).sum();
        Tail {
            schema,
            chunks,
            rows,
        }
    }

    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    pub fn num_rows(&self) -> usize {
        self.rows
    }

    pub fn num_columns(&self) -> usize {
        self.schema.len()
    }

    /// The chunks, oldest first.
    pub fn chunks(&self) -> &[Arc<RecordBatch>] {
        &self.chunks
    }

    /// This tail with `delta` appended: every chunk shared, the delta
    /// pushed as one more, and the runs it closes folded ([`sealed`]).
    /// Only the last run held several chunks, all small and fewer than
    /// `SEAL_ROWS` rows together, so an append copies fewer than
    /// `SEAL_ROWS` existing rows.
    ///
    /// [`sealed`]: Self::sealed
    pub fn appended(&self, delta: RecordBatch) -> Result<Tail> {
        let mut chunks = self.chunks.clone();
        chunks.push(Arc::new(delta));
        Tail::sealed(self.schema.clone(), chunks)
    }

    /// The tail with each chunk replaced by what `edit` makes of it:
    /// `edit(chunk, first)` — `first` is the chunk's first row within the
    /// tail — returns `None` to keep the chunk (shared), or its
    /// replacement, which is dropped when empty. Chunks a DELETE shrank
    /// under `SEAL_ROWS / 2` rows are folded with their small neighbours
    /// here, once, not at every scan ([`sealed`]).
    ///
    /// [`sealed`]: Self::sealed
    pub(crate) fn edit_chunks(
        &self,
        mut edit: impl FnMut(&RecordBatch, usize) -> Result<Option<RecordBatch>>,
    ) -> Result<Tail> {
        let mut chunks = Vec::with_capacity(self.chunks.len());
        let mut first = 0;
        for c in &self.chunks {
            chunks.push(match edit(c, first)? {
                Some(edited) => Arc::new(edited),
                None => c.clone(),
            });
            first += c.num_rows();
        }
        Tail::sealed(self.schema.clone(), chunks)
    }

    /// A tail of `chunks` with every closed run ([`runs`]) of several
    /// chunks folded into one: only the last run may keep several.
    fn sealed(schema: Arc<Schema>, mut chunks: Vec<Arc<RecordBatch>>) -> Result<Tail> {
        chunks.retain(|c| c.num_rows() > 0);
        let rows: Vec<usize> = chunks.iter().map(|c| c.num_rows()).collect();
        let runs = runs(&rows);
        if runs.len() == chunks.len() {
            return Ok(Tail::from_shared(schema, chunks));
        }
        let last = runs.len() - 1;
        let mut out = Vec::with_capacity(chunks.len());
        for (i, run) in runs.into_iter().enumerate() {
            let closed = i < last || rows[run.clone()].iter().sum::<usize>() >= SEAL_ROWS;
            match &chunks[run] {
                many @ [_, _, ..] if closed => out.push(Arc::new(concat_shared(&schema, many)?)),
                run => out.extend_from_slice(run),
            }
        }
        Ok(Tail::from_shared(schema, out))
    }

    /// The rows as one batch: a lone chunk as it is, several concatenated.
    pub fn collect(&self) -> Result<RecordBatch> {
        match self.chunks.as_slice() {
            [] => Ok(RecordBatch::empty(self.schema.clone())),
            [one] => Ok(RecordBatch::clone(one)),
            many => concat_shared(&self.schema, many),
        }
    }
}

fn concat_shared(schema: &Arc<Schema>, chunks: &[Arc<RecordBatch>]) -> Result<RecordBatch> {
    let chunks: Vec<RecordBatch> = chunks.iter().map(|c| RecordBatch::clone(c)).collect();
    RecordBatch::concat(schema.clone(), &chunks)
}

/// One immutable snapshot of a table's contents.
///
/// A version's rows are the concatenation of its disk-resident `parts`
/// (in order) followed by the resident `data` tail. Fully resident
/// versions simply have no parts; nothing else changes. Parts and tail
/// chunks are immutable and shared by the versions of a table that hold
/// them (an append carries every part and chunk forward).
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
    pub data: Tail,
    /// Row count and per-column null count and min/max over parts and
    /// tail (see [`TableStats`]).
    pub stats: TableStats,
}

impl TableVersion {
    /// A snapshot with its statistics computed over the tail and the
    /// parts' zone maps — a pure function of both, so building one never
    /// touches part files.
    pub fn new(version: u64, txn_id: u64, parts: Vec<Part>, data: Tail) -> Arc<Self> {
        let stats = TableStats::compute_with_parts(&parts, &data);
        Arc::new(TableVersion {
            version,
            txn_id,
            parts,
            data,
            stats,
        })
    }

    /// The next snapshot of an append: this one's parts and chunks with
    /// `delta` after them, and its stats merged with the delta's — work in
    /// the size of the delta, not of the table.
    fn appended(&self, version: u64, txn_id: u64, delta: RecordBatch) -> Result<Arc<Self>> {
        let want = self.data.schema().columns().iter().map(|c| c.data_type);
        if !want.eq(delta.columns().iter().map(|c| c.data_type())) {
            return Err(SqlError::Constraint(format!(
                "appended rows do not match the columns of version {}",
                self.version
            )));
        }
        let stats = self.stats.merge(&TableStats::compute(&delta));
        Ok(Arc::new(TableVersion {
            version,
            txn_id,
            parts: self.parts.clone(),
            data: self.data.appended(delta)?,
            stats,
        }))
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
    /// The columns its stats mark sorted are read by range as row slices.
    pub fn scan(&self, store: Option<&Arc<PartStore>>) -> TableScan {
        let tail = self.data.chunks().iter().map(|c| RecordBatch::clone(c));
        let mut scan =
            TableScan::with_tail(&self.parts, self.data.schema(), tail.collect(), store);
        scan.sorted = self.stats.columns.iter().map(|c| c.sorted).collect();
        scan
    }

    /// The parts and tail of this version with a row delta applied — how
    /// WAL replay redoes an UPDATE or DELETE. `at` lists logical row
    /// positions, strictly ascending; `rows` holds the new rows at those
    /// positions in order (an UPDATE), or is `None` (a DELETE). Positions
    /// are logical, so the delta applies to any physical layout of the
    /// same rows. As the statement did, it carries untouched parts and
    /// chunks by reference, drops a part the DELETE empties without
    /// reading it, and puts one rebuilt part or chunk in the place of each
    /// edited one — but writes no file: rebuilt parts are held in memory
    /// until the next checkpoint writes them out ([`PartStore::hold_part`]).
    pub(crate) fn apply_delta(
        &self,
        store: Option<&Arc<PartStore>>,
        at: &[u64],
        rows: Option<&RecordBatch>,
    ) -> Result<(Vec<Part>, Tail)> {
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
        // Positions in `[start, end)`, relative to `start`, and the new
        // rows that go there; `done` counts the positions consumed.
        let mut done = 0usize;
        let mut take = |start: u64, end: u64| {
            let n = at[done..].partition_point(|&x| x < end);
            let local: Vec<usize> = at[done..done + n]
                .iter()
                .map(|&x| (x - start) as usize)
                .collect();
            let new_rows = rows.map(|r| r.slice(done, n));
            done += n;
            (local, new_rows)
        };
        let mut start = 0u64;
        for p in &self.parts {
            let end = start + p.rows;
            let (local, new_rows) = take(start, end);
            if local.is_empty() {
                parts.push(p.clone());
            } else if new_rows.is_some() || local.len() as u64 != p.rows {
                let store = store.ok_or_else(|| {
                    SqlError::Io("table has disk parts but no part store is attached".into())
                })?;
                let raw = store.read_part(p.id)?;
                let chunk = RecordBatch::new(schema.clone(), raw.columns().to_vec())?;
                let edited = edit_chunk(&chunk, &local, new_rows.as_ref())?;
                parts.push(store.hold_part(&edited, p.level));
            }
            start = end;
        }
        let tail = self.data.edit_chunks(|chunk, first| {
            let first = start + first as u64;
            let (local, new_rows) = take(first, first + chunk.num_rows() as u64);
            match local.is_empty() {
                true => Ok(None),
                false => edit_chunk(chunk, &local, new_rows.as_ref()).map(Some),
            }
        })?;
        Ok((parts, tail))
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

/// The rows of `c`, sorted with no NULL, that may lie in `[lo, hi]` under
/// the numeric view: two `partition_point`s. Rounding to `f64` keeps the
/// order, so the slice holds every row the bounds admit.
fn sorted_slice(c: &ColumnVector, lo: Option<f64>, hi: Option<f64>) -> Range<usize> {
    fn slice<T: Copy>(
        v: &[T],
        f: impl Fn(T) -> f64,
        lo: Option<f64>,
        hi: Option<f64>,
    ) -> Range<usize> {
        let start = lo.map_or(0, |lo| v.partition_point(|&x| f(x) < lo));
        let end = hi.map_or(v.len(), |hi| v.partition_point(|&x| f(x) <= hi));
        start..end.max(start)
    }
    match c.raw() {
        RawColumn::Bool(v) => slice(v, |x| x as i64 as f64, lo, hi),
        RawColumn::Int(v) => slice(v, |x| x as f64, lo, hi),
        RawColumn::Float(v) => slice(v, |x| x, lo, hi),
        RawColumn::Date(v) => slice(v, |x| x as f64, lo, hi),
        RawColumn::Text(_) | RawColumn::Dict { .. } => 0..c.len(),
    }
}

/// The rows of one table version as a sequence of chunks: its disk parts,
/// oldest first, each decoded only when read and only for the wanted
/// columns, then its resident tail chunks. Every reader of a version's
/// rows — the executor's `Scan`, ALTER, the continuous-query tick and the
/// state digest — goes through this one source, so none of them knows
/// where the rows live; only UPDATE and DELETE, which rewrite parts and
/// chunks in place, walk a version's parts and tail themselves. Chunks are
/// read by index, in any order and from several threads; a reader holds
/// each decoded part through a `DecodeGate`, which keeps the parts it has
/// in flight within the table memory budget and records their peak.
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
    /// Projected resident chunks, none empty, in runs: each run is read
    /// as one chunk ([`coalesce`]).
    tail: Vec<Vec<RecordBatch>>,
    /// Base-table column indices to decode; `None` = every column.
    projection: Option<Vec<usize>>,
    /// Leading rows of the first part not to return (a cursor inside it).
    skip: usize,
    /// Zone terms naming `?` parameters: pruning waits for
    /// [`bind`](Self::bind).
    deferred: Vec<ZoneTerm>,
    /// Per scan column: the version's rows are sorted on it
    /// ([`ColumnStats::sorted`](crate::stats::ColumnStats::sorted)), so
    /// a range on it is a row slice ([`narrow`](Self::narrow)).
    sorted: Vec<bool>,
    /// The sorted columns a range narrowed the resident rows by, and the
    /// rows of the scan it kept.
    narrowed: Option<(Vec<usize>, Range<usize>)>,
}

impl TableScan {
    /// Disk `parts` (read from `store`) followed by the resident `tail`.
    pub fn new(parts: &[Part], tail: &RecordBatch, store: Option<&Arc<PartStore>>) -> Self {
        Self::with_tail(parts, tail.schema(), vec![tail.clone()], store)
    }

    fn with_tail(
        parts: &[Part],
        schema: &Arc<Schema>,
        tail: Vec<RecordBatch>,
        store: Option<&Arc<PartStore>>,
    ) -> Self {
        TableScan {
            schema: schema.clone(),
            store: store.cloned(),
            parts: parts.to_vec(),
            pruned: 0,
            total_parts: parts.len(),
            tail: coalesce(tail),
            projection: None,
            skip: 0,
            deferred: Vec::new(),
            sorted: vec![false; schema.len()],
            narrowed: None,
        }
    }

    /// Read only the base-table columns `projection` (all when `None`),
    /// presented under `schema`.
    pub fn project(mut self, projection: Option<&[usize]>, schema: Arc<Schema>) -> Result<Self> {
        for chunk in self.tail.iter_mut().flatten() {
            let columns = match projection {
                Some(indices) => indices.iter().map(|&i| chunk.column(i).clone()).collect(),
                None => chunk.columns().to_vec(),
            };
            *chunk = RecordBatch::new(schema.clone(), columns)?;
        }
        if let Some(indices) = projection {
            self.sorted = indices.iter().map(|&i| self.sorted[i]).collect();
        }
        self.schema = schema;
        self.projection = projection.map(<[usize]>::to_vec);
        Ok(self)
    }

    /// Zone-map pruning: drop every part whose zone maps show no row can
    /// fall inside `bounds`, and narrow the resident chunks by the bounds
    /// on sorted columns ([`narrow`](Self::narrow)). Counted on the part
    /// store as parts pruned and parts scanned.
    pub fn prune(&mut self, bounds: &ColBounds) {
        self.narrow(bounds);
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

    /// Prune by `terms`, some of which name `?` parameters, each time the
    /// scan runs, once they are bound ([`bind`](Self::bind)).
    pub(crate) fn prune_when_bound(&mut self, terms: Vec<ZoneTerm>) {
        self.deferred = terms;
    }

    /// Narrow every resident chunk to the rows that `bounds` on sorted
    /// columns admit, before any run of them is concatenated, so a range
    /// read copies only rows in range. The rows of a sorted version that
    /// lie in a range are contiguous: what is kept is one slice of the
    /// scan, a superset of the rows the filter then keeps. A NaN bound is
    /// left open.
    fn narrow(&mut self, bounds: &ColBounds) {
        let bound = |b: Option<f64>| b.filter(|x| !x.is_nan());
        let mut ranges: Vec<(usize, Option<f64>, Option<f64>)> = (bounds.iter())
            .filter(|(&c, _)| self.sorted.get(c) == Some(&true))
            .map(|(&c, &(lo, hi))| (c, bound(lo), bound(hi)))
            .filter(|&(_, lo, hi)| lo.is_some() || hi.is_some())
            .collect();
        if ranges.is_empty() {
            return;
        }
        ranges.sort_by_key(|r| r.0);
        let (mut before, mut kept) = (0, 0);
        for run in &mut self.tail {
            for chunk in run.iter_mut() {
                let (mut start, mut end) = (0, chunk.num_rows());
                for &(c, lo, hi) in &ranges {
                    let rows = sorted_slice(chunk.column(c), lo, hi);
                    (start, end) = (start.max(rows.start), end.min(rows.end));
                }
                let len = end.saturating_sub(start);
                before += start;
                kept += len;
                *chunk = chunk.slice(start, len);
            }
            run.retain(|c| c.num_rows() > 0);
        }
        self.tail.retain(|run| !run.is_empty());
        let columns = ranges.iter().map(|r| r.0).collect();
        self.narrowed = Some((columns, before..before + kept));
    }

    /// The sorted columns a range narrowed this scan by, and the rows of
    /// the scan it kept ([`narrow`](Self::narrow)).
    pub fn narrowed(&self) -> Option<(&[usize], Range<usize>)> {
        (self.narrowed.as_ref()).map(|(columns, rows)| (columns.as_slice(), rows.clone()))
    }

    /// This scan pruned and narrowed by its deferred zone terms with the
    /// parameters bound to `params`: `None` when it has none, or neither a
    /// part to prune nor a sorted column they bound.
    pub(crate) fn bind(&self, params: &[Value]) -> Option<TableScan> {
        let sorted = |&(c, ..): &ZoneTerm| self.sorted.get(c) == Some(&true);
        let narrows = self.deferred.iter().any(sorted);
        if self.deferred.is_empty() || (self.parts.is_empty() && !narrows) {
            return None;
        }
        let mut bound = TableScan {
            deferred: Vec::new(),
            ..self.clone()
        };
        bound.prune(&resolve_zones(&self.deferred, Some(params)));
        Some(bound)
    }

    /// Start at row `n` of the version: parts and tail chunks wholly
    /// before it are skipped by their row counts and never decoded.
    pub fn skip_rows(mut self, mut n: usize) -> Self {
        while self.parts.first().is_some_and(|p| p.rows as usize <= n) {
            n -= self.parts.remove(0).rows as usize;
        }
        if !self.parts.is_empty() {
            self.skip = n;
            return self;
        }
        let run_rows =
            |run: &Vec<RecordBatch>| run.iter().map(RecordBatch::num_rows).sum::<usize>();
        while self.tail.first().is_some_and(|run| run_rows(run) <= n) {
            n -= run_rows(&self.tail.remove(0));
        }
        if let Some(run) = self.tail.first_mut() {
            while run[0].num_rows() <= n {
                n -= run.remove(0).num_rows();
            }
            run[0] = run[0].slice(n, usize::MAX);
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
            + (self.tail.iter().flatten())
                .map(RecordBatch::num_rows)
                .sum::<usize>()
    }

    /// Chunks to read: the remaining parts, then the tail's runs.
    pub fn chunk_count(&self) -> usize {
        self.parts.len() + self.tail.len()
    }

    /// Chunk `i` of [`chunk_count`](Self::chunk_count): part `i` decoded,
    /// or after the last part a run of resident chunks, as one batch.
    pub fn chunk(&self, i: usize) -> Result<RecordBatch> {
        let Some(p) = self.parts.get(i) else {
            return match self.tail[i - self.parts.len()].as_slice() {
                [one] => Ok(one.clone()),
                run => concat_chunks(&self.schema, run.to_vec()),
            };
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
    /// cell); a resident chunk decodes nothing.
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

/// A tail's chunks grouped into the [`runs`] a scan reads as one chunk
/// each: a lone chunk as a view, several concatenated over the columns
/// read — so a tail grown by many small appends is read in morsel-sized
/// batches. The runs depend only on row counts, so every projection of a
/// version reads the same ones.
fn coalesce(tail: Vec<RecordBatch>) -> Vec<Vec<RecordBatch>> {
    let tail: Vec<RecordBatch> = tail.into_iter().filter(|c| c.num_rows() > 0).collect();
    let rows: Vec<usize> = tail.iter().map(RecordBatch::num_rows).collect();
    let mut tail = tail.into_iter();
    (runs(&rows).into_iter())
        .map(|run| tail.by_ref().take(run.len()).collect())
        .collect()
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
        let data = Tail::empty(schema.clone());
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
    /// their parts through [`push_version_with_parts`](Self::push_version_with_parts)
    /// and [`push_append`](Self::push_append).
    pub fn push_version(&mut self, data: RecordBatch, txn_id: u64) -> Result<u64> {
        self.push_version_with_parts(Vec::new(), Tail::from_batch(data), txn_id)
    }

    /// Install a new snapshot as disk parts plus a resident tail (UPDATE
    /// and DELETE carry the parts and chunks they did not touch and put a
    /// rewritten one in the place of each one they did).
    pub fn push_version_with_parts(
        &mut self,
        parts: Vec<Part>,
        data: Tail,
        txn_id: u64,
    ) -> Result<u64> {
        if data.num_columns() != self.schema.len() {
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

    /// Install the current version with `delta` appended (its columns
    /// already of this table's types): every part and chunk shared, the
    /// stats merged ([`Tail::appended`]).
    pub fn push_append(&mut self, delta: RecordBatch, txn_id: u64) -> Result<u64> {
        let version = self.current_version() + 1;
        self.restore_append(version, txn_id, delta)?;
        Ok(version)
    }

    /// Replace the current version in place with a part-backed equivalent
    /// (offload: same version number and txn, same logical rows, but
    /// history collapsed to one version whose prefix lives on disk; merge:
    /// a run of parts folded into one). The current version becomes a new
    /// `Arc`, so cached plans bound to the old one are rebound.
    pub fn replace_current_with_parts(&mut self, parts: Vec<Part>, tail: Tail) {
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
        self.restore_version_with_parts(version, txn_id, Vec::new(), Tail::from_batch(data))
    }

    /// WAL-replay install of a row delta: the parts and chunks it did not
    /// touch carried forward (see [`TableVersion::apply_delta`]).
    pub fn restore_version_with_parts(
        &mut self,
        version: u64,
        txn_id: u64,
        parts: Vec<Part>,
        data: Tail,
    ) -> Result<()> {
        self.check_replayed(version)?;
        // The tail carries its schema, so ALTER replays through the same
        // path as plain writes.
        self.schema = data.schema().clone();
        self.versions
            .push(TableVersion::new(version, txn_id, parts, data));
        Ok(())
    }

    /// Install `delta` appended as `version` (WAL replay; a live append is
    /// [`push_append`](Self::push_append)): every part and chunk shared,
    /// the stats merged.
    pub fn restore_append(&mut self, version: u64, txn_id: u64, delta: RecordBatch) -> Result<()> {
        self.check_replayed(version)?;
        let next = self.current().appended(version, txn_id, delta)?;
        self.versions.push(next);
        Ok(())
    }

    /// A replayed version must extend the chain exactly.
    fn check_replayed(&self, version: u64) -> Result<()> {
        if version != self.current_version() + 1 {
            return Err(SqlError::Io(format!(
                "wal replay version mismatch on '{}': have {}, log says {version}",
                self.name,
                self.current_version()
            )));
        }
        Ok(())
    }

    /// Rebuild a table from recovered `(version, txn_id, parts, data)`
    /// tuples (checkpoint restore). Stats are recomputed (see
    /// [`TableVersion::new`]); the live schema is the newest snapshot's.
    pub fn from_history(
        name: impl Into<String>,
        history: Vec<(u64, u64, Vec<Part>, Tail)>,
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

    /// Each closed run of `tail` is one chunk; only the last may hold
    /// several, fewer than `SEAL_ROWS` rows together.
    fn assert_sealed(tail: &Tail, ctx: &str) {
        let rows: Vec<usize> = tail.chunks().iter().map(|c| c.num_rows()).collect();
        let runs = runs(&rows);
        let Some((last, closed)) = runs.split_last() else {
            return;
        };
        assert!(closed.iter().all(|r| r.len() == 1), "{ctx}: {rows:?}");
        let open: usize = rows[last.clone()].iter().sum();
        assert!(last.len() == 1 || open < SEAL_ROWS, "{ctx}: {rows:?}");
    }

    fn ids(tail: &Tail) -> Vec<i64> {
        let all = tail.collect().unwrap();
        all.column(0).as_i64_slice().unwrap().to_vec()
    }

    #[test]
    fn a_tail_keeps_only_its_last_run_in_several_chunks() {
        let schema = Arc::new(Schema::from_pairs(&[("id", DataType::Int)]));
        let batch = |ids: Range<i64>| {
            let rows: Vec<Vec<Value>> = ids.map(|i| vec![Value::Int(i)]).collect();
            RecordBatch::from_rows(schema.clone(), &rows).unwrap()
        };
        // 100-row appends, and some of half a morsel or more among them
        let mut tail = Tail::empty(schema.clone());
        let mut next = 0;
        for step in 0..240 {
            let n = if step % 50 == 49 { 3_000 } else { 100 };
            let grown = tail.appended(batch(next..next + n)).unwrap();
            next += n;
            assert_sealed(&grown, &format!("append {step}"));
            // the chunks before the old tail's last run are shared as they were
            let rows: Vec<usize> = tail.chunks().iter().map(|c| c.num_rows()).collect();
            let kept = runs(&rows).last().map_or(0, |r| r.start);
            for (old, new) in tail.chunks()[..kept].iter().zip(grown.chunks()) {
                assert!(Arc::ptr_eq(old, new), "append {step}");
            }
            tail = grown;
        }
        assert_eq!(ids(&tail), (0..next).collect::<Vec<_>>());

        // A DELETE of most rows folds the shrunk chunks once, here; one
        // of a few rows leaves them to be read as views (`insert_load`).
        let most = tail
            .edit_chunks(|chunk, _| {
                let keep: Vec<bool> = (chunk.column(0).as_i64_slice().unwrap().iter())
                    .map(|&i| i % 5 >= 3)
                    .collect();
                chunk.filter(&keep).map(Some)
            })
            .unwrap();
        assert_sealed(&most, "most rows deleted");
        let expect: Vec<i64> = (0..next).filter(|i| i % 5 >= 3).collect();
        assert_eq!(ids(&most), expect);
        let grown = most.appended(batch(next..next + 100)).unwrap();
        assert_sealed(&grown, "append after the deletes");
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
