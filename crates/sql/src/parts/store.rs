//! Disk-resident part storage: id allocation, atomic writes, counters.
//!
//! Parts live beside the WAL segments in the same flat database directory
//! as `part.{id}` files. Writes go through the write-tmp → fsync → rename
//! protocol, so a crash mid-write leaves only a `part.{id}.tmp` orphan that
//! the next open removes; a `part.{id}` file is complete by construction
//! (and its frame checksum proves it). A part becomes *reachable* only when
//! a checkpoint (the manifest) references it — the rename is physical
//! durability, the checkpoint is the atomic commit point. Between the two,
//! the part is *in flight*: its writer (an open transaction, the merger)
//! still owns it, and checkpoint pruning must not delete it.

use crate::batch::RecordBatch;
use crate::error::{Result, SqlError};
use crate::sync;
use crate::wal::DurableFs;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use super::codec::{decode_part, encode_part, validate_part_image};
use super::PartMeta;

/// File name of a final part.
pub fn part_file_name(id: u64) -> String {
    format!("part.{id:08}")
}

/// Parse `part.{id}` (not `.tmp`) into its id.
pub fn parse_part_name(name: &str) -> Option<u64> {
    let rest = name.strip_prefix("part.")?;
    if rest.len() < 8 || !rest.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    rest.parse().ok()
}

fn is_part_tmp(name: &str) -> bool {
    name.starts_with("part.") && name.ends_with(".tmp")
}

/// Shared handle to the database directory's part files, plus the
/// engine-wide part counters surfaced through `flock_metrics`.
pub struct PartStore {
    fs: Arc<dyn DurableFs>,
    next_id: AtomicU64,
    /// Ids handed out by [`write_part`](Self::write_part) whose writer has
    /// not yet released them (see [`release`](Self::release)).
    in_flight: Mutex<BTreeSet<u64>>,
    /// Parts WAL replay rebuilt, held as encoded images in memory —
    /// replay writes no file — until [`flush_held`](Self::flush_held)
    /// writes them out ahead of the next checkpoint.
    held: Mutex<BTreeMap<u64, Arc<Vec<u8>>>>,
    /// Live part files (referenced or awaiting their first checkpoint).
    pub parts_total: Arc<AtomicU64>,
    /// Monotone count of parts retired by background merges.
    pub parts_merged: Arc<AtomicU64>,
    /// Monotone count of parts UPDATE and DELETE rewrote (one new part
    /// per part holding a changed row).
    pub parts_rewritten: Arc<AtomicU64>,
    pub part_bytes_on_disk: Arc<AtomicU64>,
    pub part_bytes_uncompressed: Arc<AtomicU64>,
    /// Parts skipped by zone-map pruning at plan time.
    pub zonemap_parts_pruned: Arc<AtomicU64>,
    /// Parts actually fed to the scan (post-pruning).
    pub zonemap_parts_scanned: Arc<AtomicU64>,
    /// High-water mark of bytes decoded at once by any read of a table
    /// version (one part at a time) — the observable form of the
    /// memory-budget guarantee.
    pub part_scan_peak_bytes: Arc<AtomicU64>,
}

impl PartStore {
    /// Open the store over an existing database directory, writing
    /// nothing: id allocation resumes above every part file on disk
    /// (referenced or orphaned, so ids are never reused even for parts a
    /// prune will later delete). Orphaned tmps are left for
    /// [`sweep_tmps`](Self::sweep_tmps).
    pub fn open(fs: Arc<dyn DurableFs>) -> std::io::Result<PartStore> {
        let max_id = fs
            .list()?
            .iter()
            .filter_map(|name| parse_part_name(name))
            .map(|id| id + 1)
            .max()
            .unwrap_or(0);
        Ok(PartStore {
            fs,
            next_id: AtomicU64::new(max_id),
            in_flight: Mutex::new(BTreeSet::new()),
            held: Mutex::new(BTreeMap::new()),
            parts_total: Arc::new(AtomicU64::new(0)),
            parts_merged: Arc::new(AtomicU64::new(0)),
            parts_rewritten: Arc::new(AtomicU64::new(0)),
            part_bytes_on_disk: Arc::new(AtomicU64::new(0)),
            part_bytes_uncompressed: Arc::new(AtomicU64::new(0)),
            zonemap_parts_pruned: Arc::new(AtomicU64::new(0)),
            zonemap_parts_scanned: Arc::new(AtomicU64::new(0)),
            part_scan_peak_bytes: Arc::new(AtomicU64::new(0)),
        })
    }

    /// Remove the `part.*.tmp` orphans of interrupted writes (called once
    /// recovery has accepted the directory, before any new part is written).
    pub(crate) fn sweep_tmps(&self) -> std::io::Result<()> {
        for name in self.fs.list()?.iter().filter(|n| is_part_tmp(n)) {
            let _ = self.fs.remove(name);
        }
        Ok(())
    }

    /// Counter handles for [`EngineMetrics`](crate::engine) registration.
    pub fn metric_counters(&self) -> Vec<(&'static str, Arc<AtomicU64>)> {
        vec![
            ("parts_total", self.parts_total.clone()),
            ("parts_merged", self.parts_merged.clone()),
            ("parts_rewritten", self.parts_rewritten.clone()),
            ("part_bytes_on_disk", self.part_bytes_on_disk.clone()),
            (
                "part_bytes_uncompressed",
                self.part_bytes_uncompressed.clone(),
            ),
            ("zonemap_parts_pruned", self.zonemap_parts_pruned.clone()),
            ("zonemap_parts_scanned", self.zonemap_parts_scanned.clone()),
            ("part_scan_peak_bytes", self.part_scan_peak_bytes.clone()),
        ]
    }

    /// Reset the inventory counters to an authoritative live-part set
    /// (called after recovery, when the catalog knows which parts exist).
    pub fn set_inventory<'a>(&self, parts: impl Iterator<Item = &'a PartMeta>) {
        let (mut n, mut disk, mut raw) = (0u64, 0u64, 0u64);
        for m in parts {
            n += 1;
            disk += m.bytes_on_disk;
            raw += m.bytes_uncompressed;
        }
        self.parts_total.store(n, Ordering::Relaxed);
        self.part_bytes_on_disk.store(disk, Ordering::Relaxed);
        self.part_bytes_uncompressed.store(raw, Ordering::Relaxed);
    }

    /// Write a batch as a new immutable part: encode, write `part.N.tmp`,
    /// fsync, rename to `part.N`. On any error the final file does not
    /// exist and the orphaned tmp (if any) is swept at the next open.
    ///
    /// The new id is in flight until the caller hands it to
    /// [`release`](Self::release) — once the state that references it is
    /// installed, or the write is abandoned. Checkpoint pruning never
    /// deletes an in-flight part.
    pub fn write_part(&self, batch: &RecordBatch, level: u8) -> Result<PartMeta> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        sync::lock(&self.in_flight).insert(id);
        let (file, meta) = encode_part(id, level, batch);
        if let Err(e) = self.write_image(id, &file) {
            self.release([id]);
            return Err(e);
        }
        self.parts_total.fetch_add(1, Ordering::Relaxed);
        self.part_bytes_on_disk
            .fetch_add(meta.bytes_on_disk, Ordering::Relaxed);
        self.part_bytes_uncompressed
            .fetch_add(meta.bytes_uncompressed, Ordering::Relaxed);
        Ok(meta)
    }

    /// Write `part.{id}` through the tmp → fsync → rename protocol.
    fn write_image(&self, id: u64, file: &[u8]) -> Result<()> {
        let tmp = format!("{}.tmp", part_file_name(id));
        let io = |e: std::io::Error| SqlError::Io(format!("part write: {e}"));
        self.fs.write_all(&tmp, file).map_err(io)?;
        self.fs.sync(&tmp).map_err(io)?;
        self.fs.rename(&tmp, &part_file_name(id)).map_err(io)
    }

    /// Encode a batch as a new part without writing it: WAL replay's form
    /// of [`write_part`](Self::write_part). Reads serve it from memory
    /// until [`flush_held`](Self::flush_held) writes it.
    pub(crate) fn hold_part(&self, batch: &RecordBatch, level: u8) -> PartMeta {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let (file, meta) = encode_part(id, level, batch);
        sync::lock(&self.held).insert(id, Arc::new(file));
        meta
    }

    /// Write every held part to disk. A checkpoint calls this before it
    /// writes a manifest that may reference them; a part is dropped from
    /// memory only once its file is complete.
    pub(crate) fn flush_held(&self) -> Result<()> {
        let held: Vec<(u64, Arc<Vec<u8>>)> = sync::lock(&self.held)
            .iter()
            .map(|(&id, file)| (id, file.clone()))
            .collect();
        for (id, file) in held {
            self.write_image(id, &file)?;
            sync::lock(&self.held).remove(&id);
        }
        Ok(())
    }

    /// End the in-flight window of parts [`write_part`](Self::write_part)
    /// handed out: from here on a part is live only if a retained
    /// checkpoint references it.
    pub fn release(&self, ids: impl IntoIterator<Item = u64>) {
        let mut in_flight = sync::lock(&self.in_flight);
        for id in ids {
            in_flight.remove(&id);
        }
    }

    /// Whether a writer still owns part `id` (pruning skips it).
    pub(crate) fn is_in_flight(&self, id: u64) -> bool {
        sync::lock(&self.in_flight).contains(&id)
    }

    /// Read and fully decode a part.
    pub fn read_part(&self, id: u64) -> Result<RecordBatch> {
        self.read_part_projected(id, None)
    }

    /// Read a part, decoding only the projected columns (arbitrary order).
    pub fn read_part_projected(
        &self,
        id: u64,
        projection: Option<&[usize]>,
    ) -> Result<RecordBatch> {
        let name = part_file_name(id);
        let held = sync::lock(&self.held).get(&id).cloned();
        let bytes = match held {
            Some(file) => file,
            None => Arc::new(
                self.fs
                    .read(&name)
                    .map_err(|e| SqlError::Io(format!("part read {name}: {e}")))?,
            ),
        };
        let part = decode_part(&bytes, projection)
            .map_err(|_| SqlError::Io(format!("part file {name} is corrupt")))?;
        if part.id != id {
            return Err(SqlError::Io(format!(
                "part file {name} claims id {}",
                part.id
            )));
        }
        Ok(part.batch)
    }

    /// True iff the part file exists and passes its frame checksum.
    /// Recovery uses this to reject checkpoint generations that reference
    /// torn or missing parts.
    pub fn validate_part(&self, id: u64) -> bool {
        match self.fs.read(&part_file_name(id)) {
            Ok(bytes) => validate_part_image(&bytes),
            Err(_) => false,
        }
    }

    /// Delete a retired part file and release its inventory bytes.
    pub fn remove_part(&self, meta: &PartMeta) {
        if self.fs.remove(&part_file_name(meta.id)).is_ok() {
            sub_saturating(&self.parts_total, 1);
            sub_saturating(&self.part_bytes_on_disk, meta.bytes_on_disk);
            sub_saturating(&self.part_bytes_uncompressed, meta.bytes_uncompressed);
        }
    }

    /// Record that UPDATE or DELETE rewrote `n` parts.
    pub(crate) fn note_rewritten(&self, n: u64) {
        self.parts_rewritten.fetch_add(n, Ordering::Relaxed);
    }

    /// Record that `retired` source parts were folded into a merged part.
    pub fn note_merged(&self, retired: u64) {
        self.parts_merged.fetch_add(retired, Ordering::Relaxed);
    }

    /// Raise the streaming-scan peak-bytes high-water mark.
    pub fn record_scan_peak(&self, bytes: u64) {
        self.part_scan_peak_bytes.fetch_max(bytes, Ordering::Relaxed);
    }
}

/// The parts one writer — a transaction, a merge step — has in flight.
/// Dropping it releases them, however the writer ends: commit, abort,
/// error or abandonment.
#[derive(Debug, Default)]
pub(crate) struct PartsInFlight {
    store: Option<Arc<PartStore>>,
    ids: Vec<u64>,
}

impl PartsInFlight {
    /// [`PartStore::write_part`], held until this is dropped.
    pub(crate) fn write(
        &mut self,
        store: &Arc<PartStore>,
        batch: &RecordBatch,
        level: u8,
    ) -> Result<PartMeta> {
        let meta = store.write_part(batch, level)?;
        self.store.get_or_insert_with(|| store.clone());
        self.ids.push(meta.id);
        Ok(meta)
    }
}

impl Drop for PartsInFlight {
    fn drop(&mut self) {
        if let Some(store) = &self.store {
            store.release(self.ids.drain(..));
        }
    }
}

impl std::fmt::Debug for PartStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PartStore")
            .field("next_id", &self.next_id.load(Ordering::Relaxed))
            .field("parts_total", &self.parts_total.load(Ordering::Relaxed))
            .finish()
    }
}

fn sub_saturating(counter: &AtomicU64, by: u64) {
    let mut cur = counter.load(Ordering::Relaxed);
    loop {
        let next = cur.saturating_sub(by);
        match counter.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(now) => cur = now,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::ColumnVector;
    use crate::schema::Schema;
    use crate::types::DataType;
    use crate::wal::MemFs;

    fn sample_batch(n: i64) -> RecordBatch {
        let schema = Arc::new(Schema::from_pairs(&[("k", DataType::Int)]));
        RecordBatch::new(schema, vec![ColumnVector::from_i64(0..n)]).unwrap()
    }

    #[test]
    fn write_read_remove_lifecycle() {
        let fs: Arc<dyn DurableFs> = MemFs::new();
        let store = PartStore::open(fs.clone()).unwrap();
        let meta = store.write_part(&sample_batch(100), 0).unwrap();
        assert_eq!(meta.rows, 100);
        assert_eq!(store.parts_total.load(Ordering::Relaxed), 1);
        let back = store.read_part(meta.id).unwrap();
        assert_eq!(back.num_rows(), 100);
        assert!(store.validate_part(meta.id));
        store.remove_part(&meta);
        assert_eq!(store.parts_total.load(Ordering::Relaxed), 0);
        assert!(!store.validate_part(meta.id));
    }

    #[test]
    fn open_sweeps_tmps_and_resumes_ids() {
        let fs: Arc<dyn DurableFs> = MemFs::new();
        {
            let store = PartStore::open(fs.clone()).unwrap();
            store.write_part(&sample_batch(10), 0).unwrap();
            store.write_part(&sample_batch(10), 0).unwrap();
        }
        fs.write_all("part.00000009.tmp", b"torn").unwrap();
        let store = PartStore::open(fs.clone()).unwrap();
        store.sweep_tmps().unwrap();
        assert!(
            !fs.list().unwrap().iter().any(|n| n.ends_with(".tmp")),
            "orphaned tmp must be swept at open"
        );
        let meta = store.write_part(&sample_batch(10), 0).unwrap();
        assert!(meta.id >= 2, "ids must not be reused after reopen");
    }

    #[test]
    fn written_parts_stay_in_flight_until_released() {
        let fs: Arc<dyn DurableFs> = MemFs::new();
        let store = PartStore::open(fs).unwrap();
        let a = store.write_part(&sample_batch(10), 0).unwrap();
        let b = store.write_part(&sample_batch(10), 0).unwrap();
        assert!(store.is_in_flight(a.id) && store.is_in_flight(b.id));
        store.release([a.id]);
        assert!(!store.is_in_flight(a.id) && store.is_in_flight(b.id));
        store.release([b.id]);
        assert!(!store.is_in_flight(b.id));
    }

    #[test]
    fn part_names_parse() {
        assert_eq!(parse_part_name(&part_file_name(7)), Some(7));
        assert_eq!(parse_part_name("part.00000123"), Some(123));
        assert_eq!(parse_part_name("part.00000123.tmp"), None);
        assert_eq!(parse_part_name("wal.00000001"), None);
        assert_eq!(parse_part_name("checkpoint.00000001"), None);
    }
}
