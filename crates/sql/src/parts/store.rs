//! Disk-resident part storage: id allocation, atomic writes, part
//! lifetime, counters.
//!
//! Parts live beside the WAL segments in the same flat database directory
//! as `part.{id}` files. Writes go through the write-tmp → fsync → rename
//! protocol, so a crash mid-write leaves only a `part.{id}.tmp` orphan that
//! the next open removes; a `part.{id}` file is complete by construction
//! (and its frame checksum proves it).
//!
//! Every reference to a part is a [`Part`] handle — table versions (so
//! every catalog clone), scans, cached plans, the merger's run. A part file
//! lives while a handle or a retained checkpoint names it: dropping the
//! last handle queues the id as *dead*, and a checkpoint deletes each dead
//! part no retained generation names ([`delete_dead`](PartStore::delete_dead)).

use crate::batch::RecordBatch;
use crate::error::{Result, SqlError};
use crate::sync;
use crate::wal::DurableFs;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError, Weak};

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

/// A shared reference to one part: what everything that reads a part
/// holds.
pub type Part = Arc<PartHandle>;

/// One part's manifest entry, and — while it is alive — a pin on its
/// file. Dropping it queues the part for deletion and does no I/O.
#[derive(Debug)]
pub struct PartHandle {
    meta: PartMeta,
    store: Weak<PartStore>,
}

impl std::ops::Deref for PartHandle {
    type Target = PartMeta;

    fn deref(&self) -> &PartMeta {
        &self.meta
    }
}

impl Drop for PartHandle {
    fn drop(&mut self) {
        if let Some(store) = self.store.upgrade() {
            store.retire(&self.meta);
        }
    }
}

/// An encoded part WAL replay holds in memory instead of on disk.
type HeldImage = (Arc<Vec<u8>>, PartMeta);

/// Shared handle to the database directory's part files, plus the
/// engine-wide part counters surfaced through `flock_metrics`.
pub struct PartStore {
    fs: Arc<dyn DurableFs>,
    next_id: AtomicU64,
    /// Parts WAL replay rebuilt, held as encoded images in memory —
    /// replay writes no file — until [`flush_held`](Self::flush_held)
    /// writes out the ones still alive ahead of the next checkpoint.
    held: Mutex<BTreeMap<u64, HeldImage>>,
    /// Part files no handle names any more, awaiting a checkpoint.
    dead: Mutex<Vec<PartMeta>>,
    /// Part files on disk.
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
    /// High-water mark of the decoded bytes one read of a table version
    /// held at once (the parts its workers had in flight) — the
    /// observable form of the memory-budget guarantee.
    pub part_scan_peak_bytes: Arc<AtomicU64>,
    /// Cap on the decoded bytes one read holds at once: the table memory
    /// budget (0 = no cap).
    scan_budget: AtomicU64,
}

impl PartStore {
    /// Open the store over an existing database directory, writing
    /// nothing: id allocation resumes above every part file on disk
    /// (referenced or orphaned, so ids are never reused even for parts a
    /// checkpoint will later delete). Orphaned tmps are left for
    /// [`sweep_tmps`](Self::sweep_tmps); recovery accounts for the files
    /// on disk ([`adopt`](Self::adopt)).
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
            held: Mutex::new(BTreeMap::new()),
            dead: Mutex::new(Vec::new()),
            parts_total: Arc::new(AtomicU64::new(0)),
            parts_merged: Arc::new(AtomicU64::new(0)),
            parts_rewritten: Arc::new(AtomicU64::new(0)),
            part_bytes_on_disk: Arc::new(AtomicU64::new(0)),
            part_bytes_uncompressed: Arc::new(AtomicU64::new(0)),
            zonemap_parts_pruned: Arc::new(AtomicU64::new(0)),
            zonemap_parts_scanned: Arc::new(AtomicU64::new(0)),
            part_scan_peak_bytes: Arc::new(AtomicU64::new(0)),
            scan_budget: AtomicU64::new(0),
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

    fn handle(self: &Arc<Self>, meta: PartMeta) -> Part {
        Arc::new(PartHandle {
            meta,
            store: Arc::downgrade(self),
        })
    }

    /// A handle on part file `meta`, which recovery found on disk, counted
    /// in the inventory. One per file, however many versions share it;
    /// dropped unused, it queues the file dead.
    pub(crate) fn adopt(self: &Arc<Self>, meta: PartMeta) -> Part {
        self.count(&meta, AtomicU64::fetch_add);
        self.handle(meta)
    }

    /// Write a batch as a new immutable part: encode, write `part.N.tmp`,
    /// fsync, rename to `part.N`. On any error the final file does not
    /// exist and the orphaned tmp (if any) is swept at the next open.
    pub fn write_part(self: &Arc<Self>, batch: &RecordBatch, level: u8) -> Result<Part> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let (file, meta) = encode_part(id, level, batch);
        self.write_image(&file, &meta)?;
        Ok(self.handle(meta))
    }

    /// Write `part.{id}` through the tmp → fsync → rename protocol and
    /// count it in the inventory.
    fn write_image(&self, file: &[u8], meta: &PartMeta) -> Result<()> {
        let name = part_file_name(meta.id);
        let tmp = format!("{name}.tmp");
        let io = |e: std::io::Error| SqlError::Io(format!("part write: {e}"));
        self.fs.write_all(&tmp, file).map_err(io)?;
        self.fs.sync(&tmp).map_err(io)?;
        self.fs.rename(&tmp, &name).map_err(io)?;
        self.count(meta, AtomicU64::fetch_add);
        Ok(())
    }

    /// Add a file to the inventory (`op` = `fetch_add`) or take one out
    /// (`fetch_sub`): every file counted once is uncounted at most once.
    fn count(&self, meta: &PartMeta, op: fn(&AtomicU64, u64, Ordering) -> u64) {
        let sizes = [1, meta.bytes_on_disk, meta.bytes_uncompressed];
        let counters = [
            &self.parts_total,
            &self.part_bytes_on_disk,
            &self.part_bytes_uncompressed,
        ];
        for (counter, n) in counters.into_iter().zip(sizes) {
            op(counter, n, Ordering::Relaxed);
        }
    }

    /// Encode a batch as a new part without writing it: WAL replay's form
    /// of [`write_part`](Self::write_part). Reads serve it from memory
    /// until [`flush_held`](Self::flush_held) writes it.
    pub(crate) fn hold_part(self: &Arc<Self>, batch: &RecordBatch, level: u8) -> Part {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let (file, meta) = encode_part(id, level, batch);
        sync::lock(&self.held).insert(id, (Arc::new(file), meta.clone()));
        self.handle(meta)
    }

    /// The last handle on `meta` dropped: a held part is simply forgotten
    /// (it has no file); a written one joins the dead queue.
    fn retire(&self, meta: &PartMeta) {
        if sync::lock(&self.held).remove(&meta.id).is_none() {
            sync::lock(&self.dead).push(meta.clone());
        }
    }

    /// Write every held part that still has a handle to disk. A checkpoint
    /// calls this before it writes a manifest that may reference them; a
    /// part leaves memory only once its file is complete, and one whose
    /// last handle dropped meanwhile is queued dead.
    pub(crate) fn flush_held(&self) -> Result<()> {
        let held: Vec<HeldImage> = sync::lock(&self.held).values().cloned().collect();
        for (file, meta) in held {
            self.write_image(&file, &meta)?;
            if sync::lock(&self.held).remove(&meta.id).is_none() {
                sync::lock(&self.dead).push(meta);
            }
        }
        Ok(())
    }

    /// Delete every dead part file `named` does not claim (the parts a
    /// retained checkpoint names); those stay queued for a later
    /// checkpoint. Best-effort: a file that will not go is forgotten, and
    /// the next open queues it again.
    pub(crate) fn delete_dead(&self, named: impl Fn(u64) -> bool) {
        let dead = std::mem::take(&mut *sync::lock(&self.dead));
        let (kept, gone): (Vec<PartMeta>, Vec<PartMeta>) =
            dead.into_iter().partition(|m| named(m.id));
        for m in gone {
            if self.fs.remove(&part_file_name(m.id)).is_ok() {
                self.count(&m, AtomicU64::fetch_sub);
            }
        }
        sync::lock(&self.dead).extend(kept);
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
        let held = sync::lock(&self.held)
            .get(&id)
            .map(|(file, _)| file.clone());
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
    /// Recovery rejects a checkpoint generation that names a torn or
    /// missing part.
    pub fn validate_part(&self, id: u64) -> bool {
        match self.fs.read(&part_file_name(id)) {
            Ok(bytes) => validate_part_image(&bytes),
            Err(_) => false,
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

    /// Cap the decoded bytes one read holds at once (the table memory
    /// budget; 0 = no cap).
    pub(crate) fn set_scan_budget(&self, bytes: u64) {
        self.scan_budget.store(bytes, Ordering::Relaxed);
    }

    /// A gate for one read's decoded parts, capped by the table memory
    /// budget and raising `part_scan_peak_bytes`.
    pub(crate) fn decode_gate(&self) -> DecodeGate {
        DecodeGate::new(
            self.scan_budget.load(Ordering::Relaxed),
            Some(self.part_scan_peak_bytes.clone()),
        )
    }
}

/// The decoded parts one read of a table version holds at once. A worker
/// reserves a part's decoded bytes before it reads the part and holds
/// them until it has handed the part's rows on; a reservation waits while
/// it would take the bytes in flight over the cap. A part alone is never
/// held back, however large, so a read always progresses. Every
/// reservation raises the peak counter to the bytes then in flight.
#[derive(Debug)]
pub(crate) struct DecodeGate {
    /// 0 = no cap.
    cap: u64,
    in_flight: Mutex<InFlight>,
    freed: Condvar,
    peak: Option<Arc<AtomicU64>>,
}

#[derive(Debug, Default)]
struct InFlight {
    bytes: u64,
    /// Reservations blocked on the cap: a release wakes them only if any
    /// (a wake-up is a syscall even when nobody waits).
    waiting: usize,
}

impl DecodeGate {
    pub(crate) fn new(cap: u64, peak: Option<Arc<AtomicU64>>) -> DecodeGate {
        DecodeGate {
            cap,
            in_flight: Mutex::new(InFlight::default()),
            freed: Condvar::new(),
            peak,
        }
    }

    /// Hold `bytes` of decoded data until the returned guard drops.
    pub(crate) fn reserve(&self, bytes: u64) -> Reservation<'_> {
        let mut held = sync::lock(&self.in_flight);
        while self.cap > 0 && held.bytes > 0 && held.bytes + bytes > self.cap {
            held.waiting += 1;
            held = self
                .freed
                .wait(held)
                .unwrap_or_else(PoisonError::into_inner);
            held.waiting -= 1;
        }
        held.bytes += bytes;
        if let Some(peak) = &self.peak {
            peak.fetch_max(held.bytes, Ordering::Relaxed);
        }
        Reservation { gate: self, bytes }
    }
}

/// Decoded bytes held through a [`DecodeGate`]; released on drop.
#[derive(Debug)]
pub(crate) struct Reservation<'a> {
    gate: &'a DecodeGate,
    bytes: u64,
}

impl Drop for Reservation<'_> {
    fn drop(&mut self) {
        let mut held = sync::lock(&self.gate.in_flight);
        held.bytes -= self.bytes;
        if held.waiting > 0 {
            self.gate.freed.notify_all();
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

    fn open(fs: &Arc<dyn DurableFs>) -> Arc<PartStore> {
        Arc::new(PartStore::open(fs.clone()).unwrap())
    }

    #[test]
    fn a_part_file_lives_while_a_handle_or_a_checkpoint_names_it() {
        let fs: Arc<dyn DurableFs> = MemFs::new();
        let store = open(&fs);
        let part = store.write_part(&sample_batch(100), 0).unwrap();
        assert_eq!(store.read_part(part.id).unwrap().num_rows(), 100);
        assert_eq!(store.parts_total.load(Ordering::Relaxed), 1);
        let (id, copy) = (part.id, part.clone());
        drop(part);
        store.delete_dead(|_| false);
        assert!(store.validate_part(id), "a clone still holds the part");
        drop(copy);
        store.delete_dead(|named| named == id);
        assert!(store.validate_part(id), "a retained checkpoint names it");
        store.delete_dead(|_| false);
        assert!(!store.validate_part(id));
        assert_eq!(store.part_bytes_on_disk.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn held_parts_are_written_only_while_a_handle_names_them() {
        let fs: Arc<dyn DurableFs> = MemFs::new();
        let store = open(&fs);
        let kept = store.hold_part(&sample_batch(10), 0);
        let superseded = store.hold_part(&sample_batch(20), 0);
        let gone = superseded.id;
        drop(superseded);
        store.flush_held().unwrap();
        assert!(store.validate_part(kept.id) && !store.validate_part(gone));
        assert_eq!(store.parts_total.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn open_sweeps_tmps_and_resumes_ids() {
        let fs: Arc<dyn DurableFs> = MemFs::new();
        {
            let store = open(&fs);
            store.write_part(&sample_batch(10), 0).unwrap();
            store.write_part(&sample_batch(10), 0).unwrap();
        }
        fs.write_all("part.00000009.tmp", b"torn").unwrap();
        let store = open(&fs);
        store.sweep_tmps().unwrap();
        assert!(
            !fs.list().unwrap().iter().any(|n| n.ends_with(".tmp")),
            "orphaned tmp must be swept at open"
        );
        assert!(store.validate_part(1), "dropping a handle does no I/O");
        let part = store.write_part(&sample_batch(10), 0).unwrap();
        assert!(part.id >= 2, "ids must not be reused after reopen");
    }

    #[test]
    fn a_decode_gate_holds_the_bytes_in_flight_under_its_cap() {
        let peak = Arc::new(AtomicU64::new(0));
        let gate = DecodeGate::new(100, Some(peak.clone()));
        let done = AtomicU64::new(0);
        std::thread::scope(|s| {
            let first = gate.reserve(60);
            s.spawn(|| {
                let _second = gate.reserve(60);
                assert_eq!(done.load(Ordering::Relaxed), 1, "reserved over the cap");
            });
            std::thread::sleep(std::time::Duration::from_millis(20));
            done.store(1, Ordering::Relaxed);
            drop(first);
        });
        assert_eq!(peak.load(Ordering::Relaxed), 60);
        // one part over the cap alone still goes through
        drop(gate.reserve(500));
        assert_eq!(peak.load(Ordering::Relaxed), 500);
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
