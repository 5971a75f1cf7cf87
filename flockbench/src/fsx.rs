//! A counting (and, when tracing, timing) [`DurableFs`] wrapped around the
//! real filesystem, passed to `open_with_fs`.
//!
//! Counts are plain atomics read in both run modes: with one writer and
//! harness-driven background work they repeat exactly. Timing is taken
//! only in the traced run, so the untraced run pays two relaxed adds per
//! call and no clock reads. Files are classed by the engine's on-disk
//! names (`wal.*`, `checkpoint.*`, `part.*`).

use crate::trace::Tracer;
use flock_sql::DurableFs;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

#[derive(Default)]
pub struct FsCounters {
    pub appends: AtomicU64,
    pub append_bytes: AtomicU64,
    pub syncs: AtomicU64,
    pub write_all_bytes: AtomicU64,
    pub reads: AtomicU64,
    pub read_bytes: AtomicU64,
    pub wal_appends: AtomicU64,
    pub wal_bytes: AtomicU64,
    pub checkpoints: AtomicU64,
    pub checkpoint_bytes: AtomicU64,
    /// Traced run only.
    pub sync_ns: AtomicU64,
    pub busy_ns: AtomicU64,
    pub checkpoint_ns: AtomicU64,
}

/// A copy of the counters at one instant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FsSnapshot {
    pub appends: u64,
    pub append_bytes: u64,
    pub syncs: u64,
    pub write_all_bytes: u64,
    pub reads: u64,
    pub read_bytes: u64,
    pub wal_appends: u64,
    pub wal_bytes: u64,
    pub checkpoints: u64,
    pub checkpoint_bytes: u64,
    pub sync_ns: u64,
    pub busy_ns: u64,
    pub checkpoint_ns: u64,
}

impl FsSnapshot {
    pub fn bytes_written(&self) -> u64 {
        self.append_bytes + self.write_all_bytes
    }

    /// Files the plain counts under their per-layer names.
    pub fn counts_into(&self, out: &mut std::collections::BTreeMap<&'static str, f64>) {
        out.insert("fs.appends", self.appends as f64);
        out.insert("fs.append_bytes", self.append_bytes as f64);
        out.insert("fs.syncs", self.syncs as f64);
        out.insert("fs.write_all_bytes", self.write_all_bytes as f64);
        out.insert("fs.reads", self.reads as f64);
        out.insert("fs.read_bytes", self.read_bytes as f64);
        out.insert("wal.appends", self.wal_appends as f64);
        out.insert("wal.bytes_appended", self.wal_bytes as f64);
        out.insert("checkpoint.count", self.checkpoints as f64);
        out.insert("checkpoint.bytes", self.checkpoint_bytes as f64);
    }

    /// Counter-wise `self - earlier`.
    pub fn since(&self, earlier: &FsSnapshot) -> FsSnapshot {
        FsSnapshot {
            appends: self.appends - earlier.appends,
            append_bytes: self.append_bytes - earlier.append_bytes,
            syncs: self.syncs - earlier.syncs,
            write_all_bytes: self.write_all_bytes - earlier.write_all_bytes,
            reads: self.reads - earlier.reads,
            read_bytes: self.read_bytes - earlier.read_bytes,
            wal_appends: self.wal_appends - earlier.wal_appends,
            wal_bytes: self.wal_bytes - earlier.wal_bytes,
            checkpoints: self.checkpoints - earlier.checkpoints,
            checkpoint_bytes: self.checkpoint_bytes - earlier.checkpoint_bytes,
            sync_ns: self.sync_ns - earlier.sync_ns,
            busy_ns: self.busy_ns - earlier.busy_ns,
            checkpoint_ns: self.checkpoint_ns - earlier.checkpoint_ns,
        }
    }
}

pub struct CountingFs {
    inner: Arc<dyn DurableFs>,
    counters: Arc<FsCounters>,
    tracer: Option<Arc<Tracer>>,
}

impl CountingFs {
    /// Wraps `inner`; `counters` outlive the handle so a reopened database
    /// keeps adding to the same totals.
    pub fn new(
        inner: Arc<dyn DurableFs>,
        counters: Arc<FsCounters>,
        tracer: Option<Arc<Tracer>>,
    ) -> Arc<CountingFs> {
        Arc::new(CountingFs {
            inner,
            counters,
            tracer,
        })
    }

    /// Runs one filesystem call; in the traced run also times it, as a
    /// span under whatever statement the harness is executing.
    fn call<T>(
        &self,
        span: &'static str,
        file: &str,
        f: impl FnOnce() -> io::Result<T>,
    ) -> io::Result<T> {
        let Some(tracer) = &self.tracer else {
            return f();
        };
        let (request, parent) = tracer.current();
        let id = tracer.open(span, request, parent);
        let started = Instant::now();
        let out = f();
        let ns = started.elapsed().as_nanos() as u64;
        tracer.close(id);
        let c = &self.counters;
        c.busy_ns.fetch_add(ns, Relaxed);
        if span == "fs.sync" {
            c.sync_ns.fetch_add(ns, Relaxed);
        }
        if file.starts_with("checkpoint.") {
            c.checkpoint_ns.fetch_add(ns, Relaxed);
        }
        out
    }
}

impl FsCounters {
    pub fn snapshot(&self) -> FsSnapshot {
        FsSnapshot {
            appends: self.appends.load(Relaxed),
            append_bytes: self.append_bytes.load(Relaxed),
            syncs: self.syncs.load(Relaxed),
            write_all_bytes: self.write_all_bytes.load(Relaxed),
            reads: self.reads.load(Relaxed),
            read_bytes: self.read_bytes.load(Relaxed),
            wal_appends: self.wal_appends.load(Relaxed),
            wal_bytes: self.wal_bytes.load(Relaxed),
            checkpoints: self.checkpoints.load(Relaxed),
            checkpoint_bytes: self.checkpoint_bytes.load(Relaxed),
            sync_ns: self.sync_ns.load(Relaxed),
            busy_ns: self.busy_ns.load(Relaxed),
            checkpoint_ns: self.checkpoint_ns.load(Relaxed),
        }
    }
}

impl DurableFs for CountingFs {
    fn read(&self, name: &str) -> io::Result<Vec<u8>> {
        let bytes = self.call("fs.read", name, || self.inner.read(name))?;
        self.counters.reads.fetch_add(1, Relaxed);
        self.counters
            .read_bytes
            .fetch_add(bytes.len() as u64, Relaxed);
        Ok(bytes)
    }

    fn write_all(&self, name: &str, data: &[u8]) -> io::Result<()> {
        let c = &self.counters;
        c.write_all_bytes.fetch_add(data.len() as u64, Relaxed);
        if name.starts_with("checkpoint.") {
            c.checkpoints.fetch_add(1, Relaxed);
            c.checkpoint_bytes.fetch_add(data.len() as u64, Relaxed);
        }
        self.call("fs.write_all", name, || self.inner.write_all(name, data))
    }

    fn append(&self, name: &str, data: &[u8]) -> io::Result<()> {
        let c = &self.counters;
        c.appends.fetch_add(1, Relaxed);
        c.append_bytes.fetch_add(data.len() as u64, Relaxed);
        if name.starts_with("wal.") {
            c.wal_appends.fetch_add(1, Relaxed);
            c.wal_bytes.fetch_add(data.len() as u64, Relaxed);
        }
        self.call("fs.append", name, || self.inner.append(name, data))
    }

    fn sync(&self, name: &str) -> io::Result<()> {
        self.counters.syncs.fetch_add(1, Relaxed);
        self.call("fs.sync", name, || self.inner.sync(name))
    }

    fn rename(&self, from: &str, to: &str) -> io::Result<()> {
        self.call("fs.rename", to, || self.inner.rename(from, to))
    }

    fn remove(&self, name: &str) -> io::Result<()> {
        self.call("fs.remove", name, || self.inner.remove(name))
    }

    fn list(&self) -> io::Result<Vec<String>> {
        self.call("fs.list", "", || self.inner.list())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flock_sql::MemFs;

    #[test]
    fn counts_by_file_class_and_times_only_when_traced() {
        let counters = Arc::new(FsCounters::default());
        let fs = CountingFs::new(MemFs::new(), counters.clone(), None);
        fs.append("wal.00000000", b"abcd").unwrap();
        fs.append("wal.00000000", b"ef").unwrap();
        fs.sync("wal.00000000").unwrap();
        fs.write_all("checkpoint.00000001.tmp", b"0123456789")
            .unwrap();
        fs.write_all("part.7.tmp", b"xyz").unwrap();
        assert_eq!(fs.read("wal.00000000").unwrap(), b"abcdef");
        let s = counters.snapshot();
        assert_eq!(
            (s.appends, s.append_bytes, s.wal_appends, s.wal_bytes),
            (2, 6, 2, 6)
        );
        assert_eq!((s.syncs, s.checkpoints, s.checkpoint_bytes), (1, 1, 10));
        assert_eq!((s.write_all_bytes, s.reads, s.read_bytes), (13, 1, 6));
        assert_eq!(s.bytes_written(), 19);
        assert_eq!(
            (s.busy_ns, s.sync_ns),
            (0, 0),
            "untraced runs read no clock"
        );

        let tracer = Arc::new(Tracer::new());
        let traced = CountingFs::new(MemFs::new(), counters.clone(), Some(tracer.clone()));
        traced.append("wal.00000000", b"gh").unwrap();
        traced.sync("wal.00000000").unwrap();
        let delta = counters.snapshot().since(&s);
        assert_eq!((delta.appends, delta.syncs), (1, 1));
        assert!(delta.busy_ns >= delta.sync_ns && delta.busy_ns > 0);
        let names: Vec<_> = tracer.snapshot().iter().map(|s| s.name).collect();
        assert_eq!(names, ["fs.append", "fs.sync"]);
    }
}
